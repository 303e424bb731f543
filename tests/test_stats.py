import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attnquant import stats as stats_module
from attnquant.errors import DataError, NumericalError
from attnquant.model import CalibSequence, attention_forward, generate_synthetic
from attnquant.objectives import ProjectionKind, context_for, loss
from attnquant.stats import CalibStats, accumulate_stats
from conftest import rng_for

STAT_NAMES = ("exx", "exax", "ektk", "eqtq")


class _NegZeroMatrix(np.ndarray):
    """A matrix whose every product with another is a block of -0.0, with
    ``@`` and with ``np.matmul(..., out=...)`` alike."""

    def __new__(cls, shape):
        return np.zeros(shape).view(cls)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is not np.matmul:
            return NotImplemented
        a, b = inputs
        product = np.full((a.shape[0], b.shape[1]), -0.0)
        if out is None:
            return product
        out[0][...] = product
        return out[0]


def _stacked_means(head, seqs) -> dict:
    """The four statistics as numpy's mean over a stack of per-sequence
    terms, each recomputed from its own forward pass."""
    terms = {name: [] for name in STAT_NAMES}
    for seq in seqs:
        trace = attention_forward(head, seq)
        xa = seq.x @ trace.a.T
        terms["exx"].append(seq.x @ seq.x.T)
        terms["exax"].append(xa @ xa.T)
        terms["ektk"].append(trace.k.T @ trace.k)
        terms["eqtq"].append(trace.q.T @ trace.q)
    return {name: np.mean(stack, axis=0) for name, stack in terms.items()}


class TestAccumulateStats:
    def test_single_sequence_is_exact(self):
        head, seqs = generate_synthetic(0, 8, 4, 6, 1)
        stats = accumulate_stats(head, seqs)
        np.testing.assert_array_equal(stats.exx, seqs[0].x @ seqs[0].x.T)

    def test_zero_input_zero_stats(self):
        head, _ = generate_synthetic(0, 8, 4, 6, 1)
        seqs = [CalibSequence(np.zeros((8, 6))) for _ in range(3)]
        stats = accumulate_stats(head, seqs)
        for m in (stats.exx, stats.exax, stats.ektk, stats.eqtq):
            np.testing.assert_array_equal(m, np.zeros_like(m))

    def test_two_sequences_mean_of_singles(self):
        head, seqs = generate_synthetic(1, 8, 4, 6, 2)
        both = accumulate_stats(head, seqs)
        first = accumulate_stats(head, seqs[:1])
        second = accumulate_stats(head, seqs[1:])
        for name in ("exx", "exax", "ektk", "eqtq"):
            np.testing.assert_allclose(
                getattr(both, name),
                0.5 * (getattr(first, name) + getattr(second, name)),
                rtol=1e-12,
            )

    # d_h >= 2: numpy reduces a stack of 1x1 matrices along its only axis
    # with pairwise summation, so there the running sum may differ in the
    # last bits (the test below covers that case with a tolerance).
    @settings(max_examples=40, deadline=None)
    @example(d_h=4, extra=4, length=6, n=16, seed=0)
    @example(d_h=16, extra=112, length=8, n=64, seed=0)
    @example(d_h=8, extra=56, length=32, n=9, seed=1)
    @given(
        d_h=st.integers(2, 6),
        extra=st.integers(0, 10),
        length=st.integers(1, 9),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_double_accumulation_bit_identical(self, d_h, extra, length, n, seed):
        head, seqs = generate_synthetic(seed, d_h + extra, d_h, length, n)
        a = accumulate_stats(head, seqs)
        b = accumulate_stats(head, seqs)
        # independent pass: recompute every per-sequence matrix from raw data
        # and reduce the stack with numpy's mean over the sequence axis
        stacked = _stacked_means(head, seqs)
        for name in STAT_NAMES:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert getattr(a, name).tobytes() == stacked[name].tobytes(), name

    def test_scalar_statistics_close_to_stacked_mean(self):
        head, seqs = generate_synthetic(5, 3, 1, 7, 40)
        stats = accumulate_stats(head, seqs)
        stacked = _stacked_means(head, seqs)
        for name in STAT_NAMES:
            np.testing.assert_allclose(getattr(stats, name), stacked[name], rtol=1e-14)

    def test_negative_zero_terms_average_to_positive_zero(self, monkeypatch):
        # np.mean starts from the additive identity, so a position that is
        # -0.0 in every term comes out +0.0; a running sum seeded with the
        # first term would keep -0.0. A real x @ x.T never gives -0.0, so
        # the forward and the sequences are stand-ins whose products do.
        head, _ = generate_synthetic(0, 6, 3, 5, 1)
        L = 5
        trace = SimpleNamespace(a=_NegZeroMatrix((L, L)), k=_NegZeroMatrix((L, 3)),
                                q=_NegZeroMatrix((L, 3)), sa=None)
        monkeypatch.setattr(stats_module, "attention_forward", lambda h, s, out=None: trace)
        seqs = [SimpleNamespace(x=_NegZeroMatrix((6, L)), length=L) for _ in range(4)]
        zero = {name: np.full((n, n), -0.0) for name, n in zip(STAT_NAMES, (6, 6, 3, 3))}
        got = accumulate_stats(head, seqs)
        for name in STAT_NAMES:
            reference = np.mean([zero[name]] * len(seqs), axis=0)
            assert not np.signbit(reference).any()
            assert getattr(got, name).tobytes() == reference.tobytes()

    def test_peak_memory_flat_in_sequence_count(self):
        head, seqs = generate_synthetic(11, 128, 16, 8, 64)
        peaks = []
        for n in (16, 64):
            tracemalloc.start()
            try:
                accumulate_stats(head, seqs[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_peak_memory_bounded_at_opt_125m_head_shape(self):
        # 9 MiB of statistics at d=768; the pass once peaked at 45 MiB
        head, seqs = generate_synthetic(0, 768, 64, 128, 32)
        tracemalloc.start()
        try:
            accumulate_stats(head, seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2**20, peak / 2**20

    def test_sums_are_frozen_and_shared_by_calibstats(self):
        head, seqs = generate_synthetic(3, 8, 4, 6, 5)
        stats = accumulate_stats(head, seqs)
        for name in STAT_NAMES:
            m = getattr(stats, name)
            assert not m.flags.writeable
            again = CalibStats(**{n: getattr(stats, n) for n in STAT_NAMES})
            assert getattr(again, name) is m

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", STAT_NAMES)
    def test_calibstats_rejects_non_finite_statistic(self, monkeypatch, name, bad):
        # accumulate_stats refuses a non-finite sum by name, in the order
        # exx, exax, ektk, eqtq. No finite calibration set spoils one sum
        # alone, so one entry of a sequence's tokens (which spoils exx, and
        # exax after it), of its map, keys or queries is spoiled directly.
        head, seqs = generate_synthetic(3, 8, 4, 6, 5)
        parts = []
        for seq in seqs:
            trace = attention_forward(head, seq)
            parts.append({"x": seq.x.copy(), "a": trace.a.copy(), "k": trace.k.copy(), "q": trace.q.copy()})
        parts[2][{"exx": "x", "exax": "a", "ektk": "k", "eqtq": "q"}[name]][1, 0] = bad
        traces = iter([SimpleNamespace(**p) for p in parts])
        monkeypatch.setattr(stats_module, "attention_forward", lambda h, s, out=None: next(traces))
        given = [SimpleNamespace(x=p["x"], length=p["x"].shape[1]) for p in parts]
        with pytest.raises(NumericalError, match=f"^statistic {name}: contains NaN or Inf entries$"):
            accumulate_stats(head, given)

    def test_naive_sequential_accumulation_close(self):
        head, seqs = generate_synthetic(2, 8, 4, 6, 16)
        stats = accumulate_stats(head, seqs)
        total = np.zeros((8, 8))
        for seq in seqs:
            total = total + seq.x @ seq.x.T
        np.testing.assert_allclose(stats.exx, total / 16, rtol=1e-12)

    def test_empty_list_rejected(self):
        head, _ = generate_synthetic(0, 8, 4, 6, 1)
        with pytest.raises(DataError):
            accumulate_stats(head, [])

    def test_dimension_mismatch_rejected(self):
        head, _ = generate_synthetic(0, 8, 4, 6, 1)
        with pytest.raises(DataError):
            accumulate_stats(head, [CalibSequence(np.zeros((5, 6)))])

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 16),
        d_h=st.integers(1, 16),
        length=st.integers(1, 9),
        n=st.integers(1, 8),
        k=st.integers(-50, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_all_statistics_symmetric_psd(self, d, d_h, length, n, k, seed):
        # What no runtime check re-proves: each sum is exactly symmetric (the
        # Gram products are, and so are their sums), and its lowest computed
        # eigenvalue is within -(L + n + d) d u max|m| of 0. Each term is
        # fl(Y Y^T), within gamma_L sqrt(m_ii m_jj) of a PSD Gram entrywise;
        # the sum over n terms and the division add gamma_n + u; entrywise
        # errors of size e move an eigenvalue by at most d e; and eigvalsh
        # adds about d u ||m||_2 <= d^2 u max|m|. The scale 10^k stays far
        # from overflow and underflow, which are refused or absolute.
        head, seqs = generate_synthetic(seed, d, min(d_h, d), length, n)
        stats = accumulate_stats(head, [CalibSequence(s.x * 10.0**k) for s in seqs])
        for name in STAT_NAMES:
            m = getattr(stats, name)
            assert np.array_equal(m, m.T), name
            bound = (length + n + m.shape[0]) * m.shape[0] * 2.0**-53 * np.abs(m).max()
            assert np.linalg.eigvalsh(m).min() >= -bound, name


class TestStatsIdentities:
    def test_layer_loss_equals_mean_frobenius(self):
        head, seqs = generate_synthetic(4, 8, 4, 6, 8)
        stats = accumulate_stats(head, seqs)
        rng = rng_for(5)
        delta = rng.standard_normal((4, 8))
        ctx = context_for(ProjectionKind.OTHER, stats)
        direct = np.mean([np.sum((delta @ s.x) ** 2) for s in seqs])
        assert abs(loss(ctx, delta) - direct) / direct <= 1e-9

    def test_value_loss_equals_mean_weighted_frobenius(self):
        head, seqs = generate_synthetic(6, 8, 4, 6, 8)
        stats = accumulate_stats(head, seqs)
        delta = rng_for(7).standard_normal((4, 8))
        ctx = context_for(ProjectionKind.VALUE, stats)
        direct = np.mean(
            [np.sum((delta @ s.x @ attention_forward(head, s).a.T) ** 2) for s in seqs]
        )
        assert abs(loss(ctx, delta) - direct) / direct <= 1e-9

    def test_input_scaling_quadratic_and_argmin_invariant(self):
        head, seqs = generate_synthetic(8, 8, 4, 6, 4)
        stats = accumulate_stats(head, seqs)
        scaled = accumulate_stats(head, [CalibSequence(2.0 * s.x) for s in seqs])
        np.testing.assert_allclose(scaled.exx, 4.0 * stats.exx, rtol=1e-12)
        # any positive scaling preserves the ordering of candidate losses
        rng = rng_for(9)
        cands = [rng.standard_normal((4, 8)) for _ in range(6)]
        ctx = context_for(ProjectionKind.OTHER, stats)
        ctx_scaled = context_for(ProjectionKind.OTHER, scaled)
        order = np.argsort([loss(ctx, c) for c in cands])
        order_scaled = np.argsort([loss(ctx_scaled, c) for c in cands])
        np.testing.assert_array_equal(order, order_scaled)

