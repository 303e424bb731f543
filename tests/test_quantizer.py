import json
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attnquant import quantizer
from attnquant.errors import DataError
from attnquant.pipeline import VALID_BITS
from attnquant.quantizer import (
    CLIP_RATIO_HI,
    CLIP_RATIO_LO,
    N_CLIP_RATIOS,
    ZERO_ROW_SCALE,
    QuantSpec,
    QuantizedWeight,
    _candidate_grids,
    dequantize,
    fit_step_size,
    optq_compensate,
    quantized_from_json,
    quantized_to_json,
    round_half_away,
    rtn_quantize,
)
from conftest import rng_for, trace_quad


def quantize_value(x: float, s: float, z: int, n: int) -> float:
    """Scalar reference: quantize-dequantize one value on the grid (s, z, n bits)."""
    if s <= 0:
        raise DataError("scale must be positive")
    g = np.clip(round_half_away(x / s) + z, 0, (1 << n) - 1)
    return float(s * (g - z))


def reference_fit_step_size(w, hessian, n_bits):
    """Brute force: every clip ratio, one scalar grid at a time, scored with
    err @ H @ err; the lower objective wins, on an exact tie the larger
    scale. A row with no positive-scale candidate gets the zero-row grid."""
    grid_max = (1 << n_bits) - 1
    scales, zero_points = [], []
    for row in w:
        max_abs = float(np.abs(row).max())
        w_min, w_max = float(row.min()), float(row.max())
        best = None
        for ratio in np.linspace(CLIP_RATIO_LO, CLIP_RATIO_HI, N_CLIP_RATIOS):
            bound = ratio * max_abs
            lo = min(max(w_min, -bound), 0.0)
            hi = max(min(w_max, bound), 0.0)
            s = (hi - lo) / grid_max
            if s <= 0:
                continue
            z = int(np.clip(round_half_away(-lo / s), 0, grid_max))
            g = np.clip(round_half_away(row / s) + z, 0, grid_max)
            err = s * (g - z) - row
            obj = float(err @ hessian @ err)
            if best is None or obj < best[0] or (obj == best[0] and s > best[1]):
                best = (obj, s, z)
        if best is None:
            best = (0.0, ZERO_ROW_SCALE, 1 << (n_bits - 1))
        scales.append(best[1])
        zero_points.append(best[2])
    return np.array(scales), np.array(zero_points, dtype=np.int64)


def assert_matches_reference(w, h, bits):
    spec = fit_step_size(w, h, bits)
    ref_scale, ref_zero = reference_fit_step_size(w, h, bits)
    np.testing.assert_array_equal(spec.scale, ref_scale)
    np.testing.assert_array_equal(spec.zero_point, ref_zero)
    return spec


def curvature(kind, d, rng):
    """Test curvatures: random PSD, rank-1, condition number 1e12, and
    random PSD scaled by 1e6 and 1e-6."""
    x = rng.standard_normal((d, d + 2))
    if kind == "rank1":
        v = rng.standard_normal(d)
        return np.outer(v, v)
    if kind == "ill":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return (q * np.logspace(0, 12, d)) @ q.T
    return x @ x.T * {"psd": 1.0, "up": 1e6, "down": 1e-6}[kind]


def minmax_spec(w, bits):
    """Zero-inclusive max-min grid (the no-clipping construction)."""
    gm = (1 << bits) - 1
    lo = np.minimum(w.min(axis=1), 0.0)
    hi = np.maximum(w.max(axis=1), 0.0)
    s = (hi - lo) / gm
    z = np.clip(round_half_away(-lo / s), 0, gm).astype(np.int64)
    return QuantSpec(n_bits=bits, scale=s, zero_point=z)


class TestQuantizeValue:
    def test_zero_maps_to_zero(self):
        for z in (0, 1, 3):
            assert quantize_value(0.0, 0.7, z, 2) == 0.0

    def test_hand_evaluated(self):
        assert quantize_value(2.7, 1.0, 0, 2) == 3.0

    def test_clamp_branch(self):
        assert quantize_value(-5.0, 1.0, 0, 2) == 0.0

    def test_ties_away_from_zero(self):
        assert quantize_value(0.5, 1.0, 1, 3) == 1.0
        assert quantize_value(-0.5, 1.0, 1, 3) == -1.0

    def test_round_half_away_keeps_scalars_scalar(self):
        assert type(round_half_away(-2.5)) is np.float64 and round_half_away(-2.5) == -3.0
        np.testing.assert_array_equal(round_half_away(np.array([0.5, -0.5, 1.49, -0.0])), [1.0, -1.0, 1.0, -0.0])

    def test_idempotent(self):
        rng = rng_for(0)
        for _ in range(200):
            x = float(rng.standard_normal() * 3)
            s = float(rng.uniform(0.05, 2.0))
            z = int(rng.integers(0, 4))
            once = quantize_value(x, s, z, 2)
            assert quantize_value(once, s, z, 2) == once

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DataError):
            quantize_value(1.0, 0.0, 0, 2)


class TestRtn:
    def test_on_grid_is_exact(self):
        spec = QuantSpec(n_bits=2, scale=np.array([0.5]), zero_point=np.array([1]))
        w = 0.5 * (np.array([[0, 1, 2, 3]], dtype=float) - 1)
        qw = rtn_quantize(w, spec)
        np.testing.assert_array_equal(dequantize(qw), w)

    def test_midpoint_ties_away_from_zero(self):
        spec = QuantSpec(n_bits=2, scale=np.array([1.0]), zero_point=np.array([2]))
        # grid values: -2, -1, 0, 1; midpoints at +-0.5, -1.5
        qw = rtn_quantize(np.array([[0.5, -0.5, -1.5]]), spec)
        np.testing.assert_array_equal(dequantize(qw), [[1.0, -1.0, -2.0]])
        errs = np.abs(dequantize(qw) - [[0.5, -0.5, -1.5]])
        np.testing.assert_array_equal(errs, 0.5 * np.ones((1, 3)))

    def test_row_count_must_match_the_spec(self):
        # a 1-row weight would otherwise broadcast over both grid rows
        spec = QuantSpec(n_bits=2, scale=np.array([0.5, 1.0]), zero_point=np.array([1, 1]))
        for w in (np.ones((1, 3)), np.ones((3, 3))):
            with pytest.raises(DataError, match="weight has"):
                rtn_quantize(w, spec)

    def test_error_within_half_step_of_clamped_value(self):
        rng = rng_for(1)
        w = rng.standard_normal((4, 16)) * 2
        spec = minmax_spec(w, 3)
        dq = dequantize(rtn_quantize(w, spec))
        lo = (spec.scale * (0 - spec.zero_point))[:, None]
        hi = (spec.scale * (spec.grid_max - spec.zero_point))[:, None]
        clamped = np.clip(w, lo, hi)
        assert np.all(np.abs(dq - clamped) <= spec.scale[:, None] / 2 + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 6),
        d=st.integers(1, 24),
        bits=st.sampled_from(VALID_BITS),
        log_scale=st.floats(-6.0, 6.0),
        midpoint_frac=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_error_at_most_half_step_inside_the_clip_range(
        self, rows, d, bits, log_scale, midpoint_frac, seed
    ):
        rng = np.random.default_rng(seed)
        grid_max = (1 << bits) - 1
        s = 10.0**log_scale * rng.uniform(0.5, 2.0, size=rows)
        z = rng.integers(0, grid_max + 1, size=rows)
        spec = QuantSpec(n_bits=bits, scale=s, zero_point=z)
        lo = (-z * s)[:, None]
        hi = ((grid_max - z) * s)[:, None]
        w = lo + rng.random((rows, d)) * (hi - lo)
        # some entries sit on the midpoints between grid values, the worst case
        k = rng.integers(0, grid_max, size=(rows, d))
        midpoints = s[:, None] * (k - z[:, None] + 0.5)
        w = np.where(rng.random((rows, d)) < midpoint_frac, midpoints, w)
        w = np.clip(w, lo, hi)
        err = np.abs(dequantize(rtn_quantize(w, spec)) - w)
        assert np.all(err <= s[:, None] / 2 * (1 + 1e-12))


class TestFitStepSize:
    def test_exactly_representable_row(self):
        # row lying on the ratio-1.0 candidate grid (s=0.5, z=1)
        w = np.array([[-0.5, 0.0, 0.5, 1.0]])
        spec = fit_step_size(w, np.eye(4), 2)
        err = dequantize(rtn_quantize(w, spec)) - w
        assert trace_quad(err, np.eye(4)) == 0.0

    def test_identity_hessian_matches_exhaustive_candidate_search(self):
        rng = rng_for(2)
        w = rng.standard_normal((1, 8))
        spec = fit_step_size(w, np.eye(8), 2)
        fitted = dequantize(rtn_quantize(w, spec)) - w
        scale, zero_point = _candidate_grids(w, 2)
        assert scale.shape == zero_point.shape == (1, N_CLIP_RATIOS)
        assert np.all(scale > 0)
        best = None
        for s, z in zip(scale[0], zero_point[0]):
            g = np.clip(round_half_away(w[0] / s) + z, 0, 3)
            err = s * (g - z) - w[0]
            obj = float(err @ err)
            best = obj if best is None else min(best, obj)
        assert abs(float(np.sum(fitted * fitted)) - best) <= 1e-12

    def test_hessian_weighting_protects_important_coordinate(self):
        w = np.array([[1.0, 10.0]])
        spec_h = fit_step_size(w, np.diag([100.0, 1.0]), 2)
        spec_i = fit_step_size(w, np.eye(2), 2)
        err_h = dequantize(rtn_quantize(w, spec_h)) - w
        err_i = dequantize(rtn_quantize(w, spec_i)) - w
        # frozen from the candidate-grid brute force: weighted fit picks the
        # 0.4 clip (s=4/3, errors (1/3, -6)); identity picks s=10/3 ((-1, 0))
        np.testing.assert_allclose(spec_h.scale, [4.0 / 3.0], rtol=1e-12)
        np.testing.assert_allclose(spec_i.scale, [10.0 / 3.0], rtol=1e-12)
        assert abs(err_h[0, 0]) < abs(err_i[0, 0])
        h = np.diag([100.0, 1.0])
        assert trace_quad(err_h, h) <= trace_quad(err_i, h)

    def test_argmin_invariant_to_hessian_scaling(self):
        rng = rng_for(3)
        w = rng.standard_normal((3, 8))
        x = rng.standard_normal((8, 32))
        h = x @ x.T
        a = fit_step_size(w, h, 2)
        b = fit_step_size(w, 7.5 * h, 2)
        np.testing.assert_array_equal(a.scale, b.scale)
        np.testing.assert_array_equal(a.zero_point, b.zero_point)

    def test_never_beaten_by_no_clip_baseline(self):
        rng = rng_for(4)
        for _ in range(20):
            w = rng.standard_normal((2, 8))
            x = rng.standard_normal((8, 16))
            h = x @ x.T
            spec = fit_step_size(w, h, 2)
            base = minmax_spec(w, 2)
            err = dequantize(rtn_quantize(w, spec)) - w
            err_base = dequantize(rtn_quantize(w, base)) - w
            for i in range(2):
                assert (
                    err[i : i + 1] @ h @ err[i : i + 1].T
                    <= err_base[i : i + 1] @ h @ err_base[i : i + 1].T + 1e-12
                )

    def test_zero_row_gets_epsilon_scale_midgrid_zero_point(self):
        w = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        spec = fit_step_size(w, np.eye(3), 4)
        assert spec.scale[0] == 1e-8
        assert spec.zero_point[0] == 8
        err = dequantize(rtn_quantize(w, spec)) - w
        assert float(err[0] @ err[0]) == 0.0

    def test_shape_validation(self):
        with pytest.raises(DataError):
            fit_step_size(np.zeros((2, 3)), np.eye(4), 2)

    def test_rejects_non_finite_inputs(self):
        with pytest.raises(DataError):
            fit_step_size(np.array([[1.0, np.nan]]), np.eye(2), 2)
        with pytest.raises(DataError):
            fit_step_size(np.array([[1.0, 2.0]]), np.diag([1.0, np.inf]), 2)

    def test_subnormal_row_whose_scales_underflow_gets_zero_row_grid(self):
        # every candidate scale of this row rounds to 0
        w = np.array([[5e-324, 0.0], [1.0, -2.0]])
        spec = assert_matches_reference(w, np.eye(2), 2)
        assert spec.scale[0] == ZERO_ROW_SCALE
        assert spec.zero_point[0] == 2

    def test_tiny_row_with_underflowing_objectives_matches_reference(self):
        # positive subnormal scales; every objective underflows to 0, so
        # the screen keeps all candidates and the largest scale wins
        w = np.array([[1e-310, -3e-311, 0.0, 7e-312]])
        spec = assert_matches_reference(w, np.eye(4), 3)
        assert spec.scale[0] == _candidate_grids(w, 3)[0][0, -1]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_row_whose_objectives_overflow_matches_reference(self):
        # every objective overflows to inf and ties, so the largest scale wins
        w = rng_for(14).standard_normal((2, 6)) * 1e155
        spec = assert_matches_reference(w, np.eye(6), 3)
        np.testing.assert_array_equal(spec.scale, _candidate_grids(w, 3)[0][:, -1])

    def test_screen_value_that_overflows_rules_nothing_out(self):
        # Under this indefinite curvature the first candidate's (ratio 0.4)
        # error products are p0 = 7.8e307, p2 = -2.0e307 and p3 = -1.6e308.
        # The screen's pairwise sum adds p2 + p3 first, which overflows to
        # -inf. Summed in index order, as a BLAS dot sums short vectors,
        # err @ H @ err is a finite -1.03e308, and the sixth candidate wins.
        # A -inf screen value bounds nothing, so the row keeps every
        # candidate: kept as -inf, it would rule out every candidate with a
        # finite screen value, the winner too.
        w = np.array([[-2.0, 0.0, 1.0, 1.875, 0.0, 0.0, 0.0, 0.0]])
        h = np.diag([2.0**1023, 0.0, -(2.0**1023), -(2.0**1023), 0.0, 0.0, 0.0, 0.0])
        scale, zero_point = _candidate_grids(w, 2)
        errors = quantizer._candidate_errors(w[0], scale[0], zero_point[0], 3)
        with np.errstate(over="ignore"):
            screen, _ = quantizer._screen_values(errors, h, 0.0, 0.0)
        assert screen[0] == -np.inf and np.isfinite(screen[1:]).all()
        assert_matches_reference(w, h, 2)

    def test_zero_hessian_ties_every_candidate_and_the_largest_scale_wins(self):
        w = rng_for(12).standard_normal((3, 10))
        w[1] = 0.0
        spec = assert_matches_reference(w, np.zeros((10, 10)), 3)
        scale, zero_point = _candidate_grids(w, 3)
        np.testing.assert_array_equal(spec.scale[[0, 2]], scale[[0, 2], -1])
        np.testing.assert_array_equal(spec.zero_point[[0, 2]], zero_point[[0, 2], -1])
        assert spec.scale[1] == ZERO_ROW_SCALE

    def test_near_tie_that_the_gemm_screen_alone_misranks(self):
        # the two best candidates differ by 1 ulp under err @ H @ err, and
        # their GEMM screen values rank them the other way round; without
        # the certification margin the screen drops the exact winner
        w = np.array([[-2, 5, 0, -1, 5, -3, -6, -6, -4, 6, -6, 6, 2,
                       -2, 1, 5, -2, 1, -6, 1, -1, 6, -4, -3, -1]], dtype=float)
        assert_matches_reference(w, np.eye(w.shape[1]), 4)

    def test_screen_that_rounds_once_keeps_a_winner_whose_products_underflow(self):
        # The winner's error products each round to 0 in err @ H @ err, so it
        # ties at 0 with smaller-scale candidates and wins as the largest. A
        # screen whose products are fused, as FMA-based BLAS kernels fuse
        # them, is a legal evaluation that rounds once and gives the winner 1 subnormal ulp,
        # more than the tied candidates' 0. The margin's relative term
        # underflows to 0, so only its absolute term 4 (d+1)^2 2^-1074 keeps
        # the winner through the screen.
        w = np.array([[7.0, -12.0, -23.0]]) * 2.0**-540
        h = np.diag([4.0, 4.0, 0.0])
        screen_values = quantizer._screen_values

        def rounded_once(err, hessian, norm_bound, underflow):
            _, margin = screen_values(err, hessian, norm_bound, underflow)
            exact = [[Fraction(x) for x in e] for e in err]
            quad = [sum(a * Fraction(h_ab) * b for a, row in zip(e, hessian) for h_ab, b in zip(row, e)) for e in exact]
            return np.array([float(q) for q in quad]), margin

        with mock.patch.object(quantizer, "_screen_values", rounded_once):
            spec = assert_matches_reference(w, h, 2)
        scale, zero_point = _candidate_grids(w, 2)
        errors = quantizer._candidate_errors(w[0], scale[0], zero_point[0], 3)
        screen, _ = rounded_once(errors, h, 0.0, 0.0)
        (won,) = np.flatnonzero(scale[0] == spec.scale[0])
        assert errors[won] @ h @ errors[won] == screen.min() == 0.0 < screen[won]

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 8),
        d=st.integers(1, 48),
        bits=st.sampled_from(VALID_BITS),
        kind=st.sampled_from(["psd", "rank1", "ill", "up", "down"]),
        zero_frac=st.sampled_from([0.0, 0.25, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_reference(self, rows, d, bits, kind, zero_frac, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows, d)) * 10.0 ** rng.uniform(-3, 3)
        w[rng.random(rows) < zero_frac] = 0.0
        assert_matches_reference(w, curvature(kind, d, rng), bits)

    @settings(max_examples=60, deadline=None)
    @example(rows=2, d=5, bits=3, kind="zero", push="odd-up", seed=0)
    @given(
        rows=st.integers(1, 6),
        d=st.integers(1, 24),
        bits=st.sampled_from(VALID_BITS),
        kind=st.sampled_from(["zero", "psd", "rank1", "ill", "up", "down"]),
        push=st.sampled_from(["odd-up", "even-up", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_with_screen_pushed_within_its_margin(
        self, rows, d, bits, kind, push, seed
    ):
        # The certification holds for any screen value within its margin of
        # the exact err @ H @ err, so a screen pushed anywhere inside that
        # band must still give the brute-force grids. At zero curvature every
        # candidate ties at 0 and only the underflow term is left: pushing
        # the largest scale (the last, odd-indexed ratio) up and its
        # neighbours down makes a screen that ignores the margin drop the
        # winner.
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows, d)) * 10.0 ** rng.uniform(-3, 3)
        h = np.zeros((d, d)) if kind == "zero" else curvature(kind, d, rng)
        screen_values = quantizer._screen_values

        def pushed(err, hessian, norm_bound, underflow):
            _, margin = screen_values(err, hessian, norm_bound, underflow)
            exact = np.array([float(e @ hessian @ e) for e in err])
            if push == "random":
                theta = rng.uniform(-0.75, 0.75, size=len(err))
            else:
                odd = np.arange(len(err)) % 2 == 1
                theta = np.where(odd == (push == "odd-up"), 0.75, -0.75)
            return exact + theta * margin, margin

        with mock.patch.object(quantizer, "_screen_values", pushed):
            assert_matches_reference(w, h, bits)

    def test_candidate_errors_built_once_per_fitted_row(self):
        # the screen and the recheck share each row's candidate errors; an
        # all-zero row has no candidate and builds none
        rng = rng_for(14)
        w = rng.standard_normal((5, 7))
        w[2] = 0.0
        calls = []
        real = quantizer._candidate_errors

        def counting(row, *args):
            calls.append(row.shape)
            return real(row, *args)

        with mock.patch.object(quantizer, "_candidate_errors", counting):
            assert_matches_reference(w, curvature("psd", 7, rng), 3)
        assert calls == [(7,)] * 4

    def test_wide_block_memory_is_bounded(self):
        # one unblocked (64*128, 768) candidate array alone is 50 MB
        rng = rng_for(13)
        w = rng.standard_normal((64, 768))
        x = rng.standard_normal((768, 800))
        h = x @ x.T / 800
        tracemalloc.start()
        try:
            fit_step_size(w, h, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestOptq:
    def test_identity_hessian_equals_rtn_bit_for_bit(self):
        rng = rng_for(5)
        for _ in range(10):
            w = rng.standard_normal((4, 6))
            spec = fit_step_size(w, np.eye(6), 3)
            qw = optq_compensate(w, np.eye(6), spec)[0]
            np.testing.assert_array_equal(qw.w_int, rtn_quantize(w, spec).w_int)
            assert not qw.fallback_rtn

    def test_single_column_equals_rtn(self):
        rng = rng_for(6)
        w = rng.standard_normal((5, 1))
        h = np.array([[2.0]])
        spec = fit_step_size(w, h, 2)
        np.testing.assert_array_equal(
            optq_compensate(w, h, spec)[0].w_int, rtn_quantize(w, spec).w_int
        )

    def test_pair_attains_exhaustive_optimum(self):
        w = np.array([[1.3, -0.8]])
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = fit_step_size(w, h, 2)
        qw = optq_compensate(w, h, spec)[0]
        achieved = trace_quad(dequantize(qw) - w, h)
        s, z = spec.scale[0], spec.zero_point[0]
        best = min(
            trace_quad(s * (np.array([[g1, g2]], dtype=float) - z) - w, h)
            for g1, g2 in product(range(4), repeat=2)
        )
        assert achieved <= best * (1 + 1e-9)

    def test_fallback_on_factorization_failure(self):
        w = rng_for(7).standard_normal((2, 3))
        h = -np.eye(3)  # indefinite: damped factorization must fail
        spec = fit_step_size(w, np.eye(3), 2)
        qw = optq_compensate(w, h, spec)[0]
        assert qw.fallback_rtn
        np.testing.assert_array_equal(qw.w_int, rtn_quantize(w, spec).w_int)

    def test_fallback_on_non_finite_factor(self):
        # near the subnormal range the damped inverse overflows, and
        # cholesky returns a non-finite factor without raising
        w = rng_for(7).standard_normal((2, 3))
        spec = fit_step_size(w, np.eye(3), 2)
        qw, compensated = optq_compensate(w, 6.4e-320 * np.eye(3), spec)
        assert qw.fallback_rtn
        np.testing.assert_array_equal(qw.w_int, rtn_quantize(w, spec).w_int)
        np.testing.assert_array_equal(compensated, w)

    def test_compensated_weights_reproduce_integers_via_rtn(self):
        rng = rng_for(8)
        w = rng.standard_normal((3, 8))
        x = rng.standard_normal((8, 64))
        h = x @ x.T / 64
        spec = fit_step_size(w, h, 2)
        qw, comp = optq_compensate(w, h, spec)
        np.testing.assert_array_equal(rtn_quantize(comp, spec).w_int, qw.w_int)

    def test_compensation_rarely_hurts_short_cascade(self):
        # 4-column cascades with well-conditioned curvature: greedy
        # compensation is reliable (>=95%)
        rng = rng_for(0)
        wins = 0
        for _ in range(200):
            w = rng.standard_normal((8, 4))
            x = rng.standard_normal((4, 128))
            h = x @ x.T / 128
            spec = fit_step_size(w, h, 2)
            r = dequantize(rtn_quantize(w, spec)) - w
            o = dequantize(optq_compensate(w, h, spec)[0]) - w
            wins += trace_quad(o, h) <= trace_quad(r, h) * (1 + 1e-12)
        assert wins >= 190

    def test_compensation_usually_helps_4x8(self):
        # long cascades miss more often; see the notes in the repo docs for
        # the measured regression profile of greedy compensation
        rng = rng_for(10)
        wins = 0
        changes = []
        for _ in range(200):
            w = rng.standard_normal((4, 8))
            x = rng.standard_normal((8, 128))
            h = x @ x.T / 128
            spec = minmax_spec(w, 4)
            lr = trace_quad(dequantize(rtn_quantize(w, spec)) - w, h)
            lo = trace_quad(dequantize(optq_compensate(w, h, spec)[0]) - w, h)
            wins += lo <= lr * (1 + 1e-12)
            changes.append((lo - lr) / lr)
        assert wins >= 176  # 88%
        assert np.mean(changes) < 0.0  # improves on average


class TestQuantizedJson:
    def test_round_trip(self):
        rng = rng_for(11)
        w = rng.standard_normal((3, 5))
        spec = fit_step_size(w, np.eye(5), 4)
        qw = rtn_quantize(w, spec)
        loaded = quantized_from_json(quantized_to_json(qw))
        np.testing.assert_array_equal(loaded.w_int, qw.w_int)
        np.testing.assert_array_equal(loaded.spec.scale, spec.scale)
        np.testing.assert_array_equal(loaded.spec.zero_point, spec.zero_point)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 6),
        d=st.integers(1, 12),
        bits=st.sampled_from(VALID_BITS),
        scale=st.lists(
            st.floats(min_value=0.0, max_value=1e300, exclude_min=True), min_size=6, max_size=6
        ),
        fallback=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_valid_weight_survives_json_text(self, rows, d, bits, scale, fallback, seed):
        rng = np.random.default_rng(seed)
        grid_max = (1 << bits) - 1
        spec = QuantSpec(
            n_bits=bits, scale=scale[:rows], zero_point=rng.integers(0, grid_max + 1, size=rows)
        )
        qw = QuantizedWeight(rng.integers(0, grid_max + 1, size=(rows, d)), spec, fallback)
        loaded = quantized_from_json(json.loads(json.dumps(quantized_to_json(qw))))
        np.testing.assert_array_equal(loaded.w_int, qw.w_int)
        np.testing.assert_array_equal(loaded.spec.scale, spec.scale)
        np.testing.assert_array_equal(loaded.spec.zero_point, spec.zero_point)
        assert loaded.spec.n_bits == bits and loaded.fallback_rtn == fallback
        assert loaded.w_int.min() >= 0 and loaded.w_int.max() <= grid_max

    def test_rejects_out_of_grid(self):
        with pytest.raises(DataError):
            quantized_from_json(
                {"n_bits": 2, "scale": [1.0], "zero_point": [0], "w_int": [[5]]}
            )
