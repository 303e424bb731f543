import csv
import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attnquant import rounding
from attnquant.checks import objective_gradient_gap, one_slab_objective, random_psd
from attnquant.errors import DataError, NonFiniteRounding, NumericalError
from attnquant.flops import FlopCounter, matmul_flops, trace_loss_flops
from attnquant.model import generate_synthetic
from attnquant.objectives import (
    LossContext,
    ProjectionKind,
    context_for,
    loss,
    loss_gradient,
    row_hessian,
)
from attnquant.oracle import exact_error
from attnquant.pipeline import VALID_BITS
from attnquant.quantizer import (
    QuantizedWeight,
    dequantize,
    fit_step_size,
    optq_compensate,
    rtn_quantize,
)
from attnquant.rounding import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CHECK_BLOCK,
    GAMMA,
    ZETA,
    RoundingStack,
    SoftQuantConfig,
    optimize_rounding,
    rectified_sigmoid,
    regularizer_gradient,
    rounding_objective,
    rounding_regularizer,
)
from attnquant.stats import accumulate_stats
from conftest import rng_for


def reference_rectified_sigmoid(b):
    sig = 1.0 / (1.0 + np.exp(-np.asarray(b, dtype=np.float64)))
    raw = sig * (ZETA - GAMMA) + GAMMA
    inside = (raw > 0.0) & (raw < 1.0)
    return np.clip(raw, 0.0, 1.0), inside * (ZETA - GAMMA) * sig * (1.0 - sig)


def reference_regularizer(h, dh_db, lam, beta):
    t = 2.0 * h - 1.0
    abs_t = np.abs(t)
    value = lam * float(np.sum(1.0 - abs_t**beta))
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(abs_t > 0, abs_t ** (beta - 1.0), 0.0)
    grad_h = -2.0 * beta * power * np.sign(t)
    return value, lam * grad_h * dh_db


def reference_objective(b, w, spec, ctx, lam, beta, w_reference=None, counter=None):
    ref = w if w_reference is None else w_reference
    s, z = spec.scale[:, None], spec.zero_point[:, None]
    h, dh_db = reference_rectified_sigmoid(b)
    g_raw = np.floor(w / s) + z + h
    inside = (g_raw > 0.0) & (g_raw < spec.grid_max)
    delta = ref - s * (np.clip(g_raw, 0, spec.grid_max) - z)
    reconstruction = loss(ctx, delta)
    grad_recon = -loss_gradient(ctx, delta) * s * inside * dh_db
    if counter is not None:  # one loss and one gradient, then 6 ops per weight
        counter.add(sum(trace_loss_flops(*w.shape, ctx.identity_left)) + 6 * w.size)
    regularizer, grad_reg = reference_regularizer(h, dh_db, lam, beta)
    return reconstruction, regularizer, grad_recon + grad_reg


def recipe(learning_rate=rounding.LEARNING_RATE, rounding_weight=rounding.ROUNDING_WEIGHT):
    """A context in which learned rounding, and the reference loop below,
    run at another learning rate or rounding weight: the tests' lever on the
    two constants of the recipe."""
    return mock.patch.multiple(rounding, LEARNING_RATE=learning_rate, ROUNDING_WEIGHT=rounding_weight)


def reference_optimize_rounding(w, spec, ctx, cfg, w_reference=None, counter=None, trace_csv=None, h_log=None):
    """The one-projection loop that the stacked loop replaced: separate loss
    and gradient evaluations, freshly allocated arrays at every step, and
    every iteration run (no early exit). Like optimize_rounding, it reads
    the learning rate and the rounding weight at each call. ``h_log``, a
    list, receives each iteration's h."""
    w = np.asarray(w, dtype=np.float64)
    floor_grid = np.floor(w / spec.scale[:, None])
    frac = np.clip(w / spec.scale[:, None] - floor_grid, 0.01, 0.99)
    inner = np.clip((frac - GAMMA) / (ZETA - GAMMA), 1e-4, 1 - 1e-4)
    b = np.log(inner / (1.0 - inner))
    m = np.zeros_like(b)
    v = np.zeros_like(b)
    trace = []
    for it in range(cfg.iterations):
        if h_log is not None:
            h_log.append(reference_rectified_sigmoid(b)[0])
        recon, reg, grad = reference_objective(
            b, w, spec, ctx, rounding.ROUNDING_WEIGHT, cfg.beta_at(it), w_reference, counter
        )
        trace.append((recon + reg, recon, reg))
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** (it + 1))
        v_hat = v / (1.0 - ADAM_BETA2 ** (it + 1))
        b = b - rounding.LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if counter is not None:
            counter.add(10 * b.size)
    if trace_csv is not None:
        with open(trace_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "total", "reconstruction", "regularizer"])
            writer.writerows((i, *map(repr, row)) for i, row in enumerate(trace))
    h, _ = reference_rectified_sigmoid(b)
    g = np.clip(floor_grid + spec.zero_point[:, None] + (h >= 0.5), 0, spec.grid_max)
    return QuantizedWeight(w_int=g.astype(np.int64), spec=spec)


def value_setup(seed=0, d=12, d_h=4, length=6, n=8, bits=2):
    head, seqs = generate_synthetic(seed, d, d_h, length, n)
    stats = accumulate_stats(head, seqs)
    ctx = context_for(ProjectionKind.VALUE, stats)
    w = head.projection("W_V")
    spec = fit_step_size(w, row_hessian(ctx), bits)
    return head, seqs, ctx, w, spec


class TestSoftQuantize:
    # The soft assignment is read through rounding_objective: with the
    # expected weights as w_reference the deviation is exactly zero, so the
    # reconstruction and the gradient are exactly zero.
    def test_saturated_low_is_floor_grid(self):
        _, _, ctx, w, spec = value_setup()
        b = np.full(w.shape, -50.0)
        s, z = spec.scale[:, None], spec.zero_point[:, None]
        expected = s * (np.clip(np.floor(w / s) + z, 0, spec.grid_max) - z)
        recon, reg, grad = one_slab_objective(b, w, spec, ctx, 1.5, 2.0, w_reference=expected)
        assert recon == 0.0 and reg == 0.0
        np.testing.assert_array_equal(grad, np.zeros(w.shape))

    def test_hard_ends_lie_on_grid(self):
        _, _, ctx, w, spec = value_setup(seed=3)
        for b_val in (-50.0, 50.0):
            b = np.full(w.shape, b_val)
            g = np.floor(w / spec.scale[:, None]) + spec.zero_point[:, None] + (b_val > 0)
            on_grid = dequantize(QuantizedWeight(np.clip(g, 0, spec.grid_max).astype(np.int64), spec))
            recon, reg, grad = one_slab_objective(b, w, spec, ctx, 1.5, 2.0, w_reference=on_grid)
            assert recon == 0.0 and reg == 0.0
            np.testing.assert_array_equal(grad, np.zeros(w.shape))

    def test_hard_assignment_rounds_an_exact_half_up(self):
        # h(-4.44e-16) is exactly 0.5 (h(0) is one ulp above it), so only a
        # threshold of h >= 0.5, not h > 0.5, rounds that entry up
        _, _, ctx, w, spec = value_setup()
        floor_grid = np.floor(w / spec.scale[:, None]) + spec.zero_point[:, None]
        row, col = np.argwhere((floor_grid >= 0) & (floor_grid < spec.grid_max))[0]
        b = np.full((1, *w.shape), -50.0)
        b[0, row, col] = -4.44e-16
        assert rectified_sigmoid(b)[0][0, row, col] == 0.5
        (got,) = RoundingStack([w], [spec], [ctx]).hard_assignment(b)
        expected = np.clip(floor_grid, 0, spec.grid_max)
        expected[row, col] += 1
        np.testing.assert_array_equal(got.w_int, expected)


class TestRoundingObjective:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("b_val, offset", [(-50.0, 0.0), (0.0, 0.5), (50.0, 1.0)])
    def test_reconstruction_at_floor_midpoint_and_ceil(self, seed, b_val, offset):
        # h(-50) = 0 and h(50) = 1 exactly: the soft assignment is the floor
        # or ceil grid point; h(0) = sigmoid(0) * 1.2 - 0.1 = 0.5 up to one
        # rounding step, the cell midpoint
        _, _, ctx, w, spec = value_setup(seed=seed)
        b = np.full(w.shape, b_val)
        assert abs(rectified_sigmoid(b)[0] - offset).max() < 1e-15
        recon, reg, _ = one_slab_objective(b, w, spec, ctx, 1.5, 2.0)
        s, z = spec.scale[:, None], spec.zero_point[:, None]
        expected = loss(ctx, w - s * (np.clip(np.floor(w / s) + z + offset, 0, spec.grid_max) - z))
        if offset == 0.5:
            np.testing.assert_allclose(recon, expected, rtol=1e-12)
        else:
            assert recon == expected and reg == 0.0


class TestRegularizer:
    def test_zero_at_hard_assignments(self):
        h, dh_db = rectified_sigmoid(np.array([[-50.0, 50.0]]))
        assert rounding_regularizer(h, 1.5, 4.0) == 0.0
        np.testing.assert_array_equal(regularizer_gradient(h, dh_db, 1.5, 4.0), np.zeros((1, 2)))

    def test_single_midpoint_entry(self):
        h, _ = rectified_sigmoid(np.array([[0.0]]))
        assert rounding_regularizer(h, 1.5, 7.0) == 1.5

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(1)
        b = rng.uniform(-1.5, 1.5, size=(3, 4))
        grad = regularizer_gradient(*rectified_sigmoid(b), 1.5, 2.0)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                bp, bm = b.copy(), b.copy()
                bp[i, j] += eps
                bm[i, j] -= eps
                vp = rounding_regularizer(rectified_sigmoid(bp)[0], 1.5, 2.0)
                vm = rounding_regularizer(rectified_sigmoid(bm)[0], 1.5, 2.0)
                fd = (vp - vm) / (2 * eps)
                assert abs(fd - grad[i, j]) <= 1e-5 * max(1.0, abs(fd))

    @settings(max_examples=80, deadline=None)
    @example(beta=1.0, lam=1.5, seed=0)
    @example(beta=2.0, lam=0.0, seed=1)
    @example(beta=20.0, lam=1.5, seed=2)
    @given(
        beta=st.sampled_from([1.0, 2.0, 20.0]) | st.floats(1.0, 20.0),
        lam=st.sampled_from([0.0, 1.5]) | st.floats(0.0, 10.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference_bit_for_bit(self, beta, lam, seed):
        # h holds exact 0, 0.5 and 1 entries, where the gradient is a signed
        # zero, among interior ones; .view(np.int64) tells -0.0 from +0.0
        rng = rng_for(seed)
        shape = (3, 2, 5)
        h = rng.choice([0.0, 0.5, 1.0, np.nan], size=shape)
        interior = np.isnan(h)
        h[interior] = rng.uniform(0.0, 1.0, size=int(interior.sum()))
        dh_db = rng.uniform(0.0, 0.3, size=shape)
        dh_db[h == 0.0] = 0.0  # saturated entries have a zero derivative
        value = rounding_regularizer(h, lam, beta)
        grad = regularizer_gradient(h, dh_db, lam, beta)
        for p in range(shape[0]):
            expected_value, expected_grad = reference_regularizer(h[p], dh_db[p], lam, beta)
            assert value[p] == expected_value
            np.testing.assert_array_equal(grad[p].view(np.int64), expected_grad.view(np.int64))

    def test_rejects_nonpositive_beta(self):
        # and every beta below 1, which the annealed schedule never reaches
        h, dh_db = rectified_sigmoid(np.zeros((1, 1)))
        for beta in (0.0, 0.5, np.nextafter(1.0, 0.0), -1.0, np.nan):
            with pytest.raises(DataError, match="beta"):
                rounding_regularizer(h, 1.5, beta)
            with pytest.raises(DataError, match="beta"):
                regularizer_gradient(h, dh_db, 1.5, beta)


class TestTotalObjectiveGradient:
    def test_matches_finite_differences_away_from_clamps(self):
        _, _, ctx, w, spec = value_setup(seed=2)
        assert objective_gradient_gap(rng_for(3), w, spec, ctx) <= 1e-4

    def test_matches_finite_differences_with_compensated_warm_start(self):
        # the pipeline's case: the soft assignment lives on the OPTQ-compensated
        # weights' grid cells, the loss measures the deviation from the originals
        _, _, ctx, w, spec = value_setup(seed=2)
        _, comp = optq_compensate(w, row_hessian(ctx), spec)
        assert objective_gradient_gap(rng_for(3), comp, spec, ctx, w_reference=w) <= 1e-4


def read_trace(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


class TestOptimizeRounding:
    def test_huge_rounding_weight_saturates_h(self, tmp_path):
        # every h ends exactly at 0 or 1: the last regularizer is exactly 0
        # and the last soft reconstruction is the hard assignment's loss
        _, _, ctx, w, spec = value_setup(seed=0)
        path = tmp_path / "trace.csv"
        with recipe(rounding_weight=1e6):
            (qw,) = optimize_rounding([w], [spec], [ctx], SoftQuantConfig(), w_reference=[w], trace_csv=[path])
        _, rows = read_trace(path)
        _, _, recon, reg = rows[-1]
        assert reg == 0.0
        assert recon == loss(ctx, dequantize(qw) - w)

    def test_deterministic(self):
        _, _, ctx, w, spec = value_setup(seed=5)
        cfg = SoftQuantConfig(iterations=300)
        (a,) = optimize_rounding([w], [spec], [ctx], cfg)
        (b,) = optimize_rounding([w], [spec], [ctx], cfg)
        np.testing.assert_array_equal(a.w_int, b.w_int)

    def test_loss_trace_length_and_finiteness(self, tmp_path):
        # one finite row per iteration, non-negative reconstruction
        _, _, ctx, w, spec = value_setup(seed=6)
        path = tmp_path / "trace.csv"
        (qw,) = optimize_rounding([w], [spec], [ctx], SoftQuantConfig(iterations=150), trace_csv=[path])
        _, rows = read_trace(path)
        assert len(rows) == 150
        assert np.isfinite(rows).all()
        assert all(recon >= 0.0 for _, _, recon, _ in rows)
        assert loss(ctx, dequantize(qw) - w) >= 0.0

    def test_trace_csv_schema(self, tmp_path):
        _, _, ctx, w, spec = value_setup(seed=7)
        path = tmp_path / "trace.csv"
        optimize_rounding([w], [spec], [ctx], SoftQuantConfig(iterations=20), trace_csv=[path])
        header, rows = read_trace(path)
        assert header == ["iteration", "total", "reconstruction", "regularizer"]
        assert [row[0] for row in rows] == list(range(20))

    @pytest.mark.parametrize(
        "constant, value", [("LEARNING_RATE", 0.05), ("ROUNDING_WEIGHT", 0.0)],
        ids=["learning-rate", "rounding-weight"],
    )
    def test_reads_the_recipe_constants_at_each_call(self, tmp_path, constant, value):
        # a patched constant changes the run's trace, and once the patch is
        # gone the recipe's own value gives back the first trace
        _, _, ctx, w, spec = value_setup(seed=7)
        cfg = SoftQuantConfig(iterations=20)
        paths = [tmp_path / f"{name}.csv" for name in ("before", "patched", "after")]
        optimize_rounding([w], [spec], [ctx], cfg, trace_csv=[paths[0]])
        with mock.patch.object(rounding, constant, value):
            optimize_rounding([w], [spec], [ctx], cfg, trace_csv=[paths[1]])
        optimize_rounding([w], [spec], [ctx], cfg, trace_csv=[paths[2]])
        before, patched, after = (read_trace(path)[1] for path in paths)
        assert patched != before
        assert after == before

    @pytest.mark.parametrize("kind", list(ProjectionKind), ids=lambda k: k.value)
    def test_per_iteration_flops_match_closed_form(self, kind):
        # loss + gradient + 6 elementwise ops per weight for the step and 10
        # for the optimizer update; query/key add one d_h x d_h left product
        # to each of the loss and the gradient
        d, d_h = 16, 4
        head, seqs = generate_synthetic(8, d, d_h, 8, 8)
        ctx = context_for(kind, accumulate_stats(head, seqs))
        w = head.projection("W_V")
        spec = fit_step_size(w, row_hessian(ctx), 2)
        per_iter = 2 * matmul_flops(d_h, d, d) + 3 * d_h * d - 1 + 16 * d_h * d
        if kind in (ProjectionKind.QUERY, ProjectionKind.KEY):
            per_iter += 2 * matmul_flops(d_h, d_h, d)
        assert per_iter == {"value": 5183, "other": 5183, "query": 6079, "key": 6079}[kind.value]
        for iterations in (1, 3):
            counter = FlopCounter()
            optimize_rounding([w], [spec], [ctx], SoftQuantConfig(iterations=iterations), counter=counter)
            assert counter.count == iterations * per_iter

    def test_stack_iteration_flops(self):
        # the desk-shape V+Q+K stack counts the 17 341 flops per iteration
        # that the traced bench reads; a V-only stack counts one loss and one
        # gradient (2111 + 2048) plus 16 elementwise ops per weight
        head, seqs = generate_synthetic(0, 16, 4, 8, 8)
        stats = accumulate_stats(head, seqs)
        kinds = [ProjectionKind.VALUE, ProjectionKind.QUERY, ProjectionKind.KEY]
        ctxs = [context_for(kind, stats) for kind in kinds]
        ws = [head.projection(name) for name in ("W_V", "W_Q", "W_K")]
        specs = [fit_step_size(w, row_hessian(c), 2) for w, c in zip(ws, ctxs)]
        assert RoundingStack(ws, specs, ctxs).iter_flops == 17341
        assert RoundingStack(ws[:1], specs[:1], ctxs[:1]).iter_flops == 4159 + 16 * 64 == 5183

    def test_per_iteration_cost_independent_of_calibration_size(self):
        head, seqs = generate_synthetic(8, 16, 4, 8, 64)
        counts = {}
        for n in (8, 64):
            stats = accumulate_stats(head, seqs[:n])
            ctx = context_for(ProjectionKind.VALUE, stats)
            w = head.projection("W_V")
            spec = fit_step_size(w, row_hessian(ctx), 2)
            counter = FlopCounter()
            optimize_rounding([w], [spec], [ctx], SoftQuantConfig(iterations=1), counter=counter)
            counts[n] = counter.count
        assert counts[8] == counts[64]

    def test_beats_nearest_rounding_on_same_spec_across_seeds(self):
        # reconstruction error on the calibration set, value projection,
        # 2-bit; learned rounding must win on >= 90% of seeds
        wins = 0
        for seed in range(20):
            head, seqs = generate_synthetic(seed, 16, 4, 8, 32)
            stats = accumulate_stats(head, seqs)
            ctx = context_for(ProjectionKind.VALUE, stats)
            w = head.projection("W_V")
            spec = fit_step_size(w, row_hessian(ctx), 2)
            warm, comp = optq_compensate(w, row_hessian(ctx), spec)
            (ada,) = optimize_rounding([comp], [spec], [ctx], SoftQuantConfig(), w_reference=[w])
            e_ada = exact_error(head, seqs, "W_V", dequantize(ada) - w)
            e_rtn = exact_error(head, seqs, "W_V", dequantize(rtn_quantize(w, spec)) - w)
            wins += e_ada <= e_rtn
        assert wins >= 18


def random_slabs(d, d_h, kinds, bits, seed):
    """(w, spec, ctx, w_reference) lists of one random rounding problem per
    kind. Q and K share E[XX^T] in the pipeline; here every query/key slab
    shares one read-only right factor too, which the contexts alias."""
    rng = rng_for(seed)
    shared_right = random_psd(rng, d)
    shared_right.setflags(write=False)
    ws, specs, ctxs, refs = [], [], [], []
    for kind, n_bits in zip(map(ProjectionKind, kinds), bits):
        if kind in (ProjectionKind.QUERY, ProjectionKind.KEY):
            ctx = LossContext(kind, random_psd(rng, d_h), shared_right)
        else:
            ctx = LossContext(kind, np.eye(d_h), random_psd(rng, d))
        ref = rng.standard_normal((d_h, d))
        ws.append(ref + 0.05 * rng.standard_normal((d_h, d)))  # a compensated warm start
        specs.append(fit_step_size(ref, row_hessian(ctx), n_bits))
        ctxs.append(ctx)
        refs.append(ref)
    return ws, specs, ctxs, refs


def first_saturated(h_log) -> int | None:
    """The first iteration of a reference run at which every h is exactly 0
    or 1 (every entry clamped), or None."""
    return next((it for it, h in enumerate(h_log) if np.isin(h, (0.0, 1.0)).all()), None)


SLAB_KINDS = st.lists(st.sampled_from([k.value for k in ProjectionKind]), min_size=1, max_size=3)


class TestStackedEqualsPerProjection:
    """One stacked loop gives every slab the integers and trace rows that
    the one-projection reference loop gives it alone, whether or not the
    stacked loop writes traces. The stacked loop stops after the first
    iteration at which every entry of every slab is clamped, so its flop
    count is the reference's per-iteration count times the iterations up to
    that one, and the reference's total when some slab never saturates."""

    @settings(max_examples=60, deadline=None)
    @example(d=16, d_h=4, kinds=["value", "query", "key"], bits=[2, 2, 2], iterations=25,
             learning_rate=0.015, lam=1.5, seed=0, traced=True)
    @example(d=16, d_h=4, kinds=["value", "query", "key"], bits=[2, 2, 2], iterations=25,
             learning_rate=0.015, lam=1.5, seed=0, traced=False)
    # the batched query/key product at d_h = 1, where a 2-D stack of the
    # slabs would change the BLAS kernel and the bits
    @example(d=16, d_h=1, kinds=["query", "key"], bits=[2, 2, 2], iterations=25,
             learning_rate=0.015, lam=1.5, seed=0, traced=True)
    # the slabs saturate at iterations 17, 20 and 19, so the loop runs 21
    @example(d=4, d_h=2, kinds=["value", "query", "key"], bits=[2, 3, 4], iterations=25,
             learning_rate=0.5, lam=1.5, seed=1, traced=True)
    @example(d=1, d_h=1, kinds=["other"], bits=[8], iterations=1, learning_rate=0.015, lam=0.0, seed=1,
             traced=True)
    @given(
        d=st.integers(1, 24),
        d_h=st.integers(1, 6),
        kinds=SLAB_KINDS,
        bits=st.lists(st.sampled_from(VALID_BITS), min_size=3, max_size=3),
        iterations=st.integers(1, 25),
        learning_rate=st.sampled_from([0.015, 0.5]),
        lam=st.sampled_from([0.0, 1.5, 1e6]) | st.floats(0.0, 10.0),
        seed=st.integers(0, 2**16),
        traced=st.booleans(),
    )
    def test_stacked_equals_per_projection(self, d, d_h, kinds, bits, iterations, learning_rate, lam, seed,
                                           traced):
        ws, specs, ctxs, refs = random_slabs(d, d_h, kinds, bits, seed)
        cfg = SoftQuantConfig(iterations=iterations)
        with recipe(learning_rate, lam), tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"stacked_{p}.csv" for p in range(len(ws))]
            counter = FlopCounter()
            stacked = optimize_rounding(
                ws, specs, ctxs, cfg, w_reference=refs, counter=counter,
                trace_csv=paths if traced else None,
            )
            reference_counter = FlopCounter()
            saturated = []
            for p, (w, spec, ctx, ref) in enumerate(zip(ws, specs, ctxs, refs)):
                path = Path(tmp) / f"reference_{p}.csv"
                h_log = []
                expected = reference_optimize_rounding(
                    w, spec, ctx, cfg, ref, counter=reference_counter, trace_csv=path, h_log=h_log
                )
                saturated.append(first_saturated(h_log))
                np.testing.assert_array_equal(stacked[p].w_int, expected.w_int)
                assert stacked[p].spec is spec
                if traced:
                    assert paths[p].read_text() == path.read_text()
                else:
                    assert not paths[p].exists()
        if None in saturated:
            assert counter.count == reference_counter.count
        else:
            assert counter.count == (max(saturated) + 1) * (reference_counter.count // iterations)

    def test_rejects_mismatched_slabs(self):
        _, _, ctx, w, spec = value_setup()
        cfg = SoftQuantConfig(iterations=2)
        with pytest.raises(DataError):
            optimize_rounding([w, w], [spec], [ctx], cfg)
        with pytest.raises(DataError):
            optimize_rounding([w, w[:, :-1]], [spec, spec], [ctx, ctx], cfg)
        with pytest.raises(DataError):
            optimize_rounding([w[:, :-1]], [spec], [ctx], cfg)

    @pytest.mark.parametrize("iterations", [1, 2])
    @pytest.mark.parametrize("short", ["spec", "ctx", "w_reference", "trace_csv"])
    def test_every_argument_needs_one_entry_per_slab(self, tmp_path, short, iterations):
        # zip would drop the second slab silently, however many iterations run
        _, _, ctx, w, spec = value_setup()
        args = {"spec": [spec, spec], "ctx": [ctx, ctx], "w_reference": [w, w],
                "trace_csv": [tmp_path / "a.csv", tmp_path / "b.csv"]}
        args[short] = args[short][:1]
        with pytest.raises(DataError, match="one entry per slab"):
            optimize_rounding([w, w], args["spec"], args["ctx"], SoftQuantConfig(iterations=iterations),
                              w_reference=args["w_reference"], trace_csv=args["trace_csv"])

    def test_no_slabs_no_results(self):
        assert optimize_rounding([], [], [], SoftQuantConfig(iterations=3)) == []


class TestEarlyExit:
    """The loop stops after the first iteration at which every entry of the
    stack is clamped, because no later iteration would change any h."""

    @settings(max_examples=40, deadline=None)
    @example(d=4, d_h=2, kinds=["value", "query", "key"], bits=[2, 3, 4], learning_rate=0.5, lam=1.5, seed=1)
    @given(
        d=st.integers(1, 8),
        d_h=st.integers(1, 3),
        kinds=SLAB_KINDS,
        bits=st.lists(st.sampled_from(VALID_BITS), min_size=3, max_size=3),
        learning_rate=st.floats(0.2, 1.0),
        lam=st.sampled_from([0.0, 1.5, 1e6]) | st.floats(0.0, 10.0),
        seed=st.integers(0, 2**16),
    )
    def test_continuing_after_the_exit_changes_no_h(self, d, d_h, kinds, bits, learning_rate, lam, seed):
        ws, specs, ctxs, refs = random_slabs(d, d_h, kinds, bits, seed)
        cfg = SoftQuantConfig(iterations=100)
        counter = FlopCounter()
        with recipe(learning_rate, lam):
            stacked = optimize_rounding(ws, specs, ctxs, cfg, w_reference=refs, counter=counter)
            ran = counter.count // RoundingStack(ws, specs, ctxs, refs).iter_flops
            # The reference loop runs every iteration, so past the stacked
            # loop's exit it is the loop continued.
            saturated = []
            for qw, w, spec, ctx, ref in zip(stacked, ws, specs, ctxs, refs):
                h_log = []
                expected = reference_optimize_rounding(w, spec, ctx, cfg, ref, h_log=h_log)
                np.testing.assert_array_equal(qw.w_int, expected.w_int)
                first = first_saturated(h_log)
                saturated.append(first)
                if first is not None:
                    for h in h_log[first:]:
                        np.testing.assert_array_equal(h, h_log[first])
        assert ran == (cfg.iterations if None in saturated else max(saturated) + 1)


class TestNonFinite:
    # Untraced runs skip the regularizer's value, and must still name the
    # iteration and slab that traced runs name.
    def test_overflowing_loss_names_the_slab_and_iteration(self, tmp_path):
        self.check_overflowing_loss(tmp_path, traced=True)

    def test_overflowing_loss_names_the_slab_and_iteration_untraced(self, tmp_path):
        self.check_overflowing_loss(tmp_path, traced=False)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_diverged_run_stops_after_its_first_block(self, tmp_path, traced):
        self.check_overflowing_loss(tmp_path, traced, iterations=3 * CHECK_BLOCK + 1)

    def test_diverged_run_stops_after_100_iterations(self, tmp_path):
        # a literal count, so that a change of the block size shows
        assert self.check_overflowing_loss(tmp_path, traced=False, iterations=250) == 100

    def check_overflowing_loss(self, tmp_path, traced, iterations=5):
        # slab 1's right factor is 1e308 I and its weights sit 10 away from
        # the reference: the first loss overflows to inf
        rng = rng_for(5)
        w = rng.standard_normal((2, 3))
        spec = fit_step_size(w, np.eye(3), 2)
        fine = LossContext(ProjectionKind.OTHER, np.eye(2), np.eye(3))
        huge = LossContext(ProjectionKind.OTHER, np.eye(2), 1e308 * np.eye(3))
        with np.errstate(over="ignore"):
            assert loss(huge, np.full((2, 3), 10.0)) == np.inf
        path = tmp_path / "trace.csv"
        counter = FlopCounter()
        with pytest.raises(NonFiniteRounding, match="iteration 0") as info:
            optimize_rounding(
                [w, w], [spec, spec], [fine, huge], SoftQuantConfig(iterations=iterations),
                w_reference=[w, w + 10.0], counter=counter,
                trace_csv=[path, tmp_path / "slab1.csv"] if traced else None,
            )
        # a run that raises counts the iterations it ran: its first block
        per_iter = RoundingStack([w, w], [spec, spec], [fine, huge]).iter_flops
        assert counter.count == min(iterations, CHECK_BLOCK) * per_iter
        assert info.value.slab == 1
        assert isinstance(info.value, NumericalError)
        assert not any(tmp_path.iterdir())  # no trace written
        return counter.count // per_iter

    @pytest.mark.parametrize("block", [1, CHECK_BLOCK])
    def test_first_bad_loss_outranks_logits_gone_bad_beside_it(self, monkeypatch, block):
        # At iteration 0 slab 1's loss overflows while slab 0's is finite,
        # and the update at learning rate 1e308 takes slab 0's logits out of
        # range. Whether or not the block ends there, the run names slab 1.
        monkeypatch.setattr(rounding, "CHECK_BLOCK", block)
        rng = rng_for(5)
        w = rng.standard_normal((2, 3))
        spec = fit_step_size(w, np.eye(3), 2)
        fine = LossContext(ProjectionKind.OTHER, np.eye(2), np.eye(3))
        huge = LossContext(ProjectionKind.OTHER, np.eye(2), 1e308 * np.eye(3))
        with recipe(1e308, 0.0), pytest.raises(NonFiniteRounding, match="iteration 0$") as info:
            optimize_rounding(
                [w, w], [spec, spec], [fine, huge], SoftQuantConfig(iterations=3),
                w_reference=[w + 100.0, w + 10.0],
            )
        assert info.value.slab == 1

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_a_rounding_weight_whose_gradient_overflows_is_non_finite(self, tmp_path, traced):
        # lam * 6 is finite, so no regularizer value overflows, but
        # 2 * beta * lam = 40 * lam, the regularizer gradient's factor at the
        # first iteration, does: the first step makes the logits non-finite,
        # the loss at iteration 1 follows, and no trace is written
        rng = rng_for(5)
        w = rng.standard_normal((2, 3))
        spec = fit_step_size(w, np.eye(3), 2)
        ctx = LossContext(ProjectionKind.OTHER, np.eye(2), np.eye(3))
        assert np.isfinite(1e307 * w.size) and not np.isfinite(40.0 * 1e307)
        path = tmp_path / "trace.csv"
        counter = FlopCounter()
        with recipe(rounding_weight=1e307), pytest.raises(NonFiniteRounding, match="iteration 1$") as info:
            optimize_rounding([w], [spec], [ctx], SoftQuantConfig(iterations=3),
                              counter=counter, trace_csv=[path] if traced else None)
        assert isinstance(info.value, NumericalError) and info.value.slab == 0
        assert counter.count == 3 * RoundingStack([w], [spec], [ctx]).iter_flops
        assert not path.exists()

    @pytest.mark.parametrize("learning_rate", [1e300, 1e308])
    def test_an_early_exit_checks_the_final_logits(self, learning_rate):
        # At rounding weight 1e6 every entry's first step is about the
        # learning rate long, so every entry is clamped at iteration 1 and
        # the loop stops there, after 2 of 5 iterations. At 1e308 the first
        # step overflows and takes the logits to +-inf: the check of the
        # final logits runs at the exit too, and names iteration 1.
        rng = rng_for(5)
        w = rng.standard_normal((2, 3))
        spec = fit_step_size(w, np.eye(3), 2)
        ctx = LossContext(ProjectionKind.OTHER, np.eye(2), np.eye(3))
        cfg = SoftQuantConfig(iterations=5)
        counter = FlopCounter()
        with recipe(learning_rate, 1e6):
            if learning_rate == 1e308:
                with pytest.raises(NonFiniteRounding, match="iteration 1$"):
                    optimize_rounding([w], [spec], [ctx], cfg, counter=counter)
            else:
                (qw,) = optimize_rounding([w], [spec], [ctx], cfg, counter=counter)
                assert qw.w_int.shape == w.shape
        assert counter.count == 2 * RoundingStack([w], [spec], [ctx]).iter_flops

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_final_logits_alone_non_finite_name_the_last_iteration(self, tmp_path, traced):
        # One iteration at learning rate 1e308 and no regularizer: slab 1's
        # reference sits 100 away, so its gradient has entries above 1.8 and
        # the update's lr * m_hat overflows after the iteration's finite
        # reconstruction was recorded; slab 0's gradient is about 0 and its
        # logits stay finite. Only the check of the final logits sees this.
        rng = rng_for(5)
        w = rng.standard_normal((2, 3))
        spec = fit_step_size(w, np.eye(3), 2)
        ctx = LossContext(ProjectionKind.OTHER, np.eye(2), np.eye(3))
        reference = [w, w + 100.0]
        stack = RoundingStack([w, w], [spec, spec], [ctx, ctx], reference)
        recon, grad = rounding_objective(stack, stack.logits, 0.0, SoftQuantConfig().beta_at(0))
        assert np.isfinite(recon).all()
        assert np.abs(grad[0]).max() < 1.0 < 1.8 < np.abs(grad[1]).max()
        path = tmp_path / "trace.csv"
        with recipe(1e308, 0.0), pytest.raises(NonFiniteRounding, match="iteration 0$") as info:
            optimize_rounding(
                [w, w], [spec, spec], [ctx, ctx], SoftQuantConfig(iterations=1),
                w_reference=reference, trace_csv=[path, tmp_path / "slab1.csv"] if traced else None,
            )
        assert info.value.slab == 1
        assert not any(tmp_path.iterdir())  # no trace written


class TestConfig:
    def test_beta_schedule_endpoints(self):
        cfg = SoftQuantConfig(iterations=1000)
        assert cfg.beta_at(0) == 20.0
        assert cfg.beta_at(800) == 2.0
        assert cfg.beta_at(999) == 2.0
        mid = cfg.beta_at(400)
        assert 2.0 < mid < 20.0
        assert SoftQuantConfig(iterations=1).beta_at(0) == 20.0

    def test_validation(self):
        with pytest.raises(DataError):
            SoftQuantConfig(iterations=-1)
        # aespa-noround is the method without learned rounding
        with pytest.raises(DataError, match="iterations must be >= 1"):
            SoftQuantConfig(iterations=0)

    def test_iterations_is_the_only_setting(self):
        assert [field.name for field in dataclasses.fields(SoftQuantConfig)] == ["iterations"]

    @pytest.mark.parametrize("removed", ["learning_rate", "lam"])
    def test_removed_settings_are_refused(self, removed):
        # the learning rate and the rounding weight are module constants
        with pytest.raises(TypeError):
            SoftQuantConfig(**{removed: 0.1})
