import csv

import numpy as np
import pytest

from attnquant.errors import DataError
from attnquant.flops import FlopCounter
from attnquant.model import generate_synthetic
from attnquant.objectives import ProjectionKind, context_for, loss, row_hessian
from attnquant.oracle import exact_error
from attnquant.quantizer import dequantize, fit_step_size, optq_compensate, rtn_quantize
from attnquant.rounding import (
    RoundingState,
    SoftQuantConfig,
    init_rounding_state,
    optimize_rounding,
    optimize_rounding_with_state,
    reconstruction_and_gradient,
    rectified_sigmoid,
    rounding_regularizer,
    soft_quantize,
)
from attnquant.stats import accumulate_stats
from conftest import rng_for


def value_setup(seed=0, d=12, d_h=4, length=6, n=8, bits=2):
    head, seqs = generate_synthetic(seed, d, d_h, length, n)
    stats = accumulate_stats(head, seqs)
    ctx = context_for(ProjectionKind.VALUE, stats)
    w = head.projection("W_V")
    spec = fit_step_size(w, row_hessian(ctx), bits)
    return head, seqs, ctx, w, spec


class TestSoftQuantize:
    def test_saturated_low_is_floor_grid(self):
        _, _, _, w, spec = value_setup()
        state = RoundingState(b=np.full(w.shape, -50.0), lam=1.5, beta=2.0)
        out = soft_quantize(w, spec, state)
        s, z = spec.scale[:, None], spec.zero_point[:, None]
        expected = s * (np.clip(np.floor(w / s) + z, 0, spec.grid_max) - z)
        np.testing.assert_array_equal(out, expected)

    def test_saturated_high_is_ceil_grid(self):
        _, _, _, w, spec = value_setup()
        state = RoundingState(b=np.full(w.shape, 50.0), lam=1.5, beta=2.0)
        out = soft_quantize(w, spec, state)
        s, z = spec.scale[:, None], spec.zero_point[:, None]
        expected = s * (np.clip(np.floor(w / s) + 1 + z, 0, spec.grid_max) - z)
        np.testing.assert_array_equal(out, expected)

    def test_zero_logit_is_grid_midpoint(self):
        # h(0) = sigmoid(0) * 1.2 - 0.1 = 0.5 up to one rounding step
        assert abs(rectified_sigmoid(np.array([[0.0]]))[0, 0] - 0.5) < 1e-15
        w = np.array([[0.3]])
        spec_like = fit_step_size(np.array([[0.0, 1.0]]), np.eye(2), 2)
        state = RoundingState(b=np.zeros((1, 1)), lam=1.5, beta=2.0)
        out = soft_quantize(w, spec_like, state)
        s = spec_like.scale[0]
        expected = s * (np.floor(w / s) + 0.5)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_hard_ends_lie_on_grid(self):
        _, _, _, w, spec = value_setup(seed=3)
        for b_val in (-50.0, 50.0):
            state = RoundingState(b=np.full(w.shape, b_val), lam=1.5, beta=2.0)
            out = soft_quantize(w, spec, state)
            g = out / spec.scale[:, None] + spec.zero_point[:, None]
            np.testing.assert_allclose(g, np.round(g), atol=1e-9)


class TestRegularizer:
    def test_zero_at_hard_assignments(self):
        state = RoundingState(b=np.array([[-50.0, 50.0]]), lam=1.5, beta=4.0)
        value, grad = rounding_regularizer(state)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((1, 2)))

    def test_single_midpoint_entry(self):
        state = RoundingState(b=np.array([[0.0]]), lam=1.5, beta=7.0)
        value, _ = rounding_regularizer(state)
        assert value == 1.5

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(1)
        b = rng.uniform(-1.5, 1.5, size=(3, 4))
        state = RoundingState(b=b, lam=1.5, beta=2.0)
        _, grad = rounding_regularizer(state)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                bp, bm = b.copy(), b.copy()
                bp[i, j] += eps
                bm[i, j] -= eps
                vp, _ = rounding_regularizer(RoundingState(b=bp, lam=1.5, beta=2.0))
                vm, _ = rounding_regularizer(RoundingState(b=bm, lam=1.5, beta=2.0))
                fd = (vp - vm) / (2 * eps)
                assert abs(fd - grad[i, j]) <= 1e-5 * max(1.0, abs(fd))

    def test_rejects_nonpositive_beta(self):
        state = RoundingState(b=np.zeros((1, 1)), lam=1.5, beta=0.0)
        with pytest.raises(DataError):
            rounding_regularizer(state)


class TestTotalObjectiveGradient:
    def test_matches_finite_differences_away_from_clamps(self):
        _, _, ctx, w, spec = value_setup(seed=2)
        cfg = SoftQuantConfig()
        state = init_rounding_state(w, spec, cfg)
        state.beta = 2.0
        _, grad_recon = reconstruction_and_gradient(w, spec, ctx, state)
        _, grad_reg = rounding_regularizer(state)
        grad = grad_recon + grad_reg
        rng = rng_for(3)
        eps = 1e-6
        checked = 0
        while checked < 20:
            i = int(rng.integers(0, w.shape[0]))
            j = int(rng.integers(0, w.shape[1]))
            h = rectified_sigmoid(state.b[i, j])
            if h <= 1e-3 or h >= 1 - 1e-3:
                continue  # clamped region has a genuine kink
            b0 = state.b.copy()
            state.b = b0.copy()
            state.b[i, j] += eps
            vp = reconstruction_and_gradient(w, spec, ctx, state)[0] + rounding_regularizer(state)[0]
            state.b = b0.copy()
            state.b[i, j] -= eps
            vm = reconstruction_and_gradient(w, spec, ctx, state)[0] + rounding_regularizer(state)[0]
            state.b = b0
            fd = (vp - vm) / (2 * eps)
            assert abs(fd - grad[i, j]) / max(abs(fd), 1e-10) <= 1e-4
            checked += 1


class TestOptimizeRounding:
    def test_zero_iterations_equals_rtn(self):
        _, _, ctx, w, spec = value_setup(seed=4)
        qw = optimize_rounding(w, spec, ctx, SoftQuantConfig(iterations=0))
        np.testing.assert_array_equal(qw.w_int, rtn_quantize(w, spec).w_int)

    def test_huge_rounding_weight_saturates_h(self):
        _, _, ctx, w, spec = value_setup(seed=0)
        cfg = SoftQuantConfig(lam=1e6)
        _, state = optimize_rounding_with_state(w, spec, ctx, cfg, w_reference=w)
        h = rectified_sigmoid(state.b, state.zeta, state.gamma)
        assert float(np.minimum(h, 1 - h).max()) <= 1e-3

    def test_deterministic(self):
        _, _, ctx, w, spec = value_setup(seed=5)
        cfg = SoftQuantConfig(iterations=300)
        a = optimize_rounding(w, spec, ctx, cfg)
        b = optimize_rounding(w, spec, ctx, cfg)
        np.testing.assert_array_equal(a.w_int, b.w_int)

    def test_loss_trace_length_and_finiteness(self):
        _, _, ctx, w, spec = value_setup(seed=6)
        cfg = SoftQuantConfig(iterations=150)
        qw, state = optimize_rounding_with_state(w, spec, ctx, cfg)
        assert len(state.loss_trace) == 150
        total, recon, reg = state.loss_trace[-1]
        assert np.isfinite(total) and recon >= 0.0
        final_delta = dequantize(qw) - w
        assert loss(ctx, final_delta) >= 0.0

    def test_trace_csv_schema(self, tmp_path):
        _, _, ctx, w, spec = value_setup(seed=7)
        path = tmp_path / "trace.csv"
        optimize_rounding(w, spec, ctx, SoftQuantConfig(iterations=20), trace_csv=path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "total", "reconstruction", "regularizer"]
        assert len(rows) == 21

    def test_per_iteration_cost_independent_of_calibration_size(self):
        head, seqs = generate_synthetic(8, 16, 4, 8, 64)
        counts = {}
        for n in (8, 64):
            stats = accumulate_stats(head, seqs[:n])
            ctx = context_for(ProjectionKind.VALUE, stats)
            w = head.projection("W_V")
            spec = fit_step_size(w, row_hessian(ctx), 2)
            counter = FlopCounter()
            optimize_rounding(w, spec, ctx, SoftQuantConfig(iterations=1), counter=counter)
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
            ada = optimize_rounding(comp, spec, ctx, SoftQuantConfig(), w_reference=w)
            e_ada = exact_error(head, seqs, ProjectionKind.VALUE, dequantize(ada) - w)
            e_rtn = exact_error(head, seqs, ProjectionKind.VALUE, dequantize(rtn_quantize(w, spec)) - w)
            wins += e_ada <= e_rtn
        assert wins >= 18


class TestConfig:
    def test_beta_schedule_endpoints(self):
        cfg = SoftQuantConfig(iterations=1000)
        assert cfg.beta_at(0) == 20.0
        assert cfg.beta_at(800) == 2.0
        assert cfg.beta_at(999) == 2.0
        mid = cfg.beta_at(400)
        assert 2.0 < mid < 20.0

    def test_validation(self):
        with pytest.raises(DataError):
            SoftQuantConfig(iterations=-1)
        with pytest.raises(DataError):
            SoftQuantConfig(learning_rate=0.0)
