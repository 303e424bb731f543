import numpy as np
import pytest
from itertools import product

from attnquant.errors import DataError
from attnquant.quantizer import (
    QuantSpec,
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

    def test_error_within_half_step_of_clamped_value(self):
        rng = rng_for(1)
        w = rng.standard_normal((4, 16)) * 2
        spec = minmax_spec(w, 3)
        dq = dequantize(rtn_quantize(w, spec))
        lo = (spec.scale * (0 - spec.zero_point))[:, None]
        hi = (spec.scale * (spec.grid_max - spec.zero_point))[:, None]
        clamped = np.clip(w, lo, hi)
        assert np.all(np.abs(dq - clamped) <= spec.scale[:, None] / 2 + 1e-12)


class TestFitStepSize:
    def test_exactly_representable_row(self):
        # row lying on the ratio-1.0 candidate grid (s=0.5, z=1)
        w = np.array([[-0.5, 0.0, 0.5, 1.0]])
        spec = fit_step_size(w, np.eye(4), 2)
        err = dequantize(rtn_quantize(w, spec)) - w
        assert trace_quad(err, np.eye(4)) == 0.0

    def test_identity_hessian_matches_exhaustive_candidate_search(self):
        from attnquant.quantizer import _candidate_grids

        rng = rng_for(2)
        w = rng.standard_normal((1, 8))
        spec = fit_step_size(w, np.eye(8), 2)
        fitted = dequantize(rtn_quantize(w, spec)) - w
        best = None
        for s, z in _candidate_grids(w[0], 2):
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

    def test_rejects_out_of_grid(self):
        with pytest.raises(DataError):
            quantized_from_json(
                {"n_bits": 2, "scale": [1.0], "zero_point": [0], "w_int": [[5]]}
            )
