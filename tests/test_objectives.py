import numpy as np
import pytest

from attnquant.checks import random_psd
from attnquant.errors import DataError, NumericalError
from attnquant.linalg import kron, vec
from attnquant.model import attention_forward, generate_synthetic
from attnquant.objectives import (
    LossContext,
    ProjectionKind,
    context_for,
    loss,
    loss_gradient,
    row_hessian,
    weighted,
)
from attnquant.stats import accumulate_stats
from conftest import rng_for


def identity_ctx(d_h, d):
    return LossContext(ProjectionKind.OTHER, np.eye(d_h), np.eye(d))


class TestContextStorage:
    """Read-only float64 statistics are shared, anything else is copied."""

    def test_frozen_statistics_are_shared_not_copied(self):
        head, seqs = generate_synthetic(0, 8, 4, 6, 5)
        stats = accumulate_stats(head, seqs)
        for kind in (ProjectionKind.QUERY, ProjectionKind.KEY, ProjectionKind.OTHER):
            assert np.shares_memory(context_for(kind, stats).right, stats.exx)
        assert np.shares_memory(context_for(ProjectionKind.VALUE, stats).right, stats.exax)
        assert np.shares_memory(context_for(ProjectionKind.QUERY, stats).left, stats.ektk)
        assert np.shares_memory(context_for(ProjectionKind.KEY, stats).left, stats.eqtq)

    def test_writable_input_is_copied_and_stays_writable(self):
        rng = rng_for(4)
        left, right = random_psd(rng, 3), random_psd(rng, 5)
        kept = right.copy()
        ctx = LossContext(ProjectionKind.KEY, left, right)
        assert not np.shares_memory(ctx.right, right)
        assert not np.shares_memory(ctx.left, left)
        assert right.flags.writeable and left.flags.writeable
        assert not ctx.right.flags.writeable and not ctx.left.flags.writeable
        right += 1.0
        np.testing.assert_array_equal(ctx.right, kept)

    def test_other_dtypes_and_strided_views_are_copied(self):
        frozen_int = np.eye(3, dtype=np.int64)
        frozen_int.setflags(write=False)
        strided = np.eye(6)[::2, ::2]
        strided.setflags(write=False)
        for right in (frozen_int, strided, np.eye(3).tolist()):
            ctx = LossContext(ProjectionKind.OTHER, np.eye(2), right)
            assert ctx.right.dtype == np.float64 and not ctx.right.flags.writeable
            assert not isinstance(right, np.ndarray) or not np.shares_memory(ctx.right, right)
            np.testing.assert_array_equal(ctx.right, np.eye(3))


    @pytest.mark.parametrize("kind", [ProjectionKind.VALUE, ProjectionKind.OTHER])
    def test_identity_kinds_refuse_another_left_factor(self, kind):
        # these kinds skip the left product, so any other left would be ignored
        with pytest.raises(DataError, match="LossContext.left must be the identity"):
            LossContext(kind, 2 * np.eye(3), np.eye(4))

    @pytest.mark.parametrize(
        "kind, left, right",
        [(ProjectionKind.OTHER, np.eye(2), np.ones((3, 1))), (ProjectionKind.KEY, np.ones((2, 1)), np.eye(3))],
    )
    def test_non_square_factor_refused(self, kind, left, right):
        # numpy would broadcast it: with the first pair the loss read 18.0
        with pytest.raises(DataError, match="LossContext factors must be square"):
            loss(LossContext(kind, left, right), np.ones((2, 3)))

    def test_non_finite_factor_rejected_by_name(self):
        left = np.eye(3)
        left[1, 1] = np.nan
        with pytest.raises(NumericalError, match="^LossContext.left: contains NaN or Inf"):
            LossContext(ProjectionKind.QUERY, left, np.eye(4))


class TestLoss:
    def test_weighted_matches_the_explicit_product_bit_for_bit(self):
        rng = rng_for(13)
        right = random_psd(rng, 5)
        delta = rng.standard_normal((3, 5))
        for kind, left in ((ProjectionKind.QUERY, random_psd(rng, 3)), (ProjectionKind.VALUE, np.eye(3))):
            ctx = LossContext(kind, left, right)
            expect = delta @ right if ctx.identity_left else left @ delta @ right
            np.testing.assert_array_equal(weighted(ctx, delta), expect)

    def test_zero_perturbation(self):
        head, seqs = generate_synthetic(0, 8, 4, 6, 2)
        ctx = context_for(ProjectionKind.VALUE, accumulate_stats(head, seqs))
        assert loss(ctx, np.zeros((4, 8))) == 0.0

    def test_identity_weighting_is_frobenius(self):
        delta = rng_for(1).standard_normal((3, 5))
        ctx = identity_ctx(3, 5)
        assert abs(loss(ctx, delta) - np.sum(delta**2)) <= 1e-12

    def test_value_kind_matches_brute_force_single_sequence(self):
        head, seqs = generate_synthetic(2, 8, 4, 6, 1)
        ctx = context_for(ProjectionKind.VALUE, accumulate_stats(head, seqs))
        delta = rng_for(3).standard_normal((4, 8)) * 0.1
        a = attention_forward(head, seqs[0]).a
        direct = float(np.sum((delta @ seqs[0].x @ a.T) ** 2))
        assert abs(loss(ctx, delta) - direct) / direct <= 1e-9

    def test_quadratic_scaling(self):
        head, seqs = generate_synthetic(4, 8, 4, 6, 2)
        ctx = context_for(ProjectionKind.QUERY, accumulate_stats(head, seqs))
        delta = rng_for(5).standard_normal((4, 8))
        assert loss(ctx, 2.0 * delta) == 4.0 * loss(ctx, delta)

    def test_nonnegative_on_psd_weightings(self):
        rng = rng_for(6)
        for _ in range(20):
            ctx = LossContext(
                ProjectionKind.QUERY, random_psd(rng, 3), random_psd(rng, 7)
            )
            assert loss(ctx, rng.standard_normal((3, 7))) >= 0.0

    def test_shape_mismatch(self):
        ctx = identity_ctx(3, 5)
        with pytest.raises(DataError):
            loss(ctx, np.zeros((3, 4)))

    def test_kron_quadratic_form_identity(self):
        # dw^T (M_X kron M_K) dw == tr(M_K dW M_X dW^T), column-major vec
        rng = rng_for(7)
        for _ in range(20):
            mx = random_psd(rng, 6)
            mk = random_psd(rng, 3)
            dw = rng.standard_normal((3, 6))
            quad = float(vec(dw) @ kron(mx, mk) @ vec(dw))
            tr = loss(LossContext(ProjectionKind.QUERY, mk, mx), dw)
            assert abs(quad - tr) / max(abs(quad), 1e-300) <= 1e-12

    def test_single_sequence_query_factorization_exact(self):
        head, seqs = generate_synthetic(8, 8, 3, 6, 1)
        stats = accumulate_stats(head, seqs)
        ctx = context_for(ProjectionKind.QUERY, stats)
        delta = rng_for(9).standard_normal((3, 8)) * 0.2
        k = attention_forward(head, seqs[0]).k
        direct = float(np.sum((k @ delta @ seqs[0].x) ** 2))
        assert abs(loss(ctx, delta) - direct) / direct <= 1e-9


class TestLossGradient:
    def test_zero(self):
        ctx = identity_ctx(2, 3)
        np.testing.assert_array_equal(loss_gradient(ctx, np.zeros((2, 3))), np.zeros((2, 3)))

    def test_identity_weighting(self):
        delta = rng_for(10).standard_normal((2, 4))
        np.testing.assert_allclose(loss_gradient(identity_ctx(2, 4), delta), 2.0 * delta)

    def test_matches_central_finite_differences(self):
        rng = rng_for(11)
        ctx = LossContext(ProjectionKind.KEY, random_psd(rng, 3), random_psd(rng, 5))
        delta = rng.standard_normal((3, 5))
        grad = loss_gradient(ctx, delta)
        eps = 1e-6
        for _ in range(20):
            i, j = int(rng.integers(0, 3)), int(rng.integers(0, 5))
            dp = delta.copy(); dp[i, j] += eps
            dm = delta.copy(); dm[i, j] -= eps
            fd = (loss(ctx, dp) - loss(ctx, dm)) / (2 * eps)
            assert abs(fd - grad[i, j]) / max(abs(fd), 1e-12) <= 1e-5


class TestRowHessian:
    def test_value_kind_with_identity_attention(self):
        # L=1 forces A=[[1]] so the attention-weighted moment equals XX^T
        head, seqs = generate_synthetic(12, 8, 4, 1, 4)
        stats = accumulate_stats(head, seqs)
        np.testing.assert_allclose(
            row_hessian(context_for(ProjectionKind.VALUE, stats)),
            2.0 * stats.exx,
            rtol=1e-12,
        )

    def test_other_kind_is_layer_moment(self):
        head, seqs = generate_synthetic(13, 8, 4, 6, 4)
        stats = accumulate_stats(head, seqs)
        np.testing.assert_array_equal(
            row_hessian(context_for(ProjectionKind.OTHER, stats)), 2.0 * stats.exx
        )

    def test_symmetric_psd(self):
        head, seqs = generate_synthetic(14, 10, 4, 6, 6)
        stats = accumulate_stats(head, seqs)
        for kind in ProjectionKind:
            h = row_hessian(context_for(kind, stats))
            np.testing.assert_allclose(h, h.T, atol=1e-12)
            assert np.linalg.eigvalsh(h).min() >= -1e-8
