import numpy as np
import pytest

from attnquant import oracle
from attnquant.checks import rel_gap
from attnquant.errors import DataError
from attnquant.model import AttentionHead, CalibSequence, attention_forward, generate_synthetic
from attnquant.objectives import ProjectionKind, context_for, loss
from attnquant.oracle import (
    exact_error,
    output_errors,
    joint_qk_cost_demo,
    kron_exact_query_loss,
    taylor_error,
    upper_bound_ratio,
)
from attnquant.stats import accumulate_stats
from conftest import rng_for


class TestExactError:
    def test_zero_perturbation(self):
        head, seqs = generate_synthetic(0, 8, 4, 6, 2)
        assert exact_error(head, seqs, "W_V", np.zeros((4, 8))) == 0.0

    def test_value_single_token_reduces_to_layer_error(self):
        head, seqs = generate_synthetic(1, 8, 4, 1, 4)
        delta = rng_for(2).standard_normal((4, 8)) * 0.2
        direct = np.mean([np.sum((delta @ s.x) ** 2) for s in seqs])
        err = exact_error(head, seqs, "W_V", delta)
        assert rel_gap(err, direct) <= 1e-12

    def test_value_matches_trace_loss_at_any_length(self):
        for trial in range(5):
            head, seqs = generate_synthetic(trial, 10, 4, 7, 5)
            ctx = context_for(ProjectionKind.VALUE, accumulate_stats(head, seqs))
            delta = rng_for(100 + trial).standard_normal((4, 10)) * 0.3
            assert rel_gap(exact_error(head, seqs, "W_V", delta), loss(ctx, delta)) <= 1e-9

    def test_shape_check(self):
        head, seqs = generate_synthetic(0, 8, 4, 6, 1)
        with pytest.raises(DataError):
            exact_error(head, seqs, "W_V", np.zeros((3, 8)))

    def test_unknown_projection_refused(self):
        head, seqs = generate_synthetic(0, 8, 4, 6, 1)
        with pytest.raises(DataError, match="^unknown projection 'W_X'$"):
            exact_error(head, seqs, "W_X", np.zeros((4, 8)))



class TestOutputErrors:
    def test_value_variant_shares_the_reference_map_bit_for_bit(self, monkeypatch):
        head, seqs = generate_synthetic(9, 8, 4, 6, 3)
        seqs.append(CalibSequence(seqs[0].x[:, :3]))  # lengths 6, 6, 6, 3
        w_v = head.w_v + rng_for(10).standard_normal((4, 8)) * 0.2
        shared = head.replace("W_V", w_v)
        # the same weights in arrays of its own, so it runs its own forward
        unshared = AttentionHead(8, 4, head.w_q.copy(), head.w_k.copy(), w_v)
        calls = []

        def counting(h, s, out=None):
            calls.append(h)
            return attention_forward(h, s, out=out)

        monkeypatch.setattr(oracle, "attention_forward", counting)
        (err_shared,), norm = output_errors(head, [shared], seqs)
        assert calls == [head] * len(seqs)
        (err_unshared,), norm_unshared = output_errors(head, [unshared], seqs)
        assert len(calls) == 3 * len(seqs)
        expected = norm_expected = 0.0
        for seq in seqs:
            sa_ref = attention_forward(head, seq).sa
            expected += float(np.sum((attention_forward(unshared, seq).sa - sa_ref) ** 2))
            norm_expected += float(np.sum(sa_ref**2))
        assert err_shared == err_unshared == expected > 0
        assert norm == norm_unshared == norm_expected

    def test_variants_in_one_pass_equal_one_pass_each(self):
        head, seqs = generate_synthetic(12, 8, 4, 6, 4)
        rng = rng_for(13)
        variants = [
            head.replace(name, head.projection(name) + 0.2 * rng.standard_normal((4, 8)))
            for name in ("W_V", "W_Q", "W_K")
        ]
        v, q, k = variants
        variants.append(AttentionHead(8, 4, q.w_q, k.w_k, v.w_v))  # all three perturbed
        errors, norm = output_errors(head, variants, seqs)
        for variant, err in zip(variants, errors):
            assert output_errors(head, [variant], seqs) == ([err], norm)
        assert output_errors(head, [], seqs) == ([], norm)


class TestTaylorError:
    def test_zero_perturbation(self):
        head, seqs = generate_synthetic(3, 8, 4, 6, 2)
        assert taylor_error(head, seqs, "W_Q", np.zeros((4, 8))) == 0.0

    def test_single_token_vanishes(self):
        # softmax of a single logit is constantly 1, so its Jacobian is zero
        head, seqs = generate_synthetic(4, 8, 4, 1, 3)
        delta = rng_for(5).standard_normal((4, 8))
        assert taylor_error(head, seqs, "W_Q", delta) == 0.0

    def test_epsilon_sweep_halves_relative_gap(self):
        head, seqs = generate_synthetic(42, 10, 4, 6, 4)
        base = rng_for(7).standard_normal((4, 10)) / np.sqrt(10)
        gaps = []
        for eps in (0.1, 0.05, 0.025):
            e = exact_error(head, seqs, "W_Q", eps * base)
            t = taylor_error(head, seqs, "W_Q", eps * base)
            gaps.append(abs(e - t) / e)
        assert gaps[1] <= 0.5 * gaps[0]
        assert gaps[2] <= 0.5 * gaps[1]

    def test_key_kind_sweep_monotone(self):
        head, seqs = generate_synthetic(42, 10, 4, 6, 4)
        base = rng_for(7).standard_normal((4, 10)) / np.sqrt(10)
        gaps = []
        for eps in (0.1, 0.05, 0.025):
            e = exact_error(head, seqs, "W_K", eps * base)
            t = taylor_error(head, seqs, "W_K", eps * base)
            gaps.append(abs(e - t) / e)
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] <= 0.5

    def test_rejects_value_kind(self):
        head, seqs = generate_synthetic(0, 8, 4, 6, 1)
        for name in ("W_V", "W_X"):
            with pytest.raises(DataError, match="query/key perturbations only"):
                taylor_error(head, seqs, name, np.zeros((4, 8)))


class TestKronExactQueryLoss:
    def test_zero(self):
        head, seqs = generate_synthetic(8, 8, 3, 5, 2)
        assert kron_exact_query_loss(head, seqs, np.zeros((3, 8))) == 0.0

    def test_three_way_equality_single_sequence(self):
        head, seqs = generate_synthetic(9, 8, 3, 5, 1)
        delta = rng_for(10).standard_normal((3, 8)) * 0.2
        stats = accumulate_stats(head, seqs)
        ctx = context_for(ProjectionKind.QUERY, stats)
        k = attention_forward(head, seqs[0]).k
        direct = float(np.sum((k @ delta @ seqs[0].x) ** 2))
        via_kron = kron_exact_query_loss(head, seqs, delta)
        via_trace = loss(ctx, delta)
        assert rel_gap(via_kron, direct) <= 1e-9
        assert rel_gap(via_trace, direct) <= 1e-9

    def test_matches_mean_weighted_frobenius_many_sequences(self):
        head, seqs = generate_synthetic(11, 8, 3, 5, 4)
        delta = rng_for(12).standard_normal((3, 8)) * 0.2
        direct = np.mean(
            [np.sum((attention_forward(head, s).k @ delta @ s.x) ** 2) for s in seqs]
        )
        assert rel_gap(kron_exact_query_loss(head, seqs, delta), direct) <= 1e-9

    def test_factored_loss_differs_with_two_heterogeneous_sequences(self):
        head, seqs = generate_synthetic(13, 8, 3, 5, 2)
        delta = rng_for(14).standard_normal((3, 8)) * 0.2
        stats = accumulate_stats(head, seqs)
        ctx = context_for(ProjectionKind.QUERY, stats)
        gap = rel_gap(kron_exact_query_loss(head, seqs, delta), loss(ctx, delta))
        assert gap > 0.0  # the mean-field factorization is no longer exact


class TestUpperBound:
    def test_zero_perturbation_both_sides_zero(self):
        head, seqs = generate_synthetic(15, 8, 3, 5, 1)
        assert upper_bound_ratio(head, seqs[0], np.zeros((3, 8))) == 0.0

    def test_holds_on_random_instances(self):
        rng = rng_for(16)
        for trial in range(30):
            head, seqs = generate_synthetic(200 + trial, 8, 3, 5, 1)
            delta = rng.standard_normal((3, 8)) * float(rng.uniform(0.01, 2.0))
            assert upper_bound_ratio(head, seqs[0], delta) <= 1.0 + 1e-9

    def test_holds_for_aligned_perturbation(self):
        # align the perturbation with the top singular direction of the
        # composite map via power iteration on the surrogate factor K . X^T
        head, seqs = generate_synthetic(17, 8, 3, 5, 1)
        trace = attention_forward(head, seqs[0])
        composite = np.kron(seqs[0].x.T, trace.k)  # maps vec(dW) to vec(K dW X)
        v = rng_for(18).standard_normal(composite.shape[1])
        for _ in range(50):
            v = composite.T @ (composite @ v)
            v /= np.linalg.norm(v)
        delta = v.reshape((3, 8), order="F")
        ratio = upper_bound_ratio(head, seqs[0], delta)
        assert 0.0 < ratio <= 1.0 + 1e-9


class TestJointCostDemo:
    def test_zero_perturbations(self):
        head, seqs = generate_synthetic(20, 8, 3, 5, 2)
        err, ops = joint_qk_cost_demo(head, seqs, np.zeros((3, 8)), np.zeros((3, 8)))
        assert err == 0.0
        assert ops > 0

    def test_key_zero_reduces_to_query_surrogate(self):
        head, seqs = generate_synthetic(21, 8, 3, 5, 3)
        dwq = rng_for(22).standard_normal((3, 8)) * 0.2
        err, _ = joint_qk_cost_demo(head, seqs, dwq, np.zeros((3, 8)))
        direct = np.mean(
            [np.sum((attention_forward(head, s).k @ dwq @ s.x) ** 2) for s in seqs]
        )
        assert rel_gap(err, direct) <= 1e-12

    def test_counter_doubles_with_sequences(self):
        head, seqs = generate_synthetic(23, 8, 3, 5, 4)
        dwq = rng_for(24).standard_normal((3, 8)) * 0.1
        dwk = rng_for(25).standard_normal((3, 8)) * 0.1
        _, ops1 = joint_qk_cost_demo(head, seqs, dwq, dwk)
        _, ops2 = joint_qk_cost_demo(head, seqs + seqs, dwq, dwk)
        assert ops2 == 2 * ops1

    def test_matches_pre_softmax_definition(self):
        head, seqs = generate_synthetic(26, 8, 3, 5, 2)
        rng = rng_for(27)
        dwq = rng.standard_normal((3, 8)) * 0.2
        dwk = rng.standard_normal((3, 8)) * 0.2
        err, _ = joint_qk_cost_demo(head, seqs, dwq, dwk)
        total = 0.0
        for s in seqs:
            t = attention_forward(head, s)
            q_new = (np.asarray(head.w_q + dwq) @ s.x).T
            k_new = (np.asarray(head.w_k + dwk) @ s.x).T
            total += float(np.sum((q_new @ k_new.T - t.q @ t.k.T) ** 2))
        assert rel_gap(err, total / len(seqs)) <= 1e-9
