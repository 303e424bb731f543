"""Brute-force ground truths for every algebraic step of the pipeline.

Everything here recomputes attention outputs, per-row softmax Jacobians or
explicit Kronecker products from scratch, so these functions are slow and
memory-hungry by design; they exist to certify the fast trace-form losses
on small instances, never to run inside the optimization loop. The
functions that average over sequences need at least one: an empty list
fails in the division by its length.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .flops import matmul_flops
from .linalg import kron, softmax_jacobian_row, vec
from .model import AttentionHead, CalibSequence, attention_forward, map_buffer
from .objectives import ProjectionKind, as_delta

__all__ = [
    "output_errors",
    "perturbed",
    "exact_error",
    "taylor_error",
    "kron_exact_query_loss",
    "upper_bound_ratio",
    "joint_qk_cost_demo",
]

_KIND_TO_PROJECTION = {
    ProjectionKind.VALUE: "W_V",
    ProjectionKind.OTHER: "W_V",
    ProjectionKind.QUERY: "W_Q",
    ProjectionKind.KEY: "W_K",
}


def output_errors(
    head: AttentionHead, variants: list[AttentionHead], sequences: list[CalibSequence]
) -> tuple[list[float], float]:
    """For each head in ``variants``, the sum over sequences of
    ||SA(variant) - SA(head)||_F^2; and the sum of ||SA(head)||_F^2.

    The one loop that sums attention-output errors: the exact errors, the
    report's calibration error and the held-out evaluation all go through
    it. Per sequence it runs the reference forward, then each variant in
    order, into two L x L buffers reused across sequences, so memory does
    not grow with the number of sequences; every sum adds the sequences in
    order. A variant whose W_Q and W_K are the reference's own arrays (as
    ``head.replace("W_V", ...)`` builds it) shares the reference's attention
    map, so its output is that map times its values, with no forward of its
    own; the forward would rebuild the same map bit for bit.
    """
    errors = [0.0] * len(variants)
    ref_norm = 0.0
    ref_map = variant_map = None
    for seq in sequences:
        ref_map = map_buffer(seq, ref_map)
        ref = attention_forward(head, seq, out=ref_map)
        ref_norm += float(np.sum(ref.sa**2))
        for i, variant in enumerate(variants):
            if variant.w_q is head.w_q and variant.w_k is head.w_k:
                sa = ref.a @ (variant.w_v @ seq.x).T
            else:
                variant_map = map_buffer(seq, variant_map)
                sa = attention_forward(variant, seq, out=variant_map).sa
            errors[i] += float(np.sum((sa - ref.sa) ** 2))
    return errors, ref_norm


def exact_error(
    head: AttentionHead,
    sequences: list[CalibSequence],
    kind: ProjectionKind,
    delta_w: np.ndarray,
) -> float:
    """Mean over sequences of ||SA(perturbed) - SA(full precision)||_F^2,
    recomputing the softmax forward pass with the perturbed projection."""
    name = _KIND_TO_PROJECTION[kind]
    (err,), _ = output_errors(head, [perturbed(head, name, delta_w)], sequences)
    return err / len(sequences)


def perturbed(head: AttentionHead, name: str, delta_w: np.ndarray) -> AttentionHead:
    """``head`` with ``delta_w`` added to projection ``name`` and the other
    two projections shared, not copied."""
    delta_w = as_delta(delta_w, head.d_h, head.d)
    return head.replace(name, head.projection(name) + delta_w)


def _taylor_delta_a(
    trace, delta_logits: np.ndarray
) -> np.ndarray:
    """First-order attention-map change, assembled row by row through the
    per-row softmax Jacobian."""
    rows = []
    for ell in range(trace.a.shape[0]):
        jac = softmax_jacobian_row(trace.a[ell])
        rows.append(delta_logits[ell] @ jac.T)
    return np.vstack(rows)


def taylor_error(
    head: AttentionHead,
    sequences: list[CalibSequence],
    kind: ProjectionKind,
    delta_w: np.ndarray,
) -> float:
    """First-order Taylor estimate of the attention error for query or key
    perturbations: mean of ||dA V||_F^2 with dA linearized row-wise from the
    logit change (which carries the 1/sqrt(d_h) scaling)."""
    if kind not in (ProjectionKind.QUERY, ProjectionKind.KEY):
        raise DataError("taylor_error is defined for query/key perturbations only")
    delta_w = as_delta(delta_w, head.d_h, head.d)
    scale = 1.0 / math.sqrt(head.d_h)
    total = 0.0
    for seq in sequences:
        trace = attention_forward(head, seq)
        if kind is ProjectionKind.QUERY:
            delta_logits = (delta_w @ seq.x).T @ trace.k.T * scale
        else:
            delta_logits = trace.q @ (delta_w @ seq.x) * scale
        delta_a = _taylor_delta_a(trace, delta_logits)
        total += float(np.sum((delta_a @ trace.v) ** 2))
    return total / len(sequences)


def kron_exact_query_loss(
    head: AttentionHead,
    sequences: list[CalibSequence],
    delta_w: np.ndarray,
) -> float:
    """The query surrogate via the explicit (d*d_h)^2 Kronecker form:
    vec(dW)^T . mean(X X^T kron K^T K) . vec(dW), column-major vec.

    Exact for any number of sequences (no mean-field factorization); the
    element budget keeps this on oracle-scale problems.
    """
    delta_w = as_delta(delta_w, head.d_h, head.d)
    acc = None
    for seq in sequences:
        trace = attention_forward(head, seq)
        term = kron(seq.x @ seq.x.T, trace.k.T @ trace.k)
        acc = term if acc is None else acc + term
    acc /= len(sequences)
    w_flat = vec(delta_w)
    return float(w_flat @ acc @ w_flat)


def upper_bound_ratio(
    head: AttentionHead, sequence: CalibSequence, delta_w: np.ndarray
) -> float:
    """On one sequence, the ratio lhs / rhs of the bound of the Jacobian-path
    error by the factored surrogate (0 when rhs is 0):

        sum_l ||V^T J(a_l) m_l||^2  <=  (sum_l ||V^T J(a_l)||_F^2) ||M||_F^2

    with M = K dW X (column m_l per token). The bound holds when the ratio
    is at most 1.
    """
    delta_w = as_delta(delta_w, head.d_h, head.d)
    trace = attention_forward(head, sequence)
    m = trace.k @ delta_w @ sequence.x
    lhs = 0.0
    factor = 0.0
    for ell in range(trace.a.shape[0]):
        vj = trace.v.T @ softmax_jacobian_row(trace.a[ell])
        lhs += float(np.sum((vj @ m[:, ell]) ** 2))
        factor += float(np.sum(vj**2))
    rhs = factor * float(np.sum(m**2))
    return 0.0 if rhs == 0 else lhs / rhs


def joint_qk_cost_demo(
    head: AttentionHead,
    sequences: list[CalibSequence],
    delta_wq: np.ndarray,
    delta_wk: np.ndarray,
) -> tuple[float, int]:
    """Evaluate the joint query+key pre-softmax error

        mean ||dQ K^T + Q dK^T + dQ dK^T||_F^2

    by explicit per-sequence recomputation, returning (error, flop count).
    The count grows linearly with the number of sequences, in contrast with
    the trace-form losses whose cost is constant; quantifying that gap is
    this function's whole purpose.
    """
    delta_wq = as_delta(delta_wq, head.d_h, head.d)
    delta_wk = as_delta(delta_wk, head.d_h, head.d)
    d, d_h = head.d, head.d_h
    total = 0.0
    ops = 0
    for seq in sequences:
        trace = attention_forward(head, seq)
        length = seq.length
        dq = (delta_wq @ seq.x).T
        dk_t = delta_wk @ seq.x
        joint = dq @ trace.k.T + trace.q @ dk_t + dq @ dk_t
        total += float(np.sum(joint**2))
        ops += 2 * matmul_flops(d_h, d, length)  # dQ and dK^T forward maps
        ops += 3 * matmul_flops(length, d_h, length)  # the three L x L products
        ops += 2 * length**2  # summing the three terms
        ops += 2 * length**2 - 1  # squared Frobenius norm
    return total / len(sequences), ops
