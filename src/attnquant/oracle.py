"""Brute-force ground truths for every algebraic step of the pipeline.

Everything here recomputes attention outputs, per-row softmax Jacobians or
explicit Kronecker products from scratch, so these functions are slow and
memory-hungry by design; they exist to certify the fast trace-form losses
on small instances, never to run inside the optimization loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .flops import matmul_flops
from .linalg import kron, softmax_jacobian_row, vec
from .model import AttentionHead, CalibSequence, attention_forward
from .objectives import ProjectionKind

__all__ = [
    "output_error",
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


def _check_delta(head: AttentionHead, delta_w: np.ndarray) -> np.ndarray:
    delta_w = np.asarray(delta_w, dtype=np.float64)
    if delta_w.shape != (head.d_h, head.d):
        raise DataError(
            f"delta_w has shape {delta_w.shape}, expected {head.d_h}x{head.d}"
        )
    return delta_w


def _check_reference(
    head: AttentionHead, sequences: list[CalibSequence], reference: list[np.ndarray]
) -> None:
    """Reject full-precision outputs that are not one L x d_h matrix per
    sequence."""
    if len(reference) != len(sequences):
        raise DataError(
            f"reference has {len(reference)} outputs for {len(sequences)} sequences"
        )
    for i, (seq, sa_ref) in enumerate(zip(sequences, reference)):
        shape = np.shape(sa_ref)
        if shape != (seq.length, head.d_h):
            raise DataError(
                f"reference[{i}] has shape {shape}, expected {seq.length}x{head.d_h}"
            )


def output_error(
    head: AttentionHead, sequences: list[CalibSequence], reference: list[np.ndarray]
) -> float:
    """Sum over sequences of ||SA(head) - reference||_F^2, one forward each.

    The one loop that sums attention-output errors: the exact errors, the
    report's calibration error and the held-out evaluation all go through it.
    """
    total = 0.0
    for seq, sa_ref in zip(sequences, reference):
        total += float(np.sum((attention_forward(head, seq).sa - sa_ref) ** 2))
    return total


def exact_error(
    head: AttentionHead,
    sequences: list[CalibSequence],
    kind: ProjectionKind,
    delta_w: np.ndarray,
    reference: list[np.ndarray] | None = None,
) -> float:
    """Mean over sequences of ||SA(perturbed) - SA(full precision)||_F^2,
    recomputing the softmax forward pass with the perturbed projection.

    ``reference`` may hold the full-precision outputs SA, one L x d_h matrix
    per sequence, so a caller that already ran those forwards does not
    repeat them; without it they are recomputed here.
    """
    if not sequences:
        raise DataError("exact_error needs at least one sequence")
    delta_w = _check_delta(head, delta_w)
    if reference is None:
        reference = (attention_forward(head, seq).sa for seq in sequences)
    else:
        _check_reference(head, sequences, reference)
    name = _KIND_TO_PROJECTION[kind]
    perturbed = head.replace(name, head.projection(name) + delta_w)
    return output_error(perturbed, sequences, reference) / len(sequences)


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
    if not sequences:
        raise DataError("taylor_error needs at least one sequence")
    delta_w = _check_delta(head, delta_w)
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
    if not sequences:
        raise DataError("kron_exact_query_loss needs at least one sequence")
    delta_w = _check_delta(head, delta_w)
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
    delta_w = _check_delta(head, delta_w)
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
    if not sequences:
        raise DataError("joint_qk_cost_demo needs at least one sequence")
    delta_wq = _check_delta(head, delta_wq)
    delta_wk = _check_delta(head, delta_wk)
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
