"""Brute-force oracle checks, shared by the ``check`` CLI subcommand and the
acceptance suite (criteria 2, 3, 4, 5, 7 and 10).

Each check pits a fast code path against an independent brute-force
recomputation on randomly drawn small instances and reports the worst
observed discrepancy. All randomness is seeded: ``seed=0`` draws the
acceptance suite's instances, and any other seed shifts every seed
constant a check uses, so it draws fresh ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .flops import FlopCounter
from .linalg import kron, vec
from .model import generate_synthetic
from .objectives import LossContext, ProjectionKind, context_for, loss, row_hessian
from .oracle import exact_error, joint_qk_cost_demo, kron_exact_query_loss, taylor_error, upper_bound_ratio
from .quantizer import dequantize, fit_step_size, optq_compensate, rtn_quantize
from .rounding import SoftQuantConfig, optimize_rounding
from .stats import accumulate_stats

__all__ = [
    "CheckResult",
    "rel_gap",
    "random_psd",
    "check_value_objective_exactness",
    "check_kronecker_identities",
    "check_taylor_convergence",
    "check_upper_bound_inequality",
    "check_column_compensation",
    "check_constant_cost_contract",
    "run_all_checks",
]

SEED_STRIDE = 10_000  # larger than any seed constant plus trial count below


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    r = rng.standard_normal((n, n))
    return r @ r.T


def _shift(seed: int, constant: int) -> int:
    return constant + SEED_STRIDE * seed


def _rng(seed: int, constant: int) -> np.random.Generator:
    return np.random.default_rng(_shift(seed, constant))


def check_value_objective_exactness(seed: int = 0) -> CheckResult:
    """The value projection's trace loss equals the exact attention error."""
    rng = _rng(seed, 2)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(4, 17))
        d_h = int(rng.integers(2, 5))
        length = int(rng.integers(2, 9))
        n = int(rng.integers(1, 9))
        head, seqs = generate_synthetic(_shift(seed, 1000 + trial), d, d_h, length, n)
        stats = accumulate_stats(head, seqs)
        ctx = context_for(ProjectionKind.VALUE, stats)
        delta = rng.standard_normal((d_h, d)) * float(rng.uniform(0.01, 0.5))
        worst = max(worst, rel_gap(loss(ctx, delta), exact_error(head, seqs, "W_V", delta)))
    return CheckResult(
        "value objective exactness",
        worst <= 1e-9,
        f"worst relative gap {worst:.2e} over 50 instances (tol 1e-9)",
    )


def check_kronecker_identities(seed: int = 0) -> CheckResult:
    """Kronecker quadratic form == trace form, the vec identity, and the
    exact single-sequence query factorization."""
    rng = _rng(seed, 3)
    worst_quad = worst_vec = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        d_h = int(rng.integers(2, 5))
        mx, mk = random_psd(rng, d), random_psd(rng, d_h)
        dw = rng.standard_normal((d_h, d))
        quad = float(vec(dw) @ kron(mx, mk) @ vec(dw))
        tr = loss(LossContext(ProjectionKind.QUERY, mk, mx), dw)
        worst_quad = max(worst_quad, rel_gap(quad, tr))

        a = rng.standard_normal((int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        b = rng.standard_normal((a.shape[1], int(rng.integers(2, 5))))
        c = rng.standard_normal((b.shape[1], int(rng.integers(2, 5))))
        lhs = vec(a @ b @ c)
        rhs = kron(c.T, a) @ vec(b)
        denom = max(float(np.abs(lhs).max()), 1e-300)
        worst_vec = max(worst_vec, float(np.abs(lhs - rhs).max()) / denom)

    worst_factored = 0.0
    for trial in range(10):
        head, seqs = generate_synthetic(_shift(seed, 3000 + trial), 10, 4, 6, 1)
        stats = accumulate_stats(head, seqs)
        ctx = context_for(ProjectionKind.QUERY, stats)
        delta = rng.standard_normal((4, 10)) * 0.2
        worst_factored = max(
            worst_factored,
            rel_gap(loss(ctx, delta), kron_exact_query_loss(head, seqs, delta)),
        )
    return CheckResult(
        "Kronecker identities",
        worst_quad <= 1e-12 and worst_vec <= 1e-12 and worst_factored <= 1e-9,
        f"quad-form gap {worst_quad:.2e} (tol 1e-12), vec gap {worst_vec:.2e} (tol 1e-12), "
        f"single-sequence factored gap {worst_factored:.2e} (tol 1e-9)",
    )


def check_taylor_convergence(seed: int = 0) -> CheckResult:
    """The first-order query/key error converges to the exact one as the
    perturbation shrinks."""
    base = _rng(seed, 7).standard_normal((4, 10)) / np.sqrt(10)
    ok = True
    details = []
    for name, label, head_seed in (("W_Q", "query", 42), ("W_K", "key", 43)):
        head, seqs = generate_synthetic(_shift(seed, head_seed), 10, 4, 6, 4)
        gaps = []
        for eps in (0.1, 0.05, 0.025):
            e = exact_error(head, seqs, name, eps * base)
            t = taylor_error(head, seqs, name, eps * base)
            gaps.append(abs(e - t) / e)
        ok = ok and gaps[0] >= gaps[1] >= gaps[2] and gaps[2] <= 0.5
        details.append(f"{label}: {gaps[0]:.4f}/{gaps[1]:.4f}/{gaps[2]:.4f}")
    return CheckResult(
        "Taylor convergence",
        ok,
        "relative gaps at eps 0.1/0.05/0.025 " + "; ".join(details),
    )


def check_upper_bound_inequality(seed: int = 0) -> CheckResult:
    """The factored surrogate upper-bounds the Jacobian-path error."""
    rng = _rng(seed, 5)
    violations = 0
    worst = 0.0
    for trial in range(200):
        head, seqs = generate_synthetic(_shift(seed, 5000 + trial), 8, 3, 5, 1)
        delta = rng.standard_normal((3, 8)) * float(rng.uniform(0.01, 2.0))
        ratio = upper_bound_ratio(head, seqs[0], delta)
        worst = max(worst, ratio)
        if ratio > 1.0 + 1e-9:
            violations += 1
    return CheckResult(
        "upper-bound inequality",
        violations == 0,
        f"0 violations in 200 instances (largest lhs/rhs {worst:.4f})" if violations == 0
        else f"{violations} violations",
    )


def check_column_compensation(seed: int = 0) -> CheckResult:
    """Column compensation equals nearest rounding under identity curvature
    and finds the exhaustive optimum on 1x2 weights."""
    rng = _rng(seed, 0)
    identity_ok = True
    for _ in range(20):
        w = rng.standard_normal((4, 8))
        spec = fit_step_size(w, np.eye(8), 2)
        identity_ok = identity_ok and np.array_equal(
            optq_compensate(w, np.eye(8), spec)[0].w_int, rtn_quantize(w, spec).w_int
        )

    rng = _rng(seed, 3)
    hits = 0
    for _ in range(100):
        w = rng.standard_normal((1, 2)) * 2.0
        rho = rng.uniform(0.3, 0.9)
        dg = rng.uniform(0.5, 2.0, size=2)
        off = rho * np.sqrt(dg[0] * dg[1])
        h = np.array([[dg[0], off], [off, dg[1]]])
        spec = fit_step_size(w, h, 2)
        o = (dequantize(optq_compensate(w, h, spec)[0]) - w)[0]
        achieved = float(o @ h @ o)
        s, z = spec.scale[0], spec.zero_point[0]
        best = min(
            float(e @ h @ e)
            for g1, g2 in product(range(4), repeat=2)
            for e in [s * (np.array([g1, g2], dtype=float) - z) - w[0]]
        )
        hits += achieved <= best * (1 + 1e-9)
    return CheckResult(
        "column-compensation sanity",
        identity_ok and hits >= 95,
        f"identity-curvature == nearest rounding: {identity_ok}; "
        f"exhaustive optimum attained {hits}/100 (need >= 95)",
    )


def check_constant_cost_contract(seed: int = 0) -> CheckResult:
    """A rounding iteration costs the same for 8 and 64 sequences, while the
    joint query+key recompute doubles with the data."""
    head, seqs = generate_synthetic(_shift(seed, 10), 16, 4, 8, 64)
    counts = {}
    for n in (8, 64):
        stats = accumulate_stats(head, seqs[:n])
        ctx = context_for(ProjectionKind.QUERY, stats)
        w = head.projection("W_Q")
        spec = fit_step_size(w, row_hessian(ctx), 2)
        counter = FlopCounter()
        optimize_rounding([w], [spec], [ctx], SoftQuantConfig(iterations=1), counter=counter)
        counts[n] = counter.count
    rng = _rng(seed, 10)
    dwq = rng.standard_normal((4, 16)) * 0.1
    dwk = rng.standard_normal((4, 16)) * 0.1
    _, ops8 = joint_qk_cost_demo(head, seqs[:8], dwq, dwk)
    _, ops16 = joint_qk_cost_demo(head, seqs[:16], dwq, dwk)
    return CheckResult(
        "constant-cost contract",
        counts[8] == counts[64] and ops16 == 2 * ops8,
        f"rounding-iteration ops {counts[8]} == {counts[64]} for 8 vs 64 sequences; "
        f"joint recompute ops {ops8} -> {ops16} (doubles)",
    )


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    return [
        check_value_objective_exactness(seed),
        check_kronecker_identities(seed),
        check_taylor_convergence(seed),
        check_upper_bound_inequality(seed),
        check_column_compensation(seed),
        check_constant_cost_contract(seed),
    ]
