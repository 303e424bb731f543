"""Closed-form flop accounting and live operation counters.

Multiplies and adds are counted separately, so a matrix product of an
m x k by a k x n matrix costs m*n*(2k-1) flops. Two closed forms are
modeled: the per-iteration cost of the pre-computation-based trace losses
(independent of batch and sequence count), and the per-iteration cost of
recomputing the attention output for B sequences of length L.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError

__all__ = [
    "CostParams",
    "FlopCounter",
    "matmul_flops",
    "trace_loss_flops",
    "flops_refined",
    "flops_existing",
    "refined_projection_flops",
    "existing_itemization",
    "OPT_PRESETS",
    "TABLE_L",
    "TABLE_B",
    "gflops_str",
    "cost_table",
]

# (hidden size d, head dimension d_h) of the public OPT architecture family.
OPT_PRESETS: dict[str, tuple[int, int]] = {
    "125M": (768, 64),
    "350M": (1024, 64),
    "1.3B": (2048, 64),
    "2.7B": (2560, 80),
    "6.7B": (4096, 128),
    "13B": (5120, 128),
}

TABLE_L = 2048  # sequence length used by the published cost comparison
TABLE_B = 4  # sequences per iteration assumed for the recompute baseline


@dataclass
class CostParams:
    d: int
    d_h: int
    L: int = TABLE_L
    B: int = TABLE_B

    def __post_init__(self):
        if min(self.d, self.d_h, self.L, self.B) < 1:
            raise DataError("all cost parameters must be >= 1")


class FlopCounter:
    """Additive operation counter threaded through instrumented code paths."""

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def matmul_flops(m: int, k: int, n: int) -> int:
    """Flops of an (m x k) @ (k x n) product: one multiply per term plus
    k-1 adds per output entry."""
    return m * n * (2 * k - 1)


def trace_loss_flops(d_h: int, d: int, identity_left: bool) -> tuple[int, int]:
    """Flops of one trace loss tr(left @ DW @ right @ DW^T) and of its gradient
    2 * left @ DW @ right, for a d_h x d DW: the product left @ DW @ right
    (no left product when left is I), then a multiply-reduce or a doubling."""
    product = matmul_flops(d_h, d, d)
    if not identity_left:
        product += matmul_flops(d_h, d_h, d)
    return product + 2 * d_h * d - 1, product + d_h * d


def refined_projection_flops(p: CostParams) -> dict[str, int]:
    """Per-iteration loss cost for each projection under the trace losses;
    only the query and key losses have a left factor other than I."""
    value, _ = trace_loss_flops(p.d_h, p.d, identity_left=True)
    query_key, _ = trace_loss_flops(p.d_h, p.d, identity_left=False)
    return {"value": value, "query": query_key, "key": query_key}


def flops_refined(p: CostParams) -> int:
    """Total per-iteration flops of the pre-computation-based losses over the
    three projections; independent of the batch size B."""
    return sum(refined_projection_flops(p).values())


def existing_itemization(p: CostParams) -> dict[str, int]:
    """Per-sequence cost breakdown for recomputing the attention output."""
    return {
        "projection_forward": 3 * p.d_h * p.L * (2 * p.d - 1),
        "score_and_output_matmuls": 4 * p.d_h * p.L**2 - p.d_h * p.L - p.L**2,
        "softmax_with_scaling": 3 * p.L**2 + p.d_h * p.L - p.L,
        "reconstruction_error": 3 * p.d_h * p.L - 1,
    }


def flops_existing(p: CostParams) -> int:
    """Per-iteration flops of recomputing the attention output for B
    sequences of length L (the conventional reconstruction loop)."""
    return p.B * sum(existing_itemization(p).values())


def gflops_str(flops: int) -> str:
    """Giga-flops rounded to two significant figures, the precision of the
    published comparison table."""
    return f"{flops / 1e9:.2g}"


def cost_table(
    presets: list[str] | None = None, L: int = TABLE_L, B: int = TABLE_B
) -> list[dict]:
    """Rows of the cost comparison for the requested model presets."""
    if presets is None:
        presets = list(OPT_PRESETS)
    rows = []
    for name in presets:
        if name not in OPT_PRESETS:
            raise DataError(
                f"unknown preset '{name}'; known: {', '.join(OPT_PRESETS)}"
            )
        d, d_h = OPT_PRESETS[name]
        p = CostParams(d=d, d_h=d_h, L=L, B=B)
        existing = flops_existing(p)
        refined = flops_refined(p)
        rows.append(
            {
                "preset": name,
                "d": d,
                "d_h": d_h,
                "existing_flops": existing,
                "refined_flops": refined,
                "existing_gflops": gflops_str(existing),
                "refined_gflops": gflops_str(refined),
            }
        )
    return rows
