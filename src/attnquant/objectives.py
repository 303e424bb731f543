"""Trace-form quantization losses over pre-computed statistics.

Each projection kind selects a (left, right) weighting pair and the loss of
a weight perturbation DW is the quadratic form

    loss(DW) = tr(left @ DW @ right @ DW^T)

with left = I for the value projection and the generic layer path. The
right factor doubles as the per-row curvature: row_hessian = 2 * right.
Evaluating the form costs a fixed number of flops regardless of how many
calibration sequences produced the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError
from .flops import FlopCounter, matmul_flops
from .linalg import frozen
from .stats import CalibStats

__all__ = [
    "ProjectionKind",
    "LossContext",
    "context_for",
    "loss",
    "loss_gradient",
    "loss_flops",
    "gradient_flops",
    "row_hessian",
]


class ProjectionKind(Enum):
    VALUE = "value"
    QUERY = "query"
    KEY = "key"
    OTHER = "other"


@dataclass
class LossContext:
    """Weighting pair for one projection's loss.

    left is d_h x d_h (key Gram for QUERY, query Gram for KEY, identity
    otherwise); right is d x d (attention-weighted second moment for VALUE,
    plain input second moment otherwise). Both symmetric PSD, and both
    held read-only: a read-only contiguous float64 input (such as a
    CalibStats matrix) is used as it is, anything else is copied.
    """

    kind: ProjectionKind
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        self.left = frozen(self.left)
        self.right = frozen(self.right)
        for name, m in (("left", self.left), ("right", self.right)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DataError(f"LossContext.{name} must be square")
            scale = max(1.0, float(np.abs(m).max()))
            if float(np.abs(m - m.T).max()) > 1e-9 * scale:
                raise DataError(f"LossContext.{name} must be symmetric")

    @property
    def identity_left(self) -> bool:
        return self.kind in (ProjectionKind.VALUE, ProjectionKind.OTHER)


def context_for(kind: ProjectionKind, stats: CalibStats) -> LossContext:
    """Build the weighting pair for ``kind`` from accumulated statistics."""
    eye = np.eye(stats.d_h)
    if kind is ProjectionKind.VALUE:
        return LossContext(kind, eye, stats.exax)
    if kind is ProjectionKind.QUERY:
        return LossContext(kind, stats.ektk, stats.exx)
    if kind is ProjectionKind.KEY:
        return LossContext(kind, stats.eqtq, stats.exx)
    return LossContext(kind, eye, stats.exx)


def _check_shape(ctx: LossContext, delta_w: np.ndarray) -> np.ndarray:
    delta_w = np.asarray(delta_w, dtype=np.float64)
    d_h, d = ctx.left.shape[0], ctx.right.shape[0]
    if delta_w.shape != (d_h, d):
        raise DataError(
            f"delta_w has shape {delta_w.shape}, context expects {d_h}x{d}"
        )
    return delta_w


def _product_flops(ctx: LossContext) -> int:
    """Flops of left @ DW @ right; the left product is skipped when left = I."""
    d_h, d = ctx.left.shape[0], ctx.right.shape[0]
    flops = matmul_flops(d_h, d, d)
    if not ctx.identity_left:
        flops += matmul_flops(d_h, d_h, d)
    return flops


def loss_flops(ctx: LossContext) -> int:
    """Flops of one ``loss`` evaluation: the product plus the multiply-reduce."""
    return _product_flops(ctx) + 2 * ctx.left.shape[0] * ctx.right.shape[0] - 1


def gradient_flops(ctx: LossContext) -> int:
    """Flops of one ``loss_gradient`` evaluation: the product plus the doubling."""
    return _product_flops(ctx) + ctx.left.shape[0] * ctx.right.shape[0]


def loss(ctx: LossContext, delta_w: np.ndarray, counter: FlopCounter | None = None) -> float:
    """tr(left @ DW @ right @ DW^T), evaluated as sum((left @ DW @ right) * DW).

    With identity left the left product is skipped, so the value/layer path
    costs one matmul plus one multiply-reduce and the query/key paths cost
    two matmuls plus one multiply-reduce.
    """
    delta_w = _check_shape(ctx, delta_w)
    if ctx.identity_left:
        weighted = delta_w @ ctx.right
    else:
        weighted = ctx.left @ delta_w @ ctx.right
    if counter is not None:
        counter.add(loss_flops(ctx))
    return float(np.sum(weighted * delta_w))


def loss_gradient(
    ctx: LossContext, delta_w: np.ndarray, counter: FlopCounter | None = None
) -> np.ndarray:
    """Gradient of the trace form with respect to DW: 2 * left @ DW @ right."""
    delta_w = _check_shape(ctx, delta_w)
    if ctx.identity_left:
        grad = 2.0 * (delta_w @ ctx.right)
    else:
        grad = 2.0 * (ctx.left @ delta_w @ ctx.right)
    if counter is not None:
        counter.add(gradient_flops(ctx))
    return grad


def row_hessian(ctx: LossContext) -> np.ndarray:
    """Per-row curvature of the loss: twice the right weighting factor.

    This is the d x d matrix consumed by step-size fitting and by the
    column-compensation quantizer; the left weighting couples rows and is
    seen only by the rounding optimizer.
    """
    return 2.0 * ctx.right
