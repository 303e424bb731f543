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
from .linalg import as_matrix
from .stats import CalibStats

__all__ = [
    "ProjectionKind",
    "LossContext",
    "context_for",
    "as_delta",
    "weighted",
    "loss",
    "loss_gradient",
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
    plain input second moment otherwise). Both are symmetric PSD when they
    come from ``context_for`` (the statistics are, by construction), and
    both are stored by ``as_matrix``, so CalibStats matrices are shared,
    not copied.
    """

    kind: ProjectionKind
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        self.left = as_matrix(self.left, "LossContext.left")
        self.right = as_matrix(self.right, "LossContext.right")
        # An attribute, not a property: the rounding loop reads it per step.
        self.identity_left = self.kind in (ProjectionKind.VALUE, ProjectionKind.OTHER)
        if self.identity_left and not np.array_equal(self.left, np.eye(len(self.left))):
            raise DataError(f"LossContext.left must be the identity for the {self.kind.value} kind")


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


def as_delta(delta_w: np.ndarray, d_h: int, d: int) -> np.ndarray:
    """``delta_w`` as a float64 array, refused unless it is d_h x d: the one
    check of a weight perturbation's shape."""
    delta_w = np.asarray(delta_w, dtype=np.float64)
    if delta_w.shape != (d_h, d):
        raise DataError(f"delta_w has shape {delta_w.shape}, expected {d_h}x{d}")
    return delta_w


def weighted(ctx: LossContext, delta_w: np.ndarray, out=None, work=None) -> np.ndarray:
    """left @ DW @ right, the product that the loss and its gradient are made
    of; the left product is skipped for the value and layer kinds, whose
    left factor is the identity. ``out`` receives the result and ``work``
    the left product, both d_h x d, when given."""
    if not ctx.identity_left:
        delta_w = np.matmul(ctx.left, delta_w, out=work)
    return np.matmul(delta_w, ctx.right, out=out)


def loss(ctx: LossContext, delta_w: np.ndarray) -> float:
    """tr(left @ DW @ right @ DW^T), evaluated as sum(weighted(DW) * DW)."""
    delta_w = as_delta(delta_w, ctx.left.shape[0], ctx.right.shape[0])
    return float(np.sum(weighted(ctx, delta_w) * delta_w))


def loss_gradient(ctx: LossContext, delta_w: np.ndarray) -> np.ndarray:
    """Gradient of the trace form with respect to DW: 2 * left @ DW @ right."""
    delta_w = as_delta(delta_w, ctx.left.shape[0], ctx.right.shape[0])
    return 2.0 * weighted(ctx, delta_w)


def row_hessian(ctx: LossContext) -> np.ndarray:
    """Per-row curvature of the loss: twice the right weighting factor.

    This is the d x d matrix consumed by step-size fitting and by the
    column-compensation quantizer; the left weighting couples rows and is
    seen only by the rounding optimizer.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # fit_step_size refuses an overflow
        return 2.0 * ctx.right
