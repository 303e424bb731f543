"""Uniform affine quantization: per-row grids, curvature-weighted step-size
fitting, nearest rounding, and column-compensated integer assignment.

Grid convention: integers live on 0..2^n - 1 and a real value x maps to
s * (clamp(round(x/s) + z, 0, 2^n - 1) - z) with per-row scale s > 0 and
integer zero-point z. Rounding ties go away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .jsonio import require_field

__all__ = [
    "QuantSpec",
    "QuantizedWeight",
    "round_half_away",
    "rtn_quantize",
    "dequantize",
    "fit_step_size",
    "optq_compensate",
    "quantized_to_json",
    "quantized_from_json",
]

ZERO_ROW_SCALE = 1e-8
CLIP_RATIO_LO = 0.4
CLIP_RATIO_HI = 1.0
N_CLIP_RATIOS = 128
OPTQ_DAMPING = 0.01


def round_half_away(x):
    """Round to nearest integer with halves going away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


@dataclass
class QuantSpec:
    """Per-row uniform grid: bit-width, positive scales, integer zero-points."""

    n_bits: int
    scale: np.ndarray
    zero_point: np.ndarray

    def __post_init__(self):
        if self.n_bits < 2:
            raise DataError(f"n_bits must be >= 2, got {self.n_bits}")
        self.scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        self.zero_point = np.atleast_1d(np.asarray(self.zero_point, dtype=np.int64))
        if self.scale.shape != self.zero_point.shape:
            raise DataError("scale and zero_point must have matching length")
        if np.any(self.scale <= 0):
            raise DataError("every row scale must be positive")
        if np.any((self.zero_point < 0) | (self.zero_point > self.grid_max)):
            raise DataError("zero_point outside the integer grid")

    @property
    def grid_max(self) -> int:
        return (1 << self.n_bits) - 1

    @property
    def n_rows(self) -> int:
        return self.scale.shape[0]


@dataclass
class QuantizedWeight:
    """Integer weights plus their grid; ``fallback_rtn`` flags that a
    factorization failure downgraded compensation to nearest rounding."""

    w_int: np.ndarray
    spec: QuantSpec
    fallback_rtn: bool = False

    def __post_init__(self):
        self.w_int = np.asarray(self.w_int, dtype=np.int64)
        if self.w_int.ndim != 2 or self.w_int.shape[0] != self.spec.n_rows:
            raise DataError("w_int row count must match the spec's row count")
        if np.any((self.w_int < 0) | (self.w_int > self.spec.grid_max)):
            raise DataError("integer weight outside the grid")


def _rtn_int(w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    s = spec.scale[:, None]
    z = spec.zero_point[:, None]
    return np.clip(round_half_away(w / s) + z, 0, spec.grid_max).astype(np.int64)


def rtn_quantize(w: np.ndarray, spec: QuantSpec) -> QuantizedWeight:
    """Nearest-grid assignment, row by row."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != spec.n_rows:
        raise DataError(f"weight has {w.shape[0]} rows, spec has {spec.n_rows}")
    return QuantizedWeight(w_int=_rtn_int(w, spec), spec=spec)


def dequantize(qw: QuantizedWeight) -> np.ndarray:
    s = qw.spec.scale[:, None]
    z = qw.spec.zero_point[:, None]
    return s * (qw.w_int.astype(np.float64) - z)


def _candidate_grids(row: np.ndarray, n_bits: int):
    """Yield (scale, zero_point) for each clip ratio in [0.4, 1.0] * max-abs.

    The clipped range is widened to include zero so that zero is always
    exactly representable and the derived zero-point lands on the grid.
    """
    grid_max = (1 << n_bits) - 1
    max_abs = float(np.abs(row).max())
    w_min, w_max = float(row.min()), float(row.max())
    for ratio in np.linspace(CLIP_RATIO_LO, CLIP_RATIO_HI, N_CLIP_RATIOS):
        bound = ratio * max_abs
        lo = min(max(w_min, -bound), 0.0)
        hi = max(min(w_max, bound), 0.0)
        scale = (hi - lo) / grid_max
        if scale <= 0:
            continue
        zero_point = int(np.clip(round_half_away(-lo / scale), 0, grid_max))
        yield scale, zero_point


def fit_step_size(w: np.ndarray, hessian: np.ndarray, n_bits: int) -> QuantSpec:
    """Per-row grid search over clip ratios minimizing dw @ H @ dw^T under
    nearest rounding, with dw the row's dequantization error.

    Ties break toward the larger scale. All-zero rows get a tiny fixed
    scale and a mid-grid zero-point; their loss contribution is zero.
    """
    w = np.asarray(w, dtype=np.float64)
    hessian = np.asarray(hessian, dtype=np.float64)
    if w.ndim != 2:
        raise DataError("fit_step_size expects a 2-D weight matrix")
    if hessian.shape != (w.shape[1], w.shape[1]):
        raise DataError(
            f"hessian is {hessian.shape}, expected {w.shape[1]}x{w.shape[1]}"
        )
    grid_max = (1 << n_bits) - 1
    scales = np.empty(w.shape[0])
    zero_points = np.empty(w.shape[0], dtype=np.int64)
    for i, row in enumerate(w):
        if not np.any(row):
            scales[i] = ZERO_ROW_SCALE
            zero_points[i] = 1 << (n_bits - 1)
            continue
        best = None
        for s, z in _candidate_grids(row, n_bits):
            g = np.clip(round_half_away(row / s) + z, 0, grid_max)
            err = s * (g - z) - row
            obj = float(err @ hessian @ err)
            if best is None or obj < best[0] or (obj == best[0] and s > best[1]):
                best = (obj, s, z)
        scales[i], zero_points[i] = best[1], best[2]
    return QuantSpec(n_bits=n_bits, scale=scales, zero_point=zero_points)


def optq_compensate(
    w: np.ndarray, hessian: np.ndarray, spec: QuantSpec
) -> tuple[QuantizedWeight, np.ndarray]:
    """Column-sequential quantization with inverse-curvature error feedback.

    Columns are quantized left to right; after each, the remaining
    full-precision columns absorb the scaled error through the upper
    Cholesky factor of the damped inverse Hessian. Returns the integer
    assignment together with the compensated full-precision weights (the
    state each column had when it was quantized), which later stages use
    as a warm start. With an identity Hessian the integers equal nearest
    rounding exactly. A singular factorization falls back to plain nearest
    rounding with ``fallback_rtn`` set.
    """
    w = np.asarray(w, dtype=np.float64)
    hessian = np.asarray(hessian, dtype=np.float64)
    n_rows, n_cols = w.shape
    if spec.n_rows != n_rows:
        raise DataError("spec rows do not match the weight matrix")
    if hessian.shape != (n_cols, n_cols):
        raise DataError("hessian must be square with one row per weight column")

    mean_diag = float(np.trace(hessian)) / n_cols
    damping = OPTQ_DAMPING * mean_diag if mean_diag > 0 else 1e-12
    damped = hessian + damping * np.eye(n_cols)
    try:
        upper = np.linalg.cholesky(np.linalg.inv(damped)).T
    except np.linalg.LinAlgError:
        qw = rtn_quantize(w, spec)
        return QuantizedWeight(qw.w_int, spec, fallback_rtn=True), w.copy()

    work = w.copy()
    compensated = np.empty_like(w)
    w_int = np.empty((n_rows, n_cols), dtype=np.int64)
    s, z = spec.scale, spec.zero_point
    for j in range(n_cols):
        col = work[:, j]
        compensated[:, j] = col
        g = np.clip(round_half_away(col / s) + z, 0, spec.grid_max)
        w_int[:, j] = g
        err = (col - s * (g - z)) / upper[j, j]
        if j + 1 < n_cols:
            work[:, j + 1 :] -= np.outer(err, upper[j, j + 1 :])
    return QuantizedWeight(w_int=w_int, spec=spec), compensated


def quantized_to_json(qw: QuantizedWeight) -> dict:
    return {
        "n_bits": qw.spec.n_bits,
        "scale": qw.spec.scale.tolist(),
        "zero_point": qw.spec.zero_point.tolist(),
        "w_int": qw.w_int.tolist(),
        "fallback_rtn": qw.fallback_rtn,
    }


def quantized_from_json(obj: dict, what: str = "quantized weight") -> QuantizedWeight:
    spec = QuantSpec(
        n_bits=int(require_field(obj, "n_bits", what)),
        scale=require_field(obj, "scale", what),
        zero_point=require_field(obj, "zero_point", what),
    )
    w_int = np.asarray(require_field(obj, "w_int", what))
    if w_int.ndim != 2:
        raise DataError(f"{what}: w_int must be a 2-D integer matrix")
    return QuantizedWeight(
        w_int=w_int, spec=spec, fallback_rtn=bool(obj.get("fallback_rtn", False))
    )
