"""Uniform affine quantization: per-row grids, curvature-weighted step-size
fitting, nearest rounding, and column-compensated integer assignment.

Grid convention: integers live on 0..2^n - 1 and a real value x maps to
s * (clamp(round(x/s) + z, 0, 2^n - 1) - z) with per-row scale s > 0 and
integer zero-point z. Rounding ties go away from zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .jsonio import json_numbers, require_field, require_int

__all__ = [
    "VALID_BITS",
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

VALID_BITS = (2, 3, 4, 6, 8)
ZERO_ROW_SCALE = 1e-8
CLIP_RATIO_LO = 0.4
CLIP_RATIO_HI = 1.0
N_CLIP_RATIOS = 128
OPTQ_DAMPING = 0.01
# fit_step_size screens rows in blocks whose candidate errors take about this
# many bytes; u is the float64 unit roundoff of its certification bound.
_SCREEN_BLOCK_BYTES = 256 << 10
_UNIT_ROUNDOFF = 2.0 ** -53


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
        if self.n_bits not in VALID_BITS:
            raise DataError(f"n_bits must be one of {VALID_BITS}, got {self.n_bits}")
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


def _candidate_grids(w: np.ndarray, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Scales and zero-points, each (rows, N_CLIP_RATIOS), of the grids that
    clip each row to ratio * max-abs for ratios evenly spaced in [0.4, 1.0].

    The clipped range is widened to include zero so that zero is always
    exactly representable and the derived zero-point lands on the grid. A
    candidate whose scale is not positive (every scale of an all-zero row,
    or one that underflows) gets zero-point 0 and must be skipped.
    """
    grid_max = (1 << n_bits) - 1
    ratios = np.linspace(CLIP_RATIO_LO, CLIP_RATIO_HI, N_CLIP_RATIOS)
    bound = ratios * np.abs(w).max(axis=1, initial=0.0)[:, None]
    lo = np.minimum(np.maximum(w.min(axis=1, initial=0.0)[:, None], -bound), 0.0)
    hi = np.maximum(np.minimum(w.max(axis=1, initial=0.0)[:, None], bound), 0.0)
    scale = (hi - lo) / grid_max
    valid = scale > 0
    zero_point = np.clip(round_half_away(-lo / np.where(valid, scale, 1.0)), 0, grid_max)
    return scale, np.where(valid, zero_point, 0).astype(np.int64)


def _candidate_errors(rows: np.ndarray, scale: np.ndarray, zero_point: np.ndarray, grid_max: int) -> np.ndarray:
    """Nearest-rounding errors s * (g - z) - row, shape (rows, candidates, d),
    built in place, with g each entry's grid integer under ``_rtn_int``'s
    rule."""
    s = scale[:, :, None]
    z = zero_point[:, :, None]
    x = rows[:, None, :] / s
    err = np.abs(x)
    err += 0.5
    np.floor(err, out=err)
    np.copysign(err, x, out=err)
    del x
    err += z
    np.clip(err, 0, grid_max, out=err)
    err -= z
    err *= s
    err -= rows[:, None, :]
    return err


def _best_candidate(row, hessian, scale, zero_point, grid_max):
    """(scale, zero_point) of the given candidates that wins under the exact
    per-candidate objective err @ H @ err, taken in ratio order: the lower
    objective wins, and on an exact tie the larger scale wins."""
    errors = _candidate_errors(row[None], scale[None], zero_point[None], grid_max)[0]
    best = None
    for s, z, err in zip(scale, zero_point.tolist(), errors):
        obj = float(err @ hessian @ err)
        if best is None or obj < best[0] or (obj == best[0] and s > best[1]):
            best = (obj, s, z)
    return best[1], best[2]


def fit_step_size(w: np.ndarray, hessian: np.ndarray, n_bits: int) -> QuantSpec:
    """Per-row grid search over clip ratios minimizing dw @ H @ dw^T under
    nearest rounding, with dw the row's dequantization error.

    Ties break toward the larger scale. A row with no candidate of positive
    scale (all zeros, or so small that every scale underflows) gets a tiny
    fixed scale and a mid-grid zero-point; its loss contribution is zero.

    The search screens, then certifies. Rows are taken in blocks of about
    ``_SCREEN_BLOCK_BYTES`` of candidate errors. One GEMM per block gives
    every candidate k a screen value O_k = sum((E @ H) * E) of its error
    e_k. Only the candidates that the screen cannot rule out are scored
    again with the exact per-candidate expression ``err @ H @ err`` (R_k),
    and the tie rule above is applied to those in ratio order.

    Why the result equals scoring every candidate exactly: O_k and R_k both
    evaluate e_k^T H e_k with d-term dot products, then one more d-term
    sum. Whatever the summation order, each is within
    gamma_{2d+1} |e_k|^T |H| |e_k| <= gamma_{2d+1} ||H|| ||e_k||^2 of the
    exact value, where gamma_n = n u / (1 - n u), u = 2^-53 and
    ||H|| = max(||H||_1, ||H||_inf) >= || |H| ||_2. So |O_k - R_k| <= m_k
    with m_k = 4 gamma_{2d+2} ||H|| ||e_k||^2 (the factor 4 over 2 covers
    the rounding of m_k itself) plus an absolute term for underflow of at
    most 2^-1075 per product. If candidate j attains the minimum of R, then
    for every i, O_j - m_j <= R_j <= R_i <= O_i + m_i, and rounding is
    monotone, so fl(O_j - m_j) <= min_i fl(O_i + m_i): j survives the
    screen. Every candidate tied with the minimum survives the same way,
    and the non-minimal survivors cannot win, so the tie rule over the
    survivors picks what it picks over all candidates. The bound assumes no
    overflow, so a row with a screen value that is not finite keeps every
    candidate.
    """
    w = np.asarray(w, dtype=np.float64)
    hessian = np.asarray(hessian, dtype=np.float64)
    if w.ndim != 2:
        raise DataError("fit_step_size expects a 2-D weight matrix")
    if hessian.shape != (w.shape[1], w.shape[1]):
        raise DataError(
            f"hessian is {hessian.shape}, expected {w.shape[1]}x{w.shape[1]}"
        )
    if not (np.isfinite(w).all() and np.isfinite(hessian).all()):
        raise DataError("fit_step_size needs finite weights and curvature")
    n_rows, d = w.shape
    grid_max = (1 << n_bits) - 1
    scales = np.full(n_rows, ZERO_ROW_SCALE)
    zero_points = np.full(n_rows, 1 << (n_bits - 1), dtype=np.int64)
    cand_scale, cand_zero = _candidate_grids(w, n_bits)
    valid = cand_scale > 0
    fitted = np.flatnonzero(valid.any(axis=1))

    n = 2 * d + 2
    gamma = n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)
    abs_h = np.abs(hessian)
    h_norm = max(abs_h.sum(axis=0).max(initial=0.0), abs_h.sum(axis=1).max(initial=0.0))
    underflow = 4 * (d + 1) ** 2 * np.finfo(np.float64).smallest_subnormal
    block = max(1, _SCREEN_BLOCK_BYTES // (N_CLIP_RATIOS * max(d, 1) * 8))

    for start in range(0, fitted.size, block):
        idx = fitted[start : start + block]
        ok = valid[idx]
        scale = np.where(ok, cand_scale[idx], 1.0)
        err = _candidate_errors(w[idx], scale, cand_zero[idx], grid_max).reshape(-1, d)
        margin = 4 * gamma * h_norm * np.einsum("ij,ij->i", err, err) + underflow
        weighted = err @ hessian
        weighted *= err
        del err
        screen = weighted.sum(axis=1).reshape(ok.shape)
        screen[~np.isfinite(screen)] = np.nan  # overflow: the bound does not hold
        screen[~ok] = np.inf
        margin = margin.reshape(ok.shape)
        ceiling = (screen + margin).min(axis=1, keepdims=True)
        keep = ok & ~(screen - margin > ceiling)
        for r, i in enumerate(idx):
            k = np.flatnonzero(keep[r])
            scales[i], zero_points[i] = _best_candidate(
                w[i], hessian, cand_scale[i, k], cand_zero[i, k], grid_max
            )
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
    rounding exactly. A factorization that fails, or gives a non-finite
    factor, falls back to plain nearest rounding with ``fallback_rtn`` set.
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
        upper = None
    # cholesky can return a non-finite factor without raising, when the
    # inverse overflows (a curvature near the subnormal range)
    if upper is None or not np.isfinite(upper).all():
        qw = rtn_quantize(w, spec)
        return QuantizedWeight(qw.w_int, spec, fallback_rtn=True), w.copy()

    work = w.copy()
    compensated = np.empty_like(w)
    w_int = np.empty((n_rows, n_cols), dtype=np.int64)
    s, z = spec.scale, spec.zero_point
    for j in range(n_cols):
        col = work[:, j]
        compensated[:, j] = col
        g = _rtn_int(col[:, None], spec)[:, 0]
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
    n_bits = require_int(obj, "n_bits", what)
    scale, zero_point, w_int = (
        json_numbers(require_field(obj, key, what), f"{what}: field '{key}'", integer=key != "scale", finite=True)
        for key in ("scale", "zero_point", "w_int")
    )
    if w_int.ndim != 2:
        raise DataError(f"{what}: w_int must be a 2-D integer matrix")
    fallback_rtn = obj.get("fallback_rtn", False)
    if not isinstance(fallback_rtn, bool):
        raise DataError(
            f"{what}: field 'fallback_rtn' must be a JSON boolean, got {json.dumps(fallback_rtn)}"
        )
    try:
        return QuantizedWeight(
            w_int=w_int,
            spec=QuantSpec(n_bits=n_bits, scale=scale, zero_point=zero_point),
            fallback_rtn=fallback_rtn,
        )
    except DataError as exc:
        raise DataError(f"{what}: {exc}") from exc
