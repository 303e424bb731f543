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
# The float64 unit roundoff u of fit_step_size's certification bound.
_UNIT_ROUNDOFF = 2.0 ** -53


def round_half_away(x):
    """Round to nearest integer with halves going away from zero."""
    x = np.asarray(x, dtype=np.float64)
    # one new array, then in place; positional outs keep small calls cheap
    r = np.abs(x, np.empty_like(x))
    r += 0.5
    return np.copysign(np.floor(r, r), x, r)[()]  # a scalar x gives a scalar


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


def _grid_int(x: np.ndarray, z: np.ndarray, grid_max: int) -> np.ndarray:
    """Grid integers clip(round_half_away(x) + z, 0, grid_max) of x = w / s, as float64."""
    g = round_half_away(x)
    g += z
    return np.clip(g, 0, grid_max, g)


def rtn_quantize(w: np.ndarray, spec: QuantSpec) -> QuantizedWeight:
    """Nearest-grid assignment, row by row."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != spec.n_rows:  # else a 1-row weight would broadcast over every grid row
        raise DataError(f"weight has {w.shape[0]} rows, spec has {spec.n_rows}")
    g = _grid_int(w / spec.scale[:, None], spec.zero_point[:, None], spec.grid_max)
    return QuantizedWeight(w_int=g.astype(np.int64), spec=spec)


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


def _candidate_errors(row: np.ndarray, scale: np.ndarray, zero_point: np.ndarray, grid_max: int) -> np.ndarray:
    """Nearest-rounding errors s * (g - z) - row of one row, shape
    (candidates, d), built in place, with g each entry's grid integer
    (``_grid_int``)."""
    s = scale[:, None]
    z = zero_point[:, None]
    err = _grid_int(row / s, z, grid_max)
    err -= z
    err *= s
    err -= row
    return err


def _screen_values(err: np.ndarray, hessian: np.ndarray, norm_bound: float, underflow: float):
    """Per row e_k of ``err``, the screen value O_k = sum((e_k @ H) * e_k) and the margin
    m_k = norm_bound ||e_k||^2 + underflow that bounds |O_k - e_k @ H @ e_k| (``fit_step_size``)."""
    weighted = err @ hessian
    weighted *= err
    return weighted.sum(axis=1), norm_bound * np.einsum("ij,ij->i", err, err) + underflow


def _best_candidate(errors, hessian, scale, zero_point):
    """(scale, zero_point) of the candidates with these errors that wins
    under the exact per-candidate objective err @ H @ err, taken in ratio
    order: the lower objective wins, and on an exact tie the larger scale
    wins."""
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
    Rows are independent, so the rows of several weights that share one
    curvature can be fitted in one call.

    The search screens, then certifies, one row at a time. One GEMM gives
    each of the row's candidates k a screen value O_k = sum((E @ H) * E)
    of its error e_k. Only the candidates that the screen cannot rule out
    are scored again with the exact per-candidate expression
    ``err @ H @ err`` (R_k), and the tie rule above is applied to those in
    ratio order.

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
    overflow, so a row with a screen value or margin (or ||H||) that is not
    finite keeps every candidate: NaN and Inf rule nothing out. An exact
    objective that overflows is +Inf, and loses to every finite one.
    """
    w = np.asarray(w, dtype=np.float64)
    hessian = np.asarray(hessian, dtype=np.float64)
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

    n = 2 * d + 2
    gamma = n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)
    abs_h = np.abs(hessian)
    with np.errstate(over="ignore"):  # an infinite ||H|| keeps every candidate
        h_norm = max(abs_h.sum(axis=0).max(initial=0.0), abs_h.sum(axis=1).max(initial=0.0))
    underflow = 4 * (d + 1) ** 2 * np.finfo(np.float64).smallest_subnormal

    for i in np.flatnonzero(valid.any(axis=1)):
        ok = valid[i]
        err = _candidate_errors(w[i], np.where(ok, cand_scale[i], 1.0), cand_zero[i], grid_max)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is handled as above
            screen, margin = _screen_values(err, hessian, 4 * gamma * h_norm, underflow)
            screen[~np.isfinite(screen)] = np.nan  # overflow: the bound does not hold
            screen[~ok] = np.inf
            k = np.flatnonzero(ok & ~(screen - margin > (screen + margin).min()))
            scales[i], zero_points[i] = _best_candidate(err[k], hessian, cand_scale[i, k], cand_zero[i, k])
    return QuantSpec(n_bits=n_bits, scale=scales, zero_point=zero_points)


def _inverse_factor(hessian: np.ndarray) -> np.ndarray | None:
    """Upper Cholesky factor of the damped inverse of ``hessian``, or None
    when the factorization fails or gives a factor that is not finite."""
    n_cols = hessian.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing trace: refused below
        mean_diag = float(np.trace(hessian)) / n_cols
        # The fallback's value changes no result. A PSD curvature with a zero
        # diagonal is all zero, so the damped matrix is a multiple of I and
        # the factor's off-diagonal entries are 0: every column update
        # vanishes, and any positive fallback gives the same integers and
        # compensated weights. (A mean that underflows to 0 leaves entries
        # near 5e-324, whose updates stay below 1e-300 times the error.)
        damping = OPTQ_DAMPING * mean_diag if mean_diag > 0 else 1e-12
        damped = hessian + damping * np.eye(n_cols)
    try:
        upper = np.linalg.cholesky(np.linalg.inv(damped)).T
    except np.linalg.LinAlgError:
        return None
    # cholesky can return a non-finite factor without raising, when the
    # inverse overflows (a curvature near the subnormal range)
    return upper if np.isfinite(upper).all() else None


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

    Given the factor, every row is compensated on its own, so stacking the
    rows of several weights that share one curvature (with their grids'
    rows stacked alike) gives each the result it gets alone, and factors
    the curvature once.
    """
    w = np.asarray(w, dtype=np.float64)
    hessian = np.asarray(hessian, dtype=np.float64)
    n_rows, n_cols = w.shape

    upper = _inverse_factor(hessian)
    if upper is None:
        qw = rtn_quantize(w, spec)
        return QuantizedWeight(qw.w_int, spec, fallback_rtn=True), w.copy()

    # The loop runs on transposed copies, so that each column is one
    # contiguous row. Row j of `work` is final once row j is reached, so at
    # the end `work` holds the compensated weights.
    work = w.T.copy()
    w_int = np.empty((n_cols, n_rows), dtype=np.int64)
    update = np.empty((n_cols - 1, n_rows))
    s, z = spec.scale, spec.zero_point
    for j in range(n_cols):
        col = work[j]
        g = _grid_int(col / s, z, spec.grid_max).astype(np.int64)
        w_int[j] = g
        err = (col - s * (g - z)) / upper[j, j]
        rest = update[: n_cols - j - 1]
        # rest[c, r] = upper[j, j+1+c] * err[r], the same rounded product as
        # the outer product err[r] * upper[j, j+1+c]
        np.multiply(upper[j, j + 1 :, None], err, out=rest)
        work[j + 1 :] -= rest
    compensated = np.ascontiguousarray(work.T)
    return QuantizedWeight(w_int=np.ascontiguousarray(w_int.T), spec=spec), compensated


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
