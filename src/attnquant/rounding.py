"""Learned weight rounding under the trace-form losses.

Instead of rounding each weight to its nearest grid point, a continuous
logit matrix B is optimized so that the soft assignment

    W~ = s * (clamp(floor(W/s) + z + h(B), 0, 2^n - 1) - z)

minimizes reconstruction loss plus a rounding regularizer that pushes every
h(B) to 0 or 1, where h is the stretched rectified sigmoid. Because the
reconstruction term is a quadratic form over pre-computed statistics, one
optimization step costs the same no matter how many calibration sequences
were used.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .flops import FlopCounter
from .objectives import LossContext, loss, loss_gradient
from .quantizer import QuantSpec, QuantizedWeight, rtn_quantize

__all__ = [
    "SoftQuantConfig",
    "rectified_sigmoid",
    "rounding_regularizer",
    "rounding_objective",
    "optimize_rounding",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Sigmoid stretch: h = clamp(sigmoid(b) * (ZETA - GAMMA) + GAMMA, 0, 1).
ZETA = 1.1
GAMMA = -0.1
# Regularizer exponent: linear anneal from BETA_START to BETA_END over the
# first BETA_ANNEAL_FRAC of the iterations, then held.
BETA_START = 20.0
BETA_END = 2.0
BETA_ANNEAL_FRAC = 0.8


@dataclass
class SoftQuantConfig:
    """Hyperparameters of the rounding optimization.

    Defaults: 2000 iterations, learning rate 0.015, rounding-loss weight
    1.5. The sigmoid stretch and the annealed regularizer exponent are the
    module constants above (the usual learned-rounding recipe).
    """

    iterations: int = 2000
    learning_rate: float = 0.015
    lam: float = 1.5

    def __post_init__(self):
        if self.iterations < 0:
            raise DataError("iterations must be >= 0")
        if not 0 < self.learning_rate < np.inf:
            raise DataError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.lam < np.inf:
            raise DataError(f"lam (rounding weight) must be >= 0 and finite, got {self.lam}")

    def beta_at(self, iteration: int) -> float:
        """Regularizer exponent at ``iteration`` of this schedule."""
        ramp = max(1.0, BETA_ANNEAL_FRAC * self.iterations)
        t = min(1.0, iteration / ramp)
        return BETA_START + t * (BETA_END - BETA_START)


def rectified_sigmoid(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h(B) = clamp(sigmoid(B)(ZETA - GAMMA) + GAMMA, 0, 1), in [0, 1], and
    its derivative dh/dB (zero where the clamp is active)."""
    sig = 1.0 / (1.0 + np.exp(-np.asarray(b, dtype=np.float64)))
    raw = sig * (ZETA - GAMMA) + GAMMA
    inside = (raw > 0.0) & (raw < 1.0)
    return np.clip(raw, 0.0, 1.0), inside * (ZETA - GAMMA) * sig * (1.0 - sig)


def rounding_regularizer(
    h: np.ndarray, dh_db: np.ndarray, lam: float, beta: float
) -> tuple[float, np.ndarray]:
    """lam * sum(1 - |2h - 1|^beta) and its gradient with respect to b.

    Zero exactly when every h sits at 0 or 1; the gradient vanishes on the
    clamped (saturated) entries.
    """
    if beta <= 0:
        raise DataError("regularizer exponent beta must be positive")
    t = 2.0 * h - 1.0
    abs_t = np.abs(t)
    value = lam * float(np.sum(1.0 - abs_t**beta))
    # d/dh [1 - |2h-1|^beta] = -2 beta |2h-1|^(beta-1) sign(2h-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(abs_t > 0, abs_t ** (beta - 1.0), 0.0)
    grad_h = -2.0 * beta * power * np.sign(t)
    return value, lam * grad_h * dh_db


def rounding_objective(
    b: np.ndarray,
    w: np.ndarray,
    spec: QuantSpec,
    ctx: LossContext,
    lam: float,
    beta: float,
    w_reference: np.ndarray | None = None,
    counter: FlopCounter | None = None,
) -> tuple[float, float, np.ndarray]:
    """One rounding step: (reconstruction, regularizer, gradient wrt b).

    The soft assignment is built on ``w``'s grid cells while the loss
    measures the deviation from ``w_reference`` (defaults to ``w``), so a
    compensated warm start can be rounded against the original weights.
    """
    w = np.asarray(w, dtype=np.float64)
    ref = w if w_reference is None else np.asarray(w_reference, dtype=np.float64)
    s, z = spec.scale[:, None], spec.zero_point[:, None]
    h, dh_db = rectified_sigmoid(b)
    g_raw = np.floor(w / s) + z + h
    inside = (g_raw > 0.0) & (g_raw < spec.grid_max)
    delta = ref - s * (np.clip(g_raw, 0, spec.grid_max) - z)
    reconstruction = loss(ctx, delta, counter)
    grad_recon = -loss_gradient(ctx, delta, counter) * s * inside * dh_db
    if counter is not None:
        counter.add(6 * w.size)  # soft-assignment and chain-rule elementwise work
    regularizer, grad_reg = rounding_regularizer(h, dh_db, lam, beta)
    return reconstruction, regularizer, grad_recon + grad_reg


def optimize_rounding(
    w: np.ndarray,
    spec: QuantSpec,
    ctx: LossContext,
    cfg: SoftQuantConfig,
    w_reference: np.ndarray | None = None,
    counter: FlopCounter | None = None,
    trace_csv: str | Path | None = None,
) -> QuantizedWeight:
    """Optimize the rounding logits with adaptive-moment gradient descent and
    return the hard assignment (h thresholded at 0.5).

    Fully deterministic: the objective is evaluated over pre-computed
    statistics with no sampling, so identical inputs give identical integer
    weights. ``iterations == 0`` returns the plain nearest-rounding result.
    """
    w = np.asarray(w, dtype=np.float64)
    if cfg.iterations == 0:
        return rtn_quantize(w, spec)
    # Logits start where the soft assignment equals each weight's own
    # fractional grid position, clamped away from the sigmoid's saturation.
    floor_grid = np.floor(w / spec.scale[:, None])
    frac = np.clip(w / spec.scale[:, None] - floor_grid, 0.01, 0.99)
    inner = np.clip((frac - GAMMA) / (ZETA - GAMMA), 1e-4, 1 - 1e-4)
    b = np.log(inner / (1.0 - inner))
    m = np.zeros_like(b)
    v = np.zeros_like(b)
    trace = []
    for it in range(cfg.iterations):
        recon, reg, grad = rounding_objective(
            b, w, spec, ctx, cfg.lam, cfg.beta_at(it), w_reference, counter
        )
        trace.append((recon + reg, recon, reg))
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** (it + 1))
        v_hat = v / (1.0 - ADAM_BETA2 ** (it + 1))
        b = b - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if counter is not None:
            counter.add(10 * b.size)  # optimizer update elementwise work

    if trace_csv is not None:
        path = Path(trace_csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "total", "reconstruction", "regularizer"])
            writer.writerows((i, *map(repr, row)) for i, row in enumerate(trace))
    h, _ = rectified_sigmoid(b)
    g = np.clip(floor_grid + spec.zero_point[:, None] + (h >= 0.5), 0, spec.grid_max)
    return QuantizedWeight(w_int=g.astype(np.int64), spec=spec)
