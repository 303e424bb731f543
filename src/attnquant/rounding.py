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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .flops import FlopCounter
from .objectives import LossContext, loss, loss_gradient
from .quantizer import QuantSpec, QuantizedWeight, rtn_quantize

__all__ = [
    "SoftQuantConfig",
    "RoundingState",
    "rectified_sigmoid",
    "init_rounding_state",
    "soft_quantize",
    "rounding_regularizer",
    "reconstruction_and_gradient",
    "optimize_rounding",
    "optimize_rounding_with_state",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class SoftQuantConfig:
    """Hyperparameters of the rounding optimization.

    Defaults: 2000 iterations, learning rate 0.015, rounding-loss weight
    1.5. The sigmoid stretch constants and the annealed regularizer
    exponent follow the usual learned-rounding recipe.
    """

    iterations: int = 2000
    learning_rate: float = 0.015
    lam: float = 1.5
    beta_start: float = 20.0
    beta_end: float = 2.0
    beta_anneal_frac: float = 0.8
    zeta: float = 1.1
    gamma: float = -0.1

    def __post_init__(self):
        if self.iterations < 0:
            raise DataError("iterations must be >= 0")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")

    def beta_at(self, iteration: int) -> float:
        """Linear anneal from beta_start to beta_end over the first
        ``beta_anneal_frac`` of iterations, then held."""
        if self.iterations == 0:
            return self.beta_end
        ramp = max(1.0, self.beta_anneal_frac * self.iterations)
        t = min(1.0, iteration / ramp)
        return self.beta_start + t * (self.beta_end - self.beta_start)


@dataclass
class RoundingState:
    """Continuous rounding logits plus schedule bookkeeping."""

    b: np.ndarray
    lam: float
    beta: float
    zeta: float = 1.1
    gamma: float = -0.1
    iteration: int = 0
    loss_trace: list = field(default_factory=list)

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)


def rectified_sigmoid(b: np.ndarray, zeta: float = 1.1, gamma: float = -0.1) -> np.ndarray:
    """h(B) = clamp(sigmoid(B)(zeta - gamma) + gamma, 0, 1), in [0, 1]."""
    sig = 1.0 / (1.0 + np.exp(-np.asarray(b, dtype=np.float64)))
    return np.clip(sig * (zeta - gamma) + gamma, 0.0, 1.0)


def _rectified_sigmoid_grad(b: np.ndarray, zeta: float, gamma: float) -> np.ndarray:
    sig = 1.0 / (1.0 + np.exp(-b))
    raw = sig * (zeta - gamma) + gamma
    inside = (raw > 0.0) & (raw < 1.0)
    return inside * (zeta - gamma) * sig * (1.0 - sig)


def init_rounding_state(w: np.ndarray, spec: QuantSpec, cfg: SoftQuantConfig) -> RoundingState:
    """Logits initialized so the soft assignment starts at each weight's own
    fractional grid position (clamped away from the sigmoid's saturation)."""
    w = np.asarray(w, dtype=np.float64)
    frac = w / spec.scale[:, None]
    frac = frac - np.floor(frac)
    frac = np.clip(frac, 0.01, 0.99)
    inner = np.clip((frac - cfg.gamma) / (cfg.zeta - cfg.gamma), 1e-4, 1 - 1e-4)
    b = np.log(inner / (1.0 - inner))
    return RoundingState(
        b=b, lam=cfg.lam, beta=cfg.beta_start, zeta=cfg.zeta, gamma=cfg.gamma
    )


def _grid_parts(w: np.ndarray, spec: QuantSpec):
    s = spec.scale[:, None]
    z = spec.zero_point[:, None]
    return s, z, np.floor(w / s)


def soft_quantize(w: np.ndarray, spec: QuantSpec, state: RoundingState) -> np.ndarray:
    """Soft-quantized weights; lands exactly on the grid wherever h is 0 or 1."""
    w = np.asarray(w, dtype=np.float64)
    s, z, floor_grid = _grid_parts(w, spec)
    h = rectified_sigmoid(state.b, state.zeta, state.gamma)
    g = np.clip(floor_grid + z + h, 0, spec.grid_max)
    return s * (g - z)


def rounding_regularizer(state: RoundingState) -> tuple[float, np.ndarray]:
    """lam * sum(1 - |2h - 1|^beta) and its gradient with respect to b.

    Zero exactly when every h sits at 0 or 1; the gradient vanishes on the
    clamped (saturated) entries.
    """
    if state.beta <= 0:
        raise DataError("regularizer exponent beta must be positive")
    h = rectified_sigmoid(state.b, state.zeta, state.gamma)
    t = 2.0 * h - 1.0
    abs_t = np.abs(t)
    value = state.lam * float(np.sum(1.0 - abs_t**state.beta))
    # d/dh [1 - |2h-1|^beta] = -2 beta |2h-1|^(beta-1) sign(2h-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(abs_t > 0, abs_t ** (state.beta - 1.0), 0.0)
    grad_h = -2.0 * state.beta * power * np.sign(t)
    grad_b = state.lam * grad_h * _rectified_sigmoid_grad(state.b, state.zeta, state.gamma)
    return value, grad_b


def reconstruction_and_gradient(
    w: np.ndarray,
    spec: QuantSpec,
    ctx: LossContext,
    state: RoundingState,
    w_reference: np.ndarray | None = None,
    counter: FlopCounter | None = None,
) -> tuple[float, np.ndarray]:
    """Reconstruction loss at the current logits and its gradient wrt b.

    The soft assignment is built on ``w``'s grid cells while the loss
    measures the deviation from ``w_reference`` (defaults to ``w``), so a
    compensated warm start can be rounded against the original weights.
    """
    w = np.asarray(w, dtype=np.float64)
    ref = w if w_reference is None else np.asarray(w_reference, dtype=np.float64)
    s, z, floor_grid = _grid_parts(w, spec)
    h = rectified_sigmoid(state.b, state.zeta, state.gamma)
    g_raw = floor_grid + z + h
    inside = (g_raw > 0.0) & (g_raw < spec.grid_max)
    w_tilde = s * (np.clip(g_raw, 0, spec.grid_max) - z)
    delta = ref - w_tilde
    value = loss(ctx, delta, counter)
    dloss_dtilde = -loss_gradient(ctx, delta, counter)
    grad_b = dloss_dtilde * s * inside * _rectified_sigmoid_grad(
        state.b, state.zeta, state.gamma
    )
    if counter is not None:
        counter.add(6 * w.size)  # soft-assignment and chain-rule elementwise work
    return value, grad_b


def _hard_assignment(w: np.ndarray, spec: QuantSpec, state: RoundingState) -> QuantizedWeight:
    s, z, floor_grid = _grid_parts(w, spec)
    h = rectified_sigmoid(state.b, state.zeta, state.gamma)
    g = np.clip(floor_grid + z + (h >= 0.5), 0, spec.grid_max).astype(np.int64)
    return QuantizedWeight(w_int=g, spec=spec)


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
    qw, _ = optimize_rounding_with_state(
        w, spec, ctx, cfg, w_reference=w_reference, counter=counter, trace_csv=trace_csv
    )
    return qw


def optimize_rounding_with_state(
    w: np.ndarray,
    spec: QuantSpec,
    ctx: LossContext,
    cfg: SoftQuantConfig,
    w_reference: np.ndarray | None = None,
    counter: FlopCounter | None = None,
    trace_csv: str | Path | None = None,
) -> tuple[QuantizedWeight, RoundingState]:
    """``optimize_rounding`` plus the final logit state, for diagnostics."""
    w = np.asarray(w, dtype=np.float64)
    if cfg.iterations == 0:
        return rtn_quantize(w, spec), init_rounding_state(w, spec, cfg)

    state = init_rounding_state(w, spec, cfg)
    m = np.zeros_like(state.b)
    v = np.zeros_like(state.b)
    for it in range(cfg.iterations):
        state.iteration = it
        state.beta = cfg.beta_at(it)
        recon, grad_recon = reconstruction_and_gradient(
            w, spec, ctx, state, w_reference=w_reference, counter=counter
        )
        reg, grad_reg = rounding_regularizer(state)
        grad = grad_recon + grad_reg
        state.loss_trace.append((recon + reg, recon, reg))

        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** (it + 1))
        v_hat = v / (1.0 - ADAM_BETA2 ** (it + 1))
        state.b = state.b - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if counter is not None:
            counter.add(10 * state.b.size)  # optimizer update elementwise work

    if trace_csv is not None:
        _write_trace(state, trace_csv)
    return _hard_assignment(w, spec, state), state


def _write_trace(state: RoundingState, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "total", "reconstruction", "regularizer"])
        for i, (total, recon, reg) in enumerate(state.loss_trace):
            writer.writerow([i, repr(total), repr(recon), repr(reg)])
