"""Learned weight rounding under the trace-form losses.

Instead of rounding each weight to its nearest grid point, a continuous
logit matrix B is optimized so that the soft assignment

    W~ = s * (clamp(floor(W/s) + z + h(B), 0, 2^n - 1) - z)

minimizes reconstruction loss plus a rounding regularizer that pushes every
h(B) to 0 or 1, where h is the stretched rectified sigmoid. Because the
reconstruction term is a quadratic form over pre-computed statistics, one
optimization step costs the same no matter how many calibration sequences
were used.

The value, query and key problems share the statistics but not their
unknowns, so one loop optimizes them together as a (P, d_h, d) stack: the
elementwise work runs once over the stack, and each slab pays one
left @ DW @ right product per step, which gives both its loss and its
gradient.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NonFiniteRounding
from .flops import FlopCounter
from .objectives import LossContext, gradient_flops, loss_flops
# Not called here; bound because bench/spans.py PATCHES wraps these names.
from .objectives import loss, loss_gradient  # noqa: F401
from .quantizer import QuantSpec, QuantizedWeight, rtn_quantize

__all__ = [
    "SoftQuantConfig",
    "rectified_sigmoid",
    "rounding_regularizer",
    "RoundingStack",
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


def _slab_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last two axes: per slab of a (P, d_h, d) stack, each
    slab reduced the way np.sum reduces it on its own."""
    return np.add.reduce(x.reshape(x.shape[:-2] + (-1,)), axis=-1)


def rectified_sigmoid(b, out=None) -> tuple[np.ndarray, np.ndarray]:
    """h(B) = clamp(sigmoid(B)(ZETA - GAMMA) + GAMMA, 0, 1), in [0, 1], and
    its derivative dh/dB (zero where the clamp is active).

    ``out`` is an optional (h, dh_db, scratch) triple of float64 arrays
    shaped like ``b`` that receives the results.
    """
    b = np.asarray(b, dtype=np.float64)
    h, dh_db, raw = out if out is not None else (np.empty_like(b) for _ in range(3))
    sig = h  # h holds sigmoid(b) until the clamp overwrites it
    np.negative(b, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    np.multiply(sig, ZETA - GAMMA, out=raw)
    raw += GAMMA
    # dh/db = [0 < raw < 1] * (ZETA - GAMMA) * sig * (1 - sig), in that order
    np.multiply((raw > 0.0) & (raw < 1.0), ZETA - GAMMA, out=dh_db)
    dh_db *= sig
    np.subtract(1.0, sig, out=sig)
    dh_db *= sig
    np.minimum(np.maximum(raw, 0.0, out=h), 1.0, out=h)  # clip(raw, 0, 1)
    return h, dh_db


def rounding_regularizer(
    h: np.ndarray, dh_db: np.ndarray, lam: float, beta: float, work=None
) -> tuple[np.ndarray, np.ndarray]:
    """lam * sum(1 - |2h - 1|^beta) and its gradient with respect to b; on
    a (P, d_h, d) stack the sum is taken per slab.

    Zero exactly when every h sits at 0 or 1; the gradient vanishes on the
    clamped (saturated) entries. ``work`` is an optional triple of float64
    arrays shaped like ``h``; the gradient is returned in the last one.
    """
    if beta <= 0:
        raise DataError("regularizer exponent beta must be positive")
    t, abs_t, grad = work if work is not None else (np.empty_like(h) for _ in range(3))
    np.multiply(h, 2.0, out=t)
    t -= 1.0
    np.abs(t, out=abs_t)
    # `**=` picks the same ufunc for a scalar exponent as `abs_t ** beta`.
    np.copyto(grad, abs_t)
    grad **= beta
    np.subtract(1.0, grad, out=grad)
    value = lam * _slab_sums(grad)
    # d/dh [1 - |2h-1|^beta] = -2 beta |2h-1|^(beta-1) sign(2h-1), 0 at 2h = 1
    np.copyto(grad, abs_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad **= beta - 1.0
    np.copyto(grad, 0.0, where=~(abs_t > 0))
    grad *= -2.0 * beta
    grad *= np.sign(t, out=t)
    grad *= lam
    grad *= dh_db
    return value, grad


class RoundingStack:
    """P rounding problems of one shape, stacked along a leading axis.

    Slab p rounds ``w[p]`` on the grid ``spec[p]`` under the trace loss of
    ``ctx[p]``, measured from ``w_reference[p]`` (default ``w[p]``), so a
    compensated warm start can be rounded against the original weights.
    The stack holds the grid constants, the weighting pairs (not copied;
    slabs may share a factor) and the work buffers of one step, so a step
    allocates no (P, d_h, d) array.
    """

    def __init__(
        self,
        w: Sequence[np.ndarray],
        spec: Sequence[QuantSpec],
        ctx: Sequence[LossContext],
        w_reference: Sequence[np.ndarray | None] | None = None,
    ):
        w = [np.asarray(x, dtype=np.float64) for x in w]
        if w_reference is None:
            w_reference = [None] * len(w)
        if len(w) == 0 or not len(w) == len(spec) == len(ctx) == len(w_reference):
            raise DataError("w, spec, ctx and w_reference need one entry per slab")
        ref = [x if r is None else np.asarray(r, dtype=np.float64) for x, r in zip(w, w_reference)]
        shape = w[0].shape
        for x, r, sp, c in zip(w, ref, spec, ctx):
            if x.shape != shape or r.shape != shape:
                raise DataError(f"every slab must be {shape}, got {x.shape} and {r.shape}")
            if sp.n_rows != shape[0] or c.left.shape[0] != shape[0] or c.right.shape[0] != shape[1]:
                raise DataError(f"a grid or loss context does not fit the {shape} weights")
        self.spec = list(spec)
        # (left, right) per slab, left None for identity
        self.factors = [(None if c.identity_left else c.left, c.right) for c in ctx]
        self.s = np.stack([sp.scale[:, None] for sp in spec])
        self.z = np.stack([sp.zero_point[:, None] for sp in spec]).astype(np.float64)
        self.grid_max = np.array([float(sp.grid_max) for sp in spec])[:, None, None]
        w_over_s = np.stack(w) / self.s
        self.base = np.floor(w_over_s)
        # The logits start where the soft assignment equals each weight's own
        # fractional grid position, clamped away from the sigmoid's
        # saturation; optimize_rounding updates them in place.
        frac = np.clip(w_over_s - self.base, 0.01, 0.99)
        inner = np.clip((frac - GAMMA) / (ZETA - GAMMA), 1e-4, 1 - 1e-4)
        self.logits = np.log(inner / (1.0 - inner))
        self.base += self.z  # floor(w/s) + z: where h = 0 puts each weight
        self.ref = np.stack(ref)
        self.h, self.dh_db, self.delta, self.product = (np.empty_like(self.ref) for _ in range(4))
        self.work = tuple(np.empty_like(self.ref) for _ in range(3))
        self.left_delta = np.empty(shape)
        # The count models one loss plus one gradient evaluation per slab
        # (the paper's cost model), which the fused step shares.
        self.step_flops = sum(loss_flops(c) + gradient_flops(c) for c in ctx) + 6 * self.ref.size

    def hard_assignment(self, b: np.ndarray) -> list[QuantizedWeight]:
        """The integer weights of logits ``b`` (h thresholded at 0.5)."""
        h, _ = rectified_sigmoid(b)
        g = np.clip(self.base + (h >= 0.5), 0, self.grid_max)
        return [QuantizedWeight(w_int=g[p].astype(np.int64), spec=sp) for p, sp in enumerate(self.spec)]


def rounding_objective(
    stack: RoundingStack,
    b: np.ndarray,
    lam: float,
    beta: float,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One rounding step over the stack: per-slab reconstruction and
    regularizer, each (P,), and the (P, d_h, d) gradient with respect to b.

    The gradient lives in the stack's buffers and the next step overwrites
    it. Every in-place operation repeats the IEEE operations, in the same
    order, of the per-projection expressions
    delta = ref - s * (clip(floor(w/s) + z + h, 0, grid_max) - z),
    loss = sum(G * delta) and its gradient -2G * s * [0 < g < grid_max] * dh/db
    for G = left @ delta @ right, plus the regularizer's gradient.
    """
    h, dh_db = rectified_sigmoid(b, out=(stack.h, stack.dh_db, stack.work[0]))
    g = np.add(stack.base, h, out=stack.work[0])
    inside = (g > 0.0) & (g < stack.grid_max)
    np.minimum(np.maximum(g, 0.0, out=g), stack.grid_max, out=g)  # clip(g, 0, grid_max)
    g -= stack.z
    g *= stack.s
    delta = np.subtract(stack.ref, g, out=stack.delta)
    product = stack.product
    for p, (left, right) in enumerate(stack.factors):
        if left is None:
            np.matmul(delta[p], right, out=product[p])
        else:
            np.matmul(np.matmul(left, delta[p], out=stack.left_delta), right, out=product[p])
    reconstruction = _slab_sums(np.multiply(product, delta, out=stack.work[0]))
    grad = product
    grad *= -2.0  # the same bits as -(2.0 * G): both scalings are exact
    grad *= stack.s
    grad *= inside
    grad *= dh_db
    if counter is not None:
        counter.add(stack.step_flops)
    regularizer, grad_reg = rounding_regularizer(h, dh_db, lam, beta, work=stack.work)
    grad += grad_reg
    return reconstruction, regularizer, grad


def _write_trace(path: str | Path, reconstruction: list[float], regularizer: list[float]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "total", "reconstruction", "regularizer"])
        writer.writerows(
            (i, repr(recon + reg), repr(recon), repr(reg))
            for i, (recon, reg) in enumerate(zip(reconstruction, regularizer))
        )


def optimize_rounding(
    w: Sequence[np.ndarray],
    spec: Sequence[QuantSpec],
    ctx: Sequence[LossContext],
    cfg: SoftQuantConfig,
    w_reference: Sequence[np.ndarray | None] | None = None,
    counter: FlopCounter | None = None,
    trace_csv: Sequence[str | Path | None] | None = None,
) -> list[QuantizedWeight]:
    """Optimize the rounding logits of every slab with one adaptive-moment
    gradient descent loop and return the hard assignments (h thresholded at
    0.5), in the order of ``w``.

    The slabs are independent problems: each gets the integers, and its
    ``trace_csv`` entry the per-iteration (total, reconstruction,
    regularizer) rows, that it would get on its own. Fully deterministic:
    the objective is evaluated over pre-computed statistics with no
    sampling, so identical inputs give identical integer weights.
    ``iterations == 0`` returns the plain nearest-rounding results.

    Raises NonFiniteRounding, naming the slab and the first iteration, when
    a slab's loss or final logits are not finite.
    """
    if len(w) != len(spec) or (trace_csv is not None and len(trace_csv) != len(w)):
        raise DataError("w, spec and trace_csv need one entry per slab")
    if cfg.iterations == 0 or len(w) == 0:
        return [rtn_quantize(x, sp) for x, sp in zip(w, spec)]
    stack = RoundingStack(w, spec, ctx, w_reference)
    b = stack.logits
    m = np.zeros_like(b)
    v = np.zeros_like(b)
    step, m_hat, v_hat = stack.work
    recon = np.empty((cfg.iterations, len(b)))
    reg = np.empty((cfg.iterations, len(b)))
    # A diverging run may overflow inside the loop. numpy stays quiet: the
    # check after the loop is the one guard against non-finite results.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(cfg.iterations):
            recon[it], reg[it], grad = rounding_objective(stack, b, cfg.lam, cfg.beta_at(it), counter)
            # m = B1 m + (1 - B1) g;  v = B2 v + (1 - B2) g g
            m *= ADAM_BETA1
            m += np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
            v *= ADAM_BETA2
            np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
            step *= grad
            v += step
            # b -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, 1.0 - ADAM_BETA1 ** (it + 1), out=m_hat)
            np.divide(v, 1.0 - ADAM_BETA2 ** (it + 1), out=v_hat)
            np.sqrt(v_hat, out=v_hat)
            v_hat += ADAM_EPS
            m_hat *= cfg.learning_rate
            m_hat /= v_hat
            b -= m_hat
            if counter is not None:
                counter.add(10 * b.size)  # optimizer update elementwise work

    # One check after the loop: a non-finite value propagates into every
    # later loss, or at last into the logits.
    bad = ~(np.isfinite(recon) & np.isfinite(reg))
    bad[-1] |= ~np.isfinite(b).reshape(len(b), -1).all(axis=1)
    if bad.any():
        it, p = np.argwhere(bad)[0]
        raise NonFiniteRounding(
            f"learned rounding went non-finite at iteration {it}", slab=int(p)
        )
    for p, path in enumerate(trace_csv or ()):
        if path is not None:
            _write_trace(path, recon[:, p].tolist(), reg[:, p].tolist())
    return stack.hard_assignment(b)
