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
from .flops import FlopCounter, trace_loss_flops
from .objectives import LossContext, weighted
# Not called here; bound because bench/spans.py PATCHES wraps these names.
from .objectives import loss, loss_gradient  # noqa: F401
from .quantizer import QuantSpec, QuantizedWeight, rtn_quantize

__all__ = [
    "SoftQuantConfig",
    "rectified_sigmoid",
    "rounding_regularizer",
    "regularizer_gradient",
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
# Iterations between two checks for a non-finite loss.
CHECK_BLOCK = 100


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


def rounding_regularizer(h: np.ndarray, lam: float, beta: float) -> np.ndarray:
    """lam * sum(1 - |2h - 1|^beta), taken per slab on a (P, d_h, d) stack;
    zero exactly when every h sits at 0 or 1. beta must be >= 1."""
    if not beta >= 1.0:
        raise DataError(f"regularizer exponent beta must be >= 1, got {beta}")
    term = np.multiply(h, 2.0)
    term -= 1.0
    np.abs(term, out=term)
    # `**=` picks the same ufunc for a scalar exponent as `term ** beta`.
    term **= beta
    np.subtract(1.0, term, out=term)
    return lam * _slab_sums(term)


def regularizer_gradient(h: np.ndarray, dh_db: np.ndarray, lam: float, beta: float, work=None) -> np.ndarray:
    """Gradient of ``rounding_regularizer`` with respect to b, zero on the
    clamped (saturated) entries. ``work`` is an optional triple of float64
    arrays shaped like ``h``; the gradient is returned in the last one."""
    if not beta >= 1.0:
        raise DataError(f"regularizer exponent beta must be >= 1, got {beta}")
    t, abs_t, grad = work if work is not None else (np.empty_like(h) for _ in range(3))
    np.multiply(h, 2.0, out=t)
    t -= 1.0
    np.abs(t, out=abs_t)
    # d/dh [1 - |2h-1|^beta] = -2 beta |2h-1|^(beta-1) sign(2h-1), 0 at 2h = 1:
    # pow(+0, beta - 1) is +0 for beta > 1 and 1 for beta = 1, and the sign
    # factor +0 below turns either into a signed zero
    np.copyto(grad, abs_t)
    grad **= beta - 1.0
    grad *= -2.0 * beta
    # abs_t is dead here; an out-of-place sign is several times faster than
    # np.sign(t, out=t) on mixed-sign data, and gives the same values
    grad *= np.sign(t, out=abs_t)
    grad *= lam
    grad *= dh_db
    return grad


class RoundingStack:
    """P rounding problems of one shape, stacked along a leading axis.

    Slab p rounds ``w[p]`` on the grid ``spec[p]`` under the trace loss of
    ``ctx[p]``, measured from ``w_reference[p]`` (default ``w[p]``), so a
    compensated warm start can be rounded against the original weights.
    The stack holds the grid constants, the loss contexts (not copied;
    slabs may share a factor) and the work buffers of one step, so a step
    allocates no (P, d_h, d) array. Every argument needs one entry per slab;
    ``optimize_rounding``, which builds the stack, checks that.
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
        ref = [x if r is None else np.asarray(r, dtype=np.float64) for x, r in zip(w, w_reference)]
        shape = w[0].shape
        for x, r, sp, c in zip(w, ref, spec, ctx):
            if x.shape != shape or r.shape != shape:
                raise DataError(f"every slab must be {shape}, got {x.shape} and {r.shape}")
            if sp.n_rows != shape[0] or c.left.shape[0] != shape[0] or c.right.shape[0] != shape[1]:
                raise DataError(f"a grid or loss context does not fit the {shape} weights")
        self.spec = list(spec)
        self.ctx = list(ctx)
        self.s = np.stack([sp.scale[:, None] for sp in spec])
        self.z = np.stack([sp.zero_point[:, None] for sp in spec]).astype(np.float64)
        self.grid_max = np.array([float(sp.grid_max) for sp in spec])[:, None, None]
        w_over_s = np.stack(w) / self.s
        self.base = np.floor(w_over_s)
        # The logits start where the soft assignment equals each weight's own
        # fractional grid position, clamped away from the sigmoid's
        # saturation; optimize_rounding updates them in place.
        frac = np.clip(w_over_s - self.base, 0.01, 0.99)
        inner = (frac - GAMMA) / (ZETA - GAMMA)
        self.logits = np.log(inner / (1.0 - inner))
        self.base += self.z  # floor(w/s) + z: where h = 0 puts each weight
        self.ref = np.stack(ref)
        self.h, self.dh_db, self.delta, self.product = (np.empty_like(self.ref) for _ in range(4))
        self.work = tuple(np.empty_like(self.ref) for _ in range(3))
        self.left_delta = np.empty(shape)
        # Flops of one iteration: one loss plus one gradient evaluation per
        # slab (the paper's cost model, which the fused step shares), then 6
        # elementwise operations per weight for the step and 10 for Adam.
        self.iter_flops = sum(sum(trace_loss_flops(*shape, c.identity_left)) for c in ctx) + 16 * self.ref.size

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
) -> tuple[np.ndarray, np.ndarray]:
    """One rounding step over the stack: the per-slab reconstruction, (P,),
    and the (P, d_h, d) gradient of it plus the regularizer with respect to
    b. The regularizer's value is ``rounding_regularizer(stack.h, lam, beta)``.

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
    for p, c in enumerate(stack.ctx):
        weighted(c, delta[p], out=product[p], work=stack.left_delta)
    reconstruction = _slab_sums(np.multiply(product, delta, out=stack.work[0]))
    grad = product
    grad *= -2.0  # the same bits as -(2.0 * G): both scalings are exact
    grad *= stack.s
    grad *= inside
    grad *= dh_db
    grad += regularizer_gradient(h, dh_db, lam, beta, work=stack.work)
    return reconstruction, grad


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
    sampling, so identical inputs give identical integer weights. The last
    bits of a trace's reconstruction column can change with the BLAS thread
    count (seen at d = 128 and 768). ``iterations == 0`` returns the plain
    nearest-rounding results.

    Raises DataError before any work when lam times the larger of the
    weights per slab and 2 * BETA_START, the largest factor of the
    regularizer's gradient, overflows. Raises NonFiniteRounding, naming the
    slab and the first iteration, when a slab's loss or final logits are
    not finite; such a run stops at the end of the first block of
    CHECK_BLOCK iterations that holds a non-finite loss.
    The regularizer's value, computed only for a trace, then lies in [0, lam
    * weights] unless some h is NaN, which makes the slab's reconstruction
    NaN in the same iteration: traced or not, the check names the same one.
    """
    # zip would silently drop the slabs past the shortest argument
    if any(arg is not None and len(arg) != len(w) for arg in (spec, ctx, w_reference, trace_csv)):
        raise DataError("spec, ctx, w_reference and trace_csv need one entry per slab of w")
    if cfg.iterations == 0 or len(w) == 0:
        return [rtn_quantize(x, sp) for x, sp in zip(w, spec)]
    # A rounded product is monotone in its multiplier: this refuses lam when either product overflows.
    factor = max(np.size(w[0]), 2 * BETA_START)
    if not np.isfinite(cfg.lam * factor):
        raise DataError(f"lam (rounding weight) {cfg.lam!r} times max(weights per slab, the regularizer "
                        f"gradient's 2 * beta) = {factor:g} overflows")
    stack = RoundingStack(w, spec, ctx, w_reference)
    b = stack.logits
    m = np.zeros_like(b)
    v = np.zeros_like(b)
    step, m_hat, v_hat = stack.work
    traced = any(path is not None for path in trace_csv or ())
    recon = np.empty((cfg.iterations, len(b)))
    reg = np.empty((cfg.iterations, len(b))) if traced else None
    # A diverging run may overflow inside the loop. numpy stays quiet: the
    # checks after each block and after the loop are the guards.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, cfg.iterations, CHECK_BLOCK):
            for it in range(start, min(start + CHECK_BLOCK, cfg.iterations)):
                recon[it], grad = rounding_objective(stack, b, cfg.lam, cfg.beta_at(it))
                if traced:
                    reg[it] = rounding_regularizer(stack.h, cfg.lam, cfg.beta_at(it))
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
            if not np.isfinite(recon[start : it + 1]).all():
                break
    ran = it + 1
    if counter is not None:  # before the check: a run that raises counts the iterations it ran
        counter.add(ran * stack.iter_flops)

    # A non-finite value propagates into every later loss, or at last into
    # the logits, which count only when every iteration ran.
    bad = ~np.isfinite(recon[:ran])
    if ran == cfg.iterations:
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
