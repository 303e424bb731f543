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
gradient. Consecutive slabs that share their right factor (Q and K share
E[XX^T]) form a group whose products run as one batched (3-D) matmul per
factor; a 3-D matmul runs the kernel of the 2-D product on each slab, so
every slab gets the bits it gets alone. Scalar operands are 0-d float64
arrays, which numpy dispatches faster than Python floats, with the same
bits.

The loop stops early once learned rounding is provably done: when every
entry of the stack is clamped (h exactly 0 or 1, so dh/db is 0). A clamped
entry's gradient is multiplied by its own zero dh/db, so it is 0 whatever
the other entries do; Adam's first moment then only decays, keeping its
sign, and the entry entered the clamp moving in the direction of that
sign, so it moves deeper in or stays (each floating-point step is
monotone). Once every entry is clamped, h never changes again: each later
reconstruction repeats the last one bit for bit, each later regularizer is
exactly 0 (|2h - 1|^beta = 1), and the hard assignment is final.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import DataError, NonFiniteRounding
from .flops import FlopCounter, trace_loss_flops
from .objectives import LossContext
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


def _scalar(x: float) -> np.ndarray:
    """``x`` as a read-only 0-d float64 array, the operand form that numpy
    dispatches fastest; it gives the bits a Python float gives."""
    a = np.array(x, dtype=np.float64)
    a.setflags(write=False)
    return a


_ZERO, _ONE, _TWO, _MINUS_TWO = map(_scalar, (0.0, 1.0, 2.0, -2.0))
_STRETCH, _GAMMA = _scalar(ZETA - GAMMA), _scalar(GAMMA)
_BETA1, _BETA2, _EPS = _scalar(ADAM_BETA1), _scalar(ADAM_BETA2), _scalar(ADAM_EPS)
_ONE_MINUS_BETA1, _ONE_MINUS_BETA2 = _scalar(1.0 - ADAM_BETA1), _scalar(1.0 - ADAM_BETA2)


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
    np.negative(b, sig)
    np.exp(sig, sig)
    np.add(sig, _ONE, sig)
    np.divide(_ONE, sig, sig)
    # dh/db = (ZETA - GAMMA) * sig * (1 - sig) * [0 < raw < 1], in that
    # order; the 0/1 factor is exact wherever it is applied
    np.multiply(sig, _STRETCH, dh_db)
    np.add(dh_db, _GAMMA, raw)
    np.subtract(_ONE, sig, sig)
    np.multiply(dh_db, sig, dh_db)
    np.multiply(dh_db, (raw > _ZERO) & (raw < _ONE), dh_db)
    np.minimum(np.maximum(raw, _ZERO, out=h), _ONE, out=h)  # clip(raw, 0, 1)
    return h, dh_db


def _check_beta(beta: float) -> None:
    if not beta >= 1.0:
        raise DataError(f"regularizer exponent beta must be >= 1, got {beta}")


def rounding_regularizer(h: np.ndarray, lam: float, beta: float) -> np.ndarray:
    """lam * sum(1 - |2h - 1|^beta), taken per slab on a (P, d_h, d) stack;
    zero exactly when every h sits at 0 or 1. beta must be >= 1."""
    _check_beta(beta)
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
    _check_beta(beta)
    work = work if work is not None else tuple(np.empty_like(h) for _ in range(3))
    return _regularizer_gradient(h, dh_db, lam, beta - 1.0, -2.0 * beta, work)


def _regularizer_gradient(h, dh_db, lam, exponent, factor, work) -> np.ndarray:
    """``regularizer_gradient`` with beta given as ``exponent`` = beta - 1
    and ``factor`` = -2 beta, into ``work[2]``."""
    t, abs_t, grad = work
    np.multiply(h, _TWO, t)
    np.subtract(t, _ONE, t)
    np.abs(t, abs_t)
    # d/dh [1 - |2h-1|^beta] = -2 beta |2h-1|^(beta-1) sign(2h-1), 0 at 2h = 1:
    # pow(+0, beta - 1) is +0 for beta > 1 and 1 for beta = 1, and the sign
    # factor +0 below turns either into a signed zero
    np.power(abs_t, exponent, grad)
    np.multiply(grad, factor, grad)
    # abs_t is dead here; an out-of-place sign is several times faster than
    # np.sign(t, out=t) on mixed-sign data, and gives the same values
    np.multiply(grad, np.sign(t, abs_t), grad)
    np.multiply(grad, lam, grad)
    np.multiply(grad, dh_db, grad)
    return grad


class RoundingStack:
    """P rounding problems of one shape, stacked along a leading axis.

    Slab p rounds ``w[p]`` on the grid ``spec[p]`` under the trace loss of
    ``ctx[p]``, measured from ``w_reference[p]`` (from ``w[p]`` when
    ``w_reference`` is None), so a compensated warm start can be rounded
    against the original weights.
    The stack holds the grid constants, the loss contexts (not copied;
    slabs may share a factor) and the work buffers of one step, so a step
    allocates no (P, d_h, d) array. Every argument needs one entry per slab;
    ``optimize_rounding``, which builds the stack, checks that.

    ``groups`` splits the slabs into runs of consecutive slabs whose
    contexts share one right factor (the same array) and agree on whether
    their left factor is the identity. Each group is one (lefts, right,
    delta, left_delta, product) tuple of the stacked left factors (None for
    identity ones), the shared right factor and views of the step's
    buffers, so that its products run as one batched matmul per factor.
    """

    def __init__(
        self,
        w: Sequence[np.ndarray],
        spec: Sequence[QuantSpec],
        ctx: Sequence[LossContext],
        w_reference: Sequence[np.ndarray] | None = None,
    ):
        w = [np.asarray(x, dtype=np.float64) for x in w]
        ref = w if w_reference is None else [np.asarray(r, dtype=np.float64) for r in w_reference]
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
        self.groups = []
        start = 0
        for _, run in groupby(self.ctx, key=lambda c: (id(c.right), c.identity_left)):
            run = list(run)
            views = slice(start, start + len(run))
            lefts = None if run[0].identity_left else np.stack([c.left for c in run])
            # work[1] is free while a step forms its products
            self.groups.append((lefts, run[0].right, self.delta[views], self.work[1][views], self.product[views]))
            start += len(run)
        # Flops of one iteration: one loss plus one gradient evaluation per
        # slab (the paper's cost model, which the fused step shares), then 6
        # elementwise operations per weight for the step and 10 for Adam.
        self.iter_flops = sum(sum(trace_loss_flops(*shape, c.identity_left)) for c in ctx) + 16 * self.ref.size

    def hard_assignment(self, b: np.ndarray) -> list[QuantizedWeight]:
        """The integer weights of logits ``b`` (h thresholded at 0.5)."""
        with np.errstate(over="ignore"):  # exp(-b) = inf below b = -709 gives h = 0, the limit
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
    _check_beta(beta)
    return _objective(stack, b, lam, beta - 1.0, -2.0 * beta)


def _objective(stack: RoundingStack, b, lam, exponent, factor) -> tuple[np.ndarray, np.ndarray]:
    """``rounding_objective`` with beta given as the regularizer gradient's
    ``exponent`` = beta - 1 and ``factor`` = -2 beta."""
    h, dh_db = rectified_sigmoid(b, out=(stack.h, stack.dh_db, stack.work[0]))
    g = np.add(stack.base, h, stack.work[0])
    inside = (g > _ZERO) & (g < stack.grid_max)
    np.minimum(np.maximum(g, _ZERO, out=g), stack.grid_max, out=g)  # clip(g, 0, grid_max)
    np.subtract(g, stack.z, g)
    np.multiply(g, stack.s, g)
    delta = np.subtract(stack.ref, g, stack.delta)
    for lefts, right, group_delta, left_delta, product in stack.groups:
        if lefts is not None:
            group_delta = np.matmul(lefts, group_delta, left_delta)
        np.matmul(group_delta, right, product)
    grad = stack.product
    reconstruction = _slab_sums(np.multiply(grad, delta, stack.work[0]))
    np.multiply(grad, _MINUS_TWO, grad)  # the same bits as -(2.0 * G): both scalings are exact
    np.multiply(grad, stack.s, grad)
    np.multiply(grad, inside, grad)
    np.multiply(grad, dh_db, grad)
    return reconstruction, np.add(grad, _regularizer_gradient(h, dh_db, lam, exponent, factor, stack.work), grad)


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
    w_reference: Sequence[np.ndarray] | None = None,
    counter: FlopCounter | None = None,
    trace_csv: Sequence[str | Path] | None = None,
) -> list[QuantizedWeight]:
    """Optimize the rounding logits of every slab with one adaptive-moment
    gradient descent loop and return the hard assignments (h thresholded at
    0.5), in the order of ``w``.

    The slabs are independent problems: each gets the integers, and its
    ``trace_csv`` entry the per-iteration (total, reconstruction,
    regularizer) rows, that it would get on its own. ``w_reference`` and
    ``trace_csv`` are each None or hold one entry per slab. Fully
    deterministic: the objective is evaluated over pre-computed statistics
    with no sampling, so identical inputs give identical integer weights.
    The last bits of a trace's reconstruction column can change with the
    BLAS thread count (seen at d = 128 and 768). ``iterations == 0`` returns
    the plain nearest-rounding results.

    The loop stops after the first iteration at which every entry of every
    slab is clamped (dh/db is 0 throughout; see the module docstring for
    why no later iteration could change an h). The trace rows of the
    iterations it skips repeat that iteration's row, as running them would.
    ``counter`` counts the iterations that ran, each at the fixed
    per-iteration count, so a slab rounded alone can count fewer than in a
    stack: the stack runs until its last slab is clamped.

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
    traced = trace_csv is not None
    n = cfg.iterations
    recon = np.empty((n, len(b)))
    reg = np.empty((n, len(b))) if traced else None
    # Each iteration's scalars, computed once per run, are read as 0-d views
    # (a[it, ...]), the operand form that numpy dispatches fastest.
    betas = np.fromiter((cfg.beta_at(it) for it in range(n)), np.float64, n)
    exponents, factors = betas - 1.0, -2.0 * betas
    correction1 = np.fromiter((1.0 - ADAM_BETA1 ** (it + 1) for it in range(n)), np.float64, n)
    correction2 = np.fromiter((1.0 - ADAM_BETA2 ** (it + 1) for it in range(n)), np.float64, n)
    lam, lr = _scalar(cfg.lam), _scalar(cfg.learning_rate)
    done = False  # every entry clamped: no later iteration changes any h
    # An entry seen unclamped (dh/db nonzero): while it stays so, one read
    # rules the exit out. Once it clamps, argmax finds the entry farthest
    # from its clamp (largest dh/db) or a NaN; a zero there means that every
    # entry is clamped.
    flat_dh_db, witness = stack.dh_db.reshape(-1), 0
    # A diverging run may overflow inside the loop. numpy stays quiet: the
    # checks after each block and after the loop are the guards.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n, CHECK_BLOCK):
            for it in range(start, min(start + CHECK_BLOCK, n)):
                recon[it], grad = _objective(stack, b, lam, exponents[it, ...], factors[it, ...])
                if traced:
                    reg[it] = rounding_regularizer(stack.h, cfg.lam, cfg.beta_at(it))
                if not flat_dh_db[witness]:
                    witness = np.argmax(flat_dh_db)
                    if not flat_dh_db[witness]:
                        done = True
                        break
                # m = B1 m + (1 - B1) g;  v = B2 v + (1 - B2) g g
                np.multiply(m, _BETA1, m)
                np.add(m, np.multiply(grad, _ONE_MINUS_BETA1, step), m)
                np.multiply(v, _BETA2, v)
                np.multiply(grad, _ONE_MINUS_BETA2, step)
                np.multiply(step, grad, step)
                np.add(v, step, v)
                # b -= lr * m_hat / (sqrt(v_hat) + eps)
                np.divide(m, correction1[it, ...], m_hat)
                np.divide(v, correction2[it, ...], v_hat)
                np.sqrt(v_hat, v_hat)
                np.add(v_hat, _EPS, v_hat)
                np.multiply(m_hat, lr, m_hat)
                np.divide(m_hat, v_hat, m_hat)
                np.subtract(b, m_hat, b)
            if done or not np.isfinite(recon[start : it + 1]).all():
                break
    ran = it + 1
    if counter is not None:  # before the check: a run that raises counts the iterations it ran
        counter.add(ran * stack.iter_flops)
    if done and traced:  # the rows that the skipped iterations would repeat
        recon[ran:] = recon[it]
        reg[ran:] = reg[it]

    # A non-finite value propagates into every later loss, or at last into
    # the logits, which count only when the loop ran to its end or exited.
    bad = ~np.isfinite(recon[:ran])
    if done or ran == n:
        bad[-1] |= ~np.isfinite(b).reshape(len(b), -1).all(axis=1)
    if bad.any():
        it, p = np.argwhere(bad)[0]
        raise NonFiniteRounding(
            f"learned rounding went non-finite at iteration {it}", slab=int(p)
        )
    if traced:
        for p, path in enumerate(trace_csv):
            _write_trace(path, recon[:, p].tolist(), reg[:, p].tolist())
    return stack.hard_assignment(b)
