"""Shared helpers for the test suite. All randomness is seeded, and the
``hypothesis`` properties draw the same examples on every run."""

import numpy as np
from hypothesis import settings

from attnquant.checks import random_psd, rel_gap  # noqa: F401  (re-exported for the tests)
from attnquant.rounding import RoundingStack, rectified_sigmoid, rounding_objective, rounding_regularizer

# A property that fails on some draw then fails on every run, not now and then.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def trace_quad(w: np.ndarray, m: np.ndarray) -> float:
    """tr(W M W^T) evaluated as sum((W @ M) * W) without forming the product
    W M W^T; the two expressions are mathematically identical."""
    return float(np.sum((w @ m) * w))


def one_slab_objective(b, w, spec, ctx, lam, beta, w_reference=None):
    """rounding_objective on a stack of one slab, unstacked, with the
    regularizer's value read from the step's h as optimize_rounding reads it."""
    stack = RoundingStack([w], [spec], [ctx], None if w_reference is None else [w_reference])
    recon, grad = rounding_objective(stack, np.asarray(b, dtype=np.float64)[None], lam, beta)
    return recon[0], rounding_regularizer(stack.h, lam, beta)[0], grad[0]


def objective_gradient_gap(rng, w, spec, ctx, lam=1.5, beta=2.0, w_reference=None, trials=20) -> float:
    """Worst relative gap between rounding_objective's gradient with respect
    to the logits b and a central finite difference of reconstruction plus
    regularizer, over ``trials`` entries of a b drawn from ``rng``. Entries
    whose h is clamped at 0 or 1 are skipped: the objective has a kink there."""
    b = rng.uniform(-2.0, 2.0, size=w.shape)

    def total(b):
        recon, reg, grad = one_slab_objective(b, w, spec, ctx, lam, beta, w_reference)
        return recon + reg, grad

    _, grad = total(b)
    eps = 1e-6
    worst = 0.0
    checked = 0
    while checked < trials:
        i = int(rng.integers(0, w.shape[0]))
        j = int(rng.integers(0, w.shape[1]))
        h = rectified_sigmoid(b[i, j])[0]
        if h <= 1e-3 or h >= 1 - 1e-3:
            continue
        bp, bm = b.copy(), b.copy()
        bp[i, j] += eps
        bm[i, j] -= eps
        fd = (total(bp)[0] - total(bm)[0]) / (2 * eps)
        worst = max(worst, abs(fd - grad[i, j]) / max(abs(fd), 1e-12))
        checked += 1
    return worst
