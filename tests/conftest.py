"""Shared helpers for the test suite. All randomness is seeded."""

import numpy as np

from attnquant.checks import random_psd, rel_gap  # noqa: F401  (re-exported for the tests)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def trace_quad(w: np.ndarray, m: np.ndarray) -> float:
    """tr(W M W^T) evaluated as sum((W @ M) * W) without forming the product
    W M W^T; the two expressions are mathematically identical."""
    return float(np.sum((w @ m) * w))
