"""Shared helpers for the test suite. All randomness is seeded, and the
``hypothesis`` properties draw the same examples on every run."""

import numpy as np
from hypothesis import settings

# A property that fails on some draw then fails on every run, not now and then.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def trace_quad(w: np.ndarray, m: np.ndarray) -> float:
    """tr(W M W^T) evaluated as sum((W @ M) * W) without forming the product
    W M W^T; the two expressions are mathematically identical."""
    return float(np.sum((w @ m) * w))
