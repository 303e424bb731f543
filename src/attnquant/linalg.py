"""Dense float64 linear algebra primitives used by every other module.

Matrices are plain C-ordered ``numpy.ndarray`` objects in 64-bit precision.
``as_matrix`` is the single entry point that enforces the carrier contract
(2-D, float64, finite, read-only); everything downstream can then assume it.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericalError, SizeBudgetError

__all__ = [
    "as_matrix",
    "softmax_jacobian_row",
    "kron",
    "vec",
]

KRON_BUDGET = 4_000_000  # elements (~32 MB of float64)
PROB_SUM_TOL = 1e-9  # how far a probability row may sum from 1


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """A read-only, finite, 2-D, C-ordered float64 array holding ``data``.

    The one way a matrix is stored. An array that is already all of that is
    returned as it is, so frozen matrices are shared, not copied; anything
    else (a writable array, another dtype or order, a list) is copied once
    and the copy frozen, so a caller's later writes cannot reach the result.
    """
    a = data
    if not (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and not a.flags.writeable
        and a.flags.c_contiguous
    ):
        try:
            a = np.array(data, dtype=np.float64, order="C")
        except (ValueError, TypeError) as exc:
            raise DataError(f"{name} is not a numeric matrix: {exc}") from exc
        a.setflags(write=False)
    if a.ndim != 2:
        raise DataError(f"{name}: expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name}: contains NaN or Inf entries")
    return a


def softmax_jacobian_row(a: np.ndarray) -> np.ndarray:
    """Jacobian of softmax evaluated at a probability row ``a``.

    Returns diag(a) - outer(a, a), an LxL symmetric matrix whose rows sum
    to zero. ``a`` must be a valid probability vector: nonnegative entries
    summing to 1 within PROB_SUM_TOL.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if np.any(a < 0):
        raise DataError("softmax_jacobian_row: negative probability entry")
    total = float(a.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DataError(
            f"softmax_jacobian_row: row sums to {total!r}, not 1 within {PROB_SUM_TOL}"
        )
    return np.diag(a) - np.outer(a, a)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Explicit Kronecker product, guarded by an element budget.

    The dense product has shape (a.rows*b.rows, a.cols*b.cols); this is the
    memory blow-up the trace-form losses exist to avoid, so only oracle-scale
    inputs should ever come through here.
    """
    a = as_matrix(a, "kron left")
    b = as_matrix(b, "kron right")
    n_out = a.shape[0] * b.shape[0] * a.shape[1] * b.shape[1]
    if n_out > KRON_BUDGET:
        raise SizeBudgetError(
            f"kron: result would hold {n_out} elements, budget is {KRON_BUDGET}"
        )
    return np.kron(a, b)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-major vectorization, the convention under which
    vec(A B C) = (C^T kron A) vec(B)."""
    return np.asarray(m, dtype=np.float64).ravel(order="F")

