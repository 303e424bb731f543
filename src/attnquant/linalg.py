"""Dense float64 linear algebra primitives used by every other module.

Matrices are plain C-ordered ``numpy.ndarray`` objects in 64-bit precision.
``as_matrix`` is the single entry point that enforces the carrier contract
(2-D, float64, finite); everything downstream can then assume it.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericalError, SizeBudgetError

__all__ = [
    "as_matrix",
    "frozen",
    "softmax_rows",
    "softmax_jacobian_row",
    "kron",
    "vec",
]

DEFAULT_KRON_BUDGET = 4_000_000  # elements (~32 MB of float64)


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a finite 2-D float64 array (copying if needed)."""
    a = np.array(data, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise DataError(f"{name}: expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name}: contains NaN or Inf entries")
    return a


def frozen(data) -> np.ndarray:
    """A read-only float64 array holding ``data``.

    A read-only, contiguous float64 array is returned as it is, so frozen
    statistics are shared rather than copied; anything else (a writable
    array, another dtype, a strided view, a list) is copied first, so a
    caller's later writes cannot reach the result.
    """
    if (
        isinstance(data, np.ndarray)
        and data.dtype == np.float64
        and not data.flags.writeable
        and (data.flags.c_contiguous or data.flags.f_contiguous)
    ):
        return data
    a = np.array(data, dtype=np.float64)
    a.setflags(write=False)
    return a


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum.

    Every output row sums to 1 and all entries lie in (0, 1].
    """
    m = as_matrix(m, "softmax input")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_jacobian_row(a: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Jacobian of softmax evaluated at a probability row ``a``.

    Returns diag(a) - outer(a, a), an LxL symmetric matrix whose rows sum
    to zero. ``a`` must be a valid probability vector: nonnegative entries
    summing to 1 within ``tol``.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if np.any(a < 0):
        raise DataError("softmax_jacobian_row: negative probability entry")
    total = float(a.sum())
    if abs(total - 1.0) > tol:
        raise DataError(
            f"softmax_jacobian_row: row sums to {total!r}, not 1 within {tol}"
        )
    return np.diag(a) - np.outer(a, a)


def kron(a: np.ndarray, b: np.ndarray, max_elements: int = DEFAULT_KRON_BUDGET) -> np.ndarray:
    """Explicit Kronecker product, guarded by an element budget.

    The dense product has shape (a.rows*b.rows, a.cols*b.cols); this is the
    memory blow-up the trace-form losses exist to avoid, so only oracle-scale
    inputs should ever come through here.
    """
    a = as_matrix(a, "kron left")
    b = as_matrix(b, "kron right")
    n_out = a.shape[0] * b.shape[0] * a.shape[1] * b.shape[1]
    if n_out > max_elements:
        raise SizeBudgetError(
            f"kron: result would hold {n_out} elements, budget is {max_elements}"
        )
    return np.kron(a, b)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-major vectorization, the convention under which
    vec(A B C) = (C^T kron A) vec(B)."""
    return np.asarray(m, dtype=np.float64).ravel(order="F")

