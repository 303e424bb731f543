"""One-pass pre-computation of the four calibration expectations.

After this pass, every loss evaluation in the toolkit touches only these
fixed-size matrices, so its cost no longer depends on how many calibration
sequences were used:

  exx  = E[X X^T]          (d x d)    input second moment
  exax = E[X A^T A X^T]    (d x d)    attention-weighted second moment
  ektk = E[K^T K]          (d_h x d_h) key Gram
  eqtq = E[Q^T Q]          (d_h x d_h) query Gram

E[.] is the arithmetic mean over sequences. Any positive normalization
yields the same argmin for every quantization decision; the mean fixes the
reported loss magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .linalg import as_matrix
from .model import AttentionHead, CalibSequence, attention_forward

__all__ = ["CalibStats", "accumulate_stats"]

SYM_TOL = 1e-9
PSD_TOL = 1e-8


def _check_stat(m, name: str) -> np.ndarray:
    m = as_matrix(m, f"statistic {name}")
    if m.shape[0] != m.shape[1]:
        raise DataError(f"statistic {name} is not square")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYM_TOL * scale:
        raise NumericalError(f"statistic {name} is not symmetric")
    eigmin = float(np.linalg.eigvalsh(m).min())
    if eigmin < -PSD_TOL * scale:
        raise NumericalError(f"statistic {name} has eigenvalue {eigmin:.3e} < 0")
    return m


@dataclass
class CalibStats:
    """The four pre-computed expectation matrices for one head, stored by
    ``as_matrix``, so frozen sums are shared, not copied."""

    exx: np.ndarray
    exax: np.ndarray
    ektk: np.ndarray
    eqtq: np.ndarray

    def __post_init__(self):
        self.exx = _check_stat(self.exx, "exx")
        self.exax = _check_stat(self.exax, "exax")
        self.ektk = _check_stat(self.ektk, "ektk")
        self.eqtq = _check_stat(self.eqtq, "eqtq")
        if self.exx.shape != self.exax.shape:
            raise DataError("exx and exax disagree on the hidden size")
        if self.ektk.shape != self.eqtq.shape:
            raise DataError("ektk and eqtq disagree on the head dimension")

    @property
    def d(self) -> int:
        return self.exx.shape[0]

    @property
    def d_h(self) -> int:
        return self.ektk.shape[0]


def accumulate_stats(
    head: AttentionHead,
    sequences: list[CalibSequence],
    outputs: list[np.ndarray] | None = None,
) -> CalibStats:
    """Mean of the per-sequence matrices XX^T, XA^TAX^T, K^TK, Q^TQ, where A
    comes from the full-precision forward pass. When ``outputs`` is a list,
    each sequence's reference output SA is appended to it, so callers need
    no second reference forward.

    Each term goes into its running sum as soon as it is made, and the sums
    start from zeros and are divided by the count in place at the end, so
    memory stays O(d^2) whatever the number of sequences. Starting from
    zeros, not from the first term, keeps the bits of numpy's mean over a
    stack of the terms: for matrices larger than 1x1 that reduction adds the
    sequences one after another, starting from the additive identity (so
    all-(-0.0) terms give +0.0). A stack of 1x1 terms (d_h = 1) numpy sums
    pairwise, which can differ in the last bits.
    """
    if not sequences:
        raise DataError("cannot accumulate statistics from an empty sequence list")
    d, d_h = head.d, head.d_h
    exx, exax = np.zeros((d, d)), np.zeros((d, d))
    ektk, eqtq = np.zeros((d_h, d_h)), np.zeros((d_h, d_h))
    for seq in sequences:
        # trace and xa are rebound only after the next forward returns, so
        # the last sequence's arrays outlive it; freed earlier, glibc would
        # trim the heap top and fault it back in for every sequence.
        trace = attention_forward(head, seq)
        xa = seq.x @ trace.a.T
        exx += seq.x @ seq.x.T
        exax += xa @ xa.T
        ektk += trace.k.T @ trace.k
        eqtq += trace.q.T @ trace.q
        if outputs is not None:
            outputs.append(trace.sa)
    for acc in (exx, exax, ektk, eqtq):
        acc /= len(sequences)
        acc.setflags(write=False)  # so CalibStats takes the sums without a copy
    return CalibStats(exx=exx, exax=exax, ektk=ektk, eqtq=eqtq)
