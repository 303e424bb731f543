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

Each expectation is a mean of Gram products Y Y^T, so it is symmetric
positive semidefinite by construction, up to rounding; nothing re-checks
that at run time.
The property ``test_all_statistics_symmetric_psd`` in tests/test_stats.py
certifies it: every sum comes out exactly symmetric, and its lowest
eigenvalue is within a stated rounding bound of 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .model import AttentionHead, CalibSequence, attention_forward, map_buffer

__all__ = ["CalibStats", "accumulate_stats"]


@dataclass
class CalibStats:
    """The four pre-computed expectation matrices for one head, as
    ``accumulate_stats`` makes them: read-only, finite, symmetric PSD
    (by construction; see the module docstring), exx and exax d x d, ektk
    and eqtq d_h x d_h."""

    exx: np.ndarray
    exax: np.ndarray
    ektk: np.ndarray
    eqtq: np.ndarray

    @property
    def d(self) -> int:
        return self.exx.shape[0]

    @property
    def d_h(self) -> int:
        return self.ektk.shape[0]


def accumulate_stats(head: AttentionHead, sequences: list[CalibSequence]) -> CalibStats:
    """Mean of the per-sequence matrices XX^T, XA^TAX^T, K^TK, Q^TQ, where A
    comes from the full-precision forward pass.

    Each term goes into its running sum as soon as it is made, and the
    attention map, XA^T and the d x d term are built in buffers reused from
    one sequence to the next, so memory stays O(L^2 + d^2) whatever the
    number of sequences. The sums start from zeros and are divided by the
    count in place at the end. Starting from zeros, not from the first term,
    keeps the bits of numpy's mean over a stack of the terms: for matrices
    larger than 1x1 that reduction adds the sequences one after another,
    starting from the additive identity (so all-(-0.0) terms give +0.0). A
    stack of 1x1 terms (d_h = 1) numpy sums pairwise, which can differ in
    the last bits.
    """
    if not sequences:
        raise DataError("cannot accumulate statistics from an empty sequence list")
    d, d_h = head.d, head.d_h
    exx, exax = np.zeros((d, d)), np.zeros((d, d))
    ektk, eqtq = np.zeros((d_h, d_h)), np.zeros((d_h, d_h))
    term = np.empty((d, d))
    a = xa = None
    for seq in sequences:
        a = map_buffer(seq, a)
        if xa is None or xa.shape != seq.x.shape:
            xa = np.empty_like(seq.x)
        trace = attention_forward(head, seq, out=a)
        np.matmul(seq.x, trace.a.T, out=xa)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
            exx += np.matmul(seq.x, seq.x.T, out=term)
            exax += np.matmul(xa, xa.T, out=term)
            ektk += trace.k.T @ trace.k
            eqtq += trace.q.T @ trace.q
    del trace, a, xa, term  # the loop's buffers, freed before the checks allocate
    for name, acc in (("exx", exx), ("exax", exax), ("ektk", ektk), ("eqtq", eqtq)):
        if not np.isfinite(acc).all():
            raise NumericalError(f"statistic {name}: contains NaN or Inf entries")
        acc /= len(sequences)
        acc.setflags(write=False)  # so LossContext shares the sums without a copy
    return CalibStats(exx=exx, exax=exax, ektk=ektk, eqtq=eqtq)
