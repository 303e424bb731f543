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

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .jsonio import atomic_write_json, load_json, require_field
from .linalg import frozen
from .model import AttentionHead, CalibSequence, attention_forward

__all__ = ["CalibStats", "accumulate_stats", "save_stats", "load_stats"]

SYM_TOL = 1e-9
PSD_TOL = 1e-8


def _check_stat(m: np.ndarray, name: str) -> np.ndarray:
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYM_TOL * scale:
        raise NumericalError(f"statistic {name} is not symmetric")
    eigmin = float(np.linalg.eigvalsh(m).min())
    if eigmin < -PSD_TOL * scale:
        raise NumericalError(f"statistic {name} has eigenvalue {eigmin:.3e} < 0")
    return m


@dataclass
class CalibStats:
    """The four pre-computed expectation matrices for one head, held
    read-only: a read-only contiguous float64 input is used as it is,
    anything else is copied."""

    exx: np.ndarray
    exax: np.ndarray
    ektk: np.ndarray
    eqtq: np.ndarray
    n_sequences: int

    def __post_init__(self):
        if self.n_sequences < 1:
            raise DataError("statistics must be built from at least one sequence")
        self.exx = _check_stat(frozen(self.exx), "exx")
        self.exax = _check_stat(frozen(self.exax), "exax")
        self.ektk = _check_stat(frozen(self.ektk), "ektk")
        self.eqtq = _check_stat(frozen(self.eqtq), "eqtq")
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


def _sequence_terms(
    head: AttentionHead, seq: CalibSequence
) -> tuple[Iterator[np.ndarray], np.ndarray]:
    """One sequence's XX^T, XA^TAX^T, K^TK, Q^TQ and its output SA, all from
    one full-precision forward pass. The terms are made one at a time, as
    the caller consumes them.

    The generator holds the forward's arrays until the caller drops it,
    after the next sequence's forward. Freed any earlier, they leave a free
    heap top that malloc returns to the system and faults back in for every
    sequence: about 500 page faults per sequence, and a third of the pass's
    time, at d=128, L=256 on glibc.
    """
    trace = attention_forward(head, seq)

    def terms():
        xa = seq.x @ trace.a.T
        yield seq.x @ seq.x.T
        yield xa @ xa.T
        yield trace.k.T @ trace.k
        yield trace.q.T @ trace.q

    return terms(), trace.sa


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
    sums = (np.zeros((d, d)), np.zeros((d, d)), np.zeros((d_h, d_h)), np.zeros((d_h, d_h)))
    for seq in sequences:
        terms, sa = _sequence_terms(head, seq)
        terms = iter(terms)
        for acc in sums:
            acc += next(terms)  # each term is freed before the next is made
        if outputs is not None:
            outputs.append(sa)
    n = len(sequences)
    for acc in sums:
        acc /= n
        acc.setflags(write=False)  # so CalibStats takes the sums without a copy
    exx, exax, ektk, eqtq = sums
    return CalibStats(exx=exx, exax=exax, ektk=ektk, eqtq=eqtq, n_sequences=n)


def save_stats(stats: CalibStats, path: str | Path) -> None:
    atomic_write_json(
        {
            "n_sequences": stats.n_sequences,
            "exx": stats.exx.tolist(),
            "exax": stats.exax.tolist(),
            "ektk": stats.ektk.tolist(),
            "eqtq": stats.eqtq.tolist(),
        },
        path,
    )


def load_stats(path: str | Path) -> CalibStats:
    what = "statistics cache"
    obj = load_json(path, what)
    return CalibStats(
        exx=require_field(obj, "exx", what),
        exax=require_field(obj, "exax", what),
        ektk=require_field(obj, "ektk", what),
        eqtq=require_field(obj, "eqtq", what),
        n_sequences=int(require_field(obj, "n_sequences", what)),
    )
