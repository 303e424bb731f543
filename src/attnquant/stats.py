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
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .jsonio import atomic_write_json, load_json, require_field
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
    m.setflags(write=False)
    return m


@dataclass
class CalibStats:
    """The four pre-computed expectation matrices for one head."""

    exx: np.ndarray
    exax: np.ndarray
    ektk: np.ndarray
    eqtq: np.ndarray
    n_sequences: int

    def __post_init__(self):
        if self.n_sequences < 1:
            raise DataError("statistics must be built from at least one sequence")
        self.exx = _check_stat(np.array(self.exx, dtype=np.float64), "exx")
        self.exax = _check_stat(np.array(self.exax, dtype=np.float64), "exax")
        self.ektk = _check_stat(np.array(self.ektk, dtype=np.float64), "ektk")
        self.eqtq = _check_stat(np.array(self.eqtq, dtype=np.float64), "eqtq")
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


def accumulate_stats(head: AttentionHead, sequences: list[CalibSequence]) -> CalibStats:
    """Mean of the per-sequence matrices XX^T, XA^TAX^T, K^TK, Q^TQ, where A
    comes from the full-precision forward pass.

    Each per-sequence term is stacked and reduced with numpy's mean over the
    sequence axis. That reduction adds the sequences one after another (it
    is not pairwise), so it equals a running sum divided by the count.
    """
    if not sequences:
        raise DataError("cannot accumulate statistics from an empty sequence list")
    xx, xax, ktk, qtq = [], [], [], []
    for seq in sequences:
        trace = attention_forward(head, seq)
        xa = seq.x @ trace.a.T
        xx.append(seq.x @ seq.x.T)
        xax.append(xa @ xa.T)
        ktk.append(trace.k.T @ trace.k)
        qtq.append(trace.q.T @ trace.q)
    return CalibStats(
        exx=np.mean(xx, axis=0),
        exax=np.mean(xax, axis=0),
        ektk=np.mean(ktk, axis=0),
        eqtq=np.mean(qtq, axis=0),
        n_sequences=len(sequences),
    )


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
