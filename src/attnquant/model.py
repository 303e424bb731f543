"""Desk-scale single-head attention model: forward pass, synthetic data,
checkpoint and calibration-file I/O.

Weight convention: each projection W is d_h x d and maps a token column
x (length d) to a head vector W @ x (length d_h). Token matrices Q, K, V
are L x d_h with one token per row, so Q^T = W_Q @ X for X holding one
token per column.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .jsonio import atomic_write_json, json_numbers, load_json, require_field, require_int
from .linalg import as_matrix

__all__ = [
    "PROJECTIONS",
    "AttentionHead",
    "CalibSequence",
    "AttentionTrace",
    "attention_forward",
    "map_buffer",
    "generate_synthetic",
    "save_checkpoint",
    "load_checkpoint",
    "save_calibration",
    "load_calibration",
    "json_matrix",
]

# Each projection's name in files and reports, and its AttentionHead field,
# in checkpoint order.
PROJECTIONS = {"W_Q": "w_q", "W_K": "w_k", "W_V": "w_v"}


@dataclass
class AttentionHead:
    """One attention head's full-precision projections."""

    d: int
    d_h: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        if self.d_h > self.d:
            raise DataError(f"head dimension d_h={self.d_h} exceeds hidden size d={self.d}")
        for name in PROJECTIONS.values():
            m = as_matrix(getattr(self, name), name)
            if m.shape != (self.d_h, self.d):
                raise DataError(
                    f"{name}: expected shape {self.d_h}x{self.d}, got {m.shape[0]}x{m.shape[1]}"
                )
            setattr(self, name, m)

    @classmethod
    def from_projections(cls, d: int, d_h: int, weights: dict[str, np.ndarray]) -> "AttentionHead":
        """The head whose projection ``name`` is ``weights[name]``, for every name in PROJECTIONS."""
        return cls(d, d_h, **{field: weights[name] for name, field in PROJECTIONS.items()})

    def projection(self, name: str) -> np.ndarray:
        return getattr(self, _field(name))

    def replace(self, name: str, w: np.ndarray) -> "AttentionHead":
        """This head with projection ``name`` set to ``w``; the other two are shared, not copied."""
        return dataclasses.replace(self, **{_field(name): w})


def _field(name: str) -> str:
    """The AttentionHead field of projection ``name``."""
    if name not in PROJECTIONS:
        raise DataError(f"unknown projection '{name}'")
    return PROJECTIONS[name]


@dataclass
class CalibSequence:
    """One calibration sequence, stored as X with one token per column (d x L)."""

    x: np.ndarray

    def __post_init__(self):
        self.x = as_matrix(self.x, "calibration sequence")
        if self.length < 1:
            raise DataError("calibration sequence must contain at least one token")

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def length(self) -> int:
        return self.x.shape[1]


@dataclass
class AttentionTrace:
    """Intermediate products of one forward pass (token-row convention)."""

    q: np.ndarray  # L x d_h
    k: np.ndarray  # L x d_h
    v: np.ndarray  # L x d_h
    a: np.ndarray  # L x L, row-stochastic
    sa: np.ndarray  # L x d_h


def attention_forward(
    head: AttentionHead, seq: CalibSequence, out: np.ndarray | None = None
) -> AttentionTrace:
    """Full-precision forward pass producing Q, K, V, the attention map A
    and the head output SA = A @ V.

    Logits are scaled by 1/sqrt(d_h), the per-head key dimension. The map
    is built in place, in ``out`` when it is given (an L x L float64
    C-ordered array, see ``map_buffer``), so a loop over sequences can reuse
    one buffer; the returned ``a`` is then ``out``, and the next forward
    into it overwrites it. Softmax rows are stabilized by subtracting each
    row's maximum.
    """
    if seq.d != head.d:
        raise DataError(f"sequence has {seq.d} feature rows but head expects d={head.d}")
    # The logit check refuses an overflow in q, k or the logits; a shift
    # that overflows gives -Inf, whose exp is the correct 0.
    with np.errstate(over="ignore", invalid="ignore"):
        q = (head.w_q @ seq.x).T
        k = (head.w_k @ seq.x).T
        a = np.matmul(q, k.T, out=out)
        a /= math.sqrt(head.d_h)
        peak = a.max(axis=1, keepdims=True)
        # max and min propagate NaN, so both finite means every logit is; a
        # -Inf logit in a row with a finite max shows only in the min
        if not (np.isfinite(peak).all() and np.isfinite(a.min(axis=1)).all()):
            raise NumericalError("softmax input: contains NaN or Inf entries")
        a -= peak
    v = (head.w_v @ seq.x).T
    np.exp(a, out=a)
    a /= a.sum(axis=1, keepdims=True)
    return AttentionTrace(q=q, k=k, v=v, a=a, sa=a @ v)


def map_buffer(seq: CalibSequence, buf: np.ndarray | None = None) -> np.ndarray:
    """An L x L buffer for ``seq``'s attention map: ``buf`` when it has that
    shape, else a new one, so a loop reallocates only when L changes."""
    length = seq.length
    if buf is None or buf.shape != (length, length):
        buf = np.empty((length, length))
    return buf


def generate_synthetic(
    seed: int, d: int, d_h: int, length: int, n_sequences: int
) -> tuple[AttentionHead, list[CalibSequence]]:
    """Deterministic synthetic head and calibration set.

    Weights are i.i.d. Gaussian scaled by 1/sqrt(d) so projected tokens are
    O(1); sequences are i.i.d. standard Gaussian. The same seed always
    produces bit-identical output.
    """
    if min(d, d_h, length, n_sequences) < 1:
        raise DataError("all synthetic dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(d)
    head = AttentionHead(
        d=d,
        d_h=d_h,
        w_q=rng.standard_normal((d_h, d)) * scale,
        w_k=rng.standard_normal((d_h, d)) * scale,
        w_v=rng.standard_normal((d_h, d)) * scale,
    )
    seqs = [CalibSequence(rng.standard_normal((d, length))) for _ in range(n_sequences)]
    return head, seqs


def json_matrix(raw, name: str, shape: tuple[int, int]) -> np.ndarray:
    """The matrix ``raw``, read from a JSON file, stored by ``as_matrix``;
    it must hold JSON numbers only and have ``shape``."""
    m = as_matrix(json_numbers(raw, name), name)
    if m.shape != shape:
        raise DataError(
            f"{name} has shape {m.shape[0]}x{m.shape[1]}, expected {shape[0]}x{shape[1]}"
        )
    return m


def save_checkpoint(head: AttentionHead, path: str | Path) -> None:
    atomic_write_json(
        {"d": head.d, "d_h": head.d_h, **{name: head.projection(name).tolist() for name in PROJECTIONS}},
        path,
    )


def load_checkpoint(path: str | Path) -> AttentionHead:
    what = "checkpoint"
    obj = load_json(path, what)
    d = require_int(obj, "d", what)
    d_h = require_int(obj, "d_h", what)
    weights = {
        name: json_matrix(require_field(obj, name, what), f"{what}: field '{name}'", (d_h, d))
        for name in PROJECTIONS
    }
    return AttentionHead.from_projections(d, d_h, weights)


def save_calibration(seqs: list[CalibSequence], path: str | Path) -> None:
    if not seqs:
        raise DataError("refusing to write an empty calibration file")
    d, length = seqs[0].d, seqs[0].length
    atomic_write_json(
        {"d": d, "L": length, "sequences": [s.x.tolist() for s in seqs]},
        path,
    )


def load_calibration(path: str | Path) -> list[CalibSequence]:
    what = "calibration file"
    obj = load_json(path, what)
    d = require_int(obj, "d", what)
    length = require_int(obj, "L", what)
    raw = require_field(obj, "sequences", what)
    if not isinstance(raw, list) or not raw:
        raise DataError(f"{what}: field 'sequences' must be a non-empty list")
    seqs = []
    for i, entry in enumerate(raw):
        name = f"{what}: sequences[{i}]"
        x = json_matrix(entry, name, (d, length))
        try:
            seqs.append(CalibSequence(x))
        except DataError as exc:
            raise DataError(f"{name}: {exc}") from exc
    return seqs
