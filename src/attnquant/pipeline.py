"""End-to-end quantization pipeline and evaluation reports.

Each projection is quantized separately with the others held at full
precision: statistics are accumulated once from the full-precision forward
pass, whose outputs the report's exact errors reuse. Then per projection a
grid is fitted against the row curvature, an integer warm start is produced
by column compensation, and (for the learned method) the rounding logits
are optimized under the projection's trace loss.

Method semantics:
  rtn            naive baseline: grid fitted by plain rounding error
                 (identity curvature), nearest rounding
  optq           grid fitted against the layer curvature 2E[XX^T], then
                 column-compensated integer assignment
  aespa-noround  like optq but with the attention-aware per-projection
                 curvature (2E[X A^T A X^T] for the value projection)
  aespa          aespa-noround plus learned rounding optimization under the
                 per-projection trace losses
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AttnQuantError, DataError
from .flops import FlopCounter
from .jsonio import atomic_write_json, load_json, require_field
from .model import AttentionHead, CalibSequence, attention_forward
from .objectives import LossContext, ProjectionKind, context_for, loss, row_hessian
from .oracle import exact_error
from .quantizer import (
    dequantize,
    fit_step_size,
    optq_compensate,
    quantized_from_json,
    quantized_to_json,
    rtn_quantize,
)
from .rounding import SoftQuantConfig, optimize_rounding
from .stats import CalibStats, accumulate_stats

__all__ = [
    "METHODS",
    "VALID_BITS",
    "PipelineConfig",
    "quantize_head",
    "dequantized_head",
    "evaluate_quantized",
    "save_quantized",
    "load_quantized",
]

SCHEMA_VERSION = 1
METHODS = ("rtn", "optq", "aespa", "aespa-noround")
VALID_BITS = (2, 3, 4, 6, 8)

_LETTER_TO_NAME = {"V": "W_V", "Q": "W_Q", "K": "W_K"}
_ATTENTION_KIND = {"V": ProjectionKind.VALUE, "Q": ProjectionKind.QUERY, "K": ProjectionKind.KEY}


@dataclass
class PipelineConfig:
    bits: int = 4
    method: str = "aespa"
    order: str = "VQK"
    projections: str = "VQK"
    value_kind: str = "value"  # 'other' switches W_V to the layer curvature
    soft: SoftQuantConfig = field(default_factory=SoftQuantConfig)

    def __post_init__(self):
        if self.bits not in VALID_BITS:
            raise DataError(f"bits must be one of {VALID_BITS}, got {self.bits}")
        if self.method not in METHODS:
            raise DataError(f"method must be one of {METHODS}, got '{self.method}'")
        for name, letters in (("order", self.order), ("projections", self.projections)):
            letters = letters.upper()
            if sorted(letters) != sorted(set(letters)) or not set(letters) <= set("VQK"):
                raise DataError(f"{name} must be a subset permutation of 'VQK'")
        self.order = self.order.upper()
        self.projections = self.projections.upper()
        if self.value_kind not in ("value", "other"):
            raise DataError("value_kind must be 'value' or 'other'")


def _loss_kind(cfg: PipelineConfig, letter: str) -> ProjectionKind:
    """Kind that drives the fitted curvature and loss context."""
    if cfg.method in ("rtn", "optq"):
        return ProjectionKind.OTHER
    if letter == "V":
        return ProjectionKind.VALUE if cfg.value_kind == "value" else ProjectionKind.OTHER
    return _ATTENTION_KIND[letter]


def _quantize_projection(
    w: np.ndarray,
    ctx: LossContext,
    cfg: PipelineConfig,
    counter: FlopCounter | None,
    trace_csv: Path | None,
):
    if cfg.method == "rtn":
        spec = fit_step_size(w, np.eye(w.shape[1]), cfg.bits)
        return rtn_quantize(w, spec)
    hessian = row_hessian(ctx)
    spec = fit_step_size(w, hessian, cfg.bits)
    warm, compensated = optq_compensate(w, hessian, spec)
    if cfg.method in ("optq", "aespa-noround"):
        return warm
    return optimize_rounding(
        compensated,
        spec,
        ctx,
        cfg.soft,
        w_reference=w,
        counter=counter,
        trace_csv=trace_csv,
    )


def quantize_head(
    head: AttentionHead,
    sequences: list[CalibSequence],
    cfg: PipelineConfig,
    counter: FlopCounter | None = None,
    trace_prefix: str | Path | None = None,
    stats: CalibStats | None = None,
) -> tuple[dict, dict]:
    """Quantize the selected projections of ``head`` and return
    (quantized checkpoint document, report document).

    Each calibration sequence's full-precision output is computed once,
    inside the statistics pass (or by one forward per sequence when
    ``stats`` is given), and every exact attention error of the report
    reuses it. Quantizing V, Q and K then costs 5 forwards per sequence:
    that one, one perturbed forward per projection and one with the
    dequantized head.
    """
    # Local to this call and never cached: the outputs belong to this head
    # and these sequences.
    sa_refs: list[np.ndarray] = []
    if stats is None:
        stats = accumulate_stats(head, sequences, outputs=sa_refs)
    else:
        sa_refs = [attention_forward(head, seq).sa for seq in sequences]
    if stats.d != head.d or stats.d_h != head.d_h:
        raise DataError("statistics dimensions do not match the head")

    projections: dict[str, dict] = {}
    report_rows: dict[str, dict] = {}
    for letter in cfg.order:
        if letter not in cfg.projections:
            continue
        name = _LETTER_TO_NAME[letter]
        w = head.projection(name)
        kind = _loss_kind(cfg, letter)
        ctx = context_for(kind, stats)
        trace_csv = (
            Path(f"{trace_prefix}_{name}.csv") if trace_prefix is not None else None
        )
        try:
            qw = _quantize_projection(w, ctx, cfg, counter, trace_csv)
        except AttnQuantError as exc:
            raise type(exc)(f"{name} ({cfg.method}, {kind.value} stage): {exc}") from exc
        delta = dequantize(qw) - w
        report_rows[name] = {
            "kind": kind.value,
            "refined_loss": loss(ctx, delta),
            "exact_attention_error": exact_error(
                head, sequences, _ATTENTION_KIND[letter], delta, reference=sa_refs
            ),
            "fallback_rtn": qw.fallback_rtn,
        }
        projections[name] = quantized_to_json(qw)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": head.d,
        "d_h": head.d_h,
        "n_bits": cfg.bits,
        "method": cfg.method,
        "order": cfg.order,
        "projections": projections,
        "full_precision": {
            name: head.projection(name).tolist()
            for letter, name in _LETTER_TO_NAME.items()
            if letter not in cfg.projections
        },
    }
    calib_err, _ = _attention_error_sums(dequantized_head(doc), sequences, sa_refs)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "quantize",
        "method": cfg.method,
        "bits": cfg.bits,
        "order": cfg.order,
        "value_kind": cfg.value_kind,
        "n_calibration_sequences": len(sequences),
        "projections": report_rows,
        "calibration_attention_error": calib_err / len(sequences),
    }
    return doc, report


def dequantized_head(doc: dict) -> AttentionHead:
    """Materialize the dequantized head from a quantized checkpoint document."""
    what = "quantized checkpoint"
    d = int(require_field(doc, "d", what))
    d_h = int(require_field(doc, "d_h", what))
    projections = require_field(doc, "projections", what)
    full = doc.get("full_precision", {})
    weights = {}
    for name in ("W_Q", "W_K", "W_V"):
        if name in projections:
            weights[name] = dequantize(quantized_from_json(projections[name], f"{what}: {name}"))
        elif name in full:
            weights[name] = np.asarray(full[name], dtype=np.float64)
        else:
            raise DataError(f"{what}: projection '{name}' is neither quantized nor carried")
        if weights[name].shape != (d_h, d):
            raise DataError(f"{what}: {name} has the wrong shape")
    return AttentionHead(d=d, d_h=d_h, w_q=weights["W_Q"], w_k=weights["W_K"], w_v=weights["W_V"])


def _attention_error_sums(
    quantized: AttentionHead, sequences: list[CalibSequence], sa_refs: Iterable[np.ndarray]
) -> tuple[float, float]:
    """Summed squared attention-output error against the reference outputs
    ``sa_refs`` (one per sequence) and their summed squares."""
    err = 0.0
    ref_norm = 0.0
    for seq, sa_ref in zip(sequences, sa_refs):
        sa_q = attention_forward(quantized, seq).sa
        err += float(np.sum((sa_q - sa_ref) ** 2))
        ref_norm += float(np.sum(sa_ref**2))
    return err, ref_norm


def evaluate_quantized(
    reference: AttentionHead, quantized: AttentionHead, sequences: list[CalibSequence]
) -> dict:
    """Compare attention outputs of the quantized and reference heads."""
    if not sequences:
        raise DataError("evaluation needs at least one sequence")
    if (reference.d, reference.d_h) != (quantized.d, quantized.d_h):
        raise DataError("reference and quantized heads disagree on dimensions")
    sa_refs = (attention_forward(reference, seq).sa for seq in sequences)
    err, ref_norm = _attention_error_sums(quantized, sequences, sa_refs)
    mean_err = err / len(sequences)
    relative = float(np.sqrt(err / ref_norm)) if ref_norm > 0 else 0.0
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "eval",
        "n_sequences": len(sequences),
        "mean_attention_error": mean_err,
        "relative_output_error": relative,
    }


def save_quantized(doc: dict, path: str | Path) -> None:
    atomic_write_json(doc, path)


def load_quantized(path: str | Path) -> dict:
    doc = load_json(path, "quantized checkpoint")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(f"quantized checkpoint: unsupported schema_version {version!r}")
    return doc
