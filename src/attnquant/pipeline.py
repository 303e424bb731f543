"""End-to-end quantization pipeline and evaluation reports.

Each projection is quantized separately with the others held at full
precision: statistics are accumulated once from the full-precision forward
pass, whose outputs the report's exact errors reuse. Then grids are fitted
against the row curvature, and integer warm starts are produced by column
compensation, once per distinct curvature over the stacked rows of the
projections that share it; for the learned method one loop then optimizes
the rounding logits of all projections together, each under its own trace
loss.

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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AttnQuantError, DataError, NonFiniteRounding, NumericalError
from .flops import FlopCounter
from .jsonio import atomic_write_json, load_json, require_field, require_int
from .model import AttentionHead, CalibSequence, attention_forward, json_matrix
from .objectives import LossContext, ProjectionKind, context_for, loss, row_hessian
from .oracle import output_errors, perturbed
from .quantizer import (
    VALID_BITS,
    QuantizedWeight,
    QuantSpec,
    dequantize,
    fit_step_size,
    optq_compensate,
    quantized_from_json,
    quantized_to_json,
    rtn_quantize,
)
from .rounding import SoftQuantConfig, optimize_rounding
from .stats import accumulate_stats

# Not called here; bound because bench/spans.py PATCHES wraps this name.
from .oracle import exact_error  # noqa: F401

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

_LETTER_TO_NAME = {"V": "W_V", "Q": "W_Q", "K": "W_K"}
_ATTENTION_KIND = {"V": ProjectionKind.VALUE, "Q": ProjectionKind.QUERY, "K": ProjectionKind.KEY}


@dataclass
class PipelineConfig:
    bits: int = 4
    method: str = "aespa"
    projections: str = "VQK"
    value_kind: str = "value"  # 'other' switches W_V to the layer curvature
    soft: SoftQuantConfig = field(default_factory=SoftQuantConfig)

    def __post_init__(self):
        if self.bits not in VALID_BITS:
            raise DataError(f"bits must be one of {VALID_BITS}, got {self.bits}")
        if self.method not in METHODS:
            raise DataError(f"method must be one of {METHODS}, got '{self.method}'")
        letters = self.projections.upper()
        if sorted(letters) != sorted(set(letters)) or not set(letters) <= set("VQK"):
            raise DataError("projections must be a subset permutation of 'VQK'")
        self.projections = letters
        if self.value_kind not in ("value", "other"):
            raise DataError("value_kind must be 'value' or 'other'")


def _loss_kind(cfg: PipelineConfig, letter: str) -> ProjectionKind:
    """Kind that drives the fitted curvature and loss context."""
    if cfg.method in ("rtn", "optq"):
        return ProjectionKind.OTHER
    if letter == "V":
        return ProjectionKind.VALUE if cfg.value_kind == "value" else ProjectionKind.OTHER
    return _ATTENTION_KIND[letter]


def _stage(cfg: PipelineConfig, letter: str) -> str:
    """How errors name a projection's quantization: 'W_V (aespa, value stage)'."""
    return f"{_LETTER_TO_NAME[letter]} ({cfg.method}, {_loss_kind(cfg, letter).value} stage)"


def _warm_starts(
    letters: list[str],
    weights: dict[str, np.ndarray],
    contexts: dict[str, LossContext],
    cfg: PipelineConfig,
) -> tuple[dict[str, QuantizedWeight], dict[str, np.ndarray]]:
    """Fit each projection's grid, then return its warm-start integers and
    the column-compensated weights whose grid cells learned rounding starts
    from (under rtn, the weights themselves).

    Projections whose contexts share a right factor share a curvature (Q
    and K share E[XX^T]; under rtn and optq all three do). Grid fitting and
    column compensation treat rows independently, so each curvature is
    formed, fitted, factored and compensated once, over the stacked rows of
    its group, and each projection gets the result it gets alone.
    """
    groups: dict[int, list[str]] = {}
    for letter in letters:
        groups.setdefault(id(contexts[letter].right), []).append(letter)
    quantized: dict[str, QuantizedWeight] = {}
    compensated: dict[str, np.ndarray] = {}
    for group in groups.values():
        w = np.vstack([weights[letter] for letter in group])
        if cfg.method == "rtn":
            hessian = np.eye(w.shape[1])
        else:
            hessian = row_hessian(contexts[group[0]])
        try:
            spec = fit_step_size(w, hessian, cfg.bits)
        except AttnQuantError as exc:
            raise type(exc)(f"{', '.join(_stage(cfg, letter) for letter in group)}: {exc}") from exc
        if cfg.method == "rtn":
            qw, comp = rtn_quantize(w, spec), w
        else:
            qw, comp = optq_compensate(w, hessian, spec)
        splits = (np.split(a, len(group)) for a in (spec.scale, spec.zero_point, qw.w_int, comp))
        for letter, scale, zero_point, w_int, rows in zip(group, *splits):
            quantized[letter] = QuantizedWeight(w_int, QuantSpec(cfg.bits, scale, zero_point), qw.fallback_rtn)
            compensated[letter] = rows
    return quantized, compensated


def quantize_head(
    head: AttentionHead,
    sequences: list[CalibSequence],
    cfg: PipelineConfig,
    counter: FlopCounter | None = None,
    trace_prefix: str | Path | None = None,
) -> tuple[dict, dict]:
    """Quantize the selected projections of ``head`` and return
    (quantized checkpoint document, report document).

    The report's exact attention errors come from one pass over the
    calibration sequences that keeps no per-sequence output, so memory does
    not grow with their number. Quantizing V, Q and K costs 5 forwards per
    sequence: the statistics pass, the full-precision reference, one each
    for the perturbed Q and K, and one with the dequantized head (the
    perturbed V shares the reference's attention map). Quantizing V alone
    costs 2: the dequantized head then shares that map too. Each distinct
    curvature (Q and K share one) is fitted, factored and compensated once,
    over its group's stacked rows.
    """
    stats = accumulate_stats(head, sequences)

    # Phase 1: a grid fit and the column-compensated warm starts, once per
    # distinct curvature over its projections' stacked rows. Each projection
    # holds the others at full precision, so the order in which they run
    # changes no result; it is fixed at V, Q, K.
    letters = [letter for letter in "VQK" if letter in cfg.projections]
    weights = {letter: head.projection(_LETTER_TO_NAME[letter]) for letter in letters}
    contexts = {letter: context_for(_loss_kind(cfg, letter), stats) for letter in letters}
    quantized, compensated = _warm_starts(letters, weights, contexts, cfg)

    # Phase 2: one learned-rounding loop for all of them. The problems are
    # independent (each holds the others at full precision), so stacking
    # them changes no result.
    if cfg.method == "aespa":
        try:
            learned = optimize_rounding(
                [compensated[letter] for letter in letters],
                [quantized[letter].spec for letter in letters],
                [contexts[letter] for letter in letters],
                cfg.soft,
                w_reference=[weights[letter] for letter in letters],
                counter=counter,
                trace_csv=[
                    Path(f"{trace_prefix}_{_LETTER_TO_NAME[letter]}.csv")
                    if trace_prefix is not None
                    else None
                    for letter in letters
                ],
            )
        except NonFiniteRounding as exc:
            raise NumericalError(f"{_stage(cfg, letters[exc.slab])}: {exc}") from exc
        # a warm start that fell back to nearest rounding stays flagged
        quantized.update(
            (letter, QuantizedWeight(qw.w_int, qw.spec, quantized[letter].fallback_rtn))
            for letter, qw in zip(letters, learned)
        )

    # Phase 3: the report, in V, Q, K order, with each number checked once.
    names = [_LETTER_TO_NAME[letter] for letter in letters]
    joint = head  # the dequantized head; it shares the reference's full-precision arrays
    for letter, name in zip(letters, names):
        joint = joint.replace(name, dequantize(quantized[letter]))
    deltas = [joint.projection(name) - weights[letter] for letter, name in zip(letters, names)]
    variants = [perturbed(head, name, delta) for name, delta in zip(names, deltas)]
    with np.errstate(all="ignore"):  # an overflow is reported by the checks below
        losses = [loss(contexts[letter], delta) for letter, delta in zip(letters, deltas)]
        errors, _ = output_errors(head, [*variants, joint], sequences)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": head.d,
        "d_h": head.d_h,
        "n_bits": cfg.bits,
        "method": cfg.method,
        "order": "VQK",  # fixed; schema version 1 keeps the key
        "projections": {
            name: quantized_to_json(quantized[letter]) for letter, name in zip(letters, names)
        },
        "full_precision": {
            name: head.projection(name).tolist()
            for letter, name in _LETTER_TO_NAME.items()
            if letter not in cfg.projections
        },
    }
    n = len(sequences)
    report_rows = {}
    for letter, name, refined, err in zip(letters, names, losses, errors):
        report_rows[name] = {
            "kind": contexts[letter].kind.value,
            "refined_loss": _finite(refined, f"{_stage(cfg, letter)}: refined_loss"),
            "exact_attention_error": _finite(
                err / n, f"{_stage(cfg, letter)}: exact_attention_error"
            ),
            "fallback_rtn": quantized[letter].fallback_rtn,
        }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "quantize",
        "method": cfg.method,
        "bits": cfg.bits,
        "order": "VQK",
        "value_kind": cfg.value_kind,
        "n_calibration_sequences": n,
        "projections": report_rows,
        "calibration_attention_error": _finite(errors[-1] / n, "calibration_attention_error"),
    }
    return doc, report


def _finite(value: float, field: str) -> float:
    """``value``, a report number, which must be finite."""
    if not np.isfinite(value):
        raise NumericalError(f"{field} is {value!r}, not a finite number")
    return value


def dequantized_head(doc: dict) -> AttentionHead:
    """Materialize the dequantized head from a quantized checkpoint document."""
    what = "quantized checkpoint"
    d = require_int(doc, "d", what)
    d_h = require_int(doc, "d_h", what)
    projections = require_field(doc, "projections", what)
    full = doc.get("full_precision", {})
    weights = {}
    for name in ("W_Q", "W_K", "W_V"):
        if name in projections:
            weights[name] = dequantize(quantized_from_json(projections[name], f"{what}: {name}"))
            if weights[name].shape != (d_h, d):
                raise DataError(f"{what}: {name} has the wrong shape")
        elif name in full:
            weights[name] = json_matrix(full[name], f"{what}: full_precision: {name}", (d_h, d))
        else:
            raise DataError(f"{what}: projection '{name}' is neither quantized nor carried")
    return AttentionHead(d=d, d_h=d_h, w_q=weights["W_Q"], w_k=weights["W_K"], w_v=weights["W_V"])


def evaluate_quantized(
    reference: AttentionHead, quantized: AttentionHead, sequences: list[CalibSequence]
) -> dict:
    """Compare attention outputs of the quantized and reference heads."""
    if not sequences:
        raise DataError("evaluation needs at least one sequence")
    if (reference.d, reference.d_h) != (quantized.d, quantized.d_h):
        raise DataError("reference and quantized heads disagree on dimensions")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        (err,), ref_norm = output_errors(reference, [quantized], sequences)
    if not (np.isfinite(err) and np.isfinite(ref_norm)):
        raise NumericalError(f"held-out attention error {err!r} or reference norm {ref_norm!r} is not finite")
    # A zero norm reads as a perfect 0 below; it must come from zero outputs,
    # not from nonzero outputs whose squares underflow.
    if ref_norm == 0 and any(attention_forward(reference, seq).sa.any() for seq in sequences):
        raise NumericalError("held-out reference outputs are nonzero, but their squared norm underflows to 0")
    relative = float(np.sqrt(err / ref_norm)) if ref_norm > 0 else 0.0
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "eval",
        "n_sequences": len(sequences),
        "mean_attention_error": err / len(sequences),
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
