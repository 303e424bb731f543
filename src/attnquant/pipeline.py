"""End-to-end quantization pipeline and evaluation reports.

Every head is quantized whole: W_V, W_Q and W_K, each under its own loss
with the others held at full precision. Statistics are accumulated once
from the full-precision forward pass, whose outputs the report's exact
errors reuse. Then grids are fitted against the row curvature, and integer
warm starts are produced by column compensation, once per distinct
curvature over the stacked rows of the projections that share it; for the
learned method one loop then optimizes the rounding logits of all
projections together, each under its own trace loss.

Method semantics:
  rtn            naive baseline: grid fitted by plain rounding error
                 (identity curvature), nearest rounding (column
                 compensation under the identity moves no weight)
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
from .model import PROJECTIONS, AttentionHead, CalibSequence, attention_forward
from .objectives import LossContext, ProjectionKind, context_for, loss, row_hessian
from .oracle import output_errors
from .quantizer import (
    VALID_BITS,
    QuantizedWeight,
    QuantSpec,
    dequantize,
    fit_step_size,
    optq_compensate,
    quantized_from_json,
    quantized_to_json,
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

# Every projection name, in the fixed V, Q, K order, with its attention kind.
_ATTENTION_KIND = {"W_V": ProjectionKind.VALUE, "W_Q": ProjectionKind.QUERY, "W_K": ProjectionKind.KEY}


@dataclass
class PipelineConfig:
    bits: int = 4
    method: str = "aespa"
    soft: SoftQuantConfig = field(default_factory=SoftQuantConfig)

    def __post_init__(self):
        if self.bits not in VALID_BITS:
            raise DataError(f"bits must be one of {VALID_BITS}, got {self.bits}")
        if self.method not in METHODS:
            raise DataError(f"method must be one of {METHODS}, got '{self.method}'")


def _loss_kind(cfg: PipelineConfig, name: str) -> ProjectionKind:
    """Kind that drives the fitted curvature and loss context; the method
    alone picks it."""
    if cfg.method in ("rtn", "optq"):
        return ProjectionKind.OTHER
    return _ATTENTION_KIND[name]


def _stage(cfg: PipelineConfig, name: str) -> str:
    """How errors name a projection's quantization: 'W_V (aespa, value stage)'."""
    return f"{name} ({cfg.method}, {_loss_kind(cfg, name).value} stage)"


def _warm_starts(
    weights: dict[str, np.ndarray], contexts: dict[str, LossContext], cfg: PipelineConfig
) -> tuple[dict[str, QuantizedWeight], dict[str, np.ndarray]]:
    """Fit each projection's grid, then return its warm-start integers and
    the column-compensated weights whose grid cells learned rounding starts
    from, each keyed like ``weights``. Under rtn the curvature is the
    identity, whose damped inverse has a diagonal factor: no column update
    moves a weight, so the integers are nearest rounding's.

    Projections whose contexts share a right factor share a curvature (Q
    and K share E[XX^T]; under rtn and optq all three do). Grid fitting and
    column compensation treat rows independently, so each curvature is
    formed, fitted, factored and compensated once, over the stacked rows of
    its group, and each projection gets the result it gets alone.
    """
    groups: dict[int, list[str]] = {}
    for name in weights:
        groups.setdefault(id(contexts[name].right), []).append(name)
    quantized: dict[str, QuantizedWeight] = {}
    compensated: dict[str, np.ndarray] = {}
    for group in groups.values():
        w = np.vstack([weights[name] for name in group])
        hessian = np.eye(w.shape[1]) if cfg.method == "rtn" else row_hessian(contexts[group[0]])
        try:
            spec = fit_step_size(w, hessian, cfg.bits)
        except AttnQuantError as exc:
            raise type(exc)(f"{', '.join(_stage(cfg, name) for name in group)}: {exc}") from exc
        qw, comp = optq_compensate(w, hessian, spec)
        splits = (np.split(a, len(group)) for a in (spec.scale, spec.zero_point, qw.w_int, comp))
        for name, scale, zero_point, w_int, rows in zip(group, *splits):
            quantized[name] = QuantizedWeight(w_int, QuantSpec(cfg.bits, scale, zero_point), qw.fallback_rtn)
            compensated[name] = rows
    return quantized, compensated


def quantize_head(
    head: AttentionHead,
    sequences: list[CalibSequence],
    cfg: PipelineConfig,
    counter: FlopCounter | None = None,
    trace_prefix: str | Path | None = None,
) -> tuple[dict, dict]:
    """Quantize W_V, W_Q and W_K of ``head`` and return (quantized
    checkpoint document, report document).

    The report's exact attention errors come from one pass over the
    calibration sequences that keeps no per-sequence output, so memory does
    not grow with their number. Quantizing a head costs 5 forwards per
    sequence: the statistics pass, the full-precision reference, one each
    for the head with only Q or only K dequantized, and one with the
    dequantized head (the head with only V dequantized shares the
    reference's attention map). Each exact error is that of the weights the
    checkpoint holds. Each distinct curvature (Q and K share one) is
    fitted, factored and compensated once, over its group's stacked rows.
    Only aespa's learned rounding writes a loss trace per projection.
    """
    if trace_prefix is not None and cfg.method != "aespa":
        raise DataError(f"trace_prefix: method {cfg.method} does no learned rounding, so it has no loss trace")
    stats = accumulate_stats(head, sequences)

    # Phase 1: a grid fit and the column-compensated warm starts, once per
    # distinct curvature over its projections' stacked rows. Each projection
    # holds the others at full precision, so the order in which they run
    # changes no result; it is fixed at V, Q, K.
    names = list(_ATTENTION_KIND)
    weights = {name: head.projection(name) for name in names}
    contexts = {name: context_for(_loss_kind(cfg, name), stats) for name in names}
    quantized, compensated = _warm_starts(weights, contexts, cfg)

    # Phase 2: one learned-rounding loop for all of them. The problems are
    # independent (each holds the others at full precision), so stacking
    # them changes no result.
    if cfg.method == "aespa":
        try:
            learned = optimize_rounding(
                [compensated[name] for name in names],
                [quantized[name].spec for name in names],
                [contexts[name] for name in names],
                cfg.soft,
                w_reference=[weights[name] for name in names],
                counter=counter,
                trace_csv=None if trace_prefix is None else [Path(f"{trace_prefix}_{name}.csv") for name in names],
            )
        except NonFiniteRounding as exc:
            raise NumericalError(f"{_stage(cfg, names[exc.slab])}: {exc}") from exc
        # a warm start that fell back to nearest rounding stays flagged
        quantized.update(
            (name, QuantizedWeight(qw.w_int, qw.spec, quantized[name].fallback_rtn))
            for name, qw in zip(names, learned)
        )

    # Phase 3: the report, in V, Q, K order, with each number checked once.
    # Each projection is dequantized once, into the array that the joint
    # head and its own variant share; both share the reference's other arrays.
    dequantized = {name: dequantize(quantized[name]) for name in names}
    joint = head
    for name in names:
        joint = joint.replace(name, dequantized[name])
    variants = [head.replace(name, dequantized[name]) for name in names]
    with np.errstate(all="ignore"):  # an overflow is reported by the checks below
        losses = [loss(contexts[name], dequantized[name] - weights[name]) for name in names]
        errors, _ = output_errors(head, [*variants, joint], sequences)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": head.d,
        "d_h": head.d_h,
        "n_bits": cfg.bits,
        "method": cfg.method,
        "order": "VQK",  # fixed; schema version 1 keeps the key
        "projections": {name: quantized_to_json(quantized[name]) for name in names},
        "full_precision": {},  # fixed; schema version 1 keeps the key
    }
    n = len(sequences)
    report_rows = {}
    for name, refined, err in zip(names, losses, errors):
        report_rows[name] = {
            "kind": contexts[name].kind.value,
            "refined_loss": _finite(refined, f"{_stage(cfg, name)}: refined_loss"),
            "exact_attention_error": _finite(err / n, f"{_stage(cfg, name)}: exact_attention_error"),
            "fallback_rtn": quantized[name].fallback_rtn,
        }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "quantize",
        "method": cfg.method,
        "bits": cfg.bits,
        "order": "VQK",
        "value_kind": "value",  # fixed; schema version 1 keeps the key
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
    """Materialize the dequantized head from a quantized checkpoint document.

    Every projection must be quantized. The ``full_precision`` block is not
    read: a projection carried only there is refused as missing.
    """
    what = "quantized checkpoint"
    d = require_int(doc, "d", what)
    d_h = require_int(doc, "d_h", what)
    projections = require_field(doc, "projections", what)
    weights = {}
    for name in PROJECTIONS:
        raw = require_field(projections, name, f"{what}: projections")
        weights[name] = dequantize(quantized_from_json(raw, f"{what}: {name}"))
        if weights[name].shape != (d_h, d):
            raise DataError(f"{what}: {name} has the wrong shape")
    return AttentionHead.from_projections(d, d_h, weights)


def evaluate_quantized(
    reference: AttentionHead, quantized: AttentionHead, sequences: list[CalibSequence]
) -> dict:
    """Compare attention outputs of the quantized and reference heads.

    A reference norm (summed squared outputs) in (0, 2^-1022), below the
    normal range, is refused. At or above it, each of the m squared entries
    summed into the error or the norm loses at most 2^-1075 to underflow,
    which moves err / ref_norm by at most m * 2^-53 * (1 + err / ref_norm).
    """
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
    if 0 < ref_norm < np.finfo(np.float64).tiny:
        raise NumericalError(f"held-out reference norm {ref_norm!r} is subnormal, so the relative error loses bits")
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
