"""Command-line entry point.

Subcommands mirror the pipeline stages: ``gen`` writes a synthetic model and
calibration data, ``quantize`` runs the quantization pipeline, ``eval``
compares attention outputs on held-out data, ``flops`` prints the analytic
cost model, and ``check`` runs the ten acceptance criteria of
``attnquant.checks``, the ones the acceptance suite runs.

Exit codes: 0 success, 2 usage error, 3 bad input data, 4 numerical failure.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from pathlib import Path

import click

from .checks import run_all_checks
from .errors import DataError, NumericalError
from .flops import (
    OPT_PRESETS, TABLE_B, TABLE_L, CostParams, cost_table, existing_itemization, flops_existing, flops_refined,
    gflops_str,
)
from .jsonio import atomic_write_json
from .model import generate_synthetic, load_calibration, load_checkpoint, save_calibration, save_checkpoint
from .pipeline import (
    METHODS,
    PipelineConfig,
    VALID_BITS,
    dequantized_head,
    evaluate_quantized,
    load_quantized,
    quantize_head,
    save_quantized,
)
from .rounding import SoftQuantConfig

EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _surface_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)

    return wrapper


@click.group()
def main():
    """Attention-aware post-training weight quantization toolkit."""


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--d", "d", type=int, default=16, show_default=True, help="Hidden size.")
@click.option("--dh", "d_h", type=int, default=4, show_default=True, help="Head dimension.")
@click.option("--length", "-l", type=int, default=8, show_default=True, help="Tokens per sequence.")
@click.option("--n-sequences", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--model-out", type=click.Path(dir_okay=False), required=True)
@click.option("--calib-out", type=click.Path(dir_okay=False), required=True)
@click.option("--n-eval", type=click.IntRange(min=0), default=0, show_default=True, help="Extra held-out sequences.")
@click.option("--eval-out", type=click.Path(dir_okay=False), default=None)
@_surface_errors
def gen(seed, d, d_h, length, n_sequences, model_out, calib_out, n_eval, eval_out):
    """Generate a deterministic synthetic head plus calibration sequences."""
    if (n_eval > 0) != (eval_out is not None):
        raise DataError("--n-eval (above 0) and --eval-out must be given together")
    head, seqs = generate_synthetic(seed, d, d_h, length, n_sequences + n_eval)
    save_checkpoint(head, model_out)
    save_calibration(seqs[:n_sequences], calib_out)
    if n_eval > 0:
        save_calibration(seqs[n_sequences:], eval_out)
    click.echo(f"wrote {model_out} and {calib_out}" + (f" and {eval_out}" if n_eval else ""))


@main.command()
@click.option("--model", type=click.Path(dir_okay=False), required=True)
@click.option("--calib", type=click.Path(dir_okay=False), required=True)
@click.option("--output", type=click.Path(dir_okay=False), required=True)
@click.option("--report-out", type=click.Path(dir_okay=False), default=None)
@click.option("--bits", type=click.Choice(VALID_BITS), default=PipelineConfig.bits, show_default=True)
@click.option("--method", type=click.Choice(METHODS), default=PipelineConfig.method, show_default=True)
@click.option("--iterations", type=int, default=SoftQuantConfig.iterations, show_default=True)
@click.option("--trace-prefix", type=str, default=None, help="Write per-projection loss traces as CSV (aespa only).")
@_surface_errors
def quantize(model, calib, output, report_out, bits, method, iterations, trace_prefix):
    """Quantize a checkpoint against a calibration set."""
    cfg = PipelineConfig(bits=bits, method=method, soft=SoftQuantConfig(iterations=iterations))
    head = load_checkpoint(model)
    seqs = load_calibration(calib)
    doc, report = quantize_head(head, seqs, cfg, trace_prefix=trace_prefix)
    save_quantized(doc, output)
    if report_out is not None:
        atomic_write_json(report, report_out)
    click.echo(json.dumps(report, indent=1))


@main.command("eval")
@click.option("--model", type=click.Path(dir_okay=False), required=True)
@click.option("--quantized", type=click.Path(dir_okay=False), required=True)
@click.option("--data", type=click.Path(dir_okay=False), required=True)
@click.option("--report-out", type=click.Path(dir_okay=False), default=None)
@_surface_errors
def eval_cmd(model, quantized, data, report_out):
    """Compare quantized vs full-precision attention outputs."""
    reference = load_checkpoint(model)
    q_head = dequantized_head(load_quantized(quantized))
    seqs = load_calibration(data)
    report = evaluate_quantized(reference, q_head, seqs)
    if report_out is not None:
        atomic_write_json(report, report_out)
    click.echo(json.dumps(report, indent=1))


@main.command()
@click.option("--d", "d", type=int, default=None, help="Hidden size.")
@click.option("--dh", "d_h", type=int, default=None, help="Head dimension.")
@click.option("--L", "length", type=int, default=TABLE_L, show_default=True, help="Sequence length.")
@click.option("--B", "batch", type=int, default=TABLE_B, show_default=True, help="Sequences per iteration.")
@click.option("--preset", "presets", multiple=True, type=click.Choice(list(OPT_PRESETS)))
@click.option("--csv", "csv_out", type=click.Path(dir_okay=False), default=None)
@_surface_errors
def flops(d, d_h, length, batch, presets, csv_out):
    """Print per-iteration flop costs: trace-form losses vs full recompute."""
    if d is not None or d_h is not None:
        if d is None or d_h is None:
            raise DataError("--d and --dh must be given together")
        if presets or csv_out is not None:
            raise DataError("--preset and --csv apply to the preset table, not to --d and --dh")
        p = CostParams(d=d, d_h=d_h, L=length, B=batch)
        click.echo(f"refined per-iteration flops:  {flops_refined(p)} ({gflops_str(flops_refined(p))} GFLOPS)")
        click.echo(f"existing per-iteration flops: {flops_existing(p)} ({gflops_str(flops_existing(p))} GFLOPS)")
        for item, count in existing_itemization(p).items():
            click.echo(f"  per-sequence {item}: {count}")
        return
    rows = cost_table(list(presets) or None, L=length, B=batch)
    header = f"{'preset':>8} {'d':>6} {'d_h':>4} {'existing':>10} {'refined':>8}"
    click.echo(header)
    for row in rows:
        click.echo(
            f"{row['preset']:>8} {row['d']:>6} {row['d_h']:>4} "
            f"{row['existing_gflops']:>10} {row['refined_gflops']:>8}"
        )
    if csv_out is not None:
        path = Path(csv_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        click.echo(f"wrote {csv_out}")


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_surface_errors
def check(seed):
    """Run the ten acceptance criteria and print one line per criterion, in
    criterion order; seed 0 draws the suite's instances."""
    click.echo(f"oracle suite (seed {seed}; logits scaled by 1/sqrt(d_h), matching the forward pass)")
    results = run_all_checks(seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        click.echo(f"[{status}] {r.name:<{width}}  {r.detail}")
    if failures:
        click.echo(f"{failures} check(s) failed", err=True)
        sys.exit(EXIT_NUMERICAL)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
