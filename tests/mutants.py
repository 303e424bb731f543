"""One-line mutants of the guards and constants of the quantize path, each
run against the tier-1 suite.

    python tests/mutants.py            # every mutant, about 15 minutes on 2 cores
    python tests/mutants.py stats      # only mutants whose file or note holds "stats"

For each mutant the script copies ``src/``, ``tests/`` (less
``test_mutants.py``), ``bench/spans.py`` and ``pyproject.toml`` into a
temporary directory, replaces the mutant's old text (which must occur
exactly once) with its new text, and runs tier-1 there with ``-x``. It prints one markdown row per mutant: killed, with the
first failing test, or survived. A survivor marked equivalent states why no
test can kill it. The exit status is 1 when any other mutant survives.

A run of every mutant also writes ``MUTATION.json`` at the repository root:
one record per mutant (file, mutant, what it guards, verdict, first failing
test, equivalence reason) and the counts of each verdict, so that two runs
can be compared with a plain diff.

The file has no ``test_`` prefix, so tier-1 does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MUTATION_PATH = ROOT / "MUTATION.json"


class Mutant(NamedTuple):
    file: str  # relative to src/attnquant
    old: str
    new: str
    note: str
    equivalent: str = ""  # why no test can kill it, if none can


MUTANTS = (
    Mutant("stats.py", "if not np.isfinite(acc).all():", "if False:",
           "accumulate_stats: finite check of the four sums"),
    Mutant("stats.py", "    if not sequences:\n", "    if False:\n",
           "accumulate_stats: empty sequence list"),
    Mutant("objectives.py", "if self.identity_left and not np.array_equal", "if False and not np.array_equal",
           "LossContext: identity left factor for the value and layer kinds"),
    Mutant("objectives.py", "if any(m.shape[0] != m.shape[1] for m in (self.left, self.right)):", "if False:",
           "LossContext: square factors"),
    Mutant("objectives.py", "if delta_w.shape != (d_h, d):", "if False:",
           "as_delta: weight perturbation shape"),
    Mutant("model.py", 'PROJECTIONS = {"W_Q": "w_q", "W_K": "w_k", "W_V": "w_v"}',
           'PROJECTIONS = {"W_Q": "w_k", "W_K": "w_q", "W_V": "w_v"}',
           "PROJECTIONS: each name reads its own field"),
    Mutant("model.py", "if name not in PROJECTIONS:", "if False:",
           "AttentionHead: unknown projection name"),
    Mutant("oracle.py", 'if name not in ("W_Q", "W_K"):', "if False:",
           "taylor_error: query/key projections only"),
    Mutant("oracle.py", 'if name == "W_Q":', 'if name == "W_K":',
           "taylor_error: the query branch linearizes a query perturbation"),
    Mutant("quantizer.py", "if w.shape[0] != spec.n_rows:", "if False:",
           "rtn_quantize: weight rows match the grid rows"),
    Mutant("quantizer.py", "if hessian.shape != (w.shape[1], w.shape[1]):", "if False:",
           "fit_step_size: curvature shape"),
    Mutant("quantizer.py", "if not (np.isfinite(w).all() and np.isfinite(hessian).all()):", "if False:",
           "fit_step_size: finite weights and curvature"),
    Mutant("quantizer.py", "if self.scale.shape != self.zero_point.shape:", "if False:",
           "QuantSpec: scale and zero_point lengths"),
    Mutant("quantizer.py", "if self.w_int.ndim != 2 or self.w_int.shape[0] != self.spec.n_rows:", "if False:",
           "QuantizedWeight: w_int rows match the grid rows"),
    Mutant("quantizer.py", "else 1e-12", "else 1e-6",
           "_inverse_factor: damping of an all-zero curvature",
           "an all-zero curvature damped by any positive value is a multiple of I, so the "
           "factor's off-diagonal entries and every column update are 0"),
    Mutant("rounding.py", "    if any(arg is not None and len(arg) != len(w)", "    if False and any(arg is not None and len(arg) != len(w)",
           "optimize_rounding: one entry per slab in every argument"),
    Mutant("rounding.py", "if x.shape != shape or r.shape != shape:", "if False:",
           "RoundingStack: every slab has one shape"),
    Mutant("rounding.py", "traced = trace_csv is not None", "traced = False",
           "optimize_rounding: a traced run writes its trace CSVs"),
    Mutant("rounding.py", "CHECK_BLOCK = 100", "CHECK_BLOCK = 1000",
           "optimize_rounding: iterations between two non-finite checks"),
    Mutant("pipeline.py", "if ref_norm == 0 and any(", "if False and any(",
           "evaluate_quantized: reference norm that underflows"),
    Mutant("pipeline.py", "if 0 < ref_norm < np.finfo(np.float64).tiny:", "if False:",
           "evaluate_quantized: subnormal reference norm"),
    Mutant("pipeline.py", "variants = [head.replace(name, dequantized[name]) for name in names]",
           "variants = [head.replace(name, weights[name] + (dequantized[name] - weights[name])) for name in names]",
           "quantize_head: exact errors of the checkpoint's own weights"),
    Mutant("pipeline.py", 'if cfg.method in ("rtn", "optq"):', 'if cfg.method in ("rtn",):',
           "_loss_kind: optq fits against the layer curvature"),
    Mutant("pipeline.py", 'if trace_prefix is not None and cfg.method != "aespa":', "if False:",
           "quantize_head: a loss trace needs learned rounding"),
    Mutant("pipeline.py", 'with np.errstate(over="ignore"):  # AttentionHead refuses',
           'with np.errstate(over="warn"):  # AttentionHead refuses',
           "dequantized_head: a scale that overflows the weights is refused without a warning"),
    Mutant("cli.py", "if presets or csv_out is not None:", "if False:",
           "flops: --preset and --csv refused beside --d/--dh"),
    Mutant("quantizer.py", "OPTQ_DAMPING = 0.01", "OPTQ_DAMPING = 0.02",
           "optq_compensate: damping relative to the mean curvature diagonal"),
    Mutant("quantizer.py", "N_CLIP_RATIOS = 128", "N_CLIP_RATIOS = 127",
           "fit_step_size: number of clip ratios searched"),
    Mutant("quantizer.py", "CLIP_RATIO_LO = 0.4", "CLIP_RATIO_LO = 0.5",
           "fit_step_size: smallest clip ratio searched"),
    Mutant("rounding.py", "BETA_END = 2.0", "BETA_END = 2.5",
           "SoftQuantConfig: regularizer exponent at the end of the anneal"),
    Mutant("rounding.py", "BETA_ANNEAL_FRAC = 0.8", "BETA_ANNEAL_FRAC = 0.7",
           "SoftQuantConfig: share of the iterations that anneals the exponent"),
    Mutant("rounding.py", "h >= 0.5", "h > 0.5",
           "hard_assignment: an exact half rounds up"),
    Mutant("pipeline.py", "if (reference.d, reference.d_h) != (quantized.d, quantized.d_h):", "if False:",
           "evaluate_quantized: heads of one shape (a d_h 1 checkpoint against a d_h 4 model)"),
    Mutant("rounding.py", "witness = np.argmax(flat_dh_db)", "witness = np.argmin(flat_dh_db)",
           "optimize_rounding: exits only once every entry is clamped"),
    Mutant("rounding.py", "key=lambda c: (id(c.right), c.identity_left)", "key=lambda c: c.identity_left",
           "RoundingStack: a batched group shares one right factor"),
    Mutant("rounding.py", "if done or ran == n:", "if ran == n:",
           "optimize_rounding: an early exit checks the final logits"),
    Mutant("rounding.py", "recon[ran:] = recon[it]", "recon[ran:] = 0.0",
           "optimize_rounding: an early exit fills the trace's remaining rows"),
    Mutant("rounding.py", 'with np.errstate(over="ignore"):  # exp(-b)', 'with np.errstate(over="warn"):  # exp(-b)',
           "hard_assignment: a logit below -709 thresholds without a warning"),
    Mutant("linalg.py", "PROB_SUM_TOL = 1e-9", "PROB_SUM_TOL = 1e-1",
           "softmax_jacobian_row: how far a probability row may sum from 1"),
    Mutant("quantizer.py", "screen[~np.isfinite(screen)] = np.nan", "pass",
           "fit_step_size: a screen value that overflows rules no candidate out"),
    Mutant("jsonio.py", 'raise DataError(f"{what}: expected a JSON object")', "pass",
           "require_field: a field is read only from a JSON object"),
    Mutant("linalg.py", "if n_out > KRON_BUDGET:", "if False:",
           "kron: a result above the element budget is refused"),
    Mutant("linalg.py", "if np.any(a < 0):", "if False:",
           "softmax_jacobian_row: a negative probability entry is refused"),
    Mutant("rounding.py", "BETA_START = 20.0", "BETA_START = 19.0",
           "SoftQuantConfig: regularizer exponent at the start of the anneal"),
    Mutant("rounding.py", "ADAM_EPS = 1e-8", "ADAM_EPS = 1e-7",
           "optimize_rounding: Adam's denominator floor"),
    Mutant("rounding.py", "ZETA = 1.1", "ZETA = 1.2",
           "rectified_sigmoid: upper end of the sigmoid stretch"),
    Mutant("rounding.py", "np.clip(w_over_s - self.base, 0.01, 0.99)", "np.clip(w_over_s - self.base, 0.02, 0.98)",
           "RoundingStack: the logits start clamped away from the sigmoid's saturation"),
    Mutant("rounding.py", "+ 16 * self.ref.size", "+ 17 * self.ref.size",
           "RoundingStack: elementwise flops per weight of one iteration"),
    Mutant("quantizer.py", "underflow = 4 * (d + 1) ** 2 *", "underflow = 0 * (d + 1) ** 2 *",
           "fit_step_size: the screen's margin covers underflow"),
    Mutant("quantizer.py", "r += 0.5", "r += 0.4999999999999999",
           "round_half_away: an exact half rounds away from zero"),
    Mutant("jsonio.py", "or _holds_bool(raw, a.ndim)", "or False",
           "json_numbers: JSON true or false is not a number"),
    Mutant("rounding.py", "if self.iterations < 1:", "if self.iterations < 0:",
           "SoftQuantConfig: at least one iteration"),
    Mutant("jsonio.py", "(json.JSONDecodeError, UnicodeDecodeError, RecursionError)",
           "(json.JSONDecodeError, RecursionError)",
           "load_json: a file that is not UTF-8 is refused"),
    Mutant("jsonio.py", "(json.JSONDecodeError, UnicodeDecodeError, RecursionError)",
           "(json.JSONDecodeError, UnicodeDecodeError)",
           "load_json: nesting deeper than the parser's recursion limit is refused"),
    Mutant("cli.py", '"--seed", type=click.IntRange(min=0), default=0, show_default=True)\n@click.option("--d"',
           '"--seed", type=click.IntRange(min=-1), default=0, show_default=True)\n@click.option("--d"',
           "gen: a negative seed is a usage error"),
    Mutant("cli.py", '"--n-sequences", type=click.IntRange(min=1)', '"--n-sequences", type=click.IntRange(min=0)',
           "gen: at least one calibration sequence"),
)

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def run_mutant(m: Mutant) -> tuple[str, str]:
    """(outcome, first failing test id or detail) of one mutant."""
    source = (ROOT / "src" / "attnquant" / m.file).read_text(encoding="utf-8")
    if source.count(m.old) != 1:
        return "stale", f"old text found {source.count(m.old)} times"
    with tempfile.TemporaryDirectory(prefix="attnquant-mutant-") as tmp:
        tmp = Path(tmp)
        shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
        # test_mutants.py checks that every old text occurs in the unmutated
        # source, so it would kill every mutant; it is left out of the copy
        tests = shutil.ignore_patterns("__pycache__", "test_mutants.py")
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=tests)
        (tmp / "bench").mkdir()
        shutil.copy(ROOT / "bench" / "spans.py", tmp / "bench" / "spans.py")
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        (tmp / "src" / "attnquant" / m.file).write_text(source.replace(m.old, m.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
        proc = subprocess.run(TIER1, cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"pytest exit {proc.returncode}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.file or a in m.note for a in argv)]
    print("| file | mutant | guards | outcome | first failing test or reason |")
    print("|---|---|---|---|---|")
    records = []
    for m in chosen:
        outcome, detail = run_mutant(m)
        if outcome == "survived" and m.equivalent:
            outcome, detail = "equivalent", m.equivalent
        # one table row per mutant, also for an old text that spans lines
        change = f"`{m.old.strip()}` -> `{m.new.strip()}`".replace("\n", "\\n")
        print(f"| {m.file} | {change} | {m.note} | {outcome} | {detail} |", flush=True)
        records.append({
            "file": m.file, "mutant": change, "guards": m.note, "verdict": outcome,
            "first_failing_test": detail if outcome == "killed" else None,
            "equivalence_reason": m.equivalent if outcome == "equivalent" else None,
        })
    verdicts = [r["verdict"] for r in records]
    if not argv:
        score = {v: verdicts.count(v) for v in ("killed", "equivalent", "survived", "stale")}
        MUTATION_PATH.write_text(json.dumps({"score": score, "mutants": records}, indent=1) + "\n", encoding="utf-8")
    return 1 if {"survived", "stale"} & set(verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
