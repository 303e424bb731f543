"""One-line mutants of the guards and constants of the quantize path, each
run against the tier-1 suite.

    python tests/mutants.py            # every mutant, about 6 minutes on 2 cores
    python tests/mutants.py stats      # only mutants whose file or note holds "stats"

For each mutant the script copies ``src/``, ``tests/``, ``bench/spans.py``
and ``pyproject.toml`` into a temporary directory, replaces the mutant's old
text (which must occur exactly once) with its new text, and runs tier-1
there with ``-x``. It prints one markdown row per mutant: killed, with the
first failing test, or survived. A survivor marked equivalent states why no
test can kill it. The exit status is 1 when any other mutant survives.

The file has no ``test_`` prefix, so tier-1 does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


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
    Mutant("objectives.py", "if delta_w.shape != (d_h, d):", "if False:",
           "as_delta: weight perturbation shape"),
    Mutant("oracle.py", "if kind not in (ProjectionKind.QUERY, ProjectionKind.KEY):", "if False:",
           "taylor_error: query/key kinds only"),
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
    Mutant("rounding.py", "CHECK_BLOCK = 100", "CHECK_BLOCK = 1000",
           "optimize_rounding: iterations between two non-finite checks"),
    Mutant("rounding.py", "if not np.isfinite(cfg.lam * factor):", "if False:",
           "optimize_rounding: rounding weight that overflows"),
    Mutant("pipeline.py", "if ref_norm == 0 and any(", "if False and any(",
           "evaluate_quantized: reference norm that underflows"),
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
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=shutil.ignore_patterns("__pycache__"))
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
    bad = 0
    for m in chosen:
        outcome, detail = run_mutant(m)
        if outcome == "survived" and m.equivalent:
            outcome, detail = "equivalent", m.equivalent
        bad += outcome in ("survived", "stale")
        change = f"`{m.old.strip()}` -> `{m.new.strip()}`"
        print(f"| {m.file} | {change} | {m.note} | {outcome} | {detail} |", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
