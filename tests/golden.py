"""Golden outputs of ``quantize_head``: the cases, their digests, and the
script that regenerates ``golden.json``.

Each case quantizes one synthetic head and records sha256 digests of the
checkpoint document and the report (JSON with sorted keys, floats by
repr), the ``FlopCounter`` total and, for learned rounding, the digest of
every per-projection trace CSV (small shapes only, see
``TRACE_DIGEST_MAX_D``). Learned-rounding cases run twice, without and
with traces, and both runs must give the same document, report and count.
Two more records, ``RECORDS``, pin outputs that do not come from
``quantize_head``: what ``attnquant check --seed 0`` prints, and the rows
of the published cost table.

Digests depend on the numpy build and its BLAS, so the file stores both
next to the digests. Regenerate it only when a change alters outputs on
purpose, and list every changed case when doing so; the script prints
their names:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from attnquant.cli import main as cli_main
from attnquant.flops import FlopCounter, cost_table
from attnquant.model import CalibSequence, generate_synthetic
from attnquant.pipeline import METHODS, PipelineConfig, quantize_head
from attnquant.rounding import SoftQuantConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
# Trace CSVs are digested only up to this hidden size. At d = 128 and 768
# the reconstruction column differs in its last bits between one BLAS
# thread and two or more (documents and reports do not), so digesting those
# traces would tie the gate to the thread count.
TRACE_DIGEST_MAX_D = 16


@dataclass(frozen=True)
class Case:
    seed: int
    d: int
    d_h: int
    length: int
    n: int
    method: str
    bits: int = 2
    iterations: int = SoftQuantConfig.iterations
    # Calibration entries are multiplied by this; 1e-160 puts every
    # curvature near the subnormal range, where compensation falls back.
    calib_scale: float = 1.0

    @property
    def name(self) -> str:
        name = f"{self.d}x{self.d_h}-L{self.length}-n{self.n}-seed{self.seed}-{self.method}"
        # every case quantizes the whole head; the name keeps its -VQK suffix
        name += f"-{self.bits}bit-{self.iterations}it-VQK"
        return name if self.calib_scale == 1.0 else f"{name}-calib{self.calib_scale:g}"


CASES = (
    *(Case(seed, 16, 4, 8, 32, method) for seed in range(6) for method in METHODS),
    *(Case(seed, 128, 16, 64, 8, "aespa", bits=3, iterations=100) for seed in range(2)),
    Case(0, 768, 64, 32, 4, "aespa", bits=3, iterations=20),
    *(Case(1, 8, 2, 4, 3, method, iterations=20, calib_scale=1e-160) for method in ("optq", "aespa")),
)


def environment() -> dict:
    """The numpy version and the BLAS build that the digests hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(doc: dict) -> str:
    return _sha256(json.dumps(doc, sort_keys=True).encode())


def _run(case: Case, trace_dir: Path | None) -> dict:
    head, seqs = generate_synthetic(case.seed, case.d, case.d_h, case.length, case.n)
    if case.calib_scale != 1.0:
        seqs = [CalibSequence(s.x * case.calib_scale) for s in seqs]
    cfg = PipelineConfig(
        bits=case.bits,
        method=case.method,
        soft=SoftQuantConfig(iterations=case.iterations),
    )
    counter = FlopCounter()
    prefix = None if trace_dir is None else trace_dir / "trace"
    doc, report = quantize_head(head, seqs, cfg, counter=counter, trace_prefix=prefix)
    return {"doc": _json_digest(doc), "report": _json_digest(report), "flops": counter.count}


def _check_output_digest() -> str:
    res = CliRunner().invoke(cli_main, ["check", "--seed", "0"])
    assert res.exit_code == 0, res.output
    return _sha256(res.stdout.encode())


# Golden records that are not quantize_head cases: name -> digest function.
RECORDS = {
    "check-seed0": _check_output_digest,
    "cost-table": lambda: _json_digest(cost_table()),
}


def case_digests(case: Case) -> dict:
    """The golden record of ``case``. Raises AssertionError when the traced
    run's document, report or flop count differs from the untraced run's."""
    record = _run(case, None)
    if case.method == "aespa":
        with tempfile.TemporaryDirectory() as tmp:
            traced = _run(case, Path(tmp))
            assert traced == record, f"{case.name}: the traced run differs from the untraced run"
            if case.d <= TRACE_DIGEST_MAX_D:
                record["traces"] = {
                    path.name: _sha256(path.read_bytes()) for path in sorted(Path(tmp).glob("*.csv"))
                }
    return record


def main() -> None:
    """Rewrite ``golden.json`` and print each case whose record changed (a
    new case counts as changed) or that is no longer in ``CASES``."""
    before = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"] if GOLDEN_PATH.exists() else {}
    cases = {case.name: case_digests(case) for case in CASES}
    cases.update((name, digest()) for name, digest in RECORDS.items())
    golden = {"environment": environment(), "cases": cases}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    changed = [name for name, record in cases.items() if before.get(name) != record]
    removed = [name for name in before if name not in cases]
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}: {len(changed)} changed, {len(removed)} removed")
    for name in changed:
        print(f"changed: {name}")
    for name in removed:
        print(f"removed: {name}")


if __name__ == "__main__":
    main()
