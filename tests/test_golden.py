"""Outputs stay bit-identical: every golden case gives the digests stored in
``golden.json`` (see ``golden.py``, which also regenerates the file)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import CASES, GOLDEN_PATH, RECORDS, _run, case_digests, check_output_digest, environment

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_case_has_a_digest():
    assert sorted(GOLDEN["cases"]) == sorted([*(case.name for case in CASES), *RECORDS])


def require_golden_environment():
    if GOLDEN["environment"] != environment():
        pytest.fail(
            f"the environment differs from the one the golden digests were made in: "
            f"{environment()} here, {GOLDEN['environment']} in {GOLDEN_PATH.name}"
        )


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_outputs_match_golden_digests(case):
    require_golden_environment()
    assert case_digests(case) == GOLDEN["cases"][case.name]


@pytest.mark.parametrize("name", RECORDS)
def test_record_matches_golden_digest(name, request):
    require_golden_environment()
    if name == "check-seed0":  # the output of the suite's shared run
        check_seed0 = request.getfixturevalue("check_seed0")
        assert check_seed0.exit_code == 0, check_seed0.stdout + check_seed0.stderr
        digest = check_output_digest(check_seed0.stdout)
    else:
        digest = RECORDS[name]()
    assert digest == GOLDEN["cases"][name]


def test_desk_case_stops_after_iteration_1606(tmp_path):
    # Every entry of this case's stacked logits is clamped at iteration 1606,
    # so learned rounding runs 1607 of its 2000 iterations, at 17341 flops
    # each, and each projection's trace repeats row 1606 to the end with a
    # regularizer of 0.
    require_golden_environment()
    (case,) = [case for case in CASES if case.name == "16x4-L8-n32-seed0-aespa-2bit-2000it-VQK"]
    assert _run(case, tmp_path)["flops"] == 1607 * 17341
    for name in ("W_V", "W_Q", "W_K"):
        rows = (tmp_path / f"trace_{name}.csv").read_text().splitlines()[1:]
        assert len(rows) == 2000
        tail = {row.split(",", 1)[1] for row in rows[1606:]}
        assert len(tail) == 1 and tail.pop().endswith(",0.0"), name


def test_one_blas_thread_gives_the_golden_documents_and_reports():
    # numpy reads OPENBLAS_NUM_THREADS only at import, so the cases run in a
    # child process. At d = 128 the final logits differ in their last bits
    # between one thread and two or more; the integers must not.
    require_golden_environment()
    names = [case.name for case in CASES if case.d == 128]
    assert len(names) == 2
    tests = Path(__file__).resolve().parent
    script = (
        "import json, sys\n"
        "from golden import CASES, case_digests\n"
        "print(json.dumps({c.name: case_digests(c) for c in CASES if c.name in sys.argv[1:]}))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script, *names], env=env, capture_output=True, text=True, check=True
    ).stdout
    digests = json.loads(out)
    for name in names:
        for key in ("doc", "report"):
            assert digests[name][key] == GOLDEN["cases"][name][key], (name, key)
