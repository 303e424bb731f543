"""Outputs stay bit-identical: every golden case gives the digests stored in
``golden.json`` (see ``golden.py``, which also regenerates the file)."""

import json

import pytest

from golden import CASES, GOLDEN_PATH, case_digests, environment

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_case_has_a_digest():
    assert sorted(GOLDEN["cases"]) == sorted(case.name for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_outputs_match_golden_digests(case):
    if GOLDEN["environment"] != environment():
        pytest.fail(
            f"the environment differs from the one the golden digests were made in: "
            f"{environment()} here, {GOLDEN['environment']} in {GOLDEN_PATH.name}"
        )
    assert case_digests(case) == GOLDEN["cases"][case.name]
