"""Tests of the benchmark harness itself, at a tiny size.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

TINY = run.Workload(8, 2, 4, 4, 4, "aespa", 2, 20, min_ops=2)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def api():
    return run.import_api()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(out_dir, capsys, trace, section):
    result = run.run("tiny", TINY, seed=0, seconds=0, trace=trace)
    printed = capsys.readouterr().out
    declared = run.load_spec()[section]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert f"{m['name']} = {got['value']!r} {m['unit']}\n" in printed
    assert "error_rate = 0.0 ratio" in printed
    if trace:
        assert list(out_dir.glob("spans_tiny_seed0.csv"))


def _off_grid(doc, report):
    doc["projections"]["W_V"]["w_int"][0][0] = 1 << TINY.bits


def _nan_in_report(doc, report):
    report["projections"]["W_Q"]["refined_loss"] = math.nan


@pytest.mark.parametrize("corrupt", [_off_grid, _nan_in_report])
def test_bad_output_counts_as_failed_op(out_dir, api, monkeypatch, corrupt):
    real = api.pipeline.quantize_head
    calls = []

    def third_call_corrupted(*args, **kwargs):
        doc, report = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            corrupt(doc, report)
        return doc, report

    monkeypatch.setattr(api.pipeline, "quantize_head", third_call_corrupted)
    result = run.run("tiny", TINY, seed=0, seconds=0, trace=0)
    assert result["attempted"] == 1 + TINY.min_ops
    assert result["failed"] == 1
    assert not result["correct"]


def test_check_op_flags_each_bad_output(out_dir, api):
    inputs = run.Inputs(api, TINY, seed=0)
    good = run.run_op(api, inputs, 0, out_dir / "ckpt.json")
    assert run.check_op(TINY, good) == []
    assert run.check_op(TINY, good, run.w_ints(good)) == []

    other = run.w_ints(run.run_op(api, inputs, 1, out_dir / "ckpt.json"))
    assert any("warm-up" in p for p in run.check_op(TINY, good, other))

    good.doc["projections"]["W_K"]["w_int"][0][0] = -1
    assert any("off the grid" in p for p in run.check_op(TINY, good))
    assert any("round trip" in p for p in run.check_op(TINY, good))


def test_seed_decides_the_inputs(api):
    def arrays(seed, op):
        head, calib, heldout = run.Inputs(api, TINY, seed).op(op)
        return [head.w_q, head.w_k, head.w_v] + [s.x for s in calib + heldout]

    def same(a, b):
        return all((x == y).all() for x, y in zip(a, b))

    assert same(arrays(0, 3), arrays(0, 3))
    assert not same(arrays(0, 0), arrays(0, 1))
    for x, y in zip(arrays(0, 0), arrays(1, 0)):
        assert not (x == y).all()


def test_exits_without_result_when_source_tree_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-learned", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
