"""attnquant benchmark: one head's quantize cycle, timed end to end.

Run from the repository root:

    python3 bench/run.py --workload desk-learned --seed 0 --seconds 10 --trace 0

One op is one user cycle on one head: ``quantize_head`` (statistics
accumulated inside it), a ``save_quantized``/``load_quantized`` round trip,
``dequantized_head`` and ``evaluate_quantized`` on held-out sequences. A
single client runs ops back to back (closed loop) for ``--seconds``, and
for at least the workload's ``min_ops`` ops. Every op's outputs are
checked; an op that raises or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced ops, prints the per-layer metrics measured
on the traced ones, writes all spans to ``.bench_out/`` and runs the
constant-cost check. The last line of stdout is the JSON result; the lines
before it give run metadata and each metric with its unit.

The benchmark imports attnquant from ``src/`` next to this directory and
exits with code 2, printing no result, when that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread per usable core, fixed before numpy loads, so the
# parent and every child process see the same setting.
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from spans import SpanSummary, Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    d: int
    d_h: int
    length: int
    n_calib: int
    n_heldout: int
    method: str
    bits: int
    iterations: int
    # Ops every run makes, however short --seconds is. The quality metrics
    # average exactly these ops, so they depend on the seed alone.
    min_ops: int


# Why each shape was chosen is in README.md beside this file.
WORKLOADS = {
    "desk-learned": Workload(16, 4, 8, 32, 32, "aespa", 2, 2000, min_ops=24),
    "wide-learned": Workload(768, 64, 128, 32, 32, "aespa", 3, 200, min_ops=3),
    "calib-long": Workload(128, 16, 256, 256, 64, "aespa-noround", 4, 2000, min_ops=8),
}

# Cold set-ups per untraced run: this process plus SETUP_REPEATS - 1 fresh
# child processes. setup_s is their median. Each costs about one op, so on
# wide-learned a third set-up would add 10 s to every run.
SETUP_REPEATS = 2

# Constant-cost check: the desk-learned shape at N and 4N calibration
# sequences must count the same flops per rounding iteration and take
# the same time per iteration, within the bound of head_s.p50.
COSTCHECK = Workload(16, 4, 8, 32, 32, "aespa", 2, 200, min_ops=1)
COSTCHECK_SCALE = 4
COSTCHECK_REPEATS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_api() -> SimpleNamespace:
    """Import numpy and attnquant from this checkout's ``src/``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    from attnquant import oracle, pipeline, rounding, stats
    from attnquant.flops import FlopCounter
    from attnquant.model import generate_synthetic
    from attnquant.rounding import SoftQuantConfig

    if Path(pipeline.__file__).resolve().parents[1] != src:
        raise ImportError(f"attnquant was imported from {pipeline.__file__}, not {src}")
    return SimpleNamespace(
        np=np,
        pipeline=pipeline,
        modules={"pipeline": pipeline, "stats": stats, "oracle": oracle, "rounding": rounding},
        FlopCounter=FlopCounter,
        generate_synthetic=generate_synthetic,
        SoftQuantConfig=SoftQuantConfig,
    )


class Inputs:
    """Each op's head, calibration and held-out sequences, drawn by
    ``generate_synthetic`` from a seed derived from the workload seed and
    the op number, so ops are independent samples of the workload."""

    def __init__(self, api, w: Workload, seed: int):
        self.api, self.w, self.seed = api, w, seed
        self.cfg = api.pipeline.PipelineConfig(
            bits=w.bits, method=w.method, soft=api.SoftQuantConfig(iterations=w.iterations)
        )

    def op(self, op: int):
        """(head, calibration sequences, held-out sequences) of op ``op``."""
        w = self.w
        op_seed = int(self.api.np.random.SeedSequence([self.seed, op]).generate_state(1)[0])
        head, seqs = self.api.generate_synthetic(
            op_seed, w.d, w.d_h, w.length, w.n_calib + w.n_heldout
        )
        return head, seqs[: w.n_calib], seqs[w.n_calib :]


@dataclass
class OpResult:
    wall_s: float
    doc: dict | None = None
    report: dict | None = None
    evaluation: dict | None = None
    roundtrip: dict | None = None
    flops: int = 0
    problems: tuple = ()


def run_op(api, inputs: Inputs, op: int, ckpt: Path, tracer=None) -> OpResult:
    """One user cycle on op ``op``'s head. Its inputs are drawn before the
    clock starts; output checks are left to ``check_op``."""
    pipeline = api.pipeline
    head, calib, heldout = inputs.op(op)
    counter = api.FlopCounter() if tracer else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    start = perf_counter()
    with span("op"):
        with span("pipeline.quantize_head"):
            doc, report = pipeline.quantize_head(head, calib, inputs.cfg, counter=counter)
        with span("jsonio.roundtrip"):
            pipeline.save_quantized(doc, ckpt)
            loaded = pipeline.load_quantized(ckpt)
        with span("pipeline.dequantized_head"):
            quantized = pipeline.dequantized_head(loaded)
        with span("pipeline.evaluate_quantized"):
            evaluation = pipeline.evaluate_quantized(head, quantized, heldout)
    wall = perf_counter() - start
    return OpResult(
        wall, doc, report, evaluation, loaded, flops=counter.count if counter else 0
    )


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def check_op(w: Workload, r: OpResult, reference_w_int: dict | None = None) -> list[str]:
    """Problems with one op's outputs; an empty list means the op passed."""
    problems = []
    grid_max = (1 << w.bits) - 1
    for name, proj in r.doc["projections"].items():
        w_int = proj["w_int"]
        flat = [x for row in w_int for x in row]
        if proj["n_bits"] != w.bits:
            problems.append(f"{name}: n_bits {proj['n_bits']} != {w.bits}")
        if len(w_int) != w.d_h or any(len(row) != w.d for row in w_int):
            problems.append(f"{name}: w_int is not {w.d_h}x{w.d}")
        if not all(type(x) is int and 0 <= x <= grid_max for x in flat):
            problems.append(f"{name}: w_int has an entry off the grid 0..{grid_max}")
        if reference_w_int is not None and w_int != reference_w_int.get(name):
            problems.append(f"{name}: w_int differs from the warm-up run on the same inputs")
    for what, doc in (("report", r.report), ("evaluation", r.evaluation)):
        if not all(math.isfinite(x) for x in _numbers(doc)):
            problems.append(f"{what} holds a non-finite number")
    v = r.report["projections"]["W_V"]
    refined, exact = v["refined_loss"], v["exact_attention_error"]
    if not abs(refined - exact) <= 1e-9 * max(abs(exact), 1e-300):
        problems.append(f"W_V refined_loss {refined!r} != exact_attention_error {exact!r}")
    if json.dumps(r.roundtrip, sort_keys=True) != json.dumps(r.doc, sort_keys=True):
        problems.append("checkpoint round trip is not bit-identical")
    return problems


def w_ints(r: OpResult) -> dict:
    return {name: proj["w_int"] for name, proj in r.doc["projections"].items()}


def attempt(api, inputs, op, ckpt, tracer=None, reference=None) -> OpResult:
    """``run_op`` plus ``check_op``; a raised error becomes a problem so one
    bad op does not end the run."""
    try:
        r = run_op(api, inputs, op, ckpt, tracer)
        r.problems = tuple(check_op(inputs.w, r, reference))
    except Exception as exc:  # noqa: BLE001 - the run must go on and count it
        traceback.print_exc(file=sys.stderr)
        r = OpResult(wall_s=math.nan, problems=(f"{type(exc).__name__}: {exc}",))
    for p in r.problems:
        print(f"op {op} failed: {p}", file=sys.stderr)
    return r


def set_up(w: Workload, seed: int, ckpt: Path):
    """Imports, input generation and one warm-up op (with its output
    checks): what a user pays before the first head."""
    start = perf_counter()
    api = import_api()
    inputs = Inputs(api, w, seed)
    warm = attempt(api, inputs, 0, ckpt)
    return perf_counter() - start, api, inputs, warm


def child_set_up(w: Workload, seed: int) -> float:
    """Time a cold set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-child", json.dumps(asdict(w)), "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=ROOT,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}):\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_phase(api, inputs, seconds, ckpt, warm, tracer=None):
    """Closed loop of ops. Op 0 repeats the warm-up inputs and must give
    its integers back. With a tracer, odd ops are traced, and at least two
    ops run each way."""
    reference = w_ints(warm) if not warm.problems else None
    min_ops = max(inputs.w.min_ops, 4) if tracer else inputs.w.min_ops
    results = []
    start = perf_counter()
    while len(results) < min_ops or perf_counter() - start < seconds:
        op = len(results)
        ref = reference if op == 0 else None
        if tracer and op % 2:
            with tracer.patched(api.modules, op):
                results.append(attempt(api, inputs, op, ckpt, tracer, ref))
        else:
            results.append(attempt(api, inputs, op, ckpt, None, ref))
    return results


def end_to_end(results, inputs, setup_times) -> dict:
    w = inputs.w
    ok = [r for r in results if not r.problems]
    walls = [r.wall_s for r in ok]
    quality = [r for r in results[: w.min_ops] if not r.problems] or ok
    return {
        "head_s.p50": statistics.median(walls),
        "heads_per_s": len(ok) / sum(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attn_err": statistics.fmean(r.report["calibration_attention_error"] for r in quality),
        "heldout_rel_err": statistics.fmean(
            r.evaluation["relative_output_error"] for r in quality
        ),
    }


def stats_peak_mib(api, inputs) -> float:
    """tracemalloc peak of one ``accumulate_stats`` call, measured outside
    the timed ops so tracemalloc slows none of them."""
    head, calib, _ = inputs.op(0)
    tracemalloc.start()
    try:
        api.modules["stats"].accumulate_stats(head, calib)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def constant_cost_check(api, seed: int, bound: float, ckpt: Path) -> tuple[dict, list[str]]:
    """The paper's claim in wall-clock time: a rounding iteration costs the
    same at N and 4N calibration sequences. Sizes alternate to share drift."""
    cc = COSTCHECK
    sizes = {
        1: Inputs(api, cc, seed),
        COSTCHECK_SCALE: Inputs(
            api, Workload(**{**asdict(cc), "n_calib": cc.n_calib * COSTCHECK_SCALE}), seed
        ),
    }
    per_iter_flops = {k: set() for k in sizes}
    iter_ms = {k: [] for k in sizes}
    for rep in range(COSTCHECK_REPEATS):
        for k, inputs in sizes.items():
            tracer = Tracer()
            with tracer.patched(api.modules, rep):
                r = run_op(api, inputs, rep, ckpt, tracer)
            s = SpanSummary(tracer.spans, [rep])
            calls = s.calls.get("rounding.optimize_rounding", 0)
            iter_ms[k].append(1e3 * s.total["rounding.optimize_rounding"] / (calls * cc.iterations))
            per_iter_flops[k].add(r.flops / cc.iterations)
    n, big = sizes
    flops_n, flops_big = per_iter_flops[n], per_iter_flops[big]
    ms_n, ms_big = statistics.median(iter_ms[n]), statistics.median(iter_ms[big])
    problems = []
    if len(flops_n) != 1 or flops_n != flops_big:
        problems.append(f"flops per iteration differ: N {sorted(flops_n)} vs 4N {sorted(flops_big)}")
    if ms_big > ms_n * (1 + bound):
        problems.append(f"ms per iteration at 4N {ms_big:.4f} exceeds N {ms_n:.4f} by more than {bound}")
    metrics = {
        "costcheck.flops_per_iter_ratio": max(flops_big) / max(flops_n),
        "costcheck.iter_ms_ratio": ms_big / ms_n,
    }
    print(
        f"constant-cost check: flops/iter N={sorted(flops_n)} 4N={sorted(flops_big)}; "
        f"ms/iter N={ms_n:.4f} 4N={ms_big:.4f}: {'FAIL' if problems else 'pass'}"
    )
    return metrics, problems


def per_layer(api, inputs, results, tracer, seed, bound, ckpt) -> tuple[dict, list[str]]:
    w = inputs.w
    traced = [op for op, r in enumerate(results) if op % 2 and not r.problems]
    untraced = [op for op, r in enumerate(results) if not op % 2 and not r.problems]
    s = SpanSummary(tracer.spans, traced)
    rounding_calls = s.calls.get("rounding.optimize_rounding", 0)
    flops = statistics.fmean(results[op].flops for op in traced)
    traced_p50 = statistics.median(results[op].wall_s for op in traced)
    forwards_in_quantize = s.calls_within("pipeline.quantize_head", "model.attention_forward")
    metrics = {
        "rounding.optimize_s": s.per_op_s("rounding.optimize_rounding"),
        "rounding.iter_ms": (
            1e3 * s.total["rounding.optimize_rounding"] / (rounding_calls * w.iterations)
            if rounding_calls
            else 0.0
        ),
        "objectives.loss_calls": s.per_op_calls("objectives.loss", "objectives.loss_gradient"),
        "objectives.loss_s": s.per_op_s("objectives.loss", "objectives.loss_gradient"),
        "flops.count": flops,
        "flops.per_iter": flops / w.iterations,
        "quantizer.fit_step_size_s": s.per_op_s("quantizer.fit_step_size"),
        "quantizer.optq_compensate_s": s.per_op_s("quantizer.optq_compensate"),
        "stats.accumulate_s": s.per_op_s("stats.accumulate_stats"),
        "stats.peak_mib": stats_peak_mib(api, inputs),
        "model.forward_calls": s.per_op_calls("model.attention_forward"),
        "model.forwards_per_seq": forwards_in_quantize / len(traced) / w.n_calib,
        "model.forward_s": s.per_op_s("model.attention_forward"),
        "oracle.exact_error_s": s.per_op_s("oracle.exact_error"),
        "pipeline.eval_s": s.per_op_s("pipeline.evaluate_quantized"),
        "pipeline.self_s": s.self_per_op().get("pipeline", 0.0),
        "jsonio.roundtrip_s": s.per_op_s("jsonio.roundtrip"),
        "trace.head_s.p50": traced_p50,
        "trace.overhead_s": traced_p50 - statistics.median(results[op].wall_s for op in untraced),
    }
    for name in sorted(s.total):
        print(f"span {name}: {s.per_op_s(name):.6f} s/op, {s.per_op_calls(name):g} calls/op")
    for layer, t in s.self_per_op().items():
        print(f"self time {layer}: {t:.6f} s/op")
    cc_metrics, problems = constant_cost_check(api, seed, bound, ckpt)
    metrics.update(cc_metrics)
    return metrics, problems


def metadata(api, w: Workload, workload: str, seed: int, seconds: int, trace: int) -> dict:
    blas = api.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "shape": asdict(w),
        "python": platform.python_version(),
        "numpy": api.np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "load": "closed loop, 1 client, 1 process",
    }


def run(workload: str, w: Workload, seed: int, seconds: int, trace: int) -> dict:
    spec = load_spec()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "head_s.p50")
    ckpt = OUT_DIR / f"ckpt_{os.getpid()}.json"
    setup_times = [] if trace else [child_set_up(w, seed) for _ in range(SETUP_REPEATS - 1)]
    setup, api, inputs, warm = set_up(w, seed, ckpt)
    setup_times.append(setup)
    print("meta " + json.dumps(metadata(api, w, workload, seed, seconds, trace)))

    tracer = Tracer() if trace else None
    results = timed_phase(api, inputs, seconds, ckpt, warm, tracer)
    ckpt.unlink(missing_ok=True)
    attempted = 1 + len(results)
    failed = sum(1 for r in [warm, *results] if r.problems)
    problems = []
    if trace:
        metrics, problems = per_layer(api, inputs, results, tracer, seed, bound, ckpt)
        ckpt.unlink(missing_ok=True)
        declared = spec["per_layer"]
        spans_path = OUT_DIR / f"spans_{workload}_seed{seed}.csv"
        tracer.write_csv(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        metrics = end_to_end(results, inputs, setup_times)
        declared = spec["end_to_end"]
        print(f"setup_s samples: {[round(t, 4) for t in setup_times]}")
        print(
            f"head_s: {len(results)} ops; no tail percentile is reported, "
            "since no percentile has 10 samples beyond it"
        )
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(f"error_rate = {failed / attempted} ratio ({failed} of {attempted} ops failed)")
    out = {}
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="WORKLOAD_JSON", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "attnquant" / "__init__.py").is_file():
        print(f"error: no attnquant source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_child:
        w = Workload(**json.loads(args.setup_child))
        setup, *_ = set_up(w, args.seed, OUT_DIR / f"ckpt_{os.getpid()}.json")
        (OUT_DIR / f"ckpt_{os.getpid()}.json").unlink(missing_ok=True)
        print(json.dumps({"setup_s": setup}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
