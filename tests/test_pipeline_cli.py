import json
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from attnquant import checks, cli, oracle, pipeline, quantizer
from attnquant import stats as stats_module
from attnquant.cli import main
from attnquant.errors import DataError, NumericalError
from attnquant.flops import FlopCounter
from attnquant.model import AttentionHead, CalibSequence, attention_forward, generate_synthetic, load_calibration, load_checkpoint, save_calibration, save_checkpoint
from attnquant.pipeline import (
    METHODS,
    PipelineConfig,
    dequantized_head,
    evaluate_quantized,
    load_quantized,
    quantize_head,
    save_quantized,
)
from attnquant.objectives import LossContext, ProjectionKind, context_for, row_hessian
from attnquant.quantizer import (
    VALID_BITS,
    QuantSpec,
    QuantizedWeight,
    dequantize,
    fit_step_size,
    optq_compensate,
    quantized_from_json,
    quantized_to_json,
    rtn_quantize,
)
from attnquant.rounding import SoftQuantConfig
from test_rounding import reference_optimize_rounding


def make_files(tmp_path, seed=0, d=8, d_h=4, length=6, n=8):
    head, seqs = generate_synthetic(seed, d, d_h, length, n)
    model = tmp_path / "model.json"
    calib = tmp_path / "calib.json"
    save_checkpoint(head, model)
    save_calibration(seqs, calib)
    return head, seqs, model, calib


def scaled_files(tmp_path, scale):
    """A tiny head and 3 calibration sequences whose entries are multiplied
    by ``scale``, saved as model and calibration files."""
    head, seqs = generate_synthetic(1, 8, 2, 4, 3)
    model, calib = tmp_path / "model.json", tmp_path / "calib.json"
    save_checkpoint(head, model)
    save_calibration([CalibSequence(s.x * scale) for s in seqs], calib)
    return model, calib


def numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from numbers(v)
    elif isinstance(obj, float):
        yield obj


class TestPipeline:
    def test_high_bit_nearest_rounding_is_accurate(self, tmp_path):
        head, seqs, _, _ = make_files(tmp_path, seed=1)
        cfg = PipelineConfig(bits=8, method="rtn")
        _, report = quantize_head(head, seqs, cfg)
        fp_norm = np.mean([np.sum(attention_forward(head, s).sa ** 2) for s in seqs])
        for row in report["projections"].values():
            assert row["exact_attention_error"] <= 1e-4 * fp_norm

    def test_aespa_zero_iterations_equals_noround_byte_for_byte(self, tmp_path):
        head, seqs, _, _ = make_files(tmp_path, seed=2)
        soft = SoftQuantConfig(iterations=0)
        doc_a, _ = quantize_head(head, seqs, PipelineConfig(bits=2, method="aespa", soft=soft))
        doc_b, _ = quantize_head(head, seqs, PipelineConfig(bits=2, method="aespa-noround"))
        assert json.dumps(doc_a["projections"], sort_keys=True) == json.dumps(
            doc_b["projections"], sort_keys=True
        )

    def test_report_deterministic_across_runs(self, tmp_path):
        head, seqs, _, _ = make_files(tmp_path, seed=3)
        cfg = PipelineConfig(bits=2, method="aespa", soft=SoftQuantConfig(iterations=200))
        _, r1 = quantize_head(head, seqs, cfg)
        _, r2 = quantize_head(head, seqs, cfg)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_projection_filter_carries_full_precision(self, tmp_path):
        head, seqs, _, _ = make_files(tmp_path, seed=4)
        cfg = PipelineConfig(bits=4, method="rtn", projections="VQ")
        doc, report = quantize_head(head, seqs, cfg)
        assert set(doc["projections"]) == {"W_V", "W_Q"}
        assert set(doc["full_precision"]) == {"W_K"}
        assert set(report["projections"]) == {"W_V", "W_Q"}
        q_head = dequantized_head(doc)
        np.testing.assert_array_equal(q_head.w_k, head.w_k)

    def test_value_kind_override_reported(self, tmp_path):
        head, seqs, _, _ = make_files(tmp_path, seed=5)
        cfg = PipelineConfig(bits=4, method="aespa-noround", value_kind="other")
        _, report = quantize_head(head, seqs, cfg)
        assert report["projections"]["W_V"]["kind"] == "other"
        cfg2 = PipelineConfig(bits=4, method="aespa-noround", value_kind="value")
        _, report2 = quantize_head(head, seqs, cfg2)
        assert report2["projections"]["W_V"]["kind"] == "value"

    def test_default_config_records_order_vqk(self, tmp_path):
        head, seqs, _, _ = make_files(tmp_path, seed=6)
        doc, report = quantize_head(head, seqs, PipelineConfig(bits=4, method="rtn"))
        assert doc["order"] == "VQK" and report["order"] == "VQK"

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            PipelineConfig(bits=5)
        with pytest.raises(DataError):
            PipelineConfig(method="fancy")
        with pytest.raises(DataError):
            PipelineConfig(projections="VVQ")

    def test_one_reference_forward_per_sequence(self, monkeypatch):
        cfg = PipelineConfig(bits=2, method="aespa", soft=SoftQuantConfig(iterations=20))
        for seed in (12, 13):  # two heads in a row: nothing carries over between calls
            head, seqs = generate_synthetic(seed, 8, 4, 6, 5)
            calls = []

            def counting(h, s, out=None):
                calls.append(s)
                return attention_forward(h, s, out=out)

            with monkeypatch.context() as m:
                for module in (stats_module, oracle, pipeline):
                    m.setattr(module, "attention_forward", counting)
                doc, report = quantize_head(head, seqs, cfg)
            # per sequence: the stats pass, the reference, perturbed Q and K and
            # the dequantized head; perturbed V reuses the reference's map
            assert len(calls) == 5 * len(seqs)
            for letter, kind in (("V", ProjectionKind.VALUE), ("Q", ProjectionKind.QUERY), ("K", ProjectionKind.KEY)):
                name = f"W_{letter}"
                delta = dequantize(quantized_from_json(doc["projections"][name])) - head.projection(name)
                assert report["projections"][name]["exact_attention_error"] == oracle.exact_error(
                    head, seqs, kind, delta
                )

    def test_value_only_run_shares_the_reference_map(self, monkeypatch):
        # the joint head keeps the reference's W_Q and W_K arrays, so with V
        # alone quantized only the stats pass and the reference run forwards
        cfg = PipelineConfig(bits=2, method="aespa", projections="V", soft=SoftQuantConfig(iterations=20))
        head, seqs = generate_synthetic(12, 8, 4, 6, 5)
        calls = []

        def counting(h, s, out=None):
            calls.append(s)
            return attention_forward(h, s, out=out)

        with monkeypatch.context() as m:
            for module in (stats_module, oracle, pipeline):
                m.setattr(module, "attention_forward", counting)
            doc, report = quantize_head(head, seqs, cfg)
        assert len(calls) == 2 * len(seqs)
        joint = evaluate_quantized(head, dequantized_head(doc), seqs)
        assert report["calibration_attention_error"] == joint["mean_attention_error"]

    def test_peak_memory_flat_in_sequence_count(self):
        # no per-sequence output is kept, so 4x the calibration and held-out
        # sequences (built before tracing) leave the peak where it was
        cfg = PipelineConfig(bits=4, method="aespa-noround")
        head, seqs = generate_synthetic(14, 32, 8, 32, 128)
        peaks = []
        for n in (16, 64):
            tracemalloc.start()
            try:
                doc, _ = quantize_head(head, seqs[:n], cfg)
                evaluate_quantized(head, dequantized_head(doc), seqs[64 : 64 + n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 32 * 2**10, peaks

    def test_eval_identity_quantization_zero_error(self, tmp_path):
        # weights constructed exactly on a quantization grid
        rng = np.random.default_rng(7)
        d, d_h, bits = 6, 3, 4
        spec = QuantSpec(n_bits=bits, scale=np.full(d_h, 0.125), zero_point=np.full(d_h, 7, dtype=np.int64))
        projections = {}
        weights = {}
        for name in ("W_Q", "W_K", "W_V"):
            w_int = rng.integers(0, spec.grid_max + 1, size=(d_h, d))
            projections[name] = quantized_to_json(QuantizedWeight(w_int, spec))
            weights[name] = 0.125 * (w_int - 7)
        from attnquant.model import AttentionHead

        head = AttentionHead(d, d_h, weights["W_Q"], weights["W_K"], weights["W_V"])
        doc = {
            "schema_version": 1,
            "d": d,
            "d_h": d_h,
            "n_bits": bits,
            "method": "rtn",
            "order": "VQK",
            "projections": projections,
            "full_precision": {},
        }
        _, seqs = generate_synthetic(8, d, d_h, 5, 4)
        report = evaluate_quantized(head, dequantized_head(doc), seqs)
        assert report["mean_attention_error"] == 0.0
        assert report["relative_output_error"] == 0.0

    def test_eval_rejects_empty_and_mismatched(self, tmp_path):
        head, seqs, _, _ = make_files(tmp_path, seed=9)
        with pytest.raises(DataError):
            evaluate_quantized(head, head, [])
        other, _ = generate_synthetic(10, 6, 3, 4, 1)
        with pytest.raises(DataError):
            evaluate_quantized(head, other, seqs)


def per_projection_rounding(w, spec, ctx, cfg, w_reference, counter, trace_csv):
    """The optimize_rounding call shape, served by one reference loop per
    projection."""
    return [
        reference_optimize_rounding(*slab, cfg, ref, counter, path)
        for *slab, ref, path in zip(w, spec, ctx, w_reference, trace_csv)
    ]


def overflowing_key_loss(monkeypatch):
    """Give W_K a loss whose right factor is 1e308 I while grid fitting and
    compensation keep a sane (identity) curvature."""
    real_context = pipeline.context_for

    def context_for(kind, stats):
        ctx = real_context(kind, stats)
        if kind is ProjectionKind.KEY:
            return LossContext(kind, ctx.left, 1e308 * np.eye(stats.d))
        return ctx

    monkeypatch.setattr(pipeline, "context_for", context_for)
    monkeypatch.setattr(pipeline, "row_hessian", lambda ctx: 2.0 * np.eye(ctx.right.shape[0]))


def head_with_large_key(seed):
    """W_K scaled by 1e3: its rounding deviations are then large enough
    that left @ dW @ (1e308 I) overflows from the first step."""
    head, seqs = generate_synthetic(seed, 8, 4, 6, 8)
    big = AttentionHead(d=head.d, d_h=head.d_h, w_q=head.w_q, w_k=1e3 * head.w_k, w_v=head.w_v)
    return big, seqs


class TestScaleInvariance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(-20, 20))
    def test_power_of_two_rescaling_scales_only_the_grids(self, seed, k):
        # Weights times 2^k and calibration times 2^-k leave every attention
        # output and loss unchanged, and every operation stays exact: with
        # |k| <= 20 no value nears the subnormal range, where it would round.
        head, seqs = generate_synthetic(seed, 16, 4, 8, 32)
        scaled_head = AttentionHead(head.d, head.d_h, *(w * 2.0**k for w in (head.w_q, head.w_k, head.w_v)))
        scaled_seqs = [CalibSequence(seq.x * 2.0**-k) for seq in seqs]
        for method in METHODS:
            cfg = PipelineConfig(bits=2, method=method, soft=SoftQuantConfig(iterations=20))
            doc, report = quantize_head(head, seqs, cfg)
            scaled_doc, scaled_report = quantize_head(scaled_head, scaled_seqs, cfg)
            assert json.dumps(scaled_report) == json.dumps(report)
            for name, proj in doc["projections"].items():
                scaled = scaled_doc["projections"][name]
                assert scaled["scale"] == [s * 2.0**k for s in proj["scale"]]
                assert {**scaled, "scale": None} == {**proj, "scale": None}


class TestFiniteOrRefused:
    @settings(max_examples=40, deadline=None)
    # the logits of x 1e155 calibration overflow inside the forward's matmul,
    # before its own check can refuse them
    @example(seed=1, d=8, d_h=2, length=4, n_calib=3, n_eval=3, bits=2, k_calib=155.0, k_eval=0.0)
    # a statistics sum that overflows after a forward that does not
    @example(seed=0, d=2, d_h=1, length=8, n_calib=1, n_eval=1, bits=2, k_calib=153.5, k_eval=0.0)
    # a curvature whose row sums and trace overflow in grid fitting and the
    # column-compensation factor
    @example(seed=0, d=8, d_h=2, length=4, n_calib=1, n_eval=1, bits=2, k_calib=153.5, k_eval=0.0)
    # grid-fitting screen values and exact objectives that overflow
    @example(seed=14210, d=2, d_h=2, length=7, n_calib=1, n_eval=1, bits=8, k_calib=153.5, k_eval=0.0)
    # a held-out reference norm that overflows, while the error sum does not
    @example(seed=0, d=8, d_h=2, length=4, n_calib=3, n_eval=3, bits=2, k_calib=0.0, k_eval=153.5)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(1, 16),
        d_h=st.integers(1, 4),
        length=st.integers(1, 8),
        n_calib=st.integers(1, 3),
        n_eval=st.integers(1, 3),
        bits=st.sampled_from(VALID_BITS),
        k_calib=st.integers(-340, 340).map(lambda k: k / 2),
        k_eval=st.integers(-340, 340).map(lambda k: k / 2),
    )
    def test_every_number_is_finite_or_the_run_is_refused(
        self, seed, d, d_h, length, n_calib, n_eval, bits, k_calib, k_eval
    ):
        # Calibration and held-out sets each scaled by 10^k: every number in
        # the checkpoint, the report and the evaluation is finite, or the run
        # raises NumericalError or DataError. No warning may escape either.
        head, seqs = generate_synthetic(seed, d, min(d_h, d), length, n_calib + n_eval)
        calib = [CalibSequence(seq.x * 10.0**k_calib) for seq in seqs[:n_calib]]
        held_out = [CalibSequence(seq.x * 10.0**k_eval) for seq in seqs[n_calib:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in METHODS:
                cfg = PipelineConfig(bits=bits, method=method, soft=SoftQuantConfig(iterations=20))
                try:
                    doc, report = quantize_head(head, calib, cfg)
                    evaluation = evaluate_quantized(head, dequantized_head(doc), held_out)
                except (NumericalError, DataError):
                    continue
                json.dumps([doc, report, evaluation], allow_nan=False)  # raises on NaN or Inf

    def test_eval_refuses_an_overflowing_reference_norm(self):
        # The squared outputs of the x 10^153.5 held-out set overflow in the
        # reference norm while the error sum stays finite; sqrt(err / inf)
        # would report a perfect relative error of 0.
        head, seqs = generate_synthetic(0, 8, 2, 4, 6)
        doc, _ = quantize_head(head, seqs[:3], PipelineConfig(bits=2, method="optq"))
        held_out = [CalibSequence(seq.x * 10.0**153.5) for seq in seqs[3:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="reference"):
                evaluate_quantized(head, dequantized_head(doc), held_out)

    def test_eval_refuses_an_underflowing_reference_norm(self):
        # The squared outputs of the x 10^-162 held-out set underflow to a
        # reference norm of 0 (and an error sum of 0), which would read as a
        # perfect relative error of 0; at x 10^-160 the error reads 0.2359.
        head, seqs = generate_synthetic(0, 8, 2, 4, 6)
        quantized = dequantized_head(quantize_head(head, seqs[:3], PipelineConfig(bits=2, method="optq"))[0])
        visible = evaluate_quantized(head, quantized, [CalibSequence(seq.x * 1e-160) for seq in seqs[3:]])
        assert visible["relative_output_error"] > 0.2
        held_out = [CalibSequence(seq.x * 1e-162) for seq in seqs[3:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="underflows"):
                evaluate_quantized(head, quantized, held_out)

    def test_eval_of_all_zero_outputs_reads_zero(self):
        # a zero norm from outputs that are exactly zero is not an underflow
        head, seqs = generate_synthetic(0, 8, 2, 4, 6)
        quantized = dequantized_head(quantize_head(head, seqs[:3], PipelineConfig(bits=2, method="optq"))[0])
        evaluation = evaluate_quantized(head, quantized, [CalibSequence(np.zeros((8, 4)))] * 2)
        assert evaluation["relative_output_error"] == 0.0 == evaluation["mean_attention_error"]


class TestStackedRounding:
    @pytest.mark.parametrize("method", METHODS)
    def test_one_rounding_call_per_head(self, monkeypatch, method):
        slabs_per_call = []
        real = pipeline.optimize_rounding

        def counting(w, *args, **kwargs):
            slabs_per_call.append(len(w))
            return real(w, *args, **kwargs)

        monkeypatch.setattr(pipeline, "optimize_rounding", counting)
        cfg = PipelineConfig(bits=2, method=method, soft=SoftQuantConfig(iterations=20))
        for seed in (0, 1):
            head, seqs = generate_synthetic(seed, 8, 4, 6, 5)
            quantize_head(head, seqs, cfg)
        assert slabs_per_call == ([3, 3] if method == "aespa" else [])

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"projections": "QK"}, {"value_kind": "other"}, {"projections": ""}],
        ids=["default", "projections-QK", "value-kind-other", "no-projections"],
    )
    def test_matches_per_projection_reference_runs(self, monkeypatch, tmp_path, overrides):
        head, seqs = generate_synthetic(21, 12, 4, 6, 8)
        cfg = PipelineConfig(bits=2, method="aespa", soft=SoftQuantConfig(iterations=150), **overrides)
        runs = {}
        for label in ("stacked", "reference"):
            with monkeypatch.context() as m:
                if label == "reference":
                    m.setattr(pipeline, "optimize_rounding", per_projection_rounding)
                counter = FlopCounter()
                doc, report = quantize_head(
                    head, seqs, cfg, counter=counter, trace_prefix=tmp_path / label
                )
            traces = {
                path.name.split("_", 1)[1]: path.read_bytes()
                for path in sorted(tmp_path.glob(f"{label}_*.csv"))
            }
            runs[label] = (json.dumps(doc), json.dumps(report), traces, counter.count)
        assert runs["stacked"] == runs["reference"]
        assert len(runs["stacked"][2]) == len(cfg.projections)

    def test_non_finite_rounding_names_the_projection(self, monkeypatch):
        overflowing_key_loss(monkeypatch)
        head, seqs = head_with_large_key(22)
        cfg = PipelineConfig(bits=2, method="aespa", soft=SoftQuantConfig(iterations=10))
        with pytest.raises(NumericalError, match=r"W_K \(aespa, key stage\): .*iteration 0"):
            quantize_head(head, seqs, cfg)


class TestWarmStarts:
    """Projections that share a curvature are fitted and compensated in one
    call each over their stacked rows: the curvature is factored once, and
    each projection gets the grid and warm start that it gets alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(4, 10),
        d_h=st.integers(1, 4),
        bits=st.sampled_from(VALID_BITS),
        method=st.sampled_from(METHODS),
        value_kind=st.sampled_from(["value", "other"]),
        projections=st.sampled_from(["VQK", "VQ", "VK", "QK", "V", "Q", "K"]),
        calib_scale=st.sampled_from([1.0, 1e-160]),
    )
    def test_stacked_groups_equal_per_projection_calls(
        self, seed, d, d_h, bits, method, value_kind, projections, calib_scale
    ):
        # 1e-160 makes every curvature's factor non-finite, so compensation
        # falls back to nearest rounding for the whole group
        head, seqs = generate_synthetic(seed, d, d_h, 3, 4)
        seqs = [CalibSequence(s.x * calib_scale) for s in seqs]
        cfg = PipelineConfig(bits=bits, method=method, projections=projections, value_kind=value_kind)
        stats = stats_module.accumulate_stats(head, seqs)
        letters = [letter for letter in "VQK" if letter in projections]
        weights = {letter: head.projection(pipeline._LETTER_TO_NAME[letter]) for letter in letters}
        contexts = {letter: context_for(pipeline._loss_kind(cfg, letter), stats) for letter in letters}
        quantized, compensated = pipeline._warm_starts(letters, weights, contexts, cfg)
        assert sorted(quantized) == sorted(compensated) == sorted(letters)
        for letter in letters:
            w = weights[letter]
            if method == "rtn":
                spec = fit_step_size(w, np.eye(d), bits)
                qw, rows = rtn_quantize(w, spec), w
            else:
                h = row_hessian(contexts[letter])
                qw, rows = optq_compensate(w, h, fit_step_size(w, h, bits))
            got = quantized[letter]
            np.testing.assert_array_equal(got.spec.scale, qw.spec.scale)
            np.testing.assert_array_equal(got.spec.zero_point, qw.spec.zero_point)
            assert got.spec.n_bits == bits
            np.testing.assert_array_equal(got.w_int, qw.w_int)
            assert got.fallback_rtn == qw.fallback_rtn
            np.testing.assert_array_equal(compensated[letter], rows)

    @pytest.mark.parametrize(
        "method, calls", [("rtn", 1), ("optq", 1), ("aespa-noround", 2), ("aespa", 2)]
    )
    def test_one_grid_fit_per_curvature(self, monkeypatch, method, calls):
        rows = []
        real = pipeline.fit_step_size

        def counting(w, *args):
            rows.append(w.shape[0])
            return real(w, *args)

        monkeypatch.setattr(pipeline, "fit_step_size", counting)
        head, seqs = generate_synthetic(24, 8, 4, 6, 5)
        quantize_head(head, seqs, PipelineConfig(bits=2, method=method, soft=SoftQuantConfig(iterations=5)))
        assert len(rows) == calls and sum(rows) == 3 * head.d_h

    @pytest.mark.parametrize(
        "method, projections, named",
        [("optq", "VQK", "W_V (optq, other stage), W_Q (optq, other stage), W_K (optq, other stage)"),
         ("aespa", "QK", "W_Q (aespa, query stage), W_K (aespa, key stage)")],
    )
    def test_fit_error_names_every_projection_of_its_group(self, monkeypatch, method, projections, named):
        monkeypatch.setattr(pipeline, "row_hessian", lambda ctx: np.full((ctx.right.shape[0],) * 2, np.inf))
        head, seqs = generate_synthetic(25, 8, 4, 6, 5)
        cfg = PipelineConfig(bits=2, method=method, projections=projections)
        with pytest.raises(DataError) as info:
            quantize_head(head, seqs, cfg)
        assert str(info.value) == f"{named}: fit_step_size needs finite weights and curvature"

    @pytest.mark.parametrize(
        "method, value_kind, factors",
        [("optq", "value", 1), ("aespa-noround", "value", 2), ("aespa", "value", 2),
         ("aespa", "other", 1)],
    )
    def test_one_factor_per_curvature_and_per_projection_results(
        self, monkeypatch, method, value_kind, factors
    ):
        head, seqs = generate_synthetic(23, 12, 4, 6, 8)
        cfg = PipelineConfig(
            bits=2, method=method, value_kind=value_kind, soft=SoftQuantConfig(iterations=20)
        )
        stats = stats_module.accumulate_stats(head, seqs)
        names = ("W_V", "W_Q", "W_K")
        expected = {}
        for letter, name in zip("VQK", names):
            h = row_hessian(context_for(pipeline._loss_kind(cfg, letter), stats))
            w = head.projection(name)
            expected[name] = optq_compensate(w, h, fit_step_size(w, h, cfg.bits))

        factored, warm = [], []
        real_factor, real_rounding = quantizer._inverse_factor, pipeline.optimize_rounding

        def counting_factor(hessian):
            factored.append(hessian.shape)
            return real_factor(hessian)

        def capturing_rounding(w, spec, *args, **kwargs):
            warm.extend(zip(w, spec))
            return real_rounding(w, spec, *args, **kwargs)

        monkeypatch.setattr(quantizer, "_inverse_factor", counting_factor)
        monkeypatch.setattr(pipeline, "optimize_rounding", capturing_rounding)
        doc, _ = quantize_head(head, seqs, cfg)
        assert factored == [(12, 12)] * factors
        if method == "aespa":
            assert len(warm) == 3
            for (w, spec), name in zip(warm, names):
                qw, compensated = expected[name]
                np.testing.assert_array_equal(w, compensated)
                np.testing.assert_array_equal(spec.scale, qw.spec.scale)
                np.testing.assert_array_equal(spec.zero_point, qw.spec.zero_point)
        else:
            for name, (qw, _) in expected.items():
                assert doc["projections"][name] == quantized_to_json(qw)

    @pytest.mark.parametrize("method", ["aespa-noround", "aespa"])
    def test_shared_non_finite_factor_flags_query_and_key(self, method):
        # E[XX^T] has a mean diagonal of about 3e-320: the damped inverse
        # overflows and the one factor that Q and K share is not finite
        head, seqs = generate_synthetic(1, 8, 2, 4, 3)
        seqs = [CalibSequence(s.x * 1e-160) for s in seqs]
        cfg = PipelineConfig(
            bits=2, method=method, projections="QK", soft=SoftQuantConfig(iterations=20)
        )
        doc, report = quantize_head(head, seqs, cfg)
        for name in ("W_Q", "W_K"):
            assert report["projections"][name]["fallback_rtn"] is True
            assert doc["projections"][name]["fallback_rtn"] is True


class TestCli:
    def test_gen_quantize_eval_roundtrip(self, tmp_path):
        runner = CliRunner()
        model = tmp_path / "m.json"
        calib = tmp_path / "c.json"
        evald = tmp_path / "e.json"
        out = tmp_path / "q.json"
        report = tmp_path / "r.json"
        res = runner.invoke(
            main,
            [
                "gen", "--seed", "0", "--d", "8", "--dh", "4", "--length", "6",
                "--n-sequences", "8", "--model-out", str(model), "--calib-out", str(calib),
                "--n-eval", "4", "--eval-out", str(evald),
            ],
        )
        assert res.exit_code == 0, res.output
        assert model.exists() and calib.exists() and evald.exists()
        assert len(load_calibration(calib)) == 8
        assert len(load_calibration(evald)) == 4

        res = runner.invoke(
            main,
            [
                "quantize", "--model", str(model), "--calib", str(calib),
                "--output", str(out), "--bits", "2", "--method", "aespa",
                "--iterations", "100", "--report-out", str(report),
            ],
        )
        assert res.exit_code == 0, res.output
        doc = load_quantized(out)
        assert doc["method"] == "aespa"
        rep = json.loads(report.read_text())
        assert rep["schema_version"] == 1
        assert set(rep["projections"]) == {"W_Q", "W_K", "W_V"}

        res = runner.invoke(
            main, ["eval", "--model", str(model), "--quantized", str(out), "--data", str(evald)]
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["mean_attention_error"] > 0.0
        assert payload["schema_version"] == 1

    def test_gen_determinism(self, tmp_path):
        runner = CliRunner()
        paths = []
        for tag in ("a", "b"):
            model = tmp_path / f"m_{tag}.json"
            calib = tmp_path / f"c_{tag}.json"
            res = runner.invoke(
                main,
                ["gen", "--seed", "3", "--model-out", str(model), "--calib-out", str(calib)],
            )
            assert res.exit_code == 0
            paths.append((model, calib))
        assert paths[0][0].read_text() == paths[1][0].read_text()
        assert paths[0][1].read_text() == paths[1][1].read_text()

    @pytest.mark.parametrize(
        "flags, code",
        [(["--eval-out", "e.json"], 3), (["--n-eval", "0", "--eval-out", "e.json"], 3),
         (["--n-eval", "3"], 3), (["--n-eval", "-5", "--eval-out", "e.json"], 2)],
    )
    def test_gen_rejects_mismatched_eval_flags(self, tmp_path, flags, code):
        model, calib = tmp_path / "m.json", tmp_path / "c.json"
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        res = CliRunner().invoke(
            main, ["gen", "--model-out", str(model), "--calib-out", str(calib), *flags]
        )
        assert res.exit_code == code, res.output
        assert isinstance(res.exception, SystemExit)
        assert list(tmp_path.iterdir()) == []  # nothing written

    def test_usage_error_exit_code_two(self):
        res = CliRunner().invoke(main, ["quantize", "--no-such-flag"])
        assert res.exit_code == 2

    def test_data_error_exit_code_three(self, tmp_path):
        res = CliRunner().invoke(
            main,
            [
                "quantize", "--model", str(tmp_path / "missing.json"),
                "--calib", str(tmp_path / "missing2.json"),
                "--output", str(tmp_path / "o.json"),
            ],
        )
        assert res.exit_code == 3
        assert "error" in res.output

    def test_non_finite_rounding_exit_code_four(self, tmp_path, monkeypatch):
        overflowing_key_loss(monkeypatch)
        head, seqs = head_with_large_key(23)
        model, calib, out = tmp_path / "model.json", tmp_path / "calib.json", tmp_path / "q.json"
        save_checkpoint(head, model)
        save_calibration(seqs, calib)
        res = CliRunner().invoke(
            main,
            ["quantize", "--model", str(model), "--calib", str(calib), "--output", str(out),
             "--bits", "2", "--method", "aespa", "--iterations", "10"],
        )
        assert res.exit_code == 4, res.output
        assert "W_K (aespa, key stage)" in res.output and "non-finite" in res.output
        assert not out.exists()

    def test_non_finite_report_number_exit_code_four(self, tmp_path):
        # finite data whose query/key trace losses overflow
        model, calib = scaled_files(tmp_path, 1e100)
        out = tmp_path / "q.json"
        res = CliRunner().invoke(
            main,
            ["quantize", "--model", str(model), "--calib", str(calib), "--output", str(out),
             "--method", "aespa-noround"],
        )
        assert res.exit_code == 4, res.output
        assert res.stderr == (
            "numerical failure: W_Q (aespa-noround, query stage): refined_loss is nan, "
            "not a finite number\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("method", ["optq", "aespa-noround", "aespa"])
    def test_non_finite_cholesky_factor_falls_back_to_rtn(self, tmp_path, method):
        # the curvature's mean diagonal is about 6e-320, so the damped inverse
        # overflows and its Cholesky factor is not finite
        model, calib = scaled_files(tmp_path, 1e-160)
        report_out = tmp_path / "report.json"
        res = CliRunner().invoke(
            main,
            ["quantize", "--model", str(model), "--calib", str(calib), "--output",
             str(tmp_path / "q.json"), "--report-out", str(report_out), "--method", method,
             "--iterations", "20"],
        )
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        report = json.loads(report_out.read_text())
        assert report["projections"]["W_V"]["fallback_rtn"] is True
        assert all(np.isfinite(x) for x in numbers(report))

    def test_failed_run_writes_no_output(self, tmp_path):
        head, seqs, model, calib = make_files(tmp_path, seed=11)
        bad_calib = tmp_path / "bad.json"
        bad_calib.write_text('{"d": 8, "L": 6}')  # missing sequences
        out = tmp_path / "q.json"
        res = CliRunner().invoke(
            main,
            ["quantize", "--model", str(model), "--calib", str(bad_calib), "--output", str(out)],
        )
        assert res.exit_code == 3
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        head, seqs, model, calib = make_files(tmp_path, seed=12)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bits": 2, "method": "rtn", "projections": "V"}))
        out = tmp_path / "q.json"
        res = CliRunner().invoke(
            main,
            [
                "quantize", "--model", str(model), "--calib", str(calib),
                "--output", str(out), "--config", str(cfg_path), "--bits", "4",
            ],
        )
        assert res.exit_code == 0, res.output
        doc = load_quantized(out)
        assert doc["n_bits"] == 4  # flag overrides config
        assert set(doc["projections"]) == {"W_V"}  # config supplies the rest

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"iteratons": 5}, "iteratons"),
            ({"bits": 3.7}, "bits"),
            ({"iterations": "abc"}, "iterations"),
            ({"iterations": None}, "iterations"),
            ({"order": "VQK"}, "order"),
        ],
        ids=["unknown-key", "float-bits", "string-iterations", "null-iterations", "removed-order"],
    )
    def test_config_file_rejects_unknown_keys_and_wrong_types(self, tmp_path, config, key):
        _, _, model, calib = make_files(tmp_path, seed=12)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "q.json"
        res = CliRunner().invoke(
            main,
            [
                "quantize", "--model", str(model), "--calib", str(calib),
                "--output", str(out), "--config", str(cfg_path),
            ],
        )
        assert res.exit_code == 3, res.output
        assert f"'{key}'" in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--learning-rate", "nan"), ("--rounding-weight", "-5")],
        ids=["nan-learning-rate", "negative-rounding-weight"],
    )
    def test_quantize_rejects_bad_rounding_settings(self, tmp_path, flag, value):
        _, _, model, calib = make_files(tmp_path, seed=12)
        out = tmp_path / "q.json"
        res = CliRunner().invoke(
            main,
            ["quantize", "--model", str(model), "--calib", str(calib),
             "--output", str(out), "--iterations", "5", flag, value],
        )
        assert res.exit_code == 3, res.output
        assert not out.exists()

    def test_quantize_refuses_an_overflowing_rounding_weight(self, tmp_path):
        # 1e308 is finite, but 1e308 times the weights per projection is not
        self.check_refused_rounding_weight(tmp_path, "1e308")

    def test_quantize_refuses_a_rounding_weight_whose_gradient_overflows(self, tmp_path):
        # 1e307 times the weights per projection is finite, but 1e307 times
        # the regularizer gradient's 2 * beta = 40 is not
        self.check_refused_rounding_weight(tmp_path, "1e307")

    def check_refused_rounding_weight(self, tmp_path, value):
        _, _, model, calib = make_files(tmp_path, seed=12)
        out = tmp_path / "q.json"
        res = CliRunner().invoke(
            main,
            ["quantize", "--model", str(model), "--calib", str(calib), "--output", str(out),
             "--iterations", "5", "--rounding-weight", value,
             "--trace-prefix", str(tmp_path / "trace")],
        )
        assert res.exit_code == 3, res.output
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "rounding weight" in res.stderr
        assert not out.exists() and not list(tmp_path.glob("trace*"))

    def test_quantize_defaults_come_from_the_dataclasses(self, tmp_path, monkeypatch):
        _, _, model, calib = make_files(tmp_path, seed=12)
        seen = []

        def spy(head, seqs, cfg, **kwargs):
            seen.append(cfg)
            raise DataError("stop after the config is built")

        monkeypatch.setattr(cli, "quantize_head", spy)
        res = CliRunner().invoke(
            main, ["quantize", "--model", str(model), "--calib", str(calib), "--output", str(tmp_path / "q.json")]
        )
        assert res.exit_code == 3, res.output
        assert seen == [PipelineConfig()]
        assert seen[0].soft == SoftQuantConfig()

    def test_flops_single_point_and_itemization(self):
        res = CliRunner().invoke(
            main, ["flops", "--d", "768", "--dh", "64", "--L", "2048", "--B", "4"]
        )
        assert res.exit_code == 0
        assert "239124477" in res.output.replace(",", "")
        assert "6744432636" in res.output.replace(",", "")
        assert "per-sequence" in res.output

    @pytest.mark.parametrize(
        "target, path, value, message",
        [
            ("model", ["d"], "abc", "checkpoint: field 'd' must be a JSON integer, got \"abc\""),
            ("model", ["d_h"], 4.0, "checkpoint: field 'd_h' must be a JSON integer, got 4.0"),
            ("calib", ["L"], "6", "calibration file: field 'L' must be a JSON integer"),
            ("calib", ["d"], None, "calibration file: field 'd' must be a JSON integer, got null"),
            ("quantized", ["d"], "abc", "quantized checkpoint: field 'd' must be a JSON integer"),
            ("quantized", ["d_h"], True, "quantized checkpoint: field 'd_h' must be a JSON integer, got true"),
            ("quantized", ["projections", "W_V", "n_bits"], 4.5, "W_V: field 'n_bits' must be a JSON integer"),
            ("quantized", ["projections", "W_V", "w_int", 0, 0], "x", "W_V: field 'w_int' must hold JSON integers"),
            ("quantized", ["projections", "W_V", "w_int", 0, 0], 1.7, "W_V: field 'w_int' must hold JSON integers"),
            ("quantized", ["projections", "W_Q", "w_int", 0], [1], "W_Q: field 'w_int' must hold JSON integers"),
            ("quantized", ["projections", "W_Q", "zero_point", 0], 1.7, "W_Q: field 'zero_point' must hold JSON integers"),
            ("quantized", ["projections", "W_V", "scale", 0], float("nan"), "W_V: field 'scale' must hold finite JSON numbers"),
            ("quantized", ["projections", "W_V", "scale", 0], "1.0", "W_V: field 'scale' must hold finite JSON numbers"),
            ("quantized", ["projections", "W_V", "scale", 0], True, "W_V: field 'scale' must hold finite JSON numbers"),
            ("quantized", ["projections", "W_V", "w_int", 0, 0], True, "W_V: field 'w_int' must hold JSON integers"),
            ("quantized", ["projections", "W_Q", "zero_point", 0], True, "W_Q: field 'zero_point' must hold JSON integers"),
            ("quantized", ["projections", "W_V", "n_bits"], 100,
             "quantized checkpoint: W_V: n_bits must be one of (2, 3, 4, 6, 8), got 100"),
            ("quantized", ["projections", "W_V", "n_bits"], 5,
             "quantized checkpoint: W_V: n_bits must be one of (2, 3, 4, 6, 8), got 5"),
            ("quantized", ["projections", "W_Q", "zero_point", 0], 16,
             "quantized checkpoint: W_Q: zero_point outside the integer grid"),
            ("quantized", ["projections", "W_V", "w_int", 0, 0], 16,
             "quantized checkpoint: W_V: integer weight outside the grid"),
            ("quantized", ["projections", "W_V", "scale", 0], -0.5,
             "quantized checkpoint: W_V: every row scale must be positive"),
            ("model", ["W_Q", 0, 0], True, "checkpoint: field 'W_Q' must hold JSON numbers only"),
            ("model", ["W_V", 0, 0], "1.0", "checkpoint: field 'W_V' must hold JSON numbers only"),
            ("calib", ["sequences", 0, 0, 0], False, "calibration file: sequences[0] must hold JSON numbers only"),
            ("quantized", ["full_precision", "W_K", 0, 0], True,
             "quantized checkpoint: full_precision: W_K must hold JSON numbers only"),
            ("quantized", ["full_precision", "W_K", 0, 0], "x",
             "quantized checkpoint: full_precision: W_K must hold JSON numbers only"),
            ("quantized", ["full_precision", "W_K", 0], [1.0],
             "quantized checkpoint: full_precision: W_K must hold JSON numbers only"),
            ("quantized", ["projections", "W_V", "fallback_rtn"], "false",
             "quantized checkpoint: W_V: field 'fallback_rtn' must be a JSON boolean, got \"false\""),
            ("quantized", ["projections", "W_Q", "fallback_rtn"], 0,
             "quantized checkpoint: W_Q: field 'fallback_rtn' must be a JSON boolean, got 0"),
            ("quantized", ["projections", "W_V", "zero_point"], [1],
             "quantized checkpoint: W_V: scale and zero_point must have matching length"),
            ("quantized", ["projections", "W_V", "w_int"], [1, 2, 3],
             "quantized checkpoint: W_V: w_int must be a 2-D integer matrix"),
            ("quantized", ["projections", "W_V", "w_int"], [[1] * 8] * 3,
             "quantized checkpoint: W_V: w_int row count must match the spec's row count"),
            ("quantized", ["projections", "W_Q", "w_int"], [[1] * 7] * 4,
             "quantized checkpoint: W_Q has the wrong shape"),
        ],
        ids=["d-string", "d_h-float", "L-string", "d-null", "quantized-d-string",
             "quantized-d_h-bool", "n_bits-float", "w_int-string", "w_int-float", "w_int-ragged",
             "zero_point-float", "scale-nan", "scale-string", "scale-bool", "w_int-bool",
             "zero_point-bool", "n_bits-100", "n_bits-5", "zero_point-off-grid", "w_int-off-grid",
             "scale-negative", "W_Q-bool", "W_V-numeric-string", "sequence-bool", "full_precision-bool",
             "full_precision-string", "full_precision-ragged", "fallback_rtn-string",
             "fallback_rtn-int", "zero_point-length", "w_int-1d", "w_int-rows", "w_int-width"],
    )
    def test_malformed_numeric_fields_exit_code_three(self, tmp_path, target, path, value, message):
        head, seqs, model, calib = make_files(tmp_path, seed=18)
        files = {"model": model, "calib": calib, "quantized": tmp_path / "q.json"}
        # W_K is carried at full precision, in the quantized checkpoint's full_precision block
        quantize = ["quantize", "--model", str(model), "--calib", str(calib), "--method", "rtn",
                    "--projections", "VQ"]
        res = CliRunner().invoke(main, quantize + ["--output", str(files["quantized"])])
        assert res.exit_code == 0, res.output
        doc = json.loads(files[target].read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        files[target].write_text(json.dumps(doc))
        if target in ("model", "quantized"):
            args = ["eval", "--model", str(model), "--quantized", str(files["quantized"]), "--data", str(calib)]
        else:
            args = quantize + ["--output", str(tmp_path / "q2.json")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)  # handled: no traceback
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert message in res.stderr

    @pytest.mark.parametrize(
        "target, content, message",
        [
            ("config", "{", "config file: invalid JSON in "),
            ("model", "[1]", "checkpoint: expected a JSON object at top level in "),
            ("config", '{"value_kind": "keys"}', "value_kind must be 'value' or 'other'"),
            ("calib", json.dumps({"d": 8, "L": 0, "sequences": [[[]] * 8]}),
             "calibration file: sequences[0]: calibration sequence must contain at least one token"),
        ],
        ids=["invalid-json", "top-level-list", "value-kind", "no-tokens"],
    )
    def test_malformed_files_exit_code_three(self, tmp_path, target, content, message):
        _, _, model, calib = make_files(tmp_path, seed=18)
        files = {"model": model, "calib": calib, "config": tmp_path / "cfg.json"}
        files[target].write_text(content)
        out = tmp_path / "q.json"
        args = ["quantize", "--model", str(model), "--calib", str(calib), "--output", str(out)]
        if target == "config":
            args += ["--config", str(files["config"])]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 3, res.output
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert message in res.stderr
        assert not out.exists()

    def test_flops_table_and_csv(self, tmp_path):
        csv_out = tmp_path / "table.csv"
        res = CliRunner().invoke(main, ["flops", "--csv", str(csv_out)])
        assert res.exit_code == 0
        assert "6.7" in res.output and "0.24" in res.output
        lines = csv_out.read_text().strip().splitlines()
        assert len(lines) == 7  # header + six presets

    def test_flops_requires_both_dims(self):
        res = CliRunner().invoke(main, ["flops", "--d", "64"])
        assert res.exit_code == 3

    def test_check_command_passes(self):
        res = CliRunner().invoke(main, ["check", "--seed", "0"])
        assert res.exit_code == 0, res.output
        assert "all 6 checks passed" in res.output
        assert "FAIL" not in res.output

    def test_check_command_fails_with_numerical_exit(self, monkeypatch):
        failing = checks.CheckResult("upper-bound inequality", False, "3 violations")
        monkeypatch.setattr(checks, "check_upper_bound_inequality", lambda seed: failing)
        res = CliRunner().invoke(main, ["check"])
        assert res.exit_code == 4
        assert "[FAIL] upper-bound inequality" in res.output
        assert res.output.count("[PASS]") == 5

    def test_check_seed_draws_fresh_instances(self, monkeypatch):
        runs = [CliRunner().invoke(main, ["check", "--seed", seed]) for seed in ("0", "1")]
        assert [r.exit_code for r in runs] == [0, 0], runs[1].output
        lines0, lines1 = (r.output.splitlines()[1:7] for r in runs)
        # the constant-cost line reports flop counts, which depend on shapes
        # only, so show that the seed reaches its instance draw directly
        assert [a != b for a, b in zip(lines0, lines1)] == [True] * 5 + [False]
        drawn = []
        real = checks.generate_synthetic

        def recording(seed, *args):
            drawn.append(seed)
            return real(seed, *args)

        monkeypatch.setattr(checks, "generate_synthetic", recording)
        checks.check_constant_cost_contract(1)
        assert drawn == [10 + checks.SEED_STRIDE]

    def test_check_rejects_negative_seed(self):
        assert CliRunner().invoke(main, ["check", "--seed", "-1"]).exit_code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "1"), ("--order", "VQK"), ("--stats-cache", "s.json")],
        ids=["seed", "order", "stats-cache"],
    )
    def test_quantize_rejects_removed_flags(self, tmp_path, flag, value):
        head, seqs, model, calib = make_files(tmp_path, seed=16)
        res = CliRunner().invoke(
            main,
            ["quantize", "--model", str(model), "--calib", str(calib),
             "--output", str(tmp_path / "q.json"), flag, value],
        )
        assert res.exit_code == 2

    def test_trace_prefix_writes_csv(self, tmp_path):
        head, seqs, model, calib = make_files(tmp_path, seed=13)
        out = tmp_path / "q.json"
        prefix = tmp_path / "trace"
        res = CliRunner().invoke(
            main,
            [
                "quantize", "--model", str(model), "--calib", str(calib),
                "--output", str(out), "--bits", "2", "--method", "aespa",
                "--iterations", "5", "--projections", "V", "--trace-prefix", str(prefix),
            ],
        )
        assert res.exit_code == 0, res.output
        assert (tmp_path / "trace_W_V.csv").exists()


class TestSeedSweep:
    def test_learned_method_beats_naive_baseline_at_two_bits(self):
        # 20-seed sweep comparing full quantized heads on the calibration
        # data (reconstruction); learned pipeline median <= naive median
        errors = {"rtn": [], "aespa": []}
        for seed in range(20):
            head, seqs = generate_synthetic(seed, 16, 4, 8, 32)
            for method in errors:
                cfg = PipelineConfig(bits=2, method=method)
                doc, _ = quantize_head(head, seqs, cfg)
                rep = evaluate_quantized(head, dequantized_head(doc), seqs)
                errors[method].append(rep["mean_attention_error"])
        assert np.median(errors["aespa"]) <= np.median(errors["rtn"])


class TestQuantizedCheckpointIO:
    def test_round_trip(self, tmp_path):
        head, seqs, _, _ = make_files(tmp_path, seed=14)
        doc, _ = quantize_head(head, seqs, PipelineConfig(bits=4, method="optq"))
        path = tmp_path / "q.json"
        save_quantized(doc, path)
        loaded = load_quantized(path)
        h1 = dequantized_head(doc)
        h2 = dequantized_head(loaded)
        np.testing.assert_array_equal(h1.w_v, h2.w_v)

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(DataError):
            load_quantized(path)

    def test_missing_projection_rejected(self):
        with pytest.raises(DataError, match="W_K"):
            dequantized_head(
                {"d": 4, "d_h": 2, "projections": {}, "full_precision": {
                    "W_Q": [[0.0] * 4] * 2, "W_V": [[0.0] * 4] * 2}}
            )
