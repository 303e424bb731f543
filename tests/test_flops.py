import numpy as np
import pytest

from attnquant.errors import DataError
from attnquant.flops import (
    CostParams,
    FlopCounter,
    OPT_PRESETS,
    cost_table,
    existing_itemization,
    flops_existing,
    flops_refined,
    gflops_str,
    refined_projection_flops,
    trace_loss_flops,
)


class TestRefined:
    def test_unit_dimensions(self):
        assert flops_refined(CostParams(d=1, d_h=1)) == 8

    def test_reference_model_counts(self):
        assert flops_refined(CostParams(d=768, d_h=64)) == 239_124_477
        assert flops_refined(CostParams(d=2048, d_h=64)) == 1_644_298_237
        assert gflops_str(239_124_477) == "0.24"
        assert gflops_str(1_644_298_237) == "1.6"

    def test_sum_of_projection_terms(self):
        for d, d_h in ((768, 64), (17, 3), (2560, 80)):
            p = CostParams(d=d, d_h=d_h)
            per = refined_projection_flops(p)
            assert per["value"] + per["query"] + per["key"] == flops_refined(p)

    def test_trace_loss_and_gradient_counts(self):
        # the loss counts are the published closed forms; the gradient
        # doubles the product (d_h d) where the loss multiplies and
        # reduces it against DW (2 d_h d - 1)
        for d, d_h in ((1, 1), (17, 3), (768, 64)):
            value = 2 * d_h * d**2 + d_h * d - 1
            query_key = 2 * d_h * d**2 + 2 * d_h**2 * d - 1
            assert trace_loss_flops(d_h, d, identity_left=True) == (value, value - d_h * d + 1)
            assert trace_loss_flops(d_h, d, identity_left=False) == (query_key, query_key - d_h * d + 1)

    def test_independent_of_batch(self):
        a = flops_refined(CostParams(d=64, d_h=8, B=1))
        b = flops_refined(CostParams(d=64, d_h=8, B=64))
        assert a == b


class TestExisting:
    def test_unit_dimensions(self):
        assert flops_existing(CostParams(d=1, d_h=1, L=1, B=1)) == 10

    def test_reference_model_counts(self):
        assert flops_existing(CostParams(d=768, d_h=64, L=2048, B=4)) == 6_744_432_636
        assert gflops_str(6_744_432_636) == "6.7"
        val = flops_existing(CostParams(d=2560, d_h=80, L=2048, B=4))
        assert val == 15_468_584_956
        assert gflops_str(val) == "15"

    def test_linear_in_batch(self):
        p1 = CostParams(d=64, d_h=8, L=32, B=1)
        p7 = CostParams(d=64, d_h=8, L=32, B=7)
        assert flops_existing(p7) == 7 * flops_existing(p1)

    def test_itemization_sums_to_total(self):
        for d, d_h, L in ((768, 64, 2048), (16, 4, 8), (100, 10, 50)):
            p = CostParams(d=d, d_h=d_h, L=L, B=3)
            items = existing_itemization(p)
            assert 3 * sum(items.values()) == flops_existing(p)

    def test_validation(self):
        with pytest.raises(DataError):
            CostParams(d=0, d_h=1)


class TestCostTable:
    def test_subset_and_order(self):
        rows = cost_table(["2.7B", "125M"])
        assert [r["preset"] for r in rows] == ["2.7B", "125M"]

    def test_empty_preset_list_gives_empty_table(self):
        assert cost_table([]) == []

    def test_unknown_preset(self):
        with pytest.raises(DataError):
            cost_table(["9T"])

    def test_presets_cover_reference_family(self):
        assert list(OPT_PRESETS) == ["125M", "350M", "1.3B", "2.7B", "6.7B", "13B"]


class TestCounter:
    def test_accumulates(self):
        c = FlopCounter()
        c.add(3)
        c.add(np.int64(4))
        assert c.count == 7
