"""Acceptance suite: each of the ten criteria of ``attnquant.checks`` runs
on seed 0's instances within its time limit, and ``attnquant check`` prints
a PASS line for it. The criteria run once, in the suite's shared
``check --seed 0`` run (``conftest.check_seed0``). Every criterion is
seeded, so the printed numbers reproduce bit for bit.
"""

import pytest

from attnquant import checks

# (criterion number, check, time limit in seconds)
CRITERIA = (
    (1, checks.check_flop_table, 1.0),
    (2, checks.check_value_objective_exactness, 10.0),
    (3, checks.check_kronecker_identities, 10.0),
    (4, checks.check_taylor_convergence, 10.0),
    (5, checks.check_upper_bound_inequality, 10.0),
    (6, checks.check_gradients, 10.0),
    (7, checks.check_column_compensation, 30.0),
    (8, checks.check_end_to_end_ordering, 300.0),
    (9, checks.check_curvature_ablation, 120.0),
    (10, checks.check_constant_cost_contract, 60.0),
)


@pytest.mark.parametrize(
    "number, check, limit", CRITERIA, ids=[f"{n:02d}-{check.__name__[6:]}" for n, check, _ in CRITERIA]
)
def test_criterion(check_seed0, number, check, limit):
    # `attnquant check` ran this table
    assert len(checks.CHECKS) == len(CRITERIA) and checks.CHECKS[number - 1] is check
    assert len(check_seed0.criteria) == len(CRITERIA), check_seed0.stdout + check_seed0.stderr
    result, elapsed = check_seed0.criteria[number - 1]
    status = "PASS" if result.passed and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {number:2d} ({result.name}): {result.detail} [{elapsed:.2f}s < {limit:.0f}s]")
    assert result.passed, f"criterion {number}: {result.detail}"
    line = check_seed0.stdout.splitlines()[number]  # after the header line
    assert line.startswith(f"[PASS] {result.name} ") and line.endswith(f"  {result.detail}"), line
    assert elapsed < limit, f"criterion {number}: runtime {elapsed:.2f}s exceeded {limit}s"
