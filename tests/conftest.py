"""Shared helpers for the test suite. All randomness is seeded, and the
``hypothesis`` properties draw the same examples on every run."""

import time
from dataclasses import dataclass

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import settings

from attnquant import checks
from attnquant.cli import main

# A property that fails on some draw then fails on every run, not now and then.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def trace_quad(w: np.ndarray, m: np.ndarray) -> float:
    """tr(W M W^T) evaluated as sum((W @ M) * W) without forming the product
    W M W^T; the two expressions are mathematically identical."""
    return float(np.sum((w @ m) * w))


@dataclass
class CheckRun:
    """What one ``attnquant check`` run returned and printed, and the
    (CheckResult, elapsed seconds) of each criterion it ran, in order."""

    exit_code: int
    stdout: str
    stderr: str
    criteria: list


@pytest.fixture(scope="session")
def check_seed0() -> CheckRun:
    """The suite's one real ``attnquant check --seed 0`` run, which the
    acceptance tests, the golden record of its output and the CLI tests
    read. Each criterion is timed around the call that the command makes."""
    criteria = []

    def timed(check):
        def run(seed):
            t0 = time.perf_counter()
            result = check(seed)
            criteria.append((result, time.perf_counter() - t0))
            return result

        return run

    with pytest.MonkeyPatch.context() as m:
        m.setattr(checks, "CHECKS", tuple(map(timed, checks.CHECKS)))
        res = CliRunner().invoke(main, ["check", "--seed", "0"])
    return CheckRun(res.exit_code, res.stdout, res.stderr, criteria)
