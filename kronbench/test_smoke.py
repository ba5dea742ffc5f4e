"""Smoke test of the benchmark: every workload on a tiny seeded input, both
modes, every metric of BENCHMARK.json printed and no failed answer.

    python3 -m pytest -q kronbench/test_smoke.py
"""

import json
import multiprocessing
import sys
from array import array
from collections import Counter

import pytest

from run import ROOT, SRC

sys.path.insert(0, str(SRC))
from measure import run  # noqa: E402
from workloads import (CheckResult, ClosedQueries, OracleCold, PassResult, Table,  # noqa: E402
                       VerifySweep, Workload)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "closed-queries": lambda: ClosedQueries(queries=40, tworow_n=(20, 60), hook_n=(8, 10)),
    "oracle-cold": lambda: OracleCold(per_n=2, n_lo=9, n_hi=10),
    "table-n10": lambda: Table(n=5),
    "verify-sweep": lambda: VerifySweep(n_max=6),
}


def test_tiny_workloads_cover_every_benchmark_workload():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_prints_every_metric_and_fails_nothing(name, trace, section):
    result, stamp = run(TINY[name](), seed=7, seconds=0.2, trace=trace)
    assert result["correct"], stamp["errors"]
    assert result["failed"] == 0 and stamp["failed_ratio"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    first, second = ClosedQueries(queries=40), ClosedQueries(queries=40)
    first.prepare(3)
    second.prepare(3)
    assert first.presented == second.presented


class Drifting(Workload):
    """Every pass answers its second question differently."""

    name = "drifting"

    def prepare(self, seed):
        self.passes = 0

    def run_pass(self):
        self.passes += 1
        return PassResult(1e-3, array("d", [1e-3, 1e-3]), 2, [0, self.passes], array("d", [1e-3]))

    def check(self, result):
        return CheckResult(2, 0, Counter(), [])

    def n_range(self):
        return [1, 1]


def test_later_pass_that_differs_from_the_first_counts_as_failed():
    result, stamp = run(Drifting(), seed=1, seconds=0.05, trace=False)
    assert stamp["passes"] > 1
    assert result["failed"] == stamp["passes"] - 1 and not result["correct"]


def test_traced_sweep_fails_when_the_pool_does_not_fork():
    method = multiprocessing.get_start_method()
    multiprocessing.set_start_method("spawn", force=True)
    try:
        result, _ = run(VerifySweep(n_max=4), seed=1, seconds=0.1, trace=True)
    finally:
        multiprocessing.set_start_method(method, force=True)
    assert result["failed"] > 0 and not result["correct"]
