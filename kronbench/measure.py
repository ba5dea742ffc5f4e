"""Measuring one workload: timed passes, metrics, checks, the result stamp.

End-to-end metrics come from untraced passes; per-layer metrics from traced
ones (see tracing.py).  run.py is the command-line entry point.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter

from run import ROOT, SRC
from tracing import (CHAR_ROW_HITS, CLOSED_ANSWERS, FORMULA_CALLS, HYPOTHESIS_NOT_MET, SPANS,
                     STRIP_CACHE_ENTRIES, Tracer)
from workloads import PassResult

# setup_s: a fresh interpreter answering one trivial query through the CLI,
# which every command-line call pays.  Median of SETUP_RUNS starts, each
# scaled by the mean of two reference starts, just before and after it, of
# an interpreter that imports a few standard modules: a start slows down
# with the host as another start does, not as the probes do.
SETUP_RUNS = 7
SETUP_ARGV = ["-m", "kroncoef.cli", "compute", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1"]
SETUP_OUTPUT = "gamma = 1\nprovenance = TwoRowTwoRow\nmoves = (none)\n"
REFERENCE_START_ARGV = ["-c", "import argparse, csv, dataclasses, json"]
# Seconds the reference start takes on the host speed setup_s is scaled to.
REFERENCE_START_S = 0.05

# Seconds one reference probe (workloads.reference_work) takes on the host
# speed that reported times are scaled to: about its time on an unloaded
# 2-vCPU x86-64 virtual machine under CPython 3.11.
REFERENCE_S = 0.0025

PROVENANCES = ("DeltaRule", "TwoRowTwoRow", "HookHook", "HookTwoRow", "Oracle")


def measure_setup() -> tuple[float, bool]:
    """(median start-up seconds, whether every start printed the right answer)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def start(argv):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        return perf_counter() - t0, done

    times, ok = [], True
    for _ in range(SETUP_RUNS):
        before, _ = start(REFERENCE_START_ARGV)
        elapsed, done = start(SETUP_ARGV)
        after, _ = start(REFERENCE_START_ARGV)
        times.append(elapsed * REFERENCE_START_S / statistics.fmean((before, after)))
        ok = ok and done.returncode == 0 and done.stdout == SETUP_OUTPUT
    return statistics.median(times), ok


def tail(samples) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond
    it, i.e. the eleventh slowest sample; with fewer samples, the slowest."""
    ordered = sorted(samples)
    index = len(ordered) - (11 if len(ordered) >= 11 else 1)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Passes:
    """What a run keeps of its timed passes: the first pass whole, and of the
    others only what the metrics and the checks need."""

    first: PassResult
    scaled: list = field(default_factory=list)        # untraced passes, see scaled()
    walls: list = field(default_factory=list)         # untraced passes
    traced_walls: list = field(default_factory=list)
    child_cpu: list = field(default_factory=list)     # untraced passes
    probe_s: list = field(default_factory=list)       # median probe of each pass
    deviations: int = 0        # answers of later passes that differ from the first's

    @property
    def count(self) -> int:
        return len(self.walls) + len(self.traced_walls)

    def latencies(self) -> list[float]:
        """Per answer, the median of its scaled latencies over the passes."""
        return [statistics.median(column) for column in zip(*self.scaled)]


def deviations(result: PassResult, first: PassResult) -> int:
    return (sum(1 for a, b in zip(result.answers, first.answers) if a != b)
            + abs(len(result.answers) - len(first.answers)))


def scaled(result: PassResult) -> array:
    """The pass's latencies at the host speed at which one probe takes
    REFERENCE_S: each is divided by the median of the probes in the five
    slots around its own."""
    probes, latencies = result.probes, result.latencies
    slots = len(probes)
    local = [statistics.median(probes[max(0, k - 2):k + 3]) for k in range(slots)]
    return array("d", (x * REFERENCE_S / local[i * slots // len(latencies)]
                       for i, x in enumerate(latencies)))


def timed_passes(workload, seconds: float, tracer: Tracer | None = None) -> Passes:
    """Whole passes until the time is up; at least one, and with a tracer at
    least two, every second one traced so both kinds see the same machine."""
    passes = None
    start = perf_counter()
    while passes is None or perf_counter() - start < seconds or (tracer and passes.count < 2):
        traced = tracer is not None and passes is not None and passes.count % 2 == 1
        workload.reset()
        result = None  # the previous pass's answers are not held through this one
        if traced:
            workload.tracer = tracer
            with tracer.installed():
                result = workload.run_pass()
            workload.tracer = None
        else:
            result = workload.run_pass()
        if passes is None:
            passes = Passes(result)
        else:
            passes.deviations += deviations(result, passes.first)
        passes.probe_s.append(statistics.median(result.probes))
        if traced:
            passes.traced_walls.append(result.wall_s)
        else:
            passes.scaled.append(scaled(result))
            passes.walls.append(result.wall_s)
            passes.child_cpu.append(result.child_cpu_s)
    return passes


def end_to_end(workload, seconds: float):
    setup_s, setup_ok = measure_setup()
    workload.warm()
    passes = timed_passes(workload, seconds)
    rss = peak_rss_mb()
    # A shared host slows down in spells from milliseconds to minutes long.
    # The probes next to an answer slow down with it, so each latency is
    # scaled by them (see scaled); what is left of a spell is noise that the
    # median over the run's passes takes out.  A pass takes the sum.
    latencies = passes.latencies()
    percentile, slowest = tail(latencies)
    wall_s = math.fsum(latencies)
    metrics = {
        "latency_p50_us": (statistics.median(latencies) * 1e6, "us"),
        "latency_p99_us": (slowest * 1e6, "us"),
        "triples_per_s": (passes.first.triples / wall_s, "1/s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {"latency_samples": len(latencies), "latency_tail_percentile": round(percentile, 3),
             "probe_median_s": statistics.median(passes.probe_s),
             "setup_runs": SETUP_RUNS, "setup_output_ok": setup_ok}
    return passes, metrics, notes, setup_ok


def per_layer(workload, seconds: float):
    workload.warm()
    tracer = Tracer()
    passes = timed_passes(workload, seconds, tracer)
    count = len(passes.traced_walls)

    def per_pass(value):
        value /= count
        return int(value) if float(value).is_integer() else value

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {}
    for name in SPANS:
        metrics[name + ".calls"] = (per_pass(tracer.calls[name]), "count")
        metrics[name + ".self_s"] = (tracer.self_s[name] / count, "s")
    calls, events = tracer.calls, tracer.events
    compute_calls = calls["closed_forms.compute"]
    child_cpu = statistics.median(passes.child_cpu)
    plain_wall = statistics.median(passes.walls)
    traced_wall = statistics.median(passes.traced_walls)
    jobs = getattr(workload, "jobs", 1)
    metrics.update({
        "closed_forms.variants_per_call": (ratio(calls["closed_forms.try_closed"], compute_calls),
                                           "ratio"),
        "closed_forms.closed_ratio": (ratio(events[CLOSED_ANSWERS], compute_calls), "ratio"),
        "closed_forms.hypothesis_not_met": (per_pass(events[HYPOTHESIS_NOT_MET]), "count"),
        "lattice.formula_ratio": (ratio(events[FORMULA_CALLS],
                                        calls["lattice.gamma_region_closed"]), "ratio"),
        "characters.char_row.hit_ratio": (ratio(events[CHAR_ROW_HITS],
                                                calls["characters.char_row"]), "ratio"),
        STRIP_CACHE_ENTRIES: (tracer.gauges.get(STRIP_CACHE_ENTRIES, 0), "count"),
        "cli.pool.child_cpu_s": (child_cpu, "s"),
        "cli.pool.busy_ratio": (ratio(child_cpu, plain_wall * jobs), "ratio"),
        "bench.trace_overhead": (ratio(traced_wall, plain_wall), "ratio"),
    })
    notes = {"untraced_passes": len(passes.walls), "traced_passes": count}
    return passes, metrics, notes, True


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure and check one workload; returns (result line, stamp)."""
    workload.prepare(seed)
    measure = per_layer if trace else end_to_end
    passes, metrics, notes, setup_ok = measure(workload, seconds)
    checked = workload.check(passes.first)  # later passes count where they differ from it
    attempted = checked.attempted * passes.count
    failed = min(attempted, checked.failed * passes.count + passes.deviations)
    if trace:
        provenance = checked.provenance or {}
        for label in PROVENANCES:
            metrics["provenance." + label] = (provenance.get(label, 0), "count")
    stamp = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "n_range": workload.n_range(), "passes": passes.count, "cache": workload.cache,
        "failed_ratio": failed / attempted,
        "provenance_per_pass": dict(checked.provenance) if checked.provenance else None,
        **notes, "errors": checked.errors[:5],
        "deviations": passes.deviations,
    }
    result = {
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, stamp
