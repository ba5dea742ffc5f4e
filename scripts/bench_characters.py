"""Layer timings of the character oracle: the class sizes, one cold
character row and one cold oracle query, for n = 14, 16, ..., 24, the
in-process verification sweep that certifies the closed forms against it,
the CLI's table of every triple of one n, one warm call of each closed
kernel, and one cold oracle query at each n of the frontier, 28 to 52.

    PYTHONPATH=src python scripts/bench_characters.py [--out BENCH_characters.json]

Every timed figure is recorded as a median under its own key and, beside
it under the same key with ``_quartiles`` appended, the lower and upper
quartiles [q1, q3] of the same times (inclusive method: of REPS = 5
repetitions, the second and fourth fastest).  Every cold figure is taken
by ``cold_s``: each repetition calls ``clear_cache()``, runs the figure's
untimed setup, if it has one, and then times the figure's work alone.
For each n it records

* ``class_sizes_cold_ms``: ``_class_sizes(n)``, the class sizes
  |C_rho| = n!/z_rho the oracle reads;
* ``counts_cold_ms``: ``_counts(n)``, the table of partition counts
  p(m, parts <= a) for every a <= m <= n that a whole row's fields are
  shifted and counted by;
* ``char_row_cold_ms``: ``_char_row(lam, n)`` for the first shape ``lam``
  of the fixed general triple of TRIPLES, with the class sizes as the
  untimed setup, so they are not part of this time;
* ``oracle_cold_ms``: ``kron_oracle`` on the whole triple: the class
  sizes, three cold rows and the class sum, the layer the ``oracle-cold``
  benchmark workload times;

and the number of ``_strip_cache`` entries, one per (width, shape), that
one cold row leaves behind.  ``per_n_work(n, triple)`` holds the work and
setup of each of these four figures, so a test can run each once.

Under ``sweep_inprocess_ms`` it records, for each sweep family and n_max
in SWEEP_N_MAX, ``run_sweep(family, n_max, jobs=1)``: the whole
sweep in this process, oracle and closed forms together.  Under
``table_cold_ms`` it records, for each n in TABLE_N,
``table --n N --family all --format csv`` through ``cli.main`` with
standard output sent to a null sink: the whole table of one n.

Under ``compute_warm_us`` it records, for each provenance, the wall time
of one ``compute`` call over every call of REPS timed passes through
COMPUTE_SAMPLE triples of n = COMPUTE_N drawn with the fixed seed
COMPUTE_SEED, after ``clear_cache()`` and one untimed pass: every
character row and closed-form lookup is warm, while the oracle's
one-entry pair-weight cache still misses whenever the pair changes, as it
does for a random query.

Under ``kernel_warm_us`` it records, for each closed kernel, the time of
one call: each of REPS timed passes calls the kernel on every triple of
n = COMPUTE_N whose mu and nu lie in its classes (every lam, and mu and nu
two-row, both hooks, or a hook and a two-row shape), after one untimed
pass, and its time is divided by the number of triples.  The classes are
read from the parts here, not from the package, so the triples timed do
not depend on the code under test.

Under ``oracle_frontier`` it records, for each n in FRONTIER_N, one cold
``kron_oracle`` query on the five-row shapes of ``frontier_triple(n)``,
each n in a child process of its own: the median and quartiles of REPS
cold times in ms, the ``_strip_cache`` entries one query leaves, the
bytes of the ints those entries hold (``memo_bytes``: ``sys.getsizeof``
summed over the distinct int objects, so an int two entries share counts
once) and the child's peak resident set (``ru_maxrss``) in MB.  These are
the figures an oracle size budget rests on.

Only ``clear_cache``, ``_class_sizes``, ``_counts(n)``, ``_char_row``,
``_strip_cache``, ``kron_oracle``, ``compute``, ``enumerate_partitions``,
``run_sweep``, ``SWEEP_FAMILIES``, ``cli.main`` and the three kernels
``kron_two_tworow``, ``kron_two_hooks`` and ``kron_hook_tworow`` are used,
so the script runs unchanged against earlier versions of the package
that have them with these signatures (``_counts`` once took a largest part
after n).

To cite a before/after, do not set one file's median against another's
quartiles: on a shared 2-CPU host two whole runs of the same code drift
further apart than one run's quartiles (``oracle_cold_ms`` at n = 16 read
4.88 ms in one run and 4.26 ms in the next).  Alternate whole runs on the
parent and on the change, at least five of each, alternating which side
runs first, as the benchmark's pairs are run; then compare, figure by
figure, the median of the parent's run medians with the median of the
change's, and quote the range of each side's run medians beside them.
Even so, this harness cannot resolve a change smaller than about a third
on a shared 2-CPU host: ten alternating pairs of whole runs, timing the
same code on both sides, gave medians of run medians 0.76-1.32x apart,
and on every figure the two ranges of run medians overlapped.  Cite a
smaller change from kronbench's alternating pairs of benchmark runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from kroncoef import (
    characters,
    cli,
    compute,
    enumerate_partitions,
    kron_hook_tworow,
    kron_two_hooks,
    kron_two_tworow,
    make_partition,
)
from kroncoef.cli import SWEEP_FAMILIES, run_sweep

REPS = 5
SWEEP_N_MAX = (10, 12, 14)
TABLE_N = (8, 9, 10)
FRONTIER_N = (28, 32, 36, 40, 44, 48, 52)
COMPUTE_N = 12
COMPUTE_SAMPLE = 2000
COMPUTE_SEED = 12
PROVENANCES = ("DeltaRule", "TwoRowTwoRow", "HookHook", "HookTwoRow", "Oracle")
# general shapes: at least three rows, second part >= 3, third part >= 2, so
# no closed form applies to any triple or its conjugates
TRIPLES = {
    14: ((5, 4, 3, 2), (4, 4, 3, 2, 1), (6, 3, 3, 2)),
    16: ((6, 4, 3, 2, 1), (5, 4, 4, 3), (4, 4, 3, 3, 2)),
    18: ((6, 5, 4, 3), (5, 5, 4, 2, 2), (7, 4, 4, 3)),
    20: ((6, 5, 4, 3, 2), (5, 5, 4, 3, 3), (7, 5, 4, 2, 2)),
    22: ((7, 6, 4, 3, 2), (6, 5, 4, 4, 3), (8, 5, 4, 3, 2)),
    24: ((7, 6, 5, 4, 2), (6, 6, 5, 4, 3), (8, 6, 4, 3, 3)),
}


def summary(key: str, seconds: list[float], scale: float) -> dict:
    """The median of the times under key and their quartiles [q1, q3] under
    key + "_quartiles", each multiplied by scale and rounded to 3 places."""
    q1, median, q3 = (round(t * scale, 3)
                      for t in statistics.quantiles(seconds, n=4, method="inclusive"))
    return {key: median, f"{key}_quartiles": [q1, q3]}


def cold_s(work, setup=None) -> tuple[list[float], object]:
    """REPS times of work(), each right after clear_cache() and an untimed
    setup() when one is given, and the result of the last work().  The
    previous result is dropped before clear_cache(), so no repetition frees
    it inside the timed window or works beside it."""
    times = []
    for _ in range(REPS):
        result = None
        characters.clear_cache()
        if setup is not None:
            setup()
        start = time.perf_counter()
        result = work()
        times.append(time.perf_counter() - start)
    return times, result


def compute_warm_us() -> list[dict]:
    shapes = list(enumerate_partitions(COMPUTE_N))
    rng = random.Random(COMPUTE_SEED)
    triples = [tuple(rng.choice(shapes) for _ in range(3)) for _ in range(COMPUTE_SAMPLE)]
    characters.clear_cache()
    provenances = [compute(*triple).provenance for triple in triples]  # the untimed pass
    times: dict[str, list[float]] = {name: [] for name in PROVENANCES}
    for _ in range(REPS):
        for triple, name in zip(triples, provenances):
            start = time.perf_counter()
            compute(*triple)
            times[name].append(time.perf_counter() - start)
    return [{"provenance": name, "triples": provenances.count(name),
             **summary("us", times[name], 1e6)}
            for name in PROVENANCES]


def is_two_row(p) -> bool:
    return len(p.parts) <= 2


def is_hook(p) -> bool:
    return len(p.parts) >= 2 and p.parts[0] >= 2 and p.parts[1] == 1


# each kernel with the classes of its mu and of its nu
KERNELS = {
    "kron_two_tworow": (kron_two_tworow, is_two_row, is_two_row),
    "kron_two_hooks": (kron_two_hooks, is_hook, is_hook),
    "kron_hook_tworow": (kron_hook_tworow, is_hook, is_two_row),
}


def kernel_warm_us() -> list[dict]:
    shapes = list(enumerate_partitions(COMPUTE_N))
    rows = []
    for name, (kernel, mu_class, nu_class) in KERNELS.items():
        triples = [(lam, mu, nu) for lam in shapes
                   for mu in shapes if mu_class(mu) for nu in shapes if nu_class(nu)]
        for triple in triples:  # the untimed pass
            kernel(*triple)
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            for lam, mu, nu in triples:
                kernel(lam, mu, nu)
            times.append((time.perf_counter() - start) / len(triples))
        rows.append({"kernel": name, "triples": len(triples), **summary("us", times, 1e6)})
    return rows


def memo_entries() -> int:
    """The (width, shape) entries of the vector memo, one dict per width."""
    return sum(map(len, characters._strip_cache.values()))


def memo_bytes() -> int:
    """sys.getsizeof summed over the distinct int objects the entries of the
    vector memo hold, whatever the sequence each entry is."""
    ints = {id(x): x for memo in characters._strip_cache.values()
            for entry in memo.values() for x in entry}
    return sum(map(sys.getsizeof, ints.values()))


def per_n_work(n: int, triple) -> dict:
    """The work and the untimed setup (or None) of each cold figure of one
    row of n, by key, in the order they are timed: the row first, since
    the strip-cache entries are read off it."""
    lam, shapes = triple[0], [make_partition(parts) for parts in triple]
    return {"char_row_cold_ms": (lambda: characters._char_row(lam, n),
                                 lambda: characters._class_sizes(n)),
            "class_sizes_cold_ms": (lambda: characters._class_sizes(n), None),
            "counts_cold_ms": (lambda: characters._counts(n), None),
            "oracle_cold_ms": (lambda: characters.kron_oracle(*shapes), None)}


def frontier_triple(n: int) -> list[tuple[int, ...]]:
    """Three five-row shapes of n, no two alike: the first rows of the tails
    (n//4, n//6, n//8, 1), (n//5, n//7, 2, 1) and (n//3, n//9, 1, 1)."""
    tails = ((n // 4, n // 6, n // 8, 1), (n // 5, n // 7, 2, 1), (n // 3, n // 9, 1, 1))
    return [(n - sum(tail),) + tail for tail in tails]


def frontier_child(n: int) -> None:
    """Print the oracle_frontier row of n; run in a process of its own."""
    shapes = [make_partition(parts) for parts in frontier_triple(n)]
    oracle_s = cold_s(lambda: characters.kron_oracle(*shapes))[0]
    entries, held = memo_entries(), memo_bytes()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"n": n, "triple": [list(shape.parts) for shape in shapes],
                      **summary("oracle_cold_ms", oracle_s, 1e3),
                      "strip_cache_entries": entries, "memo_bytes": held,
                      "peak_rss_mb": round(rss_mb, 1)}))


def oracle_frontier() -> list[dict]:
    rows = []
    for n in FRONTIER_N:
        child = subprocess.run([sys.executable, __file__, "--frontier-child", str(n)],
                               capture_output=True, text=True, check=True)
        rows.append(json.loads(child.stdout))
        print(json.dumps(rows[-1]))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_characters.json")
    parser.add_argument("--frontier-child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.frontier_child is not None:
        frontier_child(args.frontier_child)
        return
    rows = []
    for n, triple in TRIPLES.items():
        rows.append({"n": n, "lambda": list(triple[0]), "triple": [list(p) for p in triple]})
        for key, (work, setup) in per_n_work(n, triple).items():
            rows[-1].update(summary(key, cold_s(work, setup)[0], 1e3))
            if key == "char_row_cold_ms":
                rows[-1]["strip_cache_entries"] = memo_entries()  # before the next clear_cache()
        print(json.dumps(rows[-1]))
    sweeps = []
    for family in SWEEP_FAMILIES:
        for n_max in SWEEP_N_MAX:
            sweep_s, sweep = cold_s(lambda: run_sweep(family, n_max, jobs=1))
            sweeps.append({"family": family, "n_max": n_max, "triples": sweep.triples_checked,
                           **summary("ms", sweep_s, 1e3)})
            print(json.dumps(sweeps[-1]))
    tables = []
    for n in TABLE_N:
        argv = ["table", "--n", str(n), "--family", "all", "--format", "csv"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            table_s = cold_s(lambda: cli.main(argv, standalone_mode=False))[0]
        tables.append({"n": n, **summary("ms", table_s, 1e3)})
        print(json.dumps(tables[-1]))
    computes = {"n": COMPUTE_N, "triples": COMPUTE_SAMPLE, "seed": COMPUTE_SEED,
                "by_provenance": compute_warm_us()}
    print(json.dumps(computes))
    kernels = {"n": COMPUTE_N, "by_kernel": kernel_warm_us()}
    print(json.dumps(kernels))
    frontier = oracle_frontier()
    report = {"topic": "characters", "cache": "cold: clear_cache() before every repetition",
              "statistic": "median, with quartiles [q1, q3] under each *_quartiles key",
              "repetitions": REPS,
              "python": platform.python_version(), "cpu_count": os.cpu_count(), "rows": rows,
              "sweep_inprocess_ms": sweeps, "table_cold_ms": tables,
              "compute_warm_us": computes, "kernel_warm_us": kernels,
              "oracle_frontier": frontier}
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
