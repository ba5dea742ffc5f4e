"""The four benchmark workloads: seeded inputs, one timed pass, answer checks.

Each workload is a closed loop with one caller and no think time.  Inputs
are generated here from the seed with the standard library only; kroncoef
sees nothing but the generated triples.  A pass is a fixed amount of work,
so per-pass counts repeat exactly; the runner repeats passes until its time
is up.  Checks run after timing, never inside it.

The single-process workloads time with ``process_time``: their caller never
waits on anything but the CPU, so its CPU time is its wall time less the
time the operating system gave the CPU to someone else.  ``verify-sweep``
waits on its pool and is timed by the wall clock.

Every pass also runs a fixed piece of reference work at evenly spaced slots
between its answers, outside their timing (``probe``).  The reference sees
the host's speed at the same moments the answers do, and the runner scales
the answer times by it; see measure.py.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import resource
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations
from time import perf_counter, process_time

from kroncoef import characters, cli, closed_forms, lattice
from kroncoef.partitions import Partition
from tracing import HYPOTHESIS_NOT_MET

PERMUTATIONS = tuple(permutations(range(3)))
CONJUGATION_PATTERNS = ((), (0, 1), (0, 2), (1, 2))
SWEEP_FAMILIES = ("two-row", "hook-hook", "hook-two-row")
FAMILY_KERNEL = {"two-row": characters.TWO_ROW_TWO_ROW, "hook-hook": characters.HOOK_HOOK,
                 "hook-two-row": characters.HOOK_TWO_ROW}


# ---------------------------------------------------------------- inputs

def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0] if parts else 0))


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """Sorted random composition of n into a random number of parts."""
    rows = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), rows - 1))
    return tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True))


def two_row(rng: random.Random, n: int) -> tuple[int, ...]:
    return tworow_at(n, rng.random())


def tworow_at(n: int, fraction: float) -> tuple[int, ...]:
    """The two-row shape of n whose second row is at fraction of its range."""
    second = int(fraction * (n // 2 + 1))
    return (n - second, second) if second else (n,)


def hook(rng: random.Random, n: int) -> tuple[int, ...]:
    arm = rng.randint(2, n - 1)
    return (arm,) + (1,) * (n - arm)


def is_general(parts: tuple[int, ...]) -> bool:
    """Neither the shape nor its conjugate is a one-row, two-row or hook
    shape: at least three rows, second part >= 3, third part >= 2."""
    return len(parts) >= 3 and parts[1] >= 3 and parts[2] >= 2


def systematic_sample(rng: random.Random, population: list, count: int) -> list:
    """count members of population at evenly spaced positions from a random
    start, in random order: every stretch of the population's order is
    represented, so the sample's make-up barely moves with the seed."""
    step = len(population) / count
    start = rng.random() * step
    sample = [population[int(start + k * step)] for k in range(count)]
    rng.shuffle(sample)
    return sample


def presentation(triple, perm, pattern):
    """The triple permuted by perm, then with the slots in pattern conjugated."""
    slots = [triple[s] for s in perm]
    for s in pattern:
        slots[s] = conjugate(slots[s])
    return tuple(slots)


def variants(triple):
    """All 24 S3-permutation x pair-conjugation presentations of a triple."""
    return [presentation(triple, perm, pattern)
            for pattern in CONJUGATION_PATTERNS for perm in PERMUTATIONS]


def present(rng: random.Random, triple):
    """One random S3-permutation and pair-conjugation of a triple."""
    return presentation(triple, rng.choice(PERMUTATIONS), rng.choice(CONJUGATION_PATTERNS))


def strata(rng: random.Random, count: int) -> list[float]:
    """count points of [0, 1), one in each of count equal strata, in random
    order: a Latin-hypercube column.  Drawing every coordinate of a sample
    this way keeps each marginal uniform while the seed changes the sample's
    cost distribution far less than independent draws do."""
    order = list(range(count))
    rng.shuffle(order)
    return [(k + rng.random()) / count for k in order]


def stratified_partition(n: int, rows: int, fractions) -> tuple[int, ...]:
    """The partition of n into at most rows parts whose rows - 1 cut points
    sit at the given fractions of n (duplicate cuts merge parts)."""
    cuts = sorted({min(n - 1, 1 + int(f * (n - 1))) for f in fractions[:rows - 1]})
    return tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True))


def partitions_of(n: int, largest: int | None = None):
    """The partitions of n with parts at most largest, as tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions_of(n - part, part):
            yield (part,) + rest


def partitions_count(n: int) -> int:
    """p(n) by the standard dynamic programme over largest parts."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def sweep_triples(family: str, n_max: int) -> int:
    """Triples a verification sweep of the family checks for n = 1..n_max."""
    total = 0
    for n in range(1, n_max + 1):
        two_rows, hooks = n // 2 + 1, max(0, n - 2)
        pairs = {"two-row": two_rows * two_rows, "hook-hook": hooks * hooks,
                 "hook-two-row": hooks * two_rows}[family]
        total += partitions_count(n) * pairs
    return total


def tworow_gamma_bruteforce(lam, mu, nu) -> int:
    """Rosas's two-row value as the difference of two rectangle cone counts,
    each counted point by point (mu and nu have at most two parts)."""
    if len(lam) > 4:
        return 0
    l1, l2, l3, l4 = lam + (0,) * (4 - len(lam))
    mu2, nu2 = sorted((mu[1] if len(mu) > 1 else 0, nu[1] if len(nu) > 1 else 0), reverse=True)
    a, b = l3 + l4, l2 - l3
    c, d = min(l1 - l2, l3 - l4), abs(l1 + l4 - l2 - l3)
    x, y = nu2, mu2 + 1
    return (lattice.gamma_region_bruteforce(a, b, a + b + 1, c, x, y)
            - lattice.gamma_region_bruteforce(a, b, a + b + c + d + 2, c, x, y))


def text(parts) -> str:
    return ",".join(map(str, parts))


def oracle_gamma(triple) -> int:
    return characters.kron_oracle(*(Partition(p) for p in triple)).gamma


# ---------------------------------------------------------------- host speed

REFERENCE_N = 18


def reference_work() -> int:
    """Fixed pure-Python work that stands in for the host's speed: every
    partition of REFERENCE_N with its conjugate.  It is the benchmark's own
    code, so no change to kroncoef moves it."""
    seen = {}
    for parts in partitions_of(REFERENCE_N):
        seen[conjugate(parts)] = len(parts)
    return len(seen)


def probe(probes: array) -> float:
    """Run the reference work once, record its CPU time, return it."""
    t0 = process_time()
    reference_work()
    elapsed = process_time() - t0
    probes.append(elapsed)
    return elapsed


# ---------------------------------------------------------------- passes

@dataclass
class PassResult:
    wall_s: float          # time inside timed regions
    latencies: array       # seconds, one per answer the caller waits for
    triples: int           # triples answered
    answers: list          # what the check judges, in a fixed order
    probes: array          # seconds, one per reference slot, in a fixed order
    child_cpu_s: float = 0.0


@dataclass
class CheckResult:
    """The check of one pass against the ground truth."""

    attempted: int
    failed: int
    provenance: Counter | None
    errors: list = field(default_factory=list)


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli(argv, stdout) -> None:
    """One in-process CLI invocation with standard output sent to stdout."""
    with contextlib.redirect_stdout(stdout):
        cli.main(argv, standalone_mode=False)


class Workload:
    name = ""
    cache = ""  # cache state the timed passes see, for the result stamp
    tracer = None  # set by the runner while a traced pass runs

    def prepare(self, seed: int) -> None:
        """Build the inputs from the seed."""

    def warm(self) -> None:
        """Untimed work before the first timed pass."""

    def reset(self) -> None:
        """Untimed work before every pass."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> CheckResult:
        raise NotImplementedError

    def n_range(self) -> list[int]:
        raise NotImplementedError


class ClosedQueries(Workload):
    """Library user asking one coefficient at a time, caches warm.

    Half the queries are two-row pairs with a <= 4-row lambda at n spread
    log-uniformly over tworow_n, every coordinate (n, the two second rows,
    lambda's row count and cuts) drawn from its own strata.  The rest are
    hook-hook and hook-two-row triples with arbitrary lambda over hook_n,
    the same triples for every seed: about 1.5% of them fall through to the
    oracle at 1-3 ms each, and a count of those that moved with the seed
    would decide whether p99 lands among them or in the two-row tail.  The
    seed presents every triple in a random S3 permutation and
    pair-conjugation, so the variant walk works, and orders the queries.
    """

    name = "closed-queries"
    cache = "warm: one untimed pass before timing"

    def __init__(self, queries: int = 8000, tworow_n=(20, 500), hook_n=(8, 16)):
        self.queries, self.tworow_n, self.hook_n = queries, tworow_n, hook_n

    def prepare(self, seed):
        rng = random.Random(seed)
        half = self.queries // 2
        lo, hi = self.tworow_n
        n_at, mu_at, nu_at, rows_at, *cuts_at = (strata(rng, half) for _ in range(7))
        originals = []
        for i in range(half):
            n = round(lo * (hi / lo) ** n_at[i])
            lam = stratified_partition(n, 1 + int(4 * rows_at[i]), [c[i] for c in cuts_at])
            originals.append((lam, tworow_at(n, mu_at[i]), tworow_at(n, nu_at[i])))
        lo, hi = self.hook_n
        shapes = random.Random(0)
        for i in range(self.queries - half):
            n = lo + i % (hi - lo + 1)
            second = hook(shapes, n) if i % 2 else two_row(shapes, n)
            originals.append((random_partition(shapes, n), hook(shapes, n), second))
        rng.shuffle(originals)
        self.originals = originals
        self.presented = [present(rng, t) for t in originals]
        self.inputs = [tuple(Partition(p) for p in t) for t in self.presented]

    def warm(self):
        self.run_pass()

    def run_pass(self):
        latencies, answers, probes = array("d"), [], array("d")
        cf = closed_forms  # looked up per call so the traced run sees its wrappers
        start = process_time()
        for i, (lam, mu, nu) in enumerate(self.inputs):
            if i % 1000 == 0:
                start += probe(probes)
            t0 = process_time()
            try:
                result = cf.compute(lam, mu, nu)
                answer = (result.gamma, result.provenance)
            except Exception as exc:  # recorded as a failed answer
                answer = repr(exc)
            latencies.append(process_time() - t0)
            answers.append(answer)
        return PassResult(process_time() - start, latencies, len(answers), answers, probes)

    def check(self, result):
        errors, provenance = [], Counter()
        for original, presented, answer in zip(self.originals, self.presented, result.answers):
            if sum(original[0]) <= 16:
                gamma = oracle_gamma(presented)
            else:
                gamma = tworow_gamma_bruteforce(*original)
            if isinstance(answer, tuple) and answer[0] == gamma:
                provenance[answer[1]] += 1
            else:
                errors.append(f"{presented}: got {answer}, want {gamma}")
        return CheckResult(len(self.inputs), len(errors), provenance, errors)

    def n_range(self):
        return [self.hook_n[0], self.tworow_n[1]]


class OracleCold(Workload):
    """CLI user asking a general triple: every query starts from empty caches.

    lambda, mu and nu all have >= 3 rows, second part >= 3 and third part
    >= 2, so no variant fits a closed form.  The same number of queries is
    drawn for every n in n_range; the seed picks the shapes.
    """

    name = "oracle-cold"
    cache = "cold: clear_cache() untimed before every query"

    def __init__(self, per_n: int = 16, n_lo: int = 14, n_hi: int = 20):
        self.per_n, self.n_lo, self.n_hi = per_n, n_lo, n_hi

    def prepare(self, seed):
        rng = random.Random(seed)
        triples = []
        for n in range(self.n_lo, self.n_hi + 1):
            shapes = [parts for parts in partitions_of(n) if is_general(parts)]
            triples += zip(*(systematic_sample(rng, shapes, self.per_n) for _ in range(3)))
        rng.shuffle(triples)
        self.presented = [present(rng, t) for t in triples]
        self.argvs = [["compute", "--lambda", text(l), "--mu", text(m), "--nu", text(n),
                       "--format", "json"] for l, m, n in self.presented]

    def run_pass(self):
        latencies, answers, probes = array("d"), [], array("d")
        wall = 0.0
        for i, argv in enumerate(self.argvs):
            if i % 4 == 0:
                probe(probes)
            characters.clear_cache()
            out = io.StringIO()
            t0 = process_time()
            try:
                run_cli(argv, out)
                elapsed = process_time() - t0
                record = json.loads(out.getvalue())
                answer = (int(record["gamma"]), record["provenance"])
            except (Exception, SystemExit) as exc:  # recorded as a failed answer
                elapsed = process_time() - t0
                answer = repr(exc)
            wall += elapsed
            latencies.append(elapsed)
            answers.append(answer)
        return PassResult(wall, latencies, len(answers), answers, probes)

    def check(self, result):
        errors, provenance = [], Counter()
        for presented, answer in zip(self.presented, result.answers):
            gammas = {closed_forms.compute(*(Partition(p) for p in v)).gamma
                      for v in variants(presented)}
            if (isinstance(answer, tuple) and answer[1] == characters.ORACLE
                    and answer[0] >= 0 and gammas == {answer[0]}):
                provenance[answer[1]] += 1
            else:
                errors.append(f"{presented}: got {answer}, variants give {sorted(gammas)}")
        return CheckResult(len(self.argvs), len(errors), provenance, errors)

    def n_range(self):
        return [self.n_lo, self.n_hi]


class RowSink:
    """Standard output stand-in that stamps the CPU time of every write (the
    CSV writer issues one write per row) and runs a reference probe every
    probe_every writes, leaving its time out of the stamps."""

    def __init__(self, probe_every: int):
        self.chunks, self.stamps, self.probes = [], [], array("d")
        self.probe_every, self.probed_s = probe_every, 0.0

    def write(self, chunk: str) -> int:
        if len(self.stamps) % self.probe_every == 0:
            self.probed_s += probe(self.probes)
        self.stamps.append(process_time() - self.probed_s)
        self.chunks.append(chunk)
        return len(chunk)

    def flush(self) -> None:
        pass


class Table(Workload):
    """`kroncoef table --n N --family all --format csv` in-process, caches
    emptied before each pass and warming as the rows go by.

    An answer the reader waits for is one block of p(n) rows: the rows of
    one (lambda, mu) pair, one per nu.  Single rows split into a fast mode
    (closed forms) and a slow one (oracle), and the median of such a mixture
    jumps between them; a block mixes both and is unimodal.
    """

    name = "table-n10"
    cache = "cold at pass start: clear_cache() untimed before every table"

    def __init__(self, n: int = 10):
        self.n = n

    def prepare(self, seed):
        self.argv = ["table", "--n", str(self.n), "--family", "all", "--format", "csv"]
        self.block = partitions_count(self.n)
        self.rows = self.block ** 3

    def reset(self):
        characters.clear_cache()

    def run_pass(self):
        sink = RowSink(self.block ** 2)
        t0 = process_time()
        try:
            run_cli(self.argv, sink)
            failure = None
        except (Exception, SystemExit) as exc:  # recorded as a failed table
            failure = repr(exc)
        wall = process_time() - t0 - sink.probed_s
        stamps, block = sink.stamps, self.block  # stamps[0] is the header's
        latencies = array("d", (stamps[i + block] - stamps[i]
                                for i in range(0, len(stamps) - block, block)))
        answers = "".join(sink.chunks).splitlines() if failure is None else [failure]
        return PassResult(wall, latencies, len(stamps) - 1, answers, sink.probes)

    def check(self, result):
        lines, errors, provenance = result.answers, [], Counter()
        rows = lines[1:] if lines[:1] == ["lambda,mu,nu,gamma,provenance"] else []
        for i, row in enumerate(csv.reader(rows[:self.rows])):
            gamma = oracle_gamma([Partition.from_text(s).parts for s in row[:3]])
            if int(row[3]) == gamma:
                provenance[row[4]] += 1
            else:
                errors.append(f"row {i}: {row}, want gamma {gamma}")
        if len(rows) != self.rows:
            errors.append(f"{len(rows)} rows, want {self.rows}")
        return CheckResult(self.rows, self.rows - sum(provenance.values()), provenance, errors)

    def n_range(self):
        return [self.n, self.n]


class VerifySweep(Workload):
    """`run_sweep` for the three families with a process pool, caches
    emptied before each pass.  The seed only orders the families.  An answer
    the caller waits for is one family's sweep.  The work runs in pool
    workers on every CPU while this process waits, so the probes sit
    between the sweeps: they follow the host's slow spells, which last
    longer than a sweep and reach every CPU at once."""

    name = "verify-sweep"
    cache = "cold at pass start: clear_cache() untimed before every sweep"
    jobs = 2

    def __init__(self, n_max: int = 14):
        self.n_max = n_max

    def prepare(self, seed):
        self.families = list(SWEEP_FAMILIES)
        random.Random(seed).shuffle(self.families)
        self.expected = {f: sweep_triples(f, self.n_max) for f in self.families}
        self.fallbacks = {}  # family -> oracle fallbacks in one traced pass

    def reset(self):
        characters.clear_cache()

    def run_pass(self):
        cpu0 = child_cpu_s()
        latencies, answers, probes = array("d"), [], array("d")
        for family in self.families:
            probe(probes)
            before = self.tracer.events[HYPOTHESIS_NOT_MET] if self.tracer else 0
            t0 = perf_counter()
            try:
                report = cli.run_sweep(family, self.n_max, self.jobs)
                checked, mismatches = report.triples_checked, len(report.mismatches)
            except Exception as exc:  # recorded as a failed sweep
                checked, mismatches = 0, repr(exc)
            latencies.append(perf_counter() - t0)
            if self.tracer:
                self.fallbacks[family] = self.tracer.events[HYPOTHESIS_NOT_MET] - before
            answers.append((family, checked, mismatches))
        probe(probes)
        triples = sum(a[1] for a in answers)
        return PassResult(sum(latencies), latencies, triples, answers, probes,
                          child_cpu_s() - cpu0)

    def check(self, result):
        failed, errors = 0, []
        for family, checked, mismatches in result.answers:
            want = self.expected[family]
            if checked != want or mismatches != 0:
                failed += max(abs(want - checked), 1)
                errors.append(f"{family}: {checked}/{want} triples, mismatches {mismatches}")
        provenance = self.traced_provenance() if self.fallbacks else None
        return CheckResult(sum(self.expected.values()), failed, provenance, errors)

    def traced_provenance(self) -> Counter:
        """Which route answered each swept triple.  The sweep runs the
        family's kernel directly and falls back to the oracle when a hook
        hypothesis cannot be met; only a traced pass counts those fallbacks."""
        provenance = Counter()
        for family, fallbacks in self.fallbacks.items():
            provenance[FAMILY_KERNEL[family]] += self.expected[family] - fallbacks
            provenance[characters.ORACLE] += fallbacks
        return provenance

    def n_range(self):
        return [1, self.n_max]


WORKLOADS = {w.name: w for w in (ClosedQueries, OracleCold, Table, VerifySweep)}
