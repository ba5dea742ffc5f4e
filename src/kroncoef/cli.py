"""Command-line interface: single queries, triple tables, verification sweeps,
and a quick self-test battery.

Exit codes: 0 success, 1 verification mismatch (or no closed form in closed
mode), 2 parse error, 3 size mismatch.  Machine-readable formats emit one JSON
object per line or CSV with the fixed column order lambda, mu, nu, gamma,
provenance.  table answers a (lambda, mu) block at a time with
_compute_block, compute's dispatch with one oracle column per block; its
JSON rows each time their own compute call.  The family filters read each
shape's classes from Partition.shape_code, as compute does.  verify
certifies each family through the form compute uses: the pairs its row of
CLOSED_FORMS selects, valued by closed_forms._try_closed, against the
oracle.

Click only parses the arguments: every command writes its lines with print,
to sys.stdout, and compute's error lines to sys.stderr, except table's rows,
in every format, and its CSV header, each one sys.stdout.write with its line
end, so an unbuffered stream takes one write per row, where print makes two.
No command writes through the csv module: a shape's CSV cell is its label,
quoted when it holds a comma (_csv_cell), and table quotes each label once
per table.  verify and selftest flush each line, so a piped sweep reports
each family as it finishes; table rows and compute's lines are buffered.

Each command imports only what it uses, so a start pays for no other
command's modules: concurrent.futures with multiprocessing loads only in a
verify sweep on more than one worker, and schur_eval with fractions only in
selftest.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import product

import click

from . import closed_forms, lattice
from .characters import SizeMismatch, kron_oracle, kron_oracle_column
from .closed_forms import (
    AUTO,
    CLOSED_FORMS,
    METHODS,
    NoClosedFormApplicable,
    _compute_block,
    compute,
    kron_hook_tworow,  # kron_hook_tworow and kron_two_hooks are not called here: the
    kron_two_hooks,  # benchmark's tracer binds them on cli (tests/test_bench_bindings.py)
    kron_two_tworow,
)
from .partitions import Partition, enumerate_partitions

# Each family sweeps the pairs of one closed form: the rows of CLOSED_FORMS
# after the delta rule, in table order.
SWEEP_FAMILIES = dict(zip(("two-row", "hook-hook", "hook-two-row"), CLOSED_FORMS[1:]))
FAMILIES = (*SWEEP_FAMILIES, "all")


class PartitionParam(click.ParamType):
    """Comma-separated integers in any order, zeros dropped; "" is the empty partition."""

    name = "partition"

    def convert(self, value, param, ctx):
        if isinstance(value, Partition):
            return value
        try:
            return Partition.from_text(value)
        except ValueError as exc:  # includes int() failures and NegativePart
            self.fail(f"bad partition {value!r}: {exc}", param, ctx)


PARTITION = PartitionParam()


def _timed_compute(lam, mu, nu, method):
    """compute() and its wall time in whole microseconds."""
    start = time.perf_counter()
    result = compute(lam, mu, nu, method)
    return result, int((time.perf_counter() - start) * 1_000_000)


def _result_record(lam, mu, nu, result, elapsed_us):
    """One result as JSON, with its compute time in whole µs and whole ms."""
    return {
        "lambda": list(lam.parts),
        "mu": list(mu.parts),
        "nu": list(nu.parts),
        "gamma": str(result.gamma),
        "provenance": result.provenance,
        "moves": list(result.moves),
        "elapsed_ms": elapsed_us // 1000,
        "elapsed_us": elapsed_us,
    }


CSV_HEADER = "lambda,mu,nu,gamma,provenance"


def _csv_cell(label):
    """A shape's text label (str of the Partition) as a CSV cell: a label
    holds only digits and commas, so it is quoted exactly when it holds a
    comma, as csv.writer's minimal quoting does.  Both commands build their
    shape cells here, so they write the same row for the same triple."""
    return f'"{label}"' if "," in label else label


@click.group()
@click.version_option(package_name="kroncoef")
def main():
    """Exact Kronecker coefficients of the symmetric group: closed forms for
    two-row and hook shapes with an independent character-sum oracle."""


@main.command("compute")
@click.option("--lambda", "lam", type=PARTITION, required=True, help="First partition, e.g. 4,3,1.")
@click.option("--mu", type=PARTITION, required=True, help="Second partition.")
@click.option("--nu", type=PARTITION, required=True, help="Third partition.")
@click.option("--method", type=click.Choice(METHODS), default=AUTO, show_default=True)
@click.option("--format", "fmt", type=click.Choice(("plain", "json", "csv")), default="plain",
              show_default=True)
def cmd_compute(lam, mu, nu, method, fmt):
    """Compute a single Kronecker coefficient with provenance."""
    try:
        result, elapsed_us = _timed_compute(lam, mu, nu, method)
    except SizeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    except NoClosedFormApplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    if fmt == "json":
        print(json.dumps(_result_record(lam, mu, nu, result, elapsed_us)))
    elif fmt == "csv":
        print(CSV_HEADER)
        print(f"{_csv_cell(str(lam))},{_csv_cell(str(mu))},{_csv_cell(str(nu))},"
              f"{result.gamma},{result.provenance}")
    else:
        print(f"gamma = {result.gamma}")
        print(f"provenance = {result.provenance}")
        print(f"moves = {' '.join(result.moves) if result.moves else '(none)'}")


def _family_sides(shapes, family):
    """The mus and the nus of a family, in enumeration order: the shapes
    whose shape_code holds the class bits its closed form needs of mu and of
    nu; "all" takes every shape on both sides."""
    if family == "all":
        return shapes, shapes
    form = SWEEP_FAMILIES[family]
    mus = [p for p in shapes if p.shape_code & form.mu == form.mu]
    nus = [p for p in shapes if p.shape_code & form.nu == form.nu]
    return mus, nus


@dataclass
class SweepReport:
    """Outcome of one family's closed-form-versus-oracle sweep."""

    n: int
    family: str
    triples_checked: int = 0
    mismatches: list = field(default_factory=list)
    elapsed_ms: int = 0
    max_gamma: int = 0

    def merge(self, other: "SweepReport") -> None:
        self.triples_checked += other.triples_checked
        self.mismatches.extend(other.mismatches)
        self.max_gamma = max(self.max_gamma, other.max_gamma)


def _sweep_chunk(family: str, n_max: int, first: int, step: int) -> SweepReport:
    """Verify the family triples of every n <= n_max whose lambda is one of
    the shapes[first::step] of that n.

    The (mu, nu) pairs run outermost: kron_oracle_column answers one pair for
    every lambda of the share at once, and each closed form is then checked
    against its column entry, so mismatches come in (mu, nu, lambda) order.
    The closed forms are valued by closed_forms._try_closed, read once per
    chunk from the module, as compute reaches it; the counts grow once per
    pair, and an n whose share is empty is skipped."""
    report = SweepReport(n=n_max, family=family)
    provenance = SWEEP_FAMILIES[family].provenance
    try_closed = closed_forms._try_closed
    for n in range(1, n_max + 1):
        shapes = list(enumerate_partitions(n))
        lams = shapes[first::step]
        if not lams:
            continue
        for mu, nu in product(*_family_sides(shapes, family)):
            column = kron_oracle_column(mu, nu, lams)
            closed = [try_closed(provenance, lam, mu, nu) for lam in lams]
            report.triples_checked += len(lams)
            report.max_gamma = max(report.max_gamma, *closed)
            if closed != column:
                report.mismatches.extend(
                    {"lambda": list(lam.parts), "mu": list(mu.parts), "nu": list(nu.parts),
                     "closed": value, "oracle": oracle}
                    for lam, value, oracle in zip(lams, closed, column) if value != oracle
                )
    return report


def run_sweep(family: str, n_max: int, jobs: int = 1) -> SweepReport:
    """Closed-form-versus-oracle sweep over every n <= n_max of one of the
    SWEEP_FAMILIES; any other family raises ValueError.

    The sweep runs on at most jobs worker processes, never more than the CPU
    count or p(n_max), in one pool: worker i sweeps every n for the lambdas
    shapes[i::workers] of that n.  A single worker runs in-process.
    """
    if family not in SWEEP_FAMILIES:
        raise ValueError(f"family must be one of {tuple(SWEEP_FAMILIES)}, got {family!r}")
    start = time.perf_counter()
    total = SweepReport(n=n_max, family=family)
    workers = min(jobs, os.cpu_count() or 1, sum(1 for _ in enumerate_partitions(n_max)))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for report in pool.map(_sweep_chunk, [family] * workers, [n_max] * workers,
                                   range(workers), [workers] * workers):
                total.merge(report)
    else:
        total.merge(_sweep_chunk(family, n_max, 0, 1))
    total.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return total


@main.command("table")
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--family", type=click.Choice(FAMILIES), default="all", show_default=True)
@click.option("--format", "fmt", type=click.Choice(("plain", "json", "csv")), default="plain",
              show_default=True)
def cmd_table(n, family, fmt):
    """Emit gamma for every triple of the family, one row per triple, in
    enumeration order."""
    shapes = list(enumerate_partitions(n))
    mus, nus = _family_sides(shapes, family)
    write = sys.stdout.write  # one write per row, line end included
    if fmt == "json":  # each row carries its own compute time
        for lam in shapes:
            for mu in mus:
                for nu in nus:
                    result, elapsed_us = _timed_compute(lam, mu, nu, AUTO)
                    write(json.dumps(_result_record(lam, mu, nu, result, elapsed_us)) + "\n")
        return
    # labels and cells are formed once per table, and each block's head
    # once; rows stream out a (lam, mu) block at a time, one line each
    blocks = ((lam, mu, _compute_block(lam, mu, nus)) for lam in shapes for mu in mus)
    labels = {p: str(p) for p in shapes}
    if fmt == "csv":
        cells = {p: _csv_cell(label) for p, label in labels.items()}
        nu_cells = [cells[nu] for nu in nus]
        write(f"{CSV_HEADER}\n")
        for lam, mu, results in blocks:
            head = f"{cells[lam]},{cells[mu]},"
            for nu_cell, result in zip(nu_cells, results):
                write(f"{head}{nu_cell},{result.gamma},{result.provenance}\n")
        return
    nu_cells = [f"{labels[nu]:>12}" for nu in nus]
    for lam, mu, results in blocks:
        head = f"{labels[lam]:>16}  {labels[mu]:>12}  "
        for nu_cell, result in zip(nu_cells, results):
            write(f"{head}{nu_cell}  {result.gamma:>4}  {result.provenance}\n")


@main.command("verify")
@click.option("--family", type=click.Choice(FAMILIES), default="all", show_default=True)
@click.option("--n-max", type=click.IntRange(min=1), required=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Most worker processes for the sweep, never more than the CPU "
                   "count or p(n_max) (1 = in-process).")
@click.option("--format", "fmt", type=click.Choice(("plain", "json")), default="plain",
              show_default=True)
def cmd_verify(family, n_max, jobs, fmt):
    """Run the closed-form-versus-oracle sweep; nonzero exit on any mismatch."""
    families = SWEEP_FAMILIES if family == "all" else (family,)
    failed = False
    for fam in families:
        report = run_sweep(fam, n_max, jobs)
        if fmt == "json":
            print(json.dumps(asdict(report)), flush=True)
        else:
            status = "ok" if not report.mismatches else "MISMATCH"
            print(
                f"family={fam} n<={n_max} triples={report.triples_checked} "
                f"mismatches={len(report.mismatches)} max_gamma={report.max_gamma} "
                f"elapsed_ms={report.elapsed_ms} {status}", flush=True
            )
            for bad in report.mismatches:
                print(f"  offending triple: {bad}", flush=True)
        failed = failed or bool(report.mismatches)
    sys.exit(1 if failed else 0)


def _selftest_checks(seed):
    import random

    from . import schur_eval

    yield "rectangle count examples", (
        lattice.sigma_closed(9, 5, 4) == 9 and lattice.sigma_closed(9, 5, 8) == 19
    )
    yield "rectangle closed form vs brute force", all(
        lattice.sigma_closed(k, l, h) == lattice.sigma_bruteforce(k, l, h)
        for k in range(1, 9)
        for l in range(1, 9)
        for h in range(-2, k + l + 5)
    )
    yield "translated rectangle closed form vs brute force", all(
        lattice.gamma_region_closed(a, b, c, d, x, y)
        == lattice.gamma_region_bruteforce(a, b, c, d, x, y)
        for a in range(4) for b in range(4) for c in range(4) for d in range(4)
        for x in range(a + b + c + d + 5) for y in range(a + b + c + d + 8)
    )
    parity = all(
        kron_two_tworow(Partition((l, l)), Partition((l, l)), Partition((l, l)))
        == (1 if l % 2 == 0 else 0)
        for l in range(1, 9)
    )
    growth = all(
        kron_two_tworow(Partition((3 * l, l)), Partition((3 * l, l)), Partition((3 * l, l)))
        == (l + 2) // 2
        for l in range(1, 7)
    )
    yield "two-row coefficient families", parity and growth
    sweeps_ok = True
    for fam in SWEEP_FAMILIES:
        sweeps_ok = sweeps_ok and not run_sweep(fam, 7).mismatches
    yield "closed forms vs oracle through n=7", sweeps_ok
    symmetric = True
    for n in range(1, 6):
        shapes = list(enumerate_partitions(n))
        for lam in shapes:
            for mu in shapes:
                for nu in shapes:
                    base = kron_oracle(lam, mu, nu).gamma
                    symmetric = symmetric and base == kron_oracle(mu, nu, lam).gamma
                    symmetric = symmetric and base == kron_oracle(lam, nu, mu).gamma
    yield "oracle symmetry through n=5", symmetric
    rng = random.Random(seed)
    comult = all(
        schur_eval.verify_comultiplication(
            lam,
            schur_eval.SignedAlphabet.positive(schur_eval.sample_fractions(rng, 3)),
            schur_eval.SignedAlphabet.positive(schur_eval.sample_fractions(rng, 3)),
        )
        for n in range(1, 5)
        for lam in enumerate_partitions(n)
    )
    yield "product-alphabet expansion through n=4", comult
    yield "difference-alphabet specializations through n=6", (
        schur_eval.verify_sergeev_specializations(6, seed=seed, points=2)
    )


@main.command("selftest")
@click.option("--seed", type=int, default=2718, show_default=True,
              help="Seed for the rational sample points.")
def cmd_selftest(seed):
    """Quick identity battery; one pass/fail line per check."""
    failed = False
    for name, ok in _selftest_checks(seed):
        print(f"{'PASS' if ok else 'FAIL'}  {name}", flush=True)
        failed = failed or not ok
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
