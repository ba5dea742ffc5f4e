import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import asdict
from itertools import product

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from kroncoef import (Partition, character, clear_cache, cli, closed_forms, compute,
                      enumerate_partitions, hook_parts, kron_oracle, two_row_parts)
from kroncoef.characters import kron_oracle_column
from kroncoef.cli import main, run_sweep
from kroncoef.closed_forms import InvariantViolation


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def reader_pairs(shapes, family):
    """A family's (mu, nu) pairs chosen by the partitions readers: the
    reference for the CLI's choice by the class bits of its closed form."""
    two_rows = [p for p in shapes if two_row_parts(p) is not None]
    hooks = [p for p in shapes if hook_parts(p) is not None]
    mus, nus = {"two-row": (two_rows, two_rows), "hook-hook": (hooks, hooks),
                "hook-two-row": (hooks, two_rows), "all": (shapes, shapes)}[family]
    return [(mu, nu) for mu in mus for nu in nus]


class TestComputeCommand:
    def test_plain_output(self):
        result = invoke("compute", "--lambda", "3,1", "--mu", "3,1", "--nu", "3,1")
        assert result.exit_code == 0
        assert "gamma = 1" in result.output
        assert "provenance = TwoRowTwoRow" in result.output

    def test_delta_rule(self):
        result = invoke("compute", "--lambda", "4", "--mu", "2,2", "--nu", "2,1,1")
        assert result.exit_code == 0
        assert "gamma = 0" in result.output
        assert "provenance = DeltaRule" in result.output

    def test_method_independence(self):
        outputs = set()
        for method in ("auto", "oracle"):
            result = invoke(
                "compute", "--lambda", "2,2,1", "--mu", "2,1,1,1", "--nu", "3,2",
                "--method", method,
            )
            assert result.exit_code == 0
            outputs.add(result.output.splitlines()[0])
        assert len(outputs) == 1  # same "gamma = ..." line

    def test_json_round_trip(self):
        first = invoke(
            "compute", "--lambda", "4,3,1", "--mu", "6,2", "--nu", "5,3", "--format", "json"
        )
        assert first.exit_code == 0
        record = json.loads(first.output)
        assert set(record) == {"lambda", "mu", "nu", "gamma", "provenance", "moves", "elapsed_ms",
                               "elapsed_us"}
        assert record["elapsed_ms"] == record["elapsed_us"] // 1000
        again = invoke(
            "compute",
            "--lambda", ",".join(map(str, record["lambda"])),
            "--mu", ",".join(map(str, record["mu"])),
            "--nu", ",".join(map(str, record["nu"])),
            "--format", "json",
        )
        assert json.loads(again.output)["gamma"] == record["gamma"]

    def test_csv_output(self):
        result = invoke(
            "compute", "--lambda", "4,3,1", "--mu", "6,2", "--nu", "5,3", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["lambda", "mu", "nu", "gamma", "provenance"]
        assert rows[1][:3] == ["4,3,1", "6,2", "5,3"]

    def test_parse_error_exit_code(self):
        assert invoke("compute", "--lambda", "4,x", "--mu", "2,2", "--nu", "2,2").exit_code == 2
        assert invoke("compute", "--lambda", "4,-1", "--mu", "2,2", "--nu", "2,2").exit_code == 2
        assert invoke("compute", "--lambda", "2.5", "--mu", "2,2", "--nu", "2,2").exit_code == 2

    def test_size_mismatch_exit_code(self):
        result = invoke("compute", "--lambda", "4", "--mu", "2,2", "--nu", "3,2")
        assert result.exit_code == 3

    def test_closed_mode_failure_exit_code(self):
        result = invoke(
            "compute", "--lambda", "3,3,3", "--mu", "3,3,3", "--nu", "3,3,3",
            "--method", "closed",
        )
        assert result.exit_code == 1


class TestTableCommand:
    def test_all_family_row_count(self):
        result = invoke("table", "--n", "3", "--family", "all", "--format", "csv")
        rows = list(csv.reader(io.StringIO(result.output)))
        assert len(rows) - 1 == 27  # p(3)^3

    def test_hook_family_filter(self):
        result = invoke("table", "--n", "4", "--family", "hook-hook", "--format", "json")
        records = [json.loads(line) for line in result.output.splitlines()]
        hooks = {(3, 1), (2, 1, 1)}
        assert records
        for record in records:
            assert tuple(record["mu"]) in hooks
            assert tuple(record["nu"]) in hooks
            assert int(record["gamma"]) >= 0

    def test_json_rows_carry_their_compute_time(self):
        result = invoke("table", "--n", "5", "--family", "all", "--format", "json")
        records = [json.loads(line) for line in result.output.splitlines()]
        assert len(records) == 7 ** 3
        for record in records:
            assert list(record)[-2:] == ["elapsed_ms", "elapsed_us"]
            assert isinstance(record["elapsed_us"], int) and record["elapsed_us"] >= 0
            assert record["elapsed_ms"] == record["elapsed_us"] // 1000
        assert sum(record["elapsed_us"] for record in records) > 0  # measured, not a constant

    def test_json_rows_requery_identically(self):
        result = invoke("table", "--n", "4", "--family", "two-row", "--format", "json")
        records = [json.loads(line) for line in result.output.splitlines()]
        for record in records[:10]:
            again = invoke(
                "compute",
                "--lambda", ",".join(map(str, record["lambda"])),
                "--mu", ",".join(map(str, record["mu"])),
                "--nu", ",".join(map(str, record["nu"])),
                "--format", "json",
            )
            assert json.loads(again.output)["gamma"] == record["gamma"]

    def test_negative_row_raises(self, monkeypatch):
        # a block's oracle rows come from one column: at n = 6, (3,2,1)^3 is
        # an oracle row, and every row's gamma is checked
        monkeypatch.setattr(closed_forms, "kron_oracle_column",
                            lambda lam, mu, nus: [-1] * len(nus))
        result = invoke("table", "--n", "6", "--format", "csv")
        assert isinstance(result.exception, InvariantViolation)

    def test_negative_closed_row_raises(self, monkeypatch):
        # every two-row table row is closed; the block checks the kernel's gamma
        monkeypatch.setattr(closed_forms, "kron_two_tworow", lambda lam, mu, nu: -1)
        result = invoke("table", "--n", "6", "--family", "two-row", "--format", "csv")
        assert isinstance(result.exception, InvariantViolation)

    def test_rows_equal_per_triple_compute(self):
        # the block evaluator and the label map answer and format the table;
        # the bytes must be those of one compute and one formatting per row
        cases = [(n, family) for n in range(1, 7) for family in cli.FAMILIES]
        for n, family in cases + [(7, "all"), (8, "all")]:
            shapes = list(enumerate_partitions(n))
            csv_text = io.StringIO()
            writer = csv.writer(csv_text, lineterminator="\n")
            writer.writerow(["lambda", "mu", "nu", "gamma", "provenance"])
            plain = []
            for lam in shapes:
                for mu, nu in reader_pairs(shapes, family):
                    r = compute(lam, mu, nu)
                    writer.writerow([str(lam), str(mu), str(nu), str(r.gamma), r.provenance])
                    plain.append(f"{str(lam):>16}  {str(mu):>12}  {str(nu):>12}  "
                                 f"{r.gamma:>4}  {r.provenance}\n")
            got_csv = invoke("table", "--n", str(n), "--family", family, "--format", "csv")
            got_plain = invoke("table", "--n", str(n), "--family", family)
            assert got_csv.stdout_bytes == csv_text.getvalue().encode(), (n, family)
            assert got_plain.stdout_bytes == "".join(plain).encode(), (n, family)

    def test_json_rows_equal_the_block_rows(self):
        # JSON rows are timed one compute each; the other formats read the
        # block evaluator, and the two must give the same answers
        for n in range(1, 6):
            shapes = list(enumerate_partitions(n))
            for family in cli.FAMILIES:
                mus, nus = cli._family_sides(shapes, family)
                want = [([*lam.parts], [*mu.parts], [*nu.parts], str(r.gamma), r.provenance,
                         [*r.moves])
                        for lam in shapes for mu in mus
                        for nu, r in zip(nus, closed_forms._compute_block(lam, mu, nus))]
                got = invoke("table", "--n", str(n), "--family", family, "--format", "json")
                records = [json.loads(line) for line in got.output.splitlines()]
                keys = ("lambda", "mu", "nu", "gamma", "provenance", "moves")
                assert [tuple(r[k] for k in keys) for r in records] == want, (n, family)

    @pytest.mark.parametrize("family", ["two-row", "hook-hook", "hook-two-row"])
    def test_closed_families_build_no_column(self, monkeypatch, family):
        # no triple of these families goes to the oracle, so no block builds
        # its column
        def refuse(lam, mu, nus):
            raise AssertionError(f"column built for ({lam}; {mu})")

        monkeypatch.setattr(closed_forms, "kron_oracle_column", refuse)
        shapes = list(enumerate_partitions(12))
        for fmt in ("csv", "plain"):
            result = invoke("table", "--n", "12", "--family", family, "--format", fmt)
            assert result.exit_code == 0, (fmt, result.exception)
            rows = result.stdout_bytes.count(b"\n") - (fmt == "csv")
            assert rows == len(shapes) * len(reader_pairs(shapes, family)), fmt

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_each_row_is_one_write(self, fmt):
        # a row goes out in one write, its line end included, so an
        # unbuffered standard output makes one system call per row; the CSV
        # header is one write of its own
        class CountingOut(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        out = CountingOut()
        with contextlib.redirect_stdout(out):
            cli.main(["table", "--n", "4", "--format", fmt], standalone_mode=False)
        rows = out.getvalue().splitlines()
        assert len(rows) == len(list(enumerate_partitions(4))) ** 3 + (fmt == "csv")
        assert out.writes == len(rows)

    def test_n_below_one_is_a_parse_error(self):
        for n in ("0", "-1"):
            result = invoke("table", "--n", n)
            assert result.exit_code == 2, n
            assert result.stdout == ""  # no table row


class TestCsvOutput:
    def test_no_carriage_returns(self):
        table = invoke("table", "--n", "3", "--format", "csv")
        single = invoke("compute", "--lambda", "3", "--mu", "2,1", "--nu", "2,1", "--format", "csv")
        for result in (table, single):
            assert result.exit_code == 0
            assert b"\r" not in result.stdout_bytes
            assert result.stdout_bytes.startswith(b"lambda,mu,nu,gamma,provenance\n")
        assert single.stdout_bytes == b'lambda,mu,nu,gamma,provenance\n3,"2,1","2,1",1,DeltaRule\n'
        # both commands write the same row for the same triple
        assert single.stdout_bytes.splitlines()[1] in table.stdout_bytes.splitlines()

    def test_empty_shapes_write_empty_cells(self):
        result = invoke("compute", "--lambda", "", "--mu", "", "--nu", "", "--format", "csv")
        assert result.exit_code == 0
        assert result.stdout_bytes == b"lambda,mu,nu,gamma,provenance\n,,,1,DeltaRule\n"

    def test_shape_cells_are_what_the_csv_module_writes(self):
        # a cell stands first and last in a row as csv.writer would write its
        # label there; a label alone on its row is no cell, so two are written
        for n in range(13):
            for shape in enumerate_partitions(n):
                label = str(shape)
                text = io.StringIO()
                csv.writer(text, lineterminator="\n").writerow([label, label])
                cell = cli._csv_cell(label)
                assert f"{cell},{cell}\n" == text.getvalue(), shape

    def test_benchmark_table_bytes_are_pinned(self):
        # the table the benchmark's table-n10 workload writes
        result = invoke("table", "--n", "10", "--family", "all", "--format", "csv")
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "f12952c4c646f0dc0c09f8c44c6454303d436f994851505dd9981d747800a722")


class TestVerifyCommand:
    def test_two_row_family_clean(self):
        result = invoke("verify", "--family", "two-row", "--n-max", "6")
        assert result.exit_code == 0
        assert "mismatches=0" in result.output

    def test_hook_hook_reports_bound(self):
        result = invoke("verify", "--family", "hook-hook", "--n-max", "7", "--format", "json")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert list(report) == ["n", "family", "triples_checked", "mismatches", "elapsed_ms",
                                "max_gamma"]
        assert report["mismatches"] == []
        assert report["max_gamma"] <= 2

    def test_all_families(self):
        result = invoke("verify", "--family", "all", "--n-max", "5")
        assert result.exit_code == 0
        lines = [ln for ln in result.output.splitlines() if ln.startswith("family=")]
        assert len(lines) == 3
        assert all(ln.endswith(" ok") for ln in lines)

    def test_run_sweep_matches_direct_loop(self):
        report = run_sweep("hook-two-row", 6)
        assert report.mismatches == []
        assert report.max_gamma <= 3
        assert report.triples_checked > 0

    def test_parallel_jobs_agree(self):
        for family in cli.SWEEP_FAMILIES:
            serial = asdict(run_sweep(family, 6, jobs=1))
            parallel = asdict(run_sweep(family, 6, jobs=2))
            del serial["elapsed_ms"], parallel["elapsed_ms"]
            assert parallel == serial, family
            assert serial["mismatches"] == [] and serial["triples_checked"] > 0

    def test_every_closed_evaluation_goes_through_try_closed(self, monkeypatch):
        # the sweep, compute and a table block all evaluate the closed forms
        # through closed_forms._try_closed, so wrapping it counts every one
        real = closed_forms._try_closed
        calls = []

        def counting(provenance, lam, mu, nu):
            calls.append(provenance)
            return real(provenance, lam, mu, nu)

        monkeypatch.setattr(closed_forms, "_try_closed", counting)
        for family in cli.SWEEP_FAMILIES:
            calls.clear()
            report = run_sweep(family, 6, jobs=1)
            assert len(calls) == report.triples_checked > 0, family
        calls.clear()
        compute(Partition((4, 3, 1)), Partition((6, 2)), Partition((5, 3)))
        assert calls == ["TwoRowTwoRow"]
        calls.clear()
        assert compute(*[Partition((3, 2, 1))] * 3).provenance == "Oracle"
        assert calls == []
        lam = mu = Partition((3, 2, 1))
        nus = list(enumerate_partitions(6))
        results = closed_forms._compute_block(lam, mu, nus)
        closed = [r.provenance for r in results if r.provenance != "Oracle"]
        assert calls == closed and 0 < len(closed) < len(nus)

    @pytest.mark.parametrize("family, triples, max_gamma", [
        ("two-row", 545, 2), ("hook-hook", 637, 2), ("hook-two-row", 575, 2),
    ])
    def test_sweep_counts_to_seven(self, family, triples, max_gamma):
        # the counts the sweep gave when it called kron_oracle once per triple
        for jobs in (1, 2):  # 2 is a real pool
            report = run_sweep(family, 7, jobs=jobs)
            assert report.mismatches == [], (family, jobs)
            assert (report.triples_checked, report.max_gamma) == (triples, max_gamma), jobs

    def test_empty_shares_check_nothing(self):
        # worker 2 of 3 has no lambda at n = 1 and 2 (p(n) < 3) and only
        # (1,1,1) at n = 3; the three workers together make the serial sweep
        for family in cli.SWEEP_FAMILIES:
            chunks = [cli._sweep_chunk(family, 3, first, 3) for first in range(3)]
            serial = cli._sweep_chunk(family, 3, 0, 1)
            pairs = len(list(product(*cli._family_sides(list(enumerate_partitions(3)), family))))
            assert chunks[2].triples_checked == pairs, family
            assert sum(c.triples_checked for c in chunks) == serial.triples_checked
            assert max(c.max_gamma for c in chunks) == serial.max_gamma
            assert not any(c.mismatches for c in chunks)

    def test_family_pairs_match_the_readers(self):
        for n in range(1, 13):
            shapes = list(enumerate_partitions(n))
            for family in cli.FAMILIES:
                pairs = list(product(*cli._family_sides(shapes, family)))
                assert pairs == reader_pairs(shapes, family), (n, family)

    @pytest.mark.parametrize("family", ["two-row", "hook-hook", "hook-two-row"])
    def test_mismatches_are_reported(self, monkeypatch, family):
        # the family's kernel, as closed_forms calls it, off by one on
        # lambda = (3,3) and (2,2,2) for any (mu, nu): the serial and the
        # pooled sweep see the same faults
        kernel = {"two-row": "kron_two_tworow", "hook-hook": "kron_two_hooks",
                  "hook-two-row": "kron_hook_tworow"}[family]
        real = getattr(closed_forms, kernel)
        bad = {(3, 3), (2, 2, 2)}

        def off_by_one(lam, mu, nu):
            return real(lam, mu, nu) + (lam.parts in bad)

        monkeypatch.setattr(closed_forms, kernel, off_by_one)
        expected = sorted(
            ([list(lam.parts), list(mu.parts), list(nu.parts)], real(lam, mu, nu))
            for lam in map(Partition, bad)
            for mu, nu in reader_pairs(list(enumerate_partitions(6)), family)
        )

        def faults(mismatches):
            assert all(m["closed"] == m["oracle"] + 1 for m in mismatches)
            return sorted(([m["lambda"], m["mu"], m["nu"]], m["oracle"]) for m in mismatches)

        plain = invoke("verify", "--family", family, "--n-max", "6")
        assert plain.exit_code == 1
        assert plain.output.splitlines()[0].endswith(" MISMATCH")
        offending = [ln for ln in plain.output.splitlines() if ln.startswith("  offending triple: ")]
        assert len(offending) == len(expected) == 2 * 4 * 4
        as_json = invoke("verify", "--family", family, "--n-max", "6", "--format", "json")
        assert as_json.exit_code == 1
        report = json.loads(as_json.output)
        assert faults(report["mismatches"]) == expected
        assert offending == [f"  offending triple: {m}" for m in report["mismatches"]]
        serial = run_sweep(family, 6, jobs=1)
        pooled = run_sweep(family, 6, jobs=2)  # a real pool; its workers fork
        assert faults(serial.mismatches) == faults(pooled.mismatches) == expected
        assert serial.triples_checked == pooled.triples_checked == report["triples_checked"]
        assert serial.max_gamma == pooled.max_gamma == report["max_gamma"]

    def test_jobs_below_one_is_a_parse_error(self):
        for jobs in ("0", "-3"):
            result = invoke("verify", "--family", "two-row", "--n-max", "3", "--jobs", jobs)
            assert result.exit_code == 2, jobs

    def test_n_max_below_one_is_a_parse_error(self):
        for n_max in ("0", "-1"):
            result = invoke("verify", "--family", "two-row", "--n-max", n_max)
            assert result.exit_code == 2, n_max

    def test_run_sweep_rejects_other_families(self):
        # "all" is expanded by the verify command, never swept as one family
        for family in ("all", "hook_hook"):
            with pytest.raises(ValueError):
                run_sweep(family, 3)

    def test_workers_capped_by_cpus_and_lambdas(self, monkeypatch):
        # a fake pool records its size and its task count and maps
        # in-process: no worker starts
        sizes, tasks = [], []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                calls = list(zip(*iterables))
                tasks.append(len(calls))
                return [fn(*args) for args in calls]

        # run_sweep imports the pool class from concurrent.futures at call time
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        report = run_sweep("two-row", 6, jobs=500)
        # one pool per sweep, sized min(jobs, CPUs, p(6) = 11), one task per worker
        assert sizes == [4] and tasks == [4]
        serial = run_sweep("two-row", 6, jobs=1)
        assert report.triples_checked == serial.triples_checked
        assert report.mismatches == [] and report.max_gamma == serial.max_gamma
        run_sweep("two-row", 2, jobs=500)  # p(2) = 2 workers
        assert sizes == [4, 2] and tasks == [4, 2]
        run_sweep("two-row", 1, jobs=500)  # p(1) = 1: in-process
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: one worker
        run_sweep("two-row", 6, jobs=500)
        assert sizes == [4, 2] and tasks == [4, 2]


class TestFuzzedInput:
    @given(st.text(alphabet="0123456789,-.x ", max_size=8))
    def test_lambda_token_is_answered_or_refused(self, token):
        # mu and nu fix n = 3: a lambda of any other size is refused as a
        # size mismatch, so no oracle query can run long
        result = invoke("compute", "--lambda", token, "--mu", "2,1", "--nu", "2,1")
        assert result.exit_code in (0, 2, 3), (token, result.output, result.exception)
        assert result.exception is None or isinstance(result.exception, SystemExit), token


class TestSelftestCommand:
    def test_passes(self):
        result = invoke("selftest", "--seed", "2718")
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert result.output.count("PASS") >= 7


class TestImportHygiene:
    def test_cli_import_loads_neither_the_pool_nor_schur_eval(self):
        # a fresh interpreter: the suite's own imports would hide an eager one
        script = (
            "import json, sys\n"
            "import kroncoef.cli\n"
            "loaded = [m for m in ('concurrent.futures', 'multiprocessing',\n"
            "                      'kroncoef.schur_eval') if m in sys.modules]\n"
            "import kroncoef\n"
            "not_listed = sorted(set(kroncoef.__all__) - set(dir(kroncoef)))\n"
            "namespace = {}\n"
            "exec('from kroncoef import *', namespace)\n"
            "unbound = sorted(set(kroncoef.__all__) - set(namespace))\n"
            "from kroncoef import schur_eval\n"
            "same = namespace['verify_comultiplication'] is schur_eval.verify_comultiplication\n"
            "try:\n"
            "    kroncoef.no_such_name\n"
            "    unknown = 'resolved'\n"
            "except AttributeError:\n"
            "    unknown = 'AttributeError'\n"
            "print(json.dumps({'loaded': loaded, 'not_listed': not_listed,\n"
            "                  'unbound': unbound, 'same': same, 'unknown': unknown}))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env=env).stdout
        assert json.loads(out) == {"loaded": [], "not_listed": [], "unbound": [],
                                   "same": True, "unknown": "AttributeError"}


def _transcript(argv):
    """Exit code, stdout and stderr of one invocation as bytes, with every
    elapsed_ms and elapsed_us value (JSON key or plain field) blanked."""
    result = invoke(*argv)
    raw = b"exit %d\n%s--- stderr\n%s" % (result.exit_code, result.stdout_bytes,
                                          result.stderr_bytes)
    return re.sub(rb'(elapsed_(?:ms|us)(?:": |=))\d+', rb"\1_", raw)


CONTRACT_TRIPLES = [  # TwoRowTwoRow, HookHook, HookTwoRow and DeltaRule after moves, Oracle
    ("4,3,1", "6,2", "5,3"), ("3,2,1", "4,1,1", "3,1,1,1"), ("4,2", "3,1,1,1", "2,2,1,1"),
    ("2,2,1,1", "1,1,1,1,1,1", "2,2,1,1"), ("3,2,1", "3,2,1", "3,2,1"),
]

# Each case is a list of invocations whose transcripts are hashed together.
CONTRACT_CASES = {
    "table-csv": [("table", "--n", str(n), "--family", family, "--format", "csv")
                  for n in range(1, 9) for family in cli.FAMILIES],
    "table-plain": [("table", "--n", "6", "--family", "all")],
    "table-json": [("table", "--n", "6", "--family", "all", "--format", "json")],
    **{f"compute-{fmt}": [("compute", "--lambda", lam, "--mu", mu, "--nu", nu, "--format", fmt)
                          for lam, mu, nu in CONTRACT_TRIPLES]
       for fmt in ("plain", "json", "csv")},
    "exit-1": [("compute", "--lambda", "3,3,3", "--mu", "3,3,3", "--nu", "3,3,3",
                "--method", "closed")],
    "exit-2": [("compute", "--lambda", "4,x", "--mu", "2,2", "--nu", "2,2"),
               ("table", "--n", "0"), ("verify", "--n-max", "3", "--jobs", "0")],
    "exit-3": [("compute", "--lambda", "4", "--mu", "2,2", "--nu", "3,2")],
    "verify-plain": [("verify", "--family", "all", "--n-max", "8")],
    "verify-json": [("verify", "--family", "all", "--n-max", "8", "--format", "json")],
    "selftest": [("selftest",)],
}


def contract_digest(case):
    """SHA-256 of the transcripts of one CONTRACT_CASES entry, in order."""
    return hashlib.sha256(b"".join(map(_transcript, CONTRACT_CASES[case]))).hexdigest()


class TestOutputBytes:
    # the bytes the commands write are their contract, whatever writes them;
    # elapsed times are blanked by _transcript
    DIGESTS = {
        "compute-csv": "74182d393b3b7b35ad8e11bfdd6fd2a7ef6fc3cd8f15f09ef2fdc4d700a94a81",
        "compute-json": "c830c7a1fbd88822c0cf157051bdb3d48a6035e4dfdd23805b305d390b1c21ab",
        "compute-plain": "e01877d602da1a2f2979620d58259cfa1225bff5f03f1f2c9d3899fce49d20b6",
        "exit-1": "97dd417b75581c25df484b29b9db80dd6bacbf7ca8013252fc82acfb0f0ebf17",
        "exit-2": "1ee52cd711f4e8b7716b05d0f7c6350d0aca2b90c095a265b51d1722529b4eda",
        "exit-3": "e78c16e48fb13ef1550695ccc7f0003816aa08509428584cdd7a1882a64bf79d",
        "selftest": "82e619611acb7f2230199e36030fbe0e6c70e5d335dd287a89980ebcd8a99016",
        "table-csv": "5a38b70c9c44e1da04b7363bae000afef17141ec3e12de15d4c0f28151716338",
        "table-json": "0c757fc803b18623e6285580b48ec21e193a1dddbef4b9f6cf12b57092dda241",
        "table-plain": "efba0e98b53594f794460a6ba58e9dae55a2f26f379b6b575b93a9efaac2f181",
        "verify-json": "ceecb968fd2356bfa8ec750689fd43bb003f041eda21d51d0b1d8d2e1e1d2163",
        "verify-plain": "57e0832afc231d3645a07301fa2c92aaa26fcbcef931f4a0afa810f46f806572",
    }

    @pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
    def test_output_bytes_are_pinned(self, case):
        assert contract_digest(case) == self.DIGESTS[case]

    def test_in_process_calls_keep_no_stream_alive(self):
        # an in-process caller hands each call fresh streams; once the call
        # returns, nothing of the CLI may hold on to them
        calls = [
            (["compute", "--lambda", "4,3,1", "--mu", "6,2", "--nu", "5,3", "--format", "json"],
             None),
            (["compute", "--lambda", "3,3,3", "--mu", "3,3,3", "--nu", "3,3,3",
              "--method", "closed"], 1),
            (["table", "--n", "3", "--format", "json"], None),
            (["verify", "--family", "two-row", "--n-max", "3"], 0),
        ]
        refs = []
        for argv, exit_code in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.main(argv, standalone_mode=False)
                    code = None
                except SystemExit as exc:
                    code = exc.code
            assert code == exit_code, argv
            assert (err if code == 1 else out).getvalue(), argv  # the call wrote its lines
            refs += [(argv[0], "stdout", weakref.ref(out)), (argv[0], "stderr", weakref.ref(err))]
            del out, err
        gc.collect()
        assert [ref[:2] for ref in refs if ref[2]() is not None] == []


def _cli_call(*argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(list(argv), standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 0, argv
    return call


NO_GARBAGE_CALLS = {
    "kron_oracle-n20": lambda: kron_oracle(Partition((8, 6, 4, 2)), Partition((7, 5, 3, 2, 2, 1)),
                                           Partition((6, 5, 4, 3, 2))),
    "kron_oracle_column": lambda: kron_oracle_column(
        Partition((4, 3, 1)), Partition((3, 3, 2)), list(enumerate_partitions(8))),
    "character": lambda: character(Partition((5, 4, 3, 2)), Partition((3, 3, 2, 2, 1, 1, 1, 1))),
    "compute-oracle": _cli_call("compute", "--lambda", "4,3,2,1", "--mu", "5,3,2",
                                "--nu", "4,4,2", "--format", "json"),
    "compute-closed": _cli_call("compute", "--lambda", "5,3", "--mu", "6,2", "--nu", "4,4",
                                "--format", "json"),
    "table-csv": _cli_call("table", "--n", "6", "--format", "csv"),
    "table-json": _cli_call("table", "--n", "6", "--format", "json"),
    "verify": _cli_call("verify", "--n-max", "8", "--jobs", "1"),
}


@pytest.mark.parametrize("name", sorted(NO_GARBAGE_CALLS))
def test_no_entry_point_leaves_cyclic_garbage(name):
    # a cold call frees everything it does not cache by reference counting:
    # with the collector off and every unreachable object saved, one
    # collection after the call finds nothing, so no reference cycle keeps
    # a query's tables alive until the next full collection
    clear_cache()
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        NO_GARBAGE_CALLS[name]()
        assert gc.collect() == 0, gc.garbage
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()
        gc.garbage.clear()
