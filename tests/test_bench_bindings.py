"""The benchmark's tracer and the layer harness bind program attributes by
name; a rename or an inlining of one of them must fail here, in the tier-1
suite, not only in the slower benchmark smoke test or the next harness
run."""

import importlib.util
from pathlib import Path

from kroncoef import characters, cli, closed_forms, make_partition

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "kronbench" / "tracing.py"
HARNESS = ROOT / "scripts" / "bench_characters.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    spans = load(TRACING, "kronbench_tracing").SPANS
    assert spans
    for span, sites in spans.items():
        for owner, attr in sites:
            assert callable(getattr(owner, attr, None)), f"{span}: {owner!r} has no {attr}"


def test_tracer_installs_reads_and_restores_its_bindings():
    # besides SPANS the tracer reads _strip_cache (the gauge), ORACLE and
    # the cache_info and cache_clear of _char_row and _classes, sets
    # bench_tally on sweep reports and patches SweepReport.merge, which
    # refuses a report that comes back without one
    tracing = load(TRACING, "kronbench_tracing")
    sites = [site for span in tracing.SPANS.values() for site in span]
    sites.append((cli.SweepReport, "merge"))
    before = [getattr(owner, attr) for owner, attr in sites]
    characters.clear_cache()
    shape = make_partition([3, 2, 1])
    tracer = tracing.Tracer()
    with tracer.installed():
        assert closed_forms.compute(shape, shape, shape).provenance == characters.ORACLE
        assert cli.run_sweep("hook-two-row", 5, 1).mismatches == []
        characters._char_row((4, 2), 6)
        characters._classes(6)
        characters.clear_cache()
    assert [getattr(owner, attr) for owner, attr in sites] == before
    assert tracer.gauges[tracing.STRIP_CACHE_ENTRIES] > 0
    assert tracer.calls["cli.sweep_chunk"] == 1
    for span in ("closed_forms.compute", "characters.char_row", "characters.classes"):
        assert tracer.calls[span] >= 1, span
    characters.clear_cache()


def test_every_per_n_figure_of_the_harness_runs():
    # each per-n figure's work runs once, cold, at n = 8, and the memo
    # figures read the entries one cold row leaves
    harness = load(HARNESS, "bench_characters")
    work = harness.per_n_work(8, ((3, 3, 2), (4, 2, 2), (3, 2, 2, 1)))
    assert list(work) == ["char_row_cold_ms", "class_sizes_cold_ms", "counts_cold_ms",
                          "oracle_cold_ms"]
    for run, setup in work.values():
        characters.clear_cache()
        if setup is not None:
            setup()
        run()
    characters.clear_cache()
    characters._char_row((3, 3, 2), 8)
    assert harness.memo_entries() == len(characters._strip_cache[characters._width(8)]) > 0
    assert harness.memo_bytes() > 0
    characters.clear_cache()


def test_oracle_peak_bytes_repeat_exactly():
    # the harness's memory figure is exact: two passes read the same bytes
    harness = load(HARNESS, "bench_characters")
    shapes = [make_partition(parts) for parts in ((3, 3, 2), (4, 2, 2), (3, 2, 2, 1))]
    first = harness.oracle_peak_bytes(shapes)
    assert first > 0
    assert harness.oracle_peak_bytes(shapes) == first
