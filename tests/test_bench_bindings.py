"""The benchmark's tracer and the layer harness bind program attributes by
name; a rename or an inlining of one of them must fail here, in the tier-1
suite, not only in the slower benchmark smoke test or the next harness
run."""

import importlib.util
from pathlib import Path

from kroncoef import characters

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
