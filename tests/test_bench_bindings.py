"""The benchmark's tracer binds program attributes by name; a rename or an
inlining of one of them must fail here, in the tier-1 suite, not only in the
slower benchmark smoke test."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "kronbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("kronbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    spans = load_tracing().SPANS
    assert spans
    for span, sites in spans.items():
        for owner, attr in sites:
            assert callable(getattr(owner, attr, None)), f"{span}: {owner!r} has no {attr}"
