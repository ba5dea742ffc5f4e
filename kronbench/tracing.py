"""Span tracing for the traced benchmark run, kept outside the program.

kroncoef's modules look their collaborators up as module attributes at call
time (``closed_forms._try_closed``, ``characters._char_row``, ``cli.compute``
and so on).  ``Tracer.installed()`` rebinds exactly those attributes to
timing wrappers and restores them on exit, so the program itself carries no
tracing code and the untraced runs pay nothing.

A span is opened on entry to a wrapped call and closed on exit; its parent is
the span open below it on the stack.  Self time is the span's duration minus
the time its child spans cover.  Spans are folded into per-name totals as
they close instead of being stored: the ``table-n10`` workload opens about
two million of them per pass.

The recursive ``characters._char`` is deliberately not wrapped (its cost
lands in ``char_row`` self time, and its memo size is read as a gauge), and
neither is ``schur_eval``, which no query path calls.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from kroncoef import characters, cli, closed_forms
from kroncoef.closed_forms import HypothesisNotMet

# Span name -> the (namespace, attribute) pairs through which the call path
# reaches that function.  A function imported into several modules is wrapped
# once and bound under every name, so all routes report to one span.
SPANS: dict[str, tuple[tuple[object, str], ...]] = {
    "partitions.conjugate": ((closed_forms, "conjugate"),),
    "partitions.enumerate_partitions": ((cli, "enumerate_partitions"),
                                        (characters, "enumerate_partitions")),
    "closed_forms.compute": ((closed_forms, "compute"), (cli, "compute")),
    "closed_forms.try_closed": ((closed_forms, "_try_closed"),),
    "closed_forms.kron_two_tworow": ((closed_forms, "kron_two_tworow"), (cli, "kron_two_tworow")),
    "closed_forms.kron_two_hooks": ((closed_forms, "kron_two_hooks"), (cli, "kron_two_hooks")),
    "closed_forms.kron_hook_tworow": ((closed_forms, "kron_hook_tworow"), (cli, "kron_hook_tworow")),
    "lattice.gamma_region_closed": ((closed_forms, "gamma_region_closed"),),
    "characters.kron_oracle": ((closed_forms, "kron_oracle"), (cli, "kron_oracle")),
    "characters.char_row": ((characters, "_char_row"),),
    "characters.classes": ((characters, "_classes"),),
    "cli.table": ((cli.cmd_table, "callback"),),
    "cli.compute_command": ((cli.cmd_compute, "callback"),),
    "cli.run_sweep": ((cli, "run_sweep"),),
    "cli.sweep_chunk": ((cli, "_sweep_chunk"),),
}

KERNELS = ("closed_forms.kron_two_tworow", "closed_forms.kron_two_hooks",
           "closed_forms.kron_hook_tworow")

# Event counters, folded in next to the span totals.
CLOSED_ANSWERS = "closed_forms.closed_answers"
HYPOTHESIS_NOT_MET = "closed_forms.hypothesis_not_met"
FORMULA_CALLS = "lattice.formula_calls"
CHAR_ROW_HITS = "characters.char_row.hits"
# A gauge, read as each oracle call returns: the largest character memo seen.
STRIP_CACHE_ENTRIES = "characters.strip_cache.entries"


class Tracer:
    """Per-name span totals (calls, self seconds) plus event counters.

    ``gauges`` keep the largest value observed.  Worker processes of the
    verification pool fork with the wrappers already bound; each sweep chunk
    starts a fresh tally there and ships it back on the chunk's report.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.events: Counter = Counter()
        self.gauges: dict[str, int] = {}
        self._stack: list[list[float]] = []  # open spans: [child seconds]
        self._kernel_depth = 0
        self._owner_pid = os.getpid()

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.events.clear()
        self.gauges.clear()
        self._stack.clear()
        self._kernel_depth = 0

    def gauge(self, name: str, value: int) -> None:
        if value > self.gauges.get(name, -1):
            self.gauges[name] = value

    def export(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "events": dict(self.events), "gauges": dict(self.gauges)}

    def absorb(self, tally: dict) -> None:
        self.calls.update(tally["calls"])
        self.self_s.update(tally["self_s"])
        self.events.update(tally["events"])
        for name, value in tally["gauges"].items():
            self.gauge(name, value)

    def _span(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(args, result)`` records events on success."""
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self_s[name] += duration - child[0]
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _kernel(self, name: str, fn):
        """Kernel span that counts HypothesisNotMet leaving the outermost
        kernel, i.e. each time the dispatcher falls back to the oracle."""
        inner = self._span(name, fn)
        events = self.events

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._kernel_depth += 1
            try:
                return inner(*args, **kwargs)
            except HypothesisNotMet:
                if self._kernel_depth == 1:
                    events[HYPOTHESIS_NOT_MET] += 1
                raise
            finally:
                self._kernel_depth -= 1

        return wrapper

    def _wrapper_for(self, name: str, fn):
        events = self.events
        if name in KERNELS:
            return self._kernel(name, fn)
        if name == "closed_forms.compute":
            def after(args, result):
                if result.provenance != characters.ORACLE:
                    events[CLOSED_ANSWERS] += 1
            return self._span(name, fn, after)
        if name == "lattice.gamma_region_closed":
            def after(args, result):
                if args[4] >= args[5]:  # x >= y: the closed formula branch
                    events[FORMULA_CALLS] += 1
            return self._span(name, fn, after)
        if name == "characters.kron_oracle":
            def after(args, result):
                self.gauge(STRIP_CACHE_ENTRIES, len(characters._strip_cache))
            return self._span(name, fn, after)
        if name == "partitions.enumerate_partitions":
            # A generator's body runs while it is consumed; every caller
            # consumes it whole, so drain it inside the span.
            return self._span(name, lambda n: iter(list(fn(n))))
        if name in ("characters.char_row", "characters.classes"):
            return self._lru(name, fn)
        if name == "cli.sweep_chunk":
            return self._chunk(name, fn)
        return self._span(name, fn)

    def _lru(self, name: str, cached):
        """Span around an lru_cache'd function, counting hits by cache size."""
        events = self.events
        hits = name + ".hits"

        def probe(*args):
            before = cached.cache_info().currsize
            result = cached(*args)
            if cached.cache_info().currsize == before:
                events[hits] += 1
            return result

        wrapper = self._span(name, probe)
        wrapper.cache_clear = cached.cache_clear  # clear_cache() calls these
        wrapper.cache_info = cached.cache_info
        return wrapper

    def _chunk(self, name: str, fn):
        """Sweep-chunk span.  In a forked pool worker the chunk is tallied
        alone and the tally rides back to the parent on the report; a chunk
        run in the parent is tallied in place and carries None."""
        span = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self._owner_pid:
                report = span(*args, **kwargs)
                report.bench_tally = None
                return report
            self.reset()
            report = span(*args, **kwargs)
            report.bench_tally = self.export()
            return report

        return wrapper

    @contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for name, sites in SPANS.items():
                owner, attr = sites[0]
                wrapper = self._wrapper_for(name, getattr(owner, attr))
                for owner, attr in sites:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            merge = cli.SweepReport.merge
            saved.append((cli.SweepReport, "merge", merge))

            def absorbing_merge(report, other):
                if "bench_tally" not in other.__dict__:
                    # Workers that were spawned, not forked, run the unwrapped
                    # chunk, and their work would read as zero.
                    raise RuntimeError("a sweep chunk came back untraced: the pool "
                                       "must fork its workers for a traced run")
                tally = other.__dict__.pop("bench_tally")
                if tally is not None:
                    self.absorb(tally)
                merge(report, other)

            cli.SweepReport.merge = absorbing_merge
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
