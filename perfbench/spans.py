"""In-memory span recorder for the benchmark.

A span is ``[name, start, end, parent, note]``: start and end come from
``time.perf_counter``, ``parent`` is the index of the enclosing span (or -1)
and ``note`` is whatever the hook's ``observe`` callback extracted from the
call. Hot leaf calls (SVDs, similarity scores) are counted instead of spanned,
keyed by the innermost open span, so a traced run stays small.

Wrappers are installed by replacing a module attribute at the point where one
layer looks up another (``hrscluster.clustering.evaluate_partition``,
``numpy.linalg.svd``, ...) and are removed when the ``installed`` block ends.
Nothing is written until ``write`` is called once at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[tuple[str, int], int] = defaultdict(int)

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` so every call records one span named ``name``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                record[4] = observe(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so every call counts once against the innermost span."""
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            counts[(name, stack[-1] if stack else -1)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` as a span; returns (result, index of that span)."""
        index = len(self.spans)
        return self.span(name, fn)(*args), index

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def has_ancestor(self, index: int, names) -> bool:
        while index >= 0:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][3]
        return False

    def count(self, name, under=None) -> int:
        """Calls counted for ``name``, optionally only beneath spans in ``under``."""
        return sum(
            c
            for (n, idx), c in self.counts.items()
            if n == name and (under is None or self.has_ancestor(idx, under))
        )

    def write(self, path) -> None:
        """One JSON line per span, then one line with the counters."""
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
            totals: dict[str, int] = defaultdict(int)
            for (name, _), c in self.counts.items():
                totals[name] += c
            fh.write(json.dumps({"counts": totals}) + "\n")


@contextlib.contextmanager
def installed(hooks):
    """Replace ``owner.attr`` with each wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrapper in hooks:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def duration(span) -> float:
    return span[2] - span[1]


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def stamp_cost_s(calls: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""

    def noop():
        return None

    wrapped = Recorder().span("noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
