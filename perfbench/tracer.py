"""In-memory span tracer for the traced benchmark run.

Each wrapped function records one span: name, start and end (ns), the index
of the enclosing span (-1 for none) and the benchmark op it ran under.  Self
time is a span's duration minus the durations of its direct children; it is
accumulated per name while the spans are recorded, and the raw spans are
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start_ns, child_ns, index, parent]
        self._targets: list[tuple[object, str, str, object]] = []

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        # reserve the span slot now so children can point at it
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([name, time.perf_counter_ns(), 0, index, parent])

    def _exit(self) -> int:
        end = time.perf_counter_ns()
        name, start, child_ns, index, parent = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, parent, self.op)
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(args, result, duration_ns)
        sees every call that returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit()
            if observe is not None:
                observe(args, result, duration)
            return result

        return traced

    def add(self, owner, attr: str, name: str, observe=None) -> None:
        """Register owner.attr (a module global or a class attribute) to be
        traced as `name` while the tracer is active."""
        self._targets.append((owner, attr, name, observe))

    @contextlib.contextmanager
    def active(self):
        """Replace every registered attribute by a traced wrapper, and put
        the originals back on exit.  An attribute that does not exist is
        skipped, so a layer that has been moved simply reports no calls."""
        installed = []
        try:
            for owner, attr, name, observe in self._targets:
                raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(name, raw.__func__, observe))
                else:
                    replacement = self.wrap(name, raw, observe)
                installed.append((owner, attr, raw))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, raw in reversed(installed):
                setattr(owner, attr, raw)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: [name, start_ns, end_ns, parent, op]."""
        with open(path, "w") as fp:
            for span in self.spans:
                if span is not None:
                    fp.write(json.dumps(span, separators=(",", ":")) + "\n")
