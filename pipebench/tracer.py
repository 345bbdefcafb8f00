"""Timing wrappers interposed on module attributes.

The pipeline's stages call each other through module globals
(``experiment.run``, ``engine.path_gain``, ``geometry.surface_distance``),
so replacing such an attribute with a wrapper puts a span around every
call without touching a source file.  Spans stay in memory and are
written out once, at the end of the point.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict


class MissingName(RuntimeError):
    """A name the benchmark traces is gone from the program."""


class Tracer:
    """Spans and counts for one point; ``restore`` puts the originals back.

    A span is ``[span_id, parent_id, name, start, end]``; ``parent_id`` is
    -1 for a span opened outside every other traced call.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, module, attr: str, on_return=None) -> None:
        """Trace ``module.attr``; ``on_return(result)`` runs after each call,
        still inside the caller's span."""
        if not callable(getattr(module, attr, None)):
            raise MissingName(f"{module.__name__}.{attr} no longer exists")
        orig = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = orig(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, orig))

    def wrap_prefix(self, module, prefix: str) -> None:
        names = sorted(
            a for a in vars(module) if a.startswith(prefix) and callable(getattr(module, a))
        )
        if not names:
            raise MissingName(f"{module.__name__} has no callable named {prefix}*")
        for attr in names:
            self.wrap(module, attr)

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(self.spans[i][2] == name for i in self._stack)

    def restore(self) -> None:
        """Put every original back and check that each one is in place."""
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        for module, attr, orig in self._saved:
            if getattr(module, attr) is not orig:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")
        self._saved.clear()

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name), 0.0)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name``'s spans minus the time their children
        cover (children of one span never overlap: the program is serial)."""
        own = {s[0] for s in self.spans if s[2] == name}
        child = sum(s[4] - s[3] for s in self.spans if s[1] in own)
        return self.total(name) - child

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "span_id", "parent_id", "name", "start", "end"])
            for span_id, parent, name, start, end in self.spans:
                out.writerow([self.run_id, span_id, parent, name, repr(start), repr(end)])
