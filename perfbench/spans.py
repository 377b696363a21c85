"""Call spans recorded around the library's public functions, and self time.

A Tracer replaces each target function at every module attribute that
holds it, so a call is recorded whichever module the caller reached it
through.  Spans stay in memory until the run ends.  Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list, -1 for none


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}  # return values of the names kept by patch()
        self._stack: list[int] = []

    def _wrap(self, name, func, keep_result):
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep_result:
                self.results.setdefault(name, []).append(result)
            return result

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def patch(self, modules, targets: dict, keep_results=()):
        """Trace each function in targets (span name -> function) in modules.

        Every attribute of every module that is one of the target
        functions is replaced for the duration of the block.
        """
        wrapped = {id(func): self._wrap(name, func, name in keep_results)
                   for name, func in targets.items()}
        originals = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    originals.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in originals:
                setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo = max(kid.start, reach)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def per_name(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Span name -> (number of calls, total self time in seconds)."""
    totals: dict[str, tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, seconds + own)
    return totals
