"""Spans and counts recorded by the benchmark around calls into the program.

A span is ``(id, name, parent, start, end)``; spans live in memory and
are written out once, at the end of a traced run. Hot functions inside a
layer (the Def. 3.17 check, PS-growth, the A-STPM screen) are timed by
wrappers patched over the program's module attributes only for the
traced run; their calls are summed per enclosing span instead of being
stored one by one.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: (enclosing span id, name) -> [calls, seconds]
        self.sums: dict[tuple[int | None, str], list] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None) -> Iterator[dict]:
        """Time a block. Spans sharing a name and a ``tag`` are repeats of
        the same work; :meth:`total` counts them once, at their median. A
        span without a tag takes its parent's."""
        parent = self.spans[self._stack[-1]] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "tag": tag if tag is not None or parent is None else parent["tag"],
            "parent": parent["id"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, *, as_span: bool) -> Callable:
        """``fn`` timed as a child span, or summed under the enclosing span."""
        if as_span:
            def spanned(*args, **kw):
                with self.span(name):
                    return fn(*args, **kw)
            return spanned

        def summed(*args, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                key = (self._stack[-1] if self._stack else None, name)
                acc = self.sums.setdefault(key, [0, 0.0])
                acc[0] += 1
                acc[1] += time.perf_counter() - t0
        return summed

    # ------------------------------------------------------------- queries
    def durations(self, name: str) -> dict[object, list[float]]:
        """Durations of the spans called ``name``, by tag (repeats together)."""
        by_tag: dict[object, list[float]] = {}
        for s in self.spans:
            if s["name"] == name:
                key = s["id"] if s["tag"] is None else s["tag"]
                by_tag.setdefault(key, []).append(s["end"] - s["start"])
        return by_tag

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``, repeats at their median."""
        return sum(statistics.median(d) for d in self.durations(name).values())

    def summed(self, name: str, within: str) -> float:
        """Seconds of the summed calls ``name`` made directly inside spans ``within``."""
        ids = {s["id"] for s in self.spans if s["name"] == within}
        return sum(v[1] for (sid, n), v in self.sums.items() if n == name and sid in ids)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part covered by child spans."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            d = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + d
        return out

    def dump(self, path: str, metrics: dict) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans
                    ],
                    "summed_calls": [
                        {"span": sid, "name": n, "calls": v[0], "seconds": v[1]}
                        for (sid, n), v in self.sums.items()
                    ],
                    "self_seconds": self.self_times(),
                    "metrics": metrics,
                },
                f,
                indent=1,
            )


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``module.attr = replacement`` for each target; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, repl in targets:
            setattr(mod, attr, repl)
        yield
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)


def best_total(tracers: list[Tracer], name: str) -> float:
    """Summed duration of the spans called ``name`` over all ``tracers``,
    each tag counted once, at its fastest repeat."""
    by_tag: dict[object, list[float]] = {}
    for tr in tracers:
        for tag, d in tr.durations(name).items():
            by_tag.setdefault(tag, []).extend(d)
    return sum(min(d) for d in by_tag.values())
