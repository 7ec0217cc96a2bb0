"""In-memory span recorder that times calls into isci from the outside.

A span is one call of a wrapped function: its name, start, end and the index
of the span that was open when it began (its parent).  Functions are wrapped
under the names their callers look them up by, so a module-level function is
patched in every module that imported it by name, and a method is patched on
its class.  Nothing is written while spans are recorded; ``summary`` derives
per-name call times and per-layer self times when the run is over.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Optional, Union

Name = Union[str, Callable[..., str]]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, owners, attr: str, name: Name,
             on_return: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper in every owner.

        ``name`` is a span name or a function of the call's arguments that
        returns one.  ``on_return(span_index, args, result)`` runs after the
        span has ended, so counting work is not charged to the callee.
        """
        for owner in owners:
            fn = owner.__dict__[attr]
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name, on_return))

    def _wrapper(self, fn, name: Name, on_return: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            idx = tracer.begin(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_return is not None:
                on_return(idx, args, out)
            return out

        return traced

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def summary(self, roots: Optional[list[int]] = None) -> dict:
        """Durations per span name and self time per layer.

        Durations are listed under each span's name and again under
        ``"<parent name>>name"``.  A span's self time is its duration minus
        the durations of its children; a layer is the part of the span name
        before the first dot.  Only spans under ``roots`` (or all spans) are
        counted.
        """
        keep = self.descendants(roots)
        child_time = defaultdict(float)
        for i in keep:
            name, start, end, parent = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        durations = defaultdict(list)
        self_time = defaultdict(float)
        for i in keep:
            name, start, end, parent = self.spans[i]
            durations[name].append(end - start)
            if parent >= 0:
                durations[f"{self.spans[parent][0]}>{name}"].append(end - start)
            self_time[name.split(".")[0]] += (end - start) - child_time[i]
        return {"durations": dict(durations), "self_s": dict(self_time)}

    def descendants(self, roots: Optional[list[int]]) -> list[int]:
        if roots is None:
            return list(range(len(self.spans)))
        inside = set(roots)
        for i, span in enumerate(self.spans):
            if span[3] in inside:
                inside.add(i)
        return sorted(inside)


def median_ms(durations: dict, *names: str) -> float:
    """Median call time in ms over the named spans, 0.0 when none ran."""
    values = [d for n in names for d in durations.get(n, [])]
    return 1e3 * statistics.median(values) if values else 0.0


def total_s(durations: dict, *names: str) -> float:
    return sum(d for n in names for d in durations.get(n, []))


def count(durations: dict, *names: str) -> int:
    return sum(len(durations.get(n, [])) for n in names)
