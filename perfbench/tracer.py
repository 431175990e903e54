"""
In-memory span and counter recorder for traced runs, and the arithmetic that
turns recorded spans into per-layer metrics.

A span is ``[name_id, parent_index, start_s, end_s, raised]``; ``parent_index``
is -1 for a top-level span and ``raised`` is 1 when an exception left the
call. Spans stay in memory until ``dump`` writes them out at the end of the
command.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


def fold(stats: dict[str, list], metric: str, how: str, value: float) -> None:
    """Fold ``value`` into ``stats[metric] = [how, total]``; ``how`` is "sum" or "max"."""
    if metric not in stats:
        stats[metric] = [how, value]
    elif how == "sum":
        stats[metric][1] += value
    else:
        stats[metric][1] = max(stats[metric][1], value)


class Recorder:
    """Spans of wrapped calls plus statistics folded from their return values."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stats: dict[str, list] = {}
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def _begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append([nid, self._stack[-1] if self._stack else -1, self.clock(), 0.0, 0])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int, raised: bool) -> None:
        span = self.spans[idx]
        span[3] = self.clock()
        span[4] = int(raised)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        raised = True
        try:
            yield
            raised = False
        finally:
            self._end(idx, raised)

    def wrap(self, name: str, fn, stats=()):
        """
        ``fn`` with every call recorded as a span called ``name``. Each
        ``(metric, how, of)`` in ``stats`` folds ``of(result)`` into
        ``self.stats[metric]`` after the span has ended.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(idx, True)
                raise
            self._end(idx, False)
            for metric, how, of in stats:
                fold(self.stats, metric, how, of(result))
            return result

        return wrapper

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "stats": self.stats}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def aggregate(dumps: list[dict]) -> dict:
    """
    Per-name self time (``<name>.s``), time including wrapped callees
    (``<name>.incl_s``), call count (``<name>.calls``), per-layer exception
    count (``<layer>.raised``) and folded return-value statistics over the
    dumps of several commands.
    """
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    calls: Counter = Counter()
    raised: Counter = Counter()
    stats: dict[str, list] = {}
    for dump in dumps:
        names = dump["names"]
        for span, own in zip(dump["spans"], self_times(dump["spans"])):
            name = names[span[0]]
            self_s[name] += own
            incl_s[name] += span[3] - span[2]
            calls[name] += 1
            raised[name.split(".", 1)[0]] += span[4]
        for metric, (how, value) in dump["stats"].items():
            fold(stats, metric, how, value)
    out = {f"{name}.s": v for name, v in self_s.items()}
    out.update({f"{name}.incl_s": v for name, v in incl_s.items()})
    out.update({f"{name}.calls": v for name, v in calls.items()})
    out.update({f"{layer}.raised": v for layer, v in raised.items()})
    out.update({metric: value for metric, (_, value) in stats.items()})
    return out
