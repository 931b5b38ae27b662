"""Spans around the benchmark's calls into euleradic.

A span is (name, start, end, parent): the time one public call took, and
the phase of the workload that made it.  Spans are kept in flat arrays in
memory and written out once the round is over.  A disabled tracer hands
back the functions unwrapped, so an untraced round pays nothing for it.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack = [-1]

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn itself when disabled; else fn with a span around every call."""
        if not self.enabled:
            return fn
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_iter(self, name: str, iterable):
        """The iterable itself when disabled; else a span around each item."""
        if not self.enabled:
            return iterable
        return self._traced_iter(self._id(name), iter(iterable))

    def _traced_iter(self, nid: int, it):
        while True:
            idx = self._open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    @contextmanager
    def phase(self, name: str):
        """A parent span around one phase of a workload."""
        if not self.enabled:
            yield
            return
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per name: (number of spans, summed duration in seconds)."""
        count = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for nid, s, e in zip(self._name, self._start, self._end):
            count[nid] += 1
            total[nid] += e - s
        return {name: (count[i], total[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """One span per line: index, name, start, end, parent index (-1: none)."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for i, (nid, s, e, par) in enumerate(
                zip(self._name, self._start, self._end, self._parent)
            ):
                fh.write(f"{i}\t{self.names[nid]}\t{s:.9f}\t{e:.9f}\t{par}\n")
