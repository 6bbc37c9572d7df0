"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of vhe from outside the
program: a class attribute for methods, and for functions every loaded
module namespace that bound the same object (``prf_zt`` is imported by name
into ``pe``, ``rep`` and ``circuit``, and each of those bindings is what
their callers resolve).  Each call becomes one span: name, start, end,
parent span, job id and thread.  Spans stay in memory, in flat arrays, and
are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Children of a span run on the span's own thread, one after another, so the
covered time is the sum of their durations.
"""

from __future__ import annotations

import array
import contextlib
import functools
import sys
import threading
import time

import numpy as np

clock = time.perf_counter

# Span name of endpoint receives: time blocked waiting for the peer, which
# is not work of any layer.
WAIT_SPAN = "protocols.recv"


class Tracer:
    """Records spans for the targets it is installed over."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.thread = array.array("i")
        self.job_id = -1
        self.sizes: dict[tuple, int] = {}  # (job id, span name) → bytes returned
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int, stack: list) -> int:
        with self._lock:
            tid = self._threads.setdefault(threading.get_ident(), len(self._threads))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.thread.append(tid)
            self.end.append(0.0)
            self.start.append(clock())
        stack.append(idx)
        return idx

    def _close(self, idx: int, stack: list) -> None:
        self.end[idx] = clock()
        stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        idx = self._open(self._nid(name), stack)
        try:
            yield
        finally:
            self._close(idx, stack)

    def wrap(self, fn, name: str, size_of_result: bool = False):
        nid = self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            idx = tracer._open(nid, stack)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, stack)
            if size_of_result:
                key = (tracer.job_id, name)
                tracer.sizes[key] = tracer.sizes.get(key, 0) + len(out)
            return out

        return traced

    # -- installation ---------------------------------------------------------

    def install(self, targets, module_prefixes) -> None:
        """Wrap every target.  A target is (owner, attribute, span name,
        size_of_result); owner is a class (its method is replaced) or a
        module (every namespace in `module_prefixes` binding the same
        function object is patched)."""
        namespaces = [
            m for name, m in list(sys.modules.items())
            if m is not None and name.startswith(tuple(module_prefixes))
        ]
        for owner, attr, name, sized in targets:
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name, sized)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self, targets, module_prefixes):
        self.install(targets, module_prefixes)
        try:
            yield self
        finally:
            self.uninstall()

    # -- export ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Per span: duration minus the summed durations of its children."""
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


class SpanTable:
    """Aggregates over the spans of a set of jobs."""

    def __init__(self, tracer: Tracer, jobs):
        a = tracer.arrays()
        self.names = tracer.names
        parent = a["parent"]
        dur = a["end"] - a["start"]
        self_all = self_times(a["start"], a["end"], parent)
        # time each span spent blocked in a receive anywhere beneath it
        wait_below = np.zeros(len(dur))
        wait_id = tracer._name_ids.get(WAIT_SPAN, -1)
        for idx in np.flatnonzero(a["name_id"] == wait_id):
            p = parent[idx]
            while p >= 0:
                wait_below[p] += dur[idx]
                p = parent[p]
        parent_name = np.where(parent >= 0, a["name_id"][np.maximum(parent, 0)], -1)
        keep = np.isin(a["job"], list(jobs))
        self.name = a["name_id"][keep]
        self.parent_name = parent_name[keep]
        self.thread = a["thread"][keep]
        self.dur = dur[keep]
        self.self = self_all[keep]
        self.wait_below = wait_below[keep]

    def _ids(self, names) -> list:
        return [i for i, n in enumerate(self.names) if n in names]

    def _mask(self, names) -> np.ndarray:
        return np.isin(self.name, self._ids(names))

    def count(self, *names) -> int:
        return int(self._mask(names).sum())

    def busy(self, *names) -> float:
        """Seconds inside the named calls, less the time they spent blocked
        in a receive."""
        m = self._mask(names)
        return float((self.dur[m] - self.wait_below[m]).sum())

    def wall(self, *names) -> float:
        return float(self.dur[self._mask(names)].sum())

    def self_time(self, *names) -> float:
        return float(self.self[self._mask(names)].sum())

    def count_under(self, names, parents) -> int:
        return int((self._mask(names) & np.isin(self.parent_name, self._ids(parents))).sum())

    def layer_self(self) -> dict:
        """Self seconds per layer: the span name's prefix, with receives
        booked as ``wait``."""
        out: dict = {}
        for i, n in enumerate(self.names):
            m = self.name == i
            if m.any():
                layer = "wait" if n == WAIT_SPAN else n.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + float(self.self[m].sum())
        return out

    def root_threads(self, *names) -> int:
        """Threads on which the named calls ran outside any other span."""
        m = self._mask(names) & (self.parent_name < 0)
        return len(set(self.thread[m].tolist()))
