"""Spans around the public entry points of each layer, recorded from outside.

The traced pass patches functions and methods of ``repro`` for the length
of one episode (:func:`instrument`) and restores them afterwards.  Nothing
inside the program knows it is being traced: every span is opened and
closed by a wrapper defined here, around a call into one layer.

A span is ``(name id, parent index, operation id, start ns, end ns)``,
kept in memory in five parallel arrays of 64-bit ints (no object per
span, so tracing adds nothing for the garbage collector to walk), read
back as :attr:`Tracer.spans` and written out by :meth:`Tracer.write_csv`
when the run ends.  The operation id groups the spans of one logical
operation (a session, a put, a compaction, a recovery); generator and
coroutine entry points -- the engine's sans-io ``session()`` and the
service daemon's ``drive_session()`` -- get one span per step, all
carrying the operation's id.

Every span costs the wrapper some time, part of it inside the span's own
interval and part outside it (in the parent's interval, or in no span at
all).  :func:`span_cost` measures how a no-op's cost splits between the
two, so :mod:`trace_summary` can take the measured overhead back out.
Entry points called once per shipped key are deliberately not wrapped:
``ClockStream.__getitem__``, the lazy per-frame decode, would add one
span per key a session ships (256 to 540 per session) and make the
wrapper, not the program, the largest cost in the kernel.  Its time
stays in the enclosing session span; the frame count is exact from the
engine counters.

:mod:`trace_summary` turns the spans into the per-layer table.
"""

from __future__ import annotations

import contextlib
import csv
from array import array
import functools
import time
from typing import Dict, List, Tuple

clock_ns = time.perf_counter_ns

#: Span names that start a new logical operation; every other span belongs
#: to the innermost enclosing one (its *context* in the summary).
UNITS = (
    "replication.session",
    "replication.put",
    "replication.compaction",
    "durability.recover",
    "service.daemon",
    "service.converged_check",
)

#: The benchmark's own calibrations, recorded as spans so that their time
#: comes out of the span they interrupt; they belong to no layer.
CALIBRATION = "bench.calibration"


class Tracer:
    """An in-memory span recorder with a stack for parent links."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: One column per span field, indexed by span.
        self.name_ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: List[int] = []
        self._op = 0
        self._ops = 0
        #: Sessions traced, the keys their merge reports examined, and
        #: the frames their request legs shipped (the rest of the frames
        #: shipped are response legs: the keys a session changed).
        self.sessions = 0
        self.keys_examined = 0
        self.request_frames = 0
        #: Every group of stamps handed to ``reroot_group``: the largest
        #: stamps of a pass, just before their compaction shrinks them.
        self.rerooted: List[list] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    def open(self, name_id: int, op: int = 0) -> int:
        index = len(self.starts)
        stack = self._stack
        if op:
            self._op = op
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.ops.append(self._op)
        self.ends.append(0)
        self.starts.append(clock_ns())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = clock_ns()
        self._stack.pop()
        stack = self._stack
        self._op = self.ops[stack[-1]] if stack else 0

    @property
    def spans(self) -> List[Tuple[int, int, int, int, int]]:
        return list(zip(self.name_ids, self.parents, self.ops, self.starts, self.ends))

    def calibration(self, start_s: float, end_s: float) -> None:
        """Record a calibration that ran from ``start_s`` to ``end_s``."""
        stack = self._stack
        self.name_ids.append(self.name_id(CALIBRATION))
        self.parents.append(stack[-1] if stack else -1)
        self.ops.append(self._op)
        self.starts.append(int(start_s * 1e9))
        self.ends.append(int(end_s * 1e9))

    def clear(self) -> None:
        for column in (self.name_ids, self.parents, self.ops, self.starts, self.ends):
            del column[:]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "parent", "op", "name", "start_ns", "end_ns"])
            names = self.names
            for index, (name_id, parent, op, start, end) in enumerate(self.spans):
                writer.writerow([index, parent, op, names[name_id], start, end])


def _call_wrapper(tracer: Tracer, name: str, function):
    name_id = tracer.name_id(name)
    if name in UNITS:

        @functools.wraps(function)
        def traced_unit(*args, **kwargs):
            index = tracer.open(name_id, tracer.new_op())
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced_unit
    # Leaf spans are by far the most frequent (one per compare, per journal
    # record), so they skip the operation bookkeeping
    # a unit span needs: they neither start an operation nor end one.
    name_ids, parents, ops = tracer.name_ids, tracer.parents, tracer.ops
    starts, ends, stack = tracer.starts, tracer.ends, tracer._stack

    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = len(starts)
        name_ids.append(name_id)
        parents.append(stack[-1] if stack else -1)
        ops.append(tracer._op)
        ends.append(0)
        stack.append(index)
        starts.append(clock_ns())
        try:
            return function(*args, **kwargs)
        finally:
            ends[index] = clock_ns()
            stack.pop()

    return traced


def span_cost(calls: int = 20000, repeats: int = 5) -> Tuple[float, float]:
    """``(inside ns, outside ns)`` one leaf span adds to a call.

    A no-op is called bare and through a leaf-span wrapper, ``calls``
    times each, ``repeats`` times over; the cheapest pass of each counts.
    *Inside* is the span's recorded duration less the bare call: the cost
    that lands in the span's own self time.  *Outside* is the rest of the
    wrapper's cost, which lands in the enclosing span's self time (or,
    for a top-level span, in the remainder).
    """

    def noop():
        return None

    tracer = Tracer()
    wrapped = _call_wrapper(tracer, "calibration.noop", noop)
    bare = traced = inside = float("inf")
    for _ in range(repeats):
        start = clock_ns()
        for _ in range(calls):
            noop()
        bare = min(bare, (clock_ns() - start) / calls)
        tracer.clear()
        start = clock_ns()
        for _ in range(calls):
            wrapped()
        traced = min(traced, (clock_ns() - start) / calls)
        inside = min(inside, (sum(tracer.ends) - sum(tracer.starts)) / calls)
    inside = max(0.0, inside - bare)
    return inside, max(0.0, traced - bare - inside)


def _session_wrapper(tracer: Tracer, function):
    """Span each step of the engine's ``session()`` generator."""
    name_id = tracer.name_id("replication.session")

    @functools.wraps(function)
    def traced(engine, first, second, *, keys=None, **kwargs):
        held = second.keys()
        if keys is not None:
            held = set(held) & set(keys)
        tracer.request_frames += len(held)
        tracer.sessions += 1
        op = tracer.new_op()
        generator = function(engine, first, second, keys=keys, **kwargs)
        value = None
        error = None
        while True:
            index = tracer.open(name_id, op)
            try:
                effect = generator.send(value) if error is None else generator.throw(error)
            except StopIteration as stop:
                tracer.keys_examined += stop.value.keys_examined
                return stop.value
            finally:
                tracer.close(index)
            value = error = None
            try:
                value = yield effect
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the engine
                error = exc

    return traced


class _SteppedCoroutine:
    """An awaitable that spans each step of the coroutine it wraps."""

    __slots__ = ("_coroutine", "_tracer", "_name_id")

    def __init__(self, coroutine, tracer: Tracer, name_id: int) -> None:
        self._coroutine = coroutine
        self._tracer = tracer
        self._name_id = name_id

    def __await__(self):
        coroutine, tracer = self._coroutine, self._tracer
        op = tracer.new_op()
        value = None
        error = None
        while True:
            index = tracer.open(self._name_id, op)
            try:
                future = coroutine.send(value) if error is None else coroutine.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.close(index)
            value = error = None
            try:
                value = yield future
            except GeneratorExit:
                coroutine.close()
                raise
            except BaseException as exc:  # cancellation and friends
                error = exc


def _reroot_wrapper(tracer: Tracer, function):
    """A leaf span that also keeps the stamps it was handed.

    Their sizes are taken after the pass, so measuring them costs the
    traced program nothing.
    """
    traced = _call_wrapper(tracer, "core.reroot", function)

    @functools.wraps(function)
    def recorded(stamps, *args, **kwargs):
        tracer.rerooted.append(list(stamps))
        return traced(stamps, *args, **kwargs)

    return recorded


def _coroutine_wrapper(tracer: Tracer, name: str, function):
    name_id = tracer.name_id(name)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        return _SteppedCoroutine(function(*args, **kwargs), tracer, name_id)

    return traced


def _targets():
    """``(owner, attribute, span name, wrapper kind)`` for every entry point."""
    from repro.durability import recovery
    from repro.durability.store import StoreJournal
    from repro.kernel.stream import IncrementalStreamDecoder
    from repro.replication import synchronizer
    from repro.replication.store import StoreReplica
    from repro.replication.synchronizer import AntiEntropy, WireSyncEngine
    from repro.replication.tracker import KernelTracker
    from repro.service.cluster import AntiEntropyService
    from repro.service.daemon import ReplicaDaemon

    return [
        # kernel: the batched stream codec as the engine calls it
        (synchronizer, "encode_stream", "kernel.encode_stream", "call"),
        (synchronizer, "decode_stream", "kernel.decode_stream", "call"),
        (IncrementalStreamDecoder, "feed", "kernel.decode_incremental", "call"),
        (IncrementalStreamDecoder, "finish", "kernel.decode_incremental", "call"),
        # core, through the tracker every store holds
        (KernelTracker, "compare", "core.compare", "call"),
        (KernelTracker, "joined", "core.join", "call"),
        (KernelTracker, "forked", "core.fork", "call"),
        (KernelTracker, "updated", "core.update", "call"),
        (synchronizer, "reroot_group", "core.reroot", "reroot"),
        # replication
        (WireSyncEngine, "session", "replication.session", "session"),
        (AntiEntropy, "compact_key", "replication.compaction", "call"),
        (StoreReplica, "put", "replication.put", "call"),
        # durability
        (StoreJournal, "record_key", "durability.record", "call"),
        (StoreJournal, "flush", "durability.flush", "call"),
        (StoreJournal, "snapshot", "durability.snapshot", "call"),
        (recovery, "rebuild", "durability.recover", "call"),
        # service
        (ReplicaDaemon, "drive_session", "service.daemon", "coroutine"),
        (AntiEntropyService, "converged", "service.converged_check", "call"),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every entry point for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attribute, name, kind in _targets():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if kind == "session":
                wrapped = _session_wrapper(tracer, original)
            elif kind == "reroot":
                wrapped = _reroot_wrapper(tracer, original)
            elif kind == "coroutine":
                wrapped = _coroutine_wrapper(tracer, name, original)
            else:
                wrapped = _call_wrapper(tracer, name, original)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
