"""Timing that survives the machine's slow phases.

The machines this benchmark runs on change speed for seconds at a time: a
fixed piece of pure-Python work takes up to twice as long in a slow phase
as in a fast one, and a phase can outlast a whole run.  Neither a longer
run nor the fastest of several passes fixes that, so every timing here is
measured in two parts:

* **wall time**, of each operation (session, put, read) and each chunk of work
  (a batch of sessions, a gossip round, a recovery);
* **calibration**: a fixed, program-independent piece of pure-Python work
  (:func:`calibration_work`, best of three) timed at every chunk boundary
  and at least every :data:`CALIBRATION_INTERVAL_S` in between.

A wall time is then rescaled to *reference speed*, the speed at which the
calibration work takes :data:`REFERENCE_S`: ``wall * REFERENCE_S /
calibration``, with the calibration interpolated to the moment the
operation started.  Calibration time is left out of every chunk's wall
time.

A run may repeat an episode, so operation ``j`` of chunk ``i`` does the
same work in every copy; the figure reported for it is the *lower median*
of its rescaled copies (the smaller of two, the middle of three).  Another
process taking the core for a millisecond then has to hit the same
operation in half the copies to show, so percentiles taken over operations
keep the program's tail (compactions, large stamps, snapshots) and not the
machine's.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

clock = time.perf_counter

#: What the calibration work takes at reference speed.
REFERENCE_S = 1e-3
#: Longest stretch of measured work between two calibrations.
CALIBRATION_INTERVAL_S = 0.02


def calibration_work() -> int:
    """Dict updates, a sort, bytes joins, hashing and small allocations."""
    counts: Dict[int, int] = {}
    for index in range(3000):
        key = (index * 2654435761) & 0x3FF
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: -item[1])
    blob = b"".join(key.to_bytes(4, "big") for key, _ in ranked)
    digest = hashlib.blake2b(blob).digest()
    objects = [(value, str(value), [value]) for value in range(400)]
    return len(ranked) + len(digest) + len(objects)


def calibrate() -> float:
    """Seconds the calibration work takes right now (best of three)."""
    best = math.inf
    for _ in range(3):
        start = clock()
        calibration_work()
        best = min(best, clock() - start)
    return best


class SessionFailed(Exception):
    """A session or put raised: the pass ends and the run reports it."""


@dataclass
class Chunk:
    """One chunk of an episode, with ``(start, seconds)`` operation samples."""

    kind: str
    start: float = 0.0
    end: float = 0.0
    #: Calibration time spent inside the chunk, left out of its wall time.
    excluded: float = 0.0
    sessions: List[Tuple[float, float]] = field(default_factory=list)
    puts: List[Tuple[float, float]] = field(default_factory=list)
    reads: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start - self.excluded


@dataclass
class Scaled:
    """A chunk's wall time and operation times at reference speed."""

    kind: str
    wall: float
    sessions: List[float]
    puts: List[float]
    reads: List[float]


class Recorder:
    """Times one episode: chunks, the sessions and puts inside them, and
    the calibrations that rescale them.

    Sessions are timed by :func:`attach_session_timer` on the engine, so
    every sync session counts, including those a compaction sweep or the
    service runs on the workload's behalf.  Puts go through :meth:`put`,
    reads through :meth:`read`.  All count attempts and failures; a
    failure is re-raised as :class:`SessionFailed` and ends the episode.
    """

    def __init__(self, *, on_calibration=None) -> None:
        #: Called with the start and end (:func:`clock` readings) of every
        #: calibration; the traced pass records them as spans, so the time
        #: is taken out of whichever span it lands in.
        self.on_calibration = on_calibration
        self.chunks: List[Chunk] = []
        self._current = None
        self.calibrations: List[Tuple[float, float]] = []
        self._last_calibration = -math.inf
        self.sessions_attempted = 0
        self.sessions_failed = 0
        self.puts_attempted = 0
        self.puts_failed = 0
        self.reads_attempted = 0
        self.reads_failed = 0

    def calibrate(self) -> None:
        start = clock()
        seconds = calibrate()
        now = clock()
        self.calibrations.append(((start + now) / 2, seconds))
        self._last_calibration = now
        if self._current is not None:
            self._current.excluded += now - start
        if self.on_calibration is not None:
            self.on_calibration(start, now)

    def _checkpoint(self) -> None:
        if clock() - self._last_calibration >= CALIBRATION_INTERVAL_S:
            self.calibrate()

    def begin(self, kind: str) -> None:
        self.calibrate()
        self._current = Chunk(kind, start=clock())
        self.chunks.append(self._current)

    def end(self) -> None:
        self._current.end = clock()
        self._current = None
        self.calibrate()

    def session_done(self, start: float, seconds: float) -> None:
        if self._current is not None:
            self._current.sessions.append((start, seconds))
            self._checkpoint()

    def put(self, store, key: str, value: object) -> None:
        self.puts_attempted += 1
        start = clock()
        try:
            store.put(key, value)
        except Exception as exc:
            self.puts_failed += 1
            raise SessionFailed(f"put of {key!r} on {store.name!r} raised") from exc
        seconds = clock() - start
        if self._current is not None:
            self._current.puts.append((start, seconds))
            self._checkpoint()

    def read(self, store, key: str):
        """``store.get(key)``, timed like a put."""
        self.reads_attempted += 1
        start = clock()
        try:
            values = store.get(key)
        except Exception as exc:
            self.reads_failed += 1
            raise SessionFailed(f"read of {key!r} on {store.name!r} raised") from exc
        seconds = clock() - start
        if self._current is not None:
            self._current.reads.append((start, seconds))
            self._checkpoint()
        return values

    @property
    def attempted(self) -> int:
        return self.sessions_attempted + self.puts_attempted + self.reads_attempted

    @property
    def failed(self) -> int:
        return self.sessions_failed + self.puts_failed + self.reads_failed

    def scaled(self) -> List[Scaled]:
        """Every chunk rescaled to reference speed."""
        times = [when for when, _ in self.calibrations]
        values = [seconds for _, seconds in self.calibrations]

        def calibration_at(moment: float) -> float:
            index = bisect.bisect_left(times, moment)
            if index == 0:
                return values[0]
            if index == len(times):
                return values[-1]
            before, after = times[index - 1], times[index]
            low, high = values[index - 1], values[index]
            return low + (high - low) * (moment - before) / (after - before)

        result = []
        for chunk in self.chunks:
            first = bisect.bisect_left(times, chunk.start)
            last = bisect.bisect_right(times, chunk.end)
            points = [calibration_at(chunk.start), *values[first:last], calibration_at(chunk.end)]
            speed = REFERENCE_S / (sum(points) / len(points))
            result.append(
                Scaled(
                    chunk.kind,
                    chunk.wall * speed,
                    [s * REFERENCE_S / calibration_at(t) for t, s in chunk.sessions],
                    [s * REFERENCE_S / calibration_at(t) for t, s in chunk.puts],
                    [s * REFERENCE_S / calibration_at(t) for t, s in chunk.reads],
                )
            )
        return result


def attach_session_timer(engine, recorder: Recorder) -> None:
    """Time every ``session()`` generator of ``engine`` into ``recorder``.

    The wrapper steps the engine's sans-io generator and adds up the wall
    time spent inside it, so a session's latency is the work the session
    itself does: on the synchronous path that is the whole ``sync()``
    call, for the asyncio service it leaves out the virtual-time waits and
    the other sessions interleaved between its steps.  The class attribute
    is looked up on every call, so spans the tracer patches in are seen.
    """
    engine_type = type(engine)

    def session(*args, **kwargs):
        recorder.sessions_attempted += 1
        generator = engine_type.session(engine, *args, **kwargs)
        began = None
        spent = 0.0
        value = None
        error = None
        while True:
            start = clock()
            if began is None:
                began = start
            try:
                effect = generator.send(value) if error is None else generator.throw(error)
            except StopIteration as stop:
                recorder.session_done(began, spent + clock() - start)
                return stop.value
            except Exception as exc:
                if exc is error:  # a caller's abort, handed back as thrown
                    raise
                recorder.sessions_failed += 1
                raise SessionFailed("a sync session raised") from exc
            spent += clock() - start
            value = error = None
            try:
                value = yield effect
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the engine
                error = exc

    engine.session = session


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def lower_median(values: Sequence[float]) -> float:
    """The middle value, or the smaller of the two middle values."""
    return sorted(values)[(len(values) - 1) // 2]


def combine(episodes: Sequence[Sequence[Scaled]]) -> List[Scaled]:
    """The per-position lower median over copies of every chunk and operation.

    Every repeat must consist of the same chunks holding the same number
    of operations (the work is deterministic for a seed); a mismatch is a
    determinism bug and raises rather than being papered over.
    """
    shape = [(c.kind, len(c.sessions), len(c.puts), len(c.reads)) for c in episodes[0]]
    for episode in episodes[1:]:
        if [(c.kind, len(c.sessions), len(c.puts), len(c.reads)) for c in episode] != shape:
            raise ValueError("repeats of one seed produced different chunk sequences")
    combined = []
    for index, (kind, *_) in enumerate(shape):
        copies = [episode[index] for episode in episodes]
        combined.append(
            Scaled(
                kind,
                lower_median([c.wall for c in copies]),
                [lower_median(column) for column in zip(*(c.sessions for c in copies))],
                [lower_median(column) for column in zip(*(c.puts for c in copies))],
                [lower_median(column) for column in zip(*(c.reads for c in copies))],
            )
        )
    return combined


def nearest_rank(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile (no interpolation) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = min(len(ordered), max(1, math.ceil(quantile * len(ordered))))
    return ordered[rank - 1]


def timing_summary(chunks: Sequence[Scaled]) -> Dict[str, float]:
    """Session, put and read figures over combined chunks."""
    sessions = [s for chunk in chunks for s in chunk.sessions]
    puts = [p for chunk in chunks for p in chunk.puts]
    reads = [r for chunk in chunks for r in chunk.reads]
    busy = sum(chunk.wall for chunk in chunks if chunk.sessions)
    summary = {
        "sessions": len(sessions),
        "puts": len(puts),
        "reads": len(reads),
        "sessions_per_s": len(sessions) / busy if busy > 0 else 0.0,
    }
    if sessions:
        summary["session_us_p50"] = nearest_rank(sessions, 0.50) * 1e6
        summary["session_us_p99"] = nearest_rank(sessions, 0.99) * 1e6
    if puts:
        summary["put_us_p50"] = nearest_rank(puts, 0.50) * 1e6
        summary["put_us_p99"] = nearest_rank(puts, 0.99) * 1e6
    if reads:
        summary["read_us_p50"] = nearest_rank(reads, 0.50) * 1e6
        summary["read_us_p99"] = nearest_rank(reads, 0.99) * 1e6
    return summary


def wall_of(chunks: Sequence[Scaled], kind: str) -> float:
    """Total wall time of the combined chunks of one kind."""
    return sum(chunk.wall for chunk in chunks if chunk.kind == kind)
