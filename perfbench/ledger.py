"""Measurement tools the benchmark applies to the program from outside.

Nothing here is imported by ``repro``; the benchmark wraps public methods
for the length of a ``with`` block, groups profiler self time by the repro
package a function lives in, and keeps live-plane spans in memory.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
import math
import os
import pstats
import resource
import statistics
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Layers that self time is split into; the shares of one run sum to 1.
LAYERS = (
    "simcore",
    "storage",
    "dataset",
    "frameworks",
    "core.prefetcher",
    "core.buffer",
    "core.tiering",
    "core.control",
    "core.live",
    "core.other",
    "cluster",
    "telemetry",
    "experiments",
    "other",
)
_TOP_LAYERS = frozenset(
    ("simcore", "storage", "dataset", "frameworks", "cluster", "telemetry", "experiments")
)
_CORE_MODULES = {
    "prefetcher.py": "core.prefetcher",
    "buffer.py": "core.buffer",
    "tiering.py": "core.tiering",
}
_CORE_PACKAGES = {"control": "core.control", "live": "core.live"}


@dataclass
class Outcome:
    """One run's result before it is printed."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: Dict[str, object]
    problems: List[str] = field(default_factory=list)


@contextmanager
def patched(cls: type, name: str, wrap: Callable) -> Iterator[None]:
    """Replace ``cls.name`` by ``wrap(original)`` inside the block."""
    original = cls.__dict__[name]
    setattr(cls, name, wrap(original))
    try:
        yield
    finally:
        setattr(cls, name, original)


# -- host clock -------------------------------------------------------------------
class _Job:
    __slots__ = ("key", "left")

    def __init__(self, key: int, left: int) -> None:
        self.key = key
        self.left = left


def _steps(job: _Job) -> Iterator[int]:
    while job.left:
        job.left -= 1
        yield job.key


def reference_unit() -> int:
    """Fixed interpreter work: heap, generators, dicts and small objects.

    The same mix of work a simulated trial does, in plain Python outside
    repro, so a change to the program never changes it.
    """
    heap: list = []
    seen: Dict[int, int] = {}
    for i in range(50):
        heapq.heappush(heap, ((i * 7919) % 257, i, _Job(i, 3)))
    while heap:
        t, i, job = heapq.heappop(heap)
        for key in _steps(job):
            seen[key] = seen.get(key, 0) + t
        if t < 128:
            heapq.heappush(heap, (t + 131, i, _Job(i, 1)))
    return len(seen)


class HostClock:
    """Host time that cancels drift in the host's speed.

    A host whose CPUs other tenants share can change speed by 1.8x within
    seconds (the development VM did).  So the benchmark interleaves short
    slices of :func:`reference_unit` with the measured work, excludes them
    from :meth:`now`, and converts host seconds into *reference seconds*:
    the time the work would take at ``NOMINAL_UNITS_PER_S`` reference
    units per second (about this benchmark's development host, an Intel
    Xeon at 2.1 GHz, when it is not contended).
    """

    NOMINAL_UNITS_PER_S = 7000.0

    def __init__(self) -> None:
        self._paused = 0.0
        self.units = 0
        self.seconds = 0.0

    def now(self) -> float:
        """Host seconds, calibration slices excluded."""
        return time.perf_counter() - self._paused

    def calibrate(self, units: int = 4) -> None:
        """Run ``units`` reference units, with the garbage collector off.

        A collection that the measured work's garbage triggers inside a
        slice would be left out of the work's time and would also slow the
        slice, so each trial pays for its own collections.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(units):
                reference_unit()
            spent = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self._paused += spent
        self.units += units
        self.seconds += spent

    def mark(self) -> Tuple[int, float]:
        return self.units, self.seconds

    def speed_since(self, mark: Tuple[int, float]) -> float:
        """Host speed relative to nominal over the slices since ``mark``.

        Host seconds times this speed are reference seconds.
        """
        units, seconds = self.units - mark[0], self.seconds - mark[1]
        if units <= 0:
            raise ValueError("no calibration slice ran since the mark")
        return units / seconds / self.NOMINAL_UNITS_PER_S


# -- statistics -------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (0 < q <= 100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float], q: float) -> float:
    """``percentile`` that refuses a tail with fewer than ten samples beyond it."""
    beyond = len(values) * (100 - q) / 100
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond:.1f} beyond it; need >= 10"
        )
    return percentile(values, q)


#: samples per latency window: a window's p99 has at least 20 beyond it
WINDOW_SAMPLES = 2000


class Windows:
    """Median and p99 per window of samples, each reported as the median
    across windows.

    Samples arrive in chunks (a trial's or an epoch's) and are cut into
    windows of at least ``min_size`` consecutive samples; a short remainder
    joins the last window.  Taking the tail window by window keeps one burst
    of the shared host from setting the run's figure, and keeping only each
    closed window's two statistics keeps memory flat however long a run is.
    """

    def __init__(self, min_size: int = WINDOW_SAMPLES) -> None:
        self.min_size = min_size
        self._stats: List[Tuple[float, float, int]] = []
        self._last = array("d")
        self._current = array("d")

    def add(self, chunk: Iterable[float]) -> None:
        self._current.extend(chunk)
        if len(self._current) >= self.min_size:
            self._stats.append(self._summary(self._current))
            self._last, self._current = self._current, array("d")

    @staticmethod
    def _summary(values: Sequence[float]) -> Tuple[float, float, int]:
        return statistics.median(values), tail_percentile(values, 99), len(values)

    def result(self, scale: float = 1.0) -> Dict[str, float]:
        """p50, p99 (times ``scale``), sample count and window count."""
        stats = list(self._stats)
        if self._current and stats:
            stats[-1] = self._summary(self._last + self._current)
        elif self._current:
            stats.append(self._summary(self._current))
        return {
            "p50": statistics.median(s[0] for s in stats) * scale,
            "p99": statistics.median(s[1] for s in stats) * scale,
            "n": sum(s[2] for s in stats),
            "windows": len(stats),
        }


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- profiler self time by layer ----------------------------------------------------
def layer_of(filename: str, repro_dir: str) -> str:
    """The layer a function's source file belongs to."""
    prefix = repro_dir + os.sep
    if not filename.startswith(prefix):
        return "other"
    parts = filename[len(prefix):].split(os.sep)
    if parts[0] == "core":
        if len(parts) > 2:
            return _CORE_PACKAGES.get(parts[1], "core.other")
        return _CORE_MODULES.get(parts[1], "core.other")
    return parts[0] if parts[0] in _TOP_LAYERS else "other"


def layer_shares(stats: pstats.Stats, repro_dir: str) -> Dict[str, float]:
    """Share of profiled self time (``tottime``) spent in each layer.

    A C function has no source file, so its self time is charged to the
    layers of its callers, in proportion to the time each caller spent in
    it: a kernel's ``heappush`` is kernel time.
    """
    seconds = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.stats.items():
        if filename == "~" and callers:
            for (caller_file, _l, _n), entry in callers.items():
                seconds[layer_of(caller_file, repro_dir)] += entry[2]
        else:
            seconds[layer_of(filename, repro_dir)] += tottime
    total = sum(seconds.values())
    return {layer: value / total for layer, value in seconds.items()}


# -- live-plane spans ------------------------------------------------------------
Span = Tuple[int, Optional[int], str, str, float, float]


class SpanLog:
    """Spans kept in memory: (id, parent id, name, sample id, start, end).

    Spans of one sample share the sample id (path and epoch); a span's
    parent is the span that was open on the same thread when it began.
    The first ``KEEP`` spans are kept whole for :meth:`write`; every
    span's duration is kept per name.  Producer and consumer threads
    record spans of different names, and each record is a few list and
    dict operations the interpreter lock makes atomic.
    """

    KEEP = 50_000

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.durations: Dict[str, List[float]] = {}
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        """An id for a span that opens now (children name it as parent)."""
        return next(self._ids)

    def record(
        self, span_id: int, parent: Optional[int], name: str, sample: str,
        start: float, end: float,
    ) -> None:
        self.durations.setdefault(name, []).append(end - start)
        if len(self.spans) < self.KEEP:
            self.spans.append((span_id, parent, name, sample, start, end))

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "parent", "name", "sample", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
