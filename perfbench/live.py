"""The live-plane workload: real producer threads read real files.

The benchmark writes a seeded dataset of files inside the checkout, then
one consumer thread reads shuffled epochs through a
:class:`~repro.core.live.LivePrefetcher`, waiting on each read (a closed
loop with one client).  A :class:`~repro.core.live.LiveController` cycle
runs on the consumer thread every ``cycle_every`` reads, never on a timer,
so a run's control decisions depend on its reads and not on the clock.
The run is pinned to one CPU (:func:`one_cpu`), so one producer serves it,
at a lower priority than the consumer (:func:`yield_to_consumer`).
Samples are 64 KiB, the size ``benchmarks/bench_live.py`` reads, and the
buffer starts at its 64 slots.
The dataset is larger than the buffer can grow but sits in the OS page
cache, so latencies are those of this host's memory and threads, not of a
storage device.  Calibration slices run before and after each epoch; the
run's times are converted to reference seconds with the speed of all of
them together (see :class:`~perfbench.ledger.HostClock`), because one
epoch is too short to calibrate on its own.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.control.policy import AutotuneParams, PrismaAutotunePolicy
from repro.core.live import LiveController, LivePrefetcher
from repro.core.live.buffer import BufferClosed
from repro.dataset.shuffle import EpochShuffler
from repro.simcore.random import RandomStreams

from .ledger import LAYERS, HostClock, Outcome, SpanLog, Windows


#: a read not served within this many seconds counts as failed
READ_TIMEOUT_S = 5.0
#: reference units per calibration slice (two slices per epoch)
CALIBRATION_UNITS = 5


class Expected:
    """What each file must read back as, without holding the whole dataset.

    Every file is a slice of one seeded random pool, at an offset no other
    file shares, so the expected bytes cost the pool (1 MiB), not the
    dataset, in the run's resident set.  :meth:`matches` compares every
    byte, and it holds the interpreter lock while it does: a check that
    released it (a C hash) lets the producer take the lock mid-check, and
    on one CPU a read that then misses waits a scheduler slice (~3 ms on
    the development host) rather than one producer read.
    """

    def __init__(self, pool: bytes, extents: Dict[str, Tuple[int, int]]) -> None:
        self.pool = pool
        self.extents = extents

    def payload(self, path: str) -> bytes:
        start, size = self.extents[path]
        return self.pool[start:start + size]

    def matches(self, path: str, data: bytes) -> bool:
        return data == self.payload(path)


def producer_cap() -> int:
    """Producers allowed so that producers + the consumer fit the CPUs."""
    return max(1, len(os.sched_getaffinity(0)) - 1)


@contextmanager
def one_cpu() -> Iterator[None]:
    """Run the block, and threads it starts, on one CPU.

    On a host whose CPUs other tenants share, the scheduler sometimes puts
    the producer and the consumer on different CPUs and sometimes on one;
    the two placements differ by 1.6x in reads/s and up to 4x in p99,
    which is noise for a benchmark.  Pinned, every hand-off stays on one
    CPU, and :func:`producer_cap` allows one producer.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


#: nice value of producer threads: above the consumer's, so that on the
#: shared CPU a consumer woken by a finished read runs at once
PRODUCER_NICE = 5


def yield_to_consumer() -> None:
    """Give every running producer thread :data:`PRODUCER_NICE`.

    The run shares one CPU between the consumer and the producers.  At
    equal priority the scheduler lets a running producer finish its slice
    (1-3 ms on the development host) before the consumer that its read
    woke gets the CPU.  About 0.7 % of reads waited so, which put p99 on
    the edge of that slow mode and made it jump between runs.  With a CPU
    each, as the producer cap intends, the consumer would run at once; a
    lower producer priority restores that (slow reads fell to 0.09 %).
    Producers start at each epoch's ``load_epoch`` and when the tuner adds
    one, so the run calls this after both.
    """
    for thread in threading.enumerate():
        if thread.name.startswith("prisma-producer") and thread.native_id:
            try:
                os.setpriority(os.PRIO_PROCESS, thread.native_id, PRODUCER_NICE)
            except ProcessLookupError:
                pass  # the thread retired since enumerate()


@dataclass(frozen=True)
class LiveEpoch:
    """Shuffled epochs over files of ``benchmarks/bench_live.py``'s size.

    The repo's dataset model draws lognormal sizes around 113 KiB instead.
    On the development host those made p99 depend on where the largest
    files fell (0.4-1.2 ms across seeds) and fragmented the allocator's
    heap, so peak RSS crept with run length (49-60 MiB); one size keeps
    both steady.
    """

    name: str = "live-epoch"
    n_files: int = 512
    sample_bytes: int = 64 << 10
    pool_bytes: int = 1 << 20
    buffer_capacity: int = 64
    #: ceiling for the tuner's buffer growth: below ``n_files`` so the
    #: dataset never fits in the buffer
    max_buffer: int = 128
    cycle_every: int = 128

    # -- inputs -------------------------------------------------------------------
    def paths(self, data_dir: str) -> List[str]:
        return [os.path.join(data_dir, f"{i:06d}.bin") for i in range(self.n_files)]

    def write_dataset(self, data_dir: str, seed: int) -> Expected:
        """Write the seeded files; returns what each must read back as."""
        rng = random.Random(seed)
        pool = rng.randbytes(self.pool_bytes)
        offsets = rng.sample(range(self.pool_bytes - self.sample_bytes + 1), self.n_files)
        expected = Expected(pool, {
            path: (offset, self.sample_bytes)
            for path, offset in zip(self.paths(data_dir), offsets)
        })
        os.makedirs(data_dir, exist_ok=True)
        for path in expected.extents:
            with open(path, "wb") as fh:
                fh.write(expected.payload(path))
        return expected

    # -- the stack ----------------------------------------------------------------
    def build(self) -> Tuple[LivePrefetcher, LiveController]:
        """The prefetcher, and a tuner whose producer cap matches it."""
        cap = producer_cap()
        prefetcher = LivePrefetcher(
            producers=1, buffer_capacity=self.buffer_capacity, max_producers=cap
        )
        policy = PrismaAutotunePolicy(
            AutotuneParams(max_producers=cap, max_buffer=self.max_buffer)
        )
        return prefetcher, LiveController(prefetcher, policy=policy)

    def shuffler(self, seed: int) -> EpochShuffler:
        return EpochShuffler(self.n_files, RandomStreams(seed).spawn("live.order"))


class _Run:
    """One live run's stack, counters and (when traced) spans."""

    def __init__(self, workload: LiveEpoch, seed: int, data_dir: str) -> None:
        self.workload = workload
        self.paths = workload.paths(data_dir)
        self.prefetcher, self.controller = workload.build()
        start = time.perf_counter()
        self.shuffler = workload.shuffler(seed)
        #: host seconds the dataset layer spends setting up (the shuffler)
        self.dataset_s = time.perf_counter() - start
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        #: each read's wall latency, in host seconds
        self.latencies = Windows()
        self.peak_producers = 0
        self.log = SpanLog()
        self.clock = HostClock()
        self._mark = self.clock.mark()

    def speed(self) -> float:
        """Host speed relative to nominal over the run's calibration slices."""
        return self.clock.speed_since(self._mark)

    @contextmanager
    def _buffer_spans(self, epoch: int) -> Iterator[List[Optional[int]]]:
        """Spans around the buffer's ``take`` and ``insert`` in the block.

        Yields a one-item list the caller keeps the open read span's id in,
        the parent of each take.
        """
        buffer, log = self.prefetcher.buffer, self.log
        take, insert = buffer.take, buffer.insert
        current: List[Optional[int]] = [None]

        def traced_take(path, timeout=None):
            span, start = log.new_id(), time.perf_counter()
            try:
                return take(path, timeout=timeout)
            finally:
                log.record(span, current[0], "take", f"{path}#{epoch}",
                           start, time.perf_counter())

        def traced_insert(path, data, timeout=None):
            span, start = log.new_id(), time.perf_counter()
            try:
                return insert(path, data, timeout=timeout)
            finally:
                log.record(span, None, "insert", f"{path}#{epoch}",
                           start, time.perf_counter())

        buffer.take, buffer.insert = traced_take, traced_insert
        try:
            yield current
        finally:
            del buffer.take, buffer.insert

    def epoch(self, epoch: int, expected: Expected, traced: bool) -> float:
        """Read one shuffled epoch; returns its host seconds.

        The consumer checks each read's bytes; the check is in the epoch's
        time but not in the read's latency.
        """
        pf, log, clock = self.prefetcher, self.log, self.clock
        order = [self.paths[int(i)] for i in self.shuffler.order(epoch)]
        latencies = array("d")
        clock.calibrate(CALIBRATION_UNITS)
        with self._buffer_spans(epoch) if traced else nullcontext() as current:
            pf.load_epoch(order)
            yield_to_consumer()
            begin = clock.now()
            for k, path in enumerate(order, 1):
                self.attempted += 1
                if traced:
                    span = current[0] = log.new_id()
                start = time.perf_counter()
                try:
                    data = pf.read(path, timeout=READ_TIMEOUT_S)
                except (TimeoutError, BufferClosed, OSError):
                    self.failed += 1
                    continue
                end = time.perf_counter()
                latencies.append(end - start)
                if traced:
                    log.record(span, None, "read", f"{path}#{epoch}", start, end)
                if not expected.matches(path, data):
                    self.mismatches += 1
                if k % self.workload.cycle_every == 0:
                    self._cycle(epoch, traced)
            wall = clock.now() - begin
        clock.calibrate(CALIBRATION_UNITS)
        self.latencies.add(latencies)
        return wall

    def _cycle(self, epoch: int, traced: bool) -> None:
        start = time.perf_counter()
        self.controller.run_cycle()
        if traced:
            self.log.record(self.log.new_id(), None, "run_cycle", f"cycle#{epoch}",
                            start, time.perf_counter())
        yield_to_consumer()
        self.peak_producers = max(self.peak_producers, self.prefetcher.target_producers)

    def close(self) -> None:
        self.prefetcher.close()
        alive = [t for t in threading.enumerate() if t.name.startswith("prisma-producer")]
        if alive:
            raise RuntimeError(f"{len(alive)} producer threads outlived close()")


WORKLOAD = LiveEpoch()


def _outcome(run: _Run, metrics: Dict[str, float], report: Dict[str, object]) -> Outcome:
    problems = []
    if run.mismatches:
        problems.append(f"{run.mismatches} live reads returned the wrong bytes")
    if run.failed:
        problems.append(f"{run.failed} live reads failed or timed out")
    metrics["error_rate"] = run.failed / run.attempted
    return Outcome(
        correct=not problems,
        attempted=run.attempted,
        failed=run.failed,
        metrics=metrics,
        report=report,
        problems=problems,
    )


def measure(workload: LiveEpoch, seed: int, seconds: float, data_dir: str,
            expected: Expected) -> Outcome:
    """Untraced run: delivered reads/s and per-read wall latency."""
    with one_cpu():
        run = _Run(workload, seed, data_dir)
        try:
            run.epoch(0, expected, traced=False)  # warms the page cache and threads
            run.latencies = Windows()
            walls: List[float] = []
            deadline = time.perf_counter() + seconds
            while not walls or time.perf_counter() < deadline:
                walls.append(run.epoch(len(walls) + 1, expected, traced=False))
        finally:
            run.close()
    speed = run.speed()
    read = run.latencies.result(1e6 * speed)
    return _outcome(run, {
        "samples_per_s": statistics.median(workload.n_files / w for w in walls) / speed,
        "read_p50_us": read["p50"],
        "read_p99_us": read["p99"],
    }, {"epochs": len(walls), "samples_per_s_n": len(walls), "read_us_n": read["n"],
        "read_us_windows": read["windows"], "host_speed": speed})


def trace(workload: LiveEpoch, seed: int, seconds: float, data_dir: str,
          expected: Expected, spans_path: str) -> Outcome:
    """Traced run: spans around read/take/insert/run_cycle, epochs alternating."""
    with one_cpu():
        run = _Run(workload, seed, data_dir)
        try:
            run.epoch(0, expected, traced=False)
            plain: List[float] = []
            traced: List[float] = []
            deadline = time.perf_counter() + seconds
            while not traced or time.perf_counter() < deadline:
                plain.append(run.epoch(2 * len(traced) + 1, expected, traced=False))
                traced.append(run.epoch(2 * len(traced) + 2, expected, traced=True))
            producers = run.prefetcher.target_producers
            capacity = run.prefetcher.buffer.capacity
            hit_rate = run.prefetcher.buffer.hit_rate()
        finally:
            run.close()
    run.log.write(spans_path)
    spans = run.log.durations
    speed = run.speed()
    takes = Windows()
    takes.add(spans["take"])
    take = takes.result(1e6 * speed)
    consumer = sum(traced)
    read_s = sum(spans["read"])
    cycle_s = sum(spans["run_cycle"])
    metrics: Dict[str, float] = {f"{layer}.self_share": 0.0 for layer in LAYERS}
    # Consumer-thread self time by span: reads (take included) are the live
    # data plane, cycles the control plane, the rest is the benchmark loop.
    metrics["core.live.self_share"] = read_s / consumer
    metrics["core.control.self_share"] = cycle_s / consumer
    metrics["other.self_share"] = 1.0 - (read_s + cycle_s) / consumer
    metrics.update({
        "core.live.take_wait_p50_us": take["p50"],
        "core.live.take_wait_p99_us": take["p99"],
        "core.live.insert_wait_share": sum(spans["insert"]) / (consumer * producers),
        "core.live.hit_rate": hit_rate,
        "core.live.cycle_us": statistics.median(spans["run_cycle"]) * 1e6 * speed,
        "core.live.producers": producers,
        "core.live.buffer_capacity": capacity,
        "core.control.cycles": run.controller.cycles,
        "core.control.enforcements": run.controller.enforcements,
        "core.control.rpc_failures": run.controller.rpc_failures,
        "core.control.peak_producers": run.peak_producers,
        "dataset.setup_s": run.dataset_s * speed,
        "trace_overhead": statistics.median(t / p for p, t in zip(plain, traced)),
    })
    return _outcome(run, metrics, {
        "epochs": len(traced), "take_us_n": take["n"], "spans": spans_path,
    })


def probe(workload: LiveEpoch, seed: int, data_dir: str,
          first_request: Callable[[], None]) -> None:
    """Set-up probe body: build the stack, then call ``first_request``."""
    prefetcher, _controller = workload.build()
    paths = workload.paths(data_dir)
    order = [paths[int(i)] for i in workload.shuffler(seed).order(0)]
    prefetcher.load_epoch(order)
    first_request()
