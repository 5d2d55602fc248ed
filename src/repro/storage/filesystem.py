"""Simulated filesystem: a namespace of files over a block device + cache.

Only what the DL data path needs is modelled — metadata is in-memory and
free, reads are byte-accurate against stored sizes, and the page cache sits
in front of the device.  Writes exist so datasets can be "materialized"
through the same machinery the benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from ..simcore.errors import SimulationError
from ..simcore.event import Continuation, Event
from .cache import PageCache
from .device import BlockDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


class StorageError(SimulationError):
    """Base class for filesystem-level failures."""


class FileNotFound(StorageError):
    """The path does not exist."""


class FileExists(StorageError):
    """Attempt to create a path that already exists."""


class InvalidRead(StorageError):
    """Read outside the file's byte range with strict bounds checking."""


class TransientReadError(StorageError):
    """A read failed for a reason that may clear on retry.

    The *retryable* half of the storage error taxonomy: injected fault
    bursts, dropped backend RPCs, and media timeouts raise this; namespace
    errors (:class:`FileNotFound`, :class:`InvalidRead`) stay fatal.  The
    graceful-degradation machinery (producer respawn, serve-side retry)
    keys its retry decisions on this type.
    """


@dataclass(frozen=True)
class ReadFault:
    """What a fault hook may impose on one read: delay, failure, or both.

    ``extra_latency`` is served before the outcome is decided (a fault that
    fails *after* a timeout models a hung-then-errored backend request);
    ``error`` — typically a :class:`TransientReadError` — then fails the
    read, or ``None`` lets it proceed against the device.
    """

    error: Optional[Exception] = None
    extra_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.extra_latency < 0:
            raise ValueError("extra_latency must be non-negative")


#: Hook signature: ``(path, nbytes) -> Optional[ReadFault]``.  Installed by
#: :class:`~repro.faults.FaultInjector`; ``None`` means "no fault".
FaultHook = Callable[[str, int], Optional[ReadFault]]


class BackendRequest:
    """One read or write in flight on a storage backend.

    Holds the caller-facing event and the request's telemetry span.  A
    backend chains the request's phases as completion callbacks — a
    :class:`~repro.simcore.event.Continuation` handed to the device or
    channel, or :meth:`~repro.simcore.event.Event.then` on a timer — and
    every way out, :meth:`finish` or :meth:`fail`, closes the span with its
    outcome.  The caller's event is the only event the request adds.
    """

    __slots__ = ("sim", "backend", "done", "tel", "span")

    def __init__(self, sim: "Simulator", op: str, backend: str, path: str, nbytes: int) -> None:
        self.sim = sim
        self.backend = backend
        self.done = Event(sim)
        self.tel = tel = sim.telemetry
        self.span = None
        if tel is not None:
            self.span = tel.begin(
                op, f"storage.{backend}", "storage", lane=True, path=path, bytes=nbytes
            )

    def finish(self, value: int, outcome: str) -> None:
        if self.span is not None:
            self.tel.end(self.span, outcome=outcome)
        self.done.succeed(value)

    def fail(self, exc: BaseException) -> None:
        if self.span is not None:
            self.tel.end(self.span, outcome="error", error=type(exc).__name__)
        self.done.fail(exc)

    def wrote(self, nbytes: int, outcome: str) -> None:
        """Finish a write, counting its bytes on the telemetry registry."""
        if self.tel is not None:
            self.tel.registry.counter(
                "storage.write_bytes_total", object=self.backend
            ).inc(nbytes)
        self.finish(nbytes, outcome)

    def after_fault(
        self, hook: Optional[FaultHook], path: str, nbytes: int, proceed: Callable[[], None]
    ) -> None:
        """Consult the backend's fault hook, then ``proceed()`` unless it fails.

        An injected fault's extra latency is served before the outcome is
        decided; its error then fails the request.
        """
        fault = hook(path, nbytes) if hook is not None else None
        if fault is None:
            proceed()
            return

        def decide(_ev: Optional[Event] = None) -> None:
            if fault.error is not None:
                self.fail(fault.error)
            else:
                proceed()

        if fault.extra_latency > 0:
            self.sim.timeout(fault.extra_latency).add_callback(decide)
        else:
            decide()


@dataclass
class SimFile:
    """Metadata for one simulated file."""

    path: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative file size for {self.path!r}")


class Filesystem:
    """A flat namespace of :class:`SimFile` objects on one device.

    The namespace is flat (paths are opaque strings) because the DL workload
    never does directory traversal on the hot path; ``list_prefix`` provides
    the single listing operation dataset catalogs need.
    """

    def __init__(
        self,
        sim: "Simulator",
        device: BlockDevice,
        cache: Optional[PageCache] = None,
        name: str = "fs",
    ) -> None:
        self.sim = sim
        self.device = device
        self.cache = cache if cache is not None else PageCache(sim, 0.0)
        self.name = name
        self._files: Dict[str, SimFile] = {}
        #: fault-injection seam: consulted per data read when installed
        self.fault_hook: Optional[FaultHook] = None

    # -- namespace ---------------------------------------------------------------
    def create(self, path: str, size: int) -> SimFile:
        """Register a file (metadata only — no I/O is simulated)."""
        if path in self._files:
            raise FileExists(path)
        f = SimFile(path, int(size))
        self._files[path] = f
        return f

    def create_many(self, entries: Iterable[tuple[str, int]]) -> None:
        for path, size in entries:
            self.create(path, size)

    def exists(self, path: str) -> bool:
        return path in self._files

    def stat(self, path: str) -> SimFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def unlink(self, path: str) -> None:
        if path not in self._files:
            raise FileNotFound(path)
        del self._files[path]
        self.cache.invalidate(path)

    def list_prefix(self, prefix: str) -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    @property
    def file_count(self) -> int:
        return len(self._files)

    def total_bytes(self) -> int:
        return sum(f.size for f in self._files.values())

    # -- data path --------------------------------------------------------------
    def read(self, path: str, offset: int = 0, length: Optional[int] = None) -> Event:
        """Read bytes from ``path``; event value = bytes actually read.

        ``length=None`` reads to EOF.  Reads are clamped at EOF (POSIX
        semantics); reading at or past EOF returns 0 bytes after a metadata
        round-trip.
        """
        meta = self.stat(path)
        if offset < 0:
            raise InvalidRead(f"negative offset {offset} for {path!r}")
        end = meta.size if length is None else min(offset + max(length, 0), meta.size)
        nbytes = max(end - offset, 0)

        req = BackendRequest(self.sim, "fs.read", self.name, path, nbytes)
        if nbytes == 0:
            # Metadata-only: model a syscall round trip.
            self.sim.timeout(1e-6).then(lambda _: req.finish(0, "empty"), req.fail)
            return req.done
        cache = self.cache

        def from_device(_service: float) -> None:
            if cache.capacity_bytes > 0:
                cache.insert(path, meta.size)
            req.finish(nbytes, "device")

        def lookup() -> None:
            if cache.capacity_bytes > 0 and cache.lookup(path):
                self.sim.timeout(cache.hit_service_time(nbytes)).then(
                    lambda _: req.finish(nbytes, "cache-hit"), req.fail
                )
            else:
                self.device.submit_read(nbytes, Continuation(from_device, req.fail))

        req.after_fault(self.fault_hook, path, nbytes, lookup)
        return req.done

    def read_whole(self, path: str) -> Event:
        """Whole-file read (the DL sample-loading operation).

        The canonical whole-file spelling of the
        :class:`~repro.storage.backend.StorageBackend` protocol.
        """
        return self.read(path, 0, None)

    def write(self, path: str, nbytes: int, offset: int = 0) -> Event:
        """Write (extend) a file; event value = bytes written."""
        meta = self.stat(path)
        if offset < 0 or nbytes < 0:
            raise InvalidRead(f"invalid write range for {path!r}")
        req = BackendRequest(self.sim, "fs.write", self.name, path, nbytes)

        def written(_ev: object) -> None:
            if nbytes > 0:
                meta.size = max(meta.size, offset + nbytes)
                self.cache.invalidate(path)
            req.wrote(nbytes, "device")

        if nbytes > 0:
            self.device.submit_write(nbytes, Continuation(written, req.fail))
        else:
            self.sim.timeout(1e-6).then(written, req.fail)
        return req.done

    # -- observability ------------------------------------------------------------
    def bytes_read(self) -> float:
        """Cumulative bytes the device served for reads (cache hits excluded)."""
        return self.device.bytes_read()

    def bytes_written(self) -> float:
        return self.device.bytes_written()

    def __repr__(self) -> str:
        return f"<Filesystem {self.name!r} files={len(self._files)}>"
