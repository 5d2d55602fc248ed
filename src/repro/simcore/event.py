"""Events: the unit of coordination in the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes may wait on by
``yield``-ing it.  Events carry a *value* (delivered to every waiter) or an
exception (re-raised in every waiter).  They are deliberately minimal — all
higher-level synchronization (timeouts, stores, locks, process joins) is built
from this single primitive, mirroring the architecture of SimPy while staying
dependency-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Protocol

from .errors import EventAlreadyTriggered

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence with a value or an exception.

    Lifecycle::

        e = Event(sim)        # pending
        e.succeed(value)      # triggered OK   -> waiters resume with value
        e.fail(exc)           # triggered FAIL -> waiters get exc re-raised

    Once triggered an event is immutable; triggering twice raises
    :class:`EventAlreadyTriggered`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_scheduled", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False
        self.name = name

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (not failed)."""
        if not self.triggered:
            raise ValueError(f"{self!r} has not been triggered")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The success value, or raise the failure exception."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise ValueError(f"{self!r} has no value yet")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger successfully with ``value`` and enqueue for processing."""
        if self._value is not _PENDING or self._exception is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._value = value
        self.sim._enqueue_now(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger with an exception; waiters will have it re-raised."""
        if self._value is not _PENDING or self._exception is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        self.sim._enqueue_now(self)
        return self

    # -- waiting ------------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event was already processed the callback runs immediately —
        this keeps late joiners correct.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def then(
        self, proceed: Callable[[Any], None], fail: Callable[[BaseException], None]
    ) -> None:
        """Continue a completion-callback chain once this event is processed.

        Calls ``proceed(value)`` on success or ``fail(exception)`` on
        failure — the callback form of ``value = yield event`` for request
        paths that run without a process.
        """

        def settle(ev: "Event") -> None:
            if ev._exception is None:
                proceed(ev._value)
            else:
                fail(ev._exception)

        self.add_callback(settle)

    def _process(self) -> None:
        """Run callbacks (kernel-internal)."""
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.sim.now:.6g}>"


class Sink(Protocol):
    """Where a request's outcome goes: ``succeed(value)`` or ``fail(exc)``.

    An :class:`Event` is a sink; so is a :class:`Continuation`, and so is
    any object with the two methods (the RPC retry loop is one).  A layer
    that takes a sink settles it exactly once, directly from the kernel
    event that produced the outcome, so forwarding a result across a layer
    boundary costs no kernel event of its own.
    """

    def succeed(self, value: Any = None) -> Any: ...  # pragma: no cover

    def fail(self, exception: BaseException) -> Any: ...  # pragma: no cover


class Continuation:
    """A :class:`Sink` made of two callables: ``proceed(value)`` on
    success, ``fail(exc)`` on failure — the caller's next step, run in the
    same kernel event as the callee's completion."""

    __slots__ = ("succeed", "fail")

    def __init__(
        self, proceed: Callable[[Any], Any], fail: Callable[[BaseException], Any]
    ) -> None:
        self.succeed = proceed
        self.fail = fail


def chain_result(
    inner: Event, done: Event, transform: Optional[Callable[[Any], Any]] = None
) -> Event:
    """Forward ``inner``'s outcome to ``done`` when it settles.

    For adapters at public boundaries that must hand out an event of their
    own, distinct from the one they wait on — typically to map the value
    through ``transform`` or to join a process.  Success forwards the
    (mapped) value, failure the exception.  The relay costs one kernel
    event, so an internal hop that only forwards should instead pass a
    :class:`Sink` down or return the inner event itself.  Returns ``done``
    so call sites can build and forward in one expression.
    """

    def _settle(ev: Event) -> None:
        if ev.ok:
            done.succeed(ev.value if transform is None else transform(ev.value))
        else:
            done.fail(ev.exception)

    inner.add_callback(_settle)
    return done


class Timeout(Event):
    """An event that triggers automatically after ``delay`` sim-time units.

    The timeout only *triggers* (becomes observable via :attr:`triggered`)
    when the clock reaches it — not at construction — so condition events
    like :class:`AnyOf` see an accurate picture of which waits completed.
    Until then it can be withdrawn with :meth:`Simulator.cancel
    <repro.simcore.kernel.Simulator.cancel>`; a cancelled timeout never
    triggers.
    """

    __slots__ = ("delay", "_pending_value", "_at")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            from .errors import SchedulingError

            raise SchedulingError(f"negative timeout delay: {delay}")
        # Note: no formatted per-instance name — timeouts are the kernel's
        # highest-volume allocation and the f-string dominated their cost;
        # __repr__ renders the delay lazily instead.
        super().__init__(sim)
        self.delay = float(delay)
        self._pending_value = value
        #: Absolute fire time — the slot key :meth:`Simulator.cancel` looks up.
        self._at = sim.now + self.delay
        sim._enqueue_at(self._at, self)

    def _process(self) -> None:
        self._value = self._pending_value
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<Timeout({self.delay:g}) {state} at t={self.sim.now:.6g}>"


class AnyOf(Event):
    """Triggers as soon as *any* of the given events triggers.

    Value is a dict mapping the events that have triggered so far to their
    values (like SimPy's condition value).
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            self._value = {}
            sim._enqueue_now(self)
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # propagate first failure
            return
        self.succeed({e: e._value for e in self.events if e.triggered and e.ok})


class AllOf(Event):
    """Triggers once *all* of the given events have triggered.

    Value is a dict of event -> value for every child.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self._value = {}
            sim._enqueue_now(self)
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e._value for e in self.events})
