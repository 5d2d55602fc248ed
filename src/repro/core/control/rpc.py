"""Control channel between the control plane and data-plane stages.

The control plane is *logically* centralized but physically separate from
the stages (paper §III-A), so every monitoring poll and policy push crosses
a channel with non-zero latency.  For stages co-located with the controller
(the paper's prototype implements the control plane "as a logical component
of our middleware") the latency is a function call's worth; for remote
stages it is a network RTT.  Modelling it explicitly keeps the architecture
honest: control decisions are always slightly stale, exactly as in a real
SDS deployment.

Failure model
-------------

A real control channel loses and delays messages, so this one can too
(:meth:`ControlChannel.inject_drops` / :meth:`ControlChannel.inject_delay`,
driven by :class:`~repro.faults.FaultInjector`).  Failures surface as
*typed* exceptions rather than being swallowed into a generic process
error, so callers can tell retryable transport trouble from fatal
far-side bugs:

* :class:`RpcTransportError` — the message was lost (retryable);
* :class:`RpcTimeout` — no reply within the caller's deadline (retryable);
* :class:`RpcApplicationError` — the far-side function raised (fatal:
  retrying re-executes a deterministic failure).

:meth:`ControlChannel.call_with_retry` layers exponential backoff and a
total time budget on top (:class:`RetryPolicy`), raising
:class:`RpcRetriesExhausted` once the budget or attempt count runs out.

Data-plane requests
-------------------

:meth:`ControlChannel.request` is the *data-plane* sibling of
:meth:`ControlChannel.call`: the far-side function may return a kernel
:class:`~repro.simcore.event.Event` (a read that takes simulated time —
e.g. a peer node serving a sample from its fast tier), and the reply leg
is only sent once that event settles.  The error taxonomy is unchanged —
lost messages and late replies stay retryable transport errors, while a
far-side failure (including a failed far-side event) is a fatal
:class:`RpcApplicationError`, because replaying a deterministic far-side
failure buys nothing; data-plane callers fall back to the backing store
instead.  :meth:`ControlChannel.request_with_retry` adds the same backoff
machinery :meth:`ControlChannel.call_with_retry` gives control RPCs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from ...simcore.errors import SimulationError
from ...simcore.event import Event, Sink, Timeout
from ...telemetry import CounterSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...simcore.kernel import Simulator

#: In-process call: effectively free (prototype deployment, paper §IV).
LOCAL_LATENCY = 2e-6
#: Same-datacenter TCP round trip half (distributed deployment, §III).
REMOTE_LATENCY = 150e-6


class RpcError(SimulationError):
    """Base class for control-channel failures."""


class RpcTransportError(RpcError):
    """The request or reply was lost in transit (retryable)."""


class RpcTimeout(RpcTransportError):
    """No reply arrived within the caller's deadline (retryable)."""


class RpcApplicationError(RpcError):
    """The far-side function raised; the original is ``__cause__`` (fatal)."""


class RpcRetriesExhausted(RpcError):
    """Every attempt failed; the last transport error is ``__cause__``."""


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule and budget for :meth:`ControlChannel.call_with_retry`.

    ``budget`` caps the *total* time spent on one logical call (attempts +
    backoff); a control plane that spends longer than a control period
    nursing one RPC is better off skipping the cycle.
    """

    max_attempts: int = 4
    base_delay: float = 1e-3
    multiplier: float = 2.0
    max_delay: float = 50e-3
    budget: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.budget <= 0:
            raise ValueError("budget must be positive")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based; attempt 0 is free)."""
        if attempt <= 0:
            return 0.0
        return min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)


class ControlChannel:
    """Bidirectional request/response path with symmetric one-way latency."""

    def __init__(self, sim: "Simulator", latency: float = LOCAL_LATENCY, name: str = "ctl") -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.latency = latency
        self.name = name
        self.counters = CounterSet()
        #: fault-injection state (windowed by the injector)
        self._dropping = False
        self._extra_delay = 0.0

    # -- fault injection --------------------------------------------------------
    def inject_drops(self, active: bool) -> None:
        """Drop every message while active (a partitioned control network)."""
        self._dropping = bool(active)

    def inject_delay(self, extra: float) -> None:
        """Add ``extra`` seconds to each one-way leg (congested network)."""
        if extra < 0:
            raise ValueError("extra delay must be non-negative")
        self._extra_delay = extra

    @property
    def faulted(self) -> bool:
        return self._dropping or self._extra_delay > 0

    # -- data path --------------------------------------------------------------
    def _far_side_failure(self, exc: BaseException) -> RpcError:
        """Type a far-side failure: nested RPC errors pass through as-is."""
        if isinstance(exc, RpcError):
            # A nested RPC failure on the far side is still a far-side
            # failure from this channel's point of view.
            return exc
        err = RpcApplicationError(f"{self.name}: far side raised {type(exc).__name__}")
        err.__cause__ = exc
        return err

    def _dispatch(self, kind: str, fn, args, timeout: Optional[float], sink: Sink) -> None:
        """One request/reply exchange with timeout plumbing (shared by
        call/request, counted under ``kind``); its outcome goes to ``sink``.

        ``sink`` is a :class:`~repro.simcore.event.Sink`, the protocol the
        storage stack settles too: the caller event, or a
        :class:`_RetryLoop` deciding whether to try again.  A
        ``"requests"`` exchange has data-plane semantics: a far-side return
        value that is itself an :class:`Event` is waited on before the
        reply leg, and its failure is a far-side (application) failure.
        Whichever of reply, failure or timeout comes first settles
        ``sink``, exactly once, and cancels the deadline timer; the
        exchange still runs to completion, so a late reply is discarded.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.counters.add(kind)
        sim = self.sim
        awaited = kind == "requests"
        deadline: Optional[Timeout] = None

        def settle(value: Any, exc: Optional[BaseException]) -> None:
            nonlocal sink
            if sink is None:
                return  # already settled: this outcome lost the race
            target, sink = sink, None
            if deadline is not None:
                sim.cancel(deadline)
            if exc is None:
                target.succeed(value)
            else:
                target.fail(exc)

        def fail(exc: BaseException) -> None:
            settle(None, exc)

        def leg(what: str, then: Callable[..., None], *payload: Any) -> None:
            """One one-way hop; a message landing while the channel drops is lost."""

            def land(_ev: Optional[Event] = None) -> None:
                if self._dropping:
                    self.counters.add("drops")
                    fail(RpcTransportError(f"{self.name}: {what} dropped"))
                else:
                    then(*payload)

            one_way = self.latency + self._extra_delay
            if one_way > 0:
                sim.timeout(one_way).add_callback(land)
            else:
                land()

        def arrived() -> None:
            try:
                result = fn(*args)
            except Exception as exc:  # noqa: BLE001 - typed and re-raised
                fail(self._far_side_failure(exc))
                return
            if awaited and isinstance(result, Event):
                result.then(
                    lambda value: leg("reply", settle, value, None),
                    lambda exc: fail(self._far_side_failure(exc)),
                )
            else:
                leg("reply", settle, result, None)

        leg("request", arrived)
        if timeout is not None:

            def expire(_ev: Event) -> None:
                if sink is not None:
                    self.counters.add("timeouts")
                    fail(RpcTimeout(f"{self.name}: no reply within {timeout:g}s"))

            deadline = sim.timeout(timeout)
            deadline.add_callback(expire)

    def call(self, fn: Callable[..., Any], *args: Any, timeout: Optional[float] = None) -> Event:
        """Invoke ``fn(*args)`` on the far side; event value = its result.

        Fails with :class:`RpcTransportError` when the channel is dropping,
        :class:`RpcTimeout` when the round trip exceeds ``timeout``, and
        :class:`RpcApplicationError` when ``fn`` itself raises.  Note that
        a timed-out call may still have *executed* ``fn`` — the reply was
        late, not the request lost — exactly the at-most-once ambiguity a
        real RPC layer has.
        """
        done = Event(self.sim)
        self._dispatch("calls", fn, args, timeout, done)
        return done

    def request(self, fn: Callable[..., Any], *args: Any, timeout: Optional[float] = None) -> Event:
        """Data-plane request: like :meth:`call`, but the far side may defer.

        When ``fn(*args)`` returns an :class:`Event` (far-side work that
        takes simulated time — a peer serving a sample from its tier), the
        reply leg is sent once that event settles and carries its value.
        A failed far-side event surfaces as :class:`RpcApplicationError`
        (fatal): the peer could not produce the bytes, so the caller should
        fall back, not replay.  ``timeout`` bounds the *whole* exchange,
        including the far-side service time.
        """
        done = Event(self.sim)
        self._dispatch("requests", fn, args, timeout, done)
        return done

    def call_with_retry(
        self,
        fn: Callable[..., Any],
        *args: Any,
        policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> Event:
        """:meth:`call` with exponential backoff under a total time budget.

        Retries transport errors and timeouts only; an
        :class:`RpcApplicationError` is re-raised immediately (the far side
        deterministically failed — retrying replays the bug).  When the
        attempt count or the time budget runs out the event fails with
        :class:`RpcRetriesExhausted` chaining the last transport error.
        """
        return _RetryLoop(
            self,
            lambda sink: self._dispatch("calls", fn, args, timeout, sink),
            policy or RetryPolicy(),
        ).done

    def request_with_retry(
        self,
        fn: Callable[..., Any],
        *args: Any,
        policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> Event:
        """:meth:`request` under the same backoff/budget as control calls.

        The retry set is identical — transport losses and timeouts only.
        Note the at-most-once caveat bites harder on the data plane: a
        timed-out request may have *completed* on the peer (the sample is
        now in its tier); retries are therefore idempotent reads, and peer
        caches must coalesce duplicate in-flight fetches.
        """
        return _RetryLoop(
            self,
            lambda sink: self._dispatch("requests", fn, args, timeout, sink),
            policy or RetryPolicy(),
        ).done


class _RetryLoop:
    """One logical call under a :class:`RetryPolicy`.

    The loop is each attempt's sink: an attempt's outcome either settles
    :attr:`done` or schedules the next attempt after its backoff, with no
    per-attempt event in between.  An attempt settles its sink once, so a
    late reply to an earlier attempt never reaches the loop.  A plain
    object rather than a pair of mutually-referencing closures, so a
    finished loop is freed by reference counting instead of waiting for
    the cycle collector.
    """

    __slots__ = ("channel", "send", "policy", "done", "start", "attempt")

    def __init__(
        self,
        channel: ControlChannel,
        send: Callable[["_RetryLoop"], None],
        policy: RetryPolicy,
    ) -> None:
        self.channel = channel
        self.send = send
        self.policy = policy
        self.done = Event(channel.sim)
        self.start = channel.sim.now
        self.attempt = 0
        self.issue()

    def issue(self, _ev: Optional[Event] = None) -> None:
        self.send(self)

    def succeed(self, value: Any) -> None:
        self.done.succeed(value)

    def fail(self, exc: BaseException) -> None:
        if isinstance(exc, RpcApplicationError) or not isinstance(exc, RpcError):
            self.done.fail(exc)
            return
        channel, pol = self.channel, self.policy
        now = channel.sim.now
        self.attempt += 1
        if now - self.start < pol.budget and self.attempt < pol.max_attempts:
            backoff = pol.delay_for(self.attempt)
            # Skip the retry when the backoff alone would blow the budget.
            if now + backoff - self.start <= pol.budget:
                channel.counters.add("retries")
                if backoff > 0:
                    channel.sim.timeout(backoff).add_callback(self.issue)
                else:
                    self.issue()
                return
        err = RpcRetriesExhausted(
            f"{channel.name}: gave up after {pol.max_attempts} attempts / "
            f"{pol.budget:g}s budget"
        )
        err.__cause__ = exc
        self.done.fail(err)
