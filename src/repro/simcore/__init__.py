"""``repro.simcore`` — a dependency-free discrete-event simulation kernel.

The kernel is the substrate for every simulated component in this
reproduction (storage devices, DL framework pipelines, the PRISMA data and
control planes).  It provides:

* :class:`Simulator` — the slot-scheduled event loop and clock: a FIFO
  slot per timestamp, an immediate queue for the current time, and a heap
  of distinct future timestamps (see DESIGN.md on kernel internals).
* :class:`Process` — generator-based cooperative processes.
* Events: :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf`;
  the :class:`Sink` protocol (``succeed``/``fail``) that request paths
  settle directly, and :class:`Continuation`, a sink of two callables.
* Resources: :class:`Store`, :class:`KeyedStore` (O(1) key-addressed
  buffering over a :class:`KeyedIndex`, with per-item copy counts),
  :class:`Resource`, :class:`Lock`, :class:`Container`.  Pending
  operations are :class:`RequestEvent`\\ s with an explicit run-queue
  state (``WAITING``/``READY``/``RUNNING``/``CANCELLED``).
* :class:`RandomStreams` — named deterministic RNG streams.

The telemetry primitives live in :mod:`repro.telemetry`.
"""

from .errors import (
    DuplicateKeyError,
    DuplicateRequestError,
    EventAlreadyTriggered,
    Interrupt,
    ProcessError,
    SchedulingError,
    SimulationError,
    StopSimulation,
)
from .event import AllOf, AnyOf, Continuation, Event, Sink, Timeout
from .kernel import Process, Simulator
from .random import RandomStreams
from .resources import (
    CANCELLED,
    READY,
    RUNNING,
    WAITING,
    Container,
    KeyedIndex,
    KeyedStore,
    KeyedStoreGet,
    KeyedStorePut,
    Lock,
    RequestEvent,
    Resource,
    ResourceRequest,
    Store,
    StoreGet,
    StorePut,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "CANCELLED",
    "Container",
    "Continuation",
    "DuplicateKeyError",
    "DuplicateRequestError",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "KeyedIndex",
    "KeyedStore",
    "KeyedStoreGet",
    "KeyedStorePut",
    "Lock",
    "Process",
    "ProcessError",
    "READY",
    "RUNNING",
    "RandomStreams",
    "RequestEvent",
    "Resource",
    "ResourceRequest",
    "SchedulingError",
    "SimulationError",
    "Sink",
    "Simulator",
    "StopSimulation",
    "Store",
    "StoreGet",
    "StorePut",
    "Timeout",
    "WAITING",
]
