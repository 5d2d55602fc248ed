"""User-facing live PRISMA session and data-loader adapters.

:class:`LivePrisma` bundles the live data plane and control plane behind
the small API a training script needs::

    with LivePrisma(autotune=True) as prisma:
        for epoch in range(10):
            order = shuffle(all_paths, epoch)
            for path, data in prisma.iter_epoch(order):
                train_on(decode(data))

``iter_epoch`` is the integration point for any framework whose dataset
yields file paths: wrap a PyTorch ``Dataset.__getitem__`` with
:meth:`LivePrisma.read`, or replace a tf.data file reader with it — the
same one-line substitution as the paper's bindings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Tuple

from ..control.policy import ControlPolicy, StaticPolicy
from .controller import LiveController
from .prefetcher import LivePrefetcher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...telemetry import Telemetry


class LivePrisma:
    """A complete live PRISMA stack: prefetcher + optional auto-tuner."""

    def __init__(
        self,
        producers: int = 2,
        buffer_capacity: int = 64,
        max_producers: int = 16,
        autotune: bool = True,
        control_period: float = 0.1,
        policy: Optional[ControlPolicy] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.prefetcher = LivePrefetcher(
            producers=producers,
            buffer_capacity=buffer_capacity,
            max_producers=max_producers,
        )
        self.controller: Optional[LiveController] = None
        if policy is not None or autotune:
            self.controller = LiveController(
                self.prefetcher,
                policy=policy,
                period=control_period,
                telemetry=telemetry,
            )
        self._started = False

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> "LivePrisma":
        if self._started:
            return self
        if self.controller is not None:
            self.controller.start()
        self._started = True
        return self

    def close(self) -> None:
        if self.controller is not None:
            self.controller.stop()
        self.prefetcher.close()

    def __enter__(self) -> "LivePrisma":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- data path --------------------------------------------------------------
    def load_epoch(self, paths: Iterable[str]) -> None:
        self.prefetcher.load_epoch(paths)

    def read(self, path: str, timeout: Optional[float] = None) -> bytes:
        return self.prefetcher.read(path, timeout=timeout)

    def iter_epoch(
        self, paths: Sequence[str], timeout: Optional[float] = None
    ) -> Iterator[Tuple[str, bytes]]:
        """Prefetch and yield ``(path, data)`` in the given order."""
        paths = list(paths)
        self.load_epoch(paths)
        for path in paths:
            yield path, self.read(path, timeout=timeout)

    # -- observability -----------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        return self.prefetcher.buffer.hit_rate()

    @property
    def producers(self) -> int:
        return self.prefetcher.target_producers

    def stats(self) -> dict:
        snap = self.prefetcher.snapshot()
        return {
            "producers": snap.producers_allocated,
            "buffer_capacity": snap.buffer_capacity,
            "buffer_level": snap.buffer_level,
            "hit_rate": self.hit_rate,
            "bytes_fetched": snap.bytes_fetched,
            "queue_remaining": snap.queue_remaining,
        }


def static_live_prisma(producers: int, buffer_capacity: int) -> LivePrisma:
    """A manually configured live stack (no auto-tuning) — the strawman."""
    return LivePrisma(
        producers=producers,
        buffer_capacity=buffer_capacity,
        max_producers=max(producers, 1),
        autotune=False,
        policy=StaticPolicy(producers, buffer_capacity),
    )
