"""Declarative harness behind the ``BENCH_*.json`` regression gates.

A gate script declares one :class:`Gate` — its output file, its kind,
``run() -> dict``, a list of ``(description, predicate)`` floors and its
summary lines — and gets from the harness:

* the pytest entry (``test_x = GATE.pytest_test()``, needs the ``once``
  fixture from ``conftest.py``);
* ``GATE.main()``: run, write, print the summary, then ``PASS`` or
  ``FAIL`` naming every floor that failed (exit status 0 or 1);
* the JSON writer: ``json.dumps(report, indent=2, sort_keys=True)``.

A :data:`SIMULATED` gate measures simulated time, so the same seed must
give the same report: the harness runs it twice, records
``deterministic`` and gates on it.  A :data:`WALL` gate measures host
time and runs once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, List, Sequence, Tuple

SIMULATED = "simulated"
WALL = "wall"

ROOT = Path(__file__).resolve().parents[1]

Floor = Tuple[str, Callable[[dict], bool]]


class Gate:
    def __init__(
        self,
        output,
        kind: str,
        run: Callable[[], dict],
        floors: Sequence[Floor],
        summary: Callable[[dict], Iterable[str]],
    ) -> None:
        if kind not in (SIMULATED, WALL):
            raise ValueError(f"unknown gate kind {kind!r}")
        self.path = ROOT / output  # an absolute ``output`` is kept as is
        self.kind = kind
        self.run = run
        self.floors = list(floors)
        if kind == SIMULATED:
            self.floors.insert(0, (
                "same seed gives a byte-identical report",
                lambda report: report["deterministic"],
            ))
        self.summary = summary

    def measure(self) -> dict:
        report = self.run()
        if self.kind == SIMULATED:
            report["deterministic"] = report == self.run()
        return report

    def failures(self, report: dict) -> List[str]:
        return [description for description, holds in self.floors if not holds(report)]

    def write(self, report: dict) -> None:
        self.path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    def pytest_test(self):
        def test(once):
            report = once(self.measure)
            self.write(report)
            failed = self.failures(report)
            assert not failed, f"{self.path.name}: " + "; ".join(failed)

        return test

    def main(self) -> int:
        report = self.measure()
        self.write(report)
        for line in self.summary(report):
            print(line)
        print(f"wrote {self.path}")
        failed = self.failures(report)
        for description in failed:
            print(f"FAIL: {description}")
        if not failed:
            print("PASS: " + "; ".join(description for description, _ in self.floors))
        return 1 if failed else 0
