"""Predictive-control gate: jump to the optimum, don't climb to it.

ROADMAP item 1's acceptance gate, over both storage deployments of the
predictive experiment (``posix`` and ``object``):

* **predictive converges fast** — :class:`~repro.core.PredictivePolicy`
  reaches 95 % of the oracle-best-static steady throughput in at most
  ``MAX_CONVERGENCE_RATIO``x the control periods the reactive
  :class:`~repro.core.PrismaAutotunePolicy` needs, on every backend kind;
* **predictive converges well** — its steady-state throughput is at
  least ``MIN_STEADY_FRACTION`` of the oracle's (the jump lands on the
  actual optimum, not merely near it);
* **one kernel, two drivers** — the predictive trial's decision sequence
  replays identically through the simulated and the live controller
  (sim/live parity), and the in-envelope workload never falls back;
* the whole report is byte-deterministic across two runs of one seed.

All recorded quantities are *simulated*, so the gate is immune to host
wall-clock noise.  Results land in ``BENCH_predict.json`` at the repo root.

Run directly:  PYTHONPATH=src python benchmarks/bench_predictive_control.py
Or via pytest: pytest benchmarks/bench_predictive_control.py --benchmark-only
"""

from __future__ import annotations

from _gate import SIMULATED, Gate

from repro.experiments.predictive import run_predictive_comparison

SEED = 0

#: predictive must converge in <= half the reactive policy's periods.
MAX_CONVERGENCE_RATIO = 0.5
#: predictive steady throughput must be >= 95% of oracle-best-static.
MIN_STEADY_FRACTION = 0.95
BACKEND_KINDS = ("posix", "object")


def run_predictive() -> dict:
    report = run_predictive_comparison(seed=SEED, backend_kinds=BACKEND_KINDS)

    ratios = {}
    steady_fractions = {}
    parity = {}
    fallbacks = {}
    for r in report.results:
        ratios[r.backend_kind] = r.convergence_ratio
        steady_fractions[r.backend_kind] = (
            r.predictive.steady_throughput / r.oracle.steady_throughput
            if r.oracle.steady_throughput > 0
            else 0.0
        )
        parity[r.backend_kind] = r.live_parity
        fallbacks[r.backend_kind] = r.fell_back
    return {
        "benchmark": "predictive_control",
        "description": (
            "Offline (t, N) sweep fits a ridge throughput model; "
            "PredictivePolicy jumps to its argmax and refines locally, "
            "racing PrismaAutotunePolicy hill-climbing and the "
            "oracle-best-static setting from the same cold start on POSIX "
            "and object-store backends. Gates: predictive reaches 95% of "
            "oracle steady throughput in <= 0.5x reactive's control "
            "periods, lands within 5% of the oracle's steady rate, "
            "preserves sim/live decision parity, never falls back, and "
            "the whole report is byte-deterministic."
        ),
        "workload": (
            f"run_predictive_comparison(seed={SEED}, "
            f"backend_kinds={list(BACKEND_KINDS)})"
        ),
        "convergence_ratios": ratios,
        "steady_fractions": steady_fractions,
        "live_parity": parity,
        "fell_back": fallbacks,
        "max_convergence_ratio": MAX_CONVERGENCE_RATIO,
        "min_steady_fraction": MIN_STEADY_FRACTION,
        "model_rmse_rel": report.model_rmse_rel,
        "report": report.metrics_dict(),
    }


GATE = Gate(
    "BENCH_predict.json", SIMULATED, run_predictive,
    floors=[
        ("one result per backend kind",
         lambda r: len(r["convergence_ratios"]) == len(BACKEND_KINDS)),
        (f"predictive converges in <= {MAX_CONVERGENCE_RATIO:.2f}x reactive's periods",
         lambda r: all(x <= MAX_CONVERGENCE_RATIO for x in r["convergence_ratios"].values())),
        (f"predictive steady rate >= {MIN_STEADY_FRACTION:.0%} of oracle",
         lambda r: all(f >= MIN_STEADY_FRACTION for f in r["steady_fractions"].values())),
        ("sim/live decision parity", lambda r: all(r["live_parity"].values())),
        ("no fallback to reactive in-envelope", lambda r: not any(r["fell_back"].values())),
    ],
    summary=lambda r: [
        f"{kind}: {r['convergence_ratios'][kind]:.2f}x reactive's convergence periods, "
        f"steady {r['steady_fractions'][kind]:.1%} of oracle, "
        f"parity {'ok' if r['live_parity'][kind] else 'BROKEN'}"
        for kind in BACKEND_KINDS
    ],
)
test_predictive_control_gates = GATE.pytest_test()

if __name__ == "__main__":
    raise SystemExit(GATE.main())
