"""Clairvoyant vs reactive prefetching: the lookahead must actually pay.

ROADMAP item 1's acceptance gate: on a cold-cache multi-epoch run over the
RAM buffer → fast tier → backing store hierarchy, the clairvoyant stack
(Belady tiering + cross-epoch lookahead) must beat the reactive baseline
on BOTH simulated throughput and fast-tier hit rate — and the whole
comparison must be byte-deterministic under a fixed seed (the report is
computed twice and compared for equality).

The measured quantities are *simulated* (files per simulated second), so
the gate is immune to host wall-clock noise: a regression here means the
policy got worse, not the machine.

Results land in ``BENCH_prefetch.json`` at the repo root.

Run directly:  PYTHONPATH=src python benchmarks/bench_prefetch_lookahead.py
Or via pytest: pytest benchmarks/bench_prefetch_lookahead.py --benchmark-only
"""

from __future__ import annotations

from _gate import SIMULATED, Gate

from repro.experiments import run_clairvoyant_comparison

SEED = 0
N_FILES = 200
FILE_SIZE = 96 * 1024
EPOCHS = 3  # cold-cache multi-epoch: >= 3 per the acceptance criteria
LOOKAHEAD_EPOCHS = 2

#: Regression ceilings: clairvoyant must keep at least this much of its
#: measured advantage (values below 1.0 would mean "clairvoyant loses").
MIN_THROUGHPUT_RATIO = 1.0
MIN_HIT_RATE_RATIO = 1.0


def run_lookahead() -> dict:
    kwargs = dict(
        seed=SEED, n_files=N_FILES, file_size=FILE_SIZE,
        epochs=EPOCHS, lookahead_epochs=LOOKAHEAD_EPOCHS,
    )
    report = run_clairvoyant_comparison(**kwargs)
    r, c = report.reactive, report.clairvoyant
    hit_ratio = (
        c.fast_tier_hit_rate / r.fast_tier_hit_rate
        if r.fast_tier_hit_rate > 0
        else float(c.fast_tier_hit_rate > 0)
    )
    return {
        "benchmark": "prefetch_lookahead",
        "description": (
            "Cold-cache multi-epoch scan through RAM buffer -> fast tier -> "
            "backing SSD: reactive (promote-on-Nth-access, LRU) vs "
            "clairvoyant (Belady tiering + cross-epoch lookahead) over "
            "identical seeded shuffles. Simulated-time metrics: immune to "
            "host wall-clock noise."
        ),
        "workload": (
            f"run_clairvoyant_comparison(seed={SEED}, n_files={N_FILES}, "
            f"file_size={FILE_SIZE}, epochs={EPOCHS}, "
            f"lookahead_epochs={LOOKAHEAD_EPOCHS})"
        ),
        "completed": r.completed and c.completed,
        "throughput_ratio": report.speedup,
        "hit_rate_ratio": hit_ratio,
        "min_throughput_ratio": MIN_THROUGHPUT_RATIO,
        "min_hit_rate_ratio": MIN_HIT_RATE_RATIO,
        "report": report.metrics_dict(),
    }


def _summary(report: dict) -> list:
    inner = report["report"]
    return [
        f"{setup + ':':<13} {inner[setup]['throughput']:7.0f} files/s, "
        f"fast-tier hit rate {inner[setup]['fast_tier_hit_rate']:6.1%}"
        for setup in ("reactive", "clairvoyant")
    ] + [
        f"ratios: throughput {report['throughput_ratio']:.3f}x, "
        f"hit rate {report['hit_rate_ratio']:.3f}x"
    ]


GATE = Gate(
    "BENCH_prefetch.json", SIMULATED, run_lookahead,
    floors=[
        ("both runs complete", lambda r: r["completed"]),
        (f"throughput ratio > {MIN_THROUGHPUT_RATIO:.2f}x",
         lambda r: r["throughput_ratio"] > MIN_THROUGHPUT_RATIO),
        (f"fast-tier hit-rate ratio > {MIN_HIT_RATE_RATIO:.2f}x",
         lambda r: r["hit_rate_ratio"] > MIN_HIT_RATE_RATIO),
    ],
    summary=_summary,
)
test_clairvoyant_beats_reactive = GATE.pytest_test()

if __name__ == "__main__":
    raise SystemExit(GATE.main())
