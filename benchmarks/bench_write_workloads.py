"""Write-path gate: checkpoints must not starve the read path.

ROADMAP item 4's acceptance gate, over the three storage deployments of
the writes experiment (``posix-read``, ``posix-mixed``, ``object-mixed``):

* **PRISMA wins everywhere** — ``prisma-async`` finishes training at
  least ``MIN_SPEEDUP``x faster than the ``baseline-sync`` setup in every
  config, including the object store reached purely through
  ``BackendConfig(kind="object")``;
* **async checkpointing recovers burst-window reads** — inside
  checkpoint-write windows, the ``prisma-async`` setup sustains at least
  ``MIN_BURST_RATIO``x the read throughput of ``prisma-sync`` in both
  mixed (read+write) configs;
* the whole matrix is byte-deterministic across two runs of one seed.

All recorded quantities are *simulated*, so the gate is immune to host
wall-clock noise.  Results land in ``BENCH_writes.json`` at the repo root.

Run directly:  PYTHONPATH=src python benchmarks/bench_write_workloads.py
Or via pytest: pytest benchmarks/bench_write_workloads.py --benchmark-only
"""

from __future__ import annotations

from _gate import SIMULATED, Gate

from repro.experiments.writes import run_write_workloads

SEED = 0
N_FILES = 640
FILE_SIZE = 112 * 1024
EPOCHS = 2
CKPT_EVERY = 8
CKPT_BYTES = 96_000_000

#: prisma-async must beat baseline-sync end-to-end in every config.
MIN_SPEEDUP = 1.1
#: inside checkpoint bursts, async checkpointing must sustain >= 1.2x the
#: read throughput of synchronous checkpointing (the interference claim).
MIN_BURST_RATIO = 1.2
#: configs where checkpoints actually fire (burst ratio is defined).
MIXED_CONFIGS = ("posix-mixed", "object-mixed")


def run_writes() -> dict:
    kwargs = dict(
        seed=SEED, n_files=N_FILES, file_size=FILE_SIZE, epochs=EPOCHS,
        ckpt_every=CKPT_EVERY, ckpt_bytes=CKPT_BYTES,
    )
    report = run_write_workloads(**kwargs)

    speedups = {}
    burst_ratios = {}
    for config in report.configs():
        base = report.trial(config, "baseline-sync")
        sync = report.trial(config, "prisma-sync")
        async_ = report.trial(config, "prisma-async")
        speedups[config] = (
            base.sim_seconds / async_.sim_seconds if async_.sim_seconds > 0 else 0.0
        )
        if config in MIXED_CONFIGS and sync.burst_read_throughput > 0:
            burst_ratios[config] = (
                async_.burst_read_throughput / sync.burst_read_throughput
            )
    return {
        "benchmark": "write_workloads",
        "description": (
            "Checkpoint write bursts contending with prefetch reads over "
            "three config-selected backends (read-only POSIX, POSIX with "
            "read/write interference, S3-like object store). Gates: "
            "prisma-async beats baseline-sync everywhere, and async "
            "checkpointing sustains >= 1.2x the burst-window read "
            "throughput of sync. Simulated-time metrics: immune to host "
            "wall-clock noise."
        ),
        "workload": (
            f"run_write_workloads(seed={SEED}, n_files={N_FILES}, "
            f"file_size={FILE_SIZE}, epochs={EPOCHS}, "
            f"ckpt_every={CKPT_EVERY}, ckpt_bytes={CKPT_BYTES})"
        ),
        "speedups": speedups,
        "burst_read_ratios": burst_ratios,
        "min_speedup": MIN_SPEEDUP,
        "min_burst_ratio": MIN_BURST_RATIO,
        "report": report.metrics_dict(),
    }


def _summary(report: dict) -> list:
    lines = []
    for config, speedup in report["speedups"].items():
        burst = report["burst_read_ratios"].get(config)
        extra = f", burst reads {burst:.2f}x sync" if burst is not None else ""
        lines.append(f"{config}: prisma-async {speedup:.2f}x baseline-sync{extra}")
    return lines


GATE = Gate(
    "BENCH_writes.json", SIMULATED, run_writes,
    floors=[
        (f"prisma-async >= {MIN_SPEEDUP:.2f}x baseline-sync in all three configs",
         lambda r: len(r["speedups"]) == 3
         and all(s >= MIN_SPEEDUP for s in r["speedups"].values())),
        (f"async burst-window reads >= {MIN_BURST_RATIO:.2f}x sync in "
         + " and ".join(MIXED_CONFIGS),
         lambda r: len(r["burst_read_ratios"]) == len(MIXED_CONFIGS)
         and all(b >= MIN_BURST_RATIO for b in r["burst_read_ratios"].values())),
    ],
    summary=_summary,
)
test_write_workload_gates = GATE.pytest_test()

if __name__ == "__main__":
    raise SystemExit(GATE.main())
