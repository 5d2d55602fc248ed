"""Cooperative-cache invariant at N=128: the backing store sees each sample once.

ROADMAP item 2's acceptance gate: 128 nodes each scan the full catalog
every epoch through the peer-to-peer cluster store.  Without cooperation
the backing store would absorb ``128 × catalog`` reads per epoch; the gate
requires the measured backing-store reads to stay within **1.05× the
unique samples per epoch cluster-wide**, and the whole report to be
byte-deterministic across two runs of the same seed.

The recorded quantities — simulated epoch wall-time, cluster cache hit
rate, backing reads per sample per epoch — are all *simulated*, so the
gate is immune to host wall-clock noise: a regression here means the
sharding, coalescing, or peer-serving logic got worse, not the machine.

Results land in ``BENCH_cluster.json`` at the repo root.

Run directly:  PYTHONPATH=src python benchmarks/bench_cluster_serving.py
Or via pytest: pytest benchmarks/bench_cluster_serving.py --benchmark-only
"""

from __future__ import annotations

from _gate import SIMULATED, Gate

from repro.experiments.cluster import run_cluster_serving

SEED = 0
N_NODES = 128
N_FILES = 192
FILE_SIZE = 64 * 1024
EPOCHS = 2

#: The cooperative-cache ceiling: backing reads per unique sample per
#: epoch.  1.0 is the invariant; 1.05 allows for future fault-tolerant
#: variants that trade a few duplicate reads for availability.
MAX_READS_PER_UNIQUE_SAMPLE = 1.05
#: The cluster's tiers must absorb nearly all of the N× request storm.
MIN_CLUSTER_HIT_RATE = 0.95


def run_cluster() -> dict:
    kwargs = dict(
        seed=SEED, n_nodes=N_NODES, n_files=N_FILES,
        file_size=FILE_SIZE, epochs=EPOCHS,
    )
    report = run_cluster_serving(**kwargs)
    return {
        "benchmark": "cluster_serving",
        "description": (
            "128 nodes each scanning the full catalog per epoch through the "
            "sharded peer-to-peer cluster store (stable-hash shard map, "
            "read-through tiers with in-flight coalescing, RPC peer serving "
            "with backing-store fallback). Simulated-time metrics: immune "
            "to host wall-clock noise."
        ),
        "workload": (
            f"run_cluster_serving(seed={SEED}, n_nodes={N_NODES}, "
            f"n_files={N_FILES}, file_size={FILE_SIZE}, epochs={EPOCHS})"
        ),
        "completed": report.completed,
        "sim_seconds": report.sim_seconds,
        "requests": report.requests,
        "backing_reads": report.backing_reads,
        "cluster_hit_rate": report.cluster_hit_rate,
        "peer_hit_rate": report.peer_hit_rate,
        "reads_per_unique_sample": report.worst_backing_per_unique,
        "max_reads_per_path": report.worst_reads_per_path,
        "max_reads_per_unique_sample": MAX_READS_PER_UNIQUE_SAMPLE,
        "min_cluster_hit_rate": MIN_CLUSTER_HIT_RATE,
        "report": report.metrics_dict(),
    }


GATE = Gate(
    "BENCH_cluster.json", SIMULATED, run_cluster,
    floors=[
        ("the epochs finish (no hang)", lambda r: r["completed"]),
        (f"backing reads <= {MAX_READS_PER_UNIQUE_SAMPLE:.2f}x unique samples per epoch",
         lambda r: r["reads_per_unique_sample"] <= MAX_READS_PER_UNIQUE_SAMPLE),
        (f"cluster hit rate >= {MIN_CLUSTER_HIT_RATE:.2f}",
         lambda r: r["cluster_hit_rate"] >= MIN_CLUSTER_HIT_RATE),
    ],
    summary=lambda r: [
        f"n={N_NODES} nodes, {r['requests']} requests -> {r['backing_reads']} backing "
        f"reads ({r['reads_per_unique_sample']:.3f} per unique sample per epoch)",
        f"cluster hit rate {r['cluster_hit_rate']:.1%}, peer hit rate "
        f"{r['peer_hit_rate']:.1%}, sim {r['sim_seconds']:.3f}s",
    ],
)
test_cluster_cooperative_invariant = GATE.pytest_test()

if __name__ == "__main__":
    raise SystemExit(GATE.main())
