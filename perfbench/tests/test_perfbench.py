"""Tests of the repo benchmark at a tiny scale.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[0:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import live, run, sim  # noqa: E402
from perfbench.ledger import Windows  # noqa: E402
from repro.core.live import LivePrefetcher  # noqa: E402

TINY_SIM = {
    "train-tf-prisma": sim.TrainTfPrisma(batch_size=64, scale=800),
    "cluster-p2p": sim.ClusterP2P(n_nodes=8, n_files=256),
    "ckpt-object": sim.CkptObject(),
}
TINY_LIVE = live.LiveEpoch(n_files=128, sample_bytes=16 << 10, pool_bytes=256 << 10,
                           buffer_capacity=8, max_buffer=32, cycle_every=32)


@pytest.fixture
def tiny(monkeypatch):
    """Tiny workloads for in-process runs; set-up probes keep the defaults."""
    monkeypatch.setattr(sim, "WORKLOADS", dict(TINY_SIM))
    monkeypatch.setattr(live, "WORKLOAD", TINY_LIVE)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    result, report = last_json(out), json.loads(out.strip().splitlines()[-2])
    spec = run.load_spec()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert code == 0 and result["correct"], report["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    for name, entry in report["metrics"].items():
        assert entry["unit"], name
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in wanted)
        assert "error_rate" in report["metrics"]
        if workload != "live-epoch":
            assert len(report["digest"]) == 16
            assert "sim_samples_per_s" in report["metrics"]


@pytest.mark.parametrize("workload", sorted(TINY_SIM))
def test_exact_counts_repeat_bit_for_bit(workload):
    first, second = (sim.trace(TINY_SIM[workload], 5, 0.0) for _ in range(2))
    for name in ("simcore.events_per_sample", "simcore.spawns_per_sample"):
        assert first.metrics[name] == second.metrics[name] > 0
    assert first.report["digest"] == second.report["digest"]


@pytest.mark.parametrize("workload", sorted(TINY_SIM))
def test_self_shares_sum_to_one(workload):
    outcome = sim.trace(TINY_SIM[workload], 2, 0.0)
    shares = [v for k, v in outcome.metrics.items() if k.endswith(".self_share")]
    assert all(v >= 0 for v in shares)
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert outcome.metrics["simcore.self_share"] > 0


def test_live_self_shares_sum_to_one(tmp_path):
    data = str(tmp_path / "data")
    expected = TINY_LIVE.write_dataset(data, 2)
    outcome = live.trace(TINY_LIVE, 2, 0.2, data, expected, str(tmp_path / "spans.jsonl"))
    shares = [v for k, v in outcome.metrics.items() if k.endswith(".self_share")]
    assert outcome.correct
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    spans = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    reads = {s["id"] for s in spans if s["name"] == "read"}
    takes = [s for s in spans if s["name"] == "take"]
    assert takes and all(s["parent"] in reads for s in takes)


def test_corrupted_live_payload_fails_the_check(tmp_path, monkeypatch):
    data = str(tmp_path / "data")
    expected = TINY_LIVE.write_dataset(data, 4)
    victim = sorted(expected.extents)[7]
    read = LivePrefetcher.read

    def corrupting(self, path, timeout=None):
        payload = read(self, path, timeout=timeout)
        return bytes([payload[0] ^ 0xFF]) + payload[1:] if path == victim else payload

    monkeypatch.setattr(LivePrefetcher, "read", corrupting)
    outcome = live.measure(TINY_LIVE, 4, 0.2, data, expected)
    assert not outcome.correct
    assert outcome.failed == 0
    assert any("wrong bytes" in p for p in outcome.problems)


def test_failed_live_read_fails_the_check(tmp_path, monkeypatch):
    data = str(tmp_path / "data")
    expected = TINY_LIVE.write_dataset(data, 4)
    victim = sorted(expected.extents)[3]
    read = LivePrefetcher.read

    def timing_out(self, path, timeout=None):
        payload = read(self, path, timeout=timeout)
        if path == victim:
            raise TimeoutError(path)
        return payload

    monkeypatch.setattr(LivePrefetcher, "read", timing_out)
    outcome = live.measure(TINY_LIVE, 4, 0.2, data, expected)
    assert not outcome.correct
    assert outcome.failed >= 1
    assert outcome.metrics["error_rate"] == outcome.failed / outcome.attempted
    assert any("timed out" in p for p in outcome.problems)


def test_each_file_has_its_own_expected_bytes(tmp_path):
    data = str(tmp_path / "data")
    expected = TINY_LIVE.write_dataset(data, 6)
    payloads = set()
    for path in expected.extents:
        with open(path, "rb") as fh:
            payload = fh.read()
        assert len(payload) == TINY_LIVE.sample_bytes
        assert expected.matches(path, payload)
        payloads.add(payload)
    assert len(payloads) == TINY_LIVE.n_files
    assert len(expected.pool) == TINY_LIVE.pool_bytes


def test_windows_need_ten_samples_beyond_the_tail():
    windows = Windows(min_size=1000)
    windows.add([1.0] * 1000)
    windows.add([3.0] * 999)  # too short for a window: joins the last one
    assert windows.result() == {"p50": 1.0, "p99": 3.0, "n": 1999, "windows": 1}
    windows.add([3.0])
    assert windows.result(2.0) == {"p50": 4.0, "p99": 4.0, "n": 2000, "windows": 2}
    short = Windows()
    short.add([1.0] * 999)
    with pytest.raises(ValueError):
        short.result()


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster-p2p", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
