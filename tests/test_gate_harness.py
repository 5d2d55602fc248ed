"""The declarative gate harness behind the ``BENCH_*.json`` scripts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "_gate.py"


@pytest.fixture(scope="module")
def gate_module():
    spec = importlib.util.spec_from_file_location("_gate", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("_gate", module)
    spec.loader.exec_module(module)
    return module


def _gate(gate_module, tmp_path, run, kind=None, floor=lambda r: r["x"] >= 1):
    return gate_module.Gate(
        tmp_path / "BENCH_fake.json",
        kind or gate_module.WALL,
        run,
        floors=[("x >= 1", floor)],
        summary=lambda r: [f"x={r['x']}"],
    )


def test_failed_floor_fails_main_and_is_named(gate_module, tmp_path, capsys):
    gate = _gate(gate_module, tmp_path, lambda: {"x": 0})
    assert gate.main() == 1
    out = capsys.readouterr().out
    assert "FAIL: x >= 1" in out
    assert "PASS" not in out


def test_passing_gate_prints_pass(gate_module, tmp_path, capsys):
    gate = _gate(gate_module, tmp_path, lambda: {"x": 2})
    assert gate.main() == 0
    out = capsys.readouterr().out
    assert "x=2" in out and "PASS: x >= 1" in out


def test_simulated_gate_fails_on_a_nondeterministic_run(gate_module, tmp_path, capsys):
    runs = iter([{"x": 1}, {"x": 2}])
    gate = _gate(gate_module, tmp_path, lambda: next(runs), kind=gate_module.SIMULATED)
    assert gate.main() == 1
    report = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert report["deterministic"] is False
    assert "FAIL: same seed gives a byte-identical report" in capsys.readouterr().out


def test_simulated_gate_records_determinism(gate_module, tmp_path):
    gate = _gate(gate_module, tmp_path, lambda: {"x": 1}, kind=gate_module.SIMULATED)
    assert gate.measure() == {"x": 1, "deterministic": True}


def test_writer_format(gate_module, tmp_path):
    report = {"b": [1, 2.5], "a": {"z": True, "y": None}}
    gate = _gate(gate_module, tmp_path, lambda: report)
    gate.write(report)
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "BENCH_fake.json").read_text() == expected
