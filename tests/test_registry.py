"""The workload registry behind ``repro <experiment>``/``trace``/``profile``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import WORKLOADS
from repro.telemetry import validate_chrome_trace


def test_profile_and_trace_names_come_from_the_registry():
    parser = build_parser()
    for wl in WORKLOADS.values():
        assert parser.parse_args(["profile", wl.name]).workload == wl.name
        argv = ["trace", "--experiment", wl.name]
        if "trace" in wl.shared:
            assert parser.parse_args(argv).experiment == wl.name
        else:  # no telemetry hook: nothing to trace
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
    traceable = {w.name for w in WORKLOADS.values() if "trace" in w.shared}
    assert {"figure2", "figure3", "figure4", "faults-demo"} <= traceable


def test_every_command_workload_is_a_subcommand():
    parser = build_parser()
    required = {"ablation": ["period"]}  # positional arguments
    for wl in WORKLOADS.values():
        if wl.command:
            args = parser.parse_args([wl.name] + required.get(wl.name, []))
            assert args.workload is wl


def test_trial_preset_falls_back_to_quick_then_full():
    assert WORKLOADS["writes"].preset("trial") == WORKLOADS["writes"].preset("quick")
    assert WORKLOADS["clairvoyant"].preset("trial") == {}
    assert WORKLOADS["simcore"].preset("trial") == {"scale": 8}


def _traced(tmp_path, experiment, name):
    out = tmp_path / name
    assert main(["trace", "--experiment", experiment, "--out", str(out), "--quiet"]) == 0
    return out.read_bytes()


def _check_trace(tmp_path, experiment):
    first = _traced(tmp_path, experiment, "a.json")
    assert validate_chrome_trace(json.loads(first)) is None
    assert first == _traced(tmp_path, experiment, "b.json")


def test_trace_faults_demo_is_valid_and_deterministic(tmp_path):
    _check_trace(tmp_path, "faults-demo")


@pytest.mark.slow
def test_trace_figure4_is_valid_and_deterministic(tmp_path):
    _check_trace(tmp_path, "figure4")
