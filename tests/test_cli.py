"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands_exist():
    parser = build_parser()
    for argv in (
        ["figure2", "--quick"],
        ["figure3"],
        ["figure4", "--workers", "0", "4"],
        ["ablation", "autotune"],
        ["demo"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


def test_parser_rejects_unknown_model():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure2", "--models", "vgg"])


def test_parser_rejects_unknown_ablation():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["ablation", "everything"])


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_demo_command_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "baseline=" in out and "prisma=" in out


def test_figure2_quick_single_cell(capsys):
    # One model, one batch size, quick scale: a fast end-to-end CLI pass.
    assert main(["figure2", "--quick", "--models", "lenet", "--batches", "256"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "tf-prisma" in out
    assert "vs-baseline" in out


def test_live_demo_global_controller(capsys, tmp_path):
    # Real threads + real files under one global live controller.
    out_file = tmp_path / "live.json"
    trace_file = tmp_path / "live_trace.json"
    argv = [
        "live-demo", "--files", "12", "--quiet",
        "--out", str(out_file), "--trace", str(trace_file),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "global controller" in out
    assert "rpc failures" in out

    import json

    summary = json.loads(out_file.read_text())
    assert len(summary["jobs"]) == 2
    assert all(job["files"] == 12 for job in summary["jobs"])
    assert summary["control"]["cycles"] >= 1

    from repro.telemetry import validate_chrome_trace

    assert validate_chrome_trace(json.loads(trace_file.read_text())) is None


def test_live_demo_rejects_seed(capsys):
    assert main(["live-demo", "--seed", "7"]) == 2


def test_profile_command_dumps_hot_functions(capsys):
    assert main(["profile", "simcore", "--top", "5", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out  # pstats sort header
    assert "kernel.py" in out  # the kernel shows up in the hot list


def test_profile_rejects_unknown_workload_and_shared_flags():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["profile", "everything"])
    assert main(["profile", "simcore", "--seed", "7"]) == 2


def test_predict_quick_runs_and_exports(capsys, tmp_path):
    import json

    samples = tmp_path / "samples.jsonl"
    model_file = tmp_path / "model.json"
    out_file = tmp_path / "predict.json"
    assert main([
        "predict", "--quick", "--quiet",
        "--samples", str(samples), "--model-out", str(model_file),
        "--out", str(out_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "predictive jumped to" in out
    assert "live parity ok" in out

    header = json.loads(samples.read_text().splitlines()[0])
    assert header == {"kind": "perf_samples", "schema_version": 1}

    from repro.perfmodel import ThroughputModel

    model = ThroughputModel.load(str(model_file))
    assert model.fitted

    report = json.loads(out_file.read_text())
    assert {r["backend_kind"] for r in report["results"]} == {"posix", "object"}


def test_predict_rejects_trace(capsys):
    assert main(["predict", "--trace", "/tmp/t.json"]) == 2


def test_trace_rejects_trace_flag(tmp_path, monkeypatch):
    # ``trace`` writes its Chrome-trace to --out; a --trace FILE used to be
    # ignored silently while ./trace.json was written instead.
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "x.json"
    assert main(["trace", "--experiment", "faults-demo", "--trace", str(target)]) == 2
    assert not target.exists()
    assert not (tmp_path / "trace.json").exists()


def test_profile_accepts_a_registry_command():
    args = build_parser().parse_args(["profile", "ablation", "--top", "3"])
    assert args.workload == "ablation"


#: SHA-256 of each command's stdout, recorded from the hand-written
#: commands these registry workloads replaced.
_STDOUT_SHA256 = {
    "demo": "77833dc4bb54155b5070360f904420a7fa347d3f0c3bd87e79ea2142a98f2edb",
    "latency": "a080fd7d528d13d4baaaf27ceb866b75d069f580b4511963031f070386b57c61",
    "multitenant": "29066989fffbc02fffb662e15e049fc56f10705bc181a19f14c121a20afa90c1",
    "distributed": "80fcafcf7916576be0ee80524b37c76e19bbc5f365be1f90d30ad1ee0738389f",
    "ablation period": "28b6cbb3e44c87e343e2ef6d04e0179fabf20f4536176d04e69328136c5785b5",
}


@pytest.mark.slow
@pytest.mark.parametrize("command", sorted(_STDOUT_SHA256))
def test_command_stdout_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _STDOUT_SHA256[command]
