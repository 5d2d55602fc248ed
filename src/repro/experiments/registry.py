"""The canonical workloads, each declared once.

A :class:`Workload` is plain data plus callables: how to run it
(``run(seed=, telemetry=, **params)``), its parameter presets (``full``,
``quick`` and the single ``trial`` that tracing and profiling use), its
command-specific flags, how its result is exported, printed and turned
into an exit status, and which shared flags (``--seed``/``--out``/
``--trace``) it honours.  ``repro <experiment>``, ``repro trace``,
``repro profile`` and the telemetry-overhead bench all drive
:data:`WORKLOADS` instead of spelling the workloads out again.

Neither :mod:`repro` nor :mod:`repro.experiments` imports this module at
package import; the entry points that need the table load it themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from .. import quick_demo
from ..core.live.demo import format_live_demo, run_live_demo
from ..frameworks.models import LENET, MODEL_ZOO, ModelProfile
from ..perfmodel import write_samples_jsonl
from ..simcore import Simulator
from ..simcore.workloads import canonical_mixed_workload
from .ablation import ABLATIONS, run_ablation
from .clairvoyant import format_clairvoyant, run_clairvoyant_comparison
from .cluster import format_cluster_sweep, run_cluster_sweep
from .config import figure2_scale, figure4_scale
from .export import figure2_to_dict, figure3_to_dict, figure4_to_dict
from .extensions import (
    format_distributed_sweep,
    format_latency,
    format_multitenant,
    run_distributed_sweep,
    run_latency_comparison,
    run_multitenant_comparison,
)
from .faults import format_fault_sweep, run_fault_sweep
from .figure2 import DEFAULT_BATCHES, run_figure2
from .figure3 import run_figure3
from .figure4 import run_figure4
from .predictive import format_predictive, run_predictive_comparison
from .report import (
    figure2_chart,
    figure3_chart,
    figure4_chart,
    format_ablation,
    format_figure2,
    format_figure3,
    format_figure4,
)
from .writes import format_writes, run_write_workloads

Params = Mapping[str, Any]
#: ``(option, argparse keywords)``; ``dest`` names the run() keyword set.
Flag = Tuple[str, Mapping[str, Any]]
#: ``(option, help, write(result, path) -> note or None)``.
Output = Tuple[str, str, Callable[[Any, str], Optional[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    help: str
    run: Callable[..., Any]
    full: Params = field(default_factory=dict)
    #: ``--quick`` preset; ``None`` means the command has no ``--quick``.
    quick: Optional[Params] = None
    #: One representative trial for trace/profile; defaults to quick, then full.
    trial: Optional[Params] = None
    flags: Tuple[Flag, ...] = ()
    outputs: Tuple[Output, ...] = ()
    to_json: Callable[[Any, Params], Any] = lambda result, params: result.metrics_dict()
    format: Callable[[Any], str] = str
    chart: Optional[Callable[[Any, Params], str]] = None
    #: One line summing up a traced run; defaults to the format's first line.
    headline: Optional[Callable[[Any], str]] = None
    #: Renders one ``progress`` callback item (a trial, a sweep point).
    progress: Optional[Callable[[Any], str]] = None
    ok: Callable[[Any], bool] = lambda result: True
    shared: FrozenSet[str] = frozenset({"seed", "out", "trace"})
    #: ``False`` for workloads reachable only through ``repro profile``.
    command: bool = True

    def preset(self, name: str) -> Dict[str, Any]:
        """Parameters of the ``"full"``, ``"quick"`` or ``"trial"`` preset."""
        chain = {"full": (self.full,), "quick": (self.quick,),
                 "trial": (self.trial, self.quick, self.full)}[name]
        return dict(next(p for p in chain if p is not None))

    def run_trial(self, seed: int = 0, telemetry=None):
        return self.run(seed=seed, telemetry=telemetry, **self.preset("trial"))

    def summary(self, result) -> str:
        if self.headline is not None:
            return self.headline(result)
        return self.format(result).splitlines()[0]


def model(name: str) -> ModelProfile:
    """``--models`` argument type: a name from the model zoo."""
    if name not in MODEL_ZOO:
        raise ValueError(name)
    return MODEL_ZOO[name]


def _trial_line(trial) -> str:
    workers = f" w={trial.num_workers}" if trial.num_workers is not None else ""
    return (
        f"{trial.setup}/{trial.model} bs={trial.batch_size}{workers}: "
        f"{trial.paper_equivalent_seconds:.0f}s (paper-equivalent)"
    )


def _figure2_chart(result, params: Params) -> str:
    try:
        return figure2_chart(result, batch_size=params.get("batch_sizes", DEFAULT_BATCHES)[-1])
    except KeyError:
        return ""  # partial grids may not contain the chart batch


def _write_samples(report, path: str) -> str:
    write_samples_jsonl(report.samples, path)
    return f"wrote {path} ({len(report.samples)} sweep samples)"


def _write_model(report, path: str) -> Optional[str]:
    if report.model is None:
        return None
    report.model.save(path)
    return f"wrote {path}"


def _run_simcore(seed: int, telemetry, scale: int) -> Simulator:
    sim = Simulator()
    canonical_mixed_workload(sim, scale=scale)
    sim.run()
    return sim


_FILES = ("--files", dict(dest="n_files", type=int, metavar="N", help="dataset files"))
_EPOCHS = ("--epochs", dict(type=int, metavar="N", help="epochs"))
_FIGURE_PROGRESS = dict(progress=lambda trial: "  ran " + _trial_line(trial))

_WORKLOADS = (
    Workload(
        "figure2", "TF baseline/optimized/PRISMA training times",
        run=lambda seed, telemetry, **p: run_figure2(base_seed=seed, telemetry=telemetry, **p),
        full=dict(scale=figure2_scale()),
        quick=dict(scale=figure2_scale(quick=True)),
        trial=dict(scale=figure2_scale(quick=True), models=(LENET,),
                   batch_sizes=(256,), setups=("tf-prisma",)),
        flags=(
            ("--models", dict(nargs="+", type=model, metavar="MODEL",
                              help="models to run, of: " + " ".join(MODEL_ZOO))),
            ("--batches", dict(dest="batch_sizes", nargs="+", type=int, metavar="N")),
        ),
        to_json=lambda result, p: figure2_to_dict(result, p["scale"]),
        format=format_figure2,
        chart=_figure2_chart,
        headline=lambda result: "traced " + _trial_line(result.cells[0].trials[0]),
        **_FIGURE_PROGRESS,
    ),
    Workload(
        "figure3", "concurrent-reader-thread CDFs",
        run=lambda seed, telemetry, **p: run_figure3(base_seed=seed, telemetry=telemetry, **p),
        full=dict(scale=figure2_scale()),
        quick=dict(scale=figure2_scale(quick=True)),
        trial=dict(scale=figure2_scale(quick=True), models=(LENET,), setups=("tf-prisma",)),
        to_json=lambda result, p: figure3_to_dict(result, p["scale"]),
        format=format_figure3,
        chart=lambda result, p: figure3_chart(result),
        headline=lambda result: "traced " + _trial_line(result.curves[0].trial),
        **_FIGURE_PROGRESS,
    ),
    Workload(
        "figure4", "PyTorch worker sweep vs PRISMA",
        run=lambda seed, telemetry, **p: run_figure4(base_seed=seed, telemetry=telemetry, **p),
        full=dict(scale=figure4_scale()),
        quick=dict(scale=figure4_scale(quick=True)),
        trial=dict(scale=figure4_scale(quick=True), models=(LENET,),
                   worker_counts=(2,), setups=("torch-prisma",)),
        flags=(("--workers", dict(dest="worker_counts", nargs="+", type=int,
                                  metavar="N", help="DataLoader worker counts")),),
        to_json=lambda result, p: figure4_to_dict(result, p["scale"]),
        format=format_figure4,
        chart=lambda result, p: figure4_chart(result),
        headline=lambda result: "traced " + _trial_line(result.cells[0].trials[0]),
        **_FIGURE_PROGRESS,
    ),
    Workload(
        "faults-demo", "PRISMA under an injected fault storm",
        run=run_fault_sweep,
        flags=(_FILES,),
        format=format_fault_sweep,
        headline=lambda report: (
            f"traced fault sweep: served {report.files_served} files, "
            f"{report.serve_failures} failures"
        ),
        ok=lambda report: report.completed,
    ),
    Workload(
        "writes", "checkpoint write traffic vs the read path, POSIX and object store",
        run=run_write_workloads,
        quick=dict(n_files=320, epochs=1, ckpt_every=4, ckpt_bytes=48_000_000),
        flags=(_FILES, _EPOCHS),
        format=format_writes,
    ),
    Workload(
        "cluster", "sharded peer-to-peer sample serving, cooperative-cache sweep",
        run=run_cluster_sweep,
        quick=dict(node_counts=(16, 32, 64), n_files=256),
        trial=dict(node_counts=(64,), n_files=512),
        flags=(
            ("--nodes", dict(dest="node_counts", nargs="+", type=int, metavar="N")),
            _FILES, _EPOCHS,
        ),
        to_json=lambda reports, p: [r.metrics_dict() for r in reports],
        format=format_cluster_sweep,
        progress=lambda report: (
            f"  ran n={report.n_nodes}: {report.requests} requests, "
            f"{report.backing_reads} backing reads, "
            f"hit rate {report.cluster_hit_rate:.1%}"
        ),
        ok=lambda reports: all(r.completed for r in reports),
    ),
    Workload(
        "clairvoyant", "reactive vs clairvoyant prefetching over the tier hierarchy",
        run=run_clairvoyant_comparison,
        flags=(
            _FILES, _EPOCHS,
            ("--lookahead", dict(dest="lookahead_epochs", type=int, metavar="N")),
        ),
        format=format_clairvoyant,
        ok=lambda report: report.reactive.completed and report.clairvoyant.completed,
    ),
    Workload(
        "predict", "predictive vs reactive control: sweep, fit, jump to the optimum",
        run=lambda seed, telemetry, **p: run_predictive_comparison(seed=seed, **p),
        quick=dict(n_files=64, epochs=2, sweep_n_files=32),
        flags=(_FILES, _EPOCHS),
        outputs=(
            ("--samples", "also write the sweep's training samples as JSONL", _write_samples),
            ("--model-out", "also write the fitted throughput model as JSON", _write_model),
        ),
        format=format_predictive,
        ok=lambda report: all(r.live_parity and not r.fell_back for r in report.results),
        shared=frozenset({"seed", "out"}),
    ),
    Workload(
        "ablation", "design-choice ablations",
        run=lambda seed, telemetry, which: run_ablation(which),
        trial=dict(which="period"),
        flags=(("which", dict(choices=ABLATIONS)),),
        format=lambda result: format_ablation(*result),
        shared=frozenset(),
    ),
    Workload(
        "distributed", "multi-node training over a shared PFS",
        run=lambda seed, telemetry, **p: run_distributed_sweep(**p),
        flags=(("--nodes", dict(dest="node_counts", nargs="+", type=int)),),
        format=format_distributed_sweep,
        shared=frozenset(),
    ),
    Workload(
        "multitenant", "N jobs on shared storage, 3 control modes",
        run=lambda seed, telemetry, **p: run_multitenant_comparison(**p),
        flags=(("--jobs", dict(dest="n_jobs", type=int)),),
        format=format_multitenant,
        shared=frozenset(),
    ),
    Workload(
        "latency", "per-read latency distribution, baseline vs PRISMA",
        run=lambda seed, telemetry: run_latency_comparison(),
        format=format_latency,
        shared=frozenset(),
    ),
    Workload(
        "live-demo", "live PRISMA: N real prefetcher pools under one global controller",
        run=lambda seed, telemetry, **p: run_live_demo(telemetry=telemetry, **p),
        flags=(
            ("--files", dict(type=int, help="files per tenant")),
            ("--jobs", dict(type=int, help="tenant count")),
            ("--budget", dict(type=int, help="cluster-wide producer-thread budget")),
        ),
        format=format_live_demo,
        shared=frozenset({"out", "trace"}),
    ),
    Workload(
        "demo", "tiny PRISMA-vs-baseline smoke demo",
        run=lambda seed, telemetry: quick_demo(),
        shared=frozenset(),
    ),
    Workload(
        "simcore", "canonical mixed kernel workload",
        run=_run_simcore,
        full=dict(scale=8),
        shared=frozenset(),
        command=False,
    ),
)

#: Every canonical workload by name, in ``repro --help`` order.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in _WORKLOADS}
