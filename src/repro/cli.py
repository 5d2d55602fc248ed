"""Command-line interface: regenerate the paper's figures.

Usage::

    python -m repro figure2 [--quick] [--models lenet alexnet] [--batches 64 256]
    python -m repro figure3 [--quick]
    python -m repro figure4 [--quick] [--workers 0 2 4 8 16]
    python -m repro faults-demo [--seed N] [--files N]
    python -m repro writes [--quick] [--files N] [--epochs N]
    python -m repro cluster [--quick] [--nodes 128 256 512 1024] [--files N]
    python -m repro clairvoyant [--files N] [--epochs N] [--lookahead N]
    python -m repro predict [--quick] [--samples FILE] [--model-out FILE]
    python -m repro ablation {autotune,device,period}
    python -m repro distributed [--nodes 1 2 4]
    python -m repro multitenant [--jobs N]
    python -m repro latency
    python -m repro live-demo [--jobs N] [--files N] [--budget N]
    python -m repro demo
    python -m repro trace --experiment figure2 --out trace.json
    python -m repro profile simcore [--top N] [--sort cumulative|tottime|ncalls]

(or the installed ``prisma-repro`` script).

Every command but ``trace`` and ``profile`` is one workload of the
registry (:mod:`repro.experiments.registry`), and those two take their
choices from it.  Every command parses the shared flags ``--seed N``,
``--out FILE`` (results as JSON), ``--trace FILE`` (Chrome-trace of the
run, load in ``chrome://tracing`` or Perfetto) and ``--quiet`` (suppress
charts and progress chatter); a shared flag the command does not support
exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

#: Shared flags a command may decline, with their unset values.
_SHARED_DEFAULTS = {"seed": 0, "out": None, "trace": None}


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _cmd_workload(args) -> int:
    """Run one registry workload with its preset plus the command's flags."""
    wl = args.workload
    params = wl.preset("quick" if getattr(args, "quick", False) else "full")
    for dest in args.params:
        if getattr(args, dest) is not None:
            params[dest] = getattr(args, dest)
    if wl.progress is not None and args.verbose and not args.quiet:
        params["progress"] = lambda item: print(
            wl.progress(item), file=sys.stderr, flush=True
        )
    telemetry = None
    if args.trace:
        from .telemetry import Telemetry

        telemetry = Telemetry()
    result = wl.run(seed=args.seed, telemetry=telemetry, **params)
    if telemetry is not None:
        from .telemetry import write_chrome_trace

        stats = write_chrome_trace(telemetry, args.trace)
        _note(args, f"wrote {args.trace} ({stats['events']} trace events)")
    for dest, write in args.outputs:
        message = getattr(args, dest) and write(result, getattr(args, dest))
        if message:
            _note(args, message)
    if args.out:
        from .experiments.export import dump_json

        dump_json(wl.to_json(result, params), args.out)
        _note(args, f"wrote {args.out}")
    print(wl.format(result))
    if wl.chart is not None and not args.quiet:
        chart = wl.chart(result, params)
        print("\n" + chart if chart else "")
    return 0 if wl.ok(result) else 1


def _cmd_trace(args) -> int:
    """Run a workload's representative trial traced; write a Chrome-trace."""
    from .experiments.registry import WORKLOADS
    from .telemetry import Telemetry, write_chrome_trace

    wl = WORKLOADS[args.experiment]
    out = args.out or "trace.json"
    telemetry = Telemetry()
    result = wl.run_trial(seed=args.seed, telemetry=telemetry)
    stats = write_chrome_trace(telemetry, out)
    if not args.quiet:
        print(wl.summary(result))
        print(
            f"wrote {out}: {stats['events']} trace events "
            f"({stats['unfinished_spans']} unfinished, "
            f"{stats['dropped_events']} dropped)"
        )
    return 0


def _cmd_profile(args) -> int:
    """cProfile a workload's representative trial; print the hottest functions."""
    import cProfile
    import pstats

    from .experiments.registry import WORKLOADS

    wl = WORKLOADS[args.workload]
    _note(args, f"profiling {wl.name!r}: {wl.help}")
    profiler = cProfile.Profile()
    profiler.enable()
    wl.run_trial()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


def _shared_flags() -> argparse.ArgumentParser:
    """Parent parser carried by every command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument("--out", metavar="FILE", help="also write results as JSON")
    common.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome-trace (chrome://tracing / Perfetto) of the run",
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress charts and progress chatter"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    from .experiments.registry import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="prisma-repro",
        description="Reproduce the PRISMA (CLUSTER 2021) evaluation",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="per-trial progress")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _shared_flags()

    def command(name, func, help, shared=()):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func, shared=frozenset(shared))
        return p

    for wl in WORKLOADS.values():
        if not wl.command:
            continue
        p = command(wl.name, _cmd_workload, wl.help, wl.shared)
        if wl.quick is not None:
            p.add_argument("--quick", action="store_true", help="smaller preset for a fast look")
        params = [p.add_argument(option, **kwargs).dest for option, kwargs in wl.flags]
        outputs = [
            (p.add_argument(option, metavar="FILE", help=help_).dest, write)
            for option, help_, write in wl.outputs
        ]
        p.set_defaults(workload=wl, params=params, outputs=outputs)

    pt = command(
        "trace", _cmd_trace,
        "run one representative traced trial, write a Chrome-trace (--out)",
        shared=("seed", "out"),
    )
    pt.add_argument(
        "--experiment", default="figure2",
        choices=[w.name for w in WORKLOADS.values() if "trace" in w.shared],
        help="which workload's trial to trace",
    )

    pp = command(
        "profile", _cmd_profile,
        "cProfile a workload's representative trial, dump the hottest functions",
    )
    pp.add_argument("workload", choices=list(WORKLOADS), help="which workload to profile")
    pp.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="number of functions to print (default 25)",
    )
    pp.add_argument(
        "--sort", choices=["cumulative", "tottime", "ncalls"],
        default="cumulative", help="pstats sort key (default cumulative)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for flag, unset in _SHARED_DEFAULTS.items():
        if flag not in args.shared and getattr(args, flag, unset) != unset:
            print(f"error: --{flag} is not supported for {args.command!r}", file=sys.stderr)
            return 2
    start = time.time()
    code = args.func(args)
    if args.verbose and not getattr(args, "quiet", False):
        print(f"[done in {time.time() - start:.1f}s wall]", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
