"""Command-line experiment runner.

Regenerate any of the paper's tables/figures from a shell::

    python -m repro.bench.run table1            # one experiment
    python -m repro.bench.run fig4 table6       # several
    python -m repro.bench.run all               # everything
    python -m repro.bench.run all --quick       # reduced grids, no accuracy sweeps
    python -m repro.bench.run table7 --bricks 80 --queries 2

An option reaches every requested experiment whose ``run()`` takes the
matching parameter (``--quick`` -> ``quick``, ``--bricks`` ->
``n_bricks``, ``--queries`` -> ``queries_per_brick``, ``--backend`` ->
``backends``) and no other.  Exit code is non-zero if any requested
experiment raises.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from .experiments import ALL_EXPERIMENTS

__all__ = ["main", "build_parser"]

#: CLI option -> the ``run()`` parameter it fills.
_RUN_PARAMS = {
    "quick": "quick",
    "bricks": "n_bricks",
    "queries": "queries_per_brick",
    "backend": "backends",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench.run",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"one of: {', '.join(sorted(ALL_EXPERIMENTS))}, or 'all' "
        "(defaults to 'backends' when --backend is given)",
    )
    parser.add_argument(
        "--backend",
        action="append",
        metavar="NAME",
        default=None,
        help="restrict the 'backends' experiment to these match-kernel "
        "backends (repeatable; e.g. --backend opencv --backend garcia)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced grids: every experiment that takes 'quick' runs its "
        "smoke-sized grid (Tables 2 and 7 skip their accuracy sweeps)",
    )
    parser.add_argument(
        "--bricks",
        type=int,
        default=None,
        help="dataset size for the experiments that take n_bricks "
        "(Tables 2 and 7, the dataset ablations; default: experiment default)",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        help="queries per brick for Table 7 (default: experiment default)",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record request-scoped spans across the run and export them "
        "as Perfetto/Chrome JSON to this path (open in ui.perfetto.dev)",
    )
    return parser


def _kwargs_for(run, args: argparse.Namespace) -> dict:
    """The given CLI options whose parameter ``run`` takes."""
    params = inspect.signature(run).parameters
    return {
        param: getattr(args, option)
        for option, param in _RUN_PARAMS.items()
        if param in params and getattr(args, option) not in (None, False)
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.experiments:
        if args.backend:
            args.experiments = ["backends"]
        else:
            parser.error("at least one EXPERIMENT (or --backend) is required")
    names = list(dict.fromkeys(args.experiments))  # de-dup, keep order
    if "all" in names:
        names = list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(ALL_EXPERIMENTS))})",
            file=sys.stderr,
        )
        return 2

    tracer = None
    if args.trace:
        from ..obs import default_tracer

        tracer = default_tracer()
        tracer.reset()
        tracer.enable()

    failures = 0
    for name in names:
        started = time.perf_counter()
        try:
            run = ALL_EXPERIMENTS[name].run
            result = run(**_kwargs_for(run, args))
        except Exception as exc:  # surface, keep going
            failures += 1
            print(f"[{name}] FAILED: {exc}", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - started
        print(result.to_text())
        print(f"[{name}] completed in {elapsed:.1f}s\n")

    if tracer is not None:
        tracer.disable()
        tracer.export(args.trace)
        print(f"trace: {len(tracer.spans)} spans exported to {args.trace}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
