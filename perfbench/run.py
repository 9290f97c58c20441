#!/usr/bin/env python3
"""Two-clock serving benchmark.

    python3 perfbench/run.py --workload fused-exhaustive --seed 1 --seconds 25 --trace 0

Runs one workload (``fused-exhaustive``, ``routed-single`` or
``churn-replicated``; see ``perfbench/spec.json``) on inputs generated
from ``--seed``, checks every answer against ground truth and prints
each metric with its clock and unit.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Two clocks:

* **host** -- wall time of this NumPy implementation on this machine;
* **sim** -- time in the gpusim device model, calibrated to the
  paper's tables (``docs/calibration.md``).  Sim numbers are model
  outputs, not measurements, and repeat exactly for a given seed.

``--trace 0`` measures the end-to-end metrics with tracing off:
set-up is repeated in batches spread over the run, and the median of
the batches' fastest set-ups is reported; the nominal (lowest-rate)
phase is replayed on fresh clusters for ``--seconds`` of host time, and every
replay must reproduce the simulated outputs exactly.  The replays are
timed group by group, and ``host_requests_per_s`` charges each group
the host time of its fastest replay.  ``--trace 1``
serves the nominal phase untraced, then with every layer wrapped from
outside (``perfbench/tracing.py``), then untraced again; requires all
three to produce the same simulated outputs, prints the per-layer
metrics and writes the spans to ``perfbench/out/``.

The exit status is non-zero when a correctness check fails or the
program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: BLAS threads; fixed before NumPy loads so every run uses the same.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: (name, unit, clock) of every end-to-end metric, in print order.
END_TO_END = [
    ("host_requests_per_s", "req/s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("sim_latency_p50_us", "us", "sim"),
    ("sim_latency_p90_us", "us", "sim"),
    ("sim_capacity_rps", "req/s", "sim"),
    ("sim_images_per_s", "img/s", "sim"),
    ("top1_accuracy", "fraction", "none"),
]

WORKLOADS = ("fused-exhaustive", "routed-single", "churn-replicated")


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark so input generation is not
    counted (Linux: writing 5 to clear_refs resets VmHWM)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def machine_record() -> list[str]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')} "
        f"blas_threads={BLAS_THREADS}",
        "clocks: host = wall time of this implementation on this machine; "
        "sim = gpusim device model calibrated to the paper's tables "
        "(docs/calibration.md) -- model outputs, not measurements",
    ]


class Checks:
    """Correctness failures collected over a run."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def phase(self, label: str, ev) -> None:
        self.failures.extend(f"{label}: {v}" for v in ev.violations)
        self.require(ev.lateness_us == 0.0, f"{label}: generator lateness {ev.lateness_us} us")


def run_untraced(name, spec, inputs, seconds, checks):
    from workloads import evaluate, group_seconds, run_phase, timed_deploy

    w = spec["workloads"][name]
    args = (list(inputs.corpus), spec["engine"]["min_matches"], w["latency_limit_us"])
    setup: list[float] = []

    def serve(phase):
        deployment = timed_deploy(name, spec, inputs.corpus, setup)
        report, host_s = run_phase(deployment, phase)
        return evaluate(phase, report, *args), host_s, group_seconds(deployment.executor.marks)

    # phases are in ascending rate order; the first is the nominal one
    nominal, *ladder = inputs.phases
    ladder_evals = [serve(phase)[0] for phase in ladder]
    # the measured window: the nominal phase replayed on fresh clusters,
    # whole replays, as many as ``seconds`` holds when rounded (at least one)
    replays = []
    group_times: list[list[float]] = []
    window_start = time.perf_counter()
    while not replays or (
        time.perf_counter() - window_start + statistics.mean(s for _, s in replays) / 2 <= seconds
    ):
        ev, host_s, groups_s = serve(nominal)
        replays.append((ev, host_s))
        group_times.append(groups_s)
    window_s = time.perf_counter() - window_start
    digests = [ev.digest for ev, _ in replays]
    checks.require(
        len(set(digests)) == 1,
        f"simulated outputs differ between replays of one seed: {digests}",
    )
    # Host speed on a shared machine dips by tens of percent for
    # stretches of seconds to minutes, and only ever below the
    # uncontended speed.  Every replay serves the same groups (the
    # digests prove it), so each group is charged its fastest replay:
    # a group lasts 5-200 ms, so this discards every dip that does not
    # span the whole run, while every group's cost still counts in full.
    checks.require(
        len({len(g) for g in group_times}) == 1, "replays of one seed served different groups"
    )
    best_s = sum(min(times) for times in zip(*group_times))
    host_rate = len(nominal.ops) / best_s
    evals = [replays[0][0]] + ladder_evals
    served = [ev for ev, _ in replays] + ladder_evals
    attempted = sum(ev.requests for ev in served)
    failed = sum(ev.failed for ev in served)
    for phase, ev in zip(inputs.phases, evals):
        checks.phase(f"{phase.rate_per_s:g}/s", ev)

    metrics = {
        "host_requests_per_s": host_rate,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "sim_latency_p50_us": evals[0].p50_us,
        "sim_latency_p90_us": evals[0].p90_us,
        "sim_capacity_rps": max(
            (p.rate_per_s for p, ev in zip(inputs.phases, evals) if ev.holds), default=0.0
        ),
        # the paper's img/s is device throughput under load: the busiest phase
        "sim_images_per_s": evals[-1].images_per_s,
        "top1_accuracy": sum(e.correct for e in evals) / sum(e.searches for e in evals),
    }
    notes = [
        f"replays={len(replays)} window_s={window_s:.2f} groups_per_replay="
        f"{len(group_times[0])} setup_batches={len(setup)} requests_per_phase={len(nominal.ops)} "
        f"nominal_rate={nominal.rate_per_s}/s",
        f"host_requests_per_s: each group at its fastest replay {host_rate:.3f}; "
        f"whole replays {[round(len(nominal.ops) / s, 3) for _, s in replays]}",
        "phases: " + ", ".join(
            f"{p.rate_per_s:g}/s p90={ev.p90_us:.1f}us holds={ev.holds}"
            for p, ev in zip(inputs.phases, evals)
        ),
        f"latency_limit_us={w['latency_limit_us']} generator_lateness_us="
        f"{max(ev.lateness_us for ev in served)}",
        # not in the JSON result, whose metrics must never be 0; the
        # result's failed/attempted carry the same number
        f"  {'failed_frac':<34} {failed / attempted:>18.6f} {'fraction':<9} clock=none "
        f"(failed={failed} attempted={attempted})",
        # the nominal phase alone, comparable with a traced run's digest
        f"sim_digest={digests[0]}",
        "sim_digest_all_phases="
        + hashlib.sha256("".join(ev.digest for ev in evals).encode()).hexdigest(),
    ]
    return metrics, attempted, failed, notes


def run_traced(name, spec, inputs, seed, checks):
    import tracing
    from workloads import deploy, evaluate, run_phase

    w = spec["workloads"][name]
    args = (list(inputs.corpus), spec["engine"]["min_matches"], w["latency_limit_us"])
    nominal = inputs.phases[0]

    def untraced():
        report, host_s = run_phase(deploy(name, spec, inputs.corpus), nominal)
        return evaluate(nominal, report, *args), host_s

    # untraced replays on both sides of the traced one, so warm-up and
    # drift do not land on the overhead estimate
    before_ev, before_s = untraced()
    recorder = tracing.SpanRecorder()
    before = tracing.registry_counters()
    with tracing.installed(recorder):
        deployment = deploy(name, spec, inputs.corpus)
        report, traced_s = run_phase(deployment, nominal)
    after = tracing.registry_counters()
    traced = evaluate(nominal, report, *args)
    after_ev, after_s = untraced()
    plain_s = (before_s + after_s) / 2

    evals = (before_ev, traced, after_ev)
    for label, ev in zip(("untraced", "traced", "untraced again"), evals):
        checks.phase(label, ev)
    checks.require(
        len({ev.digest for ev in evals}) == 1,
        f"traced and untraced simulated outputs differ: {[ev.digest for ev in evals]}",
    )
    metrics = tracing.layer_metrics(
        recorder, report, deployment.system, before, after, traced_s / plain_s - 1.0
    )
    out = HERE / "out" / f"spans-{name}-seed{seed}.json"
    recorder.write(out, [g.request_ids for g in report.groups])
    notes = [
        f"host_s untraced={plain_s:.4f} traced={traced_s:.4f} spans={len(recorder.spans)} -> {out}",
        f"sim_digest={traced.digest}",
    ]
    attempted = sum(ev.requests for ev in evals)
    return metrics, attempted, sum(ev.failed for ev in evals), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    spec = workloads.load_spec()
    inputs = workloads.generate(args.workload, spec, args.seed)
    reset_peak_rss()
    checks = Checks()
    if args.trace:
        import tracing

        metrics, attempted, failed, notes = run_traced(
            args.workload, spec, inputs, args.seed, checks
        )
        table = [(n, u, tracing.clock_of(n)) for n, u in tracing.PER_LAYER]
    else:
        metrics, attempted, failed, notes = run_untraced(
            args.workload, spec, inputs, args.seconds, checks
        )
        table = END_TO_END

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in machine_record() + notes:
        print(line)
    for name, unit, clock in table:
        print(f"  {name:<34} {metrics[name]:>18.6f} {unit:<9} clock={clock}")
    for failure in checks.failures:
        print(f"CORRECTNESS FAILURE: {failure}", file=sys.stderr)
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
