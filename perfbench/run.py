"""gaugecount benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload lattice_ladder --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --list-metrics

--trace 0 times whole passes over the workload's job list, untraced, for
--seconds (it starts no pass that would end later, but runs at least one),
and reports the end-to-end metrics from each job's mean time over the passes.
--trace 1 alternates a traced and an untraced pass for the same time and
reports the per-layer metrics; every traced job must reproduce the untraced
job's exact value.  Either way the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}, and the full record
(environment, failures by reason, per-job times, spans) is written to
perfbench/out/.  perfbench/README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import workloads as wl
from spans import Tracer, layer_metrics

WORKLOADS = ("lattice_ladder", "verify_grid", "cli_cold")
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_geomean_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "groups.build_s": "s", "groups.build_calls": "count", "groups.table_cells": "count",
    "groups.classes_s": "s",
    "matter.reps_s": "s", "matter.characters_s": "s", "matter.distinct_site_chars": "count",
    "lattice.build_s": "s", "lattice.links": "count",
    "counting.count_s": "s",
    **{f"counting.count_s.{case}": "s" for case in wl.LADDER_CASES},
    "counting.total_bits": "bits", "counting.ring_order_max": "count",
    "counting.site_class_terms": "count",
    "oracle.count_s": "s", "oracle.calls": "count", "oracle.pair_table_s": "s",
    "autos.analyze_s": "s", "autos.aut_order_sum": "count",
    "cli.import_s": "s", "cli.resolve_s": "s", "cli.serialize_s": "s", "cli.process_s": "s",
    "trace.overhead_s": "s",
}


def setup(workload: str, seed: int, workdir, tracer=None) -> list[wl.Job]:
    if workload == "cli_cold":
        return wl.cli_setup(workdir, tracer)
    gc = wl.import_gaugecount()
    if tracer is not None:
        tracer.install()
    try:
        if workload == "lattice_ladder":
            return wl.ladder_setup(gc)
        return wl.verify_setup(gc, seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


def probe_setup_s(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: interpreter start, import, input building."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        rc, _, err = wl.run_process([sys.executable, os.path.abspath(__file__), "--workload",
                                     workload, "--seed", str(seed), "--setup-probe"], timeout=170)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"error: set-up exited {rc}\n" + err.decode(errors="replace"))
    return times


def run_pass(jobs: list[wl.Job], tracer=None) -> tuple[float, list]:
    """One pass over the jobs; returns its wall time and (name, seconds, value) per job."""
    rows = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = time.perf_counter()
        try:
            value = job.run()
        except Exception as e:  # a failing job is counted, not fatal
            value = e
        rows.append((job.name, time.perf_counter() - t0, value))
    return time.perf_counter() - start, rows


class Tally:
    """Failures by reason over every pass, and the first value of each job."""

    def __init__(self, jobs: list[wl.Job]):
        self.checks = {j.name: j.check for j in jobs}
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}
        self.wrong = 0

    def add(self, rows: list, label: str) -> None:
        for name, _, value in rows:
            self.attempted += 1
            reason = self.checks[name](value)
            if reason is None and name in self.first and not _same(self.first[name], value):
                reason = f"{label} value differs from the first pass"
            self.first.setdefault(name, value)
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(reason, []).append(name)
                if reason not in wl.KNOWN_DEFECTS:
                    self.wrong += 1


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b)
    if isinstance(a, tuple) and len(a) == 3:  # CLI: exit code and stdout only
        return a[:2] == b[:2]
    return a == b


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def geomean(xs: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def measure(workload: str, seed: int, seconds: float, workdir) -> tuple[Tally, dict, dict]:
    jobs = setup(workload, seed, workdir)
    setup_times = probe_setup_s(workload, seed)
    tally = Tally(jobs)
    walls, per_job = [], {j.name: [] for j in jobs}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        wall, rows = run_pass(jobs)
        walls.append(wall)
        for name, t, _ in rows:
            per_job[name].append(t)
        tally.add(rows, "untraced")
    # Means, not medians: load from other tenants of a shared host comes and
    # goes over tens of seconds, and a median of a few passes jumps between the
    # slow and the fast state where a mean moves with the share of time spent
    # in each.
    mean = {n: statistics.fmean(ts) for n, ts in per_job.items()}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(mean.values()),
        "job_geomean_s": geomean(list(mean.values())),
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    record = {"setup_runs_s": setup_times, "pass_walls_s": walls,
              "job_median_s": {n: statistics.median(ts) for n, ts in per_job.items()},
              "job_mean_s": mean}
    return tally, metrics, record


def measure_traced(workload: str, seed: int, seconds: float, workdir) -> tuple[Tally, dict, dict]:
    tracer = Tracer()
    tracer.job = "setup"
    jobs = setup(workload, seed, workdir, tracer)
    setup_spans = tracer.take()
    tally = Tally(jobs)
    traced_walls, plain_walls, per_pass, all_spans = [], [], [], []
    start = time.perf_counter()
    while not traced_walls or (time.perf_counter() - start
                               + traced_walls[-1] + plain_walls[-1] <= seconds):
        tracer.install()
        try:
            wall, rows = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        spans = tracer.take()
        all_spans.append(spans)
        per_pass.append(layer_metrics(spans))
        tally.add(rows, "traced")
        wall, rows = run_pass(jobs)
        plain_walls.append(wall)
        tally.add(rows, "untraced")

    at_setup = layer_metrics(setup_spans)
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("counting.count_s."):
            case = name[len("counting.count_s."):]
            samples = [p["counting_per_job"].get(case, 0.0) for p in per_pass]
        else:
            samples = [p["metrics"].get(name, 0) for p in per_pass]
        # counters repeat exactly from pass to pass; median_low keeps them whole
        pick = statistics.median if name.endswith("_s") else statistics.median_low
        metrics[name] = pick(samples) + at_setup["metrics"].get(name, 0)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    record = {"traced_walls_s": traced_walls, "untraced_walls_s": plain_walls,
              "setup_spans": setup_spans, "pass_spans": all_spans,
              "span_fields": ["layer", "start", "end", "parent", "job", "counters"]}
    return tally, metrics, record


def list_metrics() -> None:
    for name, unit in END_TO_END.items():
        print(f"{name:42s} {unit:6s} end-to-end (--trace 0)")
    for name, unit in PER_LAYER.items():
        print(f"{name:42s} {unit:6s} per-layer (--trace 1)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-metrics", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.list_metrics:
        list_metrics()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (wl.SRC / "gaugecount" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gaugecount package under {wl.SRC}\n")
        return 2

    workdir = wl.OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            return 0
        measure_fn = measure_traced if args.trace else measure
        tally, metrics, record = measure_fn(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    wl.OUT.mkdir(parents=True, exist_ok=True)
    out_file = wl.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "env": env, "metrics": metrics, "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted, "failures": tally.reasons,
        "known_defects": wl.KNOWN_DEFECTS, **record}, default=str))

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"failed_ratio={tally.failed}/{tally.attempted}")
    for reason, names in sorted(tally.reasons.items()):
        known = "known defect" if reason in wl.KNOWN_DEFECTS else "WRONG"
        print(f"  {len(names):5d} x {reason} ({known}), e.g. {names[0]}")
    for name, value in metrics.items():
        print(f"{name:42s} {value!r:>24} {units[name]}")
    print(f"record: {out_file.relative_to(wl.ROOT)}")
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
