"""Benchmark runner for the lcdring CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's job list runs in a closed loop with one
client: each job is a fresh interpreter calling ``lcdring.cli.main``, one
at a time, for ceil(S / 8) whole passes over the list (a pass takes 7 to
11 s on a 2-core x86 machine), and at least eleven jobs.  Every output is
checked against ``workloads``' reference, and the end-to-end metrics are
printed.  Their times are scaled to a reference CPU speed: each of a
job's times is multiplied by REF_PROBE_S over the duration the child's
speed probe showed during that time (see ``child.py``), and the unscaled
figures are printed above the result line.  With ``--trace 1`` the same
job list runs in this process three times: untraced, then under
``tracer.Tracer``'s timing pass and its counting pass.  The per-layer metrics are printed and the spans are
written to ``.perfbench/trace-NAME.{json,bin}``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
NOMINAL_PASS_S = 8.0  # one pass per this many requested seconds
DEADLINE_S = 160.0  # stop starting jobs after this, to exit within 180 s
REF_PROBE_S = 0.00035  # child.probe() on a 2 GHz Xeon; scaled times read as there


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no tail with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    """Job outcomes of one benchmark run."""

    def __init__(self, wl: workloads.Workload, work: Path):
        self.wl, self.work = wl, work
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, job: workloads.Job, rc: int, stdout: str) -> None:
        self.attempted += 1
        try:
            reason = job.check(rc, stdout, str(self.work))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            self.failures.append(f"{job.name}: {reason}")


def run_child(job: workloads.Job, work: Path, timeout: float) -> tuple[int, str, dict]:
    """Exit code, stdout and costs of one job; costs gain ``wall_s``, spawn to exit."""
    report = work / "child-report.json"
    report.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(SRC), repr(spawned), str(report), *job.argv],
        cwd=work, capture_output=True, text=True, timeout=timeout,
    )
    wall_s = time.monotonic() - spawned
    costs = json.loads(report.read_text()) if report.exists() else {}
    if costs:
        costs["wall_s"] = wall_s - costs["probes_total_s"]
    return proc.returncode, proc.stdout, costs


def passes_for(seconds: float, jobs_per_pass: int) -> int:
    """Whole passes for a run of about ``seconds``, never too few for a tail.

    The count depends on the request, not on how fast the passes go, so
    two commits measured with the same --seconds see the same job count
    and the tail sits at the same percentile.
    """
    return max(math.ceil(seconds / NOMINAL_PASS_S), math.ceil((TAIL_BEYOND + 1) / jobs_per_pass))


def untraced(run: Run, seconds: float) -> dict:
    start = time.monotonic()
    walls, setups, jobs, rss, probes = [], [], [], [], []
    raw = {"wall_s": [], "setup_s": [], "job_s": []}
    for _ in range(passes_for(seconds, len(run.wl.jobs))):
        outcomes = []
        for job in run.wl.jobs:
            left = DEADLINE_S - (time.monotonic() - start)
            try:
                outcomes.append((job, *run_child(job, run.work, max(left, 1.0))))
            except subprocess.TimeoutExpired:
                run.attempted += 1
                run.failures.append(f"{job.name}: still running at the {DEADLINE_S:.0f} s deadline")
                return {}
        wall = raw_wall = 0.0
        for job, rc, stdout, costs in outcomes:
            run.judge(job, rc, stdout)
            if costs:
                probe_s = costs["probe_s"]
                probes.append(probe_s["all"])
                wall += costs["wall_s"] * REF_PROBE_S / probe_s["all"]
                raw_wall += costs["wall_s"]
                setups.append(costs["setup_s"] * REF_PROBE_S / probe_s["setup"])
                jobs.append(costs["job_s"] * REF_PROBE_S / probe_s["job"])
                rss.append(costs["rss_kb"])
                raw["setup_s"].append(costs["setup_s"])
                raw["job_s"].append(costs["job_s"])
        walls.append(wall)
        raw["wall_s"].append(raw_wall)
    if len(jobs) <= TAIL_BEYOND:
        run.failures.append("too few jobs finished to report a tail")
        return {}
    tail_s, pct = tail(jobs)
    print(f"passes: {len(walls)}, jobs: {len(jobs)}; job_s_tail is p{pct:.1f} "
          f"({TAIL_BEYOND} of {len(jobs)} jobs beyond it)")
    print(f"speed probe: median {statistics.median(probes) * 1e3:.3f} ms, range "
          f"{min(probes) * 1e3:.3f}-{max(probes) * 1e3:.3f} ms (reference {REF_PROBE_S * 1e3:.3f} ms)")
    print(f"unscaled: wall_s {statistics.median(raw['wall_s']):.4f}, "
          f"setup_s {statistics.median(raw['setup_s']):.4f}, "
          f"job_s_p50 {statistics.median(raw['job_s']):.4f}, "
          f"job_s_tail {tail(raw['job_s'])[0]:.4f}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_s_p50": (statistics.median(jobs), "s"),
        "job_s_tail": (tail_s, "s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }


def in_process(run: Run, tracer: tracing.Tracer | None, counting: bool = False) -> float:
    """One pass over the job list inside this process; returns its wall time."""
    import lcdring.cli

    if tracer:
        tracer.install(counting)
    here = os.getcwd()
    os.chdir(run.work)
    t0 = time.monotonic()
    try:
        outcomes = []
        for i, job in enumerate(run.wl.jobs):
            if tracer:
                tracer.job = i
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = lcdring.cli.main(list(job.argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
            outcomes.append((job, rc, out.getvalue()))
        wall = time.monotonic() - t0
    finally:
        os.chdir(here)
        if tracer:
            tracer.uninstall()
    for job, rc, stdout in outcomes:
        run.judge(job, rc, stdout)
    return wall


def traced(run: Run, workload: str) -> dict:
    sys.path.insert(0, str(SRC))
    base = in_process(run, None)
    tracer = tracing.Tracer()
    wall = in_process(run, tracer)
    counted = in_process(run, tracer, counting=True)
    tracer.write(str(ROOT / ".perfbench" / f"trace-{workload}"))
    print(f"tracing overhead: timing pass {wall:.3f} s, counting pass {counted:.3f} s, "
          f"untraced pass {base:.3f} s; timing/untraced = {wall / base:.2f}x")
    values = tracer.metrics()
    metrics = {name: (values[name], unit) for name, unit in tracing.per_layer_names()}
    metrics["trace.traced_wall_s"] = (wall, "s")
    metrics["trace.counted_wall_s"] = (counted, "s")
    metrics["trace.untraced_wall_s"] = (base, "s")
    return metrics


def shares(wl: workloads.Workload) -> str:
    keys = sorted({k for job in wl.jobs for k, v in job.props.items() if isinstance(v, (bool, float))})
    parts = [f"{k}={statistics.fmean(float(job.props.get(k, 0)) for job in wl.jobs):.2f}"
             for k in keys]
    return ", ".join(parts)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lcdring" / "cli.py").is_file():
        print(f"error: no lcdring sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.build(args.workload, args.seed)
        workloads.write_files(wl, str(work))
        run = Run(wl, work)
        print(f"workload {args.workload}, seed {args.seed}: {len(wl.jobs)} jobs per pass; "
              f"shares: {shares(wl)}")
        if args.trace:
            metrics = traced(run, args.workload)
        else:
            metrics = untraced(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_frac = len(run.failures) / max(run.attempted, 1)
    for reason in run.failures[:20]:
        print(f"FAILED {reason}")
    print(f"{'fail_frac':>34} {fail_frac:.6g} fraction ({len(run.failures)} of {run.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:>34} {value:.6g} {unit}")
    result = {
        "correct": not run.failures and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
