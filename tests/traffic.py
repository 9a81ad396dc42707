"""List, by function, the statements of ``src/lcdring`` that no benchmark job runs.

    python3 tests/traffic.py

Builds the four workloads of ``perfbench/workloads.py`` at seeds 7, 101
and 303, writes each one's input files to a temporary directory and runs
every job's CLI call there, in this process, under the line tracer of
``tests/reach.py``.  The tracer starts before lcdring is
imported, so module-level statements count too.  Each job's output goes
through the workload's own check.

Prints one ``file function: N statement(s)`` header for each enclosing
definition that holds statements no job ran, each such statement below it
as ``  line: source``, and a summary line.  So a simplification can show
which routes the benchmark's traffic uses and which only tests reach.
Exits 1 if a job's output fails its check, else 0: unreached statements
are the report, not a failure.

Standard library only; ``perfbench/`` is imported, never written.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import threading

import reach

SEEDS = (7, 101, 303)


def main() -> int:
    sys.path[:0] = [str(reach.REPO / "src"), str(reach.REPO / "perfbench")]
    import workloads  # perfbench's; it shares no code with lcdring

    hit = reach.start()
    try:
        import lcdring.cli

        jobs, failures = 0, []
        here = os.getcwd()
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                wl = workloads.build(name, seed)
                with tempfile.TemporaryDirectory() as work:
                    workloads.write_files(wl, work)
                    os.chdir(work)
                    try:
                        for job in wl.jobs:
                            out = io.StringIO()
                            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                                try:
                                    rc = lcdring.cli.main(list(job.argv))
                                except SystemExit as exc:
                                    rc = exc.code if isinstance(exc.code, int) else 1
                            reason = job.check(rc, out.getvalue(), work)
                            if reason:
                                failures.append(f"{name} seed {seed} {job.name}: {reason}")
                            jobs += 1
                    finally:
                        os.chdir(here)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = reach.unreached(hit)
    by_owner: dict[tuple[str, str], list] = {}
    for statement in missed:
        by_owner.setdefault((statement[0], statement[2]), []).append(statement)
    for (path, owner), group in by_owner.items():
        print(f"{path} {owner}: {len(group)} statement(s)")
        for _, first, _, source in group:
            print(f"  {first}: {source}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{jobs} job(s) at seeds {', '.join(map(str, SEEDS))}, {len(failures)} failed; "
          f"{len(missed)} statement(s) never run", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
