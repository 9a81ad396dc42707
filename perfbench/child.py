"""Run one lcdring CLI call in a fresh interpreter and report what it cost.

Usage: python3 child.py SRC_DIR SPAWN_TIME REPORT_FILE CLI_ARG...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared between processes, so the set-up
time below covers interpreter start-up plus ``import lcdring.cli``.  The
CLI's own stdout and stderr pass through untouched; the costs go to
REPORT_FILE as JSON.

The speed of a core on a shared host drifts by tens of percent within a
second.  So an interval timer runs ``probe``, a fixed loop of table
lookups and calls like those of GF arithmetic, every PROBE_EVERY_S, and
a few more probes run before the import and after the call.  For each
phase (set-up, the call, the whole child) the report gives the probe's
duration at the phase's mean speed, and every time it reports excludes
the probes themselves.  The runner scales the times by these durations.
The probe allocates no containers, so it never triggers a garbage
collection whose cost would depend on lcdring's heap.
"""

import signal
import sys
import time

PROBE_EVERY_S = 0.025
PROBE_ITERS = 1500  # about 0.35 ms on a 2 GHz Xeon, so the probes cost ~1.5%
EDGE_PROBES = 3  # probes before the import and after the call

_LOG = [(x * 7) % 255 for x in range(256)]
_EXP = [(x * 3) % 256 for x in range(512)]
_OUT = [0] * 256


def _mul(a: int, b: int) -> int:
    return _EXP[_LOG[a] + _LOG[b]] if a and b else 0


def probe() -> float:
    """Seconds this interpreter takes for a fixed loop of lookups and calls."""
    start = time.perf_counter()
    acc = 1
    for i in range(PROBE_ITERS):
        acc = _mul(i & 255, acc) ^ (i & 255)
        _OUT[acc] = i
    return time.perf_counter() - start


class Sampler:
    """Probe durations, filed under the phase that was running."""

    def __init__(self):
        self.phase = "setup"
        self.samples = {"setup": [], "job": []}

    def take(self, *_):
        self.samples[self.phase].append(probe())

    def spent(self, phase: str) -> float:
        return sum(self.samples[phase])


def at_mean_speed(durations: list[float]) -> float:
    """The probe's duration at the mean of the speeds the durations show."""
    return len(durations) / sum(1.0 / d for d in durations)


def main() -> int:
    src, spawned, report = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    sampler = Sampler()
    for _ in range(EDGE_PROBES):
        sampler.take()
    signal.signal(signal.SIGALRM, sampler.take)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    sys.path.insert(0, src)
    import lcdring.cli

    setup_s = time.monotonic() - spawned - sampler.spent("setup")
    sampler.phase = "job"
    start = time.perf_counter()
    try:
        rc = lcdring.cli.main(sys.argv[4:])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    signal.setitimer(signal.ITIMER_REAL, 0)
    job_s = time.perf_counter() - start - sampler.spent("job")
    for _ in range(EDGE_PROBES):
        sampler.take()

    import json
    import resource

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup, job = sampler.samples["setup"], sampler.samples["job"]
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({
            "setup_s": setup_s, "job_s": job_s, "rss_kb": rss_kb,
            "probe_s": {"setup": at_mean_speed(setup), "job": at_mean_speed(job),
                        "all": at_mean_speed(setup + job)},
            "probes_total_s": sum(setup) + sum(job),
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
