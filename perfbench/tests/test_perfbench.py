"""Tests of the benchmark itself: inputs, references, tracing and reporting.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import ref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lcdring import GF, FqCode, Matrix, cli, construct, oracle  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    first, again, other = (workloads.build(name, s).files for s in (7, 7, 8))
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[k] != other[k] for k in first)


def _outputs(job: workloads.Job, work: Path) -> dict[str, bytes]:
    names = [job.argv[i + 1] for i, a in enumerate(job.argv[:-1]) if a in ("-o", "--json")]
    return {n: (work / n).read_bytes() for n in names}


def _in_process(job: workloads.Job, work: Path) -> tuple[int, str]:
    here = os.getcwd()
    os.chdir(work)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(job.argv))
    finally:
        os.chdir(here)
    return rc, out.getvalue()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_jobs_write_identical_outputs(name, tmp_path):
    wl = workloads.build(name, 3)
    workloads.write_files(wl, str(tmp_path))
    for job in wl.jobs[:2]:
        rc, stdout, _ = run.run_child(job, tmp_path, 120)
        assert job.check(rc, stdout, str(tmp_path)) is None
        want = (rc, stdout, _outputs(job, tmp_path))
        for counting in (False, True):
            t = tracing.Tracer()
            t.install(counting)
            try:
                rc2, stdout2 = _in_process(job, tmp_path)
            finally:
                t.uninstall()
            assert (rc2, stdout2, _outputs(job, tmp_path)) == want


def test_uninstall_restores_every_original():
    import lcdring.gf
    import lcdring.linalg

    before = (lcdring.linalg.rref, construct.minor_det, GF.mul, Matrix.__post_init__,
              FqCode.from_rows, oracle.codewords)
    for counting in (False, True):
        t = tracing.Tracer()
        t.install(counting)
        t.uninstall()
    after = (lcdring.linalg.rref, construct.minor_det, GF.mul, Matrix.__post_init__,
             FqCode.from_rows, oracle.codewords)
    assert before == after


def test_sets_scanned_matches_minor_determinants_evaluated():
    rng = random.Random(5)
    f = ref.Field(5)
    t = tracing.Tracer()
    t.install()
    try:
        for k, h in ((6, 6), (7, 3), (5, 0), (8, 2)):
            rows = workloads._planted(f, rng, 2 * k + 2, k, h, 1)
            code = FqCode.from_rows(GF(5), 2 * k + 2, rows)
            construct.euclid_lcd_scaling(code)
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["construct.minor_search.sets_scanned"] == m["linalg.minor_det.calls"] > 0


def test_codewords_generator_is_charged_at_the_consumer():
    f = GF(5)
    code = FqCode.from_rows(f, 6, [[1, 0, 0, 2, 3, 4], [0, 1, 0, 1, 1, 2], [0, 0, 1, 4, 0, 1]])
    t = tracing.Tracer()
    t.install()
    try:
        assert oracle.min_distance(code) == code.min_dist()
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["oracle.words"] == 5**3
    assert t.self_s("oracle.codewords") > 0
    assert t.total_s("oracle.codewords") >= t.self_s("oracle.codewords")


def _field(q: int) -> tuple[ref.Field, GF]:
    p, e = {4: (2, 2), 5: (5, 1), 9: (3, 2), 8: (2, 3)}[q]
    mine = ref.Field(p, e)
    return mine, GF(p, e, mine.modulus)


@pytest.mark.parametrize("q", [4, 5, 9])
def test_reference_hulls_and_distances_agree_with_the_oracle(q):
    rng = random.Random(q)
    f, gf = _field(q)
    for _ in range(6):
        n = rng.randint(4, 7)
        k = rng.randint(1, 3)
        l = rng.randrange(f.e)
        h = rng.randint(0, min(k, (n - k) // 2))
        rows = workloads._planted(f, rng, n, k, h, f.e - l)
        code = FqCode.from_rows(gf, n, rows)
        red = ref.rref(f, rows, n)[0]
        p = ref.gram(f, red, f.e - l)
        assert k - ref.rank(f, p, k) == h == oracle.hull_dim(code, l)
        assert ref.min_distance(f, rows, n) == oracle.min_distance(code)
        assert code.galois_dual(l).gen.to_rows() == ref.twisted_dual(f, rows, n, l)


@pytest.mark.parametrize("q", [5, 8])
def test_reference_distance_of_systematic_codes_agrees_with_the_oracle(q):
    rng = random.Random(q)
    f, gf = _field(q)
    for k, r in ((3, None), (4, 2), (3, None)):
        rows = workloads._systematic(f, rng, 7, k, r)
        want = oracle.min_distance(FqCode.from_rows(gf, 7, rows))
        assert ref.min_distance(f, rows, 7) == want
        assert (want == 1) == (r is not None)


@pytest.mark.parametrize("q", [4, 5, 9])
def test_verify_rows_have_no_zero_entry_and_the_asked_hull(q):
    f = ref.Field(*{4: (2, 2), 5: (5, 1), 9: (3, 2)}[q])
    rng = random.Random(q)
    for n, k, h in ((1, 1, 0), (2, 1, 0), (2, 1, 1)):
        rows = workloads._nonzero_rows(f, rng, n, k, h)
        assert all(v for r in rows for v in r)
        assert k - ref.rank(f, ref.gram(f, rows, 0), k) == h


def test_tail_leaves_ten_samples_beyond_it():
    for n in (11, 12, 30, 101):
        rng = random.Random(n)
        values = [rng.random() for _ in range(n)]
        value, pct = run.tail(values)
        assert sum(1 for v in values if v > value) == run.TAIL_BEYOND
        assert math.isclose(pct, 100 * (n - 10) / n)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


@pytest.mark.parametrize("seconds", [0.1, 1, 8, 20, 60])
def test_every_run_has_jobs_beyond_the_tail(seconds):
    for name in workloads.WORKLOADS:
        jobs = len(workloads.build(name, 1).jobs)
        assert run.passes_for(seconds, jobs) * jobs > run.TAIL_BEYOND


_BUILD = workloads.build


def _tiny_verify_workload(name: str, seed: int) -> workloads.Workload:
    wl = _BUILD("verify-oracle", seed)
    wl.jobs = [j for j in wl.jobs if j.props["pairings"] <= 9**4]
    return wl


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_the_benchmark_file(trace, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    monkeypatch.setattr(run.workloads, "build", _tiny_verify_workload)
    assert run.main(["--workload", "verify-oracle", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_benchmark_file_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-ext", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
