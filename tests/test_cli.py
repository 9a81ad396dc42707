"""End-to-end CLI behavior, including exit codes and determinism."""

import io
import json
import os
import pathlib
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lcdring
from lcdring import GF, FqCode, Matrix, RCode, cli, construct, errors, fqcode, oracle
from lcdring.cli import COMMANDS, _analysis, main, parse_args
from lcdring.codefile import parse_code
from support import WalkSteps, build_parser, kernel_work, random_fqcode, random_rcode

SAMPLE_DIR = pathlib.Path(__file__).parent.parent / "sample_codes"
SAMPLES = sorted(SAMPLE_DIR.glob("*.json"))

LINE_FILE = {
    "field": {"p": 5, "e": 1},
    "n": 2,
    "components": [[[1, 2]], [[1, 2]], [[1, 2]], [[1, 2]]],
}

GF9_FILE = {
    "field": {"p": 3, "e": 2, "modulus": [1, 0, 1]},
    "n": 2,
    "components": [[[1, 4]], [[1, 4]], [[1, 4]], [[1, 4]]],
}


@pytest.fixture
def line_path(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE_FILE))
    return str(path)


@pytest.fixture
def gf9_path(tmp_path):
    path = tmp_path / "gf9.json"
    path.write_text(json.dumps(GF9_FILE))
    return str(path)


def test_analyze(line_path, capsys):
    assert main(["analyze", line_path]) == 0
    out = capsys.readouterr().out
    assert "lcd=no" in out
    assert "hull_dims=[1, 1, 1, 1]" in out
    assert "mds: yes" in out  # all components are [2,1,2], bound is 2


def test_analyze_json_report(line_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["analyze", line_path, "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["k"] == 4
    assert report["d_lee"] == 2
    assert report["predicates"][0]["lcd"] is False
    assert report["predicates"][0]["self_dual"] is True


@pytest.mark.parametrize("field", [GF(2, 2), GF(5), GF(7)], ids=lambda f: f"GF({f.q})")
def test_analysis_mds_agrees_with_the_oracle(field):
    """``mds`` is the Singleton test on the enumerated Lee distance; past the cap it is unknown for four
    equal dimensions and "no" otherwise."""
    rng = random.Random(field.q)
    seen = set()
    for trial in range(40):
        n = rng.randint(1, 4)
        if trial % 2:  # four equal components: the only way over R to reach the bound
            rc = RCode([random_fqcode(rng, field, n, rng.randint(1, min(n, 2)))] * 4)
        else:
            rc = random_rcode(rng, field, n, 2)
        if rc.k == 0 or rc.size > 20_000:
            continue
        mds = _analysis(rc, [0], fqcode.DEFAULT_ENUM_CAP)["mds"]
        assert mds == (4 * oracle.min_distance(rc) == 4 * n - rc.k + 4)
        seen.add(mds)
        # a fresh copy has no memoized distances, so a cap below one component's q^k leaves them unknown;
        # d_Lee <= n - max k_i + 1 still decides "no" when the dimensions differ
        fresh = RCode(FqCode(c.gen) for c in rc.comps)
        equal = len({c.k for c in rc.comps}) == 1
        assert _analysis(fresh, [0], field.q ** max(c.k for c in rc.comps) - 1)["mds"] is (None if equal else False)
    assert seen == {True, False}
    assert _analysis(RCode([FqCode.zero(field, 3)] * 4), [0], fqcode.DEFAULT_ENUM_CAP)["mds"] is None


def test_analyze_unequal_dimensions_past_the_cap_is_not_mds(tmp_path, capsys):
    """GF(625), n = 6, k = (4, 3, 1, 1): two distances pass the cap, but d_Lee <= 6 - 4 + 1 < 6 - 9/4 + 1."""
    rng = random.Random(625)
    comps = [
        [[int(i == j) for j in range(k)] + [rng.randrange(625) for _ in range(6 - k)] for i in range(k)]
        for k in (4, 3, 1, 1)
    ]
    path, report_path = tmp_path / "gf625.json", tmp_path / "report.json"
    path.write_text(json.dumps({"field": {"p": 5, "e": 4}, "n": 6, "components": comps}))
    assert main(["analyze", str(path), "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "lee distance: unknown" in out and "mds: no" in out
    report = json.loads(report_path.read_text())
    assert [c[1] for c in report["components"]] == [4, 3, 1, 1]
    assert report["d_lee"] is None and report["mds"] is False


def test_analyze_repeated_l_reports_each_twist_once(gf9_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = ["analyze", gf9_path, "--l", "1", "--l", "0", "--l", "1", "--json", str(report_path)]
    assert main(argv) == 0
    rows = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("l=")]
    assert rows == ["l=1", "l=0"]
    assert [p["l"] for p in json.loads(report_path.read_text())["predicates"]] == [1, 0]


def test_analyze_bad_l(line_path, capsys):
    assert main(["analyze", line_path, "--l", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: l must lie in [0, 0], got 1\n"
    # the same refusal as dual's, from the one twist check
    assert main(["dual", line_path, "--l", "1"]) == 1
    assert capsys.readouterr().err == err


def test_analyze_missing_file():
    assert main(["analyze", "/nonexistent/code.json"]) == 1


def test_construct_euclid_then_reanalyze(line_path, tmp_path, capsys):
    out_path = tmp_path / "out.json"
    assert main(["construct-lcd", line_path, "--mode", "euclid", "-o", str(out_path)]) == 0
    first = capsys.readouterr().out
    assert "result: lcd=yes" in first
    assert main(["analyze", str(out_path)]) == 0
    second = capsys.readouterr().out
    assert "lcd=yes" in second
    doc = json.loads(out_path.read_text())
    assert doc["components"] == [[[1, 1]]] * 4


def test_construct_galois_gf9(gf9_path, tmp_path, capsys):
    out_path = tmp_path / "out.json"
    assert (
        main(["construct-lcd", gf9_path, "--mode", "galois", "--l", "1", "-o", str(out_path)])
        == 0
    )
    out = capsys.readouterr().out
    assert "beta=2" in out
    assert "result: lcd=yes" in out


# GF(8) at l = 1 misses the paper's condition (2^2 + 1 does not divide 7);
# C1 has P = [[0, 0], [3, 0]], so both of its rows get scaled
GF8_FILE = {
    "field": {"p": 2, "e": 3},
    "n": 4,
    "components": [[[1, 0, 2, 7], [0, 1, 3, 4]], [], [[1, 1, 0, 0]], [[0, 0, 1, 1]]],
}


def test_construct_gf8_twist_outside_the_papers_condition(tmp_path, capsys):
    path, out_path, report_path = tmp_path / "gf8.json", tmp_path / "out.json", tmp_path / "report.json"
    path.write_text(json.dumps(GF8_FILE))
    argv = ["construct-lcd", str(path), "--mode", "galois", "--l", "1", "-o", str(out_path), "--json", str(report_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("mode: galois (l=1)\n") and "beta=" not in out
    assert "C1: t=1, set=[0, 1]," in out and "result: lcd=yes" in out
    assert '"beta": null' in report_path.read_text()
    assert json.loads(report_path.read_text())["lcd"] is True
    assert main(["verify", str(out_path)]) == 0
    assert capsys.readouterr().out.endswith("all checks agree\n")


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda p: p.name)
def test_construct_galois_twist_zero_is_euclid(sample, tmp_path, capsys):
    runs = []
    for mode in ("euclid", "galois"):
        out_path, report_path = tmp_path / f"{mode}.json", tmp_path / f"{mode}-report.json"
        argv = ["construct-lcd", str(sample), "--mode", mode, "--l", "0", "-o", str(out_path), "--json", str(report_path)]
        assert main(argv) == 0
        report = json.loads(report_path.read_text())
        runs.append((report["alpha_gamma"], report["components"], out_path.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("p,mode,l", [(2, "euclid", None), (2, "galois", 0), (3, "euclid", None), (3, "galois", 0)])
def test_construct_refuses_twists_with_no_scaling_factor(p, mode, l, tmp_path, capsys):
    """q - 1 divides p^(e-l) + 1: every unit a has a^(p^(e-l)+1) = 1, so input error."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"field": {"p": p}, "n": 2, "components": [[[1, 1]]] * 4}))
    argv = ["construct-lcd", str(path), "--mode", mode] + ([] if l is None else ["--l", str(l)])
    assert main(argv) == 1
    assert "divides p^(e-l) + 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode,twist,message", [
    ("euclid", ["--l", "1"], "the Euclidean mode fixes l = 0"),
    ("galois", [], "the Galois mode requires a twist l"),
], ids=["euclid-l1", "galois-no-l"])
def test_construct_mode_and_twist_must_agree(gf9_path, mode, twist, message, tmp_path, capsys):
    """--mode names the twist: euclid is l = 0, galois needs its l; a mismatch is an input error."""
    out_path = tmp_path / "out.json"
    assert main(["construct-lcd", gf9_path, "--mode", mode, *twist, "-o", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out_path.exists()


def test_construct_self_orthogonal_k24(tmp_path, capsys):
    # [I | 2I] over GF(5) has a zero Gram matrix: 24 positions get scaled
    rows = [[int(i == j) for j in range(24)] + [2 * (i == j) for j in range(24)] for i in range(24)]
    path, out_path = tmp_path / "k24.json", tmp_path / "out.json"
    path.write_text(json.dumps({"field": {"p": 5}, "n": 48, "components": [rows, [], [], []]}))
    assert main(["construct-lcd", str(path), "--mode", "euclid", "-o", str(out_path)]) == 0
    assert "C1: t=23," in capsys.readouterr().out
    out = parse_code(out_path.read_text())
    assert out.k == 24 and out.is_lcd(0)


def test_construct_past_the_search_cap_exits_2(tmp_path, capsys):
    """A singular greedy minor needs the fallback scan, which is refused above ``DEFAULT_DIM_CAP`` rows."""
    # [I | A] over GF(8) with A's rows 0 and 1 making the l = 1 Gram block [[0, 1], [0, 0]]: deleting
    # the greedy co-basis {1} leaves P[0][0] = 0
    k = construct.DEFAULT_DIM_CAP + 1
    rows = [[int(i == j) for j in range(k)] + [0, 0, 0] for i in range(k)]
    rows[0][k:], rows[1][k:] = [4, 7, 5], [7, 7, 1]
    path, out_path = tmp_path / "cap.json", tmp_path / "out.json"
    path.write_text(json.dumps({"field": {"p": 2, "e": 3}, "n": k + 3, "components": [rows, [], [], []]}))
    assert main(["construct-lcd", str(path), "--mode", "galois", "--l", "1", "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: matrix size {k} exceeds the search cap of {k - 1}\n")
    assert not out_path.exists()


def test_dual_of_self_dual_line_is_identical_file(line_path, tmp_path):
    out1 = tmp_path / "dual.json"
    assert main(["dual", line_path, "--l", "0", "-o", str(out1)]) == 0
    doc = json.loads(out1.read_text())
    assert doc["components"] == [[[1, 2]]] * 4


def test_gray_writes_field_code(line_path, tmp_path):
    out = tmp_path / "gray.json"
    assert main(["gray", line_path, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "field" and doc["n"] == 8
    assert len(doc["rows"]) == 4


def test_gray_single_idempotent(tmp_path):
    doc = {
        "field": {"p": 5, "e": 1},
        "n": 1,
        "generators": [[[0, 1, 0, 0]]],
    }
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "gray.json"
    assert main(["gray", str(path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["rows"] == [[0, 1, 0, 0]]


def test_mindist(line_path, capsys):
    assert main(["mindist", line_path]) == 0
    assert "lee distance: 2" in capsys.readouterr().out


def test_mindist_cap_exit_code(line_path):
    assert main(["mindist", line_path, "--max-enum", "3"]) == 2


def test_mindist_of_the_zero_code_exits_1(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"field": {"p": 5}, "n": 2, "components": [[], [], [], []]}))
    assert main(["mindist", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: the zero code has no minimum distance\n")


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_prime_field_with_another_modulus_exits_1(command, tmp_path, capsys):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({**LINE_FILE, "field": {"p": 5, "e": 1, "modulus": [3, 1]}}))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr() == ("", "error: the modulus of a prime field is x = [0, 1], got [3, 1]\n")


@pytest.mark.parametrize("doc, message", [
    ({"components": [[[1, 2]], [[1, 2]], [[1, 2]], [[1, 7]]]}, "component 4: 7 is not an element encoding of GF(5)"),
    ({"generators": [[[1, 0, 0, 0], [0, 0, True, 0]]]},
     "generator row 0 entry 1: True is not an element encoding of GF(5)"),
    ({"basis": "u", "generators": [[[1, 0, 0, 0], [0, 0, -1, 0]]]},
     "generator row 0 entry 1: -1 is not an element encoding of GF(5)"),
], ids=["components", "gamma-generators", "u-generators"])
def test_a_bad_field_value_exits_1_after_its_place(doc, message, tmp_path, capsys):
    """Each file form reports the one field-value message after the value's place, and exits 1."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"p": 5}, "n": 2, **doc}))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_unknown_choice_is_left_to_argparse(capsys):
    argv = ["construct-lcd", "c.json", "--mode", "bogus"]
    assert cli._plain(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "lcdring construct-lcd: error: argument --mode: invalid choice: 'bogus'" in capsys.readouterr().err


def test_module_entry_point_matches_main(capsys):
    """``python -m lcdring.cli`` runs ``main`` on its arguments and exits with its code."""
    argv = ["analyze", str(SAMPLE_DIR / "gf5_self_dual_line.json")]
    src = str(pathlib.Path(lcdring.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "lcdring.cli", *argv], capture_output=True, text=True, env=env)
    code = main(argv)
    assert (run.returncode, run.stdout, run.stderr) == (code, *capsys.readouterr())
    assert code == 0 and run.stdout


def test_usage_error_exits_1():
    # a usage error is an input error: 2 is the code for an exceeded budget
    src = str(pathlib.Path(lcdring.__file__).parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); from lcdring.cli import main; sys.exit(main())"
    run = subprocess.run([sys.executable, "-I", "-c", code, "dual"], capture_output=True, text=True)
    assert run.returncode == 1
    assert "the following arguments are required: file" in run.stderr


@pytest.mark.parametrize("command", ["analyze", "construct-lcd", "mindist", "verify"])
@pytest.mark.parametrize("cap", ["-1", "two"])
def test_max_enum_must_be_a_non_negative_int(command, cap, line_path, capsys):
    argv = [command, line_path, "--max-enum", cap] + (["--mode", "euclid"] if command == "construct-lcd" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"argument --max-enum: expected a non-negative int, got '{cap}'" in capsys.readouterr().err


# a [4, 3] component (5^3 = 125 messages) beside a component holding a
# weight-1 word; the cap is checked before either is enumerated
BIG = [[1, 1, 1, 1], [0, 1, 2, 3], [0, 0, 1, 4]]
WEIGHT_ONE = [[1, 0, 0, 0]]


@pytest.mark.parametrize("comps", [[BIG, WEIGHT_ONE, [], []], [WEIGHT_ONE, BIG, [], []]])
def test_mindist_cap_counts_every_message(comps, tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"field": {"p": 5}, "n": 4, "components": comps}))
    assert main(["mindist", str(path), "--max-enum", "124"]) == 2
    assert "125 codewords exceed the cap of 124" in capsys.readouterr().err
    assert main(["mindist", str(path), "--max-enum", "125"]) == 0
    assert "lee distance: 1" in capsys.readouterr().out


# the weight-2 twin: no component has a weight-1 row, and a weight-2 row
# fixes the Lee distance at 2, yet the 125 messages still count
BIG_TWO = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
WEIGHT_TWO = [[1, 4, 0, 0]]


@pytest.mark.parametrize("comps", [[BIG_TWO, WEIGHT_TWO, [], []], [WEIGHT_TWO, BIG_TWO, [], []]])
def test_mindist_cap_counts_every_message_at_weight_two(comps, tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"field": {"p": 5}, "n": 4, "components": comps}))
    assert main(["mindist", str(path), "--max-enum", "124"]) == 2
    assert "125 codewords exceed the cap of 124" in capsys.readouterr().err
    assert main(["mindist", str(path), "--max-enum", "125"]) == 0
    assert "lee distance: 2" in capsys.readouterr().out


def test_mindist_weight_two_row_starts_no_walk(tmp_path, monkeypatch, capsys):
    # a GF(7) [9, 7] component (7^7 = 823,543 messages, inside the default
    # cap) whose rows weigh 3, beside a component with a row of weight 2
    big = [[int(i == j) for j in range(7)] + [1, i % 6 + 1] for i in range(7)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": {"p": 7}, "n": 9, "components": [big, [[0, 0, 1, 0, 0, 0, 0, 0, 6]], [], []]}))

    def no_walk(p, e, k):
        raise AssertionError("a Gray walk started")

    monkeypatch.setattr(fqcode, "_projective_steps", no_walk)
    assert main(["mindist", str(path)]) == 0
    assert capsys.readouterr().out == "lee distance: 2\n"


def test_json_booleans_rejected(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"field":{"p":5},"n":true,"components":[[[true]],[],[],[]]}')
    assert main(["mindist", str(path)]) == 1
    assert "'n' must be a positive integer" in capsys.readouterr().err


def test_huge_prime_refused_before_primality_test(tmp_path, capsys):
    path = tmp_path / "huge.json"
    doc = dict(LINE_FILE, field={"p": 2**61 - 1})
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    assert f"field order {2**61 - 1}^1 exceeds 1048576" in capsys.readouterr().err


def test_every_error_class_has_its_exit_code(monkeypatch, capsys):
    """2 for CapExceededError and only for it, 3 for ConsistencyError, 1 for every other class in errors.py."""
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.LcdringError)]
    assert len(classes) > 10
    for cls in classes:
        def handler(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "parse_args", lambda argv: (handler, SimpleNamespace()))
        code = {errors.CapExceededError: 2, errors.ConsistencyError: 3}.get(cls, 1)
        prefix = "internal consistency failure" if code == 3 else "error"
        assert (main([]), capsys.readouterr().err) == (code, f"{prefix}: boom\n"), cls.__name__


def test_kernel_invariant_failure_exits_3(line_path, monkeypatch, capsys):
    real = fqcode._reduced

    def kernel_reduction_reporting_one_rank_too_few(f, rows):
        reduced, pivots = real(f, rows)
        # frame 1 is FqCode._span; parsing calls it too, and stays exact
        if sys._getframe(2).f_code.co_name == "galois_dual":
            pivots = pivots[:-1]
        return reduced, pivots

    monkeypatch.setattr(fqcode, "_reduced", kernel_reduction_reporting_one_rank_too_few)
    assert main(["dual", line_path]) == 3
    assert "internal consistency failure: kernel basis" in capsys.readouterr().err


def test_non_lcd_construction_exits_3_before_any_output(line_path, tmp_path, monkeypatch, capsys):
    real = construct.ring_lcd_equivalent

    def construction_then_non_lcd(*args):
        result = real(*args)
        # from here on every ring code reports a singular Gram matrix
        monkeypatch.setattr(lcdring.RCode, "lcd_status", lambda self, l=0: (False, (0, 0, 0, 0)))
        return result

    monkeypatch.setattr(construct, "ring_lcd_equivalent", construction_then_non_lcd)
    code_path, report_path = tmp_path / "out.json", tmp_path / "report.json"
    argv = ["construct-lcd", line_path, "--mode", "euclid", "-o", str(code_path), "--json", str(report_path)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "internal consistency failure: construction produced a non-LCD code" in err
    assert out == ""
    assert not code_path.exists() and not report_path.exists()


def test_construction_consistency_failure_exits_3_without_output(line_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(construct, "lemma_det_check", lambda p, b, cert: False)
    out_path = tmp_path / "out.json"
    assert main(["construct-lcd", line_path, "--mode", "euclid", "-o", str(out_path)]) == 3
    assert capsys.readouterr() == ("", "internal consistency failure: minor determinant identity failed\n")
    assert not out_path.exists()


def test_verify_agrees(line_path, gf9_path, capsys):
    assert main(["verify", line_path]) == 0
    assert "all checks agree" in capsys.readouterr().out
    assert main(["verify", gf9_path]) == 0
    assert "all checks agree" in capsys.readouterr().out


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda p: p.name)
def test_verify_shipped_samples(sample, capsys):
    assert main(["verify", str(sample)]) == 0
    out = capsys.readouterr().out
    assert "all checks agree" in out
    assert "MISMATCH" not in out


def test_verify_reports_a_wrong_expansion(monkeypatch, capsys):
    """An image with two columns swapped fails the expansion check alone, and verify exits 3."""
    real = RCode.gray_image

    def swapped(self):
        rows = [list(r) for r in real(self).gen.rows]
        for r in rows:
            r[0], r[4] = r[4], r[0]
        return FqCode.from_rows(self.field, 4 * self.n, rows)

    monkeypatch.setattr(RCode, "gray_image", swapped)
    assert main(["verify", str(SAMPLE_DIR / "gf5_self_dual_line.json")]) == 3
    out = capsys.readouterr().out
    assert "expansion image matches enumerated expansion: MISMATCH" in out
    assert out.count("MISMATCH") == 1
    assert "1 check(s) failed" in out


@pytest.mark.parametrize("name", ["gf5_self_dual_line.json", "gf9_twisted_hull.json"])
def test_verify_builds_no_ring_element(name, monkeypatch, capsys):
    """A code file of components goes through verify without one ``RingElement``."""
    built = []
    real = lcdring.RingElement.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(lcdring.RingElement, "__init__", counted)
    assert main(["verify", str(SAMPLE_DIR / name)]) == 0
    assert "all checks agree" in capsys.readouterr().out
    assert built == []


def test_reports_are_deterministic(line_path, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["construct-lcd", line_path, "--mode", "euclid", "--seed", "5", "-o", str(out1)]) == 0
    text1 = capsys.readouterr().out
    assert main(["construct-lcd", line_path, "--mode", "euclid", "--seed", "5", "-o", str(out2)]) == 0
    text2 = capsys.readouterr().out
    assert text1 == text2
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["dual"], ["gray"], ["mindist"], ["verify"], ["construct-lcd", "--mode", "euclid"]],
    ids=lambda a: a[0],
)
def test_declared_length_bounded_before_any_matrix(argv, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"field":{"p":5},"n":1000000000000000000,"components":[[],[],[],[]]}')
    assert main([argv[0], str(path), *argv[1:]]) == 1
    assert "'n' must be at most" in capsys.readouterr().err


def test_deep_nesting_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["analyze", str(path)]) == 1
    assert "error: not valid JSON" in capsys.readouterr().err


def test_verify_decides_the_pairing_past_the_int_str_limit(tmp_path, capsys):
    # q^(4n) = 1048573^720 has more than 4300 digits, and the pairing is still decided
    path = tmp_path / "zero.json"
    path.write_text('{"field":{"p":1048573},"n":180,"components":[[],[],[],[]]}')
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "l=0 dual pairing: agree\n" in out
    assert "skipped" not in out
    assert "all checks agree" in out


GF9_RING_FILE = {
    "field": {"p": 3, "e": 2},
    "n": 3,
    "components": [[[1, 4, 2]], [[1, 0, 3], [0, 1, 5]], [[1, 1, 1]], [[1, 0, 7], [0, 1, 2]]],
}


def test_verify_budget_counts_one_component(tmp_path, capsys):
    """|C| = 9^6 is past a budget of 100 that each component (at most 81 words) fits: verify
    prints what it prints under the default budget."""
    path = tmp_path / "gf9.json"
    path.write_text(json.dumps(GF9_RING_FILE))
    assert main(["verify", str(path)]) == 0
    default = capsys.readouterr()
    assert main(["verify", str(path), "--max-enum", "100"]) == 0
    assert capsys.readouterr() == default
    assert default.out.endswith("all checks agree\n") and default.err == ""


def test_verify_refuses_a_component_past_the_budget(tmp_path, capsys):
    path = tmp_path / "full.json"
    full = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]  # a [3, 3] component: 9^3 = 729 words
    path.write_text(json.dumps({"field": {"p": 3, "e": 2}, "n": 3, "components": [full, [], [], []]}))
    assert main(["verify", str(path), "--max-enum", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "729 codewords exceed the budget of 100" in err


def test_verify_refuses_before_any_distance_walk(tmp_path, capsys, monkeypatch):
    """Three GF(5) [14, 8] components (5^8 words, rows of weight 7) fit the default budget and the
    fourth, [14, 9], is past it: verify exits 2 with the budget message and walks no component."""
    comps = [[[int(i == j) for j in range(k)] + [(i * c + s) % 4 + 1 for c in range(14 - k)] for i in range(k)]
             for s, k in enumerate((8, 8, 8, 9))]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": {"p": 5}, "n": 14, "components": comps}))
    steps = WalkSteps(monkeypatch)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: 1953125 codewords exceed the budget of 1000000\n")
    assert steps.walks == 0


def drawn_slot_codes(monkeypatch):
    """The codes ``oracle.codewords`` is asked for, in order, while the list is live."""
    drawn = []
    real = oracle.codewords
    monkeypatch.setattr(oracle, "codewords", lambda code, budget: (drawn.append(code), real(code, budget))[1])
    return drawn


def test_verify_refuses_the_third_component_before_drawing_a_word(tmp_path, capsys, monkeypatch):
    """Components 1 and 2 (9 and 81 words) fit a budget of 100 that component 3 (9^3 words) is
    past: verify exits 2 with nothing on stdout, names component 3's count, and draws no word."""
    path = tmp_path / "third.json"
    full = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    comps = [[[1, 4, 2]], [[1, 0, 3], [0, 1, 5]], full, []]
    path.write_text(json.dumps({"field": {"p": 3, "e": 2}, "n": 3, "components": comps}))
    drawn = drawn_slot_codes(monkeypatch)
    assert main(["verify", str(path), "--max-enum", "100"]) == 2
    assert capsys.readouterr() == ("", "error: 729 codewords exceed the budget of 100\n")
    assert drawn == []


def test_verify_draws_each_slot_code_once(tmp_path, capsys, monkeypatch):
    """One verify run over GF(9), two twists, asks ``oracle.codewords`` for each slot code once,
    the zero component included, in slot order."""
    doc = {**GF9_RING_FILE, "components": [[[1, 4, 2]], [], [[1, 1, 1]], [[1, 0, 7], [0, 1, 2]]]}
    path = tmp_path / "gf9.json"
    path.write_text(json.dumps(doc))
    drawn = drawn_slot_codes(monkeypatch)
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("all checks agree\n")
    assert drawn == list(parse_code(json.dumps(doc)).comps)


@pytest.mark.parametrize("module", ["lcdring", "lcdring.cli"])
def test_import_leaves_out_dataclasses_and_inspect(module, tmp_path):
    """A plain CLI call imports none of these: building dataclasses costs most of
    an import, and argparse (with gettext and locale) most of a short call.  The
    jobs are the benchmark's six command-line shapes."""
    gf4, gf5, gf9 = (str(path) for path in SAMPLES)
    out, rep = str(tmp_path / "out.json"), str(tmp_path / "rep.json")
    jobs = [
        ["analyze", gf4, "--json", out],
        ["dual", gf9, "--l", "1", "-o", out],
        ["gray", gf4, "-o", out],
        ["verify", gf4],
        ["construct-lcd", gf5, "--mode", "euclid", "-o", out, "--json", rep],
        ["mindist", gf4],
    ]
    src = str(pathlib.Path(lcdring.__file__).parent.parent)
    heavy = "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import {module}; {heavy}; "
        f"from lcdring.cli import main; print([main(argv) for argv in {jobs!r}]); {heavy}"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                         capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    first, job, codes, last = lines[0], lines[-3], lines[-2], lines[-1]
    assert (first, last) == ("[]", "[]")
    assert job.startswith("lee distance: ")
    assert codes == "[0, 0, 0, 0, 0, 0]"


def _readme_synopsis():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]


def test_help_prints_the_readme_synopsis(capsys):
    synopsis = _readme_synopsis()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == synopsis


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("name", COMMANDS)
def test_command_help_prints_its_readme_line(name, flag, capsys):
    (line,) = [line for line in _readme_synopsis().splitlines() if line.startswith(f"lcdring {name} ")]
    with pytest.raises(SystemExit) as exc:
        main([name, flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{line}\n  {COMMANDS[name][1]}\n"


REFERENCE_PARSER = build_parser()
FLAGS = sorted({flag for _, _, options in COMMANDS.values() for opt in options for flag in opt.flags})
PREFIXES = sorted({f[:k] for f in FLAGS + ["--help"] if f.startswith("--") for k in range(3, len(f))})
NAMES = [*COMMANDS, "bogus", "ana", ""]
FLAG_LIKE = FLAGS + PREFIXES + ["-h", "--help", "--bogus", "-x", "---"]
# an attached value is never "--": argparse stored [] for --json=-- and -o--
VALUES = ["0", "3", "17", "-1", "-7", "two", "1.5", "-2.5", "", "a b", "euclid", "galois", "c.json", "-", "-x",
          "--bogus"]
TOKENS = st.one_of(
    st.sampled_from(NAMES), st.sampled_from(FLAG_LIKE), st.sampled_from(VALUES), st.just("--"),
    st.builds("{}={}".format, st.sampled_from(FLAG_LIKE), st.sampled_from(VALUES)),
    st.builds(str.__add__, st.sampled_from(["-o", "-h", "-ho", "-hh"]), st.sampled_from(VALUES)),
)
ARGV = st.lists(TOKENS, max_size=3) | st.builds(
    lambda name, rest: [name, *rest], st.sampled_from(NAMES), st.lists(TOKENS, max_size=7))


def _table(argv):
    handler, args = parse_args(argv)
    return handler, vars(args)


def _reference(argv):
    attrs = vars(REFERENCE_PARSER.parse_args(argv))
    handler = attrs.pop("func")
    assert attrs.pop("command") in COMMANDS
    return handler, attrs


def _outcome(parse, argv):
    """("ok", handler, attributes), or ("exit", code, usage line seen, last stderr line)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            handler, attrs = parse(list(argv))
    except SystemExit as exc:
        lines = err.getvalue().splitlines()
        return "exit", exc.code, bool(lines) and lines[0].startswith("usage: "), lines[-1:]
    return "ok", handler, attrs


@settings(max_examples=1500, deadline=None)
@given(ARGV)
@example(["mindist", "c.json", "--max", "5"])
@example(["construct-lcd", "-oout.json", "--mode=galois", "--l", "1", "c.json", "--seed", "-3"])
@example(["analyze", "--l", "1", "c.json", "--l=0", "--json", "-"])
@example(["mindist", "c.json", "--max-enum", "-1"])
@example(["dual", "--l", "two", "c.json"])
@example(["construct-lcd", "c.json", "--m", "euclid"])
@example(["gray", "--", "-o"])
@example(["verify", "c.json", "extra"])
def test_table_parser_agrees_with_argparse(argv):
    """Same handler and attributes, or the same exit, usage line and error line on stderr."""
    assert _outcome(_table, argv) == _outcome(_reference, argv)


def test_attached_double_dash_is_a_value():
    """After an option spelt in full, the plain path reads an attached "--" as the text "--"."""
    assert vars(parse_args(["gray", "c.json", "--output=--"])[1]) == {"file": "c.json", "output": "--"}
    assert vars(parse_args(["gray", "c.json", "-o--"])[1]) == {"file": "c.json", "output": "--"}


@pytest.mark.parametrize("argv, flag", [(["gray", "c.json", "--out=--"], "-o/--output"),
                                        (["analyze", "c.json", "--l=--"], "--l")])
def test_attached_double_dash_left_to_argparse_is_refused(argv, flag, capsys):
    """argparse drops an attached "--" and passes no value: a usage error, not a list in the arguments."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lcdring {argv[0]} FILE")
    assert err.splitlines()[-1] == f"lcdring {argv[0]}: error: argument {flag}: expected one argument"
    assert "Traceback" not in err


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda p: p.name)
def test_analyze_report_matches_golden(sample, capsys):
    """Text and JSON report (gram_dets, hull_dims and flags at every l), byte for byte."""
    assert main(["analyze", str(sample), "--json", "-"]) == 0
    got = capsys.readouterr().out.encode("utf-8")
    assert got == (GOLDEN / f"analyze-{sample.stem}.txt").read_bytes()


def _file_jobs():
    """(argv, golden file, reduction passes) for dual at every twist and gray, per sample."""
    for sample in SAMPLES:
        for l in range(parse_code(sample.read_text()).field.e):
            yield pytest.param(["dual", str(sample), "--l", str(l)], f"dual-{sample.stem}-l{l}.json", 8,
                               id=f"dual-{sample.stem}-l{l}")
        yield pytest.param(["gray", str(sample)], f"gray-{sample.stem}.json", 4, id=f"gray-{sample.stem}")


@pytest.mark.parametrize("argv, golden, passes", list(_file_jobs()))
def test_dual_and_gray_files_match_golden(argv, golden, passes, kernel_work, capsys):
    """The written code, byte for byte, and the work behind it.

    Parsing runs one reduction pass per component.  dual adds one kernel
    per component (one reduction pass, through FqCode._span) whatever the
    twist; gray adds nothing.  A pass eliminates exactly when its rows
    are not already reduced.
    """
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()
    assert len(kernel_work.spans) == passes
    assert split_eliminations(kernel_work)[1] == ["_reduced"] * kernel_work.unreduced()
    callers = [caller for caller, _, _ in kernel_work.spans]
    assert callers.count("galois_dual") == (4 if argv[0] == "dual" else 0)


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda p: p.name)
def test_verify_report_matches_golden(sample, capsys):
    """Every check line of verify, byte for byte."""
    assert main(["verify", str(sample)]) == 0
    got = capsys.readouterr().out.encode("utf-8")
    assert got == (GOLDEN / f"verify-{sample.stem}.txt").read_bytes()


def _construct_jobs():
    """(argv, golden stem) for construct-lcd on each sample, per mode (Galois at l = 1), without and with a seed."""
    for sample in SAMPLES:
        for mode in ("euclid", "galois"):
            for seed in (None, 7):
                argv = ["construct-lcd", str(sample), "--mode", mode]
                argv += ["--l", "1"] if mode == "galois" else []
                argv += [] if seed is None else ["--seed", str(seed)]
                stem = f"construct-{sample.stem}-{mode}" + ("" if seed is None else f"-seed{seed}")
                yield pytest.param(argv, stem, id=stem)


@pytest.mark.parametrize("argv, stem", list(_construct_jobs()))
def test_construct_outputs_match_golden(argv, stem, tmp_path, capsys):
    """stdout, the -o code and the --json report, byte for byte; a refusal pins its exit code.

    The goldens were written by the construction as it stood before any
    twist beyond the paper's condition was admitted, so they pin that every
    input accepted then gives the same bytes now.
    """
    code, report = tmp_path / "code.json", tmp_path / "report.json"
    rc = main([*argv, "-o", str(code), "--json", str(report)])
    out = capsys.readouterr().out.encode("utf-8")
    refusal = GOLDEN / f"{stem}.exit"
    if refusal.exists():
        assert rc == int(refusal.read_text())
        assert out == b"" and not code.exists() and not report.exists()
        return
    assert rc == 0
    assert out == (GOLDEN / f"{stem}.txt").read_bytes()
    assert code.read_bytes() == (GOLDEN / f"{stem}.code.json").read_bytes()
    assert report.read_bytes() == (GOLDEN / f"{stem}.report.json").read_bytes()


def code_builds(work):
    """(id of the code, m) for each P an FqCode builds, one ``GF._gram_rows`` call from ``_build_gram``."""
    return [(id(code), m) for caller, m, code in work.grams if caller == "_build_gram"]


def split_eliminations(work):
    """(callers of the eliminations FqCode runs itself, callers of every other one)."""
    callers = [caller for caller, _ in work.gauss]
    return [c for c in callers if c == "_gram_facts"], [c for c in callers if c != "_gram_facts"]


@pytest.mark.parametrize("sample", [*SAMPLES, "gf16"], ids=lambda p: getattr(p, "name", p))
def test_analyze_builds_one_gram_and_one_elimination_per_component_and_twist(sample, kernel_work, tmp_path, capsys):
    """A twist l and its mate e - l share one build: analyze asks l = 0, 1, ..., e - 1."""
    if sample == "gf16":
        sample = tmp_path / "gf16.json"
        sample.write_text(json.dumps(GF16_FILE))
    assert main(["analyze", str(sample), "--json", "-"]) == 0
    # the only eliminations outside FqCode are those of the four parse
    # reduction passes whose component rows are not already reduced
    assert len(kernel_work.spans) == 4
    doc = json.loads(sample.read_text())
    if "components" in doc:
        assert [list(map(list, rows)) for _, _, rows in kernel_work.spans] == doc["components"]
    code_eliminations, eliminations = split_eliminations(kernel_work)
    assert eliminations == ["_reduced"] * kernel_work.unreduced()
    builds = code_builds(kernel_work)
    assert len(builds) == len(kernel_work.grams)  # no Gram product outside FqCode
    e = parse_code(sample.read_text()).field.e
    assert len(set(builds)) == len(builds) == 4 * (e // 2 + 1)
    # each component builds twist l = e - m for one l of every orbit {l, e - l}
    assert sorted(min(e - m, m % e) for _, m in builds) == sorted([*range(e // 2 + 1)] * 4)
    assert code_eliminations == ["_gram_facts"] * (4 * (e // 2 + 1))


@pytest.mark.parametrize(
    "name,mode",
    [("gf4_mixed_mds.json", "euclid"), ("gf5_self_dual_line.json", "euclid"),
     ("gf9_twisted_hull.json", "euclid"), ("gf9_twisted_hull.json", "galois")],
)
def test_construct_builds_one_gram_per_code_object_and_twist(name, mode, kernel_work, tmp_path, capsys):
    argv = ["construct-lcd", str(SAMPLES[0].parent / name), "--mode", mode, "--json", "-"]
    argv += ["--l", "1"] if mode == "galois" else []
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 0
    out = capsys.readouterr().out
    scaled = sum(c is not None for c in json.loads(out[out.index("\n{") + 1 :])["components"])
    # the four input components and each scaled component's output; the
    # assembled code reuses those objects, and construct builds no P itself
    builds = code_builds(kernel_work)
    assert len(set(builds)) == len(builds) == 4 + scaled
    assert len(split_eliminations(kernel_work)[0]) == len(builds)
    assert len(builds) == len(kernel_work.grams)  # no Gram product outside FqCode


@pytest.mark.parametrize(
    "name,mode",
    [("gf5_self_dual_line.json", "euclid"), ("gf9_twisted_hull.json", "galois")],
)
def test_construct_checks_every_matrix_it_builds(name, mode, monkeypatch, tmp_path, capsys):
    """construct-lcd builds a Matrix for each parsed component and for each scaled component's k x k P,
    and every one of them runs the constructor's checks."""
    path = SAMPLES[0].parent / name
    comps = parse_code(path.read_text()).comps
    checked = []
    real = Matrix.__post_init__

    def counted(self):
        checked.append(self.nrows)
        real(self)

    monkeypatch.setattr(Matrix, "__post_init__", counted)
    argv = ["construct-lcd", str(path), "--mode", mode, "--json", "-"]
    argv += ["--l", "1"] if mode == "galois" else []
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 0
    out = capsys.readouterr().out
    certs = json.loads(out[out.index("\n{") + 1 :])["components"]
    scaled = [c.k for c, cert in zip(comps, certs) if cert is not None]
    assert scaled
    assert checked == [len(rows) for rows in json.loads(path.read_text())["components"]] + scaled


GF16_FILE = {"field": {"p": 2, "e": 4}, "n": 2, "components": [[[1, 7]], [], [[1, 1]], [[0, 1]]]}


@pytest.mark.parametrize("sample", [*SAMPLES, "gf16"], ids=lambda p: getattr(p, "name", p))
def test_verify_eliminations_do_not_depend_on_e(sample, kernel_work, tmp_path, capsys):
    if sample == "gf16":
        sample = tmp_path / "gf16.json"
        sample.write_text(json.dumps(GF16_FILE))
    assert main(["verify", str(sample)]) == 0
    # 4 parse passes, one kernel (1 reduction pass) per component and one for
    # the gray image; every twist reads the same kernels, and a pass
    # eliminates exactly when its rows are not already reduced
    assert len(kernel_work.spans) == 9
    assert split_eliminations(kernel_work)[1] == ["_reduced"] * kernel_work.unreduced()


def _sample_path(sample, tmp_path):
    """A sample file's path; "gf16" writes ``GF16_FILE`` (e = 4) under ``tmp_path``."""
    if sample != "gf16":
        return sample
    path = tmp_path / "gf16.json"
    path.write_text(json.dumps(GF16_FILE))
    return path


@pytest.mark.parametrize("sample", [*SAMPLES, "gf16"], ids=lambda p: getattr(p, "name", p))
def test_verify_builds_the_wide_dual_once(sample, monkeypatch, tmp_path, capsys):
    """One l = 0 comparison decides every ``l=… expansion of dual`` line: verify expands the code and
    its Euclidean dual, and takes the 4n-wide image's dual once."""
    sample = _sample_path(sample, tmp_path)
    n = parse_code(sample.read_text()).n
    images, wide_duals = [], []
    real_image, real_dual = RCode.gray_image, FqCode.galois_dual

    def image(self):
        images.append(self.k)
        return real_image(self)

    def dual(self, l=0):
        if self.n == 4 * n:
            wide_duals.append(l)
        return real_dual(self, l)

    monkeypatch.setattr(RCode, "gray_image", image)
    monkeypatch.setattr(FqCode, "galois_dual", dual)
    assert main(["verify", str(sample)]) == 0
    assert "all checks agree" in capsys.readouterr().out
    assert len(images) == 2
    assert wide_duals == [0]


@pytest.mark.parametrize(
    "sample", [SAMPLE_DIR / "gf5_self_dual_line.json", SAMPLE_DIR / "gf9_twisted_hull.json", "gf16"],
    ids=lambda p: getattr(p, "name", p),
)
def test_verify_reports_a_wrong_expansion_of_the_dual(sample, monkeypatch, tmp_path, capsys):
    """A wide dual with two columns swapped fails the expansion-of-dual line at every twist, and no other.

    gf4_mixed_mds is left out: its duals read the same with columns 0 and 4 swapped."""
    sample = _sample_path(sample, tmp_path)
    code = parse_code(sample.read_text())
    real = FqCode.galois_dual

    def swapped(self, l=0):
        if self.n != 4 * code.n:
            return real(self, l)
        rows = [list(r) for r in real(self, l).rows]
        for r in rows:
            r[0], r[4] = r[4], r[0]
        return FqCode.from_rows(self.field, self.n, rows)

    monkeypatch.setattr(FqCode, "galois_dual", swapped)
    assert main(["verify", str(sample)]) == 3
    out = capsys.readouterr().out
    e = code.field.e
    assert [line for line in out.splitlines() if "MISMATCH" in line] == [
        f"l={l} expansion of dual: MISMATCH" for l in range(e)
    ]
    assert f"{e} check(s) failed" in out
