"""Command parsing, execution, report emission, exit codes, and the schema."""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fricke import braid, cli, groebner as gb
from fricke.charvariety import V_VARS, TracePoint, classify
from fricke.exactalg import parse_polynomial

from conftest import random_traceless_matrix

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report-schema.json"
SRC = Path(__file__).resolve().parents[1] / "src"
# text over the braid-word alphabet and its neighbours, drawn both by
# character and by whole letters, so that some of it parses
GENS_TEXT = st.text(alphabet="tT0123x^;", max_size=8) | st.lists(
    st.sampled_from(("t1", "T1", "t2", "T2", "t3", "T3", ";", "t", "0", "x^")), max_size=4,
).map("".join)
COMMUTING_RESIDUES = {
    "X": [
        [[1 / 6, 0], [0, 0], [0, 0], [-1 / 6, 0]],
        [[-1 / 6, 0], [0, 0], [0, 0], [1 / 6, 0]],
        [[0, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [0, 0], [0, 0]],
    ]
}

# comma-separated trace tokens: rationals, tokens the parser must refuse
# (1/0, 1.5, nan, empty) and huge integers
NUMBER_TOKENS = st.integers(-3, 3).map(str) | st.fractions(-3, 3, max_denominator=4).map(str)
ODD_TOKENS = st.sampled_from(("1/0", "0/0", "1.5", "nan", "inf", "", " ", "x", "+1", "1/-2",
                              str(10**40), str(-10**40)))
CAP_TEXT = st.integers(-2, 50).map(str) | st.sampled_from(("", "x", "1.5", "1e2"))
# points of the variety, so that some fuzzed runs classify and search an orbit
VARIETY_POINTS = (("1,-1,-1,-1", "0,1,0"), ("2,2,2,2", "2,2,2"), ("-2,-2,-2,-2", "1,2,3"),
                  ("-3/2,-3/2,-1,1", "1,0,0"), ("0,0,0,0", "6/5,8/5,0"), ("4,2,2,10", "6,3,5"))
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
# at most 12 leaves: a residue tuple needs 32 numbers, so none of these is one
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=5)
                           | st.dictionaries(st.sampled_from(("X", "Y", "")), inner, max_size=3),
                           max_leaves=12)
NOT_A_LIST = JSON_VALUES.filter(lambda value: not isinstance(value, list))


@st.composite
def malformed_residues(draw):
    """The JSON of a residue tuple with one fault: at the top, in ``X``, in a
    matrix, in an ``[re, im]`` entry, or a number that is no finite float."""
    pair = st.lists(st.integers(-2, 2) | st.floats(-2, 2), min_size=2, max_size=2)
    mats = draw(st.lists(st.lists(pair, min_size=4, max_size=4), min_size=4, max_size=4))
    i, j, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 1))
    wrong_length = st.lists(JSON_VALUES, max_size=6)
    fault = draw(st.sampled_from(("top", "key", "X", "matrix", "entry", "number")))
    if fault == "top":
        return draw(JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
    if fault == "key":
        return {"Y": mats}
    if fault == "X":
        return {"X": draw(NOT_A_LIST | wrong_length.filter(lambda m: len(m) != 4))}
    if fault == "matrix":
        mats[i] = draw(NOT_A_LIST | wrong_length.filter(lambda m: len(m) != 4))
    elif fault == "entry":
        not_a_number = st.none() | st.booleans() | st.text(max_size=2) | st.lists(st.integers(), max_size=2)
        mats[i][j] = draw(NOT_A_LIST | wrong_length.filter(lambda m: len(m) != 2)
                          | st.lists(not_a_number, min_size=2, max_size=2))
    else:
        mats[i][j][k] = draw(st.sampled_from((float("nan"), float("inf"), -float("inf"), 10**400)))
    return {"X": mats}


@st.composite
def trace_argv(draw):
    """``classify`` or ``orbit`` argv whose ``--a``/``--v`` (either may be
    missing) and orbit ``--cap`` (at most 50) are fuzzed text, or a point of
    the variety; a value in its own argv item that starts with ``-`` is one
    argparse refuses."""
    command = draw(st.sampled_from(("classify", "orbit")))
    argv = [command]
    point = draw(st.none() | st.sampled_from(VARIETY_POINTS))
    tokens = draw(st.sampled_from((NUMBER_TOKENS, NUMBER_TOKENS | ODD_TOKENS)))
    for k, (flag, count) in enumerate((("--a", 4), ("--v", 3))):
        if point:
            text = point[k]
        elif draw(st.integers(0, 5)):
            size = draw(st.sampled_from((count, count, count, count - 1, count + 1, 0)))
            text = ",".join(draw(st.lists(tokens, min_size=size, max_size=size)))
        else:
            continue
        argv += draw(st.sampled_from(([f"{flag}={text}"], [flag, text])))
    if command == "orbit":
        argv.append(f"--cap={draw(CAP_TEXT)}")
    return argv


LETTERS = ("t1", "T1", "t2", "T2", "t3", "T3")
# at most two generators of at most two letters each, and text that is no word
GENS_ARGV = st.lists(st.lists(st.sampled_from(LETTERS), max_size=2).map("".join),
                     min_size=1, max_size=2).map(";".join) | st.sampled_from(("", ";", "t4", "x"))
# complex text as the CLI reads it (``i`` or ``j``), and text it must refuse
# or that names a puncture, a far point or an overflow
T_TEXT = st.builds(lambda x, y, unit: f"{x}{y:+}{unit}", st.floats(-3, 3), st.floats(-3, 3),
                   st.sampled_from("ij")) | st.floats(-3, 3).map(str) | st.sampled_from(
    ("0", "1", "1e-300", "1+1e-9j", "nan", "inf", "x", "", "1e154", "-2-2i"))
TOL_TEXT = st.floats(1e-12, 1e-2).map(str) | st.floats().map(str) | st.sampled_from(
    ("1e-300", "0", "-1", "x", ""))
# polynomials in th1..th4 with exponents at most 3, and text that is none
TERMS = st.builds(lambda c, pairs: "*".join([c] + [f"th{i}^{e}" for i, e in pairs]),
                  NUMBER_TOKENS, st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                                          max_size=3))
MEMBER_TEXT = st.lists(TERMS, min_size=1, max_size=3).map(" + ".join) | st.sampled_from(
    ("", "th5", "th1^", "th1 th2", "(th1", "1/0"))


@st.composite
def other_argv(draw):
    """``fixed-points``, ``holonomy`` (on the file ``RESIDUES``), ``pvi-params``
    or ``family-check`` argv, with every value fuzzed text or missing."""
    command = draw(st.sampled_from(("fixed-points", "holonomy", "pvi-params", "family-check")))
    tokens = draw(st.sampled_from((NUMBER_TOKENS, NUMBER_TOKENS | ODD_TOKENS)))
    four = st.sampled_from((4, 4, 4, 3, 5)).flatmap(
        lambda n: st.lists(tokens, min_size=n, max_size=n)).map(",".join)
    values = {
        "fixed-points": [("--a", four), ("--gens", GENS_ARGV)],
        "holonomy": [("--residues", st.just("RESIDUES")), ("--t", T_TEXT), ("--tol", TOL_TEXT)],
        "pvi-params": [("--theta", four)],
        "family-check": [("--theta0", four), ("--member", MEMBER_TEXT), ("--member", MEMBER_TEXT),
                         ("--family", st.sampled_from(("tetrahedral-two-point",) * 3 + ("none",)))],
    }[command]
    argv = [command]
    for flag, text in values:
        if draw(st.integers(0, 5)) < 5:  # a flag is left out one time in six
            value = draw(text)
            argv += draw(st.sampled_from(([f"{flag}={value}"], [flag, value])))
    return argv


def run_main(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = cli.main(argv)
        finally:
            sys.stdin = old
    else:
        code = cli.main(argv)
    return code


@functools.cache
def schema_validator():
    """One validator for the report schema, checked against its metaschema once
    (``jsonschema.validate`` repeats that check on every call)."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    validator_class = jsonschema.validators.validator_for(schema)
    validator_class.check_schema(schema)
    return validator_class(schema)


def validate_schema(report: dict):
    schema_validator().validate(report)


def assert_one_report(argv):
    """One run of ``main`` gives exit 0, 1 or 2 and one schema-valid report
    on stdout, with nothing on stderr; returns the report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    assert (code, report["status"]) in ((0, "ok"), (1, "cap-exceeded"), (2, "error")), report
    assert "Traceback" not in report.get("message", "") and not err.getvalue()
    validate_schema(report)
    return report


class TestParseCommand:
    def test_classify(self):
        args = cli.parse_command(["classify", "--a", "1,-1,-1,-1", "--v", "0,1,0"])
        assert args.subcommand == "classify"
        assert args.a == "1,-1,-1,-1" and args.v == "0,1,0"

    def test_orbit(self):
        args = cli.parse_command(["orbit", "--a", "2,2,2,2", "--v", "2,2,2", "--cap", "10"])
        assert args.subcommand == "orbit" and args.cap == 10

    def test_fixed_ideal(self):
        args = cli.parse_command(["fixed-ideal", "--gens", "t2;t1t1;t3t3"])
        assert args.subcommand == "fixed-ideal"
        assert args.gens == "t2;t1t1;t3t3"

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.parse_command(["frobnicate"])


class TestExecute:
    def test_classify_tetrahedral(self):
        args = cli.parse_command(["classify", "--a", "1,-1,-1,-1", "--v", "0,1,0"])
        report = cli.execute(args)
        assert report["status"] == "ok"
        assert report["result"]["class"] == "SU2"
        assert report["result"]["on_variety"] is True
        validate_schema(report)

    def test_classify_off_variety_is_an_error(self, capsys):
        code = run_main(["classify", "--a", "0,0,0,0", "--v", "1,0,0"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["status"] == "error"
        assert "not on the variety" in report["message"]
        validate_schema(report)

    def test_orbit_two_points(self):
        args = cli.parse_command(["orbit", "--a", "1,-1,-1,-1", "--v", "0,1,0", "--cap", "100"])
        report = cli.execute(args)
        assert report["status"] == "ok"
        assert report["result"]["size"] == 2
        assert report["result"]["status"] == "complete"
        assert report["result"]["points"] == [["0", "-1", "0"], ["0", "1", "0"]]
        validate_schema(report)

    def test_fixed_points_classifies_solutions(self):
        args = cli.parse_command(
            ["fixed-points", "--a", "1,-1,-1,-1", "--gens", "t2;t1t1;t3t3"]
        )
        report = cli.execute(args)
        solutions = report["result"]["solutions"]
        assert len(solutions) == 2
        assert all(s["class"] == "SU2" for s in solutions)
        assert sorted(s["v"][1] for s in solutions) == ["-1", "1"]
        validate_schema(report)

    def test_fixed_ideal_round_trips_through_parser(self):
        args = cli.parse_command(["fixed-ideal", "--gens", "t2;t1t1;t3t3"])
        report = cli.execute(args)
        generators = report["result"]["generators"]
        assert generators
        for text in generators:
            poly = parse_polynomial(text, report["result"]["order"]["variables"])
            assert str(poly) == text
        validate_schema(report)

    def test_fixed_ideal_report_is_semantically_faithful(self):
        from fricke import braid, groebner as gb

        args = cli.parse_command(["fixed-ideal", "--gens", "t2;t1t1;t3t3"])
        report = cli.execute(args)
        variables = tuple(report["result"]["order"]["variables"])
        rebuilt = gb.Ideal(
            tuple(parse_polynomial(t, variables) for t in report["result"]["generators"]),
            variables,
        )
        basis = braid.fixed_ideal(braid.SubgroupSpec.parse(["t2", "t1t1", "t3t3"]))
        assert gb.ideal_equal(rebuilt, basis.as_ideal())

    def test_pvi_params(self):
        args = cli.parse_command(["pvi-params", "--theta", "1/3,2/3,2/3,2/3"])
        report = cli.execute(args)
        assert report["result"]["r"] == ["1/18", "-1/18", "2/9", "5/18"]
        validate_schema(report)

    def test_family_check(self):
        args = cli.parse_command([
            "family-check", "--theta0", "1/3,2/3,2/3,2/3",
            "--member", "0 - th2^2 + th3^2",
            "--family", "tetrahedral-two-point",
        ])
        report = cli.execute(args)
        assert report["result"]["membership"]["0 - th2^2 + th3^2"] is True
        family = report["result"]["family"]
        assert family["members_of_strict_ideal"] == [True, True]
        assert family["vanish_at_theta0"] == [True, True]
        validate_schema(report)

    @pytest.mark.parametrize("gens, a, expected", [
        ("t1t2", "1,2,-3,-3", {("1", "-3", "-3")}),
        ("T1t2t3", "-1,-1,-1,0", {("1", "-1", "1")}),
    ])
    def test_fixed_points_a_lex_basis_could_not_reach(self, capsys, gens, a, expected):
        # a lex basis of these systems ran past 150 s (t1t2) or past the
        # degree cap (T1t2t3).  A root of multiplicity m lists its point m
        # times, so the points are compared as a set.
        assert run_main(["fixed-points", "--gens", gens, f"--a={a}"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_schema(report)
        subgroup = braid.SubgroupSpec.parse(gens.split(";"))
        boundary = tuple(map(Fraction, a.split(",")))
        generators = braid.fixed_ideal_generators(subgroup, boundary)
        solutions = report["result"]["solutions"]
        for solution in solutions:
            v = tuple(map(Fraction, solution["v"]))
            point = TracePoint(boundary, v)
            assert all(g.evaluate(dict(zip(V_VARS, v))) == 0 for g in generators)
            assert all(braid.apply_word(word, point) == point for word in subgroup.generators)
            assert solution == {"point": point.to_json(), "on_variety": True,
                                **classify(point).to_json(), "v": solution["v"]}
        assert {tuple(s["v"]) for s in solutions} == expected

    def test_holonomy_from_file(self, tmp_path):
        path = tmp_path / "residues.json"
        path.write_text(json.dumps(COMMUTING_RESIDUES))
        args = cli.parse_command(["holonomy", "--residues", str(path), "--t", "0.5"])
        report = cli.execute(args)
        assert report["status"] == "ok"
        assert abs(report["result"]["a"][0][0] - 1) < 1e-8
        assert report["result"]["fricke_residual"] < 1e-8
        assert report["result"]["class"]["class"] == "SU2"
        validate_schema(report)


class TestMainAndExitCodes:
    def test_ok_exit_code(self, capsys):
        code = run_main(["classify", "--a", "2,2,2,2", "--v", "2,2,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_error_exit_code(self, capsys):
        code = run_main(["classify", "--a", "1,2", "--v", "0,1,0"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["status"] == "error"
        assert "--a" in report["message"]
        validate_schema(report)

    def test_cap_exceeded_exit_code(self, capsys):
        code = run_main(["orbit", "--a", "0,0,0,0", "--v", "6/5,8/5,0", "--cap", "5"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["status"] == "cap-exceeded"
        assert report["result"]["status"] == "cap-exceeded"
        validate_schema(report)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fixed-ideal", "--gens", "t2;t1t1;t3t3"],
            ["fixed-points", "--a", "1,-1,-1,-1", "--gens", "t2;t1t1;t3t3"],
        ],
        ids=["fixed-ideal", "fixed-points"],
    )
    @pytest.mark.parametrize(
        "error, code, status",
        [
            (gb.ResourceCapError("S-pair budget of 1 exceeded"), 1, "cap-exceeded"),
            (gb.GroebnerError("coefficient too large for rational root search"), 2, "error"),
        ],
        ids=["cap", "other"],
    )
    def test_groebner_cap_exit_code(self, capsys, monkeypatch, argv, error, code, status):
        def raise_error(*args, **kwargs):
            raise error

        monkeypatch.setattr(gb, "groebner_basis", raise_error)
        assert run_main(argv) == code
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == status
        assert report["result"] is None
        assert report["message"] == str(error)
        validate_schema(report)

    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (["fixed-ideal", "--gens", "t2;t1t1;t3t3"], {"gens": "t2;t1t1;t3t3"}),
            (["fixed-points", "--a", "1,-1,-1,-1", "--gens", "t1;t2"],
             {"a": "1,-1,-1,-1", "gens": "t1;t2"}),
        ],
        ids=["fixed-ideal", "fixed-points"],
    )
    def test_cap_report_keeps_inputs(self, capsys, monkeypatch, argv, inputs):
        def raise_cap(*args, **kwargs):
            raise gb.ResourceCapError("S-pair budget of 1 exceeded")

        monkeypatch.setattr(gb, "groebner_basis", raise_cap)
        monkeypatch.setattr(gb, "solve_zero_dimensional", raise_cap)
        assert run_main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "cap-exceeded"
        assert report["inputs"] == inputs
        validate_schema(report)

    def test_error_report_keeps_inputs(self, capsys):
        assert run_main(["orbit", "--a", "x,0,0,0", "--v", "2,0,0"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"] == {"a": "x,0,0,0", "v": "2,0,0", "cap": 10000}
        validate_schema(report)

    @pytest.mark.parametrize(
        "argv, key, value, message",
        [
            (["orbit", "--a", "2,2,2,2", "--v", "2,2,2", "--cap", "0"], "cap", 0,
             "orbit cap must be positive"),
            (["holonomy", "--residues", "RESIDUES", "--t", "0.5", "--tol", "0"], "tol", 0.0,
             "tolerance must be positive"),
        ],
        ids=["orbit-cap", "holonomy-tol"],
    )
    def test_error_report_keeps_rejected_zero(self, capsys, tmp_path, argv, key, value, message):
        path = tmp_path / "residues.json"
        path.write_text(json.dumps({"X": [[[0, 0]] * 4] * 4}))
        argv = [str(path) if arg == "RESIDUES" else arg for arg in argv]
        assert run_main(argv) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["message"] == message
        assert report["inputs"][key] == value
        validate_schema(report)

    def test_holonomy_lost_precision_report(self, capsys, tmp_path):
        # strongly non-unitary residues: the transported entries reach about
        # 2.6e10 and the det, which should be 1, is about 1e-16 of their square,
        # so it is rounding noise; it used to end in numpy's "Singular matrix"
        rng = random.Random(169)
        X = [random_traceless_matrix(rng, 1.5) for _ in range(3)]
        X.append(-(X[0] + X[1] + X[2]))
        path = tmp_path / "residues.json"
        path.write_text(json.dumps({"X": [[[z.real, z.imag] for z in m.flat] for m in X]}))
        assert run_main(["holonomy", "--residues", str(path), "--t", "0.5", "--tol", "1e-8"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["message"].startswith("monodromy lost all precision to rounding")
        validate_schema(report)

    def test_byte_identical_reports(self, capsys):
        argv = ["fixed-ideal", "--gens", "t2"]
        run_main(argv)
        first = capsys.readouterr().out
        run_main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_text_format(self, capsys):
        code = run_main(["classify", "--a", "2,2,2,2", "--v", "2,2,2", "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: ok" in out and "class: SU2" in out

    def test_stdin_batch_mode(self, capsys):
        lines = "\n".join([
            json.dumps({"a": ["1", "-1", "-1", "-1"], "v": ["0", "1", "0"]}),
            json.dumps({"a": ["2", "2", "2", "2"], "v": ["2", "2", "2"]}),
            "",
        ])
        code = run_main(["classify", "--stdin"], stdin_text=lines)
        out_lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert code == 0
        assert len(out_lines) == 2
        for line in out_lines:
            report = json.loads(line)
            assert report["result"]["class"] == "SU2"

    def test_stdin_batch_bad_line(self, capsys):
        code = run_main(["classify", "--stdin"], stdin_text="not json\n")
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["status"] == "error"

    def test_stdin_bad_line_keeps_its_line(self, capsys):
        good = json.dumps({"a": ["2", "2", "2", "2"], "v": ["2", "2", "2"]})
        off = json.dumps({"a": ["0", "0", "0", "0"], "v": ["1", "0", "0"]})
        code = run_main(["classify", "--stdin"], stdin_text=f"{good}\nnot json\n{off}\n")
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 2
        assert [r["status"] for r in reports] == ["ok", "error", "error"]
        assert [r["inputs"] for r in reports] == [{"line": good}, {"line": "not json"},
                                                  {"line": off}]
        for report in reports:
            validate_schema(report)

    @pytest.mark.parametrize("argv, message", [
        (["orbit", "--cap", "x"], "argument --cap: invalid int value: 'x'"),
        (["classify", "--a", "-1,1,1,1", "--v", "0,1,0"], "argument --a: expected one argument"),
        (["orbit"], "the following arguments are required: --a, --v"),
        (["family-check", "--theta0=0,0,0,0", "--family=none"],
         "argument --family: invalid choice: 'none' (choose from 'tetrahedral-two-point')"),
        (["orbit", "--a=2,2,2,2", "--v=2,2,2", "--bogus"], "unrecognized arguments: --bogus"),
        (["--bogus", "pvi-params", "--theta=0,0,0,0"], "unrecognized arguments: --bogus"),
    ], ids=["bad-int", "dash-value", "missing", "bad-choice", "unknown-flag", "flag-before"])
    def test_argparse_refusal_is_an_error_report(self, capsys, argv, message):
        assert run_main(argv) == 2
        out, err = capsys.readouterr()
        report = json.loads(out)
        command = next(arg for arg in argv if not arg.startswith("-"))
        assert report == {"status": "error", "command": command, "inputs": {"argv": argv},
                          "result": None, "message": message}
        assert not err
        validate_schema(report)

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["orbit", "--help"], 0), (["frobnicate"], 2), ([], 2),
    ])
    def test_help_and_unknown_subcommand_keep_argparse_text(self, capsys, argv, code):
        # a report must name a known command, so these keep argparse's text
        assert run_main(argv) == code
        out, err = capsys.readouterr()
        assert "usage: fricke" in (err if code else out)
        assert not (out if code else err)

    @pytest.mark.parametrize("flags", [
        ["--a", "1,-1,-1,-1", "--v", "0,1,0"], ["--a=1,-1,-1,-1"], ["--v=0,1,0"],
        ["--format", "text"],
    ], ids=["a-and-v", "a", "v", "text"])
    def test_stdin_refuses_a_point_or_text_format(self, capsys, flags):
        line = json.dumps({"a": ["2", "2", "2", "2"], "v": ["2", "2", "2"]})
        assert run_main(["classify", "--stdin", *flags], stdin_text=line + "\n") == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["status"] == "error" and report["result"] is None
        assert report["message"] == ("--stdin reads its points from standard input and writes "
                                     "JSON lines; it takes no --a, --v or --format text")
        validate_schema(report)

    def test_orbit_off_variety_message_names_the_cubic_value(self, capsys):
        assert run_main(["orbit", "--a=1/2,0,0,0", "--v=0,0,0"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["message"] == "point is not on the variety (cubic value -15/4)"
        validate_schema(report)

    def test_bad_rational_reports_flag(self, capsys):
        code = run_main(["orbit", "--a", "x,0,0,0", "--v", "2,0,0"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and "--a" in report["message"]

    @pytest.mark.parametrize(
        "flags, residues, message, echoed",
        [
            (["--t", "0.5", "--tol", "nan"], COMMUTING_RESIDUES,
             "tolerance must be finite, got nan", {"t": "0.5", "tol": "nan"}),
            (["--t", "0.5", "--tol", "inf"], COMMUTING_RESIDUES,
             "tolerance must be finite, got inf", {"t": "0.5", "tol": "inf"}),
            (["--t", "nan"], COMMUTING_RESIDUES,
             "puncture position t=(nan+0j) is not finite", {"t": "nan", "tol": 1e-10}),
            (["--t", "0.5"], {"X": [[[float("nan"), 0]] + [[0, 0]] * 3] + COMMUTING_RESIDUES["X"][1:]},
             "residue 1 has a non-finite entry", {"t": "0.5", "tol": 1e-10}),
        ],
        ids=["tol-nan", "tol-inf", "t-nan", "residue-nan"],
    )
    def test_non_finite_holonomy_input_is_an_error_report(self, capsys, tmp_path, flags,
                                                          residues, message, echoed):
        path = tmp_path / "residues.json"
        path.write_text(json.dumps(residues))  # json writes a NaN entry as NaN, which json reads
        assert run_main(["holonomy", "--residues", str(path), *flags]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert report["message"] == message
        assert report["inputs"] == {"residues": str(path)} | echoed
        validate_schema(report)

    def test_stdin_valid_line_report_is_pinned(self, capsys):
        line = '{"a":["1","-1","-1","-1"],"v":[0,1,"0"]}'
        assert run_main(["classify", "--stdin"], stdin_text=line + "\n") == 0
        assert capsys.readouterr().out == (
            '{"status": "ok", "command": "classify", "inputs": {"line": '
            '"{\\"a\\":[\\"1\\",\\"-1\\",\\"-1\\",\\"-1\\"],\\"v\\":[0,1,\\"0\\"]}"}, '
            '"result": {"point": {"a": ["1", "-1", "-1", "-1"], "v": ["0", "1", "0"]}, '
            '"on_variety": true, "class": "SU2", "real": true, "box": true, "overlap": true}}\n'
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"a":"1111","v":[0,0,0]}', "trace point key 'a' must be an array"),
            ('{"a":[1,1,1,1],"v":"000"}', "trace point key 'v' must be an array"),
            ('{"a":[1,1,1,1]}', "trace point has no key 'v'"),
            ('{"v":[0,0,0]}', "trace point has no key 'a'"),
            ("[1,2]", "a trace point must be a JSON object with arrays 'a' and 'v'"),
            ('"a"', "a trace point must be a JSON object with arrays 'a' and 'v'"),
            ('{"a":[1,1,1,1],"v":[0.5,0,0]}',
             "bad entry in trace point key 'v': not a rational literal: '0.5'"),
        ],
        ids=["a-string", "v-string", "no-v", "no-a", "array", "string", "float-entry"],
    )
    def test_stdin_loose_line_names_the_key(self, capsys, line, message):
        assert run_main(["classify", "--stdin"], stdin_text=line + "\n") == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert report["message"] == message
        validate_schema(report)

    @pytest.mark.parametrize(
        "residues, message",
        [
            ({"Y": []}, "residue tuple has no key 'X'"),
            ([1], "a residue tuple must be a JSON object with an array 'X' of four matrices"),
            ({"X": [[1]] * 4}, "bad matrix 1 in residue tuple key 'X': a 2x2 matrix needs "
             "exactly four [re, im] entries (row-major)"),
            ({"X": COMMUTING_RESIDUES["X"][:3]}, "residue tuple key 'X' must be an array of four matrices"),
            ({"X": COMMUTING_RESIDUES["X"][:3] + [[[0, 0]] * 3 + [[1]]]},
             "bad matrix 4 in residue tuple key 'X': entry 4 is not a pair [re, im] of numbers"),
            ({"X": COMMUTING_RESIDUES["X"][:3] + [[[0, 0]] * 2 + [["0", 0], [0, 0]]]},
             "bad matrix 4 in residue tuple key 'X': entry 3 is not a pair [re, im] of numbers"),
            ({"X": COMMUTING_RESIDUES["X"][:3] + [[[0, 0]] * 2 + [[0, True], [0, 0]]]},
             "bad matrix 4 in residue tuple key 'X': entry 3 is not a pair [re, im] of numbers"),
            ({"X": COMMUTING_RESIDUES["X"][:3] + [[[0, 0]] * 3 + [[0, 10**400]]]},
             "bad matrix 4 in residue tuple key 'X': entry 4 has a number too large for a float"),
        ],
        ids=["no-X", "array", "matrix-short", "three-matrices", "entry-short", "string-number",
             "bool-number", "huge-number"],
    )
    def test_malformed_residues_name_the_fault(self, capsys, tmp_path, residues, message):
        path = tmp_path / "residues.json"
        path.write_text(json.dumps(residues))
        assert run_main(["holonomy", "--residues", str(path), "--t", "0.5"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert report["message"] == message
        validate_schema(report)

    @settings(max_examples=150)
    @given(JSON_VALUES | malformed_residues())
    def test_holonomy_residues_fuzz_gives_an_error_report(self, tmp_path_factory, residues):
        path = tmp_path_factory.getbasetemp() / "fuzzed-residues.json"
        path.write_text(json.dumps(residues))  # a NaN or inf is written in the form json reads
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["holonomy", "--residues", str(path), "--t", "0.5"])
        report = json.loads(out.getvalue())
        assert (code, report["status"]) == (2, "error"), report
        assert report["message"] and "Traceback" not in report["message"] and not err.getvalue()
        validate_schema(report)

    @settings(max_examples=60)
    @given(GENS_TEXT)
    def test_fixed_ideal_gens_fuzz_gives_a_report(self, gens):
        # a word of five characters holds at most two letters; three-letter
        # words can take seconds of Groebner work each
        assume(all(len(word) <= 5 for word in gens.split(";")))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["fixed-ideal", "--gens", gens])
        report = json.loads(out.getvalue())
        assert (code, report["status"]) in ((0, "ok"), (2, "error"))
        assert report["inputs"] == {"gens": gens}
        validate_schema(report)

    @settings(max_examples=200)
    @given(trace_argv())
    @example(["classify", "--a=2,2,2,2", "--v=2,2,2"])
    @example(["classify", "--a", "-1,1,1,1", "--v", "0,1,0"])
    @example(["orbit", "--a=1,-1,-1,-1", "--v=0,1,0", "--cap=50"])
    @example(["orbit", "--a=-2,-2,-2,-2", "--v=1,2,3", "--cap=4"])
    def test_trace_argv_fuzz_gives_a_report(self, argv):
        assert_one_report(argv)

    @settings(max_examples=200)
    @given(other_argv())
    @example(["fixed-points", "--a=1,-1,-1,-1", "--gens=t2;t1t1"])
    @example(["holonomy", "--residues=RESIDUES", "--t=1e154"])
    @example(["pvi-params", "--theta", "-1/2,1,1,1"])
    @example(["family-check", "--theta0=1/3,2/3,2/3,2/3", "--member=th1^2", "--family=none"])
    def test_other_argv_fuzz_gives_a_report(self, tmp_path_factory, argv):
        path = tmp_path_factory.getbasetemp() / "commuting-residues.json"
        path.write_text(json.dumps(COMMUTING_RESIDUES))
        report = assert_one_report([arg.replace("RESIDUES", str(path)) for arg in argv])
        if argv[-1] == "--t=1e154":
            assert report["message"] == "puncture position t=(1e+154+0j) is too large for float arithmetic"


# strings as orbit points hold them, and strings the C encoder must escape
# (quotes, backslashes, controls, non-ASCII, lone surrogates)
POINT_STRINGS = st.text(max_size=3) | st.sampled_from(
    ("0", "-1", "1/4", "-12/7", '"', "\\", "\n\t", "\u00e9", "\ud800"))
STRING_ROWS = st.lists(st.lists(POINT_STRINGS, max_size=4), max_size=5)
# report-shaped nests: dicts with string keys (and some keys json.dumps must
# convert or refuse) over JSON values and arrays of string arrays
RENDER_VALUES = st.recursive(
    JSON_VALUES | STRING_ROWS,
    lambda inner: st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.none() | st.booleans() | st.integers() | st.floats(), inner, max_size=2)
    | st.lists(inner, max_size=3),
    max_leaves=10,
)


def rendered_or_error(render, value):
    try:
        return render(value)
    except Exception as err:  # noqa: BLE001 - the exception type is compared
        return type(err)


class TestReportRendering:
    """``emit_report`` lays out JSON itself; it must give ``json.dumps``'s text."""

    @staticmethod
    def dumps(value):
        return json.dumps(value, indent=2, allow_nan=False)

    @staticmethod
    def render(value, indent=""):
        return "".join(cli._render_json(value, indent, []))

    @settings(max_examples=300)
    @given(RENDER_VALUES)
    @example(float("nan"))
    @example({"x": [1.5, float("inf")], "y": -float("inf")})
    @example({"pair": (1, ["2"]), "rows": (["3"],)})  # tuples are arrays to json
    def test_renderer_matches_json_dumps(self, value):
        assert rendered_or_error(self.render, value) == rendered_or_error(self.dumps, value)

    @given(STRING_ROWS, st.sampled_from(("", "  ", "    ")))
    def test_string_rows_match_json_dumps_at_any_depth(self, rows, indent):
        want = self.dumps(rows).replace("\n", "\n" + indent)
        assert self.render(rows, indent) == want

    @pytest.mark.parametrize("argv, status", [
        (["orbit", "--a=-2,-2,-2,-2", "--v=1,2,3", "--cap", "4"], "cap-exceeded"),
        (["orbit", "--a=-2,-2,-2,-2", "--v=1,2,3", "--cap", "200"], "cap-exceeded"),
        (["orbit", "--a", "1,-1,-1,-1", "--v", "0,1,0"], "ok"),
        (["orbit", "--a=-3/2,-3/2,-1,1", "--v=1,0,0"], "ok"),
        (["classify", "--a", "2,2,2,2", "--v", "2,2,2"], "ok"),
        (["fixed-points", "--gens", "t2;t1t1;t3t3", "--a=-3,-3,2,2"], "ok"),
        (["family-check", "--theta0", "1/3,2/3,2/3,2/3", "--family", "tetrahedral-two-point",
          "--member", "th1^2"], "ok"),
    ])
    def test_json_report_is_json_dumps(self, capsys, argv, status):
        report = cli.execute(cli.parse_command(argv))
        assert report["status"] == status
        assert cli.emit_report(report, "json") == json.dumps(report, indent=2)
        run_main(argv)
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"

    def test_orbit_json_is_pinned(self, capsys):
        # the report the json.dumps renderer printed for this command
        code = run_main(["orbit", "--a=-2,-2,-2,-2", "--v=1,2,3", "--cap", "4"])
        out = capsys.readouterr().out.encode()
        assert code == 1
        assert hashlib.sha256(out).hexdigest() == (
            "805a143e918b8838e0f602a3679cd058e82cfb086fa6d1d6f4a4bbbae7f6a59f")

    @pytest.mark.parametrize("argv, flags, digest", [
        (["classify", "--a", "1,-1,-1,-1", "--v", "0,1,0"], ("SU2", True, True),
         "d663112f27e0fbb38179b912875889297298133f57e675bf5434db9c2359df99"),
        (["classify", "--a", "2,2,2,2", "--v", "2,2,2"], ("SU2", True, True),
         "2a69e791d18cb6778c0560049a51741146511ccf14d940a84f84c7de3d73b736"),
        (["classify", "--a", "4,2,2,10", "--v", "6,3,5"], ("SL2R", False, None),
         "99dce8a8133f07b4eefa1d43efa7dd8be54503d9cef1e3daee9cca4bd285836f"),
    ], ids=["tetrahedral", "tangent", "outside-box"])
    def test_classify_json_is_pinned(self, capsys, argv, flags, digest):
        # the reports the surd endpoint comparison printed for these points
        assert run_main(argv) == 0
        out = capsys.readouterr().out
        result = json.loads(out)["result"]
        assert (result["class"], result["box"], result["overlap"]) == flags
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, expected", [
        (["orbit", "--a=-3/2,-3/2,-1,1", "--v=1,0,0"],
         "command: orbit\nstatus: ok\nsize: 2\nstatus: complete\npoints:\n"
         "  -\n    - 1/4\n    - 0\n    - 0\n  -\n    - 1\n    - 0\n    - 0\n"
         "frontier_sizes:\n  - 1\n  - 1\n"),
        (["orbit", "--a=-2,-2,-2,-2", "--v=1,2,3", "--cap", "2"],
         "command: orbit\nstatus: cap-exceeded\nsize: 2\nstatus: cap-exceeded\npoints:\n"
         "  -\n    - -2\n    - 3\n    - 3\n  -\n    - 1\n    - 2\n    - 3\n"
         "frontier_sizes:\n  - 1\n  - 3\n"),
    ])
    def test_orbit_text_format_unchanged(self, capsys, argv, expected):
        run_main(argv + ["--format", "text"])
        assert capsys.readouterr().out == expected


def fresh_interpreter(code: str) -> str:
    """Standard output of ``python -c code`` in a new process importing from ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNumpyLoadsOnlyForHolonomy:
    @pytest.mark.parametrize(
        "code",
        [
            "import fricke.cli",
            "import fricke",
            "from fricke import cli; cli.main(['classify', '--a', '2,2,2,2', '--v', '2,2,2'])",
            "from fricke import cli; cli.main(['pvi-params', '--theta', '1/3,2/3,2/3,2/3'])",
            "from fricke import cli; cli.main(['family-check', '--theta0', '1/3,2/3,2/3,2/3', "
            "'--member', 'th2^2 - th3^2', '--family', 'tetrahedral-two-point'])",
        ],
        ids=["import-cli", "import-package", "classify", "pvi-params", "family-check"],
    )
    def test_exact_paths_leave_numpy_unloaded(self, code):
        out = fresh_interpreter(f"{code}\nimport sys; print('numpy' in sys.modules)")
        assert out.splitlines()[-1] == "False"

    def test_package_names_load_connection_on_use(self):
        out = fresh_interpreter(
            "import sys, fricke; print('numpy' in sys.modules); "
            "print(fricke.holonomy.__module__, 'numpy' in sys.modules)"
        )
        assert out.splitlines() == ["False", "fricke.connection True"]

    def test_star_import_resolves_every_name(self):
        out = fresh_interpreter(
            "from fricke import *; import fricke; "
            "print(all(globals()[n] is getattr(fricke, n) for n in fricke.__all__)); "
            "print(ResidueTuple.__module__, PunctureConfig.__module__, exp_map.__module__)"
        )
        assert out.splitlines() == ["True", "fricke.connection fricke.connection fricke.connection"]

    def test_unknown_package_attribute_raises(self):
        import fricke

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            fricke.no_such_name

    def test_holonomy_subcommand_in_fresh_interpreter(self, tmp_path):
        path = tmp_path / "residues.json"
        path.write_text(json.dumps(COMMUTING_RESIDUES))
        out = fresh_interpreter(
            f"from fricke import cli; cli.main(['holonomy', '--residues', {str(path)!r}, '--t', '0.5'])"
        )
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["result"]["class"]["class"] == "SU2"
        validate_schema(report)
