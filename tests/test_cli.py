"""Command parsing, execution, report emission, exit codes, and the schema."""

import io
import json
import random
import sys
from pathlib import Path

import pytest

from fricke import cli, groebner as gb
from fricke.exactalg import parse_polynomial

from conftest import random_traceless_matrix

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report-schema.json"


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


def validate_schema(report: dict):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(report, schema)


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

    def test_holonomy_from_file(self, tmp_path):
        residues = {
            "X": [
                [[1 / 6, 0], [0, 0], [0, 0], [-1 / 6, 0]],
                [[-1 / 6, 0], [0, 0], [0, 0], [1 / 6, 0]],
                [[0, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [0, 0]],
            ]
        }
        path = tmp_path / "residues.json"
        path.write_text(json.dumps(residues))
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

    def test_bad_rational_reports_flag(self, capsys):
        code = run_main(["orbit", "--a", "x,0,0,0", "--v", "2,0,0"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and "--a" in report["message"]
