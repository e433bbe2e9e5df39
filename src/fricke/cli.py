"""Batch command-line front end.

Subcommands: classify, orbit, fixed-ideal, fixed-points, holonomy, pvi-params,
family-check.  Exact data crosses the boundary as strings ("2/3", never
floats); reports are JSON by default (deterministic for exact subcommands) or
plain text with --format text.  Exit codes: 0 ok, 1 cap-exceeded, 2 error;
arguments a subcommand's parser refuses give an error report too.
Only the holonomy subcommand imports :mod:`fricke.connection`, and so numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from . import braid, groebner, pvi
from .charvariety import TracePoint, classify
from .exactalg import Polynomial, parse_rational

OK = "ok"
CAP_EXCEEDED = "cap-exceeded"
ERROR = "error"

_EXIT_CODES = {OK: 0, CAP_EXCEEDED: 1, ERROR: 2}


class CommandError(ValueError):
    pass


class UsageError(CommandError):
    """argparse refused the arguments of a subcommand it recognised."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """A subcommand's parser raises :class:`UsageError`, which becomes an
    error report; the top-level parser keeps argparse's usage text and exit
    code 2, since a report must name a known command."""

    def error(self, message):
        command = self.prog.partition(" ")[2]  # subparsers are "fricke <name>"
        if not command:
            super().error(message)
        raise UsageError(command, message)


def _parse_rational_tuple(text: str, expected: int, flag: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise CommandError(f"{flag} expects {expected} comma-separated rationals, got {len(parts)}")
    try:
        return tuple(parse_rational(p) for p in parts)
    except ValueError as err:
        raise CommandError(f"bad rational in {flag}: {err}") from err


def _parse_complex(text: str, flag: str) -> complex:
    cleaned = text.strip().replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as err:
        raise CommandError(f"bad complex literal in {flag}: {text!r}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fricke",
        description="Exact braid dynamics and numerical monodromy on the "
                    "four-punctured-sphere character variety.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p_classify = add_parser("classify", help="SU2/SL2R test for an exact trace point")
    p_classify.add_argument("--a", help="four boundary traces, e.g. 1,-1,-1,-1")
    p_classify.add_argument("--v", help="three pair traces, e.g. 0,1,0")
    p_classify.add_argument(
        "--stdin", action="store_true",
        help="batch mode: one JSON trace point per input line",
    )

    p_orbit = add_parser("orbit", help="breadth-first orbit closure")
    p_orbit.add_argument("--a", required=True)
    p_orbit.add_argument("--v", required=True)
    p_orbit.add_argument("--cap", type=int, default=braid.DEFAULT_ORBIT_CAP)

    p_fixed_ideal = add_parser("fixed-ideal", help="fixed-locus ideal of a subgroup")
    p_fixed_ideal.add_argument(
        "--gens", required=True,
        help="semicolon-separated words, e.g. t2;t1t1;t3t3",
    )

    p_fixed_points = add_parser("fixed-points", help="fixed points at specialized traces")
    p_fixed_points.add_argument("--a", required=True)
    p_fixed_points.add_argument("--gens", required=True)

    p_holonomy = add_parser("holonomy", help="numerical monodromy of a residue tuple")
    p_holonomy.add_argument("--residues", required=True, help="path to a residue-tuple JSON file")
    p_holonomy.add_argument("--t", required=True, help="fourth puncture position (complex)")
    p_holonomy.add_argument("--tol", type=float, default=pvi.DEFAULT_HOLONOMY_TOL)

    p_pvi = add_parser("pvi-params", help="equation parameters from exponents")
    p_pvi.add_argument("--theta", required=True, help="four rational exponents")

    p_family = add_parser("family-check", help="constant-parameter deformation ideal")
    p_family.add_argument("--theta0", required=True, help="four rational base exponents")
    p_family.add_argument(
        "--member", action="append", default=[],
        help="polynomial in th1..th4 to test for ideal membership (repeatable)",
    )
    p_family.add_argument(
        "--family", choices=sorted(pvi.FAMILY_CONSTRAINT_SETS),
        help="also test a shipped named constraint set for membership",
    )
    return parser


def parse_command(argv: list[str]) -> argparse.Namespace:
    """Parse an argv; raises :class:`UsageError` once a subcommand is known,
    and exits through argparse without one."""
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        raise UsageError(args.subcommand, f"unrecognized arguments: {' '.join(extras)}")
    return args


def _point_from_args(args) -> TracePoint:
    if not args.a or not args.v:
        raise CommandError("--a and --v are required (or use --stdin)")
    return TracePoint(
        _parse_rational_tuple(args.a, 4, "--a"),
        _parse_rational_tuple(args.v, 3, "--v"),
    )


def _classify_result(point: TracePoint) -> dict:
    # classify refuses off-variety points; the refusal propagates as an
    # error report with exit code 2
    label = classify(point)
    out = {"point": point.to_json(), "on_variety": True}
    out.update(label.to_json())
    return out


def _triple_json(v) -> list[str]:
    return list(map(str, v))


def _inputs(args: argparse.Namespace) -> dict:
    """The arguments a report echoes back, whatever its status; a non-finite
    float (``--tol nan``) is echoed as its text, since JSON has no such number."""
    return {
        key: str(value) if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in vars(args).items()
        if key not in ("subcommand", "format") and not (value is None or value is False or value == [])
    }


def execute(args: argparse.Namespace) -> dict:
    """Dispatch a parsed command; returns the report dictionary."""
    name = args.subcommand
    report = {"status": OK, "command": name, "inputs": _inputs(args), "result": None}

    if name == "classify":
        point = _point_from_args(args)
        report["result"] = _classify_result(point)

    elif name == "orbit":
        point = _point_from_args(args)
        orbit = braid.enumerate_orbit(point, cap=args.cap)
        if orbit.status != braid.ORBIT_COMPLETE:
            report["status"] = CAP_EXCEEDED
        report["result"] = {
            "size": orbit.size,
            "status": orbit.status,
            "points": [_triple_json(v) for v in orbit.points],
            "frontier_sizes": list(orbit.frontier_sizes),
        }

    elif name == "fixed-ideal":
        subgroup = braid.SubgroupSpec.parse(args.gens.split(";"))
        basis = braid.fixed_ideal(subgroup)
        report["result"] = {
            "order": {"kind": basis.order.kind, "variables": list(basis.order.variables)},
            "generators": [str(g) for g in basis.polynomials],
        }

    elif name == "fixed-points":
        subgroup = braid.SubgroupSpec.parse(args.gens.split(";"))
        a = _parse_rational_tuple(args.a, 4, "--a")
        fixed = braid.fixed_points_at(a, subgroup)
        solutions = []
        for v in fixed.solutions:
            point = TracePoint(a, v)
            solutions.append(_classify_result(point) | {"v": _triple_json(v)})
        report["result"] = {
            "zero_dimensional": fixed.zero_dimensional,
            "solutions": solutions,
            "residuals": [str(r) for r in fixed.residuals],
            "positive_dimensional_basis": [str(g) for g in fixed.positive_dimensional_basis],
        }

    elif name == "holonomy":
        from . import connection

        with open(args.residues, "r", encoding="utf-8") as handle:
            residues = connection.ResidueTuple.from_json(json.load(handle))
        config = connection.PunctureConfig(_parse_complex(args.t, "--t"))
        result = connection.holonomy(residues, config, tol=args.tol)
        payload = result.to_json()
        payload["class"] = connection.classify_numeric(result.a, result.v).to_json()
        report["result"] = payload

    elif name == "pvi-params":
        theta = _parse_rational_tuple(args.theta, 4, "--theta")
        r = pvi.pvi_params(theta)
        report["result"] = {"r": list(map(str, r))}

    elif name == "family-check":
        theta0 = _parse_rational_tuple(args.theta0, 4, "--theta0")
        ideal = pvi.family_constraints(theta0)
        members = {}
        for text in args.member:
            poly = Polynomial.parse(text, pvi.THETA_VARS)
            members[text] = groebner.ideal_member(poly, ideal)
        family_report = None
        if args.family:
            polys = pvi.FAMILY_CONSTRAINT_SETS[args.family]
            theta0_point = dict(zip(pvi.THETA_VARS, theta0))
            family_report = {
                "name": args.family,
                "polynomials": [str(p) for p in polys],
                "members_of_strict_ideal": [groebner.ideal_member(p, ideal) for p in polys],
                "vanish_at_theta0": [p.evaluate(theta0_point) == 0 for p in polys],
            }
        report["result"] = {
            "generators": [str(g) for g in ideal.generators],
            "membership": members,
            "family": family_report,
        }

    else:  # pragma: no cover - argparse enforces the choices
        raise CommandError(f"unknown subcommand {name!r}")
    return report


# the encoder json.dumps(..., indent=2, allow_nan=False) builds on every call,
# and its C-backed twin without indent, which lays out a scalar the same way
_JSON = json.JSONEncoder(indent=2, allow_nan=False)
_JSON_SCALAR = json.JSONEncoder(allow_nan=False)


def _render_json(value, indent: str, parts: list[str]) -> list[str]:
    """Append the text of ``json.dumps(value, indent=2, allow_nan=False)``, at
    depth ``indent``, to ``parts``, to be joined once.

    Dicts, and arrays of non-empty string arrays (orbit points), are laid out
    here with the C string encoder: ``indent`` makes ``json.dumps`` run its
    pure-Python encoder, which is slow on large arrays.  Other arrays go to
    that encoder, and scalars to the C one.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        opening = "{"
        for key, item in value.items():
            parts.append(f"{opening}\n{inner}{_encode_str(key)}: ")
            _render_json(item, inner, parts)
            opening = ","
        parts.append(f"\n{indent}}}")
        return parts
    if isinstance(value, list) and value and all(isinstance(row, list) and row for row in value):
        head, sep, tail = f",\n{inner}[\n{inner}  ", f",\n{inner}  ", f"\n{inner}]"
        try:  # the C encoder takes only strings; other items go to json's encoder
            rows = [head + sep.join(map(_encode_str, row)) + tail for row in value]
        except TypeError:
            pass
        else:
            rows[0] = "[" + rows[0][1:]  # the array opens where later rows have a comma
            parts += rows
            parts.append(f"\n{indent}]")
            return parts
    if isinstance(value, (dict, list, tuple)):
        parts.append(_JSON.encode(value).replace("\n", "\n" + indent))
    else:
        parts.append(_JSON_SCALAR.encode(value))
    return parts


def emit_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return "".join(_render_json(report, "", []))
    lines = [f"command: {report['command']}", f"status: {report['status']}"]
    if report.get("message"):
        lines.append(f"message: {report['message']}")
    lines.extend(_text_lines(report.get("result"), indent=""))
    return "\n".join(lines)


def _text_lines(value, indent: str) -> list[str]:
    if value is None:
        return []
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_text_lines(item, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {item}")
        return lines
    if isinstance(value, list):
        lines = []
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_text_lines(item, indent + "  "))
            else:
                lines.append(f"{indent}- {item}")
        return lines
    return [f"{indent}{value}"]


def _error_report(command: str, inputs: dict, message: str, status: str = ERROR) -> dict:
    return {"status": status, "command": command, "inputs": inputs, "result": None,
            "message": message}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parse_command(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except UsageError as err:
        print(emit_report(_error_report(err.command, {"argv": argv}, str(err)), "json"))
        return 2

    if args.subcommand == "classify" and args.stdin:
        if args.a is not None or args.v is not None or args.format != "json":
            message = ("--stdin reads its points from standard input and writes JSON lines; "
                       "it takes no --a, --v or --format text")
            print(json.dumps(_error_report("classify", _inputs(args), message)))
            return 2
        worst = 0
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            inputs = {"line": line}
            try:
                point = TracePoint.from_json(json.loads(line))
                report = {"status": OK, "command": "classify",
                          "inputs": inputs, "result": _classify_result(point)}
            except Exception as err:  # noqa: BLE001 - report and keep going
                report = _error_report("classify", inputs, str(err))
            print(json.dumps(report, allow_nan=False))
            worst = max(worst, _EXIT_CODES[report["status"]])
        return worst

    try:
        report = execute(args)
    except groebner.ResourceCapError as err:
        report = _error_report(args.subcommand, _inputs(args), str(err), CAP_EXCEEDED)
    except Exception as err:  # noqa: BLE001 - all failures become error reports
        report = _error_report(args.subcommand, _inputs(args), str(err))
    print(emit_report(report, args.format))
    return _EXIT_CODES[report["status"]]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
