"""Spans and counts around calls into the six ``fricke`` modules.

The traced run replaces each public callable listed in ``TARGETS`` with a
wrapper that records a span (name, operation id, parent span, start, end) in
memory, and restores the originals afterwards.  Nothing in the package is
edited.  A callable imported by name into another ``fricke`` module is
replaced there too.  Count hooks run after a span closes and are recorded as
their own ``trace.hook`` span, so they land in no layer's self time.
"""

from __future__ import annotations

import builtins
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

from fricke import braid, charvariety, cli, connection, exactalg, groebner

import calibrate

MODULES = ("exactalg", "groebner", "charvariety", "braid", "connection", "cli")
# work counts that repeat exactly for a given seed
COUNTS = ("groebner.basis_size", "groebner.solutions", "groebner.residual_factors",
          "groebner.verify_pairs", "groebner.member_tests", "braid.orbit_points",
          "braid.letters_applied", "charvariety.points_classified", "connection.rk_steps")
MAXIMA = ("groebner.max_coeff_bits", "braid.orbit_max_height_bits")


def _coeff_bits(polys) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in polys for _, c in p.items()), default=0)


def _height_bits(points) -> int:
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for v in points for x in v), default=0)


def _after_buchberger(t, args, kwargs, basis):
    t.counts["groebner.basis_size"] += len(basis.polynomials)
    t.maxima["groebner.max_coeff_bits"] = max(t.maxima["groebner.max_coeff_bits"],
                                              _coeff_bits(basis.polynomials))


def _after_solve(t, args, kwargs, solution):
    t.counts["groebner.solutions"] += len(solution.points)
    t.counts["groebner.residual_factors"] += len(solution.residuals)


def _after_verify(t, args, kwargs, ok):
    n = len(args[0].polynomials)
    t.counts["groebner.verify_pairs"] += n * (n - 1) // 2


def _after_contains(t, args, kwargs, member):
    t.counts["groebner.member_tests"] += 1


def _after_orbit(t, args, kwargs, orbit):
    t.counts["braid.orbit_points"] += orbit.size
    t.maxima["braid.orbit_max_height_bits"] = max(t.maxima["braid.orbit_max_height_bits"],
                                                  _height_bits(orbit.points))


def _after_apply_word(t, args, kwargs, point):
    t.counts["braid.letters_applied"] += len(args[0])


def _after_classify(t, args, kwargs, label):
    t.counts["charvariety.points_classified"] += 1
    t.counts["charvariety.su2_points"] += label.label == "SU2"


def _after_holonomy(t, args, kwargs, result):
    t.counts["connection.rk_steps"] += result.steps


# (owner, attribute, span name, count hook)
TARGETS = (
    (exactalg.Polynomial, "substitute", "exactalg.substitute", None),
    (exactalg.Polynomial, "__str__", "exactalg.print", None),
    (exactalg, "parse_polynomial", "exactalg.parse", None),
    (groebner, "buchberger", "groebner.buchberger", _after_buchberger),
    (groebner, "groebner_basis", "groebner.groebner_basis", None),
    (groebner, "solve_zero_dimensional", "groebner.solve", _after_solve),
    (groebner, "ideal_member", "groebner.ideal_member", None),
    (groebner, "verify_groebner", "groebner.verify", _after_verify),
    (groebner, "containment_report", "groebner.containment", None),
    (groebner.GroebnerBasis, "contains", "groebner.contains", _after_contains),
    (charvariety, "classify", "charvariety.classify", _after_classify),
    (braid, "word_triple", "braid.word_triple", None),
    (braid, "fixed_ideal_generators", "braid.fixed_ideal_generators", None),
    (braid, "fixed_ideal", "braid.fixed_ideal", None),
    (braid, "fixed_points_at", "braid.fixed_points_at", None),
    (braid, "enumerate_orbit", "braid.orbit", _after_orbit),
    (braid, "apply_word", "braid.apply_word", _after_apply_word),
    (connection, "holonomy", "connection.holonomy", _after_holonomy),
    (connection, "classify_numeric", "connection.classify_numeric", None),
    (cli, "main", "cli.main", None),
    (cli, "emit_report", "cli.io", None),
)


class Tracer:
    """In-memory span recorder; ``install`` and ``uninstall`` bracket one traced repetition."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op id, parent index, start, end]
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.op_id is None:  # the benchmark's own checks are not traced
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, self.op_id, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if hook is not None:
                start = perf_counter()
                hook(self, args, kwargs, result)
                spans.append(["trace.hook", self.op_id, parent, start, perf_counter()])
            return result

        return traced

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "fricke" or name.startswith("fricke.")]
        for owner, attr, name, hook in TARGETS:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hook)
            self._set(owner, attr, traced)
            if isinstance(owner, types.ModuleType):
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._set(module, key, traced)
        # the CLI's own output and stdin decoding count as its I/O
        io_json = types.SimpleNamespace(**vars(json))
        for attr in ("dumps", "loads", "load"):
            setattr(io_json, attr, self.wrap("cli.io", getattr(json, attr)))
        self._set(cli, "json", io_json)
        self._set(cli, "print", self.wrap("cli.io", builtins.print))

    def uninstall(self):
        while self._undo:
            owner, attr, value, had = self._undo.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def layer_metrics(tracer: Tracer, probe: calibrate.SpeedProbe) -> dict[str, float]:
    """Inclusive time per span name (outermost calls only) and self time per module.

    Span times leave out the speed probe's handler and are scaled to the
    reference speed by the probe's mean kernel time over the repetition.
    """
    spans = tracer.spans
    scale = calibrate.REFERENCE_S * len(probe.kernels) / sum(probe.kernels)
    duration = [(end - start - probe.busy_within(start, end)) * scale
                for _, _, _, start, end in spans]
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[2] >= 0:
            child_time[span[2]] += duration[index]
    for index, (name, _, parent, _, _) in enumerate(spans):
        module = name.split(".")[0]
        if name == "cli.io":
            module = "cli.io"
        self_time[module] += duration[index] - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][2]
        if ancestor < 0:
            inclusive[name] += duration[index]

    out = {
        "groebner.buchberger_s": inclusive["groebner.buchberger"],
        "groebner.solve_s": inclusive["groebner.solve"],
        "groebner.ideal_member_s": inclusive["groebner.ideal_member"],
        "groebner.verify_s": inclusive["groebner.verify"],
        "groebner.containment_s": inclusive["groebner.containment"],
        "exactalg.substitute_s": inclusive["exactalg.substitute"],
        "exactalg.parse_s": inclusive["exactalg.parse"],
        "exactalg.print_s": inclusive["exactalg.print"],
        "braid.word_triple_s": inclusive["braid.word_triple"],
        "braid.fixed_ideal_generators_s": inclusive["braid.fixed_ideal_generators"],
        "braid.orbit_s": inclusive["braid.orbit"],
        "braid.apply_word_s": inclusive["braid.apply_word"],
        "charvariety.classify_s": inclusive["charvariety.classify"],
        "connection.holonomy_s": inclusive["connection.holonomy"],
        "connection.classify_numeric_s": inclusive["connection.classify_numeric"],
        "cli.io_s": inclusive["cli.io"],
        "trace.hook_s": self_time["trace"],
    }
    for module in MODULES:
        out[f"{module}.self_s"] = self_time[module]
    counts = tracer.counts
    for name in COUNTS:
        out[name] = counts[name]
    for name in MAXIMA:
        out[name] = tracer.maxima[name]
    classified = counts["charvariety.points_classified"]
    out["charvariety.su2_share"] = (counts["charvariety.su2_points"] / classified
                                    if classified else 0.0)
    holonomy_s = out["connection.holonomy_s"]
    out["connection.steps_per_s"] = (counts["connection.rk_steps"] / holonomy_s
                                     if holonomy_s else 0.0)
    return out


def dump_spans(repetitions: list[list[list]], path) -> None:
    """Write each traced repetition's spans; parent indices count within one repetition."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "op", "parent", "start", "end"],
                   "repetitions": repetitions}, handle)
