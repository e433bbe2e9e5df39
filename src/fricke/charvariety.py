"""The moduli layer: the trace-coordinate cubic, membership, and unitarity tests.

The character variety of the four-punctured sphere embeds in C^7 via the
boundary traces ``a = (a1..a4)`` and the pair traces
``v = (v1, v2, v3) = (tr(A1 A2), tr(A2 A3), tr(A1 A3))``.  Its defining cubic
is written once, in :func:`cubic_value`, over any ring: it evaluates exact
points and complex holonomy traces, and at the variables themselves it is the
polynomial :func:`fricke_cubic`.  A real point is a unitary (SU(2)) class
exactly when all ``a_i`` lie in ``[-2, 2]`` and the two trace intervals
``I(a1,a2)`` and ``I(a3,a4)`` meet.  That test is written once too, in
:func:`su2_label`, over any ring and with no square root: integer sign tests
decide it in ``int``, in ``Fraction`` and, with slack, in ``float``.

An exact :class:`TracePoint` picks its ring once, when it is built: ``int``
when every coordinate is integral, ``Fraction`` otherwise, so the cubic, the
label and the braid action all run in that ring.  It also owns the one
refusal of a point off the variety, :meth:`TracePoint.require_on_variety`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactalg import Polynomial, parse_rational

A_VARS = ("a1", "a2", "a3", "a4")
V_VARS = ("v1", "v2", "v3")
ALL_VARS = A_VARS + V_VARS


class OffVarietyError(ValueError):
    """A braid map or the unitarity test was given a point with nonzero cubic value."""


A_POLYS = tuple(Polynomial.variable(n) for n in A_VARS)
V_POLYS = tuple(Polynomial.variable(n) for n in V_VARS)


def trace_coefficients(a: Sequence) -> tuple:
    """The linear-coefficient data (p1, p2, p3) of the cubic at fixed a."""
    a1, a2, a3, a4 = a
    return (a1 * a2 + a3 * a4, a1 * a4 + a2 * a3, a1 * a3 + a2 * a4)


def cubic_value(a: Sequence, v: Sequence):
    """The Fricke cubic at (a, v), in whatever ring the coordinates lie in."""
    a1, a2, a3, a4 = a
    v1, v2, v3 = v
    p1, p2, p3 = trace_coefficients(a)
    return (v1 * v1 + v2 * v2 + v3 * v3 + v1 * v2 * v3
            - p1 * v1 - p2 * v2 - p3 * v3
            + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a1 * a2 * a3 * a4 - 4)


@lru_cache(maxsize=1)
def fricke_cubic() -> Polynomial:
    """The 7-variable trace relation cutting out the moduli space.

    Expanded form has exactly 16 monomials; the constant block is symmetric
    in all four boundary traces.
    """
    return cubic_value(A_POLYS, V_POLYS)


@dataclass(frozen=True)
class TracePoint:
    """An exact point (a, v) of the trace coordinates, in one ring.

    All seven coordinates are ``int`` when every one is integral, and
    ``Fraction`` otherwise; an ``int`` compares and hashes equal to its
    ``Fraction``.  Everything computed from the point runs in that ring.
    """

    a: tuple[int, int, int, int] | tuple[Fraction, Fraction, Fraction, Fraction]
    v: tuple[int, int, int] | tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        a, v = tuple(map(Fraction, self.a)), tuple(map(Fraction, self.v))
        if len(a) != 4 or len(v) != 3:
            raise ValueError("a trace point needs 4 boundary traces and 3 pair traces")
        if all(x.denominator == 1 for x in a + v):
            a, v = tuple(x.numerator for x in a), tuple(x.numerator for x in v)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)

    def assignment(self) -> dict[str, int | Fraction]:
        out = dict(zip(A_VARS, self.a))
        out.update(zip(V_VARS, self.v))
        return out

    def cubic_value(self) -> int | Fraction:
        """The Fricke cubic at the point, in the point's ring."""
        return cubic_value(self.a, self.v)

    def require_on_variety(self) -> None:
        """Refuse a point off the variety: braid maps and the unitarity test
        act on representation classes, which lie on the cubic only."""
        value = self.cubic_value()
        if value != 0:
            raise OffVarietyError(f"point is not on the variety (cubic value {value})")

    def to_json(self) -> dict:
        return {"a": list(map(str, self.a)), "v": list(map(str, self.v))}

    @staticmethod
    def from_json(data: dict) -> "TracePoint":
        """Inverse of :meth:`to_json`: an object whose ``a`` and ``v`` are
        arrays of rational literals (or integers)."""
        if not isinstance(data, dict):
            raise ValueError("a trace point must be a JSON object with arrays 'a' and 'v'")
        coords = []
        for key in ("a", "v"):
            if key not in data:
                raise ValueError(f"trace point has no key {key!r}")
            if not isinstance(data[key], list):
                raise ValueError(f"trace point key {key!r} must be an array")
            try:
                coords.append(tuple(parse_rational(str(x)) for x in data[key]))
            except ValueError as err:
                raise ValueError(f"bad entry in trace point key {key!r}: {err}") from err
        return TracePoint(*coords)


def on_variety(point: TracePoint) -> bool:
    """Exact membership test: the cubic vanishes at the point."""
    return point.cubic_value() == 0


# -- exact arithmetic with p + s*sqrt(q) ------------------------------------

def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sqrt_expr_sign(p: Fraction, s: int, q: Fraction) -> int:
    """Exact sign of ``p + s*sqrt(q)`` for rational p, q >= 0 and s in {-1,0,1}.

    Decided by at most one squaring; square roots are never evaluated
    numerically.
    """
    if q < 0:
        raise ValueError("negative radicand")
    if s == 0 or q == 0:
        return _sign(p)
    if p == 0:
        return s
    if p > 0 and s > 0:
        return 1
    if p < 0 and s < 0:
        return -1
    # opposite signs: compare p^2 with q
    cmp = _sign(p * p - q)
    return cmp if p > 0 else -cmp


@dataclass(frozen=True)
class QuadraticNumber:
    """The exact real number ``p + s*sqrt(q)`` with p, q rational, q >= 0."""

    p: Fraction
    s: int
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q < 0:
            raise ValueError("negative radicand")
        if self.s not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        if self.q == 0 and self.s != 0:
            object.__setattr__(self, "s", 0)
        if self.s == 0 and self.q != 0:
            object.__setattr__(self, "q", Fraction(0))

    def compare(self, other: "QuadraticNumber") -> int:
        """Exact three-way comparison, by sign analysis with at most two squarings."""
        delta = self.p - other.p
        if self.q == other.q:
            # common radicand: delta + (s1 - s2) sqrt(q), coefficient in {-2..2}
            coeff = self.s - other.s
            if coeff == 0:
                return _sign(delta)
            return sqrt_expr_sign(delta / abs(coeff), _sign(coeff), self.q)
        left_sign = sqrt_expr_sign(delta, self.s, self.q)   # sign of (delta + s1 sqrt(q1))
        right_sign = other.s if other.q else 0              # sign of s2 sqrt(q2)
        if left_sign != right_sign:
            return 1 if left_sign > right_sign else -1
        if left_sign == 0:
            return 0
        # equal nonzero signs: compare squares
        # (delta + s1 sqrt(q1))^2 - q2 = (delta^2 + q1 - q2) + 2 delta s1 sqrt(q1)
        sq_diff_p = delta * delta + self.q - other.q
        if delta:
            sq_cmp = sqrt_expr_sign(
                sq_diff_p / (2 * abs(delta)), _sign(2 * delta * self.s), self.q
            )
        else:
            sq_cmp = _sign(sq_diff_p)
        return sq_cmp if left_sign > 0 else -sq_cmp

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def to_float(self) -> float:
        from math import sqrt

        return float(self.p) + self.s * sqrt(float(self.q))

    def __str__(self) -> str:
        if self.s == 0:
            return str(self.p)
        sign = "+" if self.s > 0 else "-"
        return f"{self.p} {sign} sqrt({self.q})"


@dataclass(frozen=True)
class AlgebraicInterval:
    """Closed interval with endpoints ``center -/+ sqrt(radicand)``."""

    center: Fraction
    radicand: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.radicand < 0:
            raise ValueError("negative radicand")

    @property
    def lower(self) -> QuadraticNumber:
        return QuadraticNumber(self.center, -1, self.radicand)

    @property
    def upper(self) -> QuadraticNumber:
        return QuadraticNumber(self.center, 1, self.radicand)

    def __str__(self) -> str:
        return f"[{self.lower}, {self.upper}]"


def trace_interval(s: Fraction, t: Fraction) -> AlgebraicInterval:
    """The closed interval of possible ``tr(AB)`` for unitary A, B with traces s, t.

    Endpoints are ``(s t -/+ sqrt((s^2-4)(t^2-4)))/2``; requires s, t in [-2, 2]
    so the radicand is nonnegative.
    """
    s, t = Fraction(s), Fraction(t)
    if abs(s) > 2 or abs(t) > 2:
        raise ValueError(f"traces must lie in [-2, 2], got ({s}, {t})")
    center = s * t / 2
    radicand = (s * s - 4) * (t * t - 4) / 4
    return AlgebraicInterval(center, radicand)


def _reach(gap, one, two) -> bool:
    """``gap <= sqrt(one) + sqrt(two)`` for nonnegative inputs, squared twice."""
    excess = gap * gap - one - two
    return excess <= 0 or excess * excess <= 4 * one * two


def intervals_intersect(one: AlgebraicInterval, two: AlgebraicInterval) -> bool:
    """Exact closed-interval intersection test (tangency counts): |c1 - c2| <= r1 + r2."""
    return _reach(abs(one.center - two.center), one.radicand, two.radicand)


# -- classification -----------------------------------------------------------

SU2 = "SU2"
SL2R = "SL2R"
NON_REAL = "NonReal"


@dataclass(frozen=True)
class ClassLabel:
    """Outcome of the unitarity test with the flags that produced it."""

    label: str
    real: bool
    box: bool
    overlap: bool | None

    def to_json(self) -> dict:
        return {
            "class": self.label,
            "real": self.real,
            "box": self.box,
            "overlap": self.overlap,
        }


def su2_label(a: Sequence, tol=0) -> ClassLabel:
    """The unitarity test on real boundary traces, in their own ring: every
    ``|a_i| <= 2 + tol`` (``box``), and ``I(s1,s2)``, ``I(s3,s4)`` meet within
    ``tol`` (``overlap``), ``s_i`` being ``a_i`` clamped to [-2, 2]; doubled,
    ``|s1 s2 - s3 s4| <= sqrt((4-s1^2)(4-s2^2)) + sqrt((4-s3^2)(4-s4^2)) + 2 tol``."""
    if not all(abs(x) <= 2 + tol for x in a):
        return ClassLabel(label=SL2R, real=True, box=False, overlap=None)
    s1, s2, s3, s4 = (min(2, max(-2, x)) for x in a)
    gap = max(abs(s1 * s2 - s3 * s4) - 2 * tol, 0)
    overlap = _reach(gap, (4 - s1 * s1) * (4 - s2 * s2), (4 - s3 * s3) * (4 - s4 * s4))
    return ClassLabel(label=SU2 if overlap else SL2R, real=True, box=True, overlap=overlap)


def classify(point: TracePoint) -> ClassLabel:
    """Decide SU(2) vs SL(2,R) for an exact on-variety point.

    The input is rational, hence real: the label is :func:`su2_label` of its
    boundary traces, in the point's ring.  Points off the variety are refused.
    """
    point.require_on_variety()
    return su2_label(point.a)
