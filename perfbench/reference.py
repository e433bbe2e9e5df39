"""Independent reference arithmetic the output gate checks the program against.

Everything here works on Python ints and Fractions with closed formulas, and
shares no code with ``fricke``: the trace cubic, the Vieta-involution braid
generators, breadth-first orbits with the documented cap rule, and the SU(2)
box-and-interval test.
"""

from __future__ import annotations

import cmath
import math
import random
from decimal import Decimal, localcontext

# tau_i = (second involution) after (first involution); inverses swap the two
_GENERATOR_FACTORS = {1: (3, 2), 2: (1, 3), 3: (2, 1)}


def trace_coefficients(a):
    a1, a2, a3, a4 = a
    return (a1 * a2 + a3 * a4, a1 * a4 + a2 * a3, a1 * a3 + a2 * a4)


def cubic_value(a, v):
    """The Fricke cubic at (a, v), written out term by term."""
    a1, a2, a3, a4 = a
    v1, v2, v3 = v
    p1, p2, p3 = trace_coefficients(a)
    return (v1 * v1 + v2 * v2 + v3 * v3 + v1 * v2 * v3
            - p1 * v1 - p2 * v2 - p3 * v3
            + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a1 * a2 * a3 * a4 - 4)


def cubic_scale(a, v) -> float:
    """Absolute size of the cubic's largest term at (a, v), for float tolerances."""
    a1, a2, a3, a4 = a
    v1, v2, v3 = v
    p1, p2, p3 = trace_coefficients(a)
    terms = (v1 * v1, v2 * v2, v3 * v3, v1 * v2 * v3, p1 * v1, p2 * v2, p3 * v3,
             a1 * a1, a2 * a2, a3 * a3, a4 * a4, a1 * a2 * a3 * a4, 4)
    return max(abs(t) for t in terms)


def apply_letter(p, v, index, sign):
    first, second = _GENERATOR_FACTORS[index]
    if sign < 0:
        first, second = second, first
    out = list(v)
    for j in (first, second):
        k, m = [x for x in (0, 1, 2) if x != j - 1]
        out[j - 1] = p[j - 1] - out[k] * out[m] - out[j - 1]
    return tuple(out)


def apply_word(a, v, letters):
    p = trace_coefficients(a)
    for index, sign in letters:
        v = apply_letter(p, v, index, sign)
    return v


def orbit(a, v, cap):
    """(sorted points, status, frontier sizes) under the documented BFS rule.

    Frontiers are expanded in sorted order; when the next frontier would pass
    ``cap``, its sorted prefix fills the orbit up to ``cap`` and the search
    stops with status ``cap-exceeded``.
    """
    p = trace_coefficients(a)
    seen = {v}
    frontier = [v]
    sizes = [1]
    status = "complete"
    while frontier:
        nxt = set()
        for w in frontier:
            for index in (1, 2, 3):
                for sign in (1, -1):
                    image = apply_letter(p, w, index, sign)
                    if image not in seen:
                        nxt.add(image)
        if not nxt:
            break
        sizes.append(len(nxt))
        if len(seen) + len(nxt) > cap:
            status = "cap-exceeded"
            for image in sorted(nxt):
                if len(seen) >= cap:
                    break
                seen.add(image)
            break
        seen.update(nxt)
        frontier = sorted(nxt)
    return sorted(seen), status, sizes


def frontier_prefix(a, v, depth):
    """Sizes of the first ``depth`` BFS frontiers (cheap genericity test)."""
    p = trace_coefficients(a)
    seen = {v}
    frontier = [v]
    sizes = [1]
    for _ in range(depth):
        nxt = {apply_letter(p, w, i, s) for w in frontier for i in (1, 2, 3) for s in (1, -1)}
        nxt -= seen
        seen |= nxt
        frontier = nxt
        sizes.append(len(nxt))
    return sizes


# -- exact SL2 sampling (integer shear products) -------------------------------

def _mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _random_sl2(rng: random.Random, size: int = 2):
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 3)):
        x = rng.randint(-size, size)
        shear = (1, 0, x, 1) if rng.random() < 0.5 else (1, x, 0, 1)
        m = _mat_mul(m, shear)
    return m


def random_trace_point(rng: random.Random):
    """Integer on-variety point (a, v) built from an actual SL2 quadruple."""
    m1, m2, m3 = (_random_sl2(rng) for _ in range(3))
    prod = _mat_mul(_mat_mul(m1, m2), m3)
    m4 = (prod[3], -prod[1], -prod[2], prod[0])
    tr = lambda m: m[0] + m[3]  # noqa: E731
    a = (tr(m1), tr(m2), tr(m3), tr(m4))
    v = (tr(_mat_mul(m1, m2)), tr(_mat_mul(m2, m3)), tr(_mat_mul(m1, m3)))
    return a, v


# -- SU(2) test ----------------------------------------------------------------

def _interval(s, t, ctx):
    half_width = (Decimal((s * s - 4) * (t * t - 4))).sqrt(ctx)
    centre = Decimal(s * t)
    return ((centre - half_width) / 2, (centre + half_width) / 2)


def classify_label(a) -> str:
    """SU2 when every boundary trace is in [-2, 2] and I(a1,a2), I(a3,a4) meet.

    The endpoints are quadratic surds of small integers, so 60-digit decimals
    separate every unequal pair by far more than the tie tolerance.
    """
    if any(abs(x) > 2 for x in a):
        return "SL2R"
    with localcontext() as ctx:
        ctx.prec = 60
        lo1, hi1 = _interval(a[0], a[1], ctx)
        lo2, hi2 = _interval(a[2], a[3], ctx)
        tie = Decimal(10) ** -40
        return "SU2" if max(lo1, lo2) <= min(hi1, hi2) + tie else "SL2R"


# -- holonomy exponents ----------------------------------------------------------

def expected_boundary_traces(residues) -> list[complex]:
    """2 cos(pi theta) with theta = 2 sqrt(-det X); even in theta, so branch-free."""
    out = []
    for m in residues:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        lam = (-det) ** 0.5
        out.append(2 * cmath.cos(2 * math.pi * lam))
    return out
