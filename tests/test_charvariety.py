"""Trace cubic, exact interval arithmetic, and the unitarity classification."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from fricke.charvariety import (
    ALL_VARS,
    AlgebraicInterval,
    OffVarietyError,
    QuadraticNumber,
    TracePoint,
    classify,
    cubic_value,
    fricke_cubic,
    intervals_intersect,
    on_variety,
    sqrt_expr_sign,
    su2_label,
    trace_coefficients,
    trace_interval,
)
from fricke.exactalg import Polynomial

from conftest import random_trace_point, shear_product, sl2_trace_point

HALF_INTEGER_BOX = [F(k, 2) for k in range(-4, 5)]


def endpoints_meet(one: AlgebraicInterval, two: AlgebraicInterval) -> bool:
    """Closed intervals meet when the larger lower surd endpoint is at most
    the smaller upper one, compared as ``QuadraticNumber`` values."""
    return max(one.lower, two.lower) <= min(one.upper, two.upper)


def surd_label(a) -> tuple:
    """(class, box, overlap) from the surd endpoints of I(a1,a2) and I(a3,a4)."""
    if any(abs(x) > 2 for x in a):
        return "SL2R", False, None
    overlap = endpoints_meet(trace_interval(a[0], a[1]), trace_interval(a[2], a[3]))
    return ("SU2" if overlap else "SL2R"), True, overlap


def point_over(a) -> TracePoint:
    """A rational point of the variety over any rational boundary traces ``a``.

    At ``v1 = 5/2`` the quadratic part of the cubic in (v2, v3) factors as
    ``(v2 + 2 v3)(v2 + v3/2)``, so on a line ``v2 + 2 v3 = u`` the cubic is
    linear in ``v3``; its slope is ``2 p2 - p3 - 3u/2``, nonzero at u = 0 or 1.
    """
    a = tuple(F(x) for x in a)
    _, p2, p3 = trace_coefficients(a)
    u = 0 if 2 * p2 != p3 else 1
    v3 = -cubic_value(a, (F(5, 2), u, 0)) / (2 * p2 - p3 - F(3, 2) * u)
    return TracePoint(a, (F(5, 2), u - 2 * v3, v3))


class TestCubic:
    def test_monomial_count(self):
        assert fricke_cubic().term_count() == 16

    def test_tetrahedral_point_vanishes(self):
        assert TracePoint((1, -1, -1, -1), (0, 1, 0)).cubic_value() == 0

    def test_double_transposition_invariance(self):
        f = fricke_cubic()
        for perm in ({"a1": "a2", "a2": "a1", "a3": "a4", "a4": "a3"},
                     {"a1": "a3", "a3": "a1", "a2": "a4", "a4": "a2"}):
            images = {src: Polynomial.variable(dst) for src, dst in perm.items()}
            assert f.substitute(images) == f

    def test_random_sl2_quadruples_land_on_variety(self):
        rng = random.Random(17)
        for _ in range(100):
            assert on_variety(random_trace_point(rng))


class TestClosedForm:
    """``cubic_value`` is the one written form of the cubic; pin it to the polynomial."""

    def test_rational_points_match_polynomial(self):
        rng = random.Random(61)
        f = fricke_cubic()
        on = 0
        for i in range(200):
            if i % 2:
                point = random_trace_point(rng)
                a, v = point.a, point.v
            else:
                a, v = (tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
                        for n in (4, 3))
            value = cubic_value(a, v)
            assert value == f.evaluate(dict(zip(ALL_VARS, a + v)))
            on += value == 0
        assert 100 <= on < 200

    def test_complex_points_match_term_sum(self):
        rng = random.Random(62)
        terms = fricke_cubic().exponent_vectors(ALL_VARS).items()
        for _ in range(50):
            coords = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(7)]
            expected = 0j
            for vec, coeff in terms:
                term = complex(coeff)
                for x, exp in zip(coords, vec):
                    term *= x ** exp
                expected += term
            got = cubic_value(coords[:4], coords[4:])
            assert abs(got - expected) <= 1e-9 * abs(expected)


class TestOnVariety:
    def test_examples(self):
        assert on_variety(TracePoint((1, -1, -1, -1), (0, 1, 0)))
        assert on_variety(TracePoint((2, 2, 2, 2), (2, 2, 2)))
        assert on_variety(TracePoint((0, 0, 0, 0), (2, 0, 0)))

    def test_off_variety(self):
        assert not on_variety(TracePoint((0, 0, 0, 0), (1, 0, 0)))


class TestQuadraticNumbers:
    def test_bad_sign_is_refused_whatever_the_radicand(self):
        for q in (F(0), F(2)):
            with pytest.raises(ValueError, match="sign must be -1, 0 or 1"):
                QuadraticNumber(F(1), 5, q)

    def test_zero_radicand_drops_a_good_sign(self):
        assert QuadraticNumber(F(1), -1, F(0)) == QuadraticNumber(F(1), 0, F(0))

    def test_sqrt_expr_sign(self):
        assert sqrt_expr_sign(F(-1), 1, F(2)) == 1      # sqrt(2) > 1
        assert sqrt_expr_sign(F(-2), 1, F(2)) == -1     # sqrt(2) < 2
        assert sqrt_expr_sign(F(-2), 1, F(4)) == 0      # sqrt(4) == 2
        assert sqrt_expr_sign(F(3), -1, F(9)) == 0
        assert sqrt_expr_sign(F(0), 0, F(0)) == 0

    def test_exact_ties(self):
        # 1 + sqrt(4) == 3 and 3 - sqrt(4) == 1
        assert QuadraticNumber(F(1), 1, F(4)).compare(QuadraticNumber(F(3), 0, F(0))) == 0
        assert QuadraticNumber(F(3), -1, F(4)).compare(QuadraticNumber(F(1), 0, F(0))) == 0
        # sqrt(2) + sqrt(2) type: common radicand cancellation
        assert QuadraticNumber(F(5), 1, F(2)).compare(QuadraticNumber(F(5), 1, F(2))) == 0

    def test_cross_validation_against_floats(self):
        rng = random.Random(6)
        for _ in range(300):
            x = QuadraticNumber(F(rng.randint(-8, 8), rng.randint(1, 4)),
                                rng.choice((-1, 0, 1)),
                                F(rng.randint(0, 30), rng.randint(1, 3)))
            y = QuadraticNumber(F(rng.randint(-8, 8), rng.randint(1, 4)),
                                rng.choice((-1, 0, 1)),
                                F(rng.randint(0, 30), rng.randint(1, 3)))
            fx, fy = x.to_float(), y.to_float()
            if abs(fx - fy) > 1e-9:
                assert x.compare(y) == (1 if fx > fy else -1)
            else:
                assert x.compare(y) == 0


class TestIntervals:
    def test_degenerate(self):
        interval = trace_interval(F(2), F(2))
        assert interval.center == 2 and interval.radicand == 0

    def test_full_width(self):
        interval = trace_interval(F(0), F(0))
        # radicand 16/4 = 4, endpoints 0 -/+ 2
        assert interval.center == 0 and interval.radicand == 4
        assert interval.lower.compare(QuadraticNumber(F(-2), 0, F(0))) == 0

    def test_mixed(self):
        interval = trace_interval(F(1), F(-1))
        # st = -1, radicand 9/4: endpoints (-1 -/+ 3)/2 = -2 and 1
        assert interval.lower.compare(QuadraticNumber(F(-2), 0, F(0))) == 0
        assert interval.upper.compare(QuadraticNumber(F(1), 0, F(0))) == 0

    def test_precondition(self):
        with pytest.raises(ValueError):
            trace_interval(F(3), F(0))

    def test_intersections(self):
        i_mixed = trace_interval(F(1), F(-1))        # [-2, 1]
        i_other = trace_interval(F(-1), F(-1))       # [-1, 2]
        i_point = trace_interval(F(2), F(2))         # [2, 2]
        assert intervals_intersect(i_mixed, i_other)
        assert not intervals_intersect(i_point, i_mixed)
        assert intervals_intersect(i_mixed, i_mixed)

    def test_tangency_counts(self):
        # [2,2] touches [-2+sqrt(?)...]: use [1,1]x[  ] giving upper exactly 2
        left = AlgebraicInterval(F(0), F(4))     # [-2, 2]
        right = AlgebraicInterval(F(2), F(0))    # [2, 2]
        assert intervals_intersect(left, right)

    def test_contained_in_box_and_symmetric(self):
        rng = random.Random(12)
        box_lo = QuadraticNumber(F(-2), 0, F(0))
        box_hi = QuadraticNumber(F(2), 0, F(0))
        for _ in range(100):
            s = F(rng.randint(-8, 8), 4)
            t = F(rng.randint(-8, 8), 4)
            interval = trace_interval(s, t)
            assert box_lo <= interval.lower and interval.upper <= box_hi
            flipped = trace_interval(t, s)
            assert interval == flipped

    def test_intersection_matches_surd_endpoints(self):
        # square radicands make rational endpoints, so many pairs are tangent
        rng = random.Random(23)
        tangent = 0
        for _ in range(3000):
            one, two = (
                AlgebraicInterval(F(rng.randint(-9, 9), rng.randint(1, 4)),
                                  rng.choice((F(rng.randint(0, 30), rng.randint(1, 4)),
                                              F(rng.randint(0, 6), rng.randint(1, 3)) ** 2)))
                for _ in range(2)
            )
            assert intervals_intersect(one, two) == endpoints_meet(one, two), (one, two)
            tangent += one.upper.compare(two.lower) == 0 or two.upper.compare(one.lower) == 0
        assert tangent > 20

    def test_matches_angle_addition(self):
        # with s = 2cos(alpha), t = 2cos(beta) the endpoints are
        # 2cos(alpha +/- beta); cross-validates the exact code numerically
        for j in range(13):
            for k in range(13):
                alpha, beta = math.pi * j / 12, math.pi * k / 12
                s = F(2 * math.cos(alpha))
                t = F(2 * math.cos(beta))
                s = max(F(-2), min(F(2), s))
                t = max(F(-2), min(F(2), t))
                interval = trace_interval(s, t)
                assert abs(interval.lower.to_float() - 2 * math.cos(alpha + beta)) < 1e-12
                assert abs(interval.upper.to_float() - 2 * math.cos(alpha - beta)) < 1e-12


class TestClassify:
    def test_tetrahedral_is_unitary(self):
        label = classify(TracePoint((1, -1, -1, -1), (0, 1, 0)))
        assert label.label == "SU2"
        assert label.real and label.box and label.overlap

    def test_disjoint_intervals_give_split_form(self):
        # v = (1, 0, 0) satisfies the cubic at a = (2, 2, 1, -1):
        # 1 - 3 + 2 = 0; intervals [2,2] and [-2,1] are disjoint
        point = TracePoint((2, 2, 1, -1), (1, 0, 0))
        assert on_variety(point)
        label = classify(point)
        assert label.label == "SL2R"
        assert label.real and label.box and label.overlap is False

    def test_trivial_representation_is_unitary(self):
        assert classify(TracePoint((2, 2, 2, 2), (2, 2, 2))).label == "SU2"

    def test_box_failure_gives_split_form(self):
        # a genuine hyperbolic quadruple: tr(A1) = 4 falls outside [-2, 2]
        from conftest import mat_inv_sl2, mat_mul, mat_trace

        m1 = (F(3), F(1), F(2), F(1))
        m2 = (F(1), F(1), F(0), F(1))
        m3 = (F(1), F(0), F(1), F(1))
        m4 = mat_inv_sl2(mat_mul(mat_mul(m1, m2), m3))
        point = TracePoint(
            (mat_trace(m1), mat_trace(m2), mat_trace(m3), mat_trace(m4)),
            (
                mat_trace(mat_mul(m1, m2)),
                mat_trace(mat_mul(m2, m3)),
                mat_trace(mat_mul(m1, m3)),
            ),
        )
        assert on_variety(point)
        label = classify(point)
        assert label.label == "SL2R" and not label.box

    def test_off_variety_refused(self):
        with pytest.raises(OffVarietyError):
            classify(TracePoint((0, 0, 0, 0), (1, 0, 0)))

    def test_permutation_invariance(self):
        rng = random.Random(8)
        tested = 0
        for _ in range(200):
            point = random_trace_point(rng)
            swapped = TracePoint(
                (point.a[1], point.a[0], point.a[3], point.a[2]), point.v
            )
            if not on_variety(swapped):
                continue
            tested += 1
            assert classify(point).label == classify(swapped).label
        assert tested > 50


class TestSu2Label:
    """``su2_label`` against the surd endpoint comparison it replaced."""

    @staticmethod
    def flags(label) -> tuple:
        return label.label, label.box, label.overlap

    def test_half_integer_box_matches_surd_endpoints(self):
        # every boundary in the half-integer grid of [-2, 2]^4, tangencies
        # included, in Fraction, in int where integral, and through classify
        # (which also checks that point_over lies on the variety)
        counts = {"SU2": 0, "SL2R": 0}
        for a in itertools.product(HALF_INTEGER_BOX, repeat=4):
            want = surd_label(a)
            assert self.flags(su2_label(a)) == want, a
            assert self.flags(su2_label(TracePoint(a, (0, 0, 0)).a)) == want, a
            assert self.flags(classify(point_over(a))) == want, a
            counts[want[0]] += 1
        assert min(counts.values()) > 500

    def test_classify_matches_surd_endpoints_at_random_rationals(self):
        rng = random.Random(29)
        outside = 0
        for _ in range(400):
            a = tuple(F(rng.randint(-15, 15), rng.randint(1, 6)) for _ in range(4))
            label = classify(point_over(a))
            assert self.flags(label) == surd_label(a), a
            outside += not label.box
        assert outside > 50

    def test_classify_matches_surd_endpoints_at_sl2_points(self):
        # integral points from SL2(Z) quadruples, and rational ones from
        # rational shears
        rng = random.Random(31)
        seen = set()
        for _ in range(400):
            point = random_trace_point(rng)
            shears = [[(F(rng.randint(-4, 4), rng.randint(1, 3)), rng.random() < 0.5)
                       for _ in range(rng.randint(1, 3))] for _ in range(3)]
            for point in (point, sl2_trace_point(*map(shear_product, shears))):
                label = classify(point)
                assert self.flags(label) == surd_label(point.a), point
                seen.add(self.flags(label))
        assert seen == {("SU2", True, True), ("SL2R", True, False), ("SL2R", False, None)}

    @pytest.mark.parametrize("a, flags", [
        ((1, -1, -1, -1), ("SU2", True, True)),
        ((2, 2, 1, -1), ("SL2R", True, False)),
        ((2, 2, 2, 2), ("SU2", True, True)),
        ((3, 0, 0, 0), ("SL2R", False, None)),
    ])
    def test_same_label_in_every_ring(self, a, flags):
        for ring in (int, F, float):
            assert self.flags(su2_label(tuple(map(ring, a)))) == flags

    def test_slack_widens_box_and_gap(self):
        # I(2,2) = [2, 2] lies 1 above I(1,-1) = [-2, 1]
        assert self.flags(su2_label((2, 2, 1, -1), tol=1)) == ("SU2", True, True)
        assert self.flags(su2_label((2, 2, 1, -1), tol=F(99, 100))) == ("SL2R", True, False)
        assert self.flags(su2_label((F(9, 4), 2, 2, 2), tol=F(1, 4))) == ("SU2", True, True)


class TestTracePointJson:
    def test_round_trip(self):
        point = TracePoint((F(1), F(-1), F(-1), F(-1)), (F(0), F(1, 2), F(0)))
        assert TracePoint.from_json(point.to_json()) == point
