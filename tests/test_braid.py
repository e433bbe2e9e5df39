"""Generator maps, word arithmetic, orbit enumeration, and fixed loci."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fricke import braid, groebner as gb
from fricke.braid import BraidWord, SubgroupSpec
from fricke.charvariety import (
    A_VARS, SU2, OffVarietyError, TracePoint, V_VARS, classify, fricke_cubic, on_variety,
)
from fricke.exactalg import Polynomial, parse_polynomial

from conftest import compose, random_trace_point, shear_product, sl2_trace_point

P = parse_polynomial

TETRA = TracePoint((1, -1, -1, -1), (0, 1, 0))
TWO_POINT_SUBGROUP = SubgroupSpec.parse(["t2", "t1t1", "t3t3"])


def identity_triple():
    return tuple(Polynomial.variable(n) for n in V_VARS)


# written out here, apart from braid: tau_i is the second involution after the first
INVOLUTION_FACTORS = {1: (3, 2), 2: (1, 3), 3: (2, 1)}


def involution_triple(j):
    """Images of (v1, v2, v3) under the j-th root swap vj -> pj - (other two) - vj."""
    a1, a2, a3, a4 = (Polynomial.variable(n) for n in A_VARS)
    v1, v2, v3 = identity_triple()
    swapped = {
        1: (a1 * a2 + a3 * a4 - v2 * v3 - v1, v2, v3),
        2: (v1, a1 * a4 + a2 * a3 - v1 * v3 - v2, v3),
        3: (v1, v2, a1 * a3 + a2 * a4 - v1 * v2 - v3),
    }
    return swapped[j]


def oracle_word_triple(word):
    """A word's images, composed from the involutions by substitution."""
    current = identity_triple()
    for index, sign in word.letters:
        first, second = INVOLUTION_FACTORS[index]
        if sign < 0:
            first, second = second, first
        for j in (first, second):
            images = dict(zip(V_VARS, current))
            current = tuple(poly.substitute(images) for poly in involution_triple(j))
    return current


def degree_bound(letters):
    """An upper bound on the images' degree, from deg(pj - vk vm - vj)."""
    degrees = [1, 1, 1]
    for index, sign in letters:
        first, second = INVOLUTION_FACTORS[index]
        if sign < 0:
            first, second = second, first
        for j in (first, second):
            k, m = (i for i in range(3) if i != j - 1)
            degrees[j - 1] = max(2, degrees[k] + degrees[m], degrees[j - 1])
    return max(degrees)


class TestWords:
    def test_parse_and_str(self):
        word = BraidWord.parse("t1T2t3")
        assert word.letters == ((1, 1), (2, -1), (3, 1))
        assert str(word) == "t1T2t3"

    def test_parse_errors(self):
        for bad in ("t4", "x1", "t", "t1t"):
            with pytest.raises(ValueError):
                BraidWord.parse(bad)

    def test_subgroup_needs_generators(self):
        with pytest.raises(ValueError):
            SubgroupSpec(())

    def test_inverse_reverses_and_flips(self):
        word = BraidWord.parse("t1t2T3")
        assert str(word.inverse()) == "t3T2T1"
        assert str(word * word.inverse()) == "t1t2T3t3T2T1"

    def test_empty_word_is_identity(self):
        empty = BraidWord.parse("")
        assert braid.apply_word(empty, TETRA) == TETRA


class TestSymbolicGenerators:
    def test_first_generator_fixes_first_trace(self):
        images = braid.generator_triple(1, 1)
        assert images[0] == Polynomial.variable("v1")

    def test_cubic_invariance(self):
        f = fricke_cubic()
        for index in (1, 2, 3):
            for sign in (1, -1):
                images = braid.generator_triple(index, sign)
                assert f.substitute(dict(zip(V_VARS, images))) == f

    def test_cubic_invariance_under_mixed_word(self):
        # a word mixing two generators: its images have 25, 7 and 94 terms,
        # and the substitution passes through products of about 1500 terms
        f = fricke_cubic()
        images = braid.word_triple(BraidWord.parse("t1t2"))
        assert f.substitute(dict(zip(V_VARS, images))) == f

    def test_generator_inverses_symbolically(self):
        for index in (1, 2, 3):
            forward = braid.generator_triple(index, 1)
            backward = braid.generator_triple(index, -1)
            assert compose(backward, forward) == identity_triple()
            assert compose(forward, backward) == identity_triple()

    def test_word_triple_matches_pointwise_action(self):
        # symbolic degrees triple per letter, so keep words short here
        rng = random.Random(44)
        for text in ("t1T2", "t3t1", "T2T3", "t2t2"):
            word = BraidWord.parse(text)
            images = braid.word_triple(word)
            for _ in range(5):
                point = random_trace_point(rng)
                sym = tuple(img.evaluate(point.assignment()) for img in images)
                assert sym == braid.apply_word(word, point).v

    def test_word_triple_matches_substitution_oracle(self):
        # degrees can grow threefold per letter, and a 4-letter word of
        # degree 30 takes seconds, so words past degree 13 are redrawn
        rng = random.Random(45)
        words = []
        while len(words) < 32:
            letters = tuple((rng.randint(1, 3), rng.choice((1, -1)))
                            for _ in range(1 + len(words) % 4))
            if degree_bound(letters) <= 13:
                words.append(BraidWord(letters))
        for word in words:
            assert braid.word_triple(word) == oracle_word_triple(word), str(word)


class TestPointwiseAction:
    def test_first_generator_on_tetrahedral(self):
        moved = braid.apply_word(BraidWord.parse("t1"), TETRA)
        assert moved.v == (F(0), F(-1), F(0))

    def test_second_generator_fixes_tetrahedral(self):
        assert braid.apply_word(BraidWord.parse("t2"), TETRA).v == (F(0), F(1), F(0))

    def test_off_variety_rejected(self):
        with pytest.raises(OffVarietyError):
            braid.apply_word(BraidWord.parse("t1"), TracePoint((0, 0, 0, 0), (1, 0, 0)))

    @pytest.mark.parametrize("act", [
        lambda point: braid.apply_word(BraidWord.parse("t1"), point),
        braid.enumerate_orbit,
    ], ids=["apply_word", "enumerate_orbit"])
    def test_off_variety_message_names_the_cubic_value(self, act):
        # the message classify gives, with the cubic value in the point's ring
        for point, value in ((TracePoint((0, 0, 0, 0), (1, 0, 0)), "-3"),
                             (TracePoint((F(1, 2), 0, 0, 0), (0, 0, 0)), "-15/4")):
            message = f"point is not on the variety (cubic value {value})"
            with pytest.raises(OffVarietyError, match=f"^{re.escape(message)}$"):
                act(point)
            with pytest.raises(OffVarietyError, match=f"^{re.escape(message)}$"):
                classify(point)

    def test_action_stays_on_variety_with_same_boundary(self):
        rng = random.Random(3)
        for _ in range(50):
            point = random_trace_point(rng)
            word = BraidWord(
                tuple(
                    (rng.randint(1, 3), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 6))
                )
            )
            image = braid.apply_word(word, point)
            assert image.a == point.a
            assert on_variety(image)

    def test_thousand_random_round_trips(self):
        rng = random.Random(99)
        for _ in range(1000):
            point = random_trace_point(rng)
            word = BraidWord(
                tuple(
                    (rng.randint(1, 3), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 8))
                )
            )
            there = braid.apply_word(word, point)
            back = braid.apply_word(word.inverse(), there)
            assert back == point


class TestOrbits:
    def test_tetrahedral_orbit_is_two_points(self):
        orbit = braid.enumerate_orbit(TETRA, cap=100)
        assert orbit.status == braid.ORBIT_COMPLETE
        assert orbit.points == ((F(0), F(-1), F(0)), (F(0), F(1), F(0)))

    def test_trivial_representation_is_fixed(self):
        orbit = braid.enumerate_orbit(TracePoint((2, 2, 2, 2), (2, 2, 2)), cap=10)
        assert orbit.status == braid.ORBIT_COMPLETE
        assert orbit.size == 1

    def test_generic_point_exceeds_cap(self):
        # generic rational point of the a = 0 fibre (v1^2 + v2^2 = 4 circle);
        # its orbit grows without stabilizing, so a small cap must trip
        point = TracePoint((0, 0, 0, 0), (F(6, 5), F(8, 5), F(0)))
        assert on_variety(point)
        orbit = braid.enumerate_orbit(point, cap=500)
        assert orbit.status == braid.ORBIT_CAP_EXCEEDED
        assert orbit.size <= 500
        assert len(orbit.frontier_sizes) >= 3
        assert orbit.frontier_sizes[1] > 1  # observed growth per level

    def test_orbit_closure_property(self):
        orbit = braid.enumerate_orbit(TETRA, cap=100)
        members = set(orbit.points)
        for v in orbit.points:
            for index in (1, 2, 3):
                for sign in (1, -1):
                    assert braid.apply_letter(TETRA.a, v, index, sign) in members

    def test_orbit_points_on_variety(self):
        rng = random.Random(15)
        point = random_trace_point(rng)
        orbit = braid.enumerate_orbit(point, cap=50)
        for v in orbit.points:
            assert on_variety(TracePoint(point.a, v))

    def test_determinism(self):
        rng = random.Random(2)
        point = random_trace_point(rng)
        first = braid.enumerate_orbit(point, cap=200)
        second = braid.enumerate_orbit(point, cap=200)
        assert first.points == second.points
        assert first.frontier_sizes == second.frontier_sizes


# the six signed generators as the oracle's substitution-composed images
ORACLE_GENERATORS = [oracle_word_triple(BraidWord(((index, sign),)))
                     for index in (1, 2, 3) for sign in (1, -1)]


def oracle_orbit(point, cap):
    """Breadth-first closure in Fraction only, capped the way enumerate_orbit caps."""
    boundary = dict(zip(A_VARS, point.a))

    def images(v):
        at = boundary | dict(zip(V_VARS, v))
        return {tuple(poly.evaluate(at) for poly in triple) for triple in ORACLE_GENERATORS}

    seen, frontier, sizes = {point.v}, [point.v], [1]
    status = braid.ORBIT_COMPLETE
    while frontier:
        fresh = set().union(*map(images, frontier)) - seen
        if not fresh:
            break
        sizes.append(len(fresh))
        if len(seen) + len(fresh) > cap:
            status = braid.ORBIT_CAP_EXCEEDED
            seen.update(sorted(fresh)[:cap - len(seen)])
            break
        seen |= fresh
        frontier = sorted(fresh)
    return tuple(sorted(seen)), status, tuple(sizes)


SHEARS = st.lists(st.tuples(st.integers(-2, 2), st.booleans()), min_size=1, max_size=3)
WORDS = st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=8)


class TestWordGrammar:
    @given(WORDS)
    def test_str_round_trips(self, letters):
        word = BraidWord(tuple(letters))
        assert BraidWord.parse(str(word)) == word

    @given(st.text(alphabet="tT0123x^;") | st.lists(
        st.sampled_from(("t1", "T2", "t3", "t", "T", "0", "4", "x", "^", ";")), max_size=8,
    ).map("".join))
    def test_text_parses_or_raises_value_error(self, text):
        try:
            word = BraidWord.parse(text)
        except ValueError:
            assert not re.fullmatch("([tT][123])*", text)
        else:
            assert str(word) == text


class TestIntegerPath:
    """Integral points run the action in int; the results must be the Fraction ones."""

    def test_orbits_match_fraction_oracle(self):
        # basepoints whose first frontier branches (3 or 6 images) give long orbits
        rng = random.Random(7)
        checked = 0
        while checked < 5:
            point = random_trace_point(rng)
            expected = oracle_orbit(point, cap=300)
            if expected[2][1:2] < (3,):
                continue
            orbit = braid.enumerate_orbit(point, cap=300)
            assert (orbit.points, orbit.status, orbit.frontier_sizes) == expected
            # integral basepoints: the orbit stays in int, equal to the oracle's Fractions
            assert all(type(x) is int for v in orbit.points for x in v)
            word = BraidWord(tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(6)))
            assert all(type(x) is int for x in braid.apply_word(word, point).v)
            checked += 1

    def test_finite_su2_orbit_at_rational_boundary(self):
        # a finite orbit of an SU(2) class; a is not integral, so this runs in Fraction
        point = TracePoint((F(-3, 2), F(-3, 2), -1, 1), (1, 0, 0))
        orbit = braid.enumerate_orbit(point, cap=100)
        assert orbit.status == braid.ORBIT_COMPLETE
        assert orbit.points == ((F(1, 4), F(0), F(0)), (F(1), F(0), F(0)))
        assert all(type(x) is F for v in orbit.points for x in v)
        assert orbit.frontier_sizes == (1, 1)
        assert classify(point).label == SU2

    def test_round_trip_with_integral_v_and_rational_a(self):
        point = TracePoint((F(-3, 2), F(-3, 2), -1, 1), (1, 0, 0))
        for text in ("t1", "T1t2", "t1t1", "T3t2t2"):
            word = BraidWord.parse(text)
            there = braid.apply_word(word, point)
            images = braid.word_triple(word)
            assert there.v == tuple(img.evaluate(point.assignment()) for img in images)
            assert all(type(x) is F for x in there.v)
            assert braid.apply_word(word.inverse(), there) == point

    @given(st.tuples(SHEARS, SHEARS, SHEARS), WORDS)
    def test_word_action_matches_fraction_action(self, shears, letters):
        point = sl2_trace_point(*map(shear_product, shears))
        word = BraidWord(tuple(letters))
        there = braid.apply_word(word, point)
        assert there.v == braid._act(point.a, point.v, word.letters)
        assert all(type(x) is int for x in there.v)
        assert on_variety(there)
        assert braid.apply_word(word.inverse(), there) == point


class TestFixedIdeal:
    def test_identity_subgroup_gives_principal_ideal(self):
        basis = braid.fixed_ideal(SubgroupSpec.parse([""]))
        f = fricke_cubic()
        lead = basis.order.leading_monomial(f)
        monic = f.scale(1 / f.exponent_vectors(basis.order.variables)[lead])
        assert basis.polynomials == (monic,)

    def test_two_point_family_vanishes_on_all_generators(self):
        # substitute the boundary pattern (a1, a2, a2, -a1) and the two
        # formula points (0, 2 - a1^2, 0), (0, a2^2 - 2, 0) into every
        # computed generator: all must vanish identically
        basis = braid.fixed_ideal(TWO_POINT_SUBGROUP)
        family = {
            "a3": Polynomial.variable("a2"),
            "a4": -Polynomial.variable("a1"),
            "v1": Polynomial.zero(),
            "v3": Polynomial.zero(),
        }
        for v2_image in (P("2 - a1^2"), P("a2^2 - 2")):
            images = dict(family)
            images["v2"] = v2_image
            for generator in basis.polynomials:
                assert generator.substitute(images).is_zero()

    def test_raw_generators_structure(self):
        gens = braid.fixed_ideal_generators(TWO_POINT_SUBGROUP)
        assert gens[0] == fricke_cubic()
        # each generator fixes one coordinate (t2 fixes v2, t1t1 fixes v1,
        # t3t3 fixes v3), so each contributes two difference polynomials
        assert len(gens) == 1 + 2 + 2 + 2

    def test_basis_verifies(self):
        assert gb.verify_groebner(braid.fixed_ideal(TWO_POINT_SUBGROUP))

    def test_basis_matches_independent_engine_verbatim(self):
        # reduced bases are unique for a fixed order, so the 36 monic
        # elements must agree exactly with an independent computation
        sympy = pytest.importorskip("sympy")
        basis = braid.fixed_ideal(TWO_POINT_SUBGROUP)
        names = basis.order.variables
        xs = sympy.symbols(" ".join(names))
        lookup = dict(zip(names, xs))
        raw = [
            sympy.sympify(str(g).replace("^", "**"), locals=lookup)
            for g in braid.fixed_ideal_generators(TWO_POINT_SUBGROUP)
        ]
        theirs = sympy.groebner(raw, *xs, order="grevlex")

        def monic(expr):
            poly = sympy.Poly(expr, *xs)
            return sympy.expand(expr / poly.LT(order="grevlex")[1])

        ours = [
            monic(sympy.sympify(str(g).replace("^", "**"), locals=lookup))
            for g in basis.polynomials
        ]
        key = sympy.core.sorting.default_sort_key
        assert sorted(map(monic, theirs.exprs), key=key) == sorted(ours, key=key)

    @pytest.mark.parametrize("gens", ["t2;t1t1;t3t3", "t1;t2", "t1t2"])
    def test_rational_boundary_matches_specialized_generators(self, gens):
        subgroup = SubgroupSpec.parse(gens.split(";"))
        symbolic = braid.fixed_ideal_generators(subgroup)
        rng = random.Random(46)
        boundaries = [(1, -1, -1, -1)]
        boundaries += [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(20)]
        boundaries += [(F(3, 2), F(1, 2), F(1, 2), F(-3, 2)), (F(-2, 3), 0, F(5, 4), 1),
                       (F(1, 7), F(-9, 2), 3, F(2, 5))]
        for a in boundaries:
            assignment = {n: Polynomial.constant(x) for n, x in zip(A_VARS, a)}
            specialized = tuple(g.substitute(assignment) for g in symbolic)
            expected = tuple(g for g in specialized if not g.is_zero())
            assert braid.fixed_ideal_generators(subgroup, tuple(map(F, a))) == expected, a


class TestFixedPoints:
    def test_tetrahedral_specialization(self):
        result = braid.fixed_points_at((1, -1, -1, -1), TWO_POINT_SUBGROUP)
        assert result.complete
        assert result.solutions == ((F(0), F(-1), F(0)), (F(0), F(1), F(0)))

    def test_zero_boundary_specialization(self):
        # frozen from solving the specialized system with an independent
        # computer-algebra engine: six rational fixed points, including the
        # two formula points (0, 2 - a1^2, 0) and (0, a2^2 - 2, 0) at a = 0
        result = braid.fixed_points_at((0, 0, 0, 0), TWO_POINT_SUBGROUP)
        assert result.complete
        expected = {
            (F(-2), F(-2), F(-2)),
            (F(-2), F(2), F(2)),
            (F(0), F(-2), F(0)),
            (F(0), F(2), F(0)),
            (F(2), F(-2), F(2)),
            (F(2), F(2), F(-2)),
        }
        assert set(result.solutions) == expected
        assert {(F(0), F(2), F(0)), (F(0), F(-2), F(0))} <= expected

    def test_solutions_are_fixed_and_on_variety(self):
        a = (F(1), F(-1), F(-1), F(-1))
        result = braid.fixed_points_at(a, TWO_POINT_SUBGROUP)
        for v in result.solutions:
            point = TracePoint(a, v)
            assert on_variety(point)
            for word in TWO_POINT_SUBGROUP.generators:
                assert braid.apply_word(word, point) == point

    def test_family_specialization_with_fractional_boundary(self):
        # boundary pattern (a1, a2, a2, -a1) at a1 = 3/2, a2 = 1/2: the two
        # formula points (0, 2 - a1^2, 0) and (0, a2^2 - 2, 0), frozen from an
        # independent solve of the specialized system
        result = braid.fixed_points_at((F(3, 2), F(1, 2), F(1, 2), F(-3, 2)), TWO_POINT_SUBGROUP)
        assert result.complete
        assert result.solutions == (
            (F(0), F(-7, 4), F(0)),
            (F(0), F(-1, 4), F(0)),
        )

    def test_irrational_fixed_coordinates_reported_as_residual(self):
        # at a = (1,0,0,0) the fixed locus is (0, +/-sqrt(3), 0): no rational
        # points, and the unsolved square-free factor is reported
        result = braid.fixed_points_at((1, 0, 0, 0), TWO_POINT_SUBGROUP)
        assert result.zero_dimensional
        assert result.solutions == ()
        assert [str(r) for r in result.residuals] == ["v2^2 - 3"]
        assert not result.complete

    def test_mixed_rational_and_residual_solutions(self):
        # at a = (0,1,1,0): rational points (0,-1,0), (0,2,0) from the v3 = 0
        # branch plus the unsolved factor v3^2 - 3 (frozen from an
        # independent solve)
        result = braid.fixed_points_at((0, 1, 1, 0), TWO_POINT_SUBGROUP)
        assert result.zero_dimensional
        assert result.solutions == ((F(0), F(-1), F(0)), (F(0), F(2), F(0)))
        assert [str(r) for r in result.residuals] == ["v3^2 - 3"]

    def test_positive_dimensional_reported(self):
        result = braid.fixed_points_at((1, -1, -1, -1), SubgroupSpec.parse([""]))
        assert not result.zero_dimensional
        assert result.positive_dimensional_basis

    def test_listed_example_family_points_on_variety(self):
        # boundary family (-2 + s^2, s, s, -1) at s = 1 carries the three
        # listed fixed points; all satisfy the cubic
        a = (F(-1), F(1), F(1), F(-1))
        for v in ((F(0), F(1), F(0)), (F(0), F(1), F(-2)), (F(-2), F(1), F(0))):
            assert on_variety(TracePoint(a, v))


class TestEliminationOnFixedLocus:
    def test_middle_trace_values_at_tetrahedral_boundary(self):
        # eliminating v1, v3 from the specialized fixed locus leaves a
        # univariate ideal in v2 with rational roots {-1, 1}
        a = {"a1": Polynomial.constant(1), "a2": Polynomial.constant(-1),
             "a3": Polynomial.constant(-1), "a4": Polynomial.constant(-1)}
        gens = tuple(
            g.substitute(a)
            for g in braid.fixed_ideal_generators(TWO_POINT_SUBGROUP)
        )
        ideal = gb.Ideal(tuple(g for g in gens if not g.is_zero()), V_VARS)
        eliminated = gb.eliminate(ideal, ["v1", "v3"])
        assert eliminated.variables == ("v2",)
        roots = set()
        for g in eliminated.generators:
            found, residual = gb.rational_roots(g, "v2")
            roots.update(found)
            assert residual is None
        assert roots == {F(-1), F(1)}
