"""Exact polynomial arithmetic: parsing, ring operations, substitution, evaluation."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fricke import exactalg
from fricke.charvariety import ALL_VARS, fricke_cubic
from fricke.exactalg import (
    EvaluationError,
    ParseError,
    Polynomial,
    parse_polynomial,
    parse_rational,
)

P = parse_polynomial


FRICKE_TEXT = (
    "v1^2 + v2^2 + v3^2 + v1*v2*v3"
    " - (a1*a2 + a3*a4)*v1 - (a1*a4 + a2*a3)*v2 - (a1*a3 + a2*a4)*v3"
    " + a1^2 + a2^2 + a3^2 + a4^2 + a1*a2*a3*a4 - 4"
)


NAMES = ("x", "y", "z")
RATIONALS = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def random_polynomial(rng: random.Random, terms=4, deg=3) -> Polynomial:
    out = Polynomial.zero()
    for _ in range(rng.randint(0, terms)):
        vec = tuple(rng.randint(0, deg) if rng.random() < 0.6 else 0 for _ in NAMES)
        coeff = F(rng.randint(-6, 6), rng.randint(1, 4))
        out = out + Polynomial.from_exponent_vectors(NAMES, {vec: coeff})
    return out


def polynomials(max_terms=4, max_exp=3):
    vectors = st.tuples(*[st.integers(0, max_exp)] * len(NAMES))
    return st.dictionaries(vectors, RATIONALS, max_size=max_terms).map(
        lambda terms: Polynomial.from_exponent_vectors(NAMES, terms))


POLYS = polynomials()
POINTS = st.fixed_dictionaries({n: RATIONALS for n in NAMES})
IMAGES = st.dictionaries(st.sampled_from(NAMES), polynomials(max_terms=3, max_exp=2))


class TestRationals:
    def test_parse(self):
        assert parse_rational("2/3") == F(2, 3)
        assert parse_rational("-7") == F(-7)
        assert parse_rational(" 4/6 ") == F(2, 3)

    def test_canonical_form(self):
        r = parse_rational("-4/6")
        assert (r.numerator, r.denominator) == (-2, 3)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_format_round_trip(self):
        for text in ("2/3", "-5", "0", "-11/4"):
            assert str(parse_rational(text)) == text


class TestParsing:
    def test_simple(self):
        p = P("v1^2 - 2")
        assert p.exponent_vectors(("v1",)) == {(2,): 1, (0,): -2}
        assert p.constant_term() == -2
        assert p.term_count() == 2

    def test_zero(self):
        assert P("0").is_zero()
        assert P("0").term_count() == 0

    def test_full_trace_relation_has_sixteen_monomials(self):
        # frozen from expanding the product form by hand: 4 pure-v terms,
        # 6 mixed a*a*v terms, 6 constant-block terms
        p = P(FRICKE_TEXT)
        assert p.term_count() == 16
        assert p == fricke_cubic()

    def test_rational_coefficients(self):
        half_v1 = Polynomial.from_exponent_vectors(("v1",), {(1,): F(1, 2)})
        assert P("1/2*v1") == half_v1
        assert P("v1/2") == half_v1

    def test_division_by_polynomial_rejected(self):
        with pytest.raises(ParseError):
            P("v1/v2")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError) as err:
            P("2v1")
        assert err.value.position == 1

    def test_unknown_variable_reported(self):
        with pytest.raises(ParseError) as err:
            P("v1 + w2", variables=("v1",))
        assert "w2" in str(err.value)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            P("v1 + + *")
        assert err.value.position == 7

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            P("v1 & v2")

    def test_round_trip_on_random(self):
        rng = random.Random(11)
        for _ in range(200):
            p = random_polynomial(rng)
            assert P(str(p)) == p


class TestRingOperations:
    def test_add_inverse(self):
        p = P("v1^2 + 3*v2 - 1/2")
        assert (p + (-p)).is_zero()

    def test_add_like_terms(self):
        assert P("v1 + 1") + P("v1 - 1") == P("2*v1")

    def test_add_zero_identity(self):
        f = fricke_cubic()
        assert f + Polynomial.zero() == f

    def test_mul_difference_of_squares(self):
        assert P("v1 - v2") * P("v1 + v2") == P("v1^2 - v2^2")

    def test_mul_one_identity(self):
        f = fricke_cubic()
        assert Polynomial.constant(1) * f == f

    def test_mul_matches_listed_generator(self):
        assert P("v2 - 2") * P("v2 + 2") * P("v3") == P("v2^2*v3 - 4*v3")

    def test_pow(self):
        assert P("v1 + 1") ** 3 == P("v1^3 + 3*v1^2 + 3*v1 + 1")

    def test_ring_axioms_on_random_inputs(self):
        rng = random.Random(23)
        for _ in range(100):
            p, q, r = (random_polynomial(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_canonicalization_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_polynomial(rng)
            terms = list(p.exponent_vectors(NAMES).items())
            rng.shuffle(terms)
            rebuilt = Polynomial.from_exponent_vectors(NAMES, dict(terms))
            assert rebuilt == p
            assert hash(rebuilt) == hash(p)


class TestProperties:
    """The ring, printing and substitution laws on drawn polynomials in x, y, z."""

    @given(POLYS, POLYS, POLYS)
    def test_ring_axioms(self, p, q, r):
        zero, one = Polynomial.zero(), Polynomial.constant(1)
        assert (p + q) + r == p + (q + r) and p + q == q + p
        assert (p * q) * r == p * (q * r) and p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + zero == p and p * one == p and (p - p).is_zero()
        assert p ** 2 == p * p and p ** 0 == one

    @given(POLYS)
    def test_print_parse_round_trip(self, p):
        assert P(str(p)) == p

    @given(POLYS)
    def test_items_rebuild(self, p):
        # items() gives each term once: strictly name-sorted pairs of positive
        # exponents and a nonzero coefficient, the terms of exponent_vectors
        items = list(p.items())
        assert len(items) == p.term_count()
        for pairs, coeff in items:
            assert coeff and all(e > 0 for _, e in pairs)
            assert all(a < b for (a, _), (b, _) in zip(pairs, pairs[1:]))
        vectors = {tuple(dict(pairs).get(n, 0) for n in NAMES): c for pairs, c in items}
        assert vectors == p.exponent_vectors(NAMES)
        assert Polynomial.from_exponent_vectors(NAMES, vectors) == p
        assert p.degree() == max((sum(e for _, e in pairs) for pairs, _ in items), default=-1)
        assert p.variables() == frozenset(n for pairs, _ in items for n, _ in pairs)

    def test_items_sort_by_name_not_register(self):
        # "zb" enters the variable register before "ab"; items() still puts "ab" first
        p = Polynomial.from_exponent_vectors(("zb", "ab"), {(1, 2): F(3), (0, 0): F(-1)})
        assert sorted(p.items()) == [((), -1), ((("ab", 2), ("zb", 1)), 3)]

    def test_default_constructor_is_zero(self):
        zero = Polynomial()
        assert zero.is_zero() and zero == Polynomial.zero() and zero == 0
        assert hash(zero) == hash(Polynomial.zero()) and str(zero) == "0"
        assert list(zero.items()) == [] and zero.degree() == -1
        x = Polynomial.variable("x")
        assert zero + x == x and (zero * x).is_zero()
        with pytest.raises(TypeError):
            Polynomial({1: F(1)})  # packed keys have no public constructor

    @given(POLYS)
    def test_exponent_vectors_round_trip(self, p):
        assert Polynomial.from_exponent_vectors(NAMES, p.exponent_vectors(NAMES)) == p
        with pytest.raises(ValueError, match="not covered"):
            (p + Polynomial.variable("w")).exponent_vectors(NAMES)

    @given(POLYS, IMAGES, POINTS)
    def test_substitute_then_evaluate(self, p, images, point):
        # variables without an image keep their own value
        values = {n: images[n].evaluate(point) if n in images else point[n] for n in NAMES}
        assert p.substitute(images).evaluate(point) == p.evaluate(values)


class TestExponentOverflow:
    """Exponents past MAX_EXPONENT or below 0 raise; they never wrap into a neighbour."""

    def test_power_raises(self):
        with pytest.raises(OverflowError, match="'x'"):
            Polynomial.variable("x") ** 40000

    def test_product_raises(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        half = x ** 20000 * y
        with pytest.raises(OverflowError, match="'x'"):
            half * half

    def test_substitution_raises(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        with pytest.raises(OverflowError, match="'y'"):
            (x * y ** 20000).substitute({"x": y ** 20000})

    def test_monomial_raises(self):
        with pytest.raises(OverflowError, match="'x'"):
            Polynomial.from_exponent_vectors(("x",), {(exactalg.MAX_EXPONENT + 1,): 1})

    def test_negative_exponent_rejected(self):
        # x^-1 * y would pack to -1 + (1 << 16): y's field borrowed away, x's all ones
        with pytest.raises(ValueError, match="negative exponent of 'x'"):
            Polynomial.from_exponent_vectors(("x", "y"), {(-1, 1): 1})

    def test_largest_exponent_kept(self):
        top, x, y = exactalg.MAX_EXPONENT, Polynomial.variable("x"), Polynomial.variable("y")
        assert top == 32767
        product = (x ** 16384 * y) * (x ** (top - 16384) * y)
        assert product == Polynomial.from_exponent_vectors(("x", "y"), {(top, 2): 1})
        assert (x ** top).degree() == top


class TestSubstitution:
    def test_identity_map(self):
        f = fricke_cubic()
        identity = {n: Polynomial.variable(n) for n in ALL_VARS}
        assert f.substitute(identity) == f

    def test_root_swap_leaves_cubic_invariant(self):
        # the cubic is monic quadratic in v3, so swapping its two roots
        # (v3 -> a1*a3 + a2*a4 - v1*v2 - v3) is a symmetry
        f = fricke_cubic()
        image = P("a1*a3 + a2*a4 - v1*v2 - v3")
        assert f.substitute({"v3": image}) == f

    def test_zero_pair_traces_leave_constant_block(self):
        f = fricke_cubic()
        zero = Polynomial.zero()
        collapsed = f.substitute({"v1": zero, "v2": zero, "v3": zero})
        assert collapsed == P("a1^2 + a2^2 + a3^2 + a4^2 + a1*a2*a3*a4 - 4")


class TestEvaluation:
    def test_tetrahedral_point(self):
        f = fricke_cubic()
        point = dict(zip(ALL_VARS, (F(1), F(-1), F(-1), F(-1), F(0), F(1), F(0))))
        assert f.evaluate(point) == 0

    def test_trivial_representation(self):
        f = fricke_cubic()
        point = dict(zip(ALL_VARS, [F(2)] * 7))
        assert f.evaluate(point) == 0

    def test_single_variable(self):
        assert P("v1").evaluate({"v1": F(5)}) == 5

    def test_missing_assignment_names_variable(self):
        with pytest.raises(EvaluationError) as err:
            P("v1 + v2").evaluate({"v1": F(1)})
        assert err.value.name == "v2"

    def test_substitute_evaluate_composition(self):
        rng = random.Random(31)
        names = ("x", "y", "z")
        for _ in range(50):
            p = random_polynomial(rng)
            images = {n: random_polynomial(rng, terms=2, deg=2) for n in names}
            point = {n: F(rng.randint(-3, 3), rng.randint(1, 3)) for n in names}
            direct = p.substitute(images).evaluate(point)
            via_values = p.evaluate({n: images[n].evaluate(point) for n in names})
            assert direct == via_values
