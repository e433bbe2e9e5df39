"""Division, Buchberger, ideal predicates, elimination, and the root solver."""

import random
from fractions import Fraction as F

import pytest

from fricke import groebner as gb
from fricke.charvariety import ALL_VARS
from fricke.exactalg import Polynomial, parse_polynomial

P = parse_polynomial

# reference generating set of the two-point-orbit invariant subvariety
REFERENCE_GENERATORS = (
    "v2^2*v3 - 4*v3",
    "-2*v1 - v2*v3",
    "4 - 2*a3^2 - 2*a4^2 + a3^2*a4^2 + a3^2*v2 - a4^2*v2 - v2^2",
    "a2 - a3",
    "a1 + a4",
)


def reference_ideal() -> gb.Ideal:
    return gb.Ideal(tuple(P(t, ALL_VARS) for t in REFERENCE_GENERATORS), ALL_VARS)


def random_poly(rng: random.Random, names, terms=3, deg=2) -> Polynomial:
    from fricke.exactalg import Monomial

    out = Polynomial.zero()
    for _ in range(rng.randint(1, terms)):
        mono = Monomial({n: rng.randint(0, deg) for n in names if rng.random() < 0.7})
        out = out + Polynomial({mono: F(rng.randint(-4, 4))})
    return out


def all_pairs_verdict(basis: gb.GroebnerBasis) -> bool:
    """Unpruned reference check: every one of the n(n-1)/2 S-polynomials,
    built with ``Polynomial`` arithmetic, reduces to zero."""
    polys, order = basis.polynomials, basis.order
    lead = [order.leading_monomial(p) for p in polys]

    def lifted(k, lcm):  # polys[k] times the term that makes its leading term lcm
        return polys[k] * Polynomial({lcm / lead[k]: 1 / polys[k].coefficient(lead[k])})

    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            lcm = lead[i].lcm(lead[j])
            if not gb.reduce(lifted(i, lcm) - lifted(j, lcm), polys, order).is_zero():
                return False
    return True


class TestReduce:
    def test_power_by_variable(self):
        order = gb.MonomialOrder.lex(("v1",))
        assert gb.reduce(P("v1^2"), [P("v1")], order).is_zero()

    @pytest.mark.parametrize(
        "poly, basis, remainder",
        [
            pytest.param("x^2*y", ["x^2 - 1"], "y", id="monic"),
            # non-monic divisors with fractional coefficients; x joins the
            # remainder before y^2 is divided by 3*y^2 - 1/2
            pytest.param(
                "x^2*y + x + 1/5*y^2", ["3*y^2 - 1/2", "2/3*x^2 - y"], "x + 17/60",
                id="fractional",
            ),
        ],
    )
    def test_single_division_step(self, poly, basis, remainder):
        order = gb.MonomialOrder.lex(("x", "y"))
        assert gb.reduce(P(poly), [P(b) for b in basis], order) == P(remainder)

    def test_listed_generator_reduces_in_reference_basis(self):
        basis = gb.groebner_basis(reference_ideal())
        assert gb.reduce(P("a2 - a3", ALL_VARS), basis.polynomials, basis.order).is_zero()

    def test_remainder_has_no_divisible_term(self):
        order = gb.MonomialOrder.grevlex(("x", "y", "z"))
        rng = random.Random(3)
        basis = [P("x^2 - y"), P("y^2 - z")]
        lead = [order.leading_monomial(b) for b in basis]
        for _ in range(30):
            p = random_poly(rng, ("x", "y", "z"))
            r = gb.reduce(p, basis, order)
            for mono, _ in r.items():
                assert not any(lm.divides(mono) for lm in lead)

    def test_reduce_idempotent(self):
        order = gb.MonomialOrder.grevlex(("x", "y", "z"))
        rng = random.Random(4)
        basis = [P("x^2 - y"), P("x*y - z"), P("y^3 - 1")]
        for _ in range(30):
            p = random_poly(rng, ("x", "y", "z"))
            r = gb.reduce(p, basis, order)
            assert gb.reduce(r, basis, order) == r

    def test_difference_lies_in_ideal(self):
        order = gb.MonomialOrder.grevlex(("x", "y"))
        ideal = gb.Ideal.of([P("x^2 - 1"), P("x*y - 1")], ("x", "y"))
        basis = gb.groebner_basis(ideal, order)
        p = P("x^3*y + y^2 - 5")
        r = gb.reduce(p, ideal.generators, order)
        assert basis.contains(p - r)


class TestBuchberger:
    def test_lex_two_generator_example(self):
        # hand-run: S(x^2-1, xy-1) = x - y; S(xy-1, x-y) = y^2 - 1;
        # the inputs then inter-reduce to zero against these two
        ideal = gb.Ideal.of([P("x^2 - 1"), P("x*y - 1")], ("x", "y"))
        basis = gb.buchberger(ideal, gb.MonomialOrder.lex(("x", "y")))
        assert set(map(str, basis.polynomials)) == {"x - y", "y^2 - 1"}

    def test_unit_ideal(self):
        ideal = gb.Ideal.of([P("3")], ("x",))
        basis = gb.buchberger(ideal, gb.MonomialOrder.lex(("x",)))
        assert [str(g) for g in basis.polynomials] == ["1"]

    def test_reference_generators_self_consistency(self):
        ideal = reference_ideal()
        basis = gb.buchberger(ideal)
        assert gb.ideal_equal(basis.as_ideal(), ideal)

    def test_spolynomials_reduce_to_zero(self):
        for gens, names in [
            (["x^2 - 1", "x*y - 1"], ("x", "y")),
            (["x^2 + y", "y^2 + x*z", "z^2 - x*y"], ("x", "y", "z")),
        ]:
            ideal = gb.Ideal.of([P(g) for g in gens], names)
            basis = gb.buchberger(ideal)
            assert gb.verify_groebner(basis)

    def test_non_basis_fails_verification(self):
        # S(x^2-1, xy-1) reduces to x - y, which no leading term divides
        order = gb.MonomialOrder.lex(("x", "y"))
        assert not gb.verify_groebner(gb.GroebnerBasis((P("x^2 - 1"), P("x*y - 1")), order))

    def test_pruned_verification_matches_all_pairs_oracle(self):
        # inputs: raw generators (mostly non-bases), generators plus an
        # element whose leading monomial another one divides, Buchberger
        # outputs, and those outputs plus a redundant ideal member
        rng = random.Random(61)
        verdicts = []
        for case in range(120):
            names = ("x", "y", "z")[: rng.choice((2, 3))]
            kind = rng.choice(("lex", "grevlex"))
            order = getattr(gb.MonomialOrder, kind)(names)
            gens = [random_poly(rng, names, terms=4, deg=2) for _ in range(rng.randint(2, 4))]
            gens = [g for g in gens if not g.is_constant()]
            if not gens:
                continue
            if case % 4 == 1:
                x = Polynomial.variable(rng.choice(names))
                gens.append(x * gens[0] + Polynomial.constant(rng.randint(1, 3)))
            if case % 4 >= 2:
                try:
                    basis = gb.buchberger(gb.Ideal.of(gens, names), order, max_degree=8)
                except gb.ResourceCapError:
                    continue
                gens = list(basis.polynomials)
                if case % 4 == 3:
                    gens.append(Polynomial.variable(names[0]) * gens[0] + gens[-1])
            basis = gb.GroebnerBasis(tuple(gens), order)
            expected = all_pairs_verdict(basis)
            assert gb.verify_groebner(basis) is expected, (kind, [str(g) for g in gens])
            verdicts.append(expected)
        assert len(verdicts) >= 100
        assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30

    def test_pruned_verification_pair_count(self, monkeypatch):
        # pinned so that a silent fallback to all 36*35/2 = 630 pairs fails
        from fricke import braid

        basis = braid.fixed_ideal(braid.SubgroupSpec.parse(["t2", "t1t1", "t3t3"]))
        assert len(basis.polynomials) == 36
        reduced = []
        s_poly = gb._s_poly
        monkeypatch.setattr(gb, "_s_poly", lambda a, b: reduced.append(1) or s_poly(a, b))
        assert gb.verify_groebner(basis) is True
        assert len(reduced) == 125

    @pytest.mark.parametrize(
        "lms, live, expected",
        [
            # lcm(x^2, y) = x^2 y = lcm(x^2, xy): criterion B keeps (0, 1)
            # because of (0, 2); M drops (0, 2) behind (1, 2)
            (((2, 0), (1, 1), (0, 1)), {(0, 1)}, ({(0, 1), (1, 2)}, [1])),
            # the same with the roles swapped: (0, 1) kept because of (1, 2)
            (((1, 1), (2, 0), (0, 1)), {(0, 1)}, ({(0, 1), (0, 2)}, [0])),
            # in (x, z): the coprime pair (0, 2) first drops (1, 2) under F,
            # and only then goes itself
            (((1, 0), (1, 1), (0, 1)), set(), (set(), [])),
            # control: x^2 y^2 is divided by xy and has a different lcm with
            # each, so B drops (0, 1)
            (((2, 0), (0, 2), (1, 1)), {(0, 1)}, ({(0, 2), (1, 2)}, [0, 1])),
        ],
        ids=["equal-lcm-first", "equal-lcm-second", "coprime-last", "control"],
    )
    def test_update_pairs_on_hand_built_monomials(self, lms, live, expected):
        assert gb._update_pairs(list(lms), set(live), len(lms) - 1) == expected

    def test_generators_are_members(self):
        ideal = gb.Ideal.of([P("x^2 + y"), P("y^3 - x")], ("x", "y"))
        for g in ideal.generators:
            assert gb.ideal_member(g, ideal)

    def test_reduced_basis_invariant_under_generator_permutation(self):
        gens = [P("x^2 + y"), P("y^2 + x*z"), P("z^2 - x*y"), P("x*y*z - 1")]
        names = ("x", "y", "z")
        rng = random.Random(9)
        reference = gb.buchberger(gb.Ideal.of(gens, names)).polynomials
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert gb.buchberger(gb.Ideal.of(shuffled, names)).polynomials == reference

    def test_matches_independent_engine(self):
        sympy = pytest.importorskip("sympy")
        names = ("x", "y", "z")
        gens = ["x^2 + y*z - 2", "x*y^2 - z", "y + z^2 - 1"]
        ours = gb.buchberger(gb.Ideal.of([P(g) for g in gens], names))
        xs = sympy.symbols("x y z")
        lookup = dict(zip(names, xs))
        theirs = sympy.groebner(
            [sympy.sympify(g.replace("^", "**"), locals=lookup) for g in gens],
            *xs,
            order="grevlex",
        )
        ours_sympy = [
            sympy.expand(sympy.sympify(str(g).replace("^", "**"), locals=lookup))
            for g in ours.polynomials
        ]
        key = sympy.core.sorting.default_sort_key
        assert sorted(theirs.exprs, key=key) == sorted(ours_sympy, key=key)

    def test_pair_budget_cap(self):
        gens = [P("x^2 + y"), P("y^2 + x*z"), P("z^2 - x*y")]
        with pytest.raises(gb.ResourceCapError):
            gb.buchberger(gb.Ideal.of(gens, ("x", "y", "z")), max_pairs=1)

    def test_degree_cap_on_inputs(self):
        gens = [P("x^5 - y"), P("y^5 - x")]
        with pytest.raises(gb.ResourceCapError):
            gb.buchberger(gb.Ideal.of(gens, ("x", "y")), max_degree=4)

    def test_degree_cap_on_intermediate_lcm(self):
        gens = [P("x^5 - y"), P("x*y^5 - 1")]
        with pytest.raises(gb.ResourceCapError):
            gb.buchberger(gb.Ideal.of(gens, ("x", "y")), max_degree=6)

    def test_coprime_pairs_do_not_trip_degree_cap(self):
        # the only S-pair has coprime leading monomials, so the large lcm
        # degree never matters and the inputs are already the reduced basis
        gens = [P("x^20 - 1"), P("y^20 - 1")]
        basis = gb.buchberger(gb.Ideal.of(gens, ("x", "y")), max_degree=30)
        assert set(map(str, basis.polynomials)) == {"x^20 - 1", "y^20 - 1"}


class TestIdealPredicates:
    def test_generator_membership(self):
        f = P("x^2*y - y + 1")
        assert gb.ideal_member(f, gb.Ideal.of([f], ("x", "y")))

    def test_non_membership(self):
        assert not gb.ideal_member(P("v1"), gb.Ideal.of([P("v2")], ("v1", "v2")))

    def test_listed_generator_membership_in_reference_ideal(self):
        assert gb.ideal_member(P("-2*v1 - v2*v3", ALL_VARS), reference_ideal())

    def test_equal_ideals(self):
        left = gb.Ideal.of([P("x"), P("y")], ("x", "y"))
        right = gb.Ideal.of([P("y"), P("x + y")], ("x", "y"))
        assert gb.ideal_equal(left, right)

    def test_unequal_ideals(self):
        left = gb.Ideal.of([P("x")], ("x", "y"))
        right = gb.Ideal.of([P("x^2")], ("x", "y"))
        assert not gb.ideal_equal(left, right)

    def test_containment_report_directions(self):
        left = gb.Ideal.of([P("x^2")], ("x", "y"))
        right = gb.Ideal.of([P("x")], ("x", "y"))
        report = gb.containment_report(left, right)
        assert report["left_subset_right"] and not report["right_subset_left"]


class TestEliminate:
    def test_parameterized_parabola(self):
        # v1 = a1 and v2 = v1^2 force v2 = a1^2; both containments were
        # checked by hand when freezing this value
        ideal = gb.Ideal.of([P("v1 - a1"), P("v1^2 - v2")], ("v1", "a1", "v2"))
        out = gb.eliminate(ideal, ["v1"])
        assert out.variables == ("a1", "v2")
        assert gb.ideal_equal(out, gb.Ideal.of([P("a1^2 - v2")], ("a1", "v2")))

    def test_eliminate_nothing(self):
        ideal = gb.Ideal.of([P("x*y - 1")], ("x", "y"))
        assert gb.eliminate(ideal, []) == ideal

    def test_wrong_order_rejected(self):
        ideal = gb.Ideal.of([P("x*y - 1")], ("x", "y"))
        with pytest.raises(ValueError):
            gb.eliminate(ideal, ["x"], gb.MonomialOrder.grevlex(("x", "y")))
        with pytest.raises(ValueError):
            gb.eliminate(ideal, ["x"], gb.MonomialOrder.lex(("y", "x")))

    def test_lex_elimination_order_accepted(self):
        ideal = gb.Ideal.of([P("v1 - a1"), P("v1^2 - v2")], ("v1", "a1", "v2"))
        out = gb.eliminate(ideal, ["v1"], gb.MonomialOrder.lex(("v1", "a1", "v2")))
        assert gb.ideal_equal(out, gb.Ideal.of([P("a1^2 - v2")], ("a1", "v2")))


class TestUnivariateSolving:
    def test_rational_roots_with_multiplicity(self):
        p = P("x^3 - x^2 - x + 1")  # (x-1)^2 (x+1)
        roots, residual = gb.rational_roots(p, "x")
        assert roots == [F(-1), F(1), F(1)]
        assert residual is None

    def test_rational_roots_fractional(self):
        p = P("2*x^2 - x")  # x(2x - 1)
        roots, residual = gb.rational_roots(p, "x")
        assert roots == [F(0), F(1, 2)]
        assert residual is None

    def test_deflation_is_exact(self):
        # 3x^2 + x - 2 = (3x - 2)(x + 1): dividing by x - 2/3 leaves 3x + 3
        assert gb._deflate([-2, 1, 3], F(2, 3)) == [3, 3]
        with pytest.raises(ValueError):
            gb._deflate([-2, 1, 3], F(1, 2))

    def test_irrational_residual(self):
        p = P("x^3 - 2*x")  # x (x^2 - 2)
        roots, residual = gb.rational_roots(p, "x")
        assert roots == [F(0)]
        assert residual == P("x^2 - 2")

    def test_squarefree_part(self):
        p = P("x^4 - 2*x^3 + 2*x - 1")  # (x-1)^3 (x+1)
        assert gb.squarefree_part(p, "x") == P("x^2 - 1")

    def test_solve_zero_dimensional(self):
        ideal = gb.Ideal.of([P("x^2 - 1"), P("y - x")], ("x", "y"))
        sol = gb.solve_zero_dimensional(ideal)
        assert sol.complete
        assert [(pt["x"], pt["y"]) for pt in sol.points] == [(F(-1), F(-1)), (F(1), F(1))]

    def test_solve_reports_residual(self):
        ideal = gb.Ideal.of([P("x^2 - 2"), P("y - 1")], ("x", "y"))
        sol = gb.solve_zero_dimensional(ideal)
        assert not sol.points
        assert not sol.complete
        assert sol.residuals == (P("x^2 - 2"),)

    def test_solve_empty_variety(self):
        ideal = gb.Ideal.of([P("x"), P("x - 1")], ("x",))
        assert gb.solve_zero_dimensional(ideal).points == ()

    def test_positive_dimensional_reported(self):
        ideal = gb.Ideal.of([P("x*y - 1")], ("x", "y"))
        with pytest.raises(gb.NotZeroDimensionalError) as err:
            gb.solve_zero_dimensional(ideal)
        assert err.value.basis.polynomials
