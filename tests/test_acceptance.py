"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Numeric tolerances are asserted exactly as stated; the
wall-clock budgets of criteria 3 and 8 are asserted, the sub-second targets
of the others are printed for inspection.

Criterion 3 is expected to FAIL: the ideal generated by the cubic plus the
per-word fixed conditions is provably not equal to the reference
five-generator ideal, in either direction (the reference ideal's variety
contains points the squared generators move, and the strict fixed locus has
components off the reference boundary-trace pattern).  The test reports which
direction fails, as the criterion instructs.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from fricke import braid, connection as conn, groebner as gb, pvi
from fricke.braid import BraidWord, SubgroupSpec
from fricke.charvariety import (
    ALL_VARS,
    TracePoint,
    V_VARS,
    classify,
    fricke_cubic,
    intervals_intersect,
    on_variety,
    trace_interval,
)
from fricke.exactalg import Polynomial, parse_polynomial

from conftest import compose, random_trace_point, sample_residue_tuple

P = parse_polynomial

TETRA = TracePoint((1, -1, -1, -1), (0, 1, 0))
TRIVIAL = TracePoint((2, 2, 2, 2), (2, 2, 2))
TWO_POINT_SUBGROUP = SubgroupSpec.parse(["t2", "t1t1", "t3t3"])

REFERENCE_IDEAL = gb.Ideal(
    tuple(
        P(text, ALL_VARS)
        for text in (
            "-4*v3 + v2^2*v3",
            "-2*v1 - v2*v3",
            "4 - 2*a3^2 - 2*a4^2 + a3^2*a4^2 + a3^2*v2 - a4^2*v2 - v2^2",
            "a2 - a3",
            "a1 + a4",
        )
    ),
    ALL_VARS,
)


def report(number: int, passed: bool, elapsed: float, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number}: {verdict} ({elapsed * 1000:.1f} ms){suffix}")


def test_criterion_1_fricke_identities():
    start = time.perf_counter()
    ok = TETRA.cubic_value() == 0 and TRIVIAL.cubic_value() == 0
    elapsed = time.perf_counter() - start
    report(1, ok, elapsed, "exact cubic values at both fixture points")
    assert ok


def test_criterion_2_braid_invariance():
    start = time.perf_counter()
    f = fricke_cubic()
    identity = tuple(Polynomial.variable(n) for n in V_VARS)
    ok = True
    for index in (1, 2, 3):
        forward = braid.generator_triple(index, 1)
        backward = braid.generator_triple(index, -1)
        ok &= f.substitute(dict(zip(V_VARS, forward))) == f
        ok &= compose(backward, forward) == identity
        ok &= compose(forward, backward) == identity
    elapsed = time.perf_counter() - start
    report(2, ok, elapsed, "f o tau_i = f and tau_i o tau_i^-1 = id, i = 1, 2, 3")
    assert ok
    assert elapsed < 1.0


def test_criterion_3_fixed_ideal_reproduction():
    start = time.perf_counter()
    basis = braid.fixed_ideal(TWO_POINT_SUBGROUP)
    gb_elapsed = time.perf_counter() - start
    computed = basis.as_ideal()
    equal = gb.ideal_equal(computed, REFERENCE_IDEAL)
    elapsed = time.perf_counter() - start
    assert gb_elapsed < 60.0, f"fixed-ideal basis took {gb_elapsed:.1f}s (budget 60s)"
    if equal:
        report(3, True, elapsed, "ideal-equal to the reference five-generator ideal")
        assert equal
        return
    directions = gb.containment_report(computed, REFERENCE_IDEAL)
    failing_forward = [
        text for text, member in directions["left_generators_in_right"].items() if not member
    ]
    failing_backward = [
        text for text, member in directions["right_generators_in_left"].items() if not member
    ]
    detail = (
        f"computed-in-reference: {directions['left_subset_right']}"
        f" ({len(failing_forward)} of {len(computed.generators)} generators fail);"
        f" reference-in-computed: {directions['right_subset_left']}"
        f" ({len(failing_backward)} of {len(REFERENCE_IDEAL.generators)} generators fail)"
    )
    report(3, False, elapsed, detail)

    def clip(text: str, width: int = 70) -> str:
        return text if len(text) <= width else text[: width - 3] + "..."

    raise AssertionError(
        "fixed ideal of <t2, t1^2, t3^2> is not equal to the reference ideal. "
        + detail
        + "; failing computed generators (clipped): "
        + str([clip(t) for t in failing_forward[:4]])
        + ("..." if len(failing_forward) > 4 else "")
        + "; failing reference generators: "
        + str(failing_backward)
    )


def test_criterion_4_fixed_points_and_family_check():
    start = time.perf_counter()
    result = braid.fixed_points_at((1, -1, -1, -1), TWO_POINT_SUBGROUP)
    points_ok = result.complete and result.solutions == (
        (F(0), F(-1), F(0)),
        (F(0), F(1), F(0)),
    )
    # symbolic family check: boundary pattern (a1, a2, a2, -a1) with the two
    # formula points (0, 2 - a1^2, 0) and (0, a2^2 - 2, 0)
    basis = braid.fixed_ideal(TWO_POINT_SUBGROUP)
    family = {
        "a3": Polynomial.variable("a2"),
        "a4": -Polynomial.variable("a1"),
        "v1": Polynomial.zero(),
        "v3": Polynomial.zero(),
    }
    symbolic_ok = True
    for v2_image in (P("2 - a1^2"), P("a2^2 - 2")):
        images = dict(family, v2=v2_image)
        symbolic_ok &= all(g.substitute(images).is_zero() for g in basis.polynomials)
    elapsed = time.perf_counter() - start
    ok = points_ok and symbolic_ok
    report(4, ok, elapsed, "two rational fixed points; symbolic family reduction to zero")
    assert points_ok
    assert symbolic_ok


def test_criterion_5_listed_example_varieties():
    start = time.perf_counter()
    f = fricke_cubic()
    s = Polynomial.variable("s")
    one = Polynomial.constant(1)
    w = s ** 3 - s.scale(3)

    def member(a_images, v_images) -> bool:
        images = dict(zip(("a1", "a2", "a3", "a4"), a_images))
        images.update(zip(V_VARS, v_images))
        return f.substitute(images).is_zero()

    family_one = (s * s - Polynomial.constant(2), s, s, -one)
    ok = all(
        member(family_one, v)
        for v in (
            (Polynomial.zero(), one, Polynomial.zero()),
            (Polynomial.zero(), one, w),
            (w, one, Polynomial.zero()),
        )
    )
    u = s * s - Polynomial.constant(2)
    family_two = (s, s, s, Polynomial.zero())
    ok &= all(
        member(family_two, v)
        for v in ((one, u, one), (one, one, one), (u, one, one), (one, one, u))
    )
    elapsed = time.perf_counter() - start
    report(5, ok, elapsed, "all seven listed points satisfy the cubic identically")
    assert ok


def test_criterion_6_orbit_fixture():
    start = time.perf_counter()
    orbit = braid.enumerate_orbit(TETRA, cap=100)
    elapsed = time.perf_counter() - start
    ok = orbit.status == braid.ORBIT_COMPLETE and orbit.points == (
        (F(0), F(-1), F(0)),
        (F(0), F(1), F(0)),
    )
    report(6, ok, elapsed, "closure is exactly the two-point set")
    assert ok


def test_criterion_7_classification():
    start = time.perf_counter()
    mixed = trace_interval(F(1), F(-1))
    other = trace_interval(F(-1), F(-1))
    interval_ok = (
        mixed.lower.compare(other.lower) < 0  # [-2, 1] vs [-1, 2]
        and intervals_intersect(mixed, other)
        and not intervals_intersect(trace_interval(F(2), F(2)), mixed)
    )
    tetra_label = classify(TETRA)
    split_point = TracePoint((2, 2, 1, -1), (1, 0, 0))
    split_label = classify(split_point)
    elapsed = time.perf_counter() - start
    ok = interval_ok and tetra_label.label == "SU2" and split_label.label == "SL2R"
    report(7, ok, elapsed, "exact interval tests decide SU2 and SL2R fixtures")
    assert on_variety(split_point)
    assert ok


def test_criterion_8_holonomy_oracle():
    start = time.perf_counter()
    x = np.diag([1 / 6, -1 / 6]).astype(complex)
    zero = np.zeros((2, 2), dtype=complex)
    commuting = conn.ResidueTuple((x, -x, zero, zero))
    result = conn.holonomy(commuting, conn.PunctureConfig(0.5), tol=1e-10)
    ok = abs(result.a[0] - 1) < 1e-8

    rng = random.Random(20260808)
    worst = {"trace": 0.0, "det": 0.0, "product": 0.0, "cubic": 0.0}
    for _ in range(20):
        residues = sample_residue_tuple(rng)
        hol = conn.holonomy(residues, conn.PunctureConfig(F(1, 3)), tol=1e-12)
        expected = conn.exp_map(hol.theta)
        worst["trace"] = max(
            worst["trace"], max(abs(a - e) for a, e in zip(hol.a, expected))
        )
        worst["det"] = max(worst["det"], max(hol.det_residuals))
        worst["product"] = max(worst["product"], hol.product_residual)
        worst["cubic"] = max(worst["cubic"], hol.fricke_residual)
    ok &= all(value < 1e-6 for value in worst.values())
    elapsed = time.perf_counter() - start
    report(
        8, ok, elapsed,
        "commuting oracle 1e-8; 20 random tuples: worst "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )
    assert ok
    assert elapsed < 30.0


def test_criterion_9_exponent_and_equation_layer():
    start = time.perf_counter()
    theta0 = (F(1, 3), F(2, 3), F(2, 3), F(2, 3))
    a = conn.exp_map(theta0)
    exp_ok = max(abs(x - e) for x, e in zip(a, (1, -1, -1, -1))) < 1e-12
    params_ok = conn.pvi_params(theta0) == (F(1, 18), F(-1, 18), F(2, 9), F(5, 18))
    ideal = pvi.family_constraints(theta0)
    base_point = dict(zip(pvi.THETA_VARS, theta0))
    family_ok = True
    for poly in pvi.FAMILY_CONSTRAINT_SETS["tetrahedral-two-point"]:
        family_ok &= gb.ideal_member(poly, ideal)
        family_ok &= poly.evaluate(base_point) == 0
    elapsed = time.perf_counter() - start
    ok = exp_ok and params_ok and family_ok
    report(9, ok, elapsed, "exponent map, equation parameters, family memberships")
    assert ok


def test_criterion_10_property_suites():
    start = time.perf_counter()
    # 1000 exact word round-trips on on-variety points
    rng = random.Random(99)
    round_trips_ok = True
    for _ in range(1000):
        point = random_trace_point(rng)
        word = BraidWord(
            tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 8)))
        )
        round_trips_ok &= braid.apply_word(word.inverse(), braid.apply_word(word, point)) == point

    # S-polynomial re-check on every basis this suite computes
    bases = [
        braid.fixed_ideal(TWO_POINT_SUBGROUP),
        gb.groebner_basis(REFERENCE_IDEAL),
        gb.buchberger(
            gb.Ideal.of([P("x^2 - 1"), P("x*y - 1")], ("x", "y")),
            gb.MonomialOrder.lex(("x", "y")),
        ),
        gb.groebner_basis(pvi.family_constraints((F(1, 3), F(2, 3), F(2, 3), F(2, 3)))),
    ]
    recheck_ok = all(gb.verify_groebner(basis) for basis in bases)

    # equation residual: exactly linear in the second derivative
    linear_ok = True
    jet_rng = random.Random(7)
    for _ in range(10):
        t = jet_rng.uniform(1.5, 3)
        y = jet_rng.uniform(0.2, 0.8)
        yp = jet_rng.uniform(-1, 1)
        theta = tuple(jet_rng.uniform(0, 1) for _ in range(4))
        r0 = conn.pvi_residual(t, y, yp, 0, theta)
        r1 = conn.pvi_residual(t, y, yp, 1, theta)
        linear_ok &= abs((r1 - r0) - 1) < 1e-12

    # finite-difference residual along an integrated trajectory
    theta = (1 / 3, 2 / 3, 2 / 3, 2 / 3)

    def rhs(t, state):
        return (state[1], -conn.pvi_residual(t, state[0], state[1], 0.0, theta))

    t0, t1, n = 2.0, 3.0, 4000
    h = (t1 - t0) / n
    y, yp = 3.0 + 0j, 0.1 + 0j
    samples = [y]
    for k in range(n):
        t = t0 + k * h
        k1 = rhs(t, (y, yp))
        k2 = rhs(t + h / 2, (y + h / 2 * k1[0], yp + h / 2 * k1[1]))
        k3 = rhs(t + h / 2, (y + h / 2 * k2[0], yp + h / 2 * k2[1]))
        k4 = rhs(t + h, (y + h * k3[0], yp + h * k3[1]))
        y = y + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        yp = yp + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        samples.append(y)
    stride = 5
    hf = stride * h
    worst = 0.0
    for idx in range(stride, n - stride, 100):
        t = t0 + idx * h
        ypp_fd = (samples[idx + stride] - 2 * samples[idx] + samples[idx - stride]) / hf ** 2
        yp_fd = (samples[idx + stride] - samples[idx - stride]) / (2 * hf)
        worst = max(worst, abs(conn.pvi_residual(t, samples[idx], yp_fd, ypp_fd, theta)))
    trajectory_ok = worst < 1e-6

    elapsed = time.perf_counter() - start
    ok = round_trips_ok and recheck_ok and linear_ok and trajectory_ok
    report(
        10, ok, elapsed,
        f"1000 round-trips, {len(bases)} basis re-checks, linearity, trajectory {worst:.2e}",
    )
    assert round_trips_ok
    assert recheck_ok
    assert linear_ok
    assert trajectory_ok
