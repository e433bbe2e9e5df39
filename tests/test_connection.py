"""Holonomy, exponents, trace extraction, and the Painleve VI layer."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from fricke import connection as conn
from fricke import groebner as gb
from fricke.exactalg import Polynomial, parse_polynomial

from conftest import random_traceless_matrix, sample_residue_tuple

P = parse_polynomial

ZERO = np.zeros((2, 2), dtype=complex)


def diag(a, b):
    return np.diag([a, b]).astype(complex)


def commuting_residue_tuple():
    x = diag(F(1, 6), F(-1, 6))
    return conn.ResidueTuple((x, -x, ZERO, ZERO))


class TestResidueTuples:
    def test_traceless_enforced(self):
        bad = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            conn.ResidueTuple((bad, -bad, ZERO, ZERO))

    def test_zero_sum_enforced(self):
        x = diag(1, -1)
        with pytest.raises(ValueError):
            conn.ResidueTuple((x, x, ZERO, ZERO))

    def test_json_round_trip(self):
        residues = commuting_residue_tuple()
        rebuilt = conn.ResidueTuple.from_json(residues.to_json())
        for a, b in zip(residues.X, rebuilt.X):
            assert np.array_equal(a, b)

    def test_puncture_collision_rejected(self):
        with pytest.raises(ValueError):
            conn.PunctureConfig(1.0)
        with pytest.raises(ValueError):
            conn.PunctureConfig(0)


class TestExponents:
    def test_diagonal_read_off(self):
        residues = commuting_residue_tuple()
        theta = conn.theta_of(residues)
        assert abs(theta[0] - F(1, 3)) < 1e-15
        assert abs(theta[1] - F(1, 3)) < 1e-15

    def test_nilpotent_gives_zero(self):
        nil = np.array([[0, 1], [0, 0]], dtype=complex)
        residues = conn.ResidueTuple((nil, -nil, ZERO, ZERO))
        assert conn.theta_of(residues)[0] == 0

    def test_conjugation_invariance(self):
        rng = random.Random(14)
        x = diag(F(1, 6), F(-1, 6))
        for _ in range(10):
            m = np.array(
                [[rng.gauss(1, 0.5) + 1j * rng.gauss(0, 0.5) for _ in range(2)]
                 for _ in range(2)], dtype=complex)
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            conjugated = m @ x @ np.linalg.inv(m)
            conjugated = (conjugated - np.trace(conjugated) / 2 * np.eye(2))
            residues = conn.ResidueTuple((conjugated, -conjugated, ZERO, ZERO))
            assert abs(conn.theta_of(residues)[0] - F(1, 3)) < 1e-10


class TestExpMap:
    def test_zeros(self):
        assert conn.exp_map((0, 0, 0, 0)) == (2, 2, 2, 2)

    def test_tetrahedral_exponents(self):
        a = conn.exp_map((F(1, 3), F(2, 3), F(2, 3), F(2, 3)))
        expected = (1, -1, -1, -1)
        assert all(abs(x - e) < 1e-12 for x, e in zip(a, expected))

    def test_half_exponents(self):
        a = conn.exp_map((F(1, 2),) * 4)
        assert all(abs(x) < 1e-12 for x in a)


class TestHolonomy:
    @pytest.mark.parametrize("theta", [1 / 3, 0.8, 1.45], ids=["1/3", "0.8", "1.45"])
    @pytest.mark.parametrize("t", [0.5, 0.35 + 0.6j], ids=["0.5", "0.35+0.6j"])
    def test_commuting_residues_match_closed_form(self, t, theta):
        # residues at 0 and 1 commute, so the transport is the exact
        # matrix exponential, with trace 2 cos(pi theta)
        x = diag(theta / 2, -theta / 2)
        residues = conn.ResidueTuple((x, -x, ZERO, ZERO))
        result = conn.holonomy(residues, conn.PunctureConfig(t), tol=1e-10)
        assert abs(result.a[0] - 2 * math.cos(math.pi * theta)) < 1e-8
        closed_form = conn.matrix_exp_traceless(2j * math.pi * residues.X[0])
        assert np.max(np.abs(result.monodromy.A[0] - closed_form)) < 1e-8

    def test_zero_residues_give_identity(self):
        residues = conn.ResidueTuple((ZERO, ZERO, ZERO, ZERO))
        result = conn.holonomy(residues, conn.PunctureConfig(F(1, 3)), tol=1e-10)
        for m in result.monodromy.A:
            assert np.max(np.abs(m - np.eye(2))) < 1e-12

    def test_random_residues_certify(self):
        rng = random.Random(318)
        for _ in range(5):
            residues = sample_residue_tuple(rng)
            result = conn.holonomy(residues, conn.PunctureConfig(F(1, 3)), tol=1e-12)
            expected = conn.exp_map(result.theta)
            assert max(abs(x - e) for x, e in zip(result.a, expected)) < 1e-6
            assert max(result.det_residuals) < 1e-8
            assert result.product_residual < 1e-8
            assert result.fricke_residual < 1e-6

    def test_complex_puncture_positions(self):
        rng = random.Random(77)
        residues = sample_residue_tuple(rng)
        for t in (0.5, -0.7, 2.5, 0.35 + 0.6j, 0.2 - 1.1j):
            result = conn.holonomy(residues, conn.PunctureConfig(t), tol=1e-11)
            expected = conn.exp_map(result.theta)
            assert max(abs(x - e) for x, e in zip(result.a, expected)) < 1e-6

    def test_gauge_invariance(self):
        rng = random.Random(5)
        residues = sample_residue_tuple(rng)
        config = conn.PunctureConfig(0.4 + 0.3j)
        base = conn.holonomy(residues, config, tol=1e-12)
        m = np.array([[1.3 + 0.2j, 0.4 - 0.1j], [0.2 + 0.5j, 0.9]], dtype=complex)
        moved = conn.holonomy(residues.conjugated(m), config, tol=1e-12)
        assert max(abs(x - y) for x, y in zip(base.a, moved.a)) < 1e-8
        assert max(abs(x - y) for x, y in zip(base.v, moved.v)) < 1e-8

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(0.5), tol=0)

    def test_series_term_cap_raises(self):
        # steps at half the distance to the nearest puncture shrink the terms
        # about 2x each, so 1e-200 is out of reach within the term cap
        with pytest.raises(conn.HolonomyError, match="terms"):
            conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(0.5), tol=1e-200)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(conn, "MAX_INTEGRATION_STEPS", 10)
        with pytest.raises(conn.HolonomyError, match="10 steps"):
            conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(0.5), tol=1e-10)

    def test_lost_precision_raises(self):
        # strongly non-unitary residues: the transported entries reach about
        # 4e8, and the determinant, which should be 1, cancels to exactly 0
        rng = random.Random(83)
        X = [random_traceless_matrix(rng, 1.5) for _ in range(3)]
        X.append(-(X[0] + X[1] + X[2]))
        with pytest.raises(conn.HolonomyError, match="lost all precision"):
            conn.holonomy(conn.ResidueTuple(tuple(X)), conn.PunctureConfig(0.5), tol=1e-8)


class TestTraces:
    def test_identity_tuple(self):
        eye = np.eye(2, dtype=complex)
        a, v, residual = conn.traces(conn.MonodromyTuple((eye, eye, eye, eye)))
        assert a == (2, 2, 2, 2) and v == (2, 2, 2) and residual == 0

    def test_quaternion_pair(self):
        # A1 = [[0,1],[-1,0]], A2 = [[0,i],[i,0]], A3 = (A1 A2)^-1, A4 = I:
        # all seven traces vanish except tr(A4) = 2, and the cubic value is
        # 0 + 0 + 4 - 4 = 0
        a1 = np.array([[0, 1], [-1, 0]], dtype=complex)
        a2 = np.array([[0, 1j], [1j, 0]], dtype=complex)
        a3 = np.linalg.inv(a1 @ a2)
        a4 = np.eye(2, dtype=complex)
        a, v, residual = conn.traces(conn.MonodromyTuple((a1, a2, a3, a4)))
        assert a == (0, 0, 0, 2)
        assert v == (0, 0, 0)
        assert residual == 0

    def test_holonomy_output_on_variety(self):
        result = conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(0.5), tol=1e-10)
        assert result.fricke_residual < 1e-8


class TestNumericClassification:
    def test_unitary_data(self):
        label = conn.classify_numeric((1, -1, -1, -1), (0, 1, 0))
        assert label.label == "SU2"

    def test_complex_data_is_non_real(self):
        label = conn.classify_numeric((1 + 0.5j, -1, -1, -1), (0, 1, 0))
        assert label.label == "NonReal" and not label.real

    def test_split_data(self):
        label = conn.classify_numeric((2, 2, 1, -1), (1, 0, 0))
        assert label.label == "SL2R"

    def test_generic_holonomy_output_is_non_real(self):
        # generic complex residues produce complex trace data
        rng = random.Random(13)
        while True:
            residues = sample_residue_tuple(rng)
            result = conn.holonomy(residues, conn.PunctureConfig(F(1, 3)), tol=1e-10)
            if max(abs(x.imag) for x in result.a) > 1e-3:
                break
        label = conn.classify_numeric(result.a, result.v)
        assert label.label == "NonReal"


class TestPviParams:
    def test_tetrahedral_values(self):
        r = conn.pvi_params((F(1, 3), F(2, 3), F(2, 3), F(2, 3)))
        assert r == (F(1, 18), F(-1, 18), F(2, 9), F(5, 18))

    def test_zero_propagation(self):
        assert conn.pvi_params((F(0), F(0), F(0), F(1))) == (0, 0, 0, F(1, 2))

    def test_all_vanishing(self):
        assert conn.pvi_params((F(0), F(1), F(0), F(1))) == (0, 0, 0, 0)


class TestPviResidual:
    def test_flat_jet_with_vanishing_parameters(self):
        assert conn.pvi_residual(2, 3, 0, 0, (0, 1, 0, 1)) == 0

    def test_flat_jet_with_single_parameter(self):
        # r = (0, 0, 0, 1/2); right side = (3*2*1/4) * (1/2 * 2 / 1) = 3/2
        assert abs(conn.pvi_residual(2, 3, 0, 0, (0, 0, 0, 1)) - (-1.5)) < 1e-15

    def test_linear_in_second_derivative(self):
        rng = random.Random(4)
        for _ in range(10):
            t = rng.uniform(1.5, 3)
            y = rng.uniform(0.2, 0.8) + 1j * rng.uniform(-0.3, 0.3)
            yp = rng.uniform(-1, 1)
            theta = tuple(rng.uniform(0, 1) for _ in range(4))
            r0 = conn.pvi_residual(t, y, yp, 0, theta)
            r1 = conn.pvi_residual(t, y, yp, 1, theta)
            assert abs((r1 - r0) - 1) < 1e-12
            z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            assert abs(conn.pvi_residual(t, y, yp, z, theta) - (r0 + z)) < 1e-10

    def test_pole_proximity_rejected(self):
        with pytest.raises(ValueError):
            conn.pvi_residual(2, 2, 0, 0, (0, 0, 0, 0))
        with pytest.raises(ValueError):
            conn.pvi_residual(1, 3, 0, 0, (0, 0, 0, 0))

    def test_integrated_trajectory_residual(self):
        # integrate the equation as a first-order system with fixed-step RK4,
        # then check the residual with finite-difference second derivatives;
        # stride tuned so the O(h^2) difference error sits well under 1e-6
        theta = (1 / 3, 2 / 3, 2 / 3, 2 / 3)

        def rhs(t, state):
            y, yp = state
            return (yp, -conn.pvi_residual(t, y, yp, 0.0, theta))

        t0, t1, n = 2.0, 3.0, 4000
        h = (t1 - t0) / n
        y, yp = 3.0 + 0j, 0.1 + 0j
        ys = [y]
        for k in range(n):
            t = t0 + k * h
            k1 = rhs(t, (y, yp))
            k2 = rhs(t + h / 2, (y + h / 2 * k1[0], yp + h / 2 * k1[1]))
            k3 = rhs(t + h / 2, (y + h / 2 * k2[0], yp + h / 2 * k2[1]))
            k4 = rhs(t + h, (y + h * k3[0], yp + h * k3[1]))
            y = y + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            yp = yp + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            ys.append(y)
        stride = 5
        hf = stride * h
        worst = 0.0
        for idx in range(stride, n - stride, 100):
            t = t0 + idx * h
            y_minus, y_mid, y_plus = ys[idx - stride], ys[idx], ys[idx + stride]
            ypp_fd = (y_plus - 2 * y_mid + y_minus) / hf ** 2
            yp_fd = (y_plus - y_minus) / (2 * hf)
            worst = max(worst, abs(conn.pvi_residual(t, y_mid, yp_fd, ypp_fd, theta)))
        assert worst < 1e-6


class TestFamilyConstraints:
    THETA0 = (F(1, 3), F(2, 3), F(2, 3), F(2, 3))

    def test_generators_vanish_at_base(self):
        ideal = conn.family_constraints(self.THETA0)
        point = dict(zip(conn.THETA_VARS, self.THETA0))
        for g in ideal.generators:
            assert g.evaluate(point) == 0

    def test_shipped_family_polynomials_are_members(self):
        # each equals twice a sum of two generators (checked by hand when
        # freezing: 2(g3 + g4) and 2(g1 + g2))
        ideal = conn.family_constraints(self.THETA0)
        for poly in conn.FAMILY_CONSTRAINT_SETS["tetrahedral-two-point"]:
            assert gb.ideal_member(poly, ideal)

    def test_shipped_family_vanishes_at_base(self):
        point = dict(zip(conn.THETA_VARS, self.THETA0))
        for poly in conn.FAMILY_CONSTRAINT_SETS["tetrahedral-two-point"]:
            assert poly.evaluate(point) == 0

    def test_sign_symmetry_invariance(self):
        # th1..th3 -> -th1..-th3 and th4 -> 2 - th4 fix every parameter
        ideal = conn.family_constraints(self.THETA0)
        images = {
            "th1": -Polynomial.variable("th1"),
            "th2": -Polynomial.variable("th2"),
            "th3": -Polynomial.variable("th3"),
            "th4": Polynomial.constant(2) - Polynomial.variable("th4"),
        }
        for g in ideal.generators:
            assert g.substitute(images) == g

    def test_strict_ideal_is_stricter_than_family_variety(self):
        # the shipped constraint set cuts a 2-dimensional variety, so the
        # reverse memberships must fail
        ideal = conn.family_constraints(self.THETA0)
        family = gb.Ideal(
            conn.FAMILY_CONSTRAINT_SETS["tetrahedral-two-point"], conn.THETA_VARS
        )
        assert not all(gb.ideal_member(g, family) for g in ideal.generators)
