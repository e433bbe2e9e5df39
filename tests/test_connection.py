"""Holonomy, exponents, trace extraction, and the Painleve VI layer."""

import cmath
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from fricke import connection as conn
from fricke import groebner as gb, pvi
from fricke.exactalg import Polynomial, parse_polynomial

from conftest import random_traceless_matrix, sample_residue_tuple

P = parse_polynomial

ZERO = np.zeros((2, 2), dtype=complex)


# Residues X1, X2, X3 (X4 is minus their sum) of three seeded tuples of the
# benchmark's holonomy workload, named seed/pass/tuple.  Their monodromy
# entries reach 2e3, 7e2 and 3e3, so det rounding alone puts the cubic
# residual near criterion 8's 1e-6.  With np.linalg.inv in the conjugation
# moves and an unprojected A4 = inv(A1 A2 A3), the three-piece loops gave
# 6.6e-6 on 19/23/31 and 9.7e-7 on 1/10/20, and two-piece loops gave 4.2e-6
# on 19/23/31 and 1.25e-6 on 15/27/32.
MARGINAL_RESIDUES = {
    "19/23/31": (
        [(-0.4574859038917266+0.023699016010466426j), (-0.4321937828514581-0.1347404635291833j),
         (-0.19589536682407316+0.2438585945491359j), (0.4574859038917266-0.023699016010466426j)],
        [(-0.04966991095273408-0.18694750155515732j), (-0.17138283089403897+0.17613595120399322j),
         (-0.27005231309192873+0.04403230099281492j), (0.04966991095273408+0.18694750155515732j)],
        [(-0.43068873235950333-0.041119208374912064j), (-0.14811128254865732+0.025477642412195908j),
         (-0.4671189870347183-0.20264618286862124j), (0.43068873235950333+0.041119208374912064j)],
    ),
    "15/27/32": (
        [(-0.2604793484595704+0.2593265992761038j), (-0.37696392743817736-0.34113142492550963j),
         (-0.37257837032280106-0.07789985792417617j), (0.2604793484595704-0.2593265992761038j)],
        [(-0.4078918344778839+0.041928954194068335j), (0.19224130467677294+0.008161541001153759j),
         (0.10732663988216924-0.3136483486424933j), (0.4078918344778839-0.041928954194068335j)],
        [(-0.2675320500142018-0.09124290009295877j), (-0.3411647986942006-0.0831533704754303j),
         (-0.49854292453761256-0.05001447265300071j), (0.2675320500142018+0.09124290009295877j)],
    ),
    "1/10/20": (
        [(-0.42979701529537967-0.13792972414223j), (-0.0850096758776621-0.10101262361095414j),
         (0.14213746028385607+0.14746213421021948j), (0.42979701529537967+0.13792972414223j)],
        [(-0.22544960033482628+0.02173618837096252j), (-0.06477581667418837-0.1642228285744539j),
         (0.2816843790606357+0.21211075068462668j), (0.22544960033482628-0.02173618837096252j)],
        [(-0.587255331462638+0.06617249383547384j), (0.18677628333591936+0.6028638235846475j),
         (-0.0502453570851513-0.08635806391255621j), (0.587255331462638-0.06617249383547384j)],
    ),
}


def marginal_residue_tuple(name):
    X = [np.array(entries, dtype=complex).reshape(2, 2) for entries in MARGINAL_RESIDUES[name]]
    X.append(-(X[0] + X[1] + X[2]))
    return conn.ResidueTuple(tuple(X))


def reference_step(self, z, h, y):
    """``_Transporter._step`` as first written: the reference for its
    bit-identity rule.  It rebuilds the term tuples every term and computes
    each shifted diagonal coefficient where it is used; the kernel must give
    the same bits with the same float operations, only cheaper."""
    d0, d1, d2 = (z - c for c in self.punctures)
    s = h / (d0 * d1 * d2)
    p1, p2, p3 = s * (d0 * d1 + d0 * d2 + d1 * d2), s * h * (d0 + d1 + d2), s * h * h
    weights = ((d1 * d2, d0 * d2, d0 * d1), (d1 + d2, d0 + d2, d0 + d1), (1, 1, 1))
    (a0, a1, a2, a3), (b0, b1, b2, b3), (e0, e1, e2, e3) = (
        tuple(-s * h ** j * (w0 * a + w1 * b + w2 * c) for a, b, c in self.columns)
        for j, (w0, w1, w2) in enumerate(weights)
    )
    threshold = self.tol * (1 + max(abs(v) for v in y))
    u0, u1, u2 = y, (0j,) * 4, (0j,) * 4
    total, quiet = y, 0
    for n in range(conn.MAX_SERIES_TERMS):
        c0, c1, c2 = p1 * n, p2 * (n - 1), p3 * (n - 2)
        (f0, f1, f2, f3), (g0, g1, g2, g3), (k0, k1, k2, k3) = u0, u1, u2
        inv = 1 / (n + 1)
        u0, u1, u2 = (
            ((a0 - c0) * f0 + a1 * f2 + (b0 - c1) * g0 + b1 * g2 + (e0 - c2) * k0 + e1 * k2) * inv,
            ((a0 - c0) * f1 + a1 * f3 + (b0 - c1) * g1 + b1 * g3 + (e0 - c2) * k1 + e1 * k3) * inv,
            (a2 * f0 + (a3 - c0) * f2 + b2 * g0 + (b3 - c1) * g2 + e2 * k0 + (e3 - c2) * k2) * inv,
            (a2 * f1 + (a3 - c0) * f3 + b2 * g1 + (b3 - c1) * g3 + e2 * k1 + (e3 - c2) * k3) * inv,
        ), u0, u1
        total = (total[0] + u0[0], total[1] + u0[1], total[2] + u0[2], total[3] + u0[3])
        size = max(abs(v) for v in u0)
        quiet = quiet + 1 if size < threshold else 0
        if quiet == 2:
            self.error_estimate += size
            return total
    raise conn.HolonomyError(f"Taylor series not converged within {conn.MAX_SERIES_TERMS} terms")


def diag(a, b):
    return np.diag([a, b]).astype(complex)


def matrix_exp_traceless(m):
    """exp of a traceless 2x2 matrix via the closed form cosh/sinh expansion."""
    lam = cmath.sqrt(-complex(np.linalg.det(m)))
    if abs(lam) < 1e-30:
        return np.eye(2, dtype=complex) + m
    return cmath.cosh(lam) * np.eye(2, dtype=complex) + (cmath.sinh(lam) / lam) * m


def conjugated_residues(residues, g):
    """The residue tuple gauge-transformed by ``g``: each ``X_i`` becomes ``g X_i g^-1``."""
    ginv = np.linalg.inv(g)
    return conn.ResidueTuple(tuple(g @ m @ ginv for m in residues.X))


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0, math.nan)])
    def test_non_finite_residue_entry_rejected(self, value):
        # NaN fails every comparison, so the trace and sum checks alone pass it
        x = diag(1, -1)
        y = x.copy()
        y[0, 1] = value
        with pytest.raises(ValueError, match="residue 2 has a non-finite entry"):
            conn.ResidueTuple((x, y, ZERO, ZERO))

    @pytest.mark.parametrize("t", [math.nan, math.inf, complex(0.5, math.nan), -math.inf])
    def test_non_finite_puncture_rejected(self, t):
        with pytest.raises(ValueError, match="puncture position t=.* is not finite"):
            conn.PunctureConfig(t)


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
        closed_form = matrix_exp_traceless(2j * math.pi * residues.X[0])
        assert np.max(np.abs(result.monodromy[0] - closed_form)) < 1e-8

    def test_zero_residues_give_identity(self):
        residues = conn.ResidueTuple((ZERO, ZERO, ZERO, ZERO))
        result = conn.holonomy(residues, conn.PunctureConfig(F(1, 3)), tol=1e-10)
        for m in result.monodromy:
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

    @pytest.mark.parametrize("name", list(MARGINAL_RESIDUES))
    def test_marginal_tuples_certify(self, name):
        result = conn.holonomy(marginal_residue_tuple(name),
                               conn.PunctureConfig(0.3333333333333333), tol=1e-12)
        expected = conn.exp_map(result.theta)
        assert max(abs(x - e) for x, e in zip(result.a, expected)) < 1e-6
        assert max(result.det_residuals) < 1e-6
        assert result.product_residual < 1e-6
        assert result.fricke_residual < 1e-6

    @pytest.mark.parametrize("t", [F(1, 3), 0.35 + 0.6j], ids=["1/3", "0.35+0.6j"])
    def test_two_piece_loops_match_three_piece_transport(self, monkeypatch, t):
        # the first three det projections in holonomy are the loop monodromies;
        # the oracle transports the way back out along the segment from the
        # entry point to the basepoint instead of inverting the way in
        projected = []

        def recording_unimodular(m, unimodular=conn._unimodular):
            projected.append(unimodular(m))
            return projected[-1]

        monkeypatch.setattr(conn, "_unimodular", recording_unimodular)
        config = conn.PunctureConfig(t)
        punctures = list(config.finite)
        radius = min(abs(p - q) for p in punctures for q in punctures if p != q) / 4
        basepoint = conn._choose_basepoint(punctures, radius)
        rng = random.Random(2007)
        for _ in range(3):
            residues = sample_residue_tuple(rng)
            projected.clear()
            result = conn.holonomy(residues, config, tol=1e-12)
            oracle = conn._Transporter(residues.X[:3], punctures, 1e-12)
            for c, loop in zip(punctures, projected):
                inbound, circle = conn._loop_pieces(basepoint, c, radius)
                entry = inbound[0](1.0)
                outbound = (lambda s: entry + s * (basepoint - entry), lambda s: basepoint - entry)
                y = (1 + 0j, 0j, 0j, 1 + 0j)
                for zfun, dzfun in (inbound, circle, outbound):
                    y = oracle.run_piece(zfun, dzfun, y)
                expected = np.array([[y[3], -y[1]], [-y[2], y[0]]])
                expected /= cmath.sqrt(np.linalg.det(expected))
                assert np.max(np.abs(loop - expected)) < 1e-9 * np.max(np.abs(expected))
            if t == F(1, 3):
                # steps depend only on the geometry: 3 x (6 in + 13 around),
                # where the three-piece loop added 10 steps back out
                assert result.steps == 57
                assert oracle.steps == 87

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
        moved = conn.holonomy(conjugated_residues(residues, m), config, tol=1e-12)
        assert max(abs(x - y) for x, y in zip(base.a, moved.a)) < 1e-8
        assert max(abs(x - y) for x, y in zip(base.v, moved.v)) < 1e-8

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(0.5), tol=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(0.5), tol=tol)

    @pytest.mark.parametrize("t", [1e154, -1e200j, 1e300 + 1e300j])
    def test_far_puncture_refused_by_name(self, t):
        # the basepoint's squared distance to a puncture overflows a float
        with pytest.raises(ValueError, match=r"^puncture position t=.* is too large for float arithmetic$"):
            conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(t))

    @pytest.mark.parametrize("t", [1e150j, 1e60, 1e100 + 1e99j])
    def test_puncture_rounding_onto_a_path_refused_by_name(self, t):
        # |t| dwarfs the loop radius 1/4, so a step lands exactly on a puncture
        with pytest.raises(ValueError, match=r"^puncture position t=.* is too large for float arithmetic$"):
            conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(t))

    def test_series_term_cap_raises(self):
        # steps at half the distance to the nearest puncture shrink the terms
        # about 2x each, so 1e-200 is out of reach within the term cap
        with pytest.raises(conn.HolonomyError, match="terms"):
            conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(0.5), tol=1e-200)

    @pytest.mark.parametrize("t, tol, message", [
        pytest.param(9.950041652780258e16 + 9.983341664682816e15j, pvi.DEFAULT_HOLONOMY_TOL,
                     "Taylor series not converged within 400 terms"
                     " at t=(9.950041652780258e+16+9983341664682816j), tol=1e-10", id="far-t"),
        pytest.param(F(1, 3), 1e-300, "Taylor series not converged within 400 terms"
                     " at t=(0.3333333333333333+0j), tol=1e-300", id="tiny-tol"),
    ])
    def test_failed_transport_names_t_and_tol(self, t, tol, message):
        # |t| = 1e17 at angle 0.1, and a tolerance below float resolution:
        # the same series cap, told apart only by the inputs
        with pytest.raises(conn.HolonomyError) as err:
            conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(t), tol=tol)
        assert str(err.value) == message

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


class TestStepKernel:
    """``_Transporter._step`` gives the bits of ``reference_step`` (see its docstring)."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-12], ids=["1e-8", "1e-12"])
    @pytest.mark.parametrize("t", [F(1, 3), 0.35 + 0.6j, -0.7], ids=["1/3", "0.35+0.6j", "-0.7"])
    def test_steps_match_reference(self, monkeypatch, t, tol):
        kernel, steps = conn._Transporter._step, []

        def both(self, z, h, y):
            estimate = self.error_estimate
            want = reference_step(self, z, h, y)
            want_estimate, self.error_estimate = self.error_estimate, estimate
            got = kernel(self, z, h, y)
            assert got == want and self.error_estimate == want_estimate
            steps.append(z)
            return got

        monkeypatch.setattr(conn._Transporter, "_step", both)
        rng = random.Random(2026)
        for _ in range(3):
            conn.holonomy(sample_residue_tuple(rng), conn.PunctureConfig(t), tol=tol)
        assert len(steps) > 100

    @pytest.mark.parametrize("name", list(MARGINAL_RESIDUES))
    def test_marginal_results_match_reference(self, monkeypatch, name):
        config = conn.PunctureConfig(0.3333333333333333)
        result = conn.holonomy(marginal_residue_tuple(name), config, tol=1e-12)
        monkeypatch.setattr(conn._Transporter, "_step", reference_step)
        reference = conn.holonomy(marginal_residue_tuple(name), config, tol=1e-12)
        assert result.to_json() == reference.to_json()
        assert result.steps == reference.steps


class TestTraces:
    def test_identity_tuple(self):
        eye = np.eye(2, dtype=complex)
        a, v, residual = conn.traces((eye, eye, eye, eye))
        assert a == (2, 2, 2, 2) and v == (2, 2, 2) and residual == 0

    def test_quaternion_pair(self):
        # A1 = [[0,1],[-1,0]], A2 = [[0,i],[i,0]], A3 = (A1 A2)^-1, A4 = I:
        # all seven traces vanish except tr(A4) = 2, and the cubic value is
        # 0 + 0 + 4 - 4 = 0
        a1 = np.array([[0, 1], [-1, 0]], dtype=complex)
        a2 = np.array([[0, 1j], [1j, 0]], dtype=complex)
        a3 = np.linalg.inv(a1 @ a2)
        a4 = np.eye(2, dtype=complex)
        a, v, residual = conn.traces((a1, a2, a3, a4))
        assert a == (0, 0, 0, 2)
        assert v == (0, 0, 0)
        assert residual == 0

    def test_holonomy_output_on_variety(self):
        result = conn.holonomy(commuting_residue_tuple(), conn.PunctureConfig(0.5), tol=1e-10)
        assert result.fricke_residual < 1e-8


def sqrt_endpoint_label(a, tol=1e-8) -> tuple:
    """(class, box, overlap) of real boundary traces from float interval
    endpoints ``st/2 -/+ sqrt((s^2-4)(t^2-4))/2``, traces clamped to [-2, 2]."""
    if not all(abs(x) <= 2 + tol for x in a):
        return "SL2R", False, None

    def endpoints(s, t):
        s, t = min(2.0, max(-2.0, s)), min(2.0, max(-2.0, t))
        half = math.sqrt(max(0.0, (s * s - 4) * (t * t - 4))) / 2
        return s * t / 2 - half, s * t / 2 + half

    (lo1, hi1), (lo2, hi2) = endpoints(a[0], a[1]), endpoints(a[2], a[3])
    overlap = max(lo1, lo2) <= min(hi1, hi2) + tol
    return ("SU2" if overlap else "SL2R"), True, overlap


def numeric_flags(a, v=(0, 0, 0)) -> tuple:
    label = conn.classify_numeric(a, v)
    return label.label, label.box, label.overlap


class TestNumericClassification:
    def test_random_floats_match_sqrt_endpoints(self):
        rng = random.Random(37)
        counts = {}
        for _ in range(20000):
            a = [rng.uniform(-2.1, 2.1) for _ in range(4)]
            want = sqrt_endpoint_label(a)
            assert numeric_flags(a) == want, a
            counts[want] = counts.get(want, 0) + 1
        assert len(counts) == 3 and min(counts.values()) > 1000

    @pytest.mark.parametrize("eps", [0, 1e-12, -1e-12, 1e-9, -1e-9])
    def test_perturbed_half_integers_match_sqrt_endpoints(self, eps):
        # tangencies and box corners sit on the half-integer grid; each
        # boundary is moved by eps along all four axes and along one seeded
        # sign pattern
        rng = random.Random(41)
        for a in itertools.product([k / 2 for k in range(-4, 5)], repeat=4):
            pattern = [rng.choice((-1, 0, 1)) for _ in a]
            for moved in ([x + eps for x in a], [x + s * eps for x, s in zip(a, pattern)]):
                assert numeric_flags(moved) == sqrt_endpoint_label(moved), moved

    def test_complex_input_reads_the_real_parts(self):
        rng = random.Random(43)
        for _ in range(2000):
            a = [complex(rng.uniform(-2.1, 2.1), rng.uniform(-2e-8, 2e-8)) for _ in range(4)]
            v = [complex(rng.uniform(-3, 3), rng.uniform(-2e-8, 2e-8)) for _ in range(3)]
            if max(abs(x.imag) for x in a + v) > 1e-8:
                assert numeric_flags(a, v) == ("NonReal", False, None)
            else:
                assert numeric_flags(a, v) == sqrt_endpoint_label([x.real for x in a])

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

    @pytest.mark.parametrize("theta", [(0.1, 0.2, 0.3, 0.4), (0.1 + 0.2j, -0.3j, 0.5, 1.25 - 0.5j)])
    def test_float_exponents_give_the_float_half_formula(self, theta):
        th1, th2, th3, th4 = theta
        expected = ((th4 - 1) ** 2 * 0.5, -(th1 ** 2) * 0.5, th3 ** 2 * 0.5, (1 - th2 ** 2) * 0.5)
        got = conn.pvi_params(theta)
        assert got == expected
        assert [type(x) for x in got] == [type(x) for x in expected]


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
        ideal = pvi.family_constraints(self.THETA0)
        point = dict(zip(pvi.THETA_VARS, self.THETA0))
        for g in ideal.generators:
            assert g.evaluate(point) == 0

    def test_shipped_family_polynomials_are_members(self):
        # each equals twice a sum of two generators (checked by hand when
        # freezing: 2(g3 + g4) and 2(g1 + g2))
        ideal = pvi.family_constraints(self.THETA0)
        for poly in pvi.FAMILY_CONSTRAINT_SETS["tetrahedral-two-point"]:
            assert gb.ideal_member(poly, ideal)

    def test_shipped_family_vanishes_at_base(self):
        point = dict(zip(pvi.THETA_VARS, self.THETA0))
        for poly in pvi.FAMILY_CONSTRAINT_SETS["tetrahedral-two-point"]:
            assert poly.evaluate(point) == 0

    def test_sign_symmetry_invariance(self):
        # th1..th3 -> -th1..-th3 and th4 -> 2 - th4 fix every parameter
        ideal = pvi.family_constraints(self.THETA0)
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
        ideal = pvi.family_constraints(self.THETA0)
        family = gb.Ideal(
            pvi.FAMILY_CONSTRAINT_SETS["tetrahedral-two-point"], pvi.THETA_VARS
        )
        assert not all(gb.ideal_member(g, family) for g in ideal.generators)
