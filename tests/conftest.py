"""Shared test fixtures: exact SL2 sampling, residue-tuple generators and the
Hypothesis profile."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from fricke.charvariety import V_VARS, TracePoint

# every property test draws the same examples on every run, with no example
# database and no per-example deadline (exact arithmetic has a long tail)
settings.register_profile("fricke", derandomize=True, database=None, deadline=None)
settings.load_profile("fricke")

Mat2 = tuple[Fraction, Fraction, Fraction, Fraction]  # row-major exact 2x2

IDENTITY: Mat2 = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def mat_inv_sl2(x: Mat2) -> Mat2:
    # adjugate; valid because determinant is 1 by construction
    return (x[3], -x[1], -x[2], x[0])


def mat_trace(x: Mat2) -> Fraction:
    return x[0] + x[3]


def shear_product(shears) -> Mat2:
    """Product of elementary shear matrices ``(x, lower)``: exact determinant 1."""
    m = IDENTITY
    for x, lower in shears:
        x = Fraction(x)
        shear: Mat2 = (
            (Fraction(1), x, Fraction(0), Fraction(1))
            if not lower
            else (Fraction(1), Fraction(0), x, Fraction(1))
        )
        m = mat_mul(m, shear)
    return m


def random_sl2(rng: random.Random, size: int = 2) -> Mat2:
    """A product of one to three random integer shears.

    Integer shears keep all traces integral, which keeps the braid-word
    round-trip tests fast (no rational gcd work on huge denominators).
    """
    return shear_product((rng.randint(-size, size), rng.random() < 0.5)
                         for _ in range(rng.randint(1, 3)))


def sl2_trace_point(m1: Mat2, m2: Mat2, m3: Mat2) -> TracePoint:
    """The trace coordinates of the quadruple (m1, m2, m3, (m1 m2 m3)^-1)."""
    m4 = mat_inv_sl2(mat_mul(mat_mul(m1, m2), m3))
    a = (mat_trace(m1), mat_trace(m2), mat_trace(m3), mat_trace(m4))
    v = (
        mat_trace(mat_mul(m1, m2)),
        mat_trace(mat_mul(m2, m3)),
        mat_trace(mat_mul(m1, m3)),
    )
    return TracePoint(a, v)


def random_trace_point(rng: random.Random) -> TracePoint:
    """An exact on-variety point, built from an actual SL2 quadruple."""
    return sl2_trace_point(*(random_sl2(rng) for _ in range(3)))


def compose(outer: tuple, inner: tuple) -> tuple:
    """Symbolic triple of (outer after inner): substitute inner images into outer."""
    images = dict(zip(V_VARS, inner))
    return tuple(poly.substitute(images) for poly in outer)


def random_traceless_matrix(rng: random.Random, scale: float) -> np.ndarray:
    m = np.array(
        [
            [rng.gauss(0, scale) + 1j * rng.gauss(0, scale) for _ in range(2)]
            for _ in range(2)
        ],
        dtype=complex,
    )
    m[1, 1] = -m[0, 0]
    return m


def is_resonant(theta, margin: float = 1e-9) -> bool:
    """True when some exponent is within ``margin`` of a nonzero integer."""
    for th in theta:
        nearest = round(th.real)
        if nearest != 0 and abs(th - nearest) < margin:
            return True
    return False


def sample_residue_tuple(rng: random.Random, scale: float = 0.2, im_cap: float = 0.25,
                         resonance_margin: float = 0.1):
    """Well-scaled non-resonant residue tuple (keeps trace coordinates O(100))."""
    from fricke import connection as conn

    while True:
        X = [random_traceless_matrix(rng, scale) for _ in range(3)]
        X.append(-(X[0] + X[1] + X[2]))
        residues = conn.ResidueTuple(tuple(X))
        theta = conn.theta_of(residues)
        if is_resonant(theta, margin=resonance_margin):
            continue
        if max(abs(t.imag) for t in theta) > im_cap:
            continue
        return residues


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)
