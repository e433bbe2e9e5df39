"""Logarithmic flat connections: numerical holonomy, exponents, and the PVI layer.

A residue tuple is four traceless 2x2 complex matrices summing to zero,
attached to the punctures ``(0, 1, t, infinity)``.  Parallel transport of the
fundamental solution of ``Y' = -(sum_i X_i/(z - c_i)) Y`` around the finite
punctures, in Taylor-series steps that each cover a fixed fraction of the
distance to the nearest puncture, yields monodromy matrices; the tuple is
re-ordered to puncture order with conjugation moves so that ``A1 A2 A3 A4 = I``
holds with ``A4 = (A1 A2 A3)^-1`` conjugate to the monodromy at infinity.

Orientation convention: loops are counterclockwise and transports are
inverted, so for commuting residues ``A1 = exp(2 pi i X1)``.

This is the only module that imports numpy, and everything upstream of it is
exact: floats reach the ring-generic :func:`cubic_value` and
:func:`su2_label` of :mod:`fricke.charvariety` only from here.  The
exact side of the Painleve VI layer (exponent variables, ``pvi_params``,
the deformation ideal) and ``DEFAULT_HOLONOMY_TOL`` live in :mod:`fricke.pvi`,
so the exact subcommands never load this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .charvariety import NON_REAL, ClassLabel, cubic_value, su2_label
from .pvi import DEFAULT_HOLONOMY_TOL, pvi_params

RESIDUE_TOL = 1e-12
MAX_INTEGRATION_STEPS = 1_000_000
# a det at most this times max|entry|**2 is lost in rounding (see _unimodular)
_DET_NOISE = 4 * 2.0 ** -52

_Mat = tuple[complex, complex, complex, complex]  # row-major 2x2


class HolonomyError(RuntimeError):
    pass


# -- small matrix helpers -----------------------------------------------------

def _unimodular(m: np.ndarray) -> np.ndarray:
    """``m / sqrt(det m)``: the flow and the conjugation moves conserve det,
    so any other det is rounding drift.  Each product in det carries a
    rounding error of about ``eps * max|m|**2``, so a det not above a few
    times that, or not finite, is all drift."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    size = np.abs(m).max()
    if not cmath.isfinite(det) or abs(det) <= _DET_NOISE * size ** 2:
        raise HolonomyError(f"monodromy lost all precision to rounding "
                            f"(det {det}, entries up to {size:.3g})")
    return m / cmath.sqrt(det)


def _adj(m: np.ndarray) -> np.ndarray:
    """Adjugate of a 2x2 matrix: ``m^-1`` at det 1, with no division."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def matrix_to_json(m: np.ndarray) -> list[list[float]]:
    return [[float(x.real), float(x.imag)] for x in np.asarray(m, dtype=complex).reshape(4)]


def matrix_from_json(data: Sequence[Sequence[float]]) -> np.ndarray:
    if not isinstance(data, list) or len(data) != 4:
        raise ValueError("a 2x2 matrix needs exactly four [re, im] entries (row-major)")
    entries = []
    for j, entry in enumerate(data, 1):  # a JSON number is an int or a float, never a bool
        if not (isinstance(entry, list) and len(entry) == 2 and all(type(x) in (int, float) for x in entry)):
            raise ValueError(f"entry {j} is not a pair [re, im] of numbers")
        try:
            entries.append(complex(*map(float, entry)))
        except OverflowError:
            raise ValueError(f"entry {j} has a number too large for a float") from None
    return np.array(entries, dtype=complex).reshape(2, 2)


def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# -- residue tuples and punctures ---------------------------------------------

@dataclass(frozen=True)
class ResidueTuple:
    """Four traceless 2x2 residues with zero sum (checked to 1e-12)."""

    X: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.X)
        if len(mats) != 4 or any(m.shape != (2, 2) for m in mats):
            raise ValueError("a residue tuple is four 2x2 complex matrices")
        object.__setattr__(self, "X", mats)
        for i, m in enumerate(mats):
            if not np.isfinite(m).all():
                raise ValueError(f"residue {i + 1} has a non-finite entry")
            if abs(m[0, 0] + m[1, 1]) > RESIDUE_TOL:
                raise ValueError(f"residue {i + 1} is not traceless: trace {m[0, 0] + m[1, 1]}")
        total = mats[0] + mats[1] + mats[2] + mats[3]
        if float(np.max(np.abs(total))) > RESIDUE_TOL:
            raise ValueError(f"residues do not sum to zero (max entry {np.max(np.abs(total))})")

    def to_json(self) -> dict:
        return {"X": [matrix_to_json(m) for m in self.X]}

    @staticmethod
    def from_json(data: dict) -> "ResidueTuple":
        """Inverse of :meth:`to_json`: an object whose ``X`` is an array of four
        matrices, each four row-major ``[re, im]`` number pairs."""
        if not isinstance(data, dict):
            raise ValueError("a residue tuple must be a JSON object with an array 'X' of four matrices")
        if "X" not in data:
            raise ValueError("residue tuple has no key 'X'")
        if not isinstance(data["X"], list) or len(data["X"]) != 4:
            raise ValueError("residue tuple key 'X' must be an array of four matrices")
        mats = []
        for i, m in enumerate(data["X"], 1):
            try:
                mats.append(matrix_from_json(m))
            except ValueError as err:
                raise ValueError(f"bad matrix {i} in residue tuple key 'X': {err}") from err
        return ResidueTuple(tuple(mats))


@dataclass(frozen=True)
class PunctureConfig:
    """Punctures at (0, 1, t, infinity); t may be any complex except 0 and 1."""

    t: complex

    def __post_init__(self):
        t = complex(self.t)
        object.__setattr__(self, "t", t)
        if not cmath.isfinite(t):
            raise ValueError(f"puncture position t={t} is not finite")
        if min(abs(t), abs(t - 1)) < 1e-12:
            raise ValueError(f"puncture position t={t} collides with 0 or 1")

    @property
    def finite(self) -> tuple[complex, complex, complex]:
        return (0j, 1 + 0j, self.t)


@dataclass(frozen=True)
class MonodromyTuple:
    """Four unimodular-within-tolerance matrices with A1 A2 A3 A4 = I."""

    A: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def det_residuals(self) -> tuple[float, float, float, float]:
        return tuple(abs(complex(np.linalg.det(m)) - 1) for m in self.A)

    def product_residual(self) -> float:
        prod = self.A[0] @ self.A[1] @ self.A[2] @ self.A[3]
        return float(np.max(np.abs(prod - np.eye(2))))


# -- exponents ----------------------------------------------------------------

def theta_of(residues: ResidueTuple) -> tuple[complex, complex, complex, complex]:
    """Exponents: each residue has eigenvalues +/- theta_i/2.

    Branch: nonnegative real part, ties broken toward nonnegative imaginary
    part.  A nilpotent residue yields exponent 0.
    """
    out = []
    for m in residues.X:
        lam = cmath.sqrt(-complex(np.linalg.det(m)))
        if lam.real < 0 or (lam.real == 0 and lam.imag < 0):
            lam = -lam
        out.append(2 * lam)
    return tuple(out)


def exp_map(theta: Sequence[complex]) -> tuple[complex, ...]:
    """Componentwise class exponential: theta -> 2 cos(pi theta)."""
    return tuple(2 * cmath.cos(math.pi * th) for th in theta)


# -- Taylor-series transport ---------------------------------------------------

#: each step covers this fraction of the distance to the nearest puncture, so
#: the series terms at the step's end fall off like ``TAYLOR_STEP_RATIO ** k``
TAYLOR_STEP_RATIO = 0.5
#: far more terms than a convergent series needs to fall below any float tolerance
MAX_SERIES_TERMS = 400


class _Transporter:
    """Continues Y' = -(sum X_i/(z - c_i)) Y along path pieces by Taylor steps.

    Multiplied by ``P(z) = prod (z - c_i)`` the equation reads ``P Y' = Q Y``
    with ``Q(z) = -sum X_i prod_{j != i} (z - c_j)``, so the coefficients of
    ``Y(z + w) = sum y_k w^k`` obey a four-term recurrence and the series
    converges out to the nearest puncture.  Each step covers
    ``TAYLOR_STEP_RATIO`` of that distance and sums its series until two
    terms in a row fall below ``tol * (1 + max |Y|)``.  A piece maps ``y``
    to ``M y`` with ``M`` its transfer matrix, so chained pieces compose.
    """

    def __init__(self, residues: Sequence[np.ndarray], punctures: Sequence[complex], tol: float):
        self.residues = [tuple(complex(x) for x in m.reshape(4)) for m in residues]
        self.punctures = list(punctures)
        self.tol = tol
        self.steps = 0
        self.error_estimate = 0.0

    def _step(self, z: complex, h: complex, y: _Mat) -> _Mat:
        """Y(z + h) from Y(z), summing the series in the scaled terms ``u_k = y_k h^k``."""
        d0, d1, d2 = (z - c for c in self.punctures)
        s = h / (d0 * d1 * d2)
        # p_j: coefficient of w^j in P(z + w) / P(z), times h^j;
        # Q_j = a, b, e: coefficient of w^j in Q(z + w) / P(z), times h^(j+1)
        p1, p2, p3 = s * (d0 * d1 + d0 * d2 + d1 * d2), s * h * (d0 + d1 + d2), s * h * h
        weights = ((d1 * d2, d0 * d2, d0 * d1), (d1 + d2, d0 + d2, d0 + d1), (1, 1, 1))
        (a0, a1, a2, a3), (b0, b1, b2, b3), (e0, e1, e2, e3) = (
            tuple(-s * h ** j * (w0 * a + w1 * b + w2 * c) for a, b, c in zip(*self.residues))
            for j, (w0, w1, w2) in enumerate(weights)
        )
        threshold = self.tol * (1 + max(abs(v) for v in y))
        u0, u1, u2 = y, (0j,) * 4, (0j,) * 4  # u_n, u_(n-1), u_(n-2)
        total, quiet = y, 0
        for n in range(MAX_SERIES_TERMS):
            # (n+1) u_(n+1) = sum_j (Q_j - c_j) u_(n-j) with c_j = p_(j+1) (n-j)
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
        raise HolonomyError(f"Taylor series not converged within {MAX_SERIES_TERMS} terms")

    def run_piece(self, zfun: Callable[[float], complex],
                  dzfun: Callable[[float], complex], y: _Mat) -> _Mat:
        s, z = 0.0, zfun(0.0)
        while s < 1.0:
            dist = min(abs(z - c) for c in self.punctures)
            s_next = min(1.0, s + TAYLOR_STEP_RATIO * dist / abs(dzfun(s)))
            z_next = zfun(s_next)
            y = self._step(z, z_next - z, y)
            s, z = s_next, z_next
            self.steps += 1
            if self.steps > MAX_INTEGRATION_STEPS:
                raise HolonomyError(f"transport not finished within {MAX_INTEGRATION_STEPS} steps")
        return y


def _loop_pieces(p: complex, c: complex, r: float):
    """Segment in from ``p`` to the circle of radius ``r`` about ``c``, then that
    circle counterclockwise; the way back out is the inverse of the way in."""
    entry = c + r * (p - c) / abs(p - c)
    phi0 = cmath.phase(entry - c)
    return [
        (lambda s: p + s * (entry - p), lambda s: entry - p),
        (
            lambda s: c + r * cmath.exp(1j * (phi0 + 2 * math.pi * s)),
            lambda s: 2j * math.pi * r * cmath.exp(1j * (phi0 + 2 * math.pi * s)),
        ),
    ]


def _segment_clearance(p: complex, q: complex, c: complex) -> float:
    """Distance from the segment [p, q] to the point c."""
    d = q - p
    denom = abs(d) ** 2
    if denom == 0:
        return abs(c - p)
    u = ((c - p) * d.conjugate()).real / denom
    u = min(1.0, max(0.0, u))
    return abs(p + u * d - c)


def _choose_basepoint(punctures: Sequence[complex], radius: float) -> complex:
    """Deterministic basepoint below the punctures, nudged off bad alignments."""
    scale = 1 + max(abs(c) for c in punctures)
    for k in range(40):
        p = -2j * scale * cmath.exp(0.37j * k)
        ok = True
        for c in punctures:
            entry = c + radius * (p - c) / abs(p - c)
            for other in punctures:
                if other == c:
                    continue
                if _segment_clearance(p, entry, other) < 1.5 * radius:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return p
    raise HolonomyError("could not place a basepoint clear of all punctures")


@dataclass(frozen=True)
class HolonomyResult:
    """Monodromy tuple plus the post-hoc certification data."""

    monodromy: MonodromyTuple
    theta: tuple[complex, complex, complex, complex]
    a: tuple[complex, complex, complex, complex]
    v: tuple[complex, complex, complex]
    fricke_residual: float
    det_residuals: tuple[float, float, float, float]
    product_residual: float
    integration_error: float
    tolerance: float
    steps: int

    def to_json(self) -> dict:
        return {
            "a": [complex_to_json(x) for x in self.a],
            "v": [complex_to_json(x) for x in self.v],
            "theta": [complex_to_json(x) for x in self.theta],
            "fricke_residual": self.fricke_residual,
            "det_residuals": list(self.det_residuals),
            "product_residual": self.product_residual,
            "integration_error": self.integration_error,
            "tolerance": self.tolerance,
            "matrices": [matrix_to_json(m) for m in self.monodromy.A],
        }


def traces(monodromy: MonodromyTuple) -> tuple[tuple[complex, ...], tuple[complex, ...], float]:
    """The seven trace coordinates of a monodromy tuple and the cubic residual."""
    A1, A2, A3, A4 = monodromy.A
    a = tuple(complex(np.trace(m)) for m in (A1, A2, A3, A4))
    v = (
        complex(np.trace(A1 @ A2)),
        complex(np.trace(A2 @ A3)),
        complex(np.trace(A1 @ A3)),
    )
    residual = abs(cubic_value(a, v))
    return a, v, residual


def holonomy(residues: ResidueTuple, config: PunctureConfig,
             tol: float = DEFAULT_HOLONOMY_TOL) -> HolonomyResult:
    """Monodromy of the connection with the given residues and puncture position.

    Each loop is transported in Taylor-series steps (see ``_Transporter``):
    the segment in once, giving ``T``, then the circle, giving ``C T``.  The
    flow is traceless and keeps det 1, so the way back out is ``adj(T)`` and
    the loop is ``adj(T) C T``.  ``integration_error`` sums the last series
    term kept at each step.  The tuple is then reordered from angular order
    (seen from the basepoint) to puncture order by conjugation moves
    ``g h adj(g)``, which preserve the total product and every conjugacy
    class, and projected to det 1 again.  ``A4`` is the projected
    ``adj(A3) adj(A2) adj(A1)``, not a transport around infinity.  A cap
    hit or a determinant lost in rounding (see ``_unimodular``) raises
    :class:`HolonomyError`.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    punctures = list(config.finite)
    radius = min(
        abs(punctures[i] - punctures[j])
        for i in range(3)
        for j in range(i + 1, 3)
    ) / 4
    try:
        basepoint = _choose_basepoint(punctures, radius)
    except OverflowError:  # |t| past about 1e154: a squared distance overflows
        raise ValueError(f"puncture position t={config.t} is too large for float arithmetic") from None

    centroid = sum(punctures) / 3
    def rel_angle(c: complex) -> float:
        return cmath.phase((c - basepoint) / (centroid - basepoint))

    angular = sorted(range(3), key=lambda i: rel_angle(punctures[i]))

    transporter = _Transporter(residues.X[:3], punctures, tol)
    rho: dict[int, np.ndarray] = {}
    for i in range(3):
        inbound, circle = _loop_pieces(basepoint, punctures[i], radius)
        inward = transporter.run_piece(*inbound, (1 + 0j, 0j, 0j, 1 + 0j))
        around = transporter.run_piece(*circle, inward)
        # with T = inward and C T = around, the loop is T^-1 C T; transports
        # are inverted, so rho is (T^-1 C T)^-1 = adj(C T) T at det 1
        rho[i] = _unimodular(_adj(np.reshape(around, (2, 2))) @ np.reshape(inward, (2, 2)))

    # geometric tuple in angular order; bubble-sort to puncture order with
    # conjugation moves (g, h) -> (g h g^-1, g), which preserve the product
    labels = list(angular)
    mats = [rho[i] for i in angular]
    for i in range(len(labels)):
        for j in range(len(labels) - 1 - i):
            if labels[j] > labels[j + 1]:
                g, h = mats[j], mats[j + 1]
                mats[j], mats[j + 1] = g @ h @ _adj(g), g
                labels[j], labels[j + 1] = labels[j + 1], labels[j]

    # the moves leave det drift that the cubic residual multiplies by the
    # size of its terms, so the final matrices are projected once more
    A1, A2, A3 = (_unimodular(m) for m in mats)
    A4 = _unimodular(_adj(A3) @ _adj(A2) @ _adj(A1))
    monodromy = MonodromyTuple((A1, A2, A3, A4))
    a, v, fricke_residual = traces(monodromy)
    return HolonomyResult(
        monodromy=monodromy,
        theta=theta_of(residues),
        a=a,
        v=v,
        fricke_residual=fricke_residual,
        det_residuals=monodromy.det_residuals(),
        product_residual=monodromy.product_residual(),
        integration_error=transporter.error_estimate,
        tolerance=tol,
        steps=transporter.steps,
    )


# -- approximate classification for complex trace data -------------------------

def classify_numeric(a: Sequence[complex], v: Sequence[complex], tol: float = 1e-8) -> ClassLabel:
    """The unitarity test for holonomy output: NonReal unless every trace is
    real within ``tol``, else :func:`su2_label` of the real parts, the exact
    rule's integer sign tests run in floats with ``tol`` slack."""
    real = all(abs(x.imag) <= tol for x in a) and all(abs(x.imag) <= tol for x in v)
    if not real:
        return ClassLabel(label=NON_REAL, real=False, box=False, overlap=None)
    return su2_label([x.real for x in a], tol)


# -- Painleve VI layer ----------------------------------------------------------

def pvi_residual(t: complex, y: complex, y_prime: complex, y_second: complex,
                 theta: Sequence[complex]) -> complex:
    """Left side minus right side of the sixth Painleve equation at a 2-jet.

    Linear in ``y_second`` with unit coefficient; vanishes exactly when the
    jet satisfies the equation at ``t``.
    """
    t, y = complex(t), complex(y)
    if min(abs(t), abs(t - 1)) < 1e-12:
        raise ValueError(f"equation parameter t={t} collides with 0 or 1")
    if min(abs(y), abs(y - 1), abs(y - t)) < 1e-12:
        raise ValueError(f"dependent value y={y} is at a pole of the equation")
    r1, r2, r3, r4 = (complex(r) for r in pvi_params(theta))
    lhs = (
        y_second
        - (1 / y + 1 / (y - 1) + 1 / (y - t)) * y_prime ** 2 / 2
        + (1 / t + 1 / (t - 1) + 1 / (y - t)) * y_prime
    )
    rhs = (
        y * (y - 1) * (y - t) / (t ** 2 * (t - 1) ** 2)
        * (r1 + r2 * t / y ** 2 + r3 * (t - 1) / (y - 1) ** 2
           + r4 * t * (t - 1) / (y - t) ** 2)
    )
    return lhs - rhs
