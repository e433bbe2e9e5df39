"""Exact side of the Painleve VI layer: exponent variables, equation
parameters and the constant-parameter deformation ideal.

Nothing here needs floating point, so the exact subcommands (``pvi-params``,
``family-check``) and the CLI parser run from this module without loading
numpy; :mod:`fricke.connection` imports only ``pvi_params`` and
``DEFAULT_HOLONOMY_TOL`` from it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactalg import Polynomial
from .groebner import Ideal

THETA_VARS = ("th1", "th2", "th3", "th4")

#: default ``tol`` of :func:`fricke.connection.holonomy` and ``holonomy --tol``
DEFAULT_HOLONOMY_TOL = 1e-10


def pvi_params(theta: Sequence) -> tuple:
    """The four equation parameters, quadratic in the exponents.

    ``r1 = (th4-1)^2/2, r2 = -th1^2/2, r3 = th3^2/2, r4 = (1-th2^2)/2``:
    exact for rationals and polynomials, float or complex for float or
    complex exponents.

    ``th1..th4`` are the exponents at the punctures ``(0, t, 1, infinity)``,
    in Jimbo's order.  :mod:`fricke.connection` orders residues and
    exponents ``(0, 1, t, infinity)``, so its middle two exponents swap
    places when passed here.  ``r1`` needs the sign of ``th4``, the exponent
    at infinity, which the nonnegative branch of
    :func:`fricke.connection.theta_of` drops.
    """
    th1, th2, th3, th4 = theta
    half = Fraction(1, 2)
    return (
        (th4 - 1) ** 2 * half,
        -(th1 ** 2) * half,
        th3 ** 2 * half,
        (1 - th2 ** 2) * half,
    )


def family_constraints(theta0: Sequence[Fraction]) -> Ideal:
    """The ideal of exponent deformations keeping every equation parameter fixed.

    Generated by ``r_i(theta) - r_i(theta0)`` over the rationals; every
    generator vanishes at ``theta0``, and the ideal is invariant under the
    sign symmetries fixing each ``r_i``.
    """
    theta0 = tuple(Fraction(x) for x in theta0)
    symbolic = pvi_params(tuple(Polynomial.variable(n) for n in THETA_VARS))
    values = pvi_params(theta0)
    gens = tuple(sym - Polynomial.constant(val) for sym, val in zip(symbolic, values))
    return Ideal(gens, THETA_VARS)


#: Shipped verification data: constraint sets of known deformation families,
#: parameterized in the exponent variables.  The two-point-orbit family below
#: has a 2-dimensional constraint variety strictly larger than the zero set of
#: :func:`family_constraints`; it is shipped as data, not derived.
FAMILY_CONSTRAINT_SETS: dict[str, tuple[Polynomial, ...]] = {
    "tetrahedral-two-point": (
        Polynomial.parse("0 - th2^2 + th3^2", THETA_VARS),
        Polynomial.parse("1 - th1^2 - 2*th4 + th4^2", THETA_VARS),
    ),
}
