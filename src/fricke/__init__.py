"""Exact computation on the SL(2,C) character variety of the four-punctured sphere.

Core layers:

* :mod:`fricke.exactalg` -- exact rationals and sparse multivariate polynomials
* :mod:`fricke.groebner` -- Buchberger's algorithm, ideal arithmetic, solving
* :mod:`fricke.charvariety` -- the trace cubic, membership, unitarity tests
* :mod:`fricke.braid` -- generator maps, words, orbits, fixed loci
* :mod:`fricke.pvi` -- exact Painleve VI parameters and deformation ideals
* :mod:`fricke.connection` -- numerical holonomy and the Painleve VI layer
* :mod:`fricke.cli` -- the batch command-line front end

Only :mod:`fricke.connection` imports numpy.  The package's names from it
(``ResidueTuple``, ``PunctureConfig``, ``exp_map``, ``holonomy``) are resolved
on first use (PEP 562), so importing the package, or running an exact
subcommand, never loads numpy.
"""

import importlib

from .charvariety import TracePoint, classify, fricke_cubic, on_variety
from .exactalg import Polynomial, parse_polynomial, parse_rational
from .braid import BraidWord, SubgroupSpec, apply_word, enumerate_orbit, fixed_ideal, fixed_points_at
from .groebner import Ideal, MonomialOrder, buchberger, ideal_equal, ideal_member
from .pvi import pvi_params

_CONNECTION_NAMES = frozenset({"ResidueTuple", "PunctureConfig", "exp_map", "holonomy"})


def __getattr__(name: str):
    if name in _CONNECTION_NAMES:
        return getattr(importlib.import_module(".connection", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "Ideal",
    "MonomialOrder",
    "Polynomial",
    "PunctureConfig",
    "ResidueTuple",
    "SubgroupSpec",
    "TracePoint",
    "apply_word",
    "buchberger",
    "classify",
    "enumerate_orbit",
    "exp_map",
    "fixed_ideal",
    "fixed_points_at",
    "fricke_cubic",
    "holonomy",
    "ideal_equal",
    "ideal_member",
    "on_variety",
    "parse_polynomial",
    "parse_rational",
    "pvi_params",
]
