"""Braid dynamics on the trace coordinates: generator maps, words, orbits, fixed loci.

The three generators act on ``(v1, v2, v3)`` at fixed boundary traces.  Each
generator factors into two of the root-swap involutions

    sj : vj  |->  pj - (product of the other two v) - vj

of the cubic, which is monic quadratic in each ``vj``; this is why the inverse
maps are again polynomial.  Words are strings over ``t1 t2 t3`` (capitals for
inverses).  The action is written once, over any ring: on exact trace points
it is the pointwise map, run in the ring the :class:`TracePoint` holds (``int``
at an integral point; the maps have integer coefficients, so it stays there),
and the symbolic images of ``(v1, v2, v3)`` are the same map run on
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import groebner
from .charvariety import (
    ALL_VARS,
    A_POLYS,
    TracePoint,
    V_POLYS,
    V_VARS,
    cubic_value,
    trace_coefficients,
)
from .exactalg import Polynomial
from .groebner import (
    GroebnerBasis,
    Ideal,
    NotZeroDimensionalError,
    ZeroDimensionalSolution,
)

DEFAULT_ORBIT_CAP = 10_000

# pair traces, in the ring of the point they came from
_TRIPLE = tuple[Fraction | int, Fraction | int, Fraction | int]

# which two involutions compose to each generator: tau_i = second after first
_GENERATOR_FACTORS = {1: (3, 2), 2: (1, 3), 3: (2, 1)}
# positions of the two pair traces besides the j-th (0-based)
_OTHER_TWO = ((1, 2), (0, 2), (0, 1))


@dataclass(frozen=True)
class BraidWord:
    """A word in the generators; letters are (index in 1..3, sign in {-1,+1})."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for index, sign in self.letters:
            if index not in (1, 2, 3) or sign not in (-1, 1):
                raise ValueError(f"bad braid letter ({index}, {sign})")

    @staticmethod
    def parse(text: str) -> "BraidWord":
        """Parse e.g. ``"t1t1"`` or ``"T2t3"``; capitals are inverse letters."""
        letters = []
        pos = 0
        while pos < len(text):
            head = text[pos]
            if head not in "tT" or pos + 1 >= len(text) or text[pos + 1] not in "123":
                raise ValueError(f"bad braid word {text!r} at position {pos}")
            letters.append((int(text[pos + 1]), 1 if head == "t" else -1))
            pos += 2
        return BraidWord(tuple(letters))

    def __str__(self) -> str:
        return "".join(
            f"{'t' if sign > 0 else 'T'}{index}" for index, sign in self.letters
        )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple((i, -s) for i, s in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup given by a nonempty list of generator words."""

    generators: tuple[BraidWord, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a subgroup needs at least one generator word")

    @staticmethod
    def parse(words: Iterable[str]) -> "SubgroupSpec":
        return SubgroupSpec(tuple(BraidWord.parse(w) for w in words))

    def __str__(self) -> str:
        return ";".join(str(w) for w in self.generators)


# -- the action over any ring -------------------------------------------------

def _letter(p: Sequence, v: Sequence, index: int, sign: int) -> tuple:
    """One signed generator at precomputed coefficients ``p``: two root swaps."""
    first, second = _GENERATOR_FACTORS[index]
    if sign < 0:
        first, second = second, first
    out = list(v)
    for j in (first - 1, second - 1):
        k, m = _OTHER_TWO[j]
        out[j] = p[j] - out[k] * out[m] - out[j]
    return tuple(out)


def _act(a: Sequence, v: Sequence, letters: Iterable[tuple[int, int]]) -> tuple:
    """The letters applied first-to-last to ``v`` at boundary traces ``a``."""
    p = trace_coefficients(a)
    for index, sign in letters:
        v = _letter(p, v, index, sign)
    return v


def apply_letter(a: Sequence[Fraction], v: _TRIPLE, index: int, sign: int) -> _TRIPLE:
    """One signed generator applied exactly at fixed boundary traces."""
    return _letter(trace_coefficients(a), v, index, sign)


def apply_word(word: BraidWord, point: TracePoint) -> TracePoint:
    """Apply a word letters-first-to-last to an exact on-variety point; the
    image is in the point's ring."""
    point.require_on_variety()
    return TracePoint(point.a, _act(point.a, point.v, word.letters))


@lru_cache(maxsize=256)
def word_triple(word: BraidWord) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Symbolic images of (v1, v2, v3) under a word (letters applied first-to-last)."""
    return _act(A_POLYS, V_POLYS, word.letters)


def generator_triple(index: int, sign: int = 1) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The symbolic images (of v1, v2, v3) under one signed generator."""
    return word_triple(BraidWord(((index, sign),)))


# -- orbits -------------------------------------------------------------------

ORBIT_COMPLETE = "complete"
ORBIT_CAP_EXCEEDED = "cap-exceeded"


@dataclass(frozen=True)
class Orbit:
    """Closure of a point's pair traces under all six signed generators.

    ``points`` are in the basepoint's ring, which the search runs in:
    ``int`` at an integral basepoint, ``Fraction`` otherwise.  An ``int``
    compares and hashes equal to its ``Fraction``.
    """

    basepoint: TracePoint
    points: tuple[_TRIPLE, ...]
    status: str
    frontier_sizes: tuple[int, ...] = field(default_factory=tuple)

    @property
    def size(self) -> int:
        return len(self.points)


def enumerate_orbit(point: TracePoint, cap: int = DEFAULT_ORBIT_CAP) -> Orbit:
    """Breadth-first closure under the six signed generator maps.

    Deterministic: frontiers are expanded in sorted order.  Exceeding ``cap``
    stops the search and is reported through the status, not an error.
    """
    if cap <= 0:
        raise ValueError("orbit cap must be positive")
    point.require_on_variety()
    p = trace_coefficients(point.a)
    seen: set[tuple] = {point.v}
    frontier: list[tuple] = [point.v]
    sizes: list[int] = [1]
    status = ORBIT_COMPLETE
    while frontier:
        next_frontier: set[tuple] = set()
        for v in frontier:
            for index in (1, 2, 3):
                for sign in (1, -1):
                    image = _letter(p, v, index, sign)
                    if image not in seen:
                        next_frontier.add(image)
        if not next_frontier:
            break
        if len(seen) + len(next_frontier) > cap:
            status = ORBIT_CAP_EXCEEDED
            for image in sorted(next_frontier):
                if len(seen) >= cap:
                    break
                seen.add(image)
            sizes.append(len(next_frontier))
            break
        seen.update(next_frontier)
        sizes.append(len(next_frontier))
        frontier = sorted(next_frontier)
    return Orbit(
        basepoint=point,
        points=tuple(sorted(seen)),
        status=status,
        frontier_sizes=tuple(sizes),
    )


# -- fixed loci ---------------------------------------------------------------

def fixed_ideal_generators(subgroup: SubgroupSpec, a: Sequence = A_POLYS) -> tuple[Polynomial, ...]:
    """Raw generators: the cubic plus (word image - v) components per generator word.

    ``a`` is symbolic by default; rational boundary traces give the same
    generators specialized at ``a``, with components that vanish there dropped.
    """
    gens: list[Polynomial] = [cubic_value(a, V_POLYS)]
    for word in subgroup.generators:
        for var, image in zip(V_POLYS, _act(a, V_POLYS, word.letters)):
            diff = image - var
            if not diff.is_zero():
                gens.append(diff)
    return tuple(gens)


def fixed_ideal(subgroup: SubgroupSpec) -> GroebnerBasis:
    """Reduced Gröbner basis (grevlex over all 7 variables) of the fixed locus."""
    return groebner.groebner_basis(Ideal(fixed_ideal_generators(subgroup), ALL_VARS))


@dataclass(frozen=True)
class FixedPoints:
    """Rational fixed pair traces at a specialized boundary, plus diagnostics."""

    a: tuple[Fraction, Fraction, Fraction, Fraction]
    solutions: tuple[_TRIPLE, ...]
    residuals: tuple[Polynomial, ...]
    zero_dimensional: bool
    positive_dimensional_basis: tuple[Polynomial, ...] = ()

    @property
    def complete(self) -> bool:
        return self.zero_dimensional and not self.residuals


def fixed_points_at(a: Sequence[Fraction], subgroup: SubgroupSpec) -> FixedPoints:
    """Specialize the fixed locus at boundary traces ``a`` and solve it.

    Solves with :func:`groebner.solve_zero_dimensional`: univariate
    eliminants taken from grevlex bases, rational-root extraction and
    back-substitution.  Non-rational univariate factors are reported
    unsolved; a positive-dimensional specialization is reported with its
    basis instead of a solution list.
    """
    a = tuple(Fraction(x) for x in a)
    ideal = Ideal(fixed_ideal_generators(subgroup, a), V_VARS)
    try:
        solution: ZeroDimensionalSolution = groebner.solve_zero_dimensional(ideal)
    except NotZeroDimensionalError as err:
        return FixedPoints(
            a=a,
            solutions=(),
            residuals=(),
            zero_dimensional=False,
            positive_dimensional_basis=err.basis.polynomials,
        )
    return FixedPoints(
        a=a,
        solutions=tuple((pt["v1"], pt["v2"], pt["v3"]) for pt in solution.points),
        residuals=solution.residuals,
        zero_dimensional=True,
    )
