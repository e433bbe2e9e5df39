"""Multivariate division, Buchberger's algorithm, and zero-dimensional solving.

Polynomials enter and leave as :class:`fricke.exactalg.Polynomial`; inside,
a monomial is one int packed in a layout derived from the monomial order
(:class:`_Layout`), whose integer order is the monomial order.  All reduction
(S-pairs, inter-reduction, ``reduce`` and the ``verify_groebner`` re-check)
runs through one fraction-free kernel on primitive integer polynomials;
rational remainders are recovered by dividing by the scale it tracks.
Buchberger takes S-pairs off a heap in normal-strategy order; one
Gebauer–Möller pair update prunes the pairs both it and ``verify_groebner`` reduce.

Monomial orders: lexicographic, graded reverse lexicographic, and the
block (elimination) product of two grevlex orders.  Gröbner bases are always
returned reduced (monic, auto-reduced, deterministically sorted), so for a
fixed order the output is the unique reduced basis of the ideal.

Resource discipline: the pair queue and intermediate degrees are capped;
exceeding a cap raises :class:`ResourceCapError` rather than truncating,
and an exponent past ``MAX_EXPONENT`` raises :class:`OverflowError`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .exactalg import MAX_EXPONENT, Polynomial

MAX_PAIRS = 100_000
MAX_DEGREE = 30

_IntPoly = dict[int, int]  # packed monomial -> integer coefficient
_Entry = tuple[int, int, _IntPoly]  # leading monomial, coefficient, polynomial
_Pair = tuple[int, int]  # positions i < j of two basis elements

_CONTENT_EVERY = 16  # pseudo-division steps between content strips in _normal_form
_FIELD = MAX_EXPONENT.bit_length() + 1  # bits of a variable's field, guard bit included


class GroebnerError(RuntimeError):
    pass


class ResourceCapError(GroebnerError):
    """A configured pair or degree budget was exceeded."""


class NotZeroDimensionalError(GroebnerError):
    """Raised by the solver for a positive-dimensional ideal; carries its basis to report."""

    def __init__(self, basis: "GroebnerBasis"):
        super().__init__("ideal is not zero-dimensional")
        self.basis = basis


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order over an explicit, ordered variable list.

    ``kind`` is one of ``lex``, ``grevlex`` or ``block``; for ``block`` the
    first ``block_size`` variables form the front block and both blocks are
    compared by grevlex, so the order eliminates the front block.
    """

    kind: str
    variables: tuple[str, ...]
    block_size: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable in order")
        if self.kind == "block" and not 0 < self.block_size < len(self.variables):
            raise ValueError("block size must split the variables in two")

    @staticmethod
    def lex(variables: Iterable[str]) -> "MonomialOrder":
        return MonomialOrder("lex", tuple(variables))

    @staticmethod
    def grevlex(variables: Iterable[str]) -> "MonomialOrder":
        return MonomialOrder("grevlex", tuple(variables))

    @staticmethod
    def elimination(drop: Iterable[str], keep: Iterable[str]) -> "MonomialOrder":
        drop, keep = tuple(drop), tuple(keep)
        return MonomialOrder("block", drop + keep, block_size=len(drop))

    @cached_property
    def _layout(self) -> "_Layout":
        return _Layout(self)

    def leading_monomial(self, poly: Polynomial) -> tuple[int, ...]:
        """The exponent vector over ``variables`` of ``poly``'s largest monomial."""
        if poly.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return self._layout.decode(max(self._layout.pack(poly), key=self._layout.flip.__xor__))


class _Layout:
    """One order's monomials as ints ``m`` whose ``m ^ flip`` ranks like the order.

    Fields from the top bit down: lex has the variables in order, then the
    degree; grevlex the degree, then the variables in reverse, which ``flip``
    inverts; block the grevlex fields of each block, front block on top.
    Each field is topped by a guard bit no monomial sets, so a product (an
    add) overflows exactly when it sets one, and ``a`` divides ``b`` exactly
    when ``b - a`` sets none (Bachmann & Schönemann, ISSAC 1998).
    """

    def __init__(self, order: MonomialOrder):
        n, k = len(order.variables), order.block_size
        fields: list[int | range] = []  # top first: a variable, or a block's degree
        for block in (range(k), range(k, n)) if order.kind == "block" else (range(n),):
            fields += [*block, block] if order.kind == "lex" else [block, *reversed(block)]
        self.names, self.shifts, self.degrees, self.guard, at = order.variables, [0] * n, [], 0, 0
        for f in reversed(fields):
            if isinstance(f, range):
                self.degrees.append((at, f))
            else:
                self.shifts[f] = at
            at += (len(f) * MAX_EXPONENT).bit_length() + 1 if isinstance(f, range) else _FIELD
            self.guard |= 1 << (at - 1)
        self.fill = sum(MAX_EXPONENT << s for s in self.shifts)
        self.flip = 0 if order.kind == "lex" else self.fill

    def encode(self, vec: Sequence[int]) -> int:  # exponents up to MAX_EXPONENT
        return self._graded(sum(e << s for e, s in zip(vec, self.shifts)))

    def _graded(self, m: int) -> int:
        # m with its degree fields, which are 0, filled in from its variable fields
        return m + sum(sum(m >> self.shifts[i] & MAX_EXPONENT for i in block) << at
                       for at, block in self.degrees)

    def decode(self, m: int) -> tuple[int, ...]:
        return tuple(m >> s & MAX_EXPONENT for s in self.shifts)

    def divides(self, a: int, b: int) -> bool:
        return not (b - a) & self.guard

    def coprime(self, a: int, b: int) -> bool:
        # adding MAX_EXPONENT sets the guard bit of every nonzero variable field
        return not (a + self.fill) & (b + self.fill) & self.guard

    def lcm(self, a: int, b: int) -> int:
        a, b, g = a & self.fill, b & self.fill, self.guard & self.fill << 1
        ge = ((a | g) - b) & g  # the guard bits of the variable fields where a >= b
        mask = ge - (ge >> (_FIELD - 1))
        return self._graded(a & mask | b & ~mask)

    def overflow(self, m: int):
        name = next(n for n, s in zip(self.names, self.shifts) if m >> (s + _FIELD - 1) & 1)
        raise OverflowError(f"exponent of {name!r} exceeds {MAX_EXPONENT}")

    def pack(self, poly: Polynomial) -> dict[int, Fraction]:
        return {self.encode(v): c for v, c in poly.exponent_vectors(self.names).items()}

    def unpack(self, terms: dict) -> Polynomial:
        return Polynomial.from_exponent_vectors(self.names, {self.decode(m): c for m, c in terms.items()})


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal with an explicit ambient variable list."""

    generators: tuple[Polynomial, ...]
    variables: tuple[str, ...]

    def __post_init__(self):
        gens = tuple(g for g in self.generators if not g.is_zero())
        object.__setattr__(self, "generators", gens)
        ambient = frozenset(self.variables)
        for g in gens:
            extra = g.variables() - ambient
            if extra:
                raise ValueError(f"generator uses variables outside the ambient list: {sorted(extra)}")

    @staticmethod
    def of(generators: Iterable[Polynomial], variables: Iterable[str] | None = None) -> "Ideal":
        gens = tuple(generators)
        if variables is None:
            variables = sorted(frozenset().union(*(g.variables() for g in gens)))
        return Ideal(gens, tuple(variables))

    def default_order(self) -> MonomialOrder:
        return MonomialOrder.grevlex(self.variables)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Gröbner basis together with the order it was computed under."""

    polynomials: tuple[Polynomial, ...]
    order: MonomialOrder

    def contains(self, poly: Polynomial) -> bool:
        return self._remainder(poly).is_zero()

    def as_ideal(self) -> Ideal:
        return Ideal(self.polynomials, self.order.variables)

    @cached_property
    def _entries(self) -> list[_Entry]:
        """The polynomials as kernel reducers, built once per object."""
        layout = self.order._layout
        return [_entry(layout.pack(g), layout.flip) for g in self.polynomials if not g.is_zero()]

    def _remainder(self, poly: Polynomial) -> Polynomial:
        layout = self.order._layout
        work, mult = _primitive(layout.pack(poly), layout.flip)
        remainder, scale = _normal_form(work, self._entries, layout)
        scale *= mult
        return layout.unpack({m: c / scale for m, c in remainder.items()})


# -- the kernel ---------------------------------------------------------------

def _primitive(vp: dict, flip: int) -> tuple[_IntPoly, Fraction]:
    """``(s * vp, s)`` for the rational ``s`` that makes ``vp`` (``int`` or
    ``Fraction`` coefficients) integer, of content 1 and with a positive
    leading coefficient."""
    if not vp:
        return {}, Fraction(1)
    den = lcm(*(c.denominator for c in vp.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in vp.items()}
    num = gcd(*ints.values())
    if ints[max(ints, key=flip.__xor__)] < 0:
        num = -num
    return {m: c // num for m, c in ints.items()}, Fraction(den, num)


def _entry(vp: dict, flip: int) -> _Entry:
    """Primitive integer form of a nonzero ``vp`` as a reducer (lm, lc, poly)."""
    poly, _ = _primitive(vp, flip)
    lm = max(poly, key=flip.__xor__)
    return lm, poly[lm], poly


def _s_poly(a: _Entry, b: _Entry, layout: _Layout) -> _IntPoly:
    """Integer S-polynomial ``(lc_b/g)*x^(L-lm_a)*f_a - (lc_a/g)*x^(L-lm_b)*f_b``
    with ``L = lcm(lm_a, lm_b)`` and ``g = gcd(lc_a, lc_b)``."""
    (lm_a, lc_a, f_a), (lm_b, lc_b, f_b) = a, b
    lcm_ab, g = layout.lcm(lm_a, lm_b), gcd(lc_a, lc_b)
    out: _IntPoly = {}
    for mult, lm, poly in ((lc_b // g, lm_a, f_a), (-(lc_a // g), lm_b, f_b)):
        shift = lcm_ab - lm
        for m, c in poly.items():
            out[m + shift] = out.get(m + shift, 0) + mult * c
    for m in out:
        if m & layout.guard:
            layout.overflow(m)
    return {m: c for m, c in out.items() if c}


def _normal_form(work: _IntPoly, entries: Sequence[_Entry], layout: _Layout) -> tuple[_IntPoly, Fraction]:
    """Fraction-free full normal form of ``work`` against ``entries`` (lm, lc, poly).

    Each step cancels the leading term by the pseudo-division
    ``work := (lc/g)*work - (coeff/g)*x^shift*poly`` with ``g = gcd(coeff, lc)``;
    the remainder split off so far is scaled with ``work``, and content is
    stripped from both every ``_CONTENT_EVERY`` steps.  Returns
    ``(remainder, scale)``, where ``remainder / scale`` is exactly the remainder
    of rational division: scaling never changes supports, so the leading
    terms and divisor choices are the same.  The leading term comes off a
    lazy max-heap of plain ints ``-(m ^ flip)`` (Monagan & Pearce, JSC 2011);
    a popped monomial never re-enters ``work``, and stale entries are skipped.
    """
    guard, flip = layout.guard, layout.flip
    push, pop = heapq.heappush, heapq.heappop
    work = dict(work)
    remainder: _IntPoly = {}
    scale = Fraction(1)
    steps = 0
    heap = [-(m ^ flip) for m in work]
    heapq.heapify(heap)
    while heap:
        lead = -pop(heap) ^ flip
        coeff = work.get(lead)
        if coeff is None:
            continue
        for lm, lc, poly in entries:
            if not (lead - lm) & guard:  # lm divides lead: _Layout.divides
                break
        else:
            remainder[lead] = coeff
            del work[lead]
            continue
        g = gcd(coeff, lc)
        mult, factor = lc // g, coeff // g
        if mult != 1:
            for key in work:
                work[key] *= mult
            for key in remainder:
                remainder[key] *= mult
            scale *= mult
        shift = lead - lm
        for m, c in poly.items():
            key = m + shift
            acc = work.get(key)
            total = -factor * c if acc is None else acc - factor * c
            if total:
                if acc is None:
                    if key & guard:
                        layout.overflow(key)
                    push(heap, -(key ^ flip))
                work[key] = total
            elif acc is not None:
                del work[key]
        steps += 1
        if steps % _CONTENT_EVERY == 0:
            content = gcd(*work.values(), *remainder.values())
            if content > 1:
                work = {k: c // content for k, c in work.items()}
                remainder = {k: c // content for k, c in remainder.items()}
                scale /= content
    return remainder, scale


# -- public operations ------------------------------------------------------

def reduce(poly: Polynomial, basis: Iterable[Polynomial], order: MonomialOrder) -> Polynomial:
    """Remainder of multivariate division of ``poly`` by ``basis``.

    No term of the result is divisible by any leading monomial of the basis,
    and the difference ``poly - result`` lies in the ideal the basis generates.
    """
    return GroebnerBasis(tuple(basis), order)._remainder(poly)


def _update_pairs(lms: Sequence[int], live: dict[_Pair, int], k: int,
                  layout: _Layout) -> tuple[dict[_Pair, int], list[int]]:
    """Gebauer–Möller update of the pending pairs ``live`` (all ``i < j < k``,
    each mapped to the lcm of its leading monomials) for the new leading
    monomial ``lms[k]``.  Returns the pairs kept with their lcms, new ones
    included, and the partners ``i`` of the new pairs ``(i, k)`` kept.

    Criteria M and F drop ``(i, k)`` when the lcm of a new pair not yet
    dropped divides its lcm (of equal lcms the last survives).  Only then
    does the coprime criterion drop the ``(i, k)`` with coprime leading
    monomials, since a coprime pair may itself drop others under M and F.
    Criterion B drops ``(i, j)`` when ``lms[k]`` divides its lcm and neither
    ``(i, k)`` nor ``(j, k)`` has the same lcm.  Each dropped pair's syzygy
    is generated by those of coprime pairs, kept pairs and pairs with
    strictly smaller lcms (Gebauer & Möller, JSC 6, 1988; Becker & Weispfenning, §5.5).
    """
    h = lms[k]
    divides, coprime = layout.divides, layout.coprime
    lcms = [layout.lcm(m, h) for m in lms[:k]]
    kept: list[int] = []
    for i in range(k):
        if coprime(lms[i], h) or not any(divides(lcms[j], lcms[i])
                                         for j in chain(range(i + 1, k), kept)):
            kept.append(i)
    partners = [i for i in kept if not coprime(lms[i], h)]
    pairs = {(i, k): lcms[i] for i in partners}
    for (i, j), lcm_ij in live.items():
        if not divides(h, lcm_ij) or lcm_ij in (lcms[i], lcms[j]):
            pairs[i, j] = lcm_ij
    return pairs, partners


def buchberger(ideal: Ideal, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Gröbner basis of ``ideal`` under ``order`` (default grevlex).

    Pair selection is the normal strategy (minimal lcm degree, ties broken by
    the order): each pair is queued once on a heap under that key.
    Useless pairs are dropped by the Gebauer–Möller update (``_update_pairs``).
    ``MAX_PAIRS`` bounds the pairs formed, n(n-1)/2 for n elements, before
    any is dropped; ``MAX_DEGREE`` bounds the inputs, every new element and
    the lcm of every pair reduced; both are read at call time.
    Deterministic for fixed input and order.
    """
    if order is None:
        order = ideal.default_order()
    layout = order._layout

    basis: list[_Entry] = []
    live: dict[_Pair, int] = {}
    heap: list[tuple[int, int, _Pair]] = []

    def add(entry: _Entry) -> None:
        nonlocal live
        k = len(basis)
        if k * (k + 1) // 2 > MAX_PAIRS:
            raise ResourceCapError(f"S-pair budget of {MAX_PAIRS} exceeded")
        basis.append(entry)
        live, partners = _update_pairs([e[0] for e in basis], live, k, layout)
        for i in partners:
            lcm_ik = live[i, k]
            heapq.heappush(heap, (sum(layout.decode(lcm_ik)), lcm_ik ^ layout.flip, (i, k)))

    for g in ideal.generators:
        if g.degree() > MAX_DEGREE:
            raise ResourceCapError(f"generator degree {g.degree()} exceeds the cap of {MAX_DEGREE}")
        add(_entry(layout.pack(g), layout.flip))
    while heap:
        degree, _, (i, j) = heapq.heappop(heap)
        if (i, j) not in live:  # dropped by criterion B since it was queued
            continue
        del live[i, j]
        if degree > MAX_DEGREE:
            raise ResourceCapError(f"intermediate degree cap of {MAX_DEGREE} exceeded")

        remainder, _ = _normal_form(_s_poly(basis[i], basis[j], layout), basis, layout)
        if not remainder:
            continue
        entry = _entry(remainder, layout.flip)
        if sum(layout.decode(entry[0])) > MAX_DEGREE:
            raise ResourceCapError(f"intermediate degree cap of {MAX_DEGREE} exceeded")
        add(entry)

    return GroebnerBasis(tuple(map(layout.unpack, _inter_reduce(basis, layout))), order)


def _inter_reduce(entries: list[_Entry], layout: _Layout) -> list[dict[int, Fraction]]:
    """Turn a Gröbner basis into the unique reduced one, monic and sorted.

    First minimalize (drop elements whose leading monomial is divisible by
    another's), then tail-reduce each survivor against the rest; tail
    reduction never changes leading monomials, so one pass suffices.
    """
    minimal: list[_Entry] = []
    for entry in sorted(entries, key=lambda e: e[0] ^ layout.flip):
        if not any(layout.divides(m[0], entry[0]) for m in minimal):
            minimal.append(entry)
    out = []
    for pos, (lm, _, poly) in enumerate(minimal):
        nf, _ = _normal_form(poly, minimal[:pos] + minimal[pos + 1:], layout)
        lc = nf[lm]
        out.append({m: Fraction(c, lc) for m, c in nf.items()})
    return out


def verify_groebner(gb: GroebnerBasis) -> bool:
    """Direct re-check: the S-polynomial of every pair that survives the
    Gebauer–Möller update, run over ``gb.polynomials`` in order, reduces to zero.

    By Buchberger's criterion that suffices: the surviving and the coprime
    pairs have leading-term syzygies that generate all others, and a coprime
    pair's S-polynomial always has a standard representation.
    """
    layout, entries = gb.order._layout, gb._entries
    lms = [e[0] for e in entries]
    live: dict[_Pair, int] = {}
    for k in range(len(entries)):
        live, _ = _update_pairs(lms, live, k, layout)
    return not any(
        _normal_form(_s_poly(entries[i], entries[j], layout), entries, layout)[0]
        for i, j in sorted(live)
    )


@lru_cache(maxsize=256)
def _cached_basis(ideal: Ideal, order: MonomialOrder) -> GroebnerBasis:
    return buchberger(ideal, order)


def groebner_basis(ideal: Ideal, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Cached reduced Gröbner basis (ideals and orders are immutable)."""
    if order is None:
        order = ideal.default_order()
    return _cached_basis(ideal, order)


def ideal_member(poly: Polynomial, ideal: Ideal) -> bool:
    return groebner_basis(ideal).contains(poly)


def ideal_equal(left: Ideal, right: Ideal) -> bool:
    if set(left.variables) != set(right.variables):
        raise ValueError("ideal comparison requires the same ambient variables")
    report = containment_report(left, right)
    return report["left_subset_right"] and report["right_subset_left"]


def containment_report(left: Ideal, right: Ideal) -> dict:
    """Per-generator membership in both directions; basis for equality diagnostics."""
    gl = groebner_basis(left)
    gr = groebner_basis(right, left.default_order())
    left_in_right = {str(g): gr.contains(g) for g in left.generators}
    right_in_left = {str(g): gl.contains(g) for g in right.generators}
    return {
        "left_subset_right": all(left_in_right.values()),
        "right_subset_left": all(right_in_left.values()),
        "left_generators_in_right": left_in_right,
        "right_generators_in_left": right_in_left,
    }


def eliminate(ideal: Ideal, drop: Iterable[str]) -> Ideal:
    """Generators of the elimination ideal in the kept variables, from a
    basis under the block order that ranks the dropped variables first."""
    drop_set = set(drop)
    keep = tuple(v for v in ideal.variables if v not in drop_set)
    dropped = tuple(v for v in ideal.variables if v in drop_set)
    if not dropped:
        return ideal
    gb = buchberger(ideal, MonomialOrder.elimination(dropped, keep))
    keep_set = set(keep)
    kept_polys = tuple(g for g in gb.polynomials if g.variables() <= keep_set)
    return Ideal(kept_polys, keep)


# -- univariate helpers and zero-dimensional solving -------------------------

def univariate_coefficients(poly: Polynomial, name: str) -> list[Fraction]:
    """Coefficient list (ascending) of a polynomial univariate in ``name``."""
    if not poly.variables() <= {name}:
        raise ValueError(f"polynomial is not univariate in {name!r}: {poly}")
    coeffs = [Fraction(0)] * (poly.degree() + 1)
    for (exp,), coeff in poly.exponent_vectors((name,)).items():
        coeffs[exp] = coeff
    return coeffs


def _uni_poly(coeffs: Sequence, name: str) -> Polynomial:
    """The polynomial with ascending coefficients ``coeffs`` in ``name``."""
    return Polynomial.from_exponent_vectors((name,), {(i,): c for i, c in enumerate(coeffs)})


def _uni_trim(c: list[Fraction]) -> list[Fraction]:
    while c and not c[-1]:
        c.pop()
    return c


def _uni_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and trimmed remainder of ``a`` by ``b`` (``b[-1]`` nonzero)."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in reversed(range(len(q))):
        factor = q[shift] = a[shift + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
    return q, _uni_trim(a)


def _uni_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd; ``[]`` when both are zero."""
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        a, b = b, _uni_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def squarefree_part(poly: Polynomial, name: str) -> Polynomial:
    """The square-free part of a univariate polynomial (monic)."""
    coeffs = univariate_coefficients(poly, name)
    q, r = _uni_divmod(coeffs, _uni_gcd(coeffs, [i * c for i, c in enumerate(coeffs)][1:]))
    assert not r
    return _uni_poly([c / q[-1] for c in q], name)


_DIVISOR_CAP = 10**12


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n > _DIVISOR_CAP:
        raise GroebnerError(f"coefficient {n} too large for rational root search")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _deflate(ints: list[int], root: Fraction) -> list[int]:
    """Divide the ascending integer coefficients by (x - root); integral at a root (Gauss)."""
    descending = ints[::-1]
    quotient = [Fraction(descending[0])]
    for c in descending[1:-1]:
        quotient.append(quotient[-1] * root + c)
    if any(c.denominator != 1 for c in quotient):
        raise ValueError(f"{root} is not a root")
    return [c.numerator for c in quotient[::-1]]


def rational_roots(poly: Polynomial, name: str) -> tuple[list[Fraction], Polynomial | None]:
    """All rational roots (with multiplicity via deflation) and the rootless cofactor.

    Returns ``(roots, residual)`` where ``residual`` is the square-free part
    of the factor with no rational roots, or None when the polynomial splits
    completely over the rationals.
    """
    coeffs = _uni_trim(univariate_coefficients(poly, name))
    if not coeffs:
        raise ValueError("the zero polynomial has every value as a root")
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    roots: list[Fraction] = []
    while len(ints) > 1 and ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]

    def find_root(ints: list[int]) -> Fraction | None:
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                if gcd(p, q) != 1:
                    continue
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    val = Fraction(0)
                    for c in reversed(ints):
                        val = val * cand + c
                    if val == 0:
                        return cand
        return None

    while len(ints) > 1:
        root = find_root(ints)
        if root is None:
            break
        roots.append(root)
        ints = _deflate(ints, root)
    roots.sort()
    if len(ints) <= 1:
        return roots, None
    return roots, squarefree_part(_uni_poly(ints, name), name)


@dataclass(frozen=True)
class ZeroDimensionalSolution:
    """Rational points, sorted tuples in ``ideal.variables`` order, plus unsolved residuals."""

    points: tuple[tuple[Fraction, ...], ...]
    residuals: tuple[Polynomial, ...] = field(default_factory=tuple)

    @property
    def complete(self) -> bool:
        return not self.residuals


def solve_zero_dimensional(ideal: Ideal) -> ZeroDimensionalSolution:
    """Solve from grevlex bases: eliminants, rational roots, back-substitution.

    Each level's eliminant, the monic generator of ``I ∩ ℚ[last]``, comes from
    ``eliminate`` (the Elimination Theorem); each rational root is substituted
    into the level's grevlex basis, and the next level is the grevlex basis
    of the result.  Raises :class:`NotZeroDimensionalError` (carrying the
    grevlex basis) when the variety is not finite.  Irreducible univariate
    factors without rational roots are reported as residuals instead of
    being solved.
    """
    gb = groebner_basis(ideal)
    leads = [gb.order._layout.decode(lm) for lm, _, _ in gb._entries]
    # finite exactly when some leading monomial is a pure power of each variable;
    # the unit ideal's 1 counts as one, and its eliminant 1 has no roots
    if not all(any(vec[pos] == sum(vec) for vec in leads) for pos in range(len(ideal.variables))):
        raise NotZeroDimensionalError(gb)

    residuals: list[Polynomial] = []

    def solve_rec(gb: GroebnerBasis) -> list[tuple[Fraction, ...]]:
        names = gb.order.variables
        last = names[-1]
        (eliminant,) = eliminate(gb.as_ideal(), names[:-1]).generators
        roots, residual = rational_roots(eliminant, last)
        if residual is not None:
            residuals.append(residual)
        if len(names) == 1:
            return [(root,) for root in roots]
        points = []
        for root in roots:
            substituted = tuple(p.substitute({last: Polynomial.constant(root)}) for p in gb.polynomials)
            sub_gb = buchberger(Ideal(substituted, names[:-1]))
            points += [partial + (root,) for partial in solve_rec(sub_gb)]
        return points

    return ZeroDimensionalSolution(points=tuple(sorted(solve_rec(gb))), residuals=tuple(residuals))
