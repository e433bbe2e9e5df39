"""Exact arithmetic: arbitrary-precision rationals and sparse multivariate polynomials.

Coefficients are :class:`fractions.Fraction`, which is always kept in canonical
form (reduced, positive denominator).  Polynomials are immutable sparse term
maps; two polynomials are equal exactly when their term maps are equal,
independently of any ambient variable list.

Inside a polynomial a monomial is one int over a module-wide, append-only
variable register: the exponent of variable ``i`` fills the 16-bit field at
bit ``16*i``, so a monomial product is one integer add.  The top bit of each
field is a guard bit; fields below it cannot carry into their neighbour, so
one guard test on a product's keys catches every exponent past
:data:`MAX_EXPONENT`, which raises :class:`OverflowError` and never wraps.
Outside a polynomial a monomial is an exponent vector over a given name list
(``from_exponent_vectors`` and ``exponent_vectors``); ``items()`` and printing
unpack keys to name-sorted ``(name, exponent)`` pairs.

The accepted text grammar: integer and ``p/q`` literals, variable names
matching ``[a-z][a-z0-9]*``, operators ``+ - * / ^`` and parentheses.
Implicit multiplication is a syntax error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal, ``"p"`` or ``"p/q"``."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


class ParseError(ValueError):
    """Syntax error in a polynomial expression; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(KeyError):
    """A variable required for evaluation was not assigned."""

    def __init__(self, name: str):
        super().__init__(f"no value assigned to variable {name!r}")
        self.name = name


def _format_pairs(pairs: tuple[tuple[str, int], ...]) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in pairs) or "1"


# -- packed monomials -----------------------------------------------------

_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1
_VAR_NAMES: list[str] = []
_VAR_INDEX: dict[str, int] = {}
_guard = 0  # the guard bits of every registered field

_Terms = dict[int, Fraction]  # packed monomial -> nonzero coefficient


def _shift(name: str) -> int:
    """Bit offset of ``name``'s field, registering the name on first use."""
    global _guard
    if name not in _VAR_INDEX:
        _VAR_INDEX[name] = len(_VAR_NAMES)
        _VAR_NAMES.append(name)
        _guard |= 1 << (_FIELD * _VAR_INDEX[name] + _FIELD - 1)
    return _FIELD * _VAR_INDEX[name]


def _check(exp: int, shift: int) -> int:
    """``exp`` placed in the field at ``shift``; raises rather than borrow from
    a neighbour or fill its guard bit."""
    if not 0 <= exp <= MAX_EXPONENT:
        name = _VAR_NAMES[shift // _FIELD]
        if exp < 0:
            raise ValueError(f"negative exponent of {name!r}")
        raise OverflowError(f"exponent of {name!r} exceeds {MAX_EXPONENT}")
    return exp << shift


def _fields(key: int) -> Iterator[tuple[int, int]]:
    """(register index, exponent) of each variable of a packed monomial."""
    index = 0
    while key:
        if key & _FIELD_MASK:
            yield index, key & _FIELD_MASK
        key >>= _FIELD
        index += 1


def _pairs(key: int) -> tuple[tuple[str, int], ...]:
    """The name-sorted ``(name, exponent)`` pairs of a packed monomial."""
    return tuple(sorted((_VAR_NAMES[i], e) for i, e in _fields(key)))


def _mul(a: _Terms, b: _Terms) -> _Terms:
    out: _Terms = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    overflowed = _guard & reduce(or_, out, 0)
    if overflowed:  # report the highest field that reached its guard bit
        _check(MAX_EXPONENT + 1, overflowed.bit_length() - _FIELD)
    return {k: c for k, c in out.items() if c}


def _pow(terms: _Terms, exponent: int) -> _Terms:
    result: _Terms = {0: Fraction(1)}
    for bit in bin(exponent)[2:]:  # left to right: no power past the result is formed
        result = _mul(_mul(result, result), terms) if bit == "1" else _mul(result, result)
    return result


class Polynomial:
    """Immutable sparse multivariate polynomial over the rationals."""

    __slots__ = ("_terms", "_hash")

    def __init__(self):
        """The zero polynomial; the constructors below, ``parse`` and arithmetic build the rest."""
        self._terms: _Terms = {}
        self._hash: int | None = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _POLY_ZERO

    @staticmethod
    def constant(value) -> "Polynomial":
        value = Fraction(value)
        return _wrap({0: value} if value else {})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return _wrap({1 << _shift(name): Fraction(1)})

    @staticmethod
    def from_exponent_vectors(names: Sequence[str],
                              terms: Mapping[tuple[int, ...], Fraction]) -> "Polynomial":
        """The polynomial ``sum(c * prod(names[i]**vec[i]))`` over ``terms``' ``vec: c``."""
        shifts = [_shift(n) for n in names]
        return _wrap({sum(map(_check, vec, shifts)): Fraction(c) for vec, c in terms.items() if c})

    # -- inspection ----------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[tuple[str, int], ...], Fraction]]:
        """Terms as (name-sorted ``(name, exponent)`` pairs, coefficient)."""
        return ((_pairs(k), c) for k, c in self._terms.items())

    def exponent_vectors(self, names: Sequence[str]) -> dict[tuple[int, ...], Fraction]:
        """Terms as ``{exponent vector over names: coefficient}``; a variable
        outside ``names`` raises :class:`ValueError`."""
        shifts = [_shift(n) for n in names]
        stray = reduce(or_, self._terms, 0) & ~sum(_FIELD_MASK << s for s in shifts)
        if stray:
            raise ValueError(f"variable {_pairs(stray)[0][0]!r} not covered by the monomial order")
        return {tuple(k >> s & _FIELD_MASK for s in shifts): c for k, c in self._terms.items()}

    def term_count(self) -> int:
        return len(self._terms)

    def constant_term(self) -> Fraction:
        return self._terms.get(0, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(self._terms)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        return max((sum(e for _, e in _fields(k)) for k in self._terms), default=-1)

    def variables(self) -> frozenset[str]:
        return frozenset(n for n, _ in _pairs(reduce(or_, self._terms, 0)))

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for k, c in other._terms.items():
            merged[k] = merged[k] + c if k in merged else c
            if not merged[k]:
                del merged[k]
        return _wrap(merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(_mul(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return _wrap(_pow(self._terms, exponent))

    def scale(self, value) -> "Polynomial":
        value = Fraction(value)
        if not value:
            return _POLY_ZERO
        return _wrap({k: c * value for k, c in self._terms.items()})

    # -- evaluation and substitution -------------------------------------

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a rational point; every occurring variable must be assigned."""
        total = Fraction(0)
        for key, coeff in self._terms.items():
            for index, exp in _fields(key):
                name = _VAR_NAMES[index]
                if name not in point:
                    raise EvaluationError(name)
                coeff *= Fraction(point[name]) ** exp
            total += coeff
        return total

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution of polynomials for variables.

        Each image power is computed once per call, and every term's
        expansion is added into one result map.
        """
        bases = {_shift(name) // _FIELD: _coerce(image)._terms for name, image in images.items()}
        moved_mask = sum(_FIELD_MASK << (_FIELD * i) for i in bases)
        powers: dict[tuple[int, int], _Terms] = {}
        out: _Terms = {}
        for key, coeff in self._terms.items():
            term = {key & ~moved_mask: coeff}
            for index, exp in _fields(key & moved_mask):
                if (index, exp) not in powers:
                    powers[index, exp] = _pow(bases[index], exp)
                term = _mul(term, powers[index, exp])
            for k, c in term.items():
                out[k] = out[k] + c if k in out else c
        return _wrap({k: c for k, c in out.items() if c})

    # -- equality, hashing, printing -------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        terms = sorted(((_pairs(k), c) for k, c in self._terms.items()),  # graded, then lex
                       key=lambda t: (-sum(e for _, e in t[0]), tuple((n, -e) for n, e in t[0])))
        for pairs, coeff in terms:
            if not pairs:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = _format_pairs(pairs)
            else:
                body = f"{abs(coeff)}*{_format_pairs(pairs)}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    @staticmethod
    def parse(text: str, variables: Iterable[str] | None = None) -> "Polynomial":
        return parse_polynomial(text, variables)


def _wrap(terms: _Terms) -> Polynomial:
    poly = Polynomial.__new__(Polynomial)
    poly._terms = terms
    poly._hash = None
    return poly


_POLY_ZERO = Polynomial()


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


# -- parser ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<name>[a-z][a-z0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[where]!r}", where)
        if m.group("number"):
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial expression grammar."""

    def __init__(self, text: str, variables: frozenset[str] | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.variables = variables

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> Polynomial:
        poly = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"expected operator, found {value!r}", pos)
        return poly

    def expression(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.advance()
            negate = value == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly - rhs if value == "-" else poly + rhs
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.factor()
            elif kind == "op" and value == "/":
                self.advance()
                divisor = self.factor()
                if not divisor.is_constant() or divisor.is_zero():
                    raise ParseError("division only by a nonzero integer constant", pos)
                poly = poly.scale(1 / divisor.constant_term())
            else:
                return poly

    def factor(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.factor()
            return -inner if value == "-" else inner
        poly = self.primary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                ekind, evalue, epos = self.advance()
                if ekind != "number":
                    raise ParseError("exponent must be a nonnegative integer", epos)
                poly = poly ** int(evalue)
            else:
                return poly

    def primary(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == "number":
            return Polynomial.constant(int(value))
        if kind == "name":
            if self.variables is not None and value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Polynomial.variable(value)
        if kind == "op" and value == "(":
            poly = self.expression()
            ckind, cvalue, cpos = self.advance()
            if not (ckind == "op" and cvalue == ")"):
                raise ParseError("expected ')'", cpos)
            return poly
        raise ParseError(f"expected a number, variable or '(', found {value!r}" if value else "unexpected end of input", pos)


def parse_polynomial(text: str, variables: Iterable[str] | None = None) -> Polynomial:
    """Parse an expression into canonical form.

    When ``variables`` is given, any name outside it is rejected (reported
    with the offending name and position).
    """
    allowed = frozenset(variables) if variables is not None else None
    return _Parser(text, allowed).parse()
