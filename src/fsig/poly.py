"""Sparse multivariate polynomials over GF(p) in the grevlex order, with parsing.

Monomials are plain exponent tuples.  A polynomial is a hash map from
exponent tuple to a nonzero residue in [1, p), so term lookup during
multiplication and reduction is O(1).
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .field import inverse_mod, is_prime

Monomial = tuple[int, ...]

# Exponents are kept well inside machine-word range so that downstream
# integer linear algebra cannot overflow silently.
MAX_EXPONENT = 2**30


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))

def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))

def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))

def monomial_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _grevlex_key(m: Monomial):
    """Sort key of the graded reverse lexicographic order, the only order used."""
    return (sum(m), tuple(-e for e in reversed(m)))


class Polynomial:
    """Immutable-by-convention sparse polynomial over GF(p)."""

    __slots__ = ("p", "nvars", "terms")

    def __init__(self, p: int, nvars: int, terms: Mapping[Monomial, int] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.p = p
        self.nvars = nvars
        clean: dict[Monomial, int] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError(f"exponent tuple {m} has wrong length for {nvars} variables")
                if any(e < 0 for e in m):
                    raise ValueError(f"negative exponent in {m}")
                if any(e > MAX_EXPONENT for e in m):
                    raise OverflowError(f"exponent in {m} exceeds supported range")
                c = int(c) % p
                if c:
                    clean[tuple(m)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p: int, nvars: int) -> Polynomial:
        return cls(p, nvars)

    @classmethod
    def one(cls, p: int, nvars: int) -> Polynomial:
        return cls(p, nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, c: int, p: int, nvars: int) -> Polynomial:
        return cls(p, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, p: int, nvars: int) -> Polynomial:
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exp = [0] * nvars
        exp[i] = 1
        return cls(p, nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, m: Monomial, p: int, c: int = 1) -> Polynomial:
        return cls(p, len(m), {tuple(m): c})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def support(self) -> list[Monomial]:
        return list(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.terms, key=_grevlex_key)

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_monomial()]

    def leading_term(self) -> tuple[Monomial, int]:
        m = self.leading_monomial()
        return m, self.terms[m]

    def is_homogeneous(self, weights: Iterable[int] | None = None) -> bool:
        if not self.terms:
            return True
        w = tuple(weights) if weights is not None else (1,) * self.nvars
        degs = {sum(e * wi for e, wi in zip(m, w)) for m in self.terms}
        return len(degs) == 1

    def weighted_degree(self, weights: Iterable[int]) -> int:
        if not self.terms:
            return -1
        w = tuple(weights)
        return max(sum(e * wi for e, wi in zip(m, w)) for m in self.terms)

    # -- arithmetic -------------------------------------------------------

    def _check_ring(self, other: Polynomial) -> None:
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_ring(other)
        terms = dict(self.terms)
        p = self.p
        for m, c in other.terms.items():
            v = (terms.get(m, 0) + c) % p
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return self._raw(terms)

    def __sub__(self, other: Polynomial) -> Polynomial:
        self._check_ring(other)
        terms = dict(self.terms)
        p = self.p
        for m, c in other.terms.items():
            v = (terms.get(m, 0) - c) % p
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return self._raw(terms)

    def __neg__(self) -> Polynomial:
        p = self.p
        return self._raw({m: p - c for m, c in self.terms.items()})

    def __mul__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        p = self.p
        out: dict[Monomial, int] = {}
        small, big = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        for ma, ca in small.items():
            for mb, cb in big.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = (out.get(m, 0) + ca * cb) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return self._raw(out)

    __rmul__ = __mul__

    def scale(self, c: int) -> Polynomial:
        c %= self.p
        if c == 0:
            return Polynomial.zero(self.p, self.nvars)
        if c == 1:
            return self
        p = self.p
        return self._raw({m: (c * v) % p for m, v in self.terms.items()})

    def monic(self) -> Polynomial:
        if not self.terms:
            return self
        return self.scale(inverse_mod(self.leading_coefficient(), self.p))

    def multiply_monomial(self, m: Monomial, c: int = 1) -> Polynomial:
        c %= self.p
        if c == 0:
            return Polynomial.zero(self.p, self.nvars)
        p = self.p
        return self._raw({tuple(x + y for x, y in zip(mm, m)): (cc * c) % p for mm, cc in self.terms.items()})

    def __pow__(self, k: int) -> Polynomial:
        if k < 0:
            raise ValueError("negative powers are not defined here")
        if k == 0:
            return Polynomial.one(self.p, self.nvars)
        if self.is_zero():
            return self
        if self.total_degree() * k > MAX_EXPONENT:
            raise OverflowError(f"power {k} pushes exponents past the supported range")
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            return self._raw({tuple(e * k for e in m): pow(c, k, self.p)})
        # Over GF(p), h^p = h(x^p): with k = sum k_i p^i, f^k is the product
        # of f^(k_i) with every exponent scaled by p^i.
        p = self.p
        digit_powers: dict[int, Polynomial] = {}
        result = None
        scale = 1
        while k:
            k, digit = divmod(k, p)
            if digit:
                if digit not in digit_powers:
                    digit_powers[digit] = self._small_pow(digit)
                h = digit_powers[digit]
                if scale > 1:
                    h = self._raw({tuple(e * scale for e in m): c for m, c in h.terms.items()})
                result = h if result is None else result * h
            scale *= p
        return result

    def _small_pow(self, k: int) -> Polynomial:
        """self^k for k >= 1 by multiplication alone."""
        # For sparse bases iterated multiplication beats repeated squaring
        # because intermediate supports stay small.
        if len(self.terms) <= 8:
            acc = self
            for _ in range(k - 1):
                acc = acc * self
            return acc
        result = Polynomial.one(self.p, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _raw(self, terms: dict[Monomial, int]) -> Polynomial:
        obj = object.__new__(Polynomial)
        obj.p = self.p
        obj.nvars = self.nvars
        obj.terms = terms
        return obj

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.p == other.p and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.p, self.nvars, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda mc: _grevlex_key(mc[0]), reverse=True)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial(GF({self.p}), {format_polynomial(self)!r})"


def default_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(nvars))


def format_polynomial(f: Polynomial, names: Iterable[str] | None = None) -> str:
    """Canonical printer: terms in descending grevlex, coefficients in [1, p)."""
    if f.is_zero():
        return "0"
    names = tuple(names) if names is not None else default_names(f.nvars)
    if len(names) != f.nvars:
        raise ValueError("wrong number of variable names")
    chunks = []
    for m, c in f.sorted_terms():
        factors = []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            chunks.append(str(c))
        elif c == 1:
            chunks.append("*".join(factors))
        else:
            chunks.append(f"{c}*" + "*".join(factors))
    return " + ".join(chunks)


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Parentheses nested deeper raise ParseError; each level is four frames
# of the recursive descent, so this stays far below the recursion limit.
_MAX_DEPTH = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    rest = text[pos:].strip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", pos)
    return tokens


class _Parser:
    """Recursive-descent parser for `+ - * ^` expressions over GF(p)."""

    def __init__(self, tokens: list[tuple[str, str, int]], p: int, nvars: int, names: tuple[str, ...]):
        self.tokens = tokens
        self.i = 0
        self.p = p
        self.nvars = nvars
        self.index = {name: k for k, name in enumerate(names)}
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", -1)
        self.i += 1
        return tok

    def expression(self) -> Polynomial:
        tok = self.peek()
        sign = 1
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.next()
            sign = -1 if tok[1] == "-" else 1
        acc = self.term().scale(sign % self.p)
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            self.next()
            rhs = self.term()
            acc = acc + rhs if tok[1] == "+" else acc - rhs
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                break
            self.next()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Polynomial:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            etok = self.next()
            if etok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer literal", etok[2])
            return base ** int(etok[1])
        return base

    def atom(self) -> Polynomial:
        tok = self.next()
        kind, text, pos = tok
        if kind == "int":
            return Polynomial.constant(int(text), self.p, self.nvars)
        if kind == "name":
            if text not in self.index:
                raise ParseError(f"unknown variable {text!r}", pos)
            return Polynomial.variable(self.index[text], self.p, self.nvars)
        if kind == "op" and text == "(":
            if self.depth == _MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {_MAX_DEPTH}", pos)
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            closing = self.next()
            if closing[:2] != ("op", ")"):
                raise ParseError("expected ')'", closing[2])
            return inner
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_polynomial(text: str, p: int, nvars: int, names: Iterable[str] | None = None) -> Polynomial:
    """Parse whitespace-insensitive polynomial text into GF(p)[x0..x{n-1}].

    Variables are x0..x{n-1} unless explicit ``names`` are given.  The
    grammar has +, -, *, ^, parentheses, and integer literals (reduced
    mod p).
    """
    names = tuple(names) if names is not None else default_names(nvars)
    if len(names) != nvars:
        raise ValueError("wrong number of variable names")
    parser = _Parser(_tokenize(text), p, nvars, names)
    result = parser.expression()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input starting with {tok[1]!r}", tok[2])
    return result
