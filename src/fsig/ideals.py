"""Ideals in GF(p)[x0..x{n-1}]: Buchberger, normal forms, colon ideals, lengths.

The basis computation is plain Buchberger with the coprimality and chain
criteria, followed by minimalization and interreduction, so each ideal
and order has a unique reduced basis.  Scale targets are desk-sized
instances; the Frobenius machinery avoids materializing large bases.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .field import inverse_mod
from .poly import (
    GREVLEX,
    Elimination,
    Monomial,
    MonomialOrder,
    Polynomial,
    monomial_coprime,
    monomial_div,
    monomial_divides,
    monomial_lcm,
)


def spoly(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """S-polynomial of f and g."""
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = monomial_lcm(mf, mg)
    a = f.multiply_monomial(monomial_div(lcm, mf), inverse_mod(cf, f.p))
    b = g.multiply_monomial(monomial_div(lcm, mg), inverse_mod(cg, g.p))
    return a - b


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of multivariate division of f by the basis; deterministic."""
    if not basis:
        return f
    p = f.p
    leads = [(g.leading_monomial(order), g.leading_coefficient(order), g) for g in basis]
    remainder = Polynomial.zero(p, f.nvars)
    work = f
    while not work.is_zero():
        m, c = work.leading_term(order)
        for lm, lc, g in leads:
            if monomial_divides(lm, m):
                factor = (c * inverse_mod(lc, p)) % p
                work = work - g.multiply_monomial(monomial_div(m, lm), factor)
                break
        else:
            mono = Polynomial.monomial(m, p, c)
            remainder = remainder + mono
            work = work - mono
    return remainder


def _update_pairs(
    pairs: set[tuple[int, int]],
    basis: list[Polynomial],
    new_index: int,
    order: MonomialOrder,
) -> None:
    """Queue S-pairs for a new basis element, applying Buchberger's criteria."""
    leads = [g.leading_monomial(order) for g in basis]
    t = leads[new_index]
    fresh = []
    for i in range(new_index):
        fresh.append((i, new_index))
    # chain criterion against existing pairs
    drop = set()
    for (i, j) in pairs:
        lij = monomial_lcm(leads[i], leads[j])
        if (
            monomial_divides(t, lij)
            and monomial_lcm(leads[i], t) != lij
            and monomial_lcm(leads[j], t) != lij
        ):
            drop.add((i, j))
    pairs -= drop
    # coprimality criterion on the fresh pairs
    for (i, j) in fresh:
        if not monomial_coprime(leads[i], leads[j]):
            pairs.add((i, j))


def buchberger(generators: Iterable[Polynomial], order: MonomialOrder = GREVLEX) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of the span of ``generators``."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return ()
    p, nvars = gens[0].p, gens[0].nvars
    for g in gens:
        if g.p != p or g.nvars != nvars:
            raise ValueError("generators live in different rings")
    basis: list[Polynomial] = []
    pairs: set[tuple[int, int]] = set()
    for g in gens:
        basis.append(g)
        _update_pairs(pairs, basis, len(basis) - 1, order)
    while pairs:
        i, j = min(pairs, key=lambda ij: order.key(monomial_lcm(basis[ij[0]].leading_monomial(order), basis[ij[1]].leading_monomial(order))))
        pairs.discard((i, j))
        s = normal_form(spoly(basis[i], basis[j], order), basis, order)
        if s.is_zero():
            continue
        basis.append(s)
        _update_pairs(pairs, basis, len(basis) - 1, order)
    return _reduce_basis(basis, order)


def _reduce_basis(basis: list[Polynomial], order: MonomialOrder) -> tuple[Polynomial, ...]:
    """Minimalize and interreduce, returning monic generators sorted by lead."""
    basis = [g.monic(order) for g in basis if not g.is_zero()]
    leads = [g.leading_monomial(order) for g in basis]
    keep = []
    for i, lm in enumerate(leads):
        if any(j != i and monomial_divides(leads[j], lm) and (not monomial_divides(lm, leads[j]) or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(g, others, order).monic(order))
    reduced = [g for g in reduced if not g.is_zero()]
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)), reverse=True)
    return tuple(reduced)


class Ideal:
    """An ideal presented by generators, with per-order cached reduced bases."""

    def __init__(self, p: int, nvars: int, generators: Iterable[Polynomial] = ()):
        self.p = p
        self.nvars = nvars
        gens = []
        for g in generators:
            if g.p != p or g.nvars != nvars:
                raise ValueError("generator lives in a different ring")
            if not g.is_zero():
                gens.append(g)
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        self._bases: dict[str, tuple[Polynomial, ...]] = {}

    @classmethod
    def monomial_ideal(cls, p: int, nvars: int, exponents: Iterable[Monomial]) -> Ideal:
        return cls(p, nvars, [Polynomial.monomial(tuple(m), p) for m in exponents])

    @classmethod
    def bracket_maximal(cls, p: int, nvars: int, q: int) -> Ideal:
        """The Frobenius power m^[q] of the irrelevant maximal ideal."""
        gens = []
        for i in range(nvars):
            m = [0] * nvars
            m[i] = q
            gens.append(tuple(m))
        return cls.monomial_ideal(p, nvars, gens)

    def groebner(self, order: MonomialOrder = GREVLEX) -> tuple[Polynomial, ...]:
        cached = self._bases.get(order.name)
        if cached is None:
            cached = buchberger(self.generators, order)
            self._bases[order.name] = cached
        return cached

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.groebner(GREVLEX), GREVLEX).is_zero()

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal(GF({self.p}), <{inside}>)"


def _shift_vars(f: Polynomial, extra: int) -> Polynomial:
    """Reinterpret f in a ring with ``extra`` new leading variables."""
    terms = {(0,) * extra + m: c for m, c in f.terms.items()}
    return Polynomial(f.p, f.nvars + extra, terms)


def _drop_first_var(f: Polynomial) -> Polynomial:
    terms = {m[1:]: c for m, c in f.terms.items()}
    return Polynomial(f.p, f.nvars - 1, terms)


def ideal_intersection(left: Ideal, right: Ideal) -> Ideal:
    """Intersection via one elimination variable t: eliminate t from t*L + (1-t)*R."""
    if left.p != right.p or left.nvars != right.nvars:
        raise ValueError("ideals live in different rings")
    p, nvars = left.p, left.nvars
    t = Polynomial.variable(0, p, nvars + 1)
    one = Polynomial.one(p, nvars + 1)
    gens = [t * _shift_vars(g, 1) for g in left.generators]
    gens += [(one - t) * _shift_vars(g, 1) for g in right.generators]
    basis = buchberger(gens, Elimination(1))
    eliminated = [
        _drop_first_var(g) for g in basis if all(m[0] == 0 for m in g.terms)
    ]
    return Ideal(p, nvars, eliminated)


def divide_exactly(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p = f.p
    quotient = Polynomial.zero(p, f.nvars)
    work = f
    lm, lc = g.leading_term(GREVLEX)
    while not work.is_zero():
        m, c = work.leading_term(GREVLEX)
        if not monomial_divides(lm, m):
            raise ValueError("division is not exact")
        factor = (c * inverse_mod(lc, p)) % p
        mono = monomial_div(m, lm)
        quotient = quotient + Polynomial.monomial(mono, p, factor)
        work = work - g.multiply_monomial(mono, factor)
    return quotient


def colon_ideal(ideal: Ideal, f: Polynomial) -> Ideal:
    """The colon ideal (I : f), computed as (I ∩ <f>) / f."""
    if f.is_zero():
        raise ValueError("colon by zero is the unit ideal question; not supported")
    if f.p != ideal.p or f.nvars != ideal.nvars:
        raise ValueError("polynomial lives in a different ring")
    inter = ideal_intersection(ideal, Ideal(ideal.p, ideal.nvars, [f]))
    return Ideal(ideal.p, ideal.nvars, [divide_exactly(g, f) for g in inter.generators])


def frobenius_power(ideal: Ideal, q: int) -> Ideal:
    """The bracket power I^[q] for q a power of the characteristic."""
    p = ideal.p
    qq = q
    while qq % p == 0:
        qq //= p
    if qq != 1 or q < 1:
        raise ValueError(f"{q} is not a power of the characteristic {p}")
    return Ideal(p, ideal.nvars, [g ** q for g in ideal.generators])


def ideal_sum(left: Ideal, right: Ideal) -> Ideal:
    if left.p != right.p or left.nvars != right.nvars:
        raise ValueError("ideals live in different rings")
    return Ideal(left.p, left.nvars, left.generators + right.generators)


def quotient_length(ideal: Ideal) -> int | float:
    """Vector-space dimension of GF(p)[x]/I, or math.inf when infinite.

    Counts standard monomials of the initial ideal; the quotient is
    finite exactly when each variable has a pure power among the leads.
    """
    if ideal.nvars == 0:
        return 0 if any(not g.is_zero() for g in ideal.generators) else 1
    basis = ideal.groebner(GREVLEX)
    if any(not g.terms for g in basis):
        return 0
    for g in basis:
        if g.total_degree() == 0:
            return 0
    leads = [g.leading_monomial(GREVLEX) for g in basis]
    nvars = ideal.nvars
    caps = [None] * nvars
    for m in leads:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            i = support[0]
            if caps[i] is None or m[i] < caps[i]:
                caps[i] = m[i]
    if any(c is None for c in caps):
        return math.inf
    return _count_standard_monomials(leads, [int(c) for c in caps])


def _count_standard_monomials(leads: list[Monomial], caps: list[int]) -> int:
    nvars = len(caps)
    leads = sorted(leads)
    count = 0
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        depth, prefix = stack.pop()
        if depth == nvars:
            count += 1
            continue
        for e in range(caps[depth]):
            candidate = prefix + (e,)
            # prune when the partial exponent vector is already divisible
            # by a lead supported on the assigned variables
            blocked = False
            for lm in leads:
                if all(lm[i] <= candidate[i] for i in range(depth + 1)) and all(
                    lm[i] == 0 for i in range(depth + 1, nvars)
                ):
                    blocked = True
                    break
            if not blocked:
                stack.append((depth + 1, candidate))
    return count
