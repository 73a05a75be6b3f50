"""Ideals in GF(p)[x0..x{n-1}]: Buchberger, normal forms, bracket powers, lengths.

The basis computation is plain Buchberger with the coprimality and chain
criteria, followed by minimalization and interreduction, so each ideal
has a unique reduced basis in the grevlex order, the only order used.
Lengths are counted on the lead monomials by the pivot recursion, not
monomial by monomial.  Scale targets are desk-sized instances; the
Frobenius machinery avoids materializing large bases.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Sequence

from .field import inverse_mod
from .poly import (
    Monomial,
    Polynomial,
    _grevlex_key,
    monomial_coprime,
    monomial_div,
    monomial_divides,
    monomial_lcm,
)


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of f and g."""
    mf, cf = f.leading_term()
    mg, cg = g.leading_term()
    lcm = monomial_lcm(mf, mg)
    a = f.multiply_monomial(monomial_div(lcm, mf), inverse_mod(cf, f.p))
    b = g.multiply_monomial(monomial_div(lcm, mg), inverse_mod(cg, g.p))
    return a - b


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of f by the basis; deterministic."""
    if not basis:
        return f
    p = f.p
    leads = [(*g.leading_term(), g) for g in basis]
    remainder = Polynomial.zero(p, f.nvars)
    work = f
    while not work.is_zero():
        m, c = work.leading_term()
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


def _update_pairs(pairs: set[tuple[int, int]], leads: list[Monomial], new_index: int) -> None:
    """Queue S-pairs for a new basis element, applying Buchberger's criteria."""
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


def buchberger(generators: Iterable[Polynomial], deadline: float | None = None) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of the span of ``generators``.

    Past ``deadline`` (a ``time.monotonic()`` value, checked before each
    S-pair reduction) it raises ``TimeoutError``.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return ()
    p, nvars = gens[0].p, gens[0].nvars
    for g in gens:
        if g.p != p or g.nvars != nvars:
            raise ValueError("generators live in different rings")
    basis: list[Polynomial] = []
    leads: list[Monomial] = []
    pairs: set[tuple[int, int]] = set()
    for g in gens:
        basis.append(g)
        leads.append(g.leading_monomial())
        _update_pairs(pairs, leads, len(basis) - 1)
    while pairs:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("time budget exhausted during a Groebner basis")
        i, j = min(pairs, key=lambda ij: _grevlex_key(monomial_lcm(leads[ij[0]], leads[ij[1]])))
        pairs.discard((i, j))
        s = normal_form(spoly(basis[i], basis[j]), basis)
        if s.is_zero():
            continue
        basis.append(s)
        leads.append(s.leading_monomial())
        _update_pairs(pairs, leads, len(basis) - 1)
    return _reduce_basis(basis)


def _reduce_basis(basis: list[Polynomial]) -> tuple[Polynomial, ...]:
    """Minimalize and interreduce, returning monic generators sorted by lead."""
    basis = [g.monic() for g in basis if not g.is_zero()]
    leads = [g.leading_monomial() for g in basis]
    keep = []
    for i, lm in enumerate(leads):
        if any(j != i and monomial_divides(leads[j], lm) and (not monomial_divides(lm, leads[j]) or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(g, others).monic())
    reduced = [g for g in reduced if not g.is_zero()]
    reduced.sort(key=lambda g: _grevlex_key(g.leading_monomial()), reverse=True)
    return tuple(reduced)


class Ideal:
    """An ideal presented by generators, with its cached reduced grevlex basis."""

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
        self._basis: tuple[Polynomial, ...] | None = None

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

    def groebner(self, deadline: float | None = None) -> tuple[Polynomial, ...]:
        if self._basis is None:
            self._basis = buchberger(self.generators, deadline)
        return self._basis

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.groebner()).is_zero()

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal(GF({self.p}), <{inside}>)"


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


def quotient_length(ideal: Ideal, deadline: float | None = None) -> int | float:
    """Vector-space dimension of GF(p)[x]/I, or math.inf when infinite.

    It is the length of the initial ideal, counted from the leads of the
    reduced basis by ``_count_standard_monomials``.  Past ``deadline``
    the basis computation (see ``buchberger``) and the count raise
    ``TimeoutError``.
    """
    basis = ideal.groebner(deadline)
    return _count_standard_monomials([g.leading_monomial() for g in basis], ideal.nvars, deadline)


def _minimal_monomials(monomials: Iterable[Monomial]) -> list[Monomial]:
    """The minimal generators of the monomial ideal spanned by ``monomials``."""
    kept: list[Monomial] = []
    # a proper divisor has lower degree, so it is kept before its multiples
    for m in sorted(set(monomials), key=sum):
        if not any(monomial_divides(k, m) for k in kept):
            kept.append(m)
    return kept


def _count_standard_monomials(leads: Iterable[Monomial], nvars: int, deadline: float | None) -> int | float:
    """The number of monomials outside the ideal the leads span, or math.inf.

    A unit lead gives 0, and a variable with no pure power among the leads
    gives math.inf.  Otherwise this is the pivot recursion of Bayer-Stillman
    and Bigatti on lengths, lambda(S/I) = lambda(S/(I + (x_i^k))) +
    lambda(S/(I : x_i^k)), with x_i the variable in the most mixed leads
    (leads in two or more variables) and k the median of its exponents
    there.  Both branches keep a pure power of every variable and lower
    the cap of x_i, so the worklist empties; a node whose minimal leads
    are pure powers x_i^(c_i) is a box of length prod c_i.  ``deadline``
    is checked once per node.
    """
    gens = _minimal_monomials(leads)
    if (0,) * nvars in gens:
        return 0
    if sum(1 for m in gens if sum(1 for e in m if e) == 1) < nvars:
        return math.inf
    count = 0
    work = [gens]
    while work:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("time budget exhausted while counting standard monomials")
        gens = work.pop()
        caps = [0] * nvars
        mixed = []
        for m in gens:
            support = [i for i, e in enumerate(m) if e]
            if len(support) == 1:
                caps[support[0]] = m[support[0]]
            else:
                mixed.append(m)
        if not mixed:
            count += math.prod(caps)
            continue
        occurs = [sum(1 for m in mixed if m[i]) for i in range(nvars)]
        i = occurs.index(max(occurs))
        exps = sorted(m[i] for m in mixed if m[i])
        k = exps[len(exps) // 2]
        pivot = tuple(k if j == i else 0 for j in range(nvars))
        # gens is minimal and holds x_i^(caps[i]) with k < caps[i], so adding
        # x_i^k only drops the leads it divides
        work.append([m for m in gens if m[i] < k] + [pivot])
        work.append(_minimal_monomials(m[:i] + (max(m[i] - k, 0),) + m[i + 1 :] for m in gens))
    return count
