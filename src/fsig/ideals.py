"""Ideals in GF(p)[x0..x{n-1}]: Buchberger, normal forms, bracket powers, lengths.

The basis computation is plain Buchberger with the coprimality and chain
criteria, followed by minimalization and interreduction, so each ideal
has a unique reduced basis in the grevlex order, the only order used.
Scale targets are desk-sized instances; the Frobenius machinery avoids
materializing large bases.
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

    Counts standard monomials of the initial ideal; the quotient is
    finite exactly when each variable has a pure power among the leads.
    Past ``deadline`` the basis computation (see ``buchberger``) and the
    count raise ``TimeoutError``.
    """
    if ideal.nvars == 0:
        return 0 if any(not g.is_zero() for g in ideal.generators) else 1
    basis = ideal.groebner(deadline)
    if any(not g.terms for g in basis):
        return 0
    for g in basis:
        if g.total_degree() == 0:
            return 0
    leads = [g.leading_monomial() for g in basis]
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
    return _count_standard_monomials(leads, [int(c) for c in caps], deadline)


def _count_standard_monomials(leads: list[Monomial], caps: list[int], deadline: float | None) -> int:
    nvars = len(caps)
    leads = sorted(leads)
    count = 0
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("time budget exhausted while counting standard monomials")
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
