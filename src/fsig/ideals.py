"""Ideals in GF(p)[x0..x{n-1}]: Buchberger, normal forms, bracket powers, lengths.

The basis computation is Buchberger's algorithm with the Gebauer-Moller
pair update (criteria B, M and F, and coprime leads) and the normal
selection strategy, followed by interreduction, so each ideal has a
unique reduced basis in the grevlex order, the only order used.  Every
division, of S-polynomials, of generators, in the interreduction and in
``normal_form``, runs through one loop, ``_reduce``, on term dicts with
a heap of grevlex keys.  Lengths are counted on the lead monomials by
the pivot recursion, not monomial by monomial.  Scale targets are
desk-sized instances; the Frobenius machinery avoids materializing
large bases.
"""

from __future__ import annotations

import heapq
import math
import time
from operator import add as _add, le as _le, sub as _sub
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


# A reducer is (lead, inverse lead coefficient, the other terms), computed
# once per basis element.
Reducer = tuple[Monomial, int, list[tuple[Monomial, int]]]

# reduction steps between two deadline checks inside one reduction
_STEPS_PER_CHECK = 256


def _reducer(g: Polynomial) -> Reducer:
    lead, c = g.leading_term()
    return lead, inverse_mod(c, g.p), [(m, v) for m, v in g.terms.items() if m != lead]


def _check(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("time budget exhausted during a Groebner basis")


def _reduce(work: dict[Monomial, int], reducers: Sequence[Reducer], p: int, deadline: float | None) -> dict[Monomial, int]:
    """The remainder of the term dict ``work`` on division by ``reducers``.

    The one reduction loop.  Terms come off a heap of grevlex keys,
    largest first; a heap entry whose term was cancelled or already taken
    is stale and skipped.  A term is divided by the first reducer whose
    lead divides it, or moves to the remainder, which is therefore in
    descending order.  ``work`` is consumed.  ``deadline`` is checked
    every ``_STEPS_PER_CHECK`` division steps.
    """
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, int] = {}
    steps = 0
    while heap:
        m = heapq.heappop(heap)[2]
        c = work.pop(m, 0)
        if not c:
            continue
        for lead, inv, tail in reducers:
            if all(map(_le, lead, m)):
                break
        else:
            remainder[m] = c
            continue
        steps += 1
        if steps % _STEPS_PER_CHECK == 0:
            _check(deadline)
        factor = c * inv % p
        u = tuple(map(_sub, m, lead))
        for t, v in tail:
            mm = tuple(map(_add, t, u))
            old = work.get(mm)
            if old is None:
                work[mm] = -factor * v % p
                heapq.heappush(heap, (-sum(mm), mm[::-1], mm))
            else:
                old = (old - factor * v) % p
                if old:
                    work[mm] = old
                else:
                    del work[mm]
    return remainder


def _spoly_terms(f: Reducer, g: Reducer, p: int) -> dict[Monomial, int]:
    """The S-polynomial of two reducers as a term dict; the leads cancel."""
    lcm = monomial_lcm(f[0], g[0])
    out: dict[Monomial, int] = {}
    for (lead, inv, tail), sign in ((f, 1), (g, -1)):
        u = monomial_div(lcm, lead)
        factor = sign * inv
        for t, v in tail:
            mm = tuple(map(_add, t, u))
            v = (out.get(mm, 0) + factor * v) % p
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
    return out


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of f and g."""
    if f.p != g.p or f.nvars != g.nvars:
        raise ValueError("polynomials live in different rings")
    return Polynomial(f.p, f.nvars, _spoly_terms(_reducer(f), _reducer(g), f.p))


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of f by the basis; deterministic.

    Each term is divided by the first basis element whose lead divides it.
    """
    if not basis:
        return f
    return Polynomial(f.p, f.nvars, _reduce(dict(f.terms), [_reducer(g) for g in basis], f.p, None))


def buchberger(generators: Iterable[Polynomial], deadline: float | None = None) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of the span of ``generators``.

    Each generator is reduced by the basis so far before it joins.  S-pairs
    come off a heap in the normal strategy (least lcm first), and each new
    element updates the pairs by Gebauer-Moller (``_update_pairs``).  The
    final basis is interreduced, made monic and sorted by lead, largest
    first.  Past ``deadline`` (a ``time.monotonic()`` value) it raises
    ``TimeoutError``: the deadline is checked before each S-pair, before
    each element of the interreduction, and every ``_STEPS_PER_CHECK``
    division steps inside one reduction.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return ()
    p, nvars = gens[0].p, gens[0].nvars
    for g in gens:
        if g.p != p or g.nvars != nvars:
            raise ValueError("generators live in different rings")
    elements: list[Reducer] = []  # every element ever added, by index
    active: list[int] = []  # the elements whose leads no later lead divides
    pairs: dict[tuple[int, int], Monomial] = {}  # pending pair -> lcm of its leads
    heap: list[tuple] = []

    def add(terms: dict[Monomial, int]) -> None:
        # terms is a remainder, so its first term is its lead
        lead = next(iter(terms))
        inv = inverse_mod(terms.pop(lead), p)
        elements.append((lead, 1, [(m, v * inv % p) for m, v in terms.items()]))
        for i, j, lcm in _update_pairs(elements, active, pairs):
            pairs[i, j] = lcm
            heapq.heappush(heap, (_grevlex_key(lcm), j, i))

    for g in gens:
        h = _reduce(dict(g.terms), [elements[i] for i in active], p, deadline)
        if h:
            add(h)
    while heap:
        _, j, i = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        _check(deadline)
        h = _reduce(_spoly_terms(elements[i], elements[j], p), [elements[k] for k in active], p, deadline)
        if h:
            add(h)
    basis = sorted((elements[i] for i in active), key=lambda r: _grevlex_key(r[0]), reverse=True)
    reduced = []
    for k, (lead, _, tail) in enumerate(basis):
        _check(deadline)
        reduced.append(Polynomial(p, nvars, {lead: 1, **_reduce(dict(tail), basis[:k] + basis[k + 1 :], p, deadline)}))
    return tuple(reduced)


def _update_pairs(
    elements: list[Reducer], active: list[int], pairs: dict[tuple[int, int], Monomial]
) -> list[tuple[int, int, Monomial]]:
    """Gebauer-Moller UPDATE for the newest element h: the pairs it adds.

    This is UPDATE of Becker-Weispfenning (1993).  A fresh pair (g, h) is
    dropped when the lcm of a fresh pair examined after it, or of one
    kept before it, divides its lcm (criterion M, and F for equal lcms);
    a pair with coprime leads is kept through that pass, to drop others,
    and left out of the result.  A pending pair (i, j) is deleted from
    ``pairs`` when lead(h) divides its lcm and neither lcm(lead(i),
    lead(h)) nor lcm(lead(j), lead(h)) equals it (criterion B).
    ``active`` loses the elements whose lead lead(h) divides and gains h.
    """
    h = len(elements) - 1
    t = elements[h][0]
    fresh = [(g, monomial_lcm(elements[g][0], t)) for g in active]
    kept: list[tuple[int, Monomial]] = []
    for k, (g, lcm) in enumerate(fresh):
        if monomial_coprime(elements[g][0], t) or not any(
            monomial_divides(other, lcm) for _, other in fresh[k + 1 :] + kept
        ):
            kept.append((g, lcm))
    for (i, j), lcm in list(pairs.items()):
        if (
            monomial_divides(t, lcm)
            and monomial_lcm(elements[i][0], t) != lcm
            and monomial_lcm(elements[j][0], t) != lcm
        ):
            del pairs[i, j]
    active[:] = [g for g in active if not monomial_divides(t, elements[g][0])] + [h]
    return [(g, h, lcm) for g, lcm in kept if not monomial_coprime(elements[g][0], t)]


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
    below = 0  # kept[:below] have lower degree than the monomial at hand
    degree = None
    # a proper divisor has lower degree, so it is kept before its multiples,
    # and distinct monomials of one degree never divide each other
    for m in sorted(set(monomials), key=sum):
        if sum(m) != degree:
            degree, below = sum(m), len(kept)
        if not any(monomial_divides(k, m) for k in kept[:below]):
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
        # dividing by x_i^k keeps the leads with m[i] > k pairwise
        # non-dividing (Bigatti 1997); the others lose x_i, so no lead
        # that keeps x_i divides them, and only they can divide one
        low = _minimal_monomials(m[:i] + (0,) + m[i + 1 :] for m in gens if m[i] <= k)
        high = (m[:i] + (m[i] - k,) + m[i + 1 :] for m in gens if m[i] > k)
        work.append(low + [m for m in high if not any(monomial_divides(b, m) for b in low)])
    return count
