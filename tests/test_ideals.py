"""Groebner bases, bracket powers, and quotient lengths."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from fsig import ideals
from fsig.frobenius import PairDivisor, RingPresentation, _twist
from fsig.ideals import (
    Ideal,
    _count_standard_monomials,
    buchberger,
    frobenius_power,
    ideal_sum,
    normal_form,
    quotient_length,
)
from fsig.poly import Polynomial, parse_polynomial

from _oracles import _plain_spoly, brute_standard_monomial_count, contains, plain_buchberger


def poly(text, p=5, nvars=3, names=("x", "y", "z")):
    return parse_polynomial(text, p, nvars, names=names)


def test_buchberger_closes_under_spolys():
    gens = [poly("x^2 + y"), poly("x*y + z")]
    basis = buchberger(gens)
    for i, f in enumerate(basis):
        for g in basis[i + 1 :]:
            assert normal_form(_plain_spoly(f, g), basis).is_zero()


def test_reduced_basis_is_canonical():
    # Same ideal, two generator orders: reduced bases must coincide.
    a = buchberger([poly("x^2 + y"), poly("x*y + z")])
    b = buchberger([poly("x*y + z"), poly("x^2 + y")])
    assert set(a) == set(b)
    for f in a:
        assert f.leading_term()[1] == 1


def test_ideal_membership():
    ideal = Ideal(5, 3, [poly("x^2 - y"), poly("y^2 - z")])
    assert contains(ideal, poly("x^4 - z"))
    assert not contains(ideal, poly("x - 1"))


def test_frobenius_power_of_nonmonomial():
    # (x + y)^[q] = (x^q + y^q), not (x + y)^q.
    ideal = Ideal(3, 2, [parse_polynomial("x0 + x1", 3, 2)])
    bracket = frobenius_power(ideal, 9)
    assert contains(bracket, parse_polynomial("x0^9 + x1^9", 3, 2))
    assert not contains(bracket, parse_polynomial("(x0 + x1)^6", 3, 2))


def test_bracket_maximal_length():
    q = 4
    ideal = Ideal.bracket_maximal(2, 3, q)
    assert quotient_length(ideal) == q**3


def test_quotient_length_infinite():
    ideal = Ideal(5, 2, [parse_polynomial("x0", 5, 2)])
    assert quotient_length(ideal) == math.inf


def test_quotient_length_nontrivial():
    # k[x,y]/(x^2, xy, y^3): basis 1, x, y, y^2.
    ideal = Ideal(5, 2, [
        parse_polynomial("x0^2", 5, 2),
        parse_polynomial("x0*x1", 5, 2),
        parse_polynomial("x1^3", 5, 2),
    ])
    assert quotient_length(ideal) == 4


def test_quotient_length_field():
    ideal = Ideal(5, 2, [parse_polynomial("x0", 5, 2), parse_polynomial("x1", 5, 2)])
    assert quotient_length(ideal) == 1


def test_ideal_sum_contains_both():
    left = Ideal(5, 2, [parse_polynomial("x0^2", 5, 2)])
    right = Ideal(5, 2, [parse_polynomial("x1^2", 5, 2)])
    total = ideal_sum(left, right)
    assert contains(total, parse_polynomial("x0^2 + x1^2", 5, 2))
    assert quotient_length(total) == 4


def test_colon_with_bracket_power_matches_brute_force():
    # 0 -> P/(m^[q] : g) -> P/m^[q] -> P/(m^[q], g) -> 0 is exact
    from _oracles import brute_colon_complement_length

    p, q = 3, 3
    f = poly("x*y - z^2", p=3)
    g = f ** (q - 1)
    total = ideal_sum(Ideal.bracket_maximal(p, 3, q), Ideal(p, 3, [g]))
    assert q**3 - quotient_length(total) == brute_colon_complement_length(g, q) == 5


def test_buchberger_stops_past_deadline():
    with pytest.raises(TimeoutError, match="during a Groebner basis"):
        buchberger([poly("x^2 - y"), poly("x*y - z")], deadline=time.monotonic() - 1)


class _Clock:
    """Stands in for the ``time`` module of ``fsig.ideals``: a clock that never moves, and its reads."""

    def __init__(self):
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return 100.0


def test_buchberger_checks_the_deadline_outside_the_pair_loop(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(ideals, "time", clock)
    # coprime leads queue no S-pair; only the interreduction, x^5 + y^3 -> x^5 - z^2, is left
    with pytest.raises(TimeoutError, match="during a Groebner basis"):
        buchberger([poly("x^5 + y^3"), poly("y^3 + z^2")], deadline=99.0)
    # one long reduction, (1 + x + y + z)^40 by x - y, and again no S-pair
    gens = [poly("x - y", p=7), poly("(1 + x + y + z)^40", p=7)]
    with pytest.raises(TimeoutError, match="during a Groebner basis"):
        buchberger(gens, deadline=99.0)
    clock.reads = 0
    basis = buchberger(gens, deadline=101.0)
    # more reads than the interreduction's one per element: the reduction reads the clock
    assert clock.reads > 2 * len(basis)


COLON_TWISTS = [
    # hyper-mixed's colon requests, unscaled
    ("x*y - z^2", 3, (), 2), ("x*y - z^3", 5, (), 2), ("x*y - z^2", 3, (("x + z", "1/3"),), 2),
    # criterion 7's A_1 and A_2 at p in {3, 5}
    *[(f"x*y - z^{n}", p, (), e) for n in (2, 3) for p in (3, 5) for e in (1, 2)],
]


@pytest.mark.parametrize("f, p, pair, e", COLON_TWISTS)
def test_buchberger_matches_plain_buchberger_on_colon_twists(f, p, pair, e):
    ring = RingPresentation.hypersurface(poly(f, p=p), names=("x", "y", "z"))
    delta = PairDivisor.of([(poly(g, p=p), Fraction(t)) for g, t in pair]) if pair else None
    q, g, _ = _twist(ring, delta, e)
    gens = ideal_sum(Ideal.bracket_maximal(p, 3, q), Ideal(p, 3, [g])).generators
    assert buchberger(gens) == plain_buchberger(gens)


def test_buchberger_matches_plain_buchberger_on_random_ideals():
    # zero-dimensional: a pure power of every variable, then random polynomials
    rng = random.Random(20261021)
    sizes = []
    for _ in range(240):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(2, 3)
        gens = [Polynomial.monomial(tuple(rng.randint(1, 6) if j == i else 0 for j in range(n)), p) for i in range(n)]
        for _ in range(rng.randint(1, 3)):
            terms = {tuple(rng.randint(0, 5) for _ in range(n)): rng.randrange(1, p) for _ in range(rng.randint(1, 4))}
            gens.append(Polynomial(p, n, terms))
        rng.shuffle(gens)
        basis = buchberger(gens)
        assert basis == plain_buchberger(gens), gens
        sizes.append(len(basis))
    assert min(sizes) == 1 and max(sizes) > 8, sizes


@pytest.mark.parametrize("p, nvars, gens", [
    # the smallest ideals a seeded random search found where criterion B
    # without its second equality test (a pending pair goes although
    # lcm(lead(j), lead(h)) equals its lcm) changes the basis
    (5, 3, ["x^5*y*z^4", "4*x^2*y*z^2", "x^5", "z^6", "x^4*y^4 + 2*x^5*y + 2*y^2*z^3 + 3*x^2*z^2", "y^6"]),
    (2, 2, ["x^4*y^3 + x^3*y^4 + x^5 + x^2*y^3 + x^2*y^2", "x^4*y^5 + x^5*y^3", "y^6", "x^6"]),
    # ... and where dropping both of two fresh pairs with equal lcm does
    (3, 3, ["x^4", "y^6", "2*x^4*y^2*z^4 + 2*x*y^2*z^4 + 2*x^3*y^2*z + 2*y^3*z^2 + y^3*z", "z^6"]),
    (2, 3, ["y^6", "x^6", "x^2*y^3*z^3 + x*y^3*z^3 + x^5*y + x*z^3 + y*z^2", "z^6",
            "x^5*z^5 + x^4*y^4*z + x^4*y + x*y^3*z + x^3*y"]),
])
def test_buchberger_matches_plain_buchberger_where_a_looser_criterion_fails(p, nvars, gens):
    gens = [poly(g, p=p, nvars=nvars, names=("x", "y", "z")[:nvars]) for g in gens]
    assert buchberger(gens) == plain_buchberger(gens)


def test_standard_monomial_count_stops_past_deadline():
    # the basis is cached first, so only the count can see the deadline
    ideal = ideal_sum(Ideal.bracket_maximal(3, 3, 9), Ideal(3, 3, [poly("x*y - z^2", p=3) ** 8]))
    ideal.groebner()
    with pytest.raises(TimeoutError, match="counting standard monomials"):
        quotient_length(ideal, deadline=time.monotonic() - 1)
    assert quotient_length(ideal) == 9**3 - 41


def test_standard_monomial_count_matches_brute_force():
    # Raw lead sets, as the count takes them before any minimalization:
    # duplicates, non-minimal leads, leads past a cap and the unit lead.
    rng = random.Random(20261019)
    kinds = {"duplicate": 0, "non-minimal": 0, "past a cap": 0, "unit": 0, "zero": 0}
    for _ in range(400):
        n = rng.randint(1, 4)
        caps = tuple(rng.randint(1, 9) for _ in range(n))
        leads = [tuple(c if j == i else 0 for j in range(n)) for i, c in enumerate(caps)]
        leads += [tuple(rng.randint(0, c + 1) for c in caps) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.3:
            m = rng.choice(leads)
            leads.append(tuple(e + rng.randint(0, 2) for e in m))
        if rng.random() < 0.3:
            leads.append(rng.choice(leads))
        if rng.random() < 0.05:
            leads.append((0,) * n)
        rng.shuffle(leads)
        expected = brute_standard_monomial_count(leads, caps)
        assert _count_standard_monomials(leads, n, None) == expected, (leads, caps)
        kinds["duplicate"] += len(set(leads)) < len(leads)
        kinds["non-minimal"] += any(a != b and all(x <= y for x, y in zip(a, b)) for a in leads for b in leads)
        kinds["past a cap"] += any(m[i] >= c for m in leads for i, c in enumerate(caps) if any(m[:i] + m[i + 1 :]))
        kinds["unit"] += (0,) * n in leads
        kinds["zero"] += expected == 0
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("leads, expected", [
    # the lead sets of the colon route and of the Hilbert-Kunz lengths at
    # (x + y, y - z, z) that a pass of the hyper-mixed benchmark counts
    ([(0, 0, 25), (0, 25, 0), (16, 16, 24), (17, 17, 22), (25, 0, 0)], 15416),  # x*y - z^3, p=5, e=2
    ([(0, 0, 9), (0, 9, 0), (4, 8, 8), (5, 8, 6), (6, 8, 4), (7, 8, 2), (8, 4, 8), (8, 5, 6),
      (8, 6, 4), (8, 7, 2), (8, 8, 0), (9, 0, 0)], 688),  # x*y - z^2, p=3, e=2
    ([(0, 0, 9), (0, 9, 0), (6, 8, 7), (7, 8, 5), (8, 6, 7), (8, 7, 5), (8, 8, 3), (9, 0, 0)],
     711),  # x*y - z^2 with the pair (x + z, 1/3), p=3, e=2
    ([(0, 0, 9), (0, 5, 8), (0, 6, 6), (0, 7, 4), (0, 8, 2), (0, 9, 0), (1, 1, 0), (5, 0, 8),
      (6, 0, 6), (7, 0, 4), (8, 0, 2), (9, 0, 0)], 121),  # HK, e=2
    ([(0, 0, 3), (0, 2, 2), (0, 3, 0), (1, 1, 0), (2, 0, 2), (3, 0, 0)], 13),  # HK, e=1
])
def test_standard_monomial_count_of_benchmark_lead_sets(leads, expected):
    caps = tuple(max(m[i] for m in leads) for i in range(3))
    assert brute_standard_monomial_count(leads, caps) == expected
    assert _count_standard_monomials(leads, 3, None) == expected


def test_standard_monomial_count_of_random_staircases():
    # up to 40 raw leads on caps up to 14, so the colon branches split them many times over
    rng = random.Random(20261022)
    for _ in range(60):
        n = rng.randint(2, 3)
        caps = tuple(rng.randint(4, 14) for _ in range(n))
        leads = [tuple(c if j == i else 0 for j in range(n)) for i, c in enumerate(caps)]
        leads += [tuple(rng.randint(0, c - 1) for c in caps) for _ in range(rng.randint(5, 40))]
        assert _count_standard_monomials(leads, n, None) == brute_standard_monomial_count(leads, caps), leads


def test_standard_monomial_count_of_a_long_staircase():
    # (x, y)^2000: 2,001 leads of one degree, C(2001, 2) standard monomials
    leads = [(a, 2000 - a) for a in range(2001)]
    start = time.monotonic()
    assert _count_standard_monomials(leads, 2, None) == 2_001_000
    assert time.monotonic() - start < 1.0


def test_standard_monomial_count_of_a_maximal_ideal_power():
    # S/m^N has the monomials of degree below N: C(N + n - 1, n) of them.
    for n, top in [(1, 7), (2, 40), (3, 12), (4, 6)]:
        leads = [m for m in itertools.product(range(top + 1), repeat=n) if sum(m) == top]
        assert _count_standard_monomials(leads, n, None) == math.comb(top + n - 1, n)
    assert _count_standard_monomials([(2, 0), (1, 1)], 2, None) == math.inf
    assert _count_standard_monomials([], 2, None) == math.inf
    assert _count_standard_monomials([], 0, None) == 1
