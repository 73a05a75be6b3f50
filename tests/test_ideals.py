"""Groebner bases, bracket powers, and quotient lengths."""

import itertools
import math
import random
import time

import pytest

from fsig.ideals import (
    Ideal,
    _count_standard_monomials,
    buchberger,
    frobenius_power,
    ideal_sum,
    normal_form,
    quotient_length,
    spoly,
)
from fsig.poly import parse_polynomial

from _oracles import brute_standard_monomial_count


def poly(text, p=5, nvars=3, names=("x", "y", "z")):
    return parse_polynomial(text, p, nvars, names=names)


def test_spoly_cancels_leading_terms():
    f = poly("x^2*y - 1")
    g = poly("x*y^2 - x")
    s = spoly(f, g)
    lead_lcm = (2, 2, 0)
    assert all(m != lead_lcm for m in s.terms)


def test_buchberger_closes_under_spolys():
    gens = [poly("x^2 + y"), poly("x*y + z")]
    basis = buchberger(gens)
    for i, f in enumerate(basis):
        for g in basis[i + 1 :]:
            assert normal_form(spoly(f, g), basis).is_zero()


def test_reduced_basis_is_canonical():
    # Same ideal, two generator orders: reduced bases must coincide.
    a = buchberger([poly("x^2 + y"), poly("x*y + z")])
    b = buchberger([poly("x*y + z"), poly("x^2 + y")])
    assert set(a) == set(b)
    for f in a:
        assert f.leading_coefficient() == 1


def test_ideal_membership():
    ideal = Ideal(5, 3, [poly("x^2 - y"), poly("y^2 - z")])
    assert ideal.contains(poly("x^4 - z"))
    assert not ideal.contains(poly("x - 1"))


def test_frobenius_power_of_nonmonomial():
    # (x + y)^[q] = (x^q + y^q), not (x + y)^q.
    ideal = Ideal(3, 2, [parse_polynomial("x0 + x1", 3, 2)])
    bracket = frobenius_power(ideal, 9)
    assert bracket.contains(parse_polynomial("x0^9 + x1^9", 3, 2))
    assert not bracket.contains(parse_polynomial("(x0 + x1)^6", 3, 2))


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
    assert total.contains(parse_polynomial("x0^2 + x1^2", 5, 2))
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


def test_standard_monomial_count_of_a_maximal_ideal_power():
    # S/m^N has the monomials of degree below N: C(N + n - 1, n) of them.
    for n, top in [(1, 7), (2, 40), (3, 12), (4, 6)]:
        leads = [m for m in itertools.product(range(top + 1), repeat=n) if sum(m) == top]
        assert _count_standard_monomials(leads, n, None) == math.comb(top + n - 1, n)
    assert _count_standard_monomials([(2, 0), (1, 1)], 2, None) == math.inf
    assert _count_standard_monomials([], 2, None) == math.inf
    assert _count_standard_monomials([], 0, None) == 1
