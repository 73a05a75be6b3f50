"""Groebner bases, bracket powers, and quotient lengths."""

import math
import time

import pytest

from fsig.ideals import (
    Ideal,
    buchberger,
    frobenius_power,
    ideal_sum,
    normal_form,
    quotient_length,
    spoly,
)
from fsig.poly import parse_polynomial


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
