"""Polynomial arithmetic, the grevlex order, and the parser."""

import random

import pytest

from fsig.poly import (
    ParseError,
    Polynomial,
    default_names,
    format_polynomial,
    monomial_divides,
    monomial_lcm,
    parse_polynomial,
)

from _oracles import iter_box_monomials


def test_terms_are_reduced_and_sparse():
    # 3 + 2 = 5 = 0 mod 5: the x0 term must vanish entirely.
    f = parse_polynomial("3*x0 + 2*x0 + x1", 5, 2)
    assert f == parse_polynomial("x1", 5, 2)
    assert (0, 1) in f.terms
    assert (1, 0) not in f.terms


def test_arithmetic_mod_p():
    p = 7
    f = parse_polynomial("x^2 + 3*y", p, 2, names=("x", "y"))
    g = parse_polynomial("4*y + x^2", p, 2, names=("x", "y"))
    assert f + g == parse_polynomial("2*x^2", p, 2, names=("x", "y"))
    assert f - f == Polynomial.zero(p, 2)
    assert -f + f == Polynomial.zero(p, 2)
    product = parse_polynomial("x + y", p, 2, names=("x", "y")) * parse_polynomial(
        "x - y", p, 2, names=("x", "y")
    )
    assert product == parse_polynomial("x^2 - y^2", p, 2, names=("x", "y"))


def test_freshman_dream():
    p = 5
    f = parse_polynomial("x + 2*y + z", p, 3, names=("x", "y", "z"))
    lhs = f**p
    rhs = parse_polynomial("x^5 + 2^5*y^5 + z^5", p, 3, names=("x", "y", "z"))
    assert lhs == rhs


def test_pow_matches_repeated_multiplication():
    # k = q - 1 has every base-p digit p - 1; the other k mix digits,
    # zeros included, and k < p has a single one.
    rng = random.Random(7)
    cases = [(parse_polynomial("x0*x1 - x2^2", 3, 3), 6)]
    for p in (2, 3, 5, 7):
        for _ in range(6):
            nvars = rng.randint(1, 3)
            terms = {
                tuple(rng.randint(0, 2) for _ in range(nvars)): rng.randrange(1, p)
                for _ in range(rng.randint(2, 5))
            }
            f = Polynomial(p, nvars, terms)
            cases += [(f, k) for k in (p - 1, p * p - 1, p, p * p + 1, rng.randint(2, 20))]
    for f, k in cases:
        acc = Polynomial.one(f.p, f.nvars)
        for _ in range(k):
            acc = acc * f
        assert f**k == acc, (f, k)


def test_monomial_helpers():
    assert monomial_divides((1, 0, 2), (3, 0, 2))
    assert not monomial_divides((1, 1, 0), (3, 0, 2))
    assert monomial_lcm((1, 0, 2), (0, 3, 1)) == (1, 3, 2)


def test_grevlex_vs_lex_leading_monomial():
    # x*y^2 vs x^2: grevlex compares total degree first, where lex would
    # take the larger first exponent.
    f = parse_polynomial("x*y^2 + x^2", 5, 2, names=("x", "y"))
    assert f.leading_monomial() == (1, 2)


def test_grevlex_tiebreak_reverse_last():
    # Equal total degree: grevlex prefers the SMALLER last exponent.
    f = parse_polynomial("x*z + y^2", 5, 3, names=("x", "y", "z"))
    assert f.leading_monomial() == (0, 2, 0)


def test_weighted_homogeneity():
    f = parse_polynomial("x*y - z^2", 7, 3, names=("x", "y", "z"))
    assert f.is_homogeneous()
    assert f.is_homogeneous(weights=(1, 3, 2))
    assert f.weighted_degree((1, 3, 2)) == 4
    assert not parse_polynomial("x + x*y", 7, 3, names=("x", "y", "z")).is_homogeneous()


def test_parser_default_names():
    f = parse_polynomial("x0^2 + x1*x2", 3, 3)
    assert set(f.support()) == {(2, 0, 0), (0, 1, 1)}
    assert default_names(3) == ("x0", "x1", "x2")


def test_parser_rejects_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_polynomial("x*y", 3, 2)


def test_parser_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0 + @", 3, 2)
    assert "position" in str(err.value) or "@" in str(err.value)


def test_parser_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_polynomial("x0 + x1)", 3, 2)


def test_parser_parentheses_and_constants():
    f = parse_polynomial("(x + y)^2 - 2*x*y", 5, 2, names=("x", "y"))
    assert f == parse_polynomial("x^2 + y^2", 5, 2, names=("x", "y"))
    assert parse_polynomial("7", 5, 1) == Polynomial.constant(2, 5, 1)


def test_parser_nesting_depth():
    x = parse_polynomial("x", 3, 1, names=("x",))
    assert parse_polynomial("(" * 100 + "x" + ")" * 100, 3, 1, names=("x",)) == x
    with pytest.raises(ParseError, match="nested deeper than 100") as err:
        parse_polynomial("(" * 101 + "x" + ")" * 101, 3, 1, names=("x",))
    assert err.value.position == 100


def test_parser_unary_minus():
    f = parse_polynomial("-x^2 - 3", 7, 1, names=("x",))
    assert f == parse_polynomial("6*x^2 + 4", 7, 1, names=("x",))


def test_format_round_trip():
    for text in ("x0^2 + 2*x1", "x0*x1*x2", "3", "x2^5 + x0 + 1"):
        f = parse_polynomial(text, 7, 3)
        assert parse_polynomial(format_polynomial(f), 7, 3) == f


def test_format_zero():
    assert format_polynomial(Polynomial.zero(3, 2)) == "0"


def test_iter_box_monomials_count_and_bounds():
    caps = (2, 3, 1)
    mons = list(iter_box_monomials(caps))
    assert len(mons) == 2 * 3 * 1
    assert len(set(mons)) == len(mons)
    assert all(all(0 <= e < c for e, c in zip(m, caps)) for m in mons)


def test_exponent_overflow_guard():
    f = parse_polynomial("x0 + x1", 3, 2)
    with pytest.raises(OverflowError):
        f ** (2**31)
