"""Randomized property checks over small, fast domains."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fsig.frobenius import CEIL_PE_MINUS_1, PairDivisor
from fsig.ideals import buchberger, normal_form
from fsig.poly import Polynomial, format_polynomial, parse_polynomial
from fsig.sebastiani import block_product
from fsig.toric import quotient_singularity, toric_fsig_exact, toric_splitting_number

from _oracles import _plain_spoly, han_block_product, invariant_monomial_count

SMALL_PRIMES = (2, 3, 5, 7)


@st.composite
def polynomials(draw, p=5, nvars=3, max_terms=5, max_exp=4):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        m = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        c = draw(st.integers(1, p - 1))
        terms[m] = c
    return Polynomial(p, nvars, terms)


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_printer_parser_round_trip(f):
    assert parse_polynomial(format_polynomial(f), f.p, f.nvars) == f


@given(polynomials(p=3), polynomials(p=3))
@settings(max_examples=40, deadline=None)
def test_multiplication_commutes(f, g):
    assert f * g == g * f


@given(polynomials(p=7, max_terms=3, max_exp=3))
@settings(max_examples=30, deadline=None)
def test_frobenius_is_additive(f):
    # (f + g)^p = f^p + g^p termwise in characteristic p.
    g = Polynomial.variable(0, 7, 3)
    assert (f + g) ** 7 == f**7 + g**7


@given(st.integers(1, 2000), st.integers(1, 2000), st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
@settings(max_examples=60, deadline=None)
def test_block_product_is_the_type_of_the_tensor_product(a, b, p):
    # J_a (x) J_b has dimension ab and min(a, b) blocks, and its type is
    # symmetric in a and b and equals the one from Han's ranks
    jordan = block_product(a, b, p)
    assert sum(size * n for size, n in jordan.items()) == a * b
    assert sum(jordan.values()) == min(a, b)
    assert block_product(b, a, p) == jordan
    assert han_block_product(a, b, p) == jordan


@given(
    st.fractions(min_value=0, max_value=1).filter(lambda t: 0 <= t < 1),
    st.sampled_from(SMALL_PRIMES),
    st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_rounding_inequality_everywhere(t, p, e):
    # floor(q t) <= ceil((q-1) t), with equality forced when (q-1)t is whole.
    if t.denominator > 64:
        t = Fraction(t.numerator % t.denominator, t.denominator)
    x = Polynomial.variable(0, p, 1)
    q = p**e
    [lo] = PairDivisor.of([(x, t)]).exponents(q)
    [hi] = PairDivisor.of([(x, t)], CEIL_PE_MINUS_1).exponents(q)
    assert lo <= hi
    assert lo == hi or ((q - 1) * t).denominator > 1


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_groebner_idempotent(exponents):
    gens = [
        Polynomial(5, 2, {m: 1, (0, 0): 4}) if sum(m) else Polynomial.one(5, 2)
        for m in exponents
    ]
    basis = buchberger(gens)
    again = buchberger(basis)
    assert set(basis) == set(again)


@given(polynomials(p=5, nvars=2, max_terms=3, max_exp=3),
       polynomials(p=5, nvars=2, max_terms=3, max_exp=3))
@settings(max_examples=25, deadline=None)
def test_normal_form_is_zero_for_members(f, g):
    basis = buchberger([f, g])
    assert normal_form(_plain_spoly(f, g), basis).is_zero()
    product = f * g
    assert normal_form(product, basis).is_zero()


def test_window_count_equals_congruence_count_random():
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randint(2, 8)
        a = rng.choice([w for w in range(1, n) if _coprime(w, n)])
        b = rng.choice([w for w in range(1, n) if _coprime(w, n)])
        p = rng.choice([q for q in SMALL_PRIMES if n % q])
        ring = quotient_singularity(n, (a, b), p)
        e = 1 if p >= 5 else 2
        q = p**e
        assert toric_splitting_number(ring, None, e) == invariant_monomial_count(
            n, (a, b), q
        ), (n, a, b, p)


def test_exact_signature_matches_window_scaling_random():
    rng = random.Random(19)
    for _ in range(8):
        n = rng.randint(2, 6)
        weights = (1, rng.choice([w for w in range(1, n) if _coprime(w, n)]))
        p = rng.choice([q for q in (5, 7, 11) if n % q])
        ring = quotient_singularity(n, weights, p)
        s = toric_fsig_exact(ring)
        q = p**2
        window = Fraction(toric_splitting_number(ring, None, 2), q**2)
        assert abs(window - s) <= Fraction(2, q)


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1
