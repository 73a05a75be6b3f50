"""The Thom-Sebastiani engine against the rank route and brute-force types."""

import random
import time

import pytest

from fsig import frobenius
from fsig.frobenius import RingPresentation, fsig_sequence, splitting_number
from fsig.poly import Polynomial, parse_polynomial
from fsig.sebastiani import (
    block_product,
    free_count,
    monomial_type,
    separated_splitting_number,
)
from fsig.toric import quotient_singularity, toric_splitting_number

from _oracles import brute_jordan_product

XYZ = ("x", "y", "z")
X4 = ("x0", "x1", "x2", "x3")
QUADRIC = "x0^2 + x1^2 + x2^2 + x3^2"

# (f, names, p, e, a_e): every pinned a_e of a separated hypersurface
PINNED = [
    (QUADRIC, X4, 3, 1, 19),
    (QUADRIC, X4, 3, 2, 489),
    (QUADRIC, X4, 3, 3, 13131),
    ("x*y - z^2", XYZ, 3, 1, 5),
    ("x*y - z^2", XYZ, 3, 2, 41),
    ("x*y - z^2", XYZ, 3, 3, 365),
    ("x*y - z^2", XYZ, 5, 2, 313),
    ("x*y - z^3", XYZ, 5, 2, 209),
    ("x*y - z^4", XYZ, 5, 2, 157),
    ("x*y - z^2", XYZ, 7, 2, 1201),
    ("x*y - z^3", XYZ, 3, 4, 2187),
    ("x*y - z^4", XYZ, 3, 4, 1641),
    ("x^2 + y^3 + z^4", XYZ, 5, 3, 652),
    ("x^2 + y^3 + z^5", XYZ, 7, 2, 21),
    ("x^2 + y^3 + z^5", XYZ, 11, 2, 123),
]


def hypersurface(text, names, p):
    return RingPresentation.hypersurface(parse_polynomial(text, p, len(names), names=names), names)


def rank_route(ring, e):
    """a_e as the rank of multiplication by the twist f^(q-1)."""
    q, g, factors = frobenius._twist(ring, None, e)
    return frobenius._colon_length(ring, g, q, factors)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_block_product_matches_brute_types(p):
    for a in range(1, 13):
        for b in range(1, 13):
            assert block_product(a, b, p) == brute_jordan_product(a, b, p), (a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_free_summands_of_a_product(p):
    # J_a (x) J_b with a, b <= q = p^e holds max(0, a + b - q) blocks of size q
    q = p
    while q <= 12:
        for a in range(1, q + 1):
            for b in range(1, q + 1):
                assert brute_jordan_product(a, b, p).get(q, 0) == max(0, a + b - q)
                assert free_count({a: 1}, {b: 1}, q) == max(0, a + b - q)
        q *= p


def test_free_count_sums_over_types():
    left, right, q = {1: 2, 3: 5, 4: 1}, {2: 3, 4: 7}, 4
    expected = sum(m * n * brute_jordan_product(a, b, 2).get(q, 0)
                   for a, m in left.items() for b, n in right.items())
    assert free_count(left, right, q) == expected == 168


def test_monomial_type_of_xy_has_one_chain_per_diagonal():
    # x*y on k[x, y]/(x^q, y^q): the chain through x^i y^j has size q - |i - j|
    q = 9
    assert monomial_type((1, 1, 0), q) == {size: 2 for size in range(1, q)} | {q: 1}
    assert monomial_type((2,), 9) == {4: 1, 5: 1}


@pytest.mark.parametrize("text, names, p, e, a_e", PINNED)
def test_engine_reproduces_pins_and_the_rank_route(text, names, p, e, a_e):
    ring = hypersurface(text, names, p)
    assert separated_splitting_number(ring.f, p**e) == a_e
    assert splitting_number(ring, e=e) == a_e
    assert rank_route(ring, e) == a_e


def test_engine_matches_rank_route_on_random_separated_f():
    rng = random.Random(20260)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        nvars = rng.randint(2, 4)
        order = list(range(nvars))
        rng.shuffle(order)
        terms, start = {}, 0
        while start < nvars:
            width = rng.randint(1, nvars - start)
            exps = [0] * nvars
            for i in order[start : start + width]:
                exps[i] = rng.randint(1, 3)
            start += width
            if rng.random() < 0.85 or not terms:
                terms[tuple(exps)] = rng.randrange(1, p)
        ring = RingPresentation.hypersurface(Polynomial(p, nvars, terms))
        for e in (1, 2):
            assert separated_splitting_number(ring.f, p**e) == rank_route(ring, e), (terms, p, e)


@pytest.mark.parametrize("p, n", [(3, 2), (3, 4), (3, 5), (2, 3), (2, 5)])
def test_a_n_surfaces_match_window_counts(p, n):
    # x*y - z^n is the quotient 1/n(1, n-1) when p does not divide n
    ring = hypersurface(f"x*y - z^{n}", XYZ, p)
    model = quotient_singularity(n, (1, n - 1), p)
    for e in range(1, 7):
        assert splitting_number(ring, e=e) == toric_splitting_number(model, None, e)


def test_engine_reaches_past_the_box_cap():
    assert splitting_number(hypersurface(QUADRIC, X4, 3), e=4) == (2 * 81**3 + 81) // 3 == 354321
    assert splitting_number(hypersurface("x^2 + y^3 + z^5", XYZ, 7), e=3) == 982


@pytest.mark.parametrize("text", ["x*y - z^2 + x*z", "x*y + y*z + z*x", "x*y - z^2 + 1"])
def test_engine_declines_f_that_is_not_separated(text):
    assert separated_splitting_number(parse_polynomial(text, 3, 3, names=XYZ), 9) is None


def test_engine_stops_past_deadline():
    ring = hypersurface(QUADRIC, X4, 3)
    with pytest.raises(TimeoutError, match="during a tensor product"):
        splitting_number(ring, e=3, deadline=time.monotonic() - 1)


def test_engine_refuses_a_huge_q_before_any_loop():
    ring = hypersurface("x*y - z^2", XYZ, 3)
    started = time.monotonic()
    with pytest.raises(ValueError, match="too large for the separated engine"):
        splitting_number(ring, e=40)
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("text, names, e", [
    (QUADRIC, X4, 8),  # J_3281 (x) J_3281 alone is past the cell cap
    ("x0*x1 + x2*x3 + x4*x5", X4 + ("x4", "x5"), 9),  # 19683^2 pairs of sizes
])
def test_engine_refuses_large_products_before_their_loop(text, names, e):
    ring = hypersurface(text, names, 3)
    started = time.monotonic()
    with pytest.raises(ValueError, match="tensor products are too large"):
        splitting_number(ring, e=e)
    assert time.monotonic() - started < 2


def test_a_pair_keeps_the_rank_route(monkeypatch):
    ring = hypersurface("x*y - z^2", XYZ, 3)
    delta = frobenius.PairDivisor.of([(parse_polynomial("x + z", 3, 3, names=XYZ), "1/3")])
    monkeypatch.setattr(frobenius, "separated_splitting_number", None)
    assert [r.a_e for r in fsig_sequence(ring, delta, e_max=3).records] == [2, 18, 162]
