"""The Thom-Sebastiani engine against the rank route and brute-force types."""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from fsig import frobenius
from fsig.frobenius import RingPresentation, fsig_sequence, hk_length_sequence, splitting_number
from fsig.ideals import Ideal, quotient_length
from fsig.field import rank_mod_p_reference
from fsig.linalg import find_positive_weights, multiplication_rank
from fsig.poly import Polynomial, parse_polynomial
from fsig.sebastiani import (
    _separated_support,
    block_count,
    block_product,
    diagonal_form,
    free_count,
    monomial_type,
    separated_colength,
    separated_splitting_number,
)
from fsig.toric import TorusQDivisor, quotient_singularity, toric_splitting_number

from _oracles import (
    brute_block_matrix,
    brute_det,
    brute_jordan_product,
    elimination_block_product,
    elimination_diagonal_form,
    han_block_product,
    han_colength,
    iter_box_monomials,
)

XYZ = ("x", "y", "z")
X4 = ("x0", "x1", "x2", "x3")
QUADRIC = "x0^2 + x1^2 + x2^2 + x3^2"
# (x + z^2)(y + z^2) - z^4: neither separated nor quadratic, so the engine declines it
NOT_SEPARATED = "x*y + x*z^2 + y*z^2"

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


def random_separated(rng, p, nvars, nterms):
    """f with nterms terms in disjoint variables and unit coefficients.

    Each term takes at least one variable, exponents 1..3; a variable left
    over joins a random term or, half the time, stays out of f.
    """
    order = list(range(nvars))
    rng.shuffle(order)
    supports = [[i] for i in order[:nterms]]
    for i in order[nterms:]:
        if rng.random() < 0.5:
            rng.choice(supports).append(i)
    terms = {}
    for support in supports:
        exps = [0] * nvars
        for i in support:
            exps[i] = rng.randint(1, 3)
        terms[tuple(exps)] = rng.randrange(1, p)
    return Polynomial(p, nvars, terms)


def rank_route_hk(monkeypatch, ring, ideal, e_max):
    """hk_length_sequence with the engine declining, so the box goes through the rank."""
    with monkeypatch.context() as patch:
        patch.setattr(frobenius, "separated_colength", lambda f, caps, deadline=None: None)
        return hk_length_sequence(ring, ideal, e_max)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_block_product_matches_brute_types(p):
    for a in range(1, 13):
        for b in range(1, 13):
            assert block_product(a, b, p) == brute_jordan_product(a, b, p), (a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_block_product_matches_the_elimination(p):
    for a in range(1, 41):
        for b in range(1, a + 1):
            jordan = elimination_block_product(a, b, p)
            assert block_product(a, b, p) == block_product(b, a, p) == jordan, (a, b)


def test_block_product_matches_the_elimination_on_seeded_pairs():
    rng = random.Random(18)
    for _ in range(30):
        p, a, b = rng.choice([2, 3, 5, 7, 11, 13]), rng.randint(1, 400), rng.randint(1, 400)
        assert block_product(a, b, p) == elimination_block_product(a, b, p), (a, b, p)


def _first_rule(a, b, p):
    """The rule that ``block_product``'s recursion takes first on (a, b)."""
    r, s = sorted((a, b))
    m = p
    while m < r:
        m *= p
    if r <= 1:
        return "J_0 or J_1"
    if s >= m:
        return "lift"
    if r + s > m:
        return "Heller"
    if m == p:
        return "top digit, M = 1"
    return "top digit, b <= d" if r % (m // p) <= s % (m // p) else "top digit, b > d"


def test_block_product_matches_han_ranks():
    # every pair up to 60 at small p, and seeded pairs up to 700 at p <= 23
    cases = [(a, b, p) for p in (2, 3, 5, 7, 11, 13) for a in range(1, 61) for b in range(1, 61)]
    rng = random.Random(24)
    cases += [(rng.randint(1, 700), rng.randint(1, 700), rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23]))
              for _ in range(300)]
    for a, b, p in cases:
        assert block_product(a, b, p) == han_block_product(a, b, p), (a, b, p)
    rules = Counter(_first_rule(*case) for case in cases)
    for rule in ("lift", "Heller", "top digit, M = 1", "top digit, b <= d", "top digit, b > d"):
        assert rules[rule] >= 20, rules


@pytest.mark.parametrize("p", [2, 3, 5])
def test_han_colength_matches_the_groebner_length(p):
    # c up to 12 > a + b puts the triangle violations (x+y)^c = 0 and c <= |a - b| in range
    names = ("x", "y")
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 13):
                gens = [parse_polynomial(t, p, 2, names=names) for t in (f"x^{a}", f"y^{b}", f"(x + y)^{c}")]
                assert han_colength(a, b, c, p) == quotient_length(Ideal(p, 2, gens)), (a, b, c)


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


def test_block_count_sums_min_over_types():
    left, right = {1: 2, 3: 5, 4: 1}, {2: 3, 4: 7, 6: 1}
    expected = sum(m * n * min(a, b) for a, m in left.items() for b, n in right.items())
    assert block_count(left, right) == expected == 210
    for a in range(1, 9):
        for b in range(1, 9):
            assert block_count({a: 1}, {b: 1}) == sum(brute_jordan_product(a, b, 3).values()) == min(a, b)


def test_monomial_type_with_per_variable_caps_matches_brute_ranks():
    # rank of (x^m)^k on the box is sum over blocks of max(0, size - k)
    rng = random.Random(7)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        m = tuple(rng.randint(1, 3) for _ in range(nvars))
        caps = tuple(rng.randint(1, 6) for _ in range(nvars))
        jordan = monomial_type(m, caps)
        assert sum(size * n for size, n in jordan.items()) == math.prod(caps)
        box = list(iter_box_monomials(caps))
        for k in range(1, max(caps) + 1):
            power = Polynomial.monomial(tuple(k * e for e in m), 2)
            brute = rank_mod_p_reference(brute_block_matrix(power, caps, box, box), 2)
            assert brute == sum(n * max(0, size - k) for size, n in jordan.items()), (m, caps, k)


def test_monomial_type_of_xy_has_one_chain_per_diagonal():
    # x*y on k[x, y]/(x^q, y^q): the chain through x^i y^j has size q - |i - j|
    q = 9
    assert monomial_type((1, 1, 0), (q, q, q)) == {size: 2 for size in range(1, q)} | {q: 1}
    assert monomial_type((2,), (9,)) == {4: 1, 5: 1}


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
    quadric = hypersurface(QUADRIC, X4, 3)
    assert splitting_number(quadric, e=4) == (2 * 81**3 + 81) // 3 == 354321
    assert splitting_number(quadric, e=8) == (2 * 6561**3 + 6561) // 3 == 188286359841
    e8 = hypersurface("x^2 + y^3 + z^5", XYZ, 7)
    assert [splitting_number(e8, e=e) for e in (3, 4)] == [982, 48041]


@pytest.mark.parametrize("text", [NOT_SEPARATED, "x^2*y + y^2*z + z^2*x", "x*y - z^2 + 1"])
def test_engine_declines_f_that_is_not_separated(text):
    f = parse_polynomial(text, 3, 3, names=XYZ)
    assert separated_splitting_number(f, 9) is None
    assert separated_colength(f, (9, 3, 18)) is None


def test_engine_stops_past_deadline():
    ring = hypersurface(QUADRIC, X4, 3)
    with pytest.raises(TimeoutError, match="during a tensor product"):
        splitting_number(ring, e=3, deadline=time.monotonic() - 1)


def test_two_term_walks_stop_past_deadline():
    # x*y - z^2 has two terms, so its walk takes no tensor product
    ring = hypersurface("x*y - z^2", XYZ, 3)
    with pytest.raises(TimeoutError, match="during a tensor product"):
        splitting_number(ring, e=3, deadline=time.monotonic() - 1)
    with pytest.raises(TimeoutError, match="during a tensor product"):
        hk_length_sequence(ring, ring.maximal_ideal(), 2, deadline=time.monotonic() - 1)


def test_last_counts_stop_past_deadline():
    # the counts end a walk, so a deadline that passes after its last
    # product still stops the walk instead of finishing the level late
    past = time.monotonic() - 1
    with pytest.raises(TimeoutError, match="during a tensor product"):
        block_count({3: 1}, {2: 1}, past)
    with pytest.raises(TimeoutError, match="during a tensor product"):
        free_count({3: 1}, {2: 1}, 4, past)
    assert block_count({3: 1}, {2: 1}, time.monotonic() + 60) == 2


def test_engine_stops_inside_a_tensor_product(monkeypatch):
    # Each reading of the clock advances it 0.1 s, so the check before the
    # walk, the first reading, passes the 0.3 s budget and a check inside
    # the first tensor product finds it spent: only those checks stop it.
    ring = hypersurface(QUADRIC, X4, 3)
    started = time.perf_counter()
    ticks = itertools.count(1)
    monkeypatch.setattr(time, "monotonic", lambda: next(ticks) / 10)
    with pytest.raises(TimeoutError, match="during a tensor product"):
        splitting_number(ring, e=10, deadline=0.3)
    assert time.perf_counter() - started < 1


def test_engine_refuses_a_huge_q_before_any_loop():
    ring = hypersurface("x*y - z^2", XYZ, 3)
    started = time.monotonic()
    with pytest.raises(ValueError, match="too large for the separated engine"):
        splitting_number(ring, e=40)
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("text, names, p, e", [
    # the product of the two halves pairs 106 x 106 sizes: 8.28M steps, past the step cap
    ("x0^2 + x1^9 + x2^2 + x3^9 + x4^2", X4 + ("x4",), 5, 5),
    ("x0*x1 + x2*x3 + x4*x5", X4 + ("x4", "x5"), 3, 9),  # 19683^2 pairs of sizes
])
def test_engine_refuses_large_products_before_their_loop(text, names, p, e):
    ring = hypersurface(text, names, p)
    started = time.monotonic()
    with pytest.raises(ValueError, match="tensor products are too large"):
        splitting_number(ring, e=e)
    assert time.monotonic() - started < 2


def test_a_pair_takes_the_engine(monkeypatch):
    ring = hypersurface("x*y - z^2", XYZ, 3)
    delta = frobenius.PairDivisor.of([(parse_polynomial("x + z", 3, 3, names=XYZ), "1/3")])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return separated_splitting_number(*args, **kwargs)

    monkeypatch.setattr(frobenius, "separated_splitting_number", counted)
    monkeypatch.setattr(frobenius, "multiplication_rank", None)
    assert [r.a_e for r in fsig_sequence(ring, delta, e_max=3).records] == [2, 18, 162]
    assert [r for ((_, r),) in calls] == [1, 3, 9]


def test_colength_matches_rank_route_on_random_separated_f():
    rng = random.Random(20261)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        nterms = rng.randint(2, 4)
        f = random_separated(rng, p, rng.randint(nterms, 4), nterms)
        weights = find_positive_weights(f)
        a = [rng.randint(1, 3) for _ in range(f.nvars)]
        for e in (1, 2):
            caps = tuple(ai * p**e for ai in a)
            if math.prod(caps) > 20_000:
                break
            expected = math.prod(caps) - multiplication_rank(f, caps, weights)
            assert separated_colength(f, caps) == expected, (f.terms, caps)


def test_hk_lengths_of_f_that_is_not_separated_reach_the_rank(monkeypatch):
    ring = hypersurface(NOT_SEPARATED, XYZ, 3)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return multiplication_rank(*args, **kwargs)

    monkeypatch.setattr(frobenius, "multiplication_rank", counted)
    values = hk_length_sequence(ring, ring.maximal_ideal(), 2)
    assert calls == [(3, 3, 3), (9, 9, 9)]
    bracket = Ideal(3, 3, [parse_polynomial(v, 3, 3, names=XYZ) for v in ("x^9", "y^9", "z^9")])
    groebner = frobenius.quotient_length(frobenius.ideal_sum(bracket, Ideal(3, 3, [ring.f])))
    assert values[1] == Fraction(groebner, 81)


@pytest.mark.parametrize("text, p, gens, e_max", [
    ("x*y - z^2", 3, None, 3),
    ("x*y - z^2", 3, ("x^2", "y", "z^3"), 2),
    ("x^2 + y^3 + z^5", 7, None, 2),
    ("x^2 + y^3 + z^5", 5, ("x", "y^2", "z^2"), 2),
])
def test_hk_lengths_from_the_engine_match_the_rank_route(monkeypatch, text, p, gens, e_max):
    ring = hypersurface(text, XYZ, p)
    ideal = ring.maximal_ideal() if gens is None else Ideal(
        p, 3, [parse_polynomial(g, p, 3, names=XYZ) for g in gens])
    assert hk_length_sequence(ring, ideal, e_max) == rank_route_hk(monkeypatch, ring, ideal, e_max)


def test_hk_lengths_of_e8_reach_past_the_box_cap():
    # lambda(R/m^[q])/q^2 of x^2 + y^3 + z^5, a quotient by the binary
    # icosahedral group (|G| = 120); Watanabe-Yoshida give the limit
    # 2 - 1/|G| = 239/120, a reference value only, never an exact s.
    ring = hypersurface("x^2 + y^3 + z^5", XYZ, 5)
    started = time.monotonic()
    assert hk_length_sequence(ring, ring.maximal_ideal(), 3) == [2, 2, 2]
    assert time.monotonic() - started < 1
    ring = hypersurface("x^2 + y^3 + z^5", XYZ, 7)
    values = hk_length_sequence(ring, ring.maximal_ideal(), 3)
    assert values == [Fraction(96, 49), Fraction(683, 343), Fraction(234316, 117649)]
    assert abs(values[-1] - Fraction(239, 120)) < Fraction(1, 10**4)


def test_quadric_splitting_numbers_up_to_e6():
    ring = hypersurface(QUADRIC, X4, 3)
    a_e = [splitting_number(ring, e=e) for e in (5, 6)]
    assert a_e == [9566019, 258280569] == [(2 * q**3 + q) // 3 for q in (243, 729)]


def random_quadratic_form(rng, p, nvars):
    """A quadratic form over GF(p); a third of them are sums of fewer squares than nvars.

    Those are degenerate; the rest have random coefficients, zero a third of the time.
    """
    if rng.random() < 1 / 3:
        f = Polynomial.zero(p, nvars)
        for _ in range(rng.randint(1, max(1, nvars - 1))):
            terms = {tuple(int(i == j) for j in range(nvars)): rng.randrange(p) for i in range(nvars)}
            linear = Polynomial(p, nvars, terms)
            f = f + linear * linear * rng.randrange(1, p)
        return f
    terms = {}
    for i in range(nvars):
        for j in range(i, nvars):
            if rng.random() < 2 / 3:
                exps = [0] * nvars
                exps[i] += 1
                exps[j] += 1
                terms[tuple(exps)] = rng.randrange(1, p)
    return Polynomial(p, nvars, terms)


def form_matrix(f):
    """The symmetric matrix B of f over GF(p), f(x) = x^T B x."""
    p, n = f.p, f.nvars
    b = [[0] * n for _ in range(n)]
    for m, c in f.terms.items():
        i, j = (k for k, e in enumerate(m) for _ in range(e))
        b[i][j] = b[j][i] = c if i == j else c * pow(2, p - 2, p) % p
    return b


def test_diagonal_form_keeps_rank_and_discriminant():
    # the elimination oracle: over GF(p), p odd, rank and discriminant classify nondegenerate forms
    rng = random.Random(20262)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11])
        f = random_quadratic_form(rng, p, rng.randint(1, 5))
        if f.is_zero():
            continue
        b = form_matrix(f)
        diagonal = elimination_diagonal_form(f)
        assert all(sum(m) == 2 and max(m) == 2 for m in diagonal.terms)
        assert len(diagonal.terms) == rank_mod_p_reference(b, p), f.terms
        if len(diagonal.terms) == f.nvars:
            legendre = pow(math.prod(diagonal.terms.values()) * brute_det(b), (p - 1) // 2, p)
            assert legendre == 1, f.terms


def normal_form_kind(form, u):
    """u*v, u^2 or no u: how the normal form of a quadratic form involves the coordinate u."""
    degrees = {max(m) for m in form.terms if m[u]}
    return "u*v" if degrees == {1} else "u^2" if degrees == {2} else "no u"


def test_rank_rule_matches_the_elimination():
    # two ranks pick the same normal form as the GF(p) elimination: the kind and the rank
    rng = random.Random(20267)
    kinds = Counter()
    for _ in range(2400):
        p = rng.choice([3, 5, 7, 11, 13])
        f = random_quadratic_form(rng, p, rng.randint(1, 6))
        ell = random_linear_form(rng, p, f.nvars)
        u = min(m.index(1) for m in ell.terms)
        assert len(diagonal_form(f).terms) == len(elimination_diagonal_form(f).terms), f.terms
        form, expected = diagonal_form(f, keep=ell), elimination_diagonal_form(f, keep=ell)
        kind = normal_form_kind(form, u)
        assert kind == normal_form_kind(expected, u), (f.terms, ell.terms)
        assert len(form.terms) == len(expected.terms), (f.terms, ell.terms)
        assert set(form.terms.values()) <= {1}
        kinds[kind] += 1
    assert sum(kinds.values()) >= 2000 and min(kinds.values()) >= 100 and len(kinds) == 3, kinds


def test_repeated_diagonal_forms_match_the_elimination():
    # a repeated request, also with an equal copy of f, returns the cached
    # form, and it is still the one the elimination picks
    rng = random.Random(20268)
    hits = diagonal_form.cache_info().hits
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13])
        f = random_quadratic_form(rng, p, rng.randint(1, 6))
        ell = random_linear_form(rng, p, f.nvars)
        u = min(m.index(1) for m in ell.terms)
        plain, form = diagonal_form(f), diagonal_form(f, keep=ell)
        for g in (f, Polynomial(p, f.nvars, dict(f.terms))):
            assert diagonal_form(g) is plain and diagonal_form(g, keep=ell) is form
        expected = elimination_diagonal_form(f, keep=ell)
        assert len(plain.terms) == len(elimination_diagonal_form(f).terms), f.terms
        assert normal_form_kind(form, u) == normal_form_kind(expected, u), (f.terms, ell.terms)
        assert len(form.terms) == len(expected.terms), (f.terms, ell.terms)
    assert diagonal_form.cache_info().hits - hits >= 4 * 200


def test_quadratic_forms_match_the_rank_route():
    # a_e and the colength at m of a quadratic form that is not written
    # diagonally come from its diagonal form
    rng = random.Random(20263)
    reached = degenerate = 0
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        f = random_quadratic_form(rng, p, rng.randint(2, 4))
        if f.is_zero():
            continue
        ring = RingPresentation.hypersurface(f)
        reached += _separated_support(f) is None
        degenerate += len(diagonal_form(f).terms) < f.nvars
        for e in (1, 2):
            q = p**e
            if q**f.nvars > 20_000:
                break
            caps = (q,) * f.nvars
            assert separated_splitting_number(f, q) == rank_route(ring, e), (f.terms, p, e)
            expected = q**f.nvars - multiplication_rank(f, caps, find_positive_weights(f))
            assert separated_colength(f, caps) == expected, (f.terms, p, e)
    assert reached > 20 and degenerate > 10


def test_quadric_that_is_not_diagonal_matches_the_colon_route(monkeypatch):
    # the engine diagonalises the form; the colon route, which must not call it, agrees
    ring = hypersurface("x*y + y*z + z*x", XYZ, 3)
    engine = separated_splitting_number(ring.f, 9)

    def no_engine(*args, **kwargs):
        raise AssertionError("the colon route called the separated engine")

    monkeypatch.setattr(frobenius, "separated_splitting_number", no_engine)
    assert splitting_number(ring, e=2, method="colon") == engine == 41


@pytest.mark.parametrize("text, p, caps", [
    ("x*y + y*z + z*x", 2, (4, 4, 4)),  # p = 2: no symmetric matrix
    ("x*y + y*z + z*x", 3, (9, 9, 3)),  # unequal caps
    ("x*y + y*z + z*x", 3, (6, 6, 6)),  # a cap that is not a power of p
    (NOT_SEPARATED, 3, (9, 9, 9)),  # not quadratic
], ids=["p2", "unequal-caps", "cap-not-a-power", "not-quadratic"])
def test_engine_declines_quadrics_outside_its_normal_form(text, p, caps):
    f = parse_polynomial(text, p, 3, names=XYZ)
    assert separated_colength(f, caps) is None
    if len(set(caps)) == 1:
        assert separated_splitting_number(f, caps[0]) is None


def test_quadric_pins_past_the_box_cap():
    ring = hypersurface("x*y + y*z + z*x", XYZ, 7)
    # nondegenerate ternary, so the type of x*y - z^2: a_4 = (q^2 + 1)/2
    assert [splitting_number(ring, e=e) for e in (1, 2, 3, 4)] == [25, 1201, 58825, 2882401]
    with pytest.raises(ValueError, match="a block of .* monomials is too large for a dense rank"):
        rank_route(ring, 3)
    # x0^2 + x0*x1 + x1^2 = (x0 + 2*x1)^2 over GF(3): a form of rank 3
    ring = hypersurface(QUADRIC + " + x0*x1", X4, 3)
    a_e = [splitting_number(ring, e=e) for e in (1, 2, 3, 4)]
    assert a_e == [15, 369, 9855, 265761] == [q * (q**2 + 1) // 2 for q in (3, 9, 27, 81)]


# -- twists of pairs and gap lengths --------------------------------------------------

CONVENTIONS = (frobenius.FLOOR_PE, frobenius.CEIL_PE_MINUS_1)


def twist_rank(ring, delta, e, extra=None):
    """The rank of the built twist (times ``extra``) on P/m^[q], by ``multiplication_rank``."""
    q, g, factors = frobenius._twist(ring, delta, e)
    if extra is not None:
        g, factors = g * extra, factors + (extra,)
    return multiplication_rank(g, (q,) * ring.nvars, find_positive_weights(*factors))


def engine_of_pair(ring, delta, e):
    q = ring.p**e
    return separated_splitting_number(ring.f, q, frobenius._pair_factors(ring, delta, q))


def random_coefficient(rng):
    d = rng.randint(2, 7)
    return Fraction(rng.randrange(1, d), d)


def random_linear_form(rng, p, nvars):
    """A nonzero linear form over GF(p); a quarter of them are one variable."""
    if rng.random() < 1 / 4:
        return Polynomial.variable(rng.randrange(nvars), p, nvars) * rng.randrange(1, p)
    coeffs = [rng.randrange(p) for _ in range(nvars)]
    coeffs[rng.randrange(nvars)] = rng.randrange(1, p)
    return Polynomial(p, nvars, {tuple(int(i == j) for j in range(nvars)): c for i, c in enumerate(coeffs)})


def test_monomial_pairs_match_the_rank_route():
    # x^beta P/m^[q] = P/(x_i^(q - beta_i)); a cap <= 0 makes the twist 0 in P/m^[q]
    rng = random.Random(20264)
    matched = zero_caps = declined = 0
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        nvars = rng.randint(2, 3)
        if rng.random() < 2 / 3:
            f = random_separated(rng, p, nvars, rng.randint(1, nvars))
        else:
            f = random_quadratic_form(rng, p, nvars)
            if f.is_zero():
                continue
        ring = RingPresentation.hypersurface(f)
        components = []
        for _ in range(rng.randint(1, 2)):
            exps = [rng.randint(0, 2) for _ in range(nvars)]
            exps[rng.randrange(nvars)] = rng.randint(1, 2)
            g = Polynomial(p, nvars, {tuple(exps): rng.randrange(1, p)})
            components.append((g, random_coefficient(rng)))
        for convention in CONVENTIONS:
            delta = frobenius.PairDivisor.of(components, convention)
            for e in (1, 2):
                q = p**e
                if q**nvars > 20_000:
                    break
                engine = engine_of_pair(ring, delta, e)
                if engine is None:
                    assert _separated_support(f) is None, (f.terms, components)
                    declined += 1
                    continue
                assert engine == twist_rank(ring, delta, e), (f.terms, components, convention, e)
                matched += 1
                beta = [sum(r * next(iter(g.terms))[i] for g, r in frobenius._pair_factors(ring, delta, q))
                        for i in range(nvars)]
                zero_caps += max(beta) >= q
    assert matched > 80 and zero_caps > 10 and declined > 5


def test_linear_pairs_on_quadratic_forms_match_the_rank_route():
    # l is made a coordinate u while every cap is q; then u's cap is q - r
    rng = random.Random(20265)
    kinds = Counter()
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        nvars = rng.randint(2, 3)
        f = random_quadratic_form(rng, p, nvars)
        if f.is_zero():
            continue
        ring = RingPresentation.hypersurface(f)
        ell = random_linear_form(rng, p, nvars)
        form = diagonal_form(f, keep=ell)
        u = min(m.index(1) for m in ell.terms)
        kinds["degenerate" if len(diagonal_form(f).terms) < nvars else "nondegenerate"] += 1
        kinds["u*v" if any(m[u] == 1 for m in form.terms) else "u^2" if any(m[u] for m in form.terms)
              else "no u"] += 1
        for convention in CONVENTIONS:
            delta = frobenius.PairDivisor.of([(ell, random_coefficient(rng))], convention)
            for e in (1, 2):
                if p ** (e * nvars) > 20_000:
                    break
                assert engine_of_pair(ring, delta, e) == twist_rank(ring, delta, e), (f.terms, ell.terms, e)
    # u*v: l isotropic for the inverse form; u^2: anisotropic
    assert min(kinds.values()) >= 5 and len(kinds) == 5, kinds


def test_kept_coordinate_normal_form_keeps_the_rank():
    rng = random.Random(20266)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11])
        f = random_quadratic_form(rng, p, rng.randint(1, 5))
        if f.is_zero():
            continue
        form = diagonal_form(f, keep=random_linear_form(rng, p, f.nvars))
        assert all(sum(m) == 2 for m in form.terms)
        assert _separated_support(form) is not None, form.terms
        rank = sum(2 if max(m) == 1 else 1 for m in form.terms)
        assert rank == rank_mod_p_reference(form_matrix(f), p), (f.terms, form.terms)


@pytest.mark.parametrize("text, p, factors", [
    ("x*y - z^2", 3, (("x + y", 1), ("y + z", 2))),
    ("x*y - z^2", 3, (("x", 1), ("y + z", 1))),
    ("x^2 + y^3 + z^5", 7, (("x + y", 1),)),
    ("x*y - z^2", 2, (("x + z", 1),)),
    ("x*y - z^2", 3, (("x + y^2", 1),)),
    (NOT_SEPARATED, 3, (("x", 1),)),
], ids=["two-linear", "monomial-and-linear", "linear-on-a-cubic", "p2", "not-linear", "f-declined"])
def test_engine_declines_other_twists(text, p, factors):
    f = parse_polynomial(text, p, 3, names=XYZ)
    pairs = [(parse_polynomial(g, p, 3, names=XYZ), r) for g, r in factors]
    assert separated_splitting_number(f, p**2, pairs) is None


def no_engine(*args, **kwargs):
    raise AssertionError("the separated engine was called")


def test_regular_ring_pairs_keep_the_rank_route(monkeypatch):
    ring = RingPresentation.regular(3, 2)
    delta = frobenius.PairDivisor.of([(parse_polynomial("x0", 3, 2), "1/3")])
    monkeypatch.setattr(frobenius, "separated_splitting_number", no_engine)
    # (x0^3) m^[9] has colength 9 * 6
    assert splitting_number(ring, delta, 2) == 54


@pytest.mark.parametrize("kind, text, p, e_max, pair", [
    ("ctrick", "z", 3, 3, ()),
    ("ctrick", "x + y", 3, 3, ()),
    ("perturbed", "x", 3, 3, ()),
    ("perturbed", "x + y", 5, 2, ()),
    ("perturbed", "x", 3, 3, (("z", "1/2"),)),
])
def test_gap_sequences_match_the_rank_route(monkeypatch, kind, text, p, e_max, pair):
    ring = hypersurface("x*y - z^2", XYZ, p)
    h = parse_polynomial(text, p, 3, names=XYZ)
    delta = frobenius.PairDivisor.of([(parse_polynomial(g, p, 3, names=XYZ), t) for g, t in pair])

    def gaps():
        if kind == "ctrick":
            return frobenius.ctrick_gap_sequence(ring, h, e_max)
        extra = frobenius.PairDivisor.of([(h, 1)])
        return list(frobenius.perturbed_limit_check(ring, delta, extra, e_max).gaps)

    taken = []

    def counted(f, q, factors=(), deadline=None):
        rank = separated_splitting_number(f, q, factors, deadline)
        taken.append(rank is not None and len(factors) > 0)
        return rank

    monkeypatch.setattr(frobenius, "separated_splitting_number", counted)
    engine = gaps()
    assert sum(taken) >= e_max
    monkeypatch.setattr(frobenius, "separated_splitting_number", lambda *args, **kwargs: None)
    assert gaps() == engine
    for e, gap in enumerate(engine, 1):
        q = p**e
        expected = twist_rank(ring, delta, e) - twist_rank(ring, delta, e, h)
        assert gap == Fraction(expected, q**2)


def test_colon_route_of_a_pair_never_calls_the_engine(monkeypatch):
    ring = hypersurface("x*y - z^2", XYZ, 3)
    delta = frobenius.PairDivisor.of([(parse_polynomial("x + z", 3, 3, names=XYZ), "1/3")])
    engine = splitting_number(ring, delta, 2)
    monkeypatch.setattr(frobenius, "separated_splitting_number", no_engine)
    assert splitting_number(ring, delta, 2, method="colon") == engine == 18


def test_monomial_pair_matches_the_window_count_past_the_box_cap():
    # (x*y - z^2, x/3) is 1/2(1,1) with facet coefficients (2/3, 0); q*t is an
    # integer at p = 3, and the count is (q^2 + 3)/6
    ring = hypersurface("x*y - z^2", XYZ, 3)
    delta = frobenius.PairDivisor.of([(parse_polynomial("x", 3, 3, names=XYZ), "1/3")])
    model = quotient_singularity(2, (1, 1), 3)
    facets = TorusQDivisor.of(["2/3", "0"])
    for e in range(1, 7):
        q = 3**e
        a_e = splitting_number(ring, delta, e)
        assert a_e == toric_splitting_number(model, facets, e) == (q * q + 3) // 6
    with pytest.raises(ValueError, match="a block of .* monomials is too large for a dense rank"):
        twist_rank(ring, delta, 6)
