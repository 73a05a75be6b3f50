"""Rank computations over GF(p) and the graded multiplication-rank engine."""

import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fsig import linalg
from fsig.field import rank_mod_p_reference
from fsig.linalg import find_positive_weights, multiplication_rank, rational_nullspace
from fsig.poly import Polynomial, parse_polynomial

from _oracles import box_dimension, brute_block_matrix, brute_colon_complement_length, rank_mod_p


def test_rank_small_known():
    assert rank_mod_p([[1, 2], [2, 4]], 5) == 1
    assert rank_mod_p([[1, 0], [0, 1]], 5) == 2
    assert rank_mod_p([[5, 10], [15, 20]], 5) == 0


def test_rank_rejects_composite_modulus():
    with pytest.raises(ValueError):
        rank_mod_p([[1, 2], [3, 4]], 1)
    with pytest.raises(ValueError):
        rank_mod_p([[1, 2], [3, 4]], 6)


def test_rank_matches_reference_random():
    rng = random.Random(11)
    for p in (2, 3, 7, 31):
        for _ in range(8):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            mat = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            assert rank_mod_p(mat, p) == rank_mod_p_reference(mat, p)


def test_rank_large_prime_falls_back_exactly():
    # Primes too large for the float path must still be exact.
    p = 2**31 - 1
    assert linalg._plan(p) == (None, 0)
    mat = [[1, p - 1], [p - 1, 1]]
    assert rank_mod_p(mat, p) == rank_mod_p_reference(mat, p) == 1


def known_rank(rng, m, n, r, p, zero_rows=0, zero_cols=0):
    """L @ R mod p of rank exactly r, padded with zero rows and columns.

    L holds an r x r identity in r random rows and R one in r random
    columns, so both have full rank r over GF(p) and so does L @ R.
    """
    left = rng.integers(0, p, (m, r), dtype=np.int64)
    left[rng.permutation(m)[:r]] = np.eye(r, dtype=np.int64)
    right = rng.integers(0, p, (r, n), dtype=np.int64)
    right[:, rng.permutation(n)[:r]] = np.eye(r, dtype=np.int64)
    mat = (left @ right) % p
    mat = np.insert(mat, rng.integers(0, m + 1, zero_rows), 0, axis=0)
    return np.insert(mat, rng.integers(0, n + 1, zero_cols), 0, axis=1)


# (rows, columns, rank, zero rows, zero columns): below and above one
# 128-pivot panel, tall and wide, with all-zero rows and columns
SHAPES = [
    (1, 1, 1, 0, 0),
    (9, 5, 3, 2, 1),
    (40, 12, 7, 0, 3),
    (30, 90, 30, 4, 0),
    (300, 40, 25, 5, 5),
    (45, 260, 40, 3, 7),
    (200, 190, 150, 6, 4),
    (140, 300, 135, 0, 0),
]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 1021, 4093, 8191])
def test_rank_low_rank_matches_reference(p):
    rng = np.random.default_rng(p)
    for m, n, r, zr, zc in SHAPES:
        mat = known_rank(rng, m, n, r, p, zr, zc)
        assert rank_mod_p(mat, p) == r, (p, m, n, r)
        # the pure-Python reference takes seconds on the larger shapes
        if m * n * r <= 200_000:
            assert rank_mod_p_reference(mat.tolist(), p) == r


def test_rank_delayed_reduction_triggers(monkeypatch):
    # At p = 1021 a float32 panel holds 16 pivots, so rank 60 needs
    # several panels and the trailing block must be reduced between them.
    p = 1021
    assert linalg._plan(p) == (np.float32, 16)
    whole_block = []
    reduce = linalg._reduce

    def spy(X, p):
        if X.ndim == 2:
            whole_block.append(X.shape)
        reduce(X, p)

    monkeypatch.setattr(linalg, "_reduce", spy)
    rng = np.random.default_rng(7)
    mat = known_rank(rng, 220, 240, 60, p, 3, 2)
    assert rank_mod_p(mat, p) == 60
    assert whole_block
    full = known_rank(rng, 40, 60, 40, p)
    assert rank_mod_p(full, p) == rank_mod_p_reference(full.tolist(), p) == 40


def test_rational_nullspace_simple():
    from fractions import Fraction

    rows = [[Fraction(1), Fraction(1), Fraction(1)]]
    basis = rational_nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0


def test_rational_nullspace_kills_a_kernel_of_full_size():
    # Entries of magnitude at most 18 in at most 6 columns keep every
    # minor below the Hadamard bound 18^6 * 6^3 < 2^61 - 1, so the rank
    # mod that prime is the rank over Q.
    rng = random.Random(5)
    for _ in range(200):
        width = rng.randint(1, 6)
        rank = rng.randint(0, width)
        basis = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(rank)]
        rows = [
            [sum(rng.randint(-1, 1) * b[j] for b in basis) for j in range(width)]
            for _ in range(rng.randint(0, 6))
        ]
        kernel = rational_nullspace([[Fraction(x) for x in row] for row in rows], width)
        for vec in kernel:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)
        assert len(kernel) == width - rank_mod_p_reference(rows, 2**61 - 1)


# Weights of every polynomial (and twist factor set) the benchmark sends,
# plus kernels of dimension two, as found by the parent of the shared
# elimination routine: the kernel basis is canonical, so they must not move.
PINNED_WEIGHTS = [
    (3, ["x0^2 + x1^2 + x2^2 + x3^2"], (1, 1, 1, 1)),
    (3, ["x*y - z^3"], (2, 1, 1)),
    (3, ["x*y - z^4"], (3, 1, 1)),
    (7, ["x*y - z^2"], (1, 1, 1)),
    (7, ["x*y + y*z + z*x"], (1, 1, 1)),
    (11, ["x^2 + y^3 + z^5"], (15, 10, 6)),
    (3, ["x*y - z^2", "x + z"], (1, 1, 1)),
    (3, ["x*y - z^2", "y + z"], (1, 1, 1)),
    (5, ["x*y - z^2", "x + y + z"], (1, 1, 1)),
    (3, ["x^2 + y^3 + z^5"], (15, 10, 6)),
    (3, ["x*y - z^2", "x + y", "y - z", "z"], (1, 1, 1)),
    (5, ["x*y - z^3"], (2, 1, 1)),
    (3, ["x*y - z^2", "z"], (1, 1, 1)),
    (3, ["x*y - z^2", "x + y"], (1, 1, 1)),
    (3, ["x*y - z^2", "x"], (1, 1, 1)),
    (7, ["x^2 - y^3"], (3, 2, 2)),
    (7, ["x^3 + y^5"], (5, 3, 3)),
    (7, ["x^2*y - z^7"], (3, 1, 1)),
]


def test_find_positive_weights_pinned():
    for p, texts, expected in PINNED_WEIGHTS:
        names = ("x0", "x1", "x2", "x3") if "x0" in texts[0] else ("x", "y", "z")
        polys = [parse_polynomial(t, p, len(names), names=names) for t in texts]
        assert find_positive_weights(*polys) == expected, texts


def test_find_positive_weights_homogeneous():
    f = parse_polynomial("x*y - z^2", 5, 3, names=("x", "y", "z"))
    w = find_positive_weights(f)
    assert w is not None
    assert all(x > 0 for x in w)
    degs = {sum(wi * e for wi, e in zip(w, m)) for m in f.terms}
    assert len(degs) == 1


def test_find_positive_weights_inhomogeneous():
    f = parse_polynomial("x + x*y", 5, 2, names=("x", "y"))
    assert find_positive_weights(f) is None


def test_multiplication_rank_monomial_closed_form():
    # Rank of multiplication by x^a on the q-box is prod(max(0, q - a_i)).
    g = parse_polynomial("x0^2*x1", 7, 2)
    q = 7
    assert multiplication_rank(g, (q, q)) == (q - 2) * (q - 1)
    overflows = parse_polynomial("x0^9", 7, 2)
    assert multiplication_rank(overflows, (7, 7)) == 0


def test_multiplication_rank_matches_brute_force():
    cases = [
        ("x*y - z^2", 3, 3),
        ("x*y - z^3", 5, 5),
        ("x^2 + y^2 + z^2", 3, 3),
    ]
    for text, p, q in cases:
        f = parse_polynomial(text, p, 3, names=("x", "y", "z"))
        g = f ** (q - 1)
        expected = brute_colon_complement_length(g, q)
        got = multiplication_rank(g, (q,) * 3, weights=find_positive_weights(g))
        assert got == expected, (text, p, q, got, expected)


def brute_piece(caps, weights, degree):
    """The box monomials of one weighted degree, by filtering the whole box in flat order."""
    return [m for m in product(*map(range, caps)) if np.dot(m, weights) == degree]


def test_box_exponents_match_a_filtered_box():
    # every degree from -1 past the top, so some hold no monomial; weights
    # of 0 (all of them for the ungraded whole box) take every exponent
    rng = random.Random(41)
    seen = {"zero weight": 0, "empty": 0, "whole box": 0}
    for _ in range(300):
        nvars = rng.randint(1, 4)
        caps = tuple(rng.randint(1, 5) for _ in range(nvars))
        weights = tuple(rng.choice((0, 1, 1, 2, 3, 5)) for _ in range(nvars))
        top = sum(w * (c - 1) for c, w in zip(caps, weights))
        degree = rng.randint(-1, top + 1)
        exps, flats = linalg._box_exponents(caps, weights, degree)
        expected = brute_piece(caps, weights, degree)
        assert exps.shape == (len(expected), nvars)
        assert [tuple(m) for m in exps.tolist()] == expected, (caps, weights, degree)
        assert flats.tolist() == [int(np.ravel_multi_index(m, caps)) for m in expected]
        seen["zero weight"] += 0 in weights
        seen["empty"] += not expected
        seen["whole box"] += not any(weights) and degree == 0
    assert all(seen.values()), seen


def test_box_exponents_refuse_a_level_past_the_cell_cap(monkeypatch):
    # weights (2, 2) at the odd degree 5: the first level holds three prefixes
    # (x^0, x^1, x^2), none of which the second can complete; the cap counts
    # the rows a level makes, not the monomials that come out
    caps, weights = (4, 4), (2, 2)
    assert brute_piece(caps, weights, 5) == []
    monkeypatch.setattr(linalg, "_MAX_CELLS", 3)
    assert len(linalg._box_exponents(caps, weights, 5)[0]) == 0
    monkeypatch.setattr(linalg, "_MAX_CELLS", 2)
    with pytest.raises(ValueError, match="a graded piece with over 2 prefixes is too large for a dense rank"):
        linalg._box_exponents(caps, weights, 5)


def test_piece_sizes_count_the_box_and_saturate(monkeypatch):
    rng = random.Random(43)
    for cap in (linalg._MAX_CELLS, 5):
        monkeypatch.setattr(linalg, "_MAX_CELLS", cap)
        for _ in range(100):
            nvars = rng.randint(1, 4)
            caps = tuple(rng.randint(1, 6) for _ in range(nvars))
            weights = (0,) * nvars if rng.random() < 0.2 else tuple(rng.randint(1, 9) for _ in range(nvars))
            top = rng.randint(0, sum(w * (c - 1) for c, w in zip(caps, weights)) + 2)
            expected = [min(len(brute_piece(caps, weights, k)), cap + 1) for k in range(top + 1)]
            assert linalg._piece_sizes(caps, weights, top).tolist() == expected, (caps, weights, top)


def test_block_matrix_matches_brute_force(monkeypatch):
    # Graded blocks of a random weighted-homogeneous g, and the whole box
    # for an arbitrary g, each at the default chunk size and at 3 pairs
    # per chunk so that chunk boundaries fall inside the term list.
    rng = random.Random(23)
    seen = {"single source": 0, "more terms than sources": 0, "term past caps": 0}

    def check(g, caps, weights, j, degree):
        terms = np.array(list(g.terms), dtype=np.int64).reshape(-1, len(caps))
        coeffs = np.array(list(g.terms.values()), dtype=np.float32)
        strides = np.array([int(np.prod(caps[i + 1 :])) for i in range(len(caps))], dtype=np.int64)
        source = linalg._box_exponents(caps, weights, j)
        target = linalg._box_exponents(caps, weights, j + degree)
        mat = linalg._block_matrix(terms, coeffs, np.asarray(caps, dtype=np.int64), strides, source, target)
        src, tgt = brute_piece(caps, weights, j), brute_piece(caps, weights, j + degree)
        assert mat.dtype == np.float32 and mat.tolist() == brute_block_matrix(g, caps, src, tgt)
        seen["single source"] += len(src) == 1
        seen["more terms than sources"] += len(g.terms) > len(src)
        seen["term past caps"] += any(any(e >= c for e, c in zip(m, caps)) for m in g.terms)

    for chunk in (linalg._CHUNK_PAIRS, 3):
        monkeypatch.setattr(linalg, "_CHUNK_PAIRS", chunk)
        for _ in range(30):
            p = rng.choice((2, 3, 5, 7))
            nvars = rng.randint(1, 3)
            caps = tuple(rng.randint(1, 5) for _ in range(nvars))
            weights = tuple(rng.randint(1, 3) for _ in range(nvars))
            degree = rng.randint(1, 8)
            candidates = [
                m for m in product(range(degree + 1), repeat=nvars) if np.dot(m, weights) == degree
            ]
            if not candidates:
                continue
            chosen = rng.sample(candidates, min(len(candidates), rng.randint(1, 12)))
            g = Polynomial(p, nvars, {m: rng.randrange(1, p) for m in chosen})
            top = sum(w * (c - 1) for c, w in zip(caps, weights))
            for j in range(top + 1):
                if brute_piece(caps, weights, j) and brute_piece(caps, weights, j + degree):
                    check(g, caps, weights, j, degree)
            terms = {
                tuple(rng.randint(0, c + 1) for c in caps): rng.randrange(1, p)
                for _ in range(rng.randint(1, 12))
            }
            check(Polynomial(p, nvars, terms), caps, (0,) * nvars, 0, 0)
    assert all(seen.values()), seen


def test_multiplication_rank_stops_past_deadline():
    g = parse_polynomial("x*y - z^2", 3, 3, names=("x", "y", "z")) ** 8
    weights = find_positive_weights(g)
    with pytest.raises(TimeoutError):
        multiplication_rank(g, (9,) * 3, weights, deadline=time.monotonic() - 1)
    assert multiplication_rank(g, (9,) * 3, weights, deadline=time.monotonic() + 60) == 41


def test_multiplication_rank_without_weights_agrees():
    f = parse_polynomial("x*y - z^2", 3, 3, names=("x", "y", "z"))
    g = f**2
    assert multiplication_rank(g, (3, 3, 3)) == multiplication_rank(
        g, (3, 3, 3), weights=find_positive_weights(g)
    )


def test_multiplication_rank_without_weights_matches_brute_force():
    # Arbitrary g, homogeneous or not, with terms past the caps: the
    # ungraded rank is the rank of the whole-box matrix.
    rng = random.Random(31)
    for _ in range(40):
        p = rng.choice((2, 3, 5, 7))
        nvars = rng.randint(1, 3)
        caps = tuple(rng.randint(1, 5) for _ in range(nvars))
        terms = {
            tuple(rng.randint(0, c + 1) for c in caps): rng.randrange(1, p)
            for _ in range(rng.randint(1, 8))
        }
        g = Polynomial(p, nvars, terms)
        box = [tuple(m) for m in linalg._box_exponents(caps, (0,) * nvars, 0)[0].tolist()]
        expected = rank_mod_p_reference(brute_block_matrix(g, caps, box, box), p)
        assert multiplication_rank(g, caps) == expected, (g, caps)


def test_block_cap_refuses_before_any_block_is_built(monkeypatch):
    build, enumerate_piece = linalg._block_matrix, linalg._box_exponents

    def unreachable(*args):
        raise AssertionError("a block was assembled past the cap")

    f = parse_polynomial("x*y - z^2", 3, 3, names=("x", "y", "z"))
    g = parse_polynomial("x + y", 5, 2, names=("x", "y"))
    graded = multiplication_rank(g, (4, 4), (1, 1))
    monkeypatch.setattr(linalg, "_block_matrix", unreachable)
    monkeypatch.setattr(linalg, "_box_exponents", unreachable)
    # one count per degree 0..22 (the socle 24 less deg f): more than the cap
    monkeypatch.setattr(linalg, "_MAX_CELLS", 10)
    with pytest.raises(ValueError, match="a grading of 23 pieces is too large for a dense rank"):
        multiplication_rank(f, (9, 9, 9), find_positive_weights(f))
    # the largest block, degree 11 (60 monomials) to degree 13 (60), is named,
    # and a count past the cap is named as such
    monkeypatch.setattr(linalg, "_MAX_CELLS", 60 * 60 - 1)
    with pytest.raises(ValueError, match="a block of 60 x 60 monomials is too large for a dense rank"):
        multiplication_rank(f, (9, 9, 9), find_positive_weights(f))
    monkeypatch.setattr(linalg, "_MAX_CELLS", 30)
    with pytest.raises(ValueError, match="a block of over 30 x over 30 monomials"):
        multiplication_rank(f, (9, 9, 9), find_positive_weights(f))
    # without weights the whole 4 x 4 box is one block of 16 x 16 cells
    monkeypatch.setattr(linalg, "_MAX_CELLS", 16 * 16 - 1)
    with pytest.raises(ValueError, match="a block of 16 x 16 monomials"):
        multiplication_rank(g, (4, 4))
    monkeypatch.setattr(linalg, "_block_matrix", build)
    monkeypatch.setattr(linalg, "_box_exponents", enumerate_piece)
    monkeypatch.setattr(linalg, "_MAX_CELLS", 16 * 16)
    assert multiplication_rank(g, (4, 4)) == graded == 12


def test_flat_indices_past_int64_are_refused():
    # degrees 0 and 1 hold four monomials, but the flat indices of a
    # 2^90-monomial box cannot be held in int64
    big = 2**30
    g = Polynomial(5, 3, {(big - 1, big - 2, big - 1): 1, (big - 2, big - 1, big - 1): 1})
    with pytest.raises(ValueError, match="would leave int64"):
        multiplication_rank(g, (big,) * 3, (1, 1, 1))


def test_box_dimension():
    assert box_dimension((3, 3, 3)) == 27
    assert box_dimension((1, 5)) == 5
    assert box_dimension(()) == 1
