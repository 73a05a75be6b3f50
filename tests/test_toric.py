"""Exact lattice backend: windows, certificates, Hilbert bases, volumes."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from fsig.frobenius import fsig_sequence
from fsig.toric import (
    SimplicialityError,
    ToricRing,
    TorusQDivisor,
    _is_small,
    _minimal_elements,
    adjugate,
    quotient_singularity,
    row_lattice_basis,
    row_reduction_transform,
    toric_fsig_exact,
    toric_splitting_certificates,
    toric_splitting_number,
)

from _oracles import (
    brute_adjugate,
    brute_det,
    brute_invariant_hilbert_basis,
    brute_is_small,
    brute_lattice_points,
    brute_minimal_elements,
    brute_window_count,
    invariant_monomial_count,
    is_effective,
)


# -- integer lattice helpers ---------------------------------------------------


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_adjugate_identity():
    mats = [[[2, 1], [1, 1]], [[1, 0, 0], [2, 3, 0], [1, 1, 4]]]
    for m in mats:
        adj, det = adjugate(m)
        n = len(m)
        scalar = [[det * int(i == j) for j in range(n)] for i in range(n)]
        assert _matmul(adj, m) == _matmul(m, adj) == scalar
        assert det == brute_det(m)


def _random_matrices(rng, d):
    """A random, a singular and a unimodular integer d x d matrix."""
    dense = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
    singular = [row[:] for row in dense]
    a, b = rng.sample(range(d), 2) if d > 1 else (0, 0)
    singular[b] = [rng.randint(-3, 3) * x for x in singular[a]] if a != b else [0]
    unimodular = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d if d > 1 else 0):
        a, b = rng.sample(range(d), 2)
        k = rng.randint(-4, 4)
        unimodular[a] = [x + k * y for x, y in zip(unimodular[a], unimodular[b])]
    if rng.random() < 0.5:
        unimodular[0] = [-x for x in unimodular[0]]
    return dense, singular, unimodular


def test_adjugate_matches_cofactor_oracle():
    rng = random.Random(11)
    seen = {"singular": 0, "unimodular": 0, "nonsingular": 0}
    for d in range(1, 6):
        for _ in range(12):
            for kind, m in zip(("dense", "singular", "unimodular"), _random_matrices(rng, d)):
                adj, det = adjugate(m)
                assert det == brute_det(m), (m, det)
                if det == 0:
                    assert adj is None
                    seen["singular"] += 1
                    continue
                assert adj == brute_adjugate(m)
                assert _matmul(adj, m) == [[det * int(i == j) for j in range(d)] for i in range(d)]
                seen["unimodular" if abs(det) == 1 else "nonsingular"] += 1
                if kind == "unimodular":
                    assert abs(det) == 1
    assert all(seen.values()), seen


def test_row_reduction_transform_gcd():
    row = [6, 10, 15]
    g, cols = row_reduction_transform(row)
    assert g == 1
    # First column realizes the gcd, the rest span the kernel.
    assert sum(r * c for r, c in zip(row, cols[0])) == 1
    for col in cols[1:]:
        assert sum(r * c for r, c in zip(row, col)) == 0


def test_row_lattice_basis_determinant():
    basis = row_lattice_basis([[2, 0], [0, 2], [1, 1]])
    # Lattice generated by (2,0),(0,2),(1,1) has index 2 in Z^2.
    det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    assert abs(det) == 2


# -- ring constructors ---------------------------------------------------------


def test_regular_ring_basics():
    ring = ToricRing.regular(5, 2)
    assert ring.index == 1
    assert toric_fsig_exact(ring) == 1
    assert toric_splitting_number(ring, None, 1) == 25


def test_quotient_singularity_a1():
    ring = quotient_singularity(2, (1, 1), 3)
    assert ring.small
    assert ring.group_order == 2
    assert ring.index == 2
    assert toric_fsig_exact(ring) == Fraction(1, 2)


def test_quotient_rejects_p_dividing_n():
    with pytest.raises(ValueError, match="prime to p"):
        quotient_singularity(4, (1, 3), 2)


def test_quotient_rejects_noncoprime_weights():
    with pytest.raises(ValueError):
        quotient_singularity(4, (2, 2), 3)


def test_quotient_smallness_detection():
    # 1/4(1,2): the weight 2 element has j=2 with 2*2 = 0 mod 4: not small.
    ring = quotient_singularity(4, (1, 2), 3)
    assert not ring.small
    small = quotient_singularity(4, (1, 3), 3)
    assert small.small


def test_smallness_matches_the_element_loop():
    # Smallness depends only on the weights as a multiset, so sorted
    # tuples cover every weight tuple; the ring's flag is checked on the
    # smaller ones.
    for n in range(2, 41):
        for d in (1, 2, 3):
            for weights in itertools.combinations_with_replacement(range(n), d):
                if math.gcd(n, *weights) != 1:
                    continue
                small = brute_is_small(n, weights)
                assert _is_small(n, weights) == small, (n, weights)
                if n <= 12:
                    assert quotient_singularity(n, weights, 13).small == small, (n, weights)


def test_trivial_quotient_is_regular():
    ring = quotient_singularity(1, (1, 1), 5)
    assert ring.index == 1
    assert toric_fsig_exact(ring) == 1


def test_nonsimplicial_cone_rejected():
    with pytest.raises(SimplicialityError, match="3 rays in rank 2; only simplicial cones"):
        ToricRing(3, ((1, 0), (0, 1), (1, 1)))


@pytest.mark.parametrize("rays, message", [
    ((), "rays must be nonempty vectors of equal length"),
    (((1, 0), (1,)), "rays must be nonempty vectors of equal length"),
    (((1, 2), (2, 4)), "rays are linearly dependent; cone is not full-dimensional"),
    (((2, 0), (0, 1)), r"ray \(2, 0\) is not primitive"),
])
def test_ring_constructor_validates_the_cone(rays, message):
    with pytest.raises(ValueError, match=message):
        ToricRing(3, rays)


# -- splitting numbers against the independent count ---------------------------


def test_a1_window_counts():
    ring = quotient_singularity(2, (1, 1), 3)
    assert [toric_splitting_number(ring, None, e) for e in (1, 2, 3)] == [5, 41, 365]


def test_third_veronese_window_counts():
    ring = quotient_singularity(3, (1, 1), 5)
    assert [toric_splitting_number(ring, None, e) for e in (1, 2, 3)] == [8, 209, 5208]


def test_window_counts_match_invariant_monomials():
    # For a small cyclic quotient the free summands are counted by the
    # ambient congruence u.w = 0 mod n over the q-box, independently of
    # any lattice transform.
    for n, weights, p in [(2, (1, 1), 3), (3, (1, 1), 5), (4, (1, 3), 3),
                          (5, (1, 2), 3), (7, (1, 3), 2), (8, (1, 7), 3)]:
        ring = quotient_singularity(n, weights, p)
        for e in (1, 2):
            q = p**e
            assert toric_splitting_number(ring, None, e) == invariant_monomial_count(
                n, weights, q
            ), (n, weights, p, e)


def test_window_counts_match_brute_grid():
    for n, weights, p in [(3, (1, 1), 5), (4, (1, 3), 3)]:
        ring = quotient_singularity(n, weights, p)
        q = p**2
        assert toric_splitting_number(ring, None, 2) == brute_window_count(
            ring.normals, q
        )


def _assert_walk_matches_grid(ring, caps):
    """The walk's points equal the box filter's, column for column, and so does its count."""
    expected = brute_lattice_points(ring, caps)
    assert ring._lattice_points(caps, 10**7, "box too large").tolist() == expected.tolist(), caps
    assert ring._lattice_count(caps, 10**7, "box too large") == expected.shape[1], caps


CYCLIC_QUOTIENTS = [
    (n, weights)
    for d in (2, 3)
    for n in range(2, 12)
    for weights in itertools.combinations_with_replacement(range(n), d)
    if math.gcd(n, *weights) == 1
]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_walk_matches_grid_on_every_small_cyclic_quotient(p):
    for n, weights in CYCLIC_QUOTIENTS:
        if n % p:
            ring = quotient_singularity(n, weights, p)
            for e in (1, 2, 3) if p == 2 else (1, 2):
                _assert_walk_matches_grid(ring, [p**e - 1] * ring.d)


def test_walk_matches_grid_with_seeded_caps():
    rng = random.Random(16)
    for n, weights in rng.sample(CYCLIC_QUOTIENTS, 60):
        ring = quotient_singularity(n, weights, 7 if n % 7 else 3)
        for _ in range(3):
            _assert_walk_matches_grid(ring, [rng.choice([0, 0, 1, rng.randrange(30)]) for _ in range(ring.d)])


def test_walk_matches_grid_on_seeded_rays():
    rng = random.Random(1601)
    rings = 0
    while rings < 150:
        d = rng.choice([1, 2, 2, 3, 3])
        rays = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        if not all(any(r) and math.gcd(*r) == 1 for r in rays) or abs(brute_det(rays)) < 2:
            continue
        ring = ToricRing(3, rays)
        rings += 1
        _assert_walk_matches_grid(ring, [rng.randrange(13 if d == 3 else 40) for _ in range(d)])
        _assert_walk_matches_grid(ring, [rng.choice([0, 5]) for _ in range(d)])


def test_window_count_reaches_e6_on_a_rank_3_quotient():
    # a_6 = (729^3 + 6) / 7; the box of pairing values at e = 6 has 729^3 points
    ring = quotient_singularity(7, (1, 2, 4), 3)
    assert toric_splitting_number(ring, None, 5) == 2049843
    assert toric_splitting_number(ring, None, 6) == 55345785 == (729**3 + 6) // 7


def test_window_count_refuses_a_level_past_the_cap_before_building_it():
    ring = ToricRing.regular(3, 3)
    assert ring._lattice_count([4, 4, 4], 25, "too many") == 125
    with pytest.raises(ValueError, match="too many"):
        ring._lattice_count([4, 4, 4], 24, "too many")  # its second level holds 25
    plane = ToricRing.regular(3, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="window too large to enumerate"):
            toric_splitting_number(plane, None, 16)  # a first level of 3^16 > 20M
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_lattice_points_refuse_by_the_points_not_the_box():
    # 1/7(1,2,4): one pairing vector in 7 is a lattice point, so a box past the limit can pass
    ring = quotient_singularity(7, (1, 2, 4), 3)
    caps = [20, 20, 20]
    expected = brute_lattice_points(ring, caps)
    assert expected.shape[1] < 2000 < 21**3
    assert ring._lattice_points(caps, 2000, "too many").tolist() == expected.tolist()
    with pytest.raises(ValueError, match="too many"):
        ring._lattice_points(caps, expected.shape[1] - 1, "too many")


def test_window_count_checks_the_deadline_before_allocating():
    ring = quotient_singularity(7, (1, 2, 4), 3)
    assert ring._pairing_basis  # cached on the ring; built here, outside the measurement
    tracemalloc.start()
    try:
        with pytest.raises(TimeoutError):
            toric_splitting_number(ring, None, 7, deadline=time.monotonic() - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_exact_signature_is_limit_of_windows():
    # a_e/q^d must approach the exact value to within d/q.
    ring = quotient_singularity(5, (1, 3), 7)
    s = toric_fsig_exact(ring)
    assert s == Fraction(1, 5)
    q = 7**2
    approx = Fraction(toric_splitting_number(ring, None, 2), q**2)
    assert abs(approx - s) < Fraction(2, q)


def test_fsig_sequence_takes_window_counts_on_toric_ring():
    ring = quotient_singularity(3, (1, 1), 5)
    delta = TorusQDivisor.of(["1/2", 0])
    seq = fsig_sequence(ring, delta, e_max=2)
    assert [r.a_e for r in seq.records] == [toric_splitting_number(ring, delta, e) for e in (1, 2)]
    assert [r.normalized for r in seq.records] == [Fraction(5, 25), Fraction(109, 625)]
    assert seq.note.startswith("window counts")


# -- certificates ---------------------------------------------------------------


def test_certificates_audit_a1():
    ring = quotient_singularity(2, (1, 1), 3)
    certs = toric_splitting_certificates(ring, None, 1, include_obstructions=True)
    assert len(certs) == 9  # |M/qM| = q^d classes
    free = [c for c in certs if c.free]
    assert len(free) == 5
    for cert in free:
        assert cert.witness is not None
        pairing = ring.pairing(cert.witness)
        assert all(0 <= v <= cert.q - 1 for v in pairing)
    for cert in certs:
        if not cert.free:
            assert cert.obstruction is not None


def test_certificate_obstruction_pairs_incomparable():
    ring = quotient_singularity(3, (1, 1), 5)
    certs = toric_splitting_certificates(ring, None, 1, include_obstructions=True)
    for cert in certs:
        if cert.free:
            continue
        m1, m2 = cert.obstruction
        p1, p2 = ring.pairing(m1), ring.pairing(m2)
        assert all(v >= 0 for v in p1) and all(v >= 0 for v in p2)
        # Neither dominates the other coordinatewise: no single splitting
        # monomial can clear both.
        assert any(a < b for a, b in zip(p1, p2))
        assert any(a > b for a, b in zip(p1, p2))


def test_certificate_count_matches_number():
    ring = quotient_singularity(4, (1, 3), 5)
    certs = toric_splitting_certificates(ring, None, 1)
    assert sum(1 for c in certs if c.counted) == toric_splitting_number(ring, None, 1)


AUDIT_QUOTIENTS = [
    (n, (a, b), p)
    for p in (2, 3, 5, 7)
    for n in range(2, 9)
    if n % p
    for a in range(1, n)
    for b in range(a, n)
    if math.gcd(n, a, b) == 1
] + [(7, (1, 2, 4), 3), (3, (1, 1, 1), 5), (5, (1, 2, 3), 2)]


def _audit_box(ring, q):
    """Pairing caps q*D_F - 1, D_F the least t > 0 with t*e_F a pairing vector."""
    return [q * (ring.index // math.gcd(ring.index, *col)) - 1 for col in zip(*ring._adj)]


def _class_minima(ring, q, caps):
    """Residue -> sorted minimal elements of its points in the box, by pairwise comparison.

    Each class's minimal elements by increasing pairing total
    (``_minimal_elements``), from its points in a shuffled order, must be
    the same.
    """
    rng = random.Random(q)
    classes = {}
    for c in map(tuple, ring._lattice_points(caps, 10**7, "box too large").T.tolist()):
        classes.setdefault(tuple(x % q for x in c), []).append(c)
    minima = {}
    for residue, points in classes.items():
        minima[residue] = sorted(brute_minimal_elements(ring, points))
        members = [(c, ring.pairing(c)) for c in points]
        rng.shuffle(members)
        assert sorted(_minimal_elements(members)) == minima[residue], residue
    return minima


def _checked_audit(ring, e):
    """The class audit, after checking every class, witness and obstruction pair."""
    q = ring.p**e
    certs = toric_splitting_certificates(ring, None, e, include_obstructions=True)
    assert sorted(c.residue for c in certs) == list(itertools.product(range(q), repeat=ring.d))
    for cert in certs:
        members = [cert.witness] if cert.free else list(cert.obstruction)
        for m in members:
            assert tuple(x % q for x in m) == cert.residue
            assert all(y >= 0 for y in ring.pairing(m))
        if cert.free:
            assert all(y <= q - 1 for y in ring.pairing(cert.witness))
        else:
            p1, p2 = map(ring.pairing, cert.obstruction)
            assert any(a < b for a, b in zip(p1, p2)) and any(a > b for a, b in zip(p1, p2))
            assert list(cert.region_bound) == _audit_box(ring, q)
    return certs


@pytest.mark.parametrize("n, weights, p", AUDIT_QUOTIENTS,
                         ids=[f"1/{n}({','.join(map(str, w))})-p{p}" for n, w, p in AUDIT_QUOTIENTS])
def test_class_audit_box_holds_every_minimal_element(n, weights, p):
    ring = quotient_singularity(n, weights, p)
    certs = _checked_audit(ring, 1)
    box = _audit_box(ring, p)
    minima = _class_minima(ring, p, box)
    assert _class_minima(ring, p, [2 * b + 1 for b in box]) == minima
    for cert in certs:
        if cert.free:
            assert minima[cert.residue] == [cert.witness]
        else:
            assert minima[cert.residue][:2] == list(cert.obstruction)


def test_class_audit_at_e2():
    ring = quotient_singularity(7, (1, 2, 4), 3)
    certs = _checked_audit(ring, 2)
    assert len(certs) == 729
    assert sum(c.free for c in certs) == 105


# -- divisors -------------------------------------------------------------------


def test_pair_divisor_shrinks_window():
    ring = quotient_singularity(3, (1, 1), 5)
    delta = TorusQDivisor.of([Fraction(1, 2), Fraction(0)])
    with_pair = toric_splitting_number(ring, delta, 1)
    without = toric_splitting_number(ring, None, 1)
    assert with_pair < without
    s_pair = toric_fsig_exact(ring, delta)
    assert s_pair == Fraction(1, 2) * Fraction(1, 3)


def test_pair_range_validation():
    ring = quotient_singularity(3, (1, 1), 5)
    bad = TorusQDivisor.of([Fraction(3, 2), Fraction(0)])
    with pytest.raises(ValueError):
        toric_splitting_number(ring, bad, 1)
    negative = TorusQDivisor.of([Fraction(-1, 2), Fraction(0)])
    with pytest.raises(ValueError):
        toric_fsig_exact(ring, negative)


def test_degenerate_pair_gives_zero():
    # t >= 1 on a facet kills strong F-regularity: the volume is zero.
    ring = quotient_singularity(3, (1, 1), 5)
    delta = TorusQDivisor.of([Fraction(1), Fraction(1)])
    assert toric_fsig_exact(ring, delta) == 0


def test_divisor_arithmetic():
    a = TorusQDivisor.of([1, 2])
    b = TorusQDivisor.of([Fraction(1, 2), 0])
    assert list((a - b).coefficients) == [Fraction(1, 2), Fraction(2)]
    assert (a - a).is_zero()
    assert is_effective(a)
    assert not is_effective(b - a)


# -- Hilbert bases ----------------------------------------------------------------


def test_hilbert_basis_a1():
    ring = quotient_singularity(2, (1, 1), 3)
    gens = ring.hilbert_basis()
    assert set(gens) == {(2, 0), (1, 1), (0, 2)}


def test_hilbert_basis_quarter_1_3():
    # 1/4(1,3) is the A_3 double point: xy is already invariant.
    ring = quotient_singularity(4, (1, 3), 3)
    gens = ring.hilbert_basis()
    assert set(gens) == {(4, 0), (1, 1), (0, 4)}
    assert set(gens) == brute_invariant_hilbert_basis(4, (1, 3), degree_bound=12)


def test_hilbert_basis_quarter_veronese():
    # 1/4(1,1): all five quartics are needed.
    ring = quotient_singularity(4, (1, 1), 3)
    gens = ring.hilbert_basis()
    assert set(gens) == {(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)}
    assert set(gens) == brute_invariant_hilbert_basis(4, (1, 1), degree_bound=12)


def test_hilbert_basis_brute_force_matrix():
    for n, weights in [(3, (1, 1)), (5, (1, 2)), (5, (1, 4)), (6, (1, 5)), (8, (1, 7)),
                       (7, (1, 3)), (8, (1, 3)), (8, (3, 5))]:
        p = 11 if n % 11 else 13
        ring = quotient_singularity(n, weights, p)
        gens = ring.hilbert_basis()
        assert set(gens) == brute_invariant_hilbert_basis(
            n, weights, degree_bound=2 * n + 2
        ), (n, weights)


def test_hilbert_basis_members_are_invariant():
    ring = quotient_singularity(8, (3, 5), 7)
    gens = ring.hilbert_basis()
    rays = ring.extreme_rays()
    heights = [ring.pairing(r)[i] for i, r in enumerate(rays)]
    for u in gens:
        assert (3 * u[0] + 5 * u[1]) % 8 == 0
        c = ring.intrinsic_from_ambient(u)
        # an extreme ray, or a point of the fundamental parallelepiped
        assert c in rays or all(0 <= y < h for y, h in zip(ring.pairing(c), heights)), c


# -- exact volumes ------------------------------------------------------------------


def test_exact_signature_quotient_family():
    for n in range(2, 9):
        for weights in ((1, n - 1), (1, 1)):
            if weights == (1, n - 1) and n == 2:
                continue
            try:
                ring = quotient_singularity(n, weights, 11 if n % 11 else 13)
            except ValueError:
                continue
            if ring.small:
                assert toric_fsig_exact(ring) == Fraction(1, n), (n, weights)


def test_pair_volume_formula():
    # s(R, Delta) = prod(1 - t_F)/|det A| on a simplicial cone.
    ring = quotient_singularity(3, (1, 2), 5)
    delta = TorusQDivisor.of([Fraction(1, 4), Fraction(1, 3)])
    assert toric_fsig_exact(ring, delta) == Fraction(3, 4) * Fraction(2, 3) / 3
