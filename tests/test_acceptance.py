"""Acceptance gate: eight numbered criteria, one PASS/FAIL line each.

Each criterion records its verdict in RESULTS; after the module runs, a
summary line per criterion is written to the real stderr so it survives
output capture.  Criterion 1's extrapolation clause targets the stated
reference value 3/4; the computed limit of the sequence is 2/3, so that
clause fails and is marked strict-xfail rather than silently weakened.
A companion test pins the computed limit exactly.
"""

import itertools
import random
from fractions import Fraction

import pytest

from fsig.bounds import etale_cover_search, pi1_order_bound, purity_check
from fsig.covers import (
    chain_simulation,
    compose_covers,
    count_trace_summands,
    pullback_divisor,
    quotient_cover,
    root_cover,
    verify_note_trace,
    verify_transformation,
)
from fsig.frobenius import (
    PairDivisor,
    RingPresentation,
    ctrick_gap_sequence,
    fsig_sequence,
    rounding_gap_check,
    splitting_number,
)
from fsig.poly import Polynomial, parse_polynomial
from fsig.toric import (
    TorusQDivisor,
    quotient_singularity,
    toric_fsig_exact,
    toric_splitting_number,
)

RESULTS = {}

CRITERIA = {
    1: "quadric sequence: monotone-consistent, e=3 within 0.1 and "
       "extrapolation within 0.02 of the stated 3/4",
    2: "transformation rule exact on every chain step of the small "
       "quotient matrix (n <= 8, p in {3,5,7})",
    3: "pairs rule exact on root covers n in {2,3}, p in {5,7}, "
       "with s(R, Delta) = 1/n confirmed by the sequence backend",
    4: "pi1 order bound tight on 1/n(1,1) for n = 2..6",
    5: "doubling inequality on every non-etale step, equality at A1",
    6: "purity: no nontrivial etale-in-codim-1 cover above s > 1/2, "
       "one found at the s = 1/2 boundary",
    7: "cross-backend equality toric vs colon route for A_{n-1}",
    8: "lemma suite: rounding, shrinking gaps, tower additivity, "
       "traces, summand counts",
}


def record(criterion, ok, detail=""):
    previous = RESULTS.get(criterion)
    if previous is not None and previous[0] == "FAIL":
        ok = False
    RESULTS[criterion] = ("PASS" if ok else "FAIL", detail or CRITERIA[criterion])


def summary_lines():
    """One PASS/FAIL line per criterion; conftest prints them after the run."""
    lines = []
    for k in sorted(CRITERIA):
        status, detail = RESULTS.get(k, ("FAIL", "criterion did not run"))
        lines.append(f"CRITERION {k}: {status} - {detail}")
    return lines


# -- criterion 1: the quadric threefold point ---------------------------------


@pytest.fixture(scope="module")
def quadric_sequence():
    f = parse_polynomial("x0^2 + x1^2 + x2^2 + x3^2", 3, 4)
    ring = RingPresentation.hypersurface(f)
    return fsig_sequence(ring, e_max=3)


def test_criterion_1_sequence_values(quadric_sequence):
    # a_e = (2q^3 + q)/3, pinned before any tolerance talk.
    assert [r.a_e for r in quadric_sequence.records] == [19, 489, 13131]
    for r in quadric_sequence.records:
        assert r.a_e == (2 * r.q**3 + r.q) // 3


def test_criterion_1_monotone_consistent_and_e3_clause(quadric_sequence):
    seq = quadric_sequence
    reference = Fraction(3, 4)
    ok = (
        seq.monotone
        and seq.consistent
        and abs(seq.last - reference) <= Fraction(1, 10)
    )
    record(1, ok, f"e=3 value {float(seq.last):.5f} vs 3/4 (within 0.1), "
                  f"monotone={seq.monotone}, consistent={seq.consistent}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="extrapolation converges to 2/3, not to the stated 3/4; "
           "the companion test pins the computed limit",
)
def test_criterion_1_extrapolation_clause(quadric_sequence):
    seq = quadric_sequence
    gap = abs(seq.extrapolated - Fraction(3, 4))
    record(
        1,
        gap <= Fraction(1, 50),
        f"monotone/consistent/e=3-within-0.1 clauses pass; extrapolation "
        f"{float(seq.extrapolated):.5f} vs stated 3/4 misses by "
        f"{float(gap):.4f} > 0.02 because the computed limit is 2/3 "
        f"(gap {float(abs(seq.extrapolated - Fraction(2, 3))):.5f})",
    )
    assert gap <= Fraction(1, 50)


def test_criterion_1_companion_computed_limit(quadric_sequence):
    # The same sequence extrapolates to within 1/q^2 of 2/3 and the
    # exact window count of the matching quotient model agrees.
    seq = quadric_sequence
    assert abs(seq.extrapolated - Fraction(2, 3)) < Fraction(1, 500)
    assert seq.extrapolated == Fraction(485, 729)


# -- criterion 2: transformation rule on the quotient matrix -------------------


def small_quotient_matrix():
    for n in range(2, 9):
        coprime = [w for w in range(1, n) if _gcd(w, n) == 1]
        for a, b in itertools.product(coprime, repeat=2):
            for p in (3, 5, 7):
                if n % p == 0:
                    continue
                yield n, (a, b), p


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_criterion_2_transformation_exact_on_chains():
    checked = 0
    for n, weights, p in small_quotient_matrix():
        ring = quotient_singularity(n, weights, p)
        assert ring.small
        chain = chain_simulation(ring)
        assert chain.ok, (n, weights, p)
        for step in chain.steps:
            report = verify_transformation(step)
            assert report.ok, (n, weights, p, step.degree)
            assert report.exact
            # f * s(S) = [L:K] * s(R) as exact rationals.
            assert report.residue_degree * report.s_upper == (
                report.degree * report.s_lower
            )
            checked += 1
    record(2, True, f"{checked} chain steps verified exactly")
    assert checked > 100


# -- criterion 3: pairs rule on root covers -------------------------------------


def test_criterion_3_pairs_rule_root_covers():
    details = []
    ok = True
    for n, p in itertools.product((2, 3), (5, 7)):
        cover = root_cover(2, 0, n, p)
        t = Fraction(n - 1, n)
        delta = TorusQDivisor.of([t, Fraction(0)])
        report = verify_transformation(cover, delta)
        ok = ok and report.ok and report.exact
        assert report.ok, (n, p)
        assert report.s_lower == Fraction(1, n)
        assert report.delta_upper.is_zero()

        # Independent confirmation through the colon/rank route at e = 3.
        ring = RingPresentation.regular(p, 2, names=("x", "y"))
        x = parse_polynomial("x", p, 2, names=("x", "y"))
        pair = PairDivisor.of([(x, t)])
        q = p**3
        a3 = splitting_number(ring, pair, 3)
        value = Fraction(a3, q**2)
        gap = abs(value - Fraction(1, n))
        assert gap <= Fraction(1, q), (n, p, value)
        details.append(f"n={n},p={p}: |{value} - 1/{n}| = {gap} <= 1/{q}")
    record(3, ok, "; ".join(details[:2]) + "; ...")
    assert ok


def test_criterion_3_frozen_sequence_values():
    # The e = 3 normalized values behind the 1/q tolerance, pinned.
    expected = {
        (2, 5): Fraction(63, 125),
        (2, 7): Fraction(172, 343),
        (3, 5): Fraction(42, 125),
        (3, 7): Fraction(115, 343),
    }
    for (n, p), value in expected.items():
        ring = RingPresentation.regular(p, 2, names=("x", "y"))
        x = parse_polynomial("x", p, 2, names=("x", "y"))
        pair = PairDivisor.of([(x, Fraction(n - 1, n))])
        q = p**3
        assert Fraction(splitting_number(ring, pair, 3), q**2) == value


# -- criterion 4: pi1 bound tightness ---------------------------------------------


def test_criterion_4_pi1_tightness():
    ok = True
    for n in range(2, 7):
        p = {2: 3, 3: 5, 4: 3, 5: 3, 6: 7}[n]
        ring = quotient_singularity(n, (1, 1), p)
        report = pi1_order_bound(ring)
        ok = ok and report.exact and report.bound == n and bool(report.attained)
        assert report.bound == n
        assert report.attained, n
        degrees = [c.degree for c in etale_cover_search(ring)]
        assert n in degrees
        assert all(d % p != 0 for d in degrees), (n, p, degrees)
    record(4, ok, "floor(1/s) = n attained by a degree-n cover, n = 2..6, "
                  "all admissible degrees prime to p")
    assert ok


# -- criterion 5: doubling --------------------------------------------------------


def test_criterion_5_doubling_on_all_chains():
    from fsig.covers import doubling_check

    checked = 0
    equality_seen = False
    for n, weights, p in small_quotient_matrix():
        ring = quotient_singularity(n, weights, p)
        chain = chain_simulation(ring)
        for step in chain.steps:
            if step.degree == 1 or not step.etale_in_codim1:
                continue
            report = doubling_check(step)
            assert report.ok, (n, weights, p)
            assert report.s_upper >= 2 * report.s_lower
            checked += 1
    # A1 inside the regular plane: equality.
    a1 = quotient_cover(quotient_singularity(2, (1, 1), 3), 1)
    report = doubling_check(a1)
    equality_seen = report.ok and report.equality
    assert equality_seen
    record(5, checked > 0 and equality_seen,
           f"{checked} non-etale steps satisfy s(S) >= 2 s(R); A1 attains equality")


# -- criterion 6: purity ------------------------------------------------------------


def test_criterion_6_purity_thresholds():
    searched = 0
    for n, weights, p in small_quotient_matrix():
        ring = quotient_singularity(n, weights, p)
        verdict = purity_check(ring)
        s = toric_fsig_exact(ring)
        if s > Fraction(1, 2):
            assert verdict.forced
            assert not verdict.covers_found, (n, weights, p)
        searched += 1
    # Regular ring: s = 1 > 1/2, nothing above it.
    regular = quotient_singularity(1, (1, 1), 5)
    verdict = purity_check(regular)
    assert verdict.forced and not verdict.covers_found
    # Boundary: A1 has s = 1/2 exactly and admits the degree-2 cover.
    a1 = quotient_singularity(2, (1, 1), 5)
    boundary = purity_check(a1)
    assert not boundary.forced
    assert boundary.boundary_case
    assert boundary.admits_nontrivial_etale_cover
    record(6, True, f"{searched} rings searched; no cover above s > 1/2; "
                    "A1 boundary admits its double cover")


# -- criterion 7: cross-backend oracle ------------------------------------------------


FROZEN_CROSS_BACKEND = {
    (2, 3): [5, 41, 365],
    (2, 5): [13, 313, 7813],
    (3, 5): [9, 209, 5209],
}


def test_criterion_7_cross_backend_equality():
    ok = True
    for (n, p), frozen in FROZEN_CROSS_BACKEND.items():
        toric_ring = quotient_singularity(n, (1, n - 1), p)
        f = parse_polynomial(f"x*y - z^{n}", p, 3, names=("x", "y", "z"))
        hyper = RingPresentation.hypersurface(f, names=("x", "y", "z"))
        for e in (1, 2, 3):
            lattice = toric_splitting_number(toric_ring, None, e)
            colon = splitting_number(hyper, None, e)
            ok = ok and lattice == colon == frozen[e - 1]
            assert lattice == colon == frozen[e - 1], (n, p, e, lattice, colon)
    record(7, ok, "toric = colon route on A_1, A_2 at p in {3,5}, e <= 3")
    assert ok


# -- criterion 8: lemma-level property suites ------------------------------------------


def test_criterion_8_rounding_comparison_sampled():
    rng = random.Random(2026)
    x = Polynomial.variable(0, 5, 1)
    checked = 0
    for _ in range(200):
        den = rng.randint(1, 40)
        num = rng.randint(0, den - 1)
        t = Fraction(num, den)
        p = rng.choice((2, 3, 5, 7))
        e = rng.randint(1, 4)
        comp = Polynomial.variable(0, p, 1)
        delta = PairDivisor.of([(comp, t)])
        report = rounding_gap_check(delta, e, p)
        assert report.passed, (t, p, e)
        checked += 1
    assert checked == 200
    record(8, True)


def test_criterion_8_ctrick_gaps_shrink():
    f = parse_polynomial("x*y - z^2", 3, 3, names=("x", "y", "z"))
    ring = RingPresentation.hypersurface(f, names=("x", "y", "z"))
    c = parse_polynomial("x", 3, 3, names=("x", "y", "z"))
    gaps = ctrick_gap_sequence(ring, c, 3)
    ok = all(a >= b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < Fraction(2, 27)
    record(8, ok)
    assert ok


def test_criterion_8_tower_additivity():
    towers = 0
    for n, weights, p in small_quotient_matrix():
        ring = quotient_singularity(n, weights, p)
        chain = chain_simulation(ring)
        for first, second in zip(chain.steps, chain.steps[1:]):
            tower = compose_covers(first, second)
            recomputed = second.ram + pullback_divisor(second, first.ram)
            assert list(tower.ram.coefficients) == list(recomputed.coefficients)
            towers += 1
    # A branched 2-step tower exercises the nonzero case.
    first = root_cover(2, 0, 2, 7)
    second = root_cover(2, 0, 2, 7)
    tower = compose_covers(first, second)
    recomputed = second.ram + pullback_divisor(second, first.ram)
    assert list(tower.ram.coefficients) == list(recomputed.coefficients)
    record(8, towers > 0)
    assert towers > 0


def test_criterion_8_traces_and_summands():
    covers = [
        quotient_cover(quotient_singularity(2, (1, 1), 3), 1),
        quotient_cover(quotient_singularity(8, (1, 7), 3), 4),
        quotient_cover(quotient_singularity(8, (1, 7), 3), 2),
        quotient_cover(quotient_singularity(6, (1, 5), 7), 3),
        root_cover(2, 0, 2, 7),
        root_cover(2, 1, 3, 5),
        root_cover(2, 0, 5, 5, allow_wild=True),
    ]
    ok = True
    for cover in covers:
        trace_report = verify_note_trace(cover)
        assert trace_report.ok
        summands = count_trace_summands(cover)
        if cover.trace.is_surjective():
            assert summands == 1
        else:
            assert summands == 0
        ok = ok and trace_report.ok
    record(8, ok, "rounding x200, gaps shrink below 2/q, tower additivity, "
                  "Tr(n) in m on all covers, summand counts")
    assert ok
