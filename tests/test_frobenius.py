"""Splitting-number sequences, pair twists, and the lemma-level checks."""

import math
import time
from fractions import Fraction

import pytest

from fsig import frobenius
from fsig.frobenius import (
    CEIL_PE_MINUS_1,
    FLOOR_PE,
    BudgetExceeded,
    PairDivisor,
    RingPresentation,
    SplittingRecord,
    ctrick_gap_sequence,
    fsig_sequence,
    fsig_value,
    hk_length_sequence,
    perturbed_limit_check,
    rounding_gap_check,
    sequence_diagnostics,
    sfr_witness,
    splitting_ideal,
    splitting_number,
    _twist,
)
from fsig.ideals import Ideal, quotient_length
from fsig.linalg import find_positive_weights
from fsig.poly import Polynomial, parse_polynomial
from fsig.toric import quotient_singularity

from _oracles import brute_colon_complement_length


def a1_surface(p=3):
    f = parse_polynomial("x*y - z^2", p, 3, names=("x", "y", "z"))
    return RingPresentation.hypersurface(f, names=("x", "y", "z"))


@pytest.mark.parametrize("backend", ["auto", "toric", "sequence"])
@pytest.mark.parametrize("kind", ["quotient", "hypersurface"])
def test_fsig_value_dispatch(kind, backend):
    # The A_1 point as the quotient 1/2(1,1) and as x*y - z^2, both at p = 3.
    ring = quotient_singularity(2, (1, 1), 3) if kind == "quotient" else a1_surface()
    if kind == "hypersurface" and backend == "toric":
        with pytest.raises(ValueError, match="^backend=toric requires a toric or quotient ring$"):
            fsig_value(ring, backend=backend)
        return
    value = fsig_value(ring, backend=backend, e_max=2)
    if kind == "quotient" and backend != "sequence":
        assert value.exact and value.sequence is None
        assert value.s == Fraction(1, 2) and value.interval == (value.s, value.s)
        return
    seq = value.sequence
    assert not value.exact
    assert [r.a_e for r in seq.records] == [r.a_e for r in fsig_sequence(ring, e_max=2).records]
    assert [r.a_e for r in seq.records] == [5, 41]
    assert value.s == seq.extrapolated == Fraction(13, 27)
    assert value.interval == (Fraction(13, 27), Fraction(41, 81))
    assert seq.note.startswith("window counts") == (kind == "quotient")


def test_fsig_value_single_record_and_unknown_backend():
    value = fsig_value(a1_surface(), e_max=1)
    assert value.s == Fraction(5, 9) and value.interval == (value.s, value.s)
    with pytest.raises(ValueError, match="unknown backend"):
        fsig_value(a1_surface(), backend="lattice")


def test_a1_splitting_numbers():
    # a_e = (q^2 + 1)/2 for the quadric cone surface point at p = 3.
    ring = a1_surface()
    assert [splitting_number(ring, None, e) for e in (1, 2, 3)] == [5, 41, 365]


def test_a1_colon_route_agrees():
    ring = a1_surface()
    for e in (1, 2):
        assert splitting_number(ring, None, e, method="colon") == splitting_number(
            ring, None, e
        )


def test_colon_route_rejects_infinite_length(monkeypatch):
    # a typed error rather than an assert, so the check survives python -O
    monkeypatch.setattr("fsig.frobenius.quotient_length", lambda ideal: math.inf)
    with pytest.raises(ValueError):
        splitting_number(a1_surface(), None, 1, method="colon")


def test_a1_brute_force_agrees():
    ring = a1_surface()
    q = 3
    g = ring.f ** (q - 1)
    assert splitting_number(ring, None, 1) == brute_colon_complement_length(g, q)


def test_a1_sequence_diagnostics():
    # a_e/q^2 = 1/2 + 1/(2q^2): the 1/q-model extrapolation lands within
    # 1/q^2 of the true limit but never claims exactness.
    seq = fsig_sequence(a1_surface(), e_max=3)
    assert seq.last == Fraction(365, 729)
    assert seq.extrapolated == Fraction(121, 243)
    assert abs(seq.extrapolated - Fraction(1, 2)) < Fraction(1, 243)
    assert seq.consistent
    assert seq.monotone
    assert seq.estimate == Fraction(121, 243)
    assert "estimate" in seq.note


def test_regular_ring_sequence_is_constant_one():
    ring = RingPresentation.regular(5, 2)
    seq = fsig_sequence(ring, e_max=2)
    assert [r.normalized for r in seq.records] == [Fraction(1), Fraction(1)]
    assert [r.a_e for r in seq.records] == [25, 625]


def test_regular_pair_half_divisor():
    # Delta = (1/2) div(x) on GF(5)[x, y]: a_e = (q - floor(q/2)) * q.
    ring = RingPresentation.regular(5, 2, names=("x", "y"))
    x = parse_polynomial("x", 5, 2, names=("x", "y"))
    delta = PairDivisor.of([(x, Fraction(1, 2))])
    seq = fsig_sequence(ring, delta, e_max=2)
    assert [r.a_e for r in seq.records] == [15, 325]
    assert seq.extrapolated == Fraction(1, 2)


def test_pair_conventions_differ_only_in_rounding():
    ring = RingPresentation.regular(5, 2, names=("x", "y"))
    x = parse_polynomial("x", 5, 2, names=("x", "y"))
    floor_pair = PairDivisor.of([(x, Fraction(1, 2))], convention=FLOOR_PE)
    ceil_pair = PairDivisor.of([(x, Fraction(1, 2))], convention=CEIL_PE_MINUS_1)
    q = 5
    assert list(floor_pair.exponents(q)) == [2]   # floor(5/2)
    assert list(ceil_pair.exponents(q)) == [2]    # ceil(4/2)
    q = 25
    assert list(floor_pair.exponents(q)) == [12]
    assert list(ceil_pair.exponents(q)) == [12]
    third_floor = PairDivisor.of([(x, Fraction(1, 3))], convention=FLOOR_PE)
    third_ceil = PairDivisor.of([(x, Fraction(1, 3))], convention=CEIL_PE_MINUS_1)
    assert list(third_floor.exponents(25)) == [8]  # floor(25/3)
    assert list(third_ceil.exponents(25)) == [8]   # ceil(24/3)
    # The conventions genuinely differ when frac(q*t) > t.
    fifth_floor = PairDivisor.of([(x, Fraction(1, 5))], convention=FLOOR_PE)
    fifth_ceil = PairDivisor.of([(x, Fraction(1, 5))], convention=CEIL_PE_MINUS_1)
    assert list(fifth_floor.exponents(3)) == [0]   # floor(3/5)
    assert list(fifth_ceil.exponents(3)) == [1]    # ceil(2/5)


def test_pair_rejects_unknown_convention():
    x = parse_polynomial("x0", 5, 1)
    with pytest.raises(ValueError):
        PairDivisor(((x, Fraction(1, 2)),), convention="round_nearest")


def test_pair_coefficient_range():
    x = parse_polynomial("x0", 5, 1)
    with pytest.raises(ValueError):
        PairDivisor.of([(x, Fraction(-1, 2))])


def test_rounding_gap_check_inequality_and_forced_equality():
    x = parse_polynomial("x0", 5, 1)
    delta = PairDivisor.of([(x, Fraction(1, 2))])
    report = rounding_gap_check(delta, 2, 5)
    assert report.passed
    assert report.floor_exponents <= report.ceil_exponents
    # (q-1)*t integral at q = 25, t = 1/2: the conventions must agree.
    assert report.forced_equalities == (True,)
    assert report.equalities == (True,)


def test_ctrick_gap_nonincreasing_and_small():
    # Multiplying the twist by c = x shrinks rank by O(q^{d-1}).
    ring = a1_surface()
    c = parse_polynomial("x", 3, 3, names=("x", "y", "z"))
    gaps = ctrick_gap_sequence(ring, c, 3)
    assert gaps[0] == Fraction(1, 3)
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert all(g >= 0 for g in gaps)
    assert gaps[-1] < Fraction(2, 3**3)


def test_ctrick_rejects_zero_divisor_of_ring():
    ring = a1_surface()
    with pytest.raises(ValueError):
        ctrick_gap_sequence(ring, ring.f, 2)


def test_hilbert_kunz_lengths():
    # lambda(R/m^[q]) = (3q^2 - 1)/2 for the quadric cone surface at p = 3.
    ring = a1_surface()
    ideal = ring.maximal_ideal()
    values = hk_length_sequence(ring, ideal, 3)
    expected = [Fraction(13, 9), Fraction(121, 81), Fraction(1093, 729)]
    assert values == expected


def test_sfr_witness_immediate_for_f_pure():
    ring = a1_surface()
    c = parse_polynomial("z", 3, 3, names=("x", "y", "z"))
    witness = sfr_witness(ring, c)
    assert witness.conclusive
    assert witness.e == 1


def test_sfr_witness_inconclusive_is_not_negative():
    # f = x^3 + y^3 + z^3 at p = 3 is not F-pure; no witness exists for c = x.
    f = parse_polynomial("x^3 + y^3 + z^3", 3, 3, names=("x", "y", "z"))
    ring = RingPresentation.hypersurface(f, names=("x", "y", "z"))
    witness = sfr_witness(ring, parse_polynomial("x", 3, 3, names=("x", "y", "z")), e_max=2)
    assert not witness.conclusive
    assert witness.searched_up_to == 2


def test_degenerate_hypersurface_all_splittings_vanish():
    f = parse_polynomial("x^3", 3, 2, names=("x", "y"))
    ring = RingPresentation.hypersurface(f, names=("x", "y"))
    assert ring.is_degenerate()
    assert not ring.is_f_pure()
    assert splitting_number(ring, None, 1) == 0


def test_f_purity_of_a1():
    ring = a1_surface()
    assert ring.is_f_pure()
    assert not ring.is_degenerate()


def test_budget_exceeded_carries_partial_records():
    ring = a1_surface()
    with pytest.raises(BudgetExceeded) as err:
        fsig_sequence(ring, e_max=6, deadline=time.monotonic() - 1)
    assert err.value.records == []


def test_budget_checked_between_graded_blocks(monkeypatch):
    # The clock passes the deadline once e = 2 starts its rank, so only the
    # check before each graded block can stop that level; e = 1 is kept.
    clock = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    real_rank = frobenius.multiplication_rank

    def rank_past_deadline(g, caps, *args, **kwargs):
        if caps[0] == 9:
            clock[0] = 2.0
        return real_rank(g, caps, *args, **kwargs)

    monkeypatch.setattr(frobenius, "multiplication_rank", rank_past_deadline)
    with pytest.raises(BudgetExceeded, match="during e = 2") as err:
        fsig_sequence(a1_surface(), e_max=3, deadline=1.0)
    assert [r.a_e for r in err.value.records] == [5]


def test_splitting_ideal_length_matches_number():
    ring = a1_surface()
    for e in (1, 2):
        ideal = splitting_ideal(ring, None, e)
        assert quotient_length(ideal) == splitting_number(ring, None, e)


def test_sequence_diagnostics_two_point_formula():
    # Hand-built records with a_e/q^d = s + c/q must extrapolate to s.
    s, c = Fraction(1, 3), Fraction(2, 7)
    records = []
    for e in (1, 2, 3):
        q = 5**e
        val = s + c / q
        records.append(SplittingRecord(e, q, 0, val))
    extrapolated, consistent, monotone = sequence_diagnostics(records)
    assert extrapolated == s
    assert consistent
    assert monotone


def test_dimension_attribute():
    assert RingPresentation.regular(5, 2).d == 2
    assert a1_surface().d == 2


def test_perturbed_limit_check_runs():
    # A fixed integer divisor perturbs a_e by at most O(q^{d-1}).
    ring = a1_surface()
    z = parse_polynomial("z", 3, 3, names=("x", "y", "z"))
    extra = PairDivisor.of([(z, Fraction(1))])
    report = perturbed_limit_check(ring, None, extra, e_max=3)
    assert report.passed
    assert all(g >= 0 for g in report.gaps)
    assert report.gaps[-1] <= report.threshold


@pytest.mark.parametrize(
    "f, p, e, pair, extra",
    [
        ("x*y + y*z + z*x", 7, 2, (), None),
        ("x^2 + y^3 + z^5", 11, 2, (), None),
        ("x*y - z^3", 5, 2, (), None),
        ("x*y - z^2", 3, 3, (("x + z", "1/3"),), None),
        ("x*y - z^2", 7, 2, (("x + z", "1/3"),), None),
        ("x*y - z^2", 5, 2, (("x + y + z", "1/2"),), None),
        ("x*y - z^2", 3, 2, (("x + y^2", "1/2"),), None),
        ("x*y - z^2", 3, 3, (), "z"),
        ("x*y - z^2", 3, 3, (), "x + y"),
        ("x*y - z^2", 5, 2, (), "x + y"),
        ("x^2 + y^3 + x*y", 3, 1, (), None),
    ],
)
def test_twist_weights_come_from_its_factors(f, p, e, pair, extra):
    # The colon route grades the twist by the weights of its factors (and
    # of the c-trick or perturbation factor); they must be the weights of
    # the product itself, None included.
    names = ("x", "y", "z")
    ring = RingPresentation.hypersurface(parse_polynomial(f, p, 3, names=names), names=names)
    delta = PairDivisor.of(
        [(parse_polynomial(g, p, 3, names=names), Fraction(t)) for g, t in pair]
    )
    _, g, factors = _twist(ring, delta, e)
    if extra is not None:
        h = parse_polynomial(extra, p, 3, names=names)
        g, factors = g * h, factors + (h,)
    assert find_positive_weights(*factors) == find_positive_weights(g)
