"""Splitting-number sequences, pair twists, and the lemma-level checks."""

import math
import time
from fractions import Fraction

import pytest

from fsig import frobenius, toric
from fsig.bounds import pi1_order_bound, purity_check
from fsig.frobenius import (
    CEIL_PE_MINUS_1,
    FLOOR_PE,
    BudgetExceeded,
    LevelRefused,
    PairDivisor,
    RingPresentation,
    SplittingRecord,
    ctrick_gap_sequence,
    fsig_sequence,
    fsig_value,
    hk_length_sequence,
    perturbed_limit_check,
    sequence_diagnostics,
    splitting_number,
    _twist,
)
from fsig.ideals import Ideal, frobenius_power, ideal_sum, quotient_length
from fsig.linalg import find_positive_weights
from fsig.poly import Polynomial, parse_polynomial
from fsig.toric import TorusQDivisor, quotient_singularity

from _oracles import brute_colon_complement_length, is_degenerate, is_f_pure


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


class _StubRing:
    """A ring kind that is neither toric nor a presentation: a_e = q(q+1)/2 in dimension 2."""

    p, d = 3, 2
    sequence_note = "stub counts; "

    def splitting_number(self, delta, e, deadline=None):
        q = self.p**e
        return q * (q + 1) // 2

    def exact_fsig(self, delta):
        return Fraction(1, 7)


@pytest.mark.parametrize("backend", ["auto", "toric", "sequence"])
def test_backend_rule_reads_the_ring_kind_interface(backend):
    # fsig_sequence and fsig_value ask the ring for a_e and for its exact s,
    # never for its class.
    ring = _StubRing()
    seq = fsig_sequence(ring, e_max=3)
    assert [r.a_e for r in seq.records] == [6, 45, 378]
    assert seq.note == "stub counts; estimate only, not the exact limit"
    value = fsig_value(ring, backend=backend, e_max=3)
    if backend == "sequence":
        assert not value.exact and value.s == seq.extrapolated == Fraction(1, 2)
        assert value.interval == (Fraction(1, 2), Fraction(14, 27))
    else:
        assert value.exact and value.s == Fraction(1, 7) and value.sequence is None


def _quotient_with_components():
    ring = quotient_singularity(3, (1, 2), 5)
    return ring, PairDivisor.of([(Polynomial.variable(0, 5, 2), Fraction(1, 2))])


def _hypersurface_with_facets():
    f = parse_polynomial("x0*x1 - x2^2", 5, 3)
    return RingPresentation.hypersurface(f), TorusQDivisor.of([Fraction(1, 2), 0])


@pytest.mark.parametrize("mismatch", [_quotient_with_components, _hypersurface_with_facets])
@pytest.mark.parametrize("call", [
    fsig_value,
    lambda ring, delta: fsig_value(ring, delta, backend="sequence"),
    fsig_sequence,
    pi1_order_bound,
    purity_check,
])
def test_a_pair_of_the_other_ring_kind_is_a_value_error(mismatch, call):
    ring, delta = mismatch()
    with pytest.raises(ValueError, match="as its pair$"):
        call(ring, delta)


def test_fsig_value_single_record_and_unknown_backend():
    value = fsig_value(a1_surface(), e_max=1)
    assert value.s == Fraction(5, 9) and value.interval == (value.s, value.s)
    with pytest.raises(ValueError, match="unknown backend"):
        fsig_value(a1_surface(), backend="lattice")


def test_a1_splitting_numbers():
    # a_e = (q^2 + 1)/2 for the quadric cone surface point at p = 3.
    ring = a1_surface()
    assert [splitting_number(ring, None, e) for e in (1, 2, 3)] == [5, 41, 365]


def test_ade_rank_route_past_the_old_box_cap(monkeypatch):
    # D5 and E7 at p = 7, e = 3 are neither separated nor quadratic, so they take the
    # rank route, whose graded pieces fit the cell cap although the 343^3 box is over
    # 40M monomials; the values are the Klein-formula predictions (|G| = 12 and 48)
    names = ("x", "y", "z")
    calls = []
    real_rank = frobenius.multiplication_rank
    monkeypatch.setattr(frobenius, "multiplication_rank", lambda *args: calls.append(1) or real_rank(*args))
    for f, expected in (("x^2 + y^2*z + z^4", 9805), ("x^2 + y^3 + y*z^3", 2452)):
        ring = RingPresentation.hypersurface(parse_polynomial(f, 7, 3, names=names), names=names)
        assert splitting_number(ring, None, 3) == expected, f
    assert len(calls) == 2


@pytest.mark.parametrize(
    "f, p, e, pair, convention, expected",
    [
        ("x*y - z^2", 3, 1, (), FLOOR_PE, 5),
        ("x*y - z^2", 3, 2, (), FLOOR_PE, 41),
        ("x*y - z^3", 5, 2, (), FLOOR_PE, 209),
        ("x*y - z^2", 3, 2, (("x + z", "1/3"),), FLOOR_PE, 18),
        ("x*y - z^2", 3, 2, (("y + z", "1/2"),), CEIL_PE_MINUS_1, 13),
        ("x*y + y*z + z*x", 3, 2, (), FLOOR_PE, 41),
        ("x^2 + y^3 + z^5", 3, 2, (), FLOOR_PE, 0),
        ("x^2 + y^2*z + z^3", 5, 1, (), FLOOR_PE, 4),
        (None, 5, 2, (), FLOOR_PE, 25**3),
        (None, 5, 1, (("x", "1/2"),), CEIL_PE_MINUS_1, 75),
    ],
    ids=["a1-p3-e1", "a1-p3-e2", "a2-p5-e2", "a1-floor-pair-p3-e2", "a1-ceil-pair-p3-e2",
         "xy+yz+zx-p3-e2", "e8-p3-e2", "d4-p5-e1", "regular-p5-e2", "regular-ceil-pair-p5-e1"],
)
def test_a1_colon_route_agrees(f, p, e, pair, convention, expected):
    # The Groebner length q^n - lambda(P/(m^[q], g)) against the rank of g;
    # f = None is the regular ring GF(p)[x, y, z], whose unit twist gives q^3.
    names = ("x", "y", "z")
    if f is None:
        ring = RingPresentation.regular(p, 3, names=names)
    else:
        ring = RingPresentation.hypersurface(parse_polynomial(f, p, 3, names=names), names=names)
    delta = PairDivisor.of(
        [(parse_polynomial(g, p, 3, names=names), Fraction(t)) for g, t in pair], convention
    )
    assert splitting_number(ring, delta, e, method="colon") == expected
    assert splitting_number(ring, delta, e) == expected


def test_colon_route_does_not_use_the_rank_kernel(monkeypatch):
    def no_rank(*args, **kwargs):
        raise AssertionError("the colon route called multiplication_rank")

    monkeypatch.setattr(frobenius, "multiplication_rank", no_rank)
    assert splitting_number(a1_surface(), None, 2, method="colon") == 41


def test_colon_route_rejects_infinite_length(monkeypatch):
    # a typed error rather than an assert, so the check survives python -O
    monkeypatch.setattr("fsig.frobenius.quotient_length", lambda ideal, deadline=None: math.inf)
    with pytest.raises(ValueError):
        splitting_number(a1_surface(), None, 1, method="colon")


def test_colon_route_stops_past_deadline():
    with pytest.raises(TimeoutError, match="during a Groebner basis"):
        splitting_number(a1_surface(), None, 2, method="colon", deadline=time.monotonic() - 1)


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
    # floor(q t) <= ceil((q-1) t) at q = 25: equal at t = 1/2, where (q-1) t
    # is integral, and 3 < 4 at t = 1/7
    x = parse_polynomial("x0", 5, 1)
    components = [(x, Fraction(1, 2)), (x, Fraction(1, 7))]
    assert PairDivisor.of(components).exponents(25) == [12, 3]
    assert PairDivisor.of(components, CEIL_PE_MINUS_1).exponents(25) == [12, 4]


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


def linear_ideal(*gens):
    return Ideal(3, 3, [parse_polynomial(g, 3, 3, names=("x", "y", "z")) for g in gens])


def test_hilbert_kunz_lengths_at_linear_forms_spanning_m(monkeypatch):
    # (x + y, y - z, z) is m, so its lengths are those of the box m^[q]; the
    # Groebner length of I^[q] + (f), called directly, agrees
    ring, ideal = a1_surface(), linear_ideal("x + y", "y - z", "z")
    groebner = [Fraction(quotient_length(ideal_sum(frobenius_power(ideal, q), Ideal(3, 3, [ring.f]))), q * q)
                for q in (3, 9)]
    monkeypatch.setattr(frobenius, "quotient_length", None)
    assert hk_length_sequence(ring, ideal, 2) == [Fraction(13, 9), Fraction(121, 81)] == groebner


def test_hilbert_kunz_lengths_at_rank_deficient_linear_forms():
    # (x + y, 2x + 2y, z) = (x + y, z) is not m
    ideal = linear_ideal("x + y", "2*x + 2*y", "z")
    with pytest.raises(ValueError, match="does not have finite colength"):
        hk_length_sequence(RingPresentation.regular(3, 3), ideal, 2)
    # on x*y - z^2 it is a reduction of m (m^2 = (x + y, z) m), so its lengths are e(m) q^2
    assert hk_length_sequence(a1_surface(), ideal, 2) == [2, 2]


@pytest.mark.parametrize("f, nvars, gens", [
    ("x*y - z^2", 3, ("x + y^2", "y - z", "z")),
    ("x*y + x*z^2 + y*z^2", 3, None),
    ("x0^2 + x1^2 + x2^2 + x3^2", 4, None),
], ids=["Groebner", "rank", "separated"])
def test_hilbert_kunz_lengths_stop_past_deadline(f, nvars, gens):
    names = ("x", "y", "z") if nvars == 3 else None
    ring = RingPresentation.hypersurface(parse_polynomial(f, 3, nvars, names=names), names=names)
    ideal = ring.maximal_ideal() if gens is None else linear_ideal(*gens)
    with pytest.raises(TimeoutError, match="time budget exhausted"):
        hk_length_sequence(ring, ideal, 1, deadline=time.monotonic() - 1)
    assert hk_length_sequence(ring, ideal, 1, deadline=time.monotonic() + 60)[0] > 0


def test_a_refused_level_keeps_the_finished_records():
    # the engine refuses q = 3^11 > 2^17; e = 1..10 are (q^2 + 1)/2
    with pytest.raises(LevelRefused, match="too large for the separated engine") as refused:
        fsig_sequence(a1_surface(), e_max=12)
    assert [r.a_e for r in refused.value.records] == [(9**e + 1) // 2 for e in range(1, 11)]
    # a refusal at e = 1 has nothing to carry and stays a plain ValueError
    with pytest.raises(ValueError, match="floor must be zero") as refused:
        fsig_sequence(a1_surface(), PairDivisor.of([(a1_surface().f, 1)]), e_max=2)
    assert not isinstance(refused.value, LevelRefused)


def test_degenerate_hypersurface_all_splittings_vanish():
    f = parse_polynomial("x^3", 3, 2, names=("x", "y"))
    ring = RingPresentation.hypersurface(f, names=("x", "y"))
    assert is_degenerate(ring)
    assert not is_f_pure(ring)
    assert splitting_number(ring, None, 1) == 0


def test_f_purity_of_a1():
    ring = a1_surface()
    assert is_f_pure(ring)
    assert not is_degenerate(ring)


def test_budget_exceeded_carries_partial_records():
    ring = a1_surface()
    with pytest.raises(BudgetExceeded) as err:
        fsig_sequence(ring, e_max=6, deadline=time.monotonic() - 1)
    assert err.value.records == []


def test_budget_checked_between_graded_blocks(monkeypatch):
    # The clock passes the deadline once e = 2 starts its rank, so only the
    # check before each graded block can stop that level; e = 1 is kept.
    # x*y + x*z^2 + y*z^2 = (x + z^2)(y + z^2) - z^4, an A_3 surface, is
    # neither separated nor quadratic, so it takes the graded rank route.
    f = parse_polynomial("x*y + x*z^2 + y*z^2", 3, 3, names=("x", "y", "z"))
    clock = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    real_rank = frobenius.multiplication_rank

    def rank_past_deadline(g, caps, *args, **kwargs):
        if caps[0] == 9:
            clock[0] = 2.0
        return real_rank(g, caps, *args, **kwargs)

    monkeypatch.setattr(frobenius, "multiplication_rank", rank_past_deadline)
    with pytest.raises(BudgetExceeded, match="during e = 2") as err:
        fsig_sequence(RingPresentation.hypersurface(f), e_max=3, deadline=1.0)
    assert [r.a_e for r in err.value.records] == [3]


def test_budget_checked_inside_a_window_count(monkeypatch):
    # The clock passes the deadline once the count for e = 2 starts, so only
    # the check before each level of its lattice walk can stop that level.
    ring = quotient_singularity(7, (1, 2, 4), 3)
    clock = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    real_count = toric.toric_splitting_number

    def count_past_deadline(ring, delta, e, **kwargs):
        if e == 2:
            clock[0] = 2.0
        return real_count(ring, delta, e, **kwargs)

    monkeypatch.setattr(toric, "toric_splitting_number", count_past_deadline)
    with pytest.raises(BudgetExceeded, match="during e = 2") as err:
        fsig_sequence(ring, e_max=3, deadline=1.0)
    assert [r.a_e for r in err.value.records] == [3]


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
