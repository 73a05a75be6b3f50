"""Finite covers: transitions, traces, ramification, and the chain walk."""

import time
from fractions import Fraction

import pytest

from fsig import covers
from fsig.bounds import etale_cover_search, pi1_order_bound
from fsig.covers import (
    CoverConstructionError,
    NonEffectivePairError,
    chain_simulation,
    compose_covers,
    count_trace_summands,
    doubling_check,
    pullback_divisor,
    pullback_pair,
    quotient_cover,
    ramification_divisor,
    root_cover,
    verify_note_trace,
    verify_transformation,
)
from fsig.frobenius import BudgetExceeded
from fsig.toric import (
    ToricRing,
    TorusQDivisor,
    quotient_singularity,
    toric_fsig_exact,
)


def test_quotient_cover_a1():
    cover = quotient_cover(quotient_singularity(2, (1, 1), 3), 1)
    assert cover.degree == 2
    assert cover.residue_degree == 1
    assert cover.etale_in_codim1
    assert cover.ram.is_zero()
    assert cover.trace.is_surjective()


def test_quotient_cover_intermediate():
    cover = quotient_cover(quotient_singularity(8, (1, 7), 3), 4)
    assert cover.degree == 2
    assert cover.etale_in_codim1
    assert toric_fsig_exact(cover.lower) == Fraction(1, 8)
    assert toric_fsig_exact(cover.upper) == Fraction(1, 4)


def test_quotient_cover_extends_the_given_ring():
    ring = quotient_singularity(8, (1, 7), 3)
    cover = quotient_cover(ring, 4)
    assert cover.lower is ring
    assert cover.upper.label == "1/4(1, 3)"


def test_quotient_cover_requires_a_quotient_presentation():
    with pytest.raises(CoverConstructionError):
        quotient_cover(ToricRing.regular(5, 2), 1)


def test_quotient_cover_requires_divisibility():
    with pytest.raises(CoverConstructionError):
        quotient_cover(quotient_singularity(6, (1, 5), 7), 4)


def test_quotient_cover_rejects_p_dividing_degree():
    # Degree n/m = 3 = p: wild, refused.
    with pytest.raises((CoverConstructionError, ValueError)):
        quotient_cover(quotient_singularity(3, (1, 1), 3), 1)


def test_identity_cover_trivial():
    ring = quotient_singularity(3, (1, 1), 5)
    cover = quotient_cover(ring, ring.group_order)
    assert cover.degree == 1
    assert cover.ram.is_zero()
    report = doubling_check(cover)
    assert report.ok and report.vacuous


def test_root_cover_kummer():
    # y = x^(1/2) over GF(7)[x, t]: ramified along x with index 2.
    cover = root_cover(2, 0, 2, 7)
    assert cover.degree == 2
    assert not cover.etale_in_codim1
    assert list(cover.ram.coefficients) == [1, 0]
    ram = ramification_divisor(cover)
    assert list(ram.coefficients) == [1, 0]
    with pytest.raises(ValueError, match="etale in codimension one"):
        doubling_check(cover)


def test_root_cover_wild_needs_flag():
    with pytest.raises(CoverConstructionError):
        root_cover(2, 0, 5, 5)
    cover = root_cover(2, 0, 5, 5, allow_wild=True)
    assert cover.wild
    assert not cover.trace.is_surjective()
    assert count_trace_summands(cover) == 0
    with pytest.raises(ValueError, match="tame"):
        ramification_divisor(cover)
    with pytest.raises(ValueError, match="tame"):
        verify_transformation(cover)


def test_trace_on_upper_monomials():
    cover = quotient_cover(quotient_singularity(2, (1, 1), 3), 1)
    # x^2 (ambient (2,0)) is invariant: trace = deg * monomial, unit mod 3.
    coeff, lower = cover.trace.on_upper_monomial((2, 0))
    assert lower is not None
    assert coeff == 2
    # x (ambient (1,0)) is a nontrivial character: trace = 0.
    coeff, lower = cover.trace.on_upper_monomial((1, 0))
    assert lower is None
    assert coeff == 0


def test_verify_note_trace_all_covers():
    covers = [
        quotient_cover(quotient_singularity(2, (1, 1), 3), 1),
        quotient_cover(quotient_singularity(8, (1, 7), 3), 2),
        root_cover(2, 0, 3, 7),
        root_cover(2, 1, 2, 5),
    ]
    for cover in covers:
        report = verify_note_trace(cover)
        assert report.ok, cover.kind
        for row in report.rows:
            if row.in_lower_lattice:
                assert row.coefficient_mod_p != 0 or not cover.trace.is_surjective()


def test_count_trace_summands_surjective():
    cover = quotient_cover(quotient_singularity(2, (1, 1), 3), 1)
    assert cover.trace.is_surjective()
    assert count_trace_summands(cover) == 1


def test_transformation_identity_quotient():
    cover = quotient_cover(quotient_singularity(6, (1, 5), 7), 2)
    report = verify_transformation(cover)
    assert report.ok
    assert report.exact
    # 1 * s(S) = 3 * s(R): 1/2 = 3 * 1/6.
    assert report.s_lower == Fraction(1, 6)
    assert report.s_upper == Fraction(1, 2)
    assert report.lhs == report.rhs == Fraction(1, 2)


def test_transformation_identity_with_pair():
    # Root cover n = 2 along x, Delta_X = (1/2) div(x): Delta_Y = 0.
    cover = root_cover(2, 0, 2, 7)
    delta = TorusQDivisor.of([Fraction(1, 2), Fraction(0)])
    report = verify_transformation(cover, delta)
    assert report.ok
    assert report.delta_upper is not None
    assert report.delta_upper.is_zero()
    assert report.s_lower == Fraction(1, 2)
    assert report.s_upper == Fraction(1)


def test_transformation_rejects_branched_cover_without_pair():
    cover = root_cover(2, 0, 2, 7)
    with pytest.raises(ValueError):
        verify_transformation(cover)


def test_pullback_divisor_scales_by_ramification():
    cover = root_cover(2, 0, 2, 7)
    delta = TorusQDivisor.of([Fraction(1, 2), Fraction(1, 4)])
    pulled = pullback_divisor(cover, delta)
    assert list(pulled.coefficients) == [Fraction(1), Fraction(1, 4)]


def test_pullback_pair_subtracts_ramification():
    cover = root_cover(3, 0, 3, 7)
    delta = TorusQDivisor.of([Fraction(2, 3), 0, 0])
    pair = pullback_pair(cover, delta)
    assert list(pair.coefficients) == [0, 0, 0]


def test_pullback_pair_non_effective_names_facet():
    cover = root_cover(2, 0, 2, 7)
    delta = TorusQDivisor.of([Fraction(1, 4), 0])
    with pytest.raises(NonEffectivePairError) as err:
        pullback_pair(cover, delta)
    assert err.value.facet == 0
    assert err.value.coefficient == Fraction(-1, 2)


def test_non_effective_error_is_value_error():
    assert issubclass(NonEffectivePairError, ValueError)
    assert issubclass(CoverConstructionError, ValueError)


def test_doubling_inequality_and_a1_equality():
    cover = quotient_cover(quotient_singularity(2, (1, 1), 3), 1)
    report = doubling_check(cover)
    assert report.ok
    assert not report.vacuous
    assert report.equality  # 1 = 2 * (1/2) exactly
    bigger = quotient_cover(quotient_singularity(6, (1, 5), 7), 1)
    report = doubling_check(bigger)
    assert report.ok
    assert not report.equality  # 1 > 2 * (1/6)


def test_compose_covers_tower():
    lower_to_mid = quotient_cover(quotient_singularity(8, (1, 7), 3), 4)
    mid_to_top = quotient_cover(quotient_singularity(4, (1, 3), 3), 1)
    tower = compose_covers(lower_to_mid, mid_to_top)
    assert tower.degree == 8
    assert tower.ram.is_zero()
    assert tower.etale_in_codim1


def test_compose_covers_ram_additivity_with_branching():
    # x -> x^(1/2) -> x^(1/4): Ram = D + pullback of D = 3D on top.
    first = root_cover(2, 0, 2, 7)
    second = root_cover(2, 0, 2, 7)
    tower = compose_covers(first, second)
    assert tower.degree == 4
    assert list(tower.ram.coefficients) == [3, 0]


def test_compose_rejects_mismatched_middle():
    first = quotient_cover(quotient_singularity(8, (1, 7), 3), 4)
    wrong = quotient_cover(quotient_singularity(2, (1, 1), 3), 1)
    with pytest.raises(ValueError):
        compose_covers(first, wrong)


def test_chain_simulation_1_8_1_7():
    ring = quotient_singularity(8, (1, 7), 3)
    chain = chain_simulation(ring)
    assert chain.ok
    assert len(chain.steps) == 3
    assert chain.s_values == (
        Fraction(1, 8),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1),
    )
    assert chain.stabilization_index == 3
    assert all(chain.etale_flags)
    # Every etale-in-codim-1 step at least doubles the signature.
    for lo, hi in zip(chain.s_values, chain.s_values[1:]):
        assert hi >= 2 * lo


def test_chain_simulation_prime_order():
    ring = quotient_singularity(5, (1, 2), 3)
    chain = chain_simulation(ring)
    assert chain.ok
    assert len(chain.steps) == 1
    assert chain.s_values == (Fraction(1, 5), Fraction(1))


def test_chain_simulation_checks_deadline_before_each_step(monkeypatch):
    # The clock passes the deadline once the first cover is built, so only
    # the check before the second step can stop the walk of 1/8(1,7).
    clock = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    built = []

    def cover_then_expire(*args):
        built.append(args)
        clock[0] = 2.0
        return quotient_cover(*args)

    monkeypatch.setattr(covers, "quotient_cover", cover_then_expire)
    with pytest.raises(BudgetExceeded, match="during the chain walk"):
        chain_simulation(quotient_singularity(8, (1, 7), 3), deadline=1.0)
    assert len(built) == 1


def test_chain_requires_group_data():
    ring = ToricRing.regular(5, 2)
    with pytest.raises(ValueError):
        chain_simulation(ring)


def test_chain_steps_are_linked():
    ring = quotient_singularity(64, (1, 63), 3)
    steps = chain_simulation(ring).steps
    assert steps[0].lower is ring
    assert all(lo.upper is hi.lower for lo, hi in zip(steps, steps[1:]))


@pytest.mark.parametrize("walk, n, weights, p, builds", [
    (etale_cover_search, 30, (1, 7), 7, 7),
    (chain_simulation, 64, (1, 63), 3, 6),
    (pi1_order_bound, 8, (1, 7), 3, 1),
])
def test_covers_build_only_their_upper_rings(monkeypatch, walk, n, weights, p, builds):
    # One quotient_singularity call per cover: the ring a walk is given is never rebuilt.
    import fsig.covers

    ring = quotient_singularity(n, weights, p)
    calls = []

    def counting(*args):
        calls.append(args)
        return quotient_singularity(*args)

    monkeypatch.setattr(fsig.covers, "quotient_singularity", counting)
    walk(ring)
    assert len(calls) == builds
