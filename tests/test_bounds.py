"""Order bounds, purity thresholds, index bounds, and Veronese witnesses."""

from dataclasses import asdict
from fractions import Fraction

import pytest

from fsig.bounds import (
    class_order,
    cyclic_index_cover,
    etale_cover_search,
    index_bound,
    pi1_order_bound,
    purity_check,
    purity_from_value,
    veronese_bound,
)
from fsig.frobenius import RingPresentation
from fsig.poly import parse_polynomial
from fsig.serialize import report_json
from fsig.toric import ToricRing, TorusQDivisor, quotient_singularity, toric_fsig_exact


def test_pi1_bound_tight_on_quotients():
    for n in range(2, 7):
        p = 7 if n % 7 else 11
        ring = quotient_singularity(n, (1, 1), p)
        report = pi1_order_bound(ring)
        assert report.exact
        assert report.bound == n
        assert report.theorem == "A"
        assert report.prime_to_p == p
        assert report.attained


def test_pi1_bound_regular():
    report = pi1_order_bound(ToricRing.regular(5, 2))
    assert report.bound == 1
    assert report.s == 1


def test_pi1_bound_with_pair_shrinks():
    ring = quotient_singularity(2, (1, 1), 5)
    delta = TorusQDivisor.of([Fraction(1, 2), Fraction(0)])
    report = pi1_order_bound(ring, delta)
    # s = (1/2)(1/2) = 1/4: bound 4, but no degree-4 cover is claimed.
    assert report.bound == 4
    assert report.s == Fraction(1, 4)


def test_pi1_bound_core_json_shape():
    # The one report rule renders the exact s as "num/den" and keeps the
    # rest as it is.
    report = pi1_order_bound(quotient_singularity(3, (1, 2), 7))
    core = report_json(asdict(report))
    assert {"s", "exact", "bound", "prime_to_p", "theorem"} <= set(core)
    assert core["s"] == "1/3"
    assert core["s_interval"] is None
    assert core["exact"] is True
    assert core["bound"] == 3
    assert core["theorem"] == "A"


def test_pi1_bound_sequence_provisional():
    f = parse_polynomial("x*y - z^2", 3, 3, names=("x", "y", "z"))
    ring = RingPresentation.hypersurface(f, names=("x", "y", "z"))
    report = pi1_order_bound(ring, None, backend="sequence", e_max=2)
    assert report.provisional
    assert not report.exact
    assert report.bound_interval is not None
    lo, hi = report.bound_interval
    assert lo <= 2 <= hi
    assert report.s_interval[0] <= Fraction(1, 2) <= report.s_interval[1]


def test_purity_forced_above_half():
    verdict = purity_from_value(Fraction(2, 3), 5)
    assert verdict.forced
    assert verdict.threshold == Fraction(1, 2)
    assert verdict.clause == "s > 1/2"


def test_purity_p2_uses_third():
    verdict = purity_from_value(Fraction(2, 5), 2)
    assert verdict.forced
    assert verdict.threshold == Fraction(1, 3)
    assert verdict.clause == "p = 2 and s > 1/3"
    not_forced = purity_from_value(Fraction(1, 3), 2)
    assert not not_forced.forced
    assert not_forced.boundary_case


def test_purity_boundary_a1_admits_cover():
    ring = quotient_singularity(2, (1, 1), 5)
    verdict = purity_check(ring)
    assert not verdict.forced
    assert verdict.boundary_case
    assert verdict.admits_nontrivial_etale_cover
    assert [c.degree for c in verdict.covers_found] == [2]


def test_purity_regular_no_covers():
    ring = quotient_singularity(1, (1, 1), 5)
    verdict = purity_check(ring)
    assert verdict.forced
    assert not verdict.admits_nontrivial_etale_cover
    assert verdict.covers_found == ()


def test_purity_check_on_an_estimate():
    # The sequence verdict judges min(last, estimate) = min(41/81, 13/27).
    f = parse_polynomial("x*y - z^2", 3, 3, names=("x", "y", "z"))
    ring = RingPresentation.hypersurface(f, names=("x", "y", "z"))
    verdict = purity_check(ring, e_max=2)
    assert verdict.s == Fraction(13, 27)
    assert not verdict.exact and verdict.provisional and not verdict.forced
    assert verdict.admits_nontrivial_etale_cover is None and verdict.covers_found == ()
    on_quotient = purity_check(quotient_singularity(2, (1, 1), 3), backend="sequence", e_max=2)
    assert on_quotient.s == verdict.s and on_quotient.provisional


def test_etale_cover_search_degrees():
    ring = quotient_singularity(8, (1, 7), 3)
    covers = etale_cover_search(ring)
    assert [c.degree for c in covers] == [2, 4, 8]
    for cover in covers:
        assert cover.ram.is_zero()
        assert cover.etale_in_codim1


def test_class_order_and_index_cover():
    ring = quotient_singularity(3, (1, 1), 5)
    order = class_order(ring, (1, 0))
    assert order == 3
    cover = cyclic_index_cover(ring, (1, 0))
    assert cover.degree == 3
    assert cover.ram.is_zero()
    assert toric_fsig_exact(cover.upper) == 1


def test_class_order_trivial_class():
    ring = quotient_singularity(3, (1, 1), 5)
    # 3 * D_0 is a principal (lattice) class.
    assert class_order(ring, (3, 0)) == 1


def test_index_bound_report():
    ring = quotient_singularity(4, (1, 3), 5)
    report = index_bound(ring, (1, 0))
    assert report.ok
    assert report.order == 4
    assert report.bound == 4
    assert report.s == Fraction(1, 4)
    assert report.cover.etale_in_codim1


def test_index_bound_rejects_p_dividing_order():
    # The ring's own p = 2 divides the order 2 of the class (1, 0).
    ring = ToricRing(2, [[1, 0], [1, 2]])
    with pytest.raises(ValueError, match="p = 2 divides the class order 2"):
        index_bound(ring, (1, 0))


def test_veronese_bound_tight():
    report = veronese_bound(3, 4, 5)
    assert report.exact
    assert report.s == Fraction(1, 4)
    assert report.bound == 4
    assert report.theorem == "veronese"
    assert report.attained


@pytest.mark.parametrize("d_vars, m, p", [
    (d_vars, m, p) for d_vars in (2, 3, 4) for m in range(1, 9) for p in (2, 3, 5, 7) if m % p
])
def test_veronese_is_the_pi1_bound_of_the_diagonal_quotient(d_vars, m, p):
    report = veronese_bound(d_vars, m, p)
    assert report.s == Fraction(1, m)
    assert report.bound == m
    assert report.attained
    assert report.theorem == "veronese"
    assert report.note == ("trivial Veronese" if m == 1 else
                           "witnessed by the inclusion into the polynomial ring")
    pi1 = pi1_order_bound(quotient_singularity(m, (1,) * d_vars, p))
    assert asdict(report) == {**asdict(pi1), "theorem": "veronese", "note": report.note}


def test_veronese_trivial_m1():
    report = veronese_bound(2, 1, 5)
    assert report.bound == 1
    assert report.s == 1


def test_veronese_rejects_dimension_one():
    with pytest.raises(ValueError):
        veronese_bound(1, 3, 5)


def test_veronese_rejects_p_dividing_m():
    with pytest.raises(ValueError):
        veronese_bound(2, 5, 5)


def test_zero_signature_rejected():
    ring = quotient_singularity(3, (1, 1), 5)
    delta = TorusQDivisor.of([Fraction(1), Fraction(1)])
    with pytest.raises(ValueError):
        pi1_order_bound(ring, delta)
