"""Effective consequences of the F-signature: order bounds and purity.

The reciprocal of the F-signature bounds the order of the local etale
fundamental group, the admissible cover degrees are prime to p, the
branch locus is pure above the 1/2 threshold (1/3 when p = 2), and the
index of a torsion divisor class is bounded through its cyclic cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .covers import CoverDescriptor, _build_cover, _trial_divisors, quotient_cover
from .frobenius import PairDivisor, RingPresentation, fsig_value
from .toric import (
    ToricRing,
    TorusQDivisor,
    _require,
    primitive_vector,
    quotient_singularity,
    row_lattice_basis,
    toric_fsig_exact,
)


@dataclass(frozen=True)
class BoundReport:
    """Order bound derived from an exact or estimated F-signature."""

    s: Fraction
    exact: bool
    bound: int
    prime_to_p: int
    theorem: str
    provisional: bool = False
    s_interval: tuple[Fraction, Fraction] | None = None
    bound_interval: tuple[int, int] | None = None
    attained: bool | None = None
    note: str = ""


def pi1_order_bound(
    ring: RingPresentation | ToricRing,
    delta: PairDivisor | TorusQDivisor | None = None,
    backend: str = "auto",
    e_max: int = 3,
    deadline: float | None = None,
) -> BoundReport:
    """|pi_1| <= 1/s(R, Delta), prime to p, with s from ``fsig_value``.

    On an exact value from a cyclic quotient presentation the bound is
    checked for attainability by the full-degree cover.  An estimate gives
    a provisional bound: a floor of an estimate can be off by one, so the
    report carries the interval spanned by the last normalized value and
    the extrapolation, with both induced floors, and is never used to
    assert a failure.
    """
    value = fsig_value(ring, delta, backend, e_max, deadline)
    s, (lo, hi) = value.s, value.interval
    if lo <= 0:
        raise ValueError(
            "F-signature is zero: not strongly F-regular; the bound does not apply"
            if value.exact
            else "estimated F-signature is not positive; the bound does not apply"
        )
    bound = math.floor(1 / s)
    if not value.exact:
        return BoundReport(s, False, bound, ring.p, "A", provisional=True, s_interval=(lo, hi),
                           bound_interval=(math.floor(1 / hi), math.floor(1 / lo)),
                           note="provisional: truncated sequence estimate")
    attained = None
    if delta is None and ring.small and ring.group_order == bound:
        cover = quotient_cover(ring, 1)
        attained = cover.etale_in_codim1 and cover.degree == bound
    return BoundReport(s, True, bound, ring.p, "A", attained=attained,
                       note="admissible cover degrees are prime to p")


# -- purity ------------------------------------------------------------------


@dataclass(frozen=True)
class PurityVerdict:
    forced: bool
    threshold: Fraction
    clause: str
    s: Fraction
    exact: bool
    provisional: bool
    boundary_case: bool
    admits_nontrivial_etale_cover: bool | None = None
    covers_found: tuple[CoverDescriptor, ...] = ()


def purity_from_value(s: Fraction, p: int, exact: bool = True, provisional: bool = False) -> PurityVerdict:
    """Purity of the branch locus is forced when s > 1/2, or s > 1/3 at p = 2."""
    s = Fraction(s)
    if p == 2:
        threshold, clause = Fraction(1, 3), "p = 2 and s > 1/3"
    else:
        threshold, clause = Fraction(1, 2), "s > 1/2"
    return PurityVerdict(
        forced=s > threshold,
        threshold=threshold,
        clause=clause,
        s=s,
        exact=exact,
        provisional=provisional,
        boundary_case=(s == threshold),
    )


def etale_cover_search(ring: ToricRing, deadline: float | None = None) -> list[CoverDescriptor]:
    """All constructible covers of the ring that are etale in codimension one.

    The constructible family above a cyclic quotient consists of the
    quotient covers by the subgroups; each has degree > 1 and, being
    strictly local, is branched at the vertex, hence never etale
    everywhere.  Above a ring without a quotient presentation the family
    is empty.  The divisors of the group order come from trial division,
    which raises ``BudgetExceeded`` past ``deadline`` (``_trial_divisors``).
    """
    if ring.group_order is None or ring.group_order == 1:
        return []
    n = ring.group_order
    small_divisors = list(_trial_divisors(n, deadline, "the cover search"))
    found = []
    for m in sorted(set(small_divisors + [n // m for m in small_divisors]) - {n}):
        cover = quotient_cover(ring, m)
        if cover.etale_in_codim1:
            found.append(cover)
    return sorted(found, key=lambda c: c.degree)


def purity_check(
    ring: RingPresentation | ToricRing,
    delta: PairDivisor | TorusQDivisor | None = None,
    backend: str = "auto",
    e_max: int = 3,
    deadline: float | None = None,
) -> PurityVerdict:
    """Purity verdict on s from ``fsig_value``; an estimate's is provisional.

    An exact value without a pair is cross-checked against the cover
    constructors: when purity is forced the constructible-family search
    must come back empty; at the boundary s = 1/2 a nontrivial cover may
    exist and the verdict records it.
    """
    value = fsig_value(ring, delta, backend, e_max, deadline)
    verdict = purity_from_value(value.s, ring.p, exact=value.exact, provisional=not value.exact)
    if not value.exact or delta is not None:
        return verdict
    covers = etale_cover_search(ring, deadline)
    _require(not (verdict.forced and covers),
             "a cover etale in codimension one exists despite purity")
    return replace(verdict, admits_nontrivial_etale_cover=bool(covers), covers_found=tuple(covers))


# -- torsion divisor classes ---------------------------------------------------


@dataclass(frozen=True)
class IndexReport:
    order: int
    bound: int
    s: Fraction
    ok: bool
    cover: CoverDescriptor
    theorem: str = "index"


def _class_vector(ring: ToricRing, facet_coeffs) -> tuple[list[Fraction], int]:
    """The rational u_D pairing to the class coefficients, and the class order."""
    coeffs = [int(c) for c in facet_coeffs]
    if len(coeffs) != ring.nfacets:
        raise ValueError("class coefficients do not match the facet count")
    u = [Fraction(sum(a * c for a, c in zip(row, coeffs)), ring._det) for row in ring._adj]
    return u, math.lcm(*(x.denominator for x in u))


def class_order(ring: ToricRing, facet_coeffs) -> int:
    """Order of a divisor class in Cl = Z^facets / (pairing image)."""
    return _class_vector(ring, facet_coeffs)[1]


def cyclic_index_cover(ring: ToricRing, facet_coeffs) -> CoverDescriptor:
    """The degree-n cyclic cover attached to a torsion divisor class.

    The upper lattice is M + Z*u_D for the rational point u_D with
    pairing vector equal to the class; the cover is etale in codimension
    one and its degree is the order of the class.
    """
    return _index_cover(ring, facet_coeffs, *_class_vector(ring, facet_coeffs))


def _index_cover(ring: ToricRing, facet_coeffs, u: list[Fraction], k: int) -> CoverDescriptor:
    """``cyclic_index_cover`` from the class vector u and the class order k."""
    d = ring.d
    gens = [[k * int(i == j) for j in range(d)] for i in range(d)]
    gens.append([int(k * x) for x in u])
    b_rows = row_lattice_basis(gens)
    _require(len(b_rows) == d, "the upper lattice of the class cover is not full rank")
    raw_normals = [
        tuple(sum(v[i] * b_rows[j][i] for i in range(d)) for j in range(d))
        for v in ring.normals
    ]
    normals = [primitive_vector(r) for r in raw_normals]
    upper = ToricRing(
        ring.p,
        normals,
        embedding=b_rows,
        label=f"cyclic cover of {ring.label} along class {tuple(int(c) for c in facet_coeffs)}",
    )
    _require(abs(upper._embedding_adjugate[1]) == k ** (d - 1),
             "the upper lattice of the class cover has the wrong index")
    # row i of T = k * B^-1 solves T_i @ B = k e_i
    t_matrix = [upper.intrinsic_from_ambient([k * int(i == j) for j in range(d)]) for i in range(d)]
    _require(all(row is not None for row in t_matrix), "the class cover transition is not integral")
    cover = _build_cover(ring, upper, t_matrix, kind="cyclic-index")
    _require(cover.degree == k, f"the class cover has degree {cover.degree}, not the class order {k}")
    return cover


def index_bound(ring: ToricRing, facet_coeffs) -> IndexReport:
    """n <= floor(1/s) for the order n of a prime-to-p divisor class.

    Constructs the cyclic cover, confirms its degree is n and that it is
    etale in codimension one.
    """
    u, k = _class_vector(ring, facet_coeffs)
    if k % ring.p == 0:
        raise ValueError(f"p = {ring.p} divides the class order {k}")
    s = toric_fsig_exact(ring)
    if s == 0:
        raise ValueError("F-signature is zero: not strongly F-regular")
    bound = math.floor(1 / s)
    cover = _index_cover(ring, facet_coeffs, u, k)
    _require(cover.etale_in_codim1, "the class cover is not etale in codimension one")
    return IndexReport(order=k, bound=bound, s=s, ok=(k <= bound), cover=cover)


def veronese_bound(d_vars: int, m: int, p: int) -> BoundReport:
    """m <= 1/s(R) for the m-th Veronese R of a polynomial ring, p not | m.

    The Veronese is the quotient 1/m(1,..,1), always small for d >= 2, so
    this is ``pi1_order_bound`` of that quotient: s(R) = 1/m exactly and
    the bound is attained by the inclusion into the full polynomial ring,
    the etale-in-codimension-one cover of degree m.
    """
    if d_vars < 2:
        raise ValueError("need at least two variables for the section-ring model")
    if m % p == 0:
        raise ValueError(f"p = {p} divides m = {m}")
    report = pi1_order_bound(quotient_singularity(m, (1,) * d_vars, p))
    _require(report.s == Fraction(1, m), f"the Veronese has s = {report.s}, not 1/{m}")
    _require(report.attained, "the polynomial ring does not witness the Veronese bound")
    note = "trivial Veronese" if m == 1 else "witnessed by the inclusion into the polynomial ring"
    return replace(report, theorem="veronese", note=note)
