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

from .covers import CoverDescriptor, VerificationFailure, _build_cover, quotient_cover
from .frobenius import PairDivisor, RingPresentation, fsig_value
from .toric import (
    ToricRing,
    TorusQDivisor,
    fraction_matrix_inverse,
    integer_det,
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

    def core_json(self) -> dict:
        """The five-field report every bound emits."""
        return {
            "s": f"{self.s.numerator}/{self.s.denominator}",
            "exact": self.exact,
            "bound": self.bound,
            "prime_to_p": self.prime_to_p,
            "theorem": self.theorem,
        }

    def details_json(self) -> dict:
        """Attainment, note and provenance, with the intervals of an estimate."""
        details = {"attained": self.attained, "note": self.note, "provisional": self.provisional}
        if self.s_interval is not None:
            details["s_interval"] = [f"{x.numerator}/{x.denominator}" for x in self.s_interval]
        if self.bound_interval is not None:
            details["bound_interval"] = list(self.bound_interval)
        return details


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationFailure(message)


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
    if delta is None and ring.group_order is not None and ring.group_weights is not None:
        n = ring.group_order
        if ring.small and n == bound:
            cover = quotient_cover(n, ring.group_weights, ring.p, 1)
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


def etale_cover_search(ring: ToricRing) -> list[CoverDescriptor]:
    """All constructible covers of the ring that are etale in codimension one.

    The constructible family above a cyclic quotient consists of the
    quotient covers by the subgroups; each has degree > 1 and, being
    strictly local, is branched at the vertex, hence never etale
    everywhere.  Above a ring without a quotient presentation the family
    is empty.
    """
    if ring.group_order is None or ring.group_weights is None or ring.group_order == 1:
        return []
    n = ring.group_order
    found = []
    for m in range(1, n):
        if n % m:
            continue
        cover = quotient_cover(n, ring.group_weights, ring.p, m)
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
    """Purity verdict on s from ``fsig_value``.

    An estimate is judged on min(last value, estimate) and is
    provisional.  An exact value without a pair is cross-checked against
    the cover constructors: when purity is forced the constructible-family
    search must come back empty; at the boundary s = 1/2 a nontrivial
    cover may exist and the verdict records it.
    """
    value = fsig_value(ring, delta, backend, e_max, deadline)
    if not value.exact:
        seq = value.sequence
        return purity_from_value(min(seq.last, seq.estimate), ring.p, exact=False, provisional=True)
    verdict = purity_from_value(value.s, ring.p)
    if delta is not None:
        return verdict
    covers = etale_cover_search(ring)
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


def class_order(ring: ToricRing, facet_coeffs) -> int:
    """Order of a divisor class in Cl = Z^facets / (pairing image)."""
    coeffs = [int(c) for c in facet_coeffs]
    if len(coeffs) != ring.nfacets:
        raise ValueError("class coefficients do not match the facet count")
    inv = fraction_matrix_inverse(ring.normals)
    u = [sum(inv[i][j] * coeffs[j] for j in range(ring.d)) for i in range(ring.d)]
    return math.lcm(*(x.denominator for x in u))


def cyclic_index_cover(ring: ToricRing, facet_coeffs) -> CoverDescriptor:
    """The degree-n cyclic cover attached to a torsion divisor class.

    The upper lattice is M + Z*u_D for the rational point u_D with
    pairing vector equal to the class; the cover is etale in codimension
    one and its degree is the order of the class.
    """
    coeffs = [int(c) for c in facet_coeffs]
    k = class_order(ring, coeffs)
    inv = fraction_matrix_inverse(ring.normals)
    u = [sum(inv[i][j] * coeffs[j] for j in range(ring.d)) for i in range(ring.d)]
    d = ring.d
    gens = [[k * int(i == j) for j in range(d)] for i in range(d)]
    gens.append([int(k * x) for x in u])
    b_rows = row_lattice_basis(gens)
    _require(len(b_rows) == d, "the upper lattice of the class cover is not full rank")
    _require(abs(integer_det(b_rows)) == k ** (d - 1),
             "the upper lattice of the class cover has the wrong index")
    raw_normals = [
        tuple(sum(v[i] * b_rows[j][i] for i in range(d)) for j in range(d))
        for v in ring.normals
    ]
    normals = [primitive_vector(r) for r in raw_normals]
    upper = ToricRing(
        ring.p,
        normals,
        embedding=b_rows,
        label=f"cyclic cover of {ring.label} along class {tuple(coeffs)}",
    )
    b_inv = fraction_matrix_inverse(b_rows)
    t_matrix = []
    for i in range(d):
        row = []
        for j in range(d):
            x = k * b_inv[i][j]
            _require(x.denominator == 1, "the class cover transition is not integral")
            row.append(int(x))
        t_matrix.append(row)
    cover = _build_cover(ring, upper, t_matrix, kind="cyclic-index")
    _require(cover.degree == k, f"the class cover has degree {cover.degree}, not the class order {k}")
    return cover


def index_bound(ring: ToricRing, facet_coeffs, p: int | None = None) -> IndexReport:
    """n <= floor(1/s) for the order n of a prime-to-p divisor class.

    Constructs the cyclic cover, confirms its degree is n and that it is
    etale in codimension one.
    """
    p = ring.p if p is None else p
    k = class_order(ring, facet_coeffs)
    if k % p == 0:
        raise ValueError(f"p = {p} divides the class order {k}")
    s = toric_fsig_exact(ring)
    if s == 0:
        raise ValueError("F-signature is zero: not strongly F-regular")
    bound = math.floor(1 / s)
    cover = cyclic_index_cover(ring, facet_coeffs)
    _require(cover.etale_in_codim1, "the class cover is not etale in codimension one")
    return IndexReport(order=k, bound=bound, s=s, ok=(k <= bound), cover=cover)


def veronese_bound(d_vars: int, m: int, p: int) -> BoundReport:
    """m <= 1/s(R) for the m-th Veronese R of a polynomial ring, p not | m.

    The Veronese is the quotient by the diagonal weight-(1,..,1) action,
    always small for d >= 2, so s(R) = 1/m exactly and the bound is tight;
    the inclusion into the full polynomial ring is the etale-in-
    codimension-one witness of generic rank m.
    """
    if d_vars < 2:
        raise ValueError("need at least two variables for the section-ring model")
    if m % p == 0:
        raise ValueError(f"p = {p} divides m = {m}")
    if m == 1:
        return BoundReport(
            s=Fraction(1),
            exact=True,
            bound=1,
            prime_to_p=p,
            theorem="veronese",
            attained=True,
            note="trivial Veronese",
        )
    ring = quotient_singularity(m, (1,) * d_vars, p)
    _require(ring.small, "the Veronese action contains a pseudo-reflection")
    s = toric_fsig_exact(ring)
    _require(s == Fraction(1, m), f"the Veronese has s = {s}, not 1/{m}")
    witness = quotient_cover(m, (1,) * d_vars, p, 1)
    _require(witness.degree == m and witness.etale_in_codim1,
             "the polynomial ring does not witness the Veronese bound")
    return BoundReport(
        s=s,
        exact=True,
        bound=math.floor(1 / s),
        prime_to_p=p,
        theorem="veronese",
        attained=True,
        note="witnessed by the inclusion into the polynomial ring",
    )
