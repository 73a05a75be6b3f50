"""Finite covers of semigroup rings: construction and mechanical checks.

A cover is a lattice extension M_R subset M_S inside a common rational
cone.  The transition matrix T sends intrinsic R-coordinates to intrinsic
S-coordinates; its determinant is the generic degree, and the facet
pairing of T against the upper normals yields the ramification indices,
hence the ramification divisor Ram = K_S - pi^* K_R.  Residue fields are
GF(p) throughout, so the residue degree of every constructible cover is 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Sequence

from .frobenius import BudgetExceeded
from .toric import (
    ToricRing,
    TorusQDivisor,
    VerificationFailure,  # raised by _require; fsig.covers keeps exporting it
    _require,
    _solve_row,
    adjugate,
    primitive_vector,
    quotient_singularity,
    toric_fsig_exact,
)

Vector = tuple[int, ...]


class CoverConstructionError(ValueError):
    """The requested cover violates a constructor precondition."""


class NonEffectivePairError(ValueError):
    """The pulled-back pair fails effectivity; records the violating facet."""

    def __init__(self, facet: int, coefficient: Fraction):
        self.facet = facet
        self.coefficient = coefficient
        super().__init__(
            f"pulled-back pair is not effective: facet {facet} has coefficient {coefficient}"
        )


@dataclass(frozen=True)
class TraceMap:
    """Trace of a degree-n abelian extension in the graded model.

    On a monomial of the upper ring the trace is the projection onto the
    lower lattice scaled by the degree: monomials of M_R are fixed by the
    Galois action and acquire the factor [L:K], all other characters sum
    to zero.  Surjectivity onto R is therefore equivalent to p not
    dividing [L:K].
    """

    p: int
    degree: int
    transition: tuple[Vector, ...]

    @property
    def unit_coefficient(self) -> int:
        return self.degree % self.p

    def is_surjective(self) -> bool:
        return self.unit_coefficient != 0

    @cached_property
    def _transition_adjugate(self) -> tuple[list[list[int]], int]:
        return adjugate(self.transition)

    def on_upper_monomial(self, c_upper: Sequence[int]) -> tuple[int, Vector | None]:
        """Coefficient mod p and lower intrinsic coordinates, or (0, None)."""
        c_lower = _solve_row(self._transition_adjugate, c_upper)
        if c_lower is None:
            return 0, None
        return self.unit_coefficient, c_lower


@dataclass(frozen=True)
class CoverDescriptor:
    """A module-finite extension R subset S of semigroup rings."""

    lower: ToricRing
    upper: ToricRing
    transition: tuple[Vector, ...]
    degree: int
    residue_degree: int
    ramification_indices: tuple[int, ...]
    facet_match: tuple[int, ...]
    ram: TorusQDivisor
    etale_in_codim1: bool
    trace: TraceMap
    kind: str = "cover"
    wild: bool = False

    def __post_init__(self):
        if self.degree % self.residue_degree:
            raise CoverConstructionError(
                f"residue degree {self.residue_degree} does not divide the degree {self.degree}"
            )
        if self.etale_in_codim1 != self.ram.is_zero():
            raise CoverConstructionError("etale_in_codim1 disagrees with the ramification divisor")
        if self.etale_in_codim1 and self.residue_degree == 1 and not self.wild:
            if self.degree % self.lower.p == 0:
                raise CoverConstructionError(
                    f"p = {self.lower.p} divides the degree {self.degree} of a cover "
                    "etale in codimension one with equal residue fields"
                )

    @property
    def p(self) -> int:
        return self.lower.p


def _transition_data(lower: ToricRing, upper: ToricRing, t_matrix: Sequence[Sequence[int]]):
    """Degree, per-facet ramification indices and facet matching from T."""
    d = lower.d
    t_rows = tuple(tuple(int(x) for x in row) for row in t_matrix)
    det_t = adjugate(t_rows)[1]
    if det_t == 0:
        raise CoverConstructionError("transition matrix is singular")
    degree = abs(det_t)
    indices = []
    match = []
    for f_idx, v_up in enumerate(upper.normals):
        pulled = tuple(
            sum(t_rows[i][j] * v_up[j] for j in range(d)) for i in range(d)
        )
        prim = primitive_vector(pulled)
        try:
            g_idx = lower.normals.index(prim)
        except ValueError:
            raise CoverConstructionError(
                f"facet {f_idx} of the upper ring does not map onto a facet of the lower ring"
            )
        ratios = {a // b for a, b in zip(pulled, prim) if b != 0}
        e_f = ratios.pop()
        _require(not ratios and e_f > 0,
                 f"facet {f_idx} of the upper ring pulls back to {pulled}, "
                 f"not a positive multiple of {prim}")
        indices.append(e_f)
        match.append(g_idx)
    if sorted(match) != list(range(d)):
        raise CoverConstructionError("facet matching is not a bijection")
    return t_rows, degree, tuple(indices), tuple(match)


def _build_cover(
    lower: ToricRing,
    upper: ToricRing,
    t_matrix: Sequence[Sequence[int]],
    kind: str,
    wild: bool = False,
) -> CoverDescriptor:
    t_rows, degree, indices, match = _transition_data(lower, upper, t_matrix)
    ram = TorusQDivisor(tuple(Fraction(e - 1) for e in indices))
    if not wild:
        for f_idx, e_f in enumerate(indices):
            if e_f % lower.p == 0:
                raise CoverConstructionError(f"wild ramification at facet {f_idx}: p | e = {e_f}")
    trace = TraceMap(p=lower.p, degree=degree, transition=t_rows)
    return CoverDescriptor(
        lower=lower,
        upper=upper,
        transition=t_rows,
        degree=degree,
        residue_degree=1,
        ramification_indices=indices,
        facet_match=match,
        ram=ram,
        etale_in_codim1=ram.is_zero(),
        trace=trace,
        kind=kind,
        wild=wild,
    )


def identity_cover(ring: ToricRing) -> CoverDescriptor:
    eye = [[int(i == j) for j in range(ring.d)] for i in range(ring.d)]
    return _build_cover(ring, ring, eye, kind="identity")


def quotient_cover(lower: ToricRing, m: int) -> CoverDescriptor:
    """The extension k[x]^{mu_n} subset k[x]^{mu_m} for m | n above a cyclic quotient.

    The lower ring is the quotient by mu_n = ``lower.group_order``; the
    upper ring is the quotient by its subgroup mu_m, which acts through
    the same weights reduced mod m.  Only the upper ring is built.
    """
    n, weights = lower.group_order, lower.group_weights
    if n is None:
        raise CoverConstructionError("quotient covers need a cyclic quotient presentation")
    if m < 1 or n % m:
        raise CoverConstructionError(f"m = {m} must divide n = {n}")
    upper = quotient_singularity(m, weights, lower.p)
    # row i of T solves T_i @ B_upper = B_lower[i]
    t_matrix = [upper.intrinsic_from_ambient(row) for row in lower.embedding]
    if any(row is None for row in t_matrix):
        raise CoverConstructionError("lattice of the lower ring is not contained in the upper one")
    cover = _build_cover(lower, upper, t_matrix, kind="quotient")
    _require(cover.degree == n // m, f"the quotient cover has degree {cover.degree}, not {n // m}")
    return cover


def root_cover(
    nvars: int,
    along: int,
    n: int,
    p: int,
    allow_wild: bool = False,
) -> CoverDescriptor:
    """S = R[x_j^{1/n}] over the regular ring R = GF(p)[x_0..x_{nvars-1}].

    Kummer cover totally ramified along div(x_j) with index n, so
    Ram = (n-1) div(x_j^{1/n}).  With p | n the extension is inseparable;
    it is constructible only in the wild validation mode, where the trace
    vanishes identically.
    """
    if not (0 <= along < nvars):
        raise CoverConstructionError(f"coordinate index {along} out of range")
    if n < 1:
        raise CoverConstructionError("n must be positive")
    if n % p == 0 and not allow_wild:
        raise CoverConstructionError(f"p = {p} divides n = {n}")
    lower = ToricRing.regular(p, nvars)
    upper = ToricRing(p, lower.normals,
                      label=f"regular rank {nvars}, x{along} replaced by its {n}-th root")
    t_matrix = [
        [n if (i == j == along) else int(i == j) for j in range(nvars)]
        for i in range(nvars)
    ]
    return _build_cover(lower, upper, t_matrix, kind="root", wild=(n % p == 0))


def ramification_divisor(cover: CoverDescriptor) -> TorusQDivisor:
    """Ram = K_S - pi^* K_R, with coefficient e_F - 1 on the facet F."""
    if cover.wild:
        raise ValueError("ramification divisor requires a tame (separable) cover")
    return cover.ram


def pullback_divisor(cover: CoverDescriptor, delta_lower: TorusQDivisor) -> TorusQDivisor:
    """pi^* of a lower divisor: coefficient e_F * t_{match(F)} on facet F."""
    if len(delta_lower.coefficients) != cover.lower.nfacets:
        raise ValueError("divisor does not match the lower facet count")
    coeffs = tuple(
        cover.ramification_indices[f] * delta_lower.coefficients[cover.facet_match[f]]
        for f in range(cover.upper.nfacets)
    )
    return TorusQDivisor(coeffs)


def pullback_pair(cover: CoverDescriptor, delta_lower: TorusQDivisor) -> TorusQDivisor:
    """Delta_Y = pi^* Delta_X - Ram; raises unless effective."""
    delta_upper = pullback_divisor(cover, delta_lower) - cover.ram
    for f_idx, c in enumerate(delta_upper.coefficients):
        if c < 0:
            raise NonEffectivePairError(f_idx, c)
    return delta_upper


def compose_covers(first: CoverDescriptor, second: CoverDescriptor) -> CoverDescriptor:
    """The composite of R subset S (first) and S subset U (second).

    Checks the tower identity Ram = Ram_{U/S} + pi^* Ram_{S/R} against the
    directly computed ramification of the composite transition.
    """
    if first.upper.normals != second.lower.normals:
        raise CoverConstructionError("covers are not composable: middle rings differ")
    d = first.lower.d
    t_matrix = [
        [
            sum(first.transition[i][k] * second.transition[k][j] for k in range(d))
            for j in range(d)
        ]
        for i in range(d)
    ]
    composite = _build_cover(first.lower, second.upper, t_matrix, kind="composite")
    _require(composite.degree == first.degree * second.degree,
             "the degree of the composite is not the product of the degrees")
    tower = second.ram + pullback_divisor(second, first.ram)
    _require(composite.ram == tower, "tower additivity of ramification failed")
    return composite


# -- trace verification -----------------------------------------------------


@dataclass(frozen=True)
class TraceEvidence:
    generator_ambient: Vector
    in_lower_lattice: bool
    coefficient_mod_p: int
    image_in_maximal: bool


@dataclass(frozen=True)
class TraceReport:
    ok: bool
    surjective: bool
    rows: tuple[TraceEvidence, ...]


def verify_note_trace(cover: CoverDescriptor) -> TraceReport:
    """Tr(n_S) lies in m_R: checked on every Hilbert-basis generator of n_S.

    Each generator is a positive-degree monomial; its trace is either zero
    or the same monomial scaled by the degree, and a positive-degree
    monomial of the lower ring lies in its maximal ideal.  A row whose
    nonzero image is not such a monomial makes the report fail.
    """
    upper = cover.upper
    gens = upper.hilbert_basis()
    rows = []
    for g_amb in gens:
        c_up = upper.intrinsic_from_ambient(g_amb)
        _require(c_up is not None, f"Hilbert basis generator {g_amb} is outside the upper lattice")
        coeff, c_low = cover.trace.on_upper_monomial(c_up)
        in_lower = c_low is not None
        in_max = coeff == 0 or (in_lower and any(x > 0 for x in cover.lower.pairing(c_low)))
        rows.append(
            TraceEvidence(
                generator_ambient=tuple(g_amb),
                in_lower_lattice=in_lower,
                coefficient_mod_p=coeff,
                image_in_maximal=in_max,
            )
        )
    return TraceReport(ok=all(r.image_in_maximal for r in rows),
                       surjective=cover.trace.is_surjective(),
                       rows=tuple(rows))


def count_trace_summands(cover: CoverDescriptor) -> int:
    """Number of free R-summands of S whose projections are trace multiples.

    In the graded model the R-module of trace multiples Tr(s . -) maps onto
    the residue field through evaluation at 1; the quotient by the maps
    landing in m_R has length 1 exactly when some Tr(s . -) is surjective,
    i.e. when Tr itself is (the degree is a unit), and 0 otherwise.  With
    equal residue fields the count equals [l:k] = 1 on every tame cover.
    """
    if not cover.trace.is_surjective():
        return 0
    return cover.residue_degree


# -- quantitative verification ----------------------------------------------


@dataclass(frozen=True)
class TransformationReport:
    ok: bool
    exact: bool
    degree: int
    residue_degree: int
    s_lower: Fraction
    s_upper: Fraction
    lhs: Fraction
    rhs: Fraction
    delta_lower: TorusQDivisor | None
    delta_upper: TorusQDivisor | None


def verify_transformation(
    cover: CoverDescriptor, delta_lower: TorusQDivisor | None = None
) -> TransformationReport:
    """Check f * s(S, Delta_Y) = [L:K] * s(R, Delta_X) exactly.

    Without a pair the cover must be etale in codimension one (so that
    Delta_Y = 0 is the correct pullback) and the lower ring strongly
    F-regular; with a pair, Delta_Y = pi^* Delta_X - Ram must be effective.
    """
    if cover.wild:
        raise ValueError("the transformation rule requires a tame (separable) cover")
    if delta_lower is None:
        if not cover.etale_in_codim1:
            facet = next(i for i, c in enumerate(cover.ram.coefficients) if c != 0)
            raise NonEffectivePairError(facet, -cover.ram.coefficients[facet])
        delta_upper = None
        s_lower = toric_fsig_exact(cover.lower)
        if s_lower == 0:
            raise ValueError("lower ring is not strongly F-regular")
        s_upper = toric_fsig_exact(cover.upper)
    else:
        delta_upper = pullback_pair(cover, delta_lower)
        s_lower = toric_fsig_exact(cover.lower, delta_lower)
        s_upper = toric_fsig_exact(cover.upper, delta_upper)
    lhs = cover.residue_degree * s_upper
    rhs = cover.degree * s_lower
    return TransformationReport(
        ok=(lhs == rhs),
        exact=True,
        degree=cover.degree,
        residue_degree=cover.residue_degree,
        s_lower=s_lower,
        s_upper=s_upper,
        lhs=lhs,
        rhs=rhs,
        delta_lower=delta_lower,
        delta_upper=delta_upper,
    )


@dataclass(frozen=True)
class DoublingReport:
    ok: bool
    vacuous: bool
    s_lower: Fraction
    s_upper: Fraction
    equality: bool


def doubling_check(cover: CoverDescriptor) -> DoublingReport:
    """s(S) >= 2 s(R) for a cover etale in codimension one but not etale.

    In the strictly local graded model a cover of degree > 1 is never
    etale everywhere (it is branched at the vertex), so the inequality
    applies to every nontrivial etale-in-codimension-one cover; the
    identity cover passes vacuously.
    """
    if not cover.etale_in_codim1:
        raise ValueError("the doubling check requires a cover etale in codimension one")
    s_lower = toric_fsig_exact(cover.lower)
    s_upper = toric_fsig_exact(cover.upper)
    if cover.degree == 1:
        return DoublingReport(ok=True, vacuous=True, s_lower=s_lower,
                              s_upper=s_upper, equality=False)
    ok = s_upper >= 2 * s_lower
    return DoublingReport(ok=ok, vacuous=False, s_lower=s_lower,
                          s_upper=s_upper, equality=(s_upper == 2 * s_lower))


# -- chains ------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    steps: tuple[CoverDescriptor, ...]
    s_values: tuple[Fraction, ...]
    etale_flags: tuple[bool, ...]
    stabilization_index: int
    ok: bool


def _trial_divisors(n: int, deadline: float | None, task: str) -> Iterator[int]:
    """The divisors d <= sqrt(n) of n in increasing order, by trial division.

    ``deadline`` is checked every 4096 candidates, and past it
    ``BudgetExceeded`` is raised with ``task`` in its message.
    """
    root = math.isqrt(n)
    for start in range(1, root + 1, 4096):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"time budget exhausted during {task}", [])
        yield from [d for d in range(start, min(start + 4096, root + 1)) if n % d == 0]


def chain_simulation(ring: ToricRing, deadline: float | None = None) -> ChainReport:
    """Walk a maximal chain of quotient covers up from a cyclic quotient.

    The subgroup lattice of mu_n is the divisor lattice of n; the walk
    divides out the smallest prime factor at each step, ending at the
    regular ring.  Each etale-in-codimension-one step must at least double
    the F-signature, and the number of steps is at most log2(1/s(start)).
    Each step's trial division checks ``deadline`` before its first
    candidate (``_trial_divisors``), so the walk stops before a step once
    the deadline has passed.
    """
    if ring.group_order is None:
        raise ValueError("chain simulation needs a cyclic quotient presentation")
    steps = []
    s_values = [toric_fsig_exact(ring)]
    lower = ring
    while lower.group_order > 1:
        n = lower.group_order
        spf = next((d for d in _trial_divisors(n, deadline, "the chain walk") if d > 1), n)
        cover = quotient_cover(lower, n // spf)
        steps.append(cover)
        s_values.append(toric_fsig_exact(cover.upper))
        lower = cover.upper
    etale_flags = tuple(c.etale_in_codim1 for c in steps)
    ok = s_values[-1] == 1
    for cover, s_lo, s_hi in zip(steps, s_values, s_values[1:]):
        if s_hi > 1 or s_lo > s_hi:
            ok = False
        if cover.etale_in_codim1 and cover.degree > 1 and s_hi < 2 * s_lo:
            ok = False
    s_start = s_values[0]
    if all(etale_flags) and steps:
        _require(2 ** len(steps) <= 1 / s_start,
                 f"{len(steps)} etale steps exceed log2(1/s) for s = {s_start}")
    return ChainReport(
        steps=tuple(steps),
        s_values=tuple(s_values),
        etale_flags=etale_flags,
        stabilization_index=len(steps),
        ok=ok,
    )
