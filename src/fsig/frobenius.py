"""Splitting ideals, splitting numbers, and F-signature sequences.

Rings are presented either as a polynomial ring over GF(p) (regular) or
as a hypersurface quotient P/(f).  Splitting ideals follow the colon
realization I_e = (m^[q] : f^(q-1) * prod g_j^(r_j)) in the ambient ring;
splitting numbers are computed as the rank of multiplication by the same
twist on P/m^[q], which equals the colon-quotient length and avoids large
basis computations.  The two routes are cross-checked in the test suite.
fsig_sequence also takes a toric ring, whose splitting numbers are the
lattice window counts of fsig.toric; fsig_value picks between that
estimate and the exact lattice value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ideals import Ideal, colon_ideal, frobenius_power, ideal_sum, quotient_length
from .linalg import find_positive_weights, multiplication_rank
from .poly import Polynomial, default_names
from .toric import ToricRing, TorusQDivisor, toric_fsig_exact, toric_splitting_number

FLOOR_PE = "floor_pe"
CEIL_PE_MINUS_1 = "ceil_pe_minus_1"


class BudgetExceeded(RuntimeError):
    """A sequence computation ran past its deadline; carries partial records."""

    def __init__(self, message: str, records: list["SplittingRecord"]):
        super().__init__(message)
        self.records = records


class ExponentOverflow(ValueError):
    """q = p^e grew past the supported exponent range."""

    def __init__(self, q: int):
        super().__init__(f"exponent overflow at q = {q}; reduce e_max")
        self.q = q


@dataclass(frozen=True)
class RingPresentation:
    """A local model: GF(p)[x_0..x_{n-1}] or its quotient by one equation.

    The maximal ideal is generated by all variables; the dimension is the
    variable count, less one in the hypersurface case.
    """

    kind: str
    p: int
    nvars: int
    f: Polynomial | None = None
    names: tuple[str, ...] | None = None
    alpha: int = 0

    def __post_init__(self):
        if self.kind not in ("regular", "hypersurface"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "hypersurface":
            if self.f is None or self.f.is_zero():
                raise ValueError("hypersurface presentation requires a nonzero f")
            if self.f.total_degree() == 0:
                raise ValueError("f must be a nonunit")
            if self.f.p != self.p or self.f.nvars != self.nvars:
                raise ValueError("f lives in a different ambient ring")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if self.alpha != 0:
            raise ValueError("only perfect residue fields (alpha = 0) are supported")

    @classmethod
    def regular(cls, p: int, nvars: int, names: Sequence[str] | None = None) -> RingPresentation:
        return cls("regular", p, nvars, None, tuple(names) if names else None)

    @classmethod
    def hypersurface(cls, f: Polynomial, names: Sequence[str] | None = None) -> RingPresentation:
        return cls("hypersurface", f.p, f.nvars, f, tuple(names) if names else None)

    @property
    def d(self) -> int:
        return self.nvars if self.kind == "regular" else self.nvars - 1

    def variable_names(self) -> tuple[str, ...]:
        return self.names if self.names is not None else default_names(self.nvars)

    def maximal_ideal(self) -> Ideal:
        gens = [Polynomial.variable(i, self.p, self.nvars) for i in range(self.nvars)]
        return Ideal(self.p, self.nvars, gens)

    def is_degenerate(self) -> bool:
        """True when f lies in m^[p], which forces every a_e to vanish."""
        if self.kind == "regular":
            return False
        return in_bracket_maximal(self.f, self.p)

    def is_f_pure(self) -> bool:
        """Splitness at e = 1: f^(p-1) outside m^[p] (trivially true if regular)."""
        if self.kind == "regular":
            return True
        return not in_bracket_maximal(self.f ** (self.p - 1), self.p)


def in_bracket_maximal(g: Polynomial, q: int) -> bool:
    """Membership in m^[q]: every term divisible by some x_i^q."""
    return all(any(e >= q for e in m) for m in g.terms)


@dataclass(frozen=True)
class PairDivisor:
    """A formal sum of rational multiples of principal divisors.

    Components are (g, t) with g a nonzero nonunit and t >= 0; the pair
    operations additionally require t < 1 so the divisor has zero floor.
    The convention picks the twist exponent: floor(q*t) or ceil((q-1)*t).
    """

    components: tuple[tuple[Polynomial, Fraction], ...]
    convention: str = FLOOR_PE

    def __post_init__(self):
        if self.convention not in (FLOOR_PE, CEIL_PE_MINUS_1):
            raise ValueError(f"unknown rounding convention {self.convention!r}")
        for g, t in self.components:
            if g.is_zero():
                raise ValueError("divisor component with g = 0")
            if g.total_degree() == 0:
                raise ValueError("divisor component with unit g")
            if t < 0:
                raise ValueError("divisor coefficients must be nonnegative")

    @classmethod
    def of(cls, components, convention: str = FLOOR_PE) -> PairDivisor:
        return cls(tuple((g, Fraction(t)) for g, t in components), convention)

    @classmethod
    def empty(cls) -> PairDivisor:
        return cls(())

    def is_empty(self) -> bool:
        return not self.components

    def check_floor_zero(self) -> None:
        for _, t in self.components:
            if t >= 1:
                raise ValueError(f"divisor coefficient {t} >= 1; the floor must be zero")

    def exponents(self, q: int) -> list[int]:
        """The twist exponents r_j at scale q under this convention."""
        out = []
        for _, t in self.components:
            if self.convention == FLOOR_PE:
                out.append(math.floor(q * t))
            else:
                out.append(math.ceil((q - 1) * t))
        return out


def _twist(
    ring: RingPresentation, delta: PairDivisor | None, e: int
) -> tuple[int, Polynomial, tuple[Polynomial, ...]]:
    """q = p^e, the colon twist f^(q-1) * prod g_j^(r_j), and its factors.

    The factors are f and the g_j with r_j > 0, each nonzero.
    """
    if e < 1:
        raise ValueError("e must be a positive integer")
    q = ring.p**e
    g = Polynomial.one(ring.p, ring.nvars)
    factors: list[Polynomial] = []
    try:
        if ring.kind == "hypersurface":
            g = ring.f ** (q - 1)
            factors.append(ring.f)
        if delta is not None and not delta.is_empty():
            delta.check_floor_zero()
            for (comp, _), r in zip(delta.components, delta.exponents(q)):
                if comp.p != ring.p or comp.nvars != ring.nvars:
                    raise ValueError("divisor component lives in a different ring")
                if r:
                    g = g * comp**r
                    factors.append(comp)
    except OverflowError:
        raise ExponentOverflow(q) from None
    return q, g, tuple(factors)


def splitting_ideal(ring: RingPresentation, delta: PairDivisor | None, e: int) -> Ideal:
    """The splitting ideal I_e = (m^[q] : twist), computed in the ambient ring.

    This is the explicit colon route; splitting_number uses an equivalent
    rank computation and the two are compared in tests at small e.
    """
    q, g, _ = _twist(ring, delta, e)
    bracket = Ideal.bracket_maximal(ring.p, ring.nvars, q)
    if g.total_degree() == 0:
        return bracket
    return colon_ideal(bracket, g)


def splitting_number(
    ring: RingPresentation,
    delta: PairDivisor | None = None,
    e: int = 1,
    method: str = "auto",
    deadline: float | None = None,
) -> int:
    """a_e = length of P/I_e, the free rank of the e-th Frobenius pushforward.

    The rank route stops with ``TimeoutError`` past ``deadline`` (see
    ``multiplication_rank``); the colon route does not check it.
    """
    if method == "colon":
        length = quotient_length(splitting_ideal(ring, delta, e))
        if length == math.inf:
            raise ValueError("splitting ideal does not have finite colength")
        return int(length)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    q, g, factors = _twist(ring, delta, e)
    return _colon_length(ring, g, q, factors, deadline)


def _colon_length(
    ring: RingPresentation,
    g: Polynomial,
    q: int,
    factors: tuple[Polynomial, ...],
    deadline: float | None = None,
) -> int:
    """lambda(P/(m^[q] : g)): the rank of multiplication by g on P/m^[q].

    g must be a product of powers of the nonzero ``factors``, which give
    the grading weights (``find_positive_weights``).
    """
    if g.total_degree() == 0:
        return q**ring.nvars
    caps = (q,) * ring.nvars
    return multiplication_rank(g, caps, find_positive_weights(*factors), deadline)


@dataclass(frozen=True)
class SplittingRecord:
    e: int
    q: int
    a_e: int
    normalized: Fraction
    ideal: Ideal | None = None


@dataclass
class SplittingSequence:
    """Splitting numbers for e = 1..e_max with an estimated limit.

    The estimate is never the exact limit: ``last`` is the final
    normalized value and ``extrapolated`` the two-point fit against
    a_e/q^d = s + c/q, reported only as an estimate.  Exact values come
    from the lattice backend where one exists.
    """

    ring: RingPresentation | ToricRing
    delta: PairDivisor | TorusQDivisor | None
    records: list[SplittingRecord]
    last: Fraction
    extrapolated: Fraction | None
    consistent: bool
    monotone: bool
    note: str = "estimate only, not the exact limit"

    @property
    def estimate(self) -> Fraction:
        if self.extrapolated is not None and self.consistent:
            return self.extrapolated
        return self.last


def sequence_diagnostics(records: list[SplittingRecord]) -> tuple[Fraction | None, bool, bool]:
    values = [r.normalized for r in records]
    monotone = all(a >= b for a, b in zip(values, values[1:])) or all(
        a <= b for a, b in zip(values, values[1:])
    )
    if len(records) < 2:
        return None, len(records) == 1, monotone
    v1, q1 = records[-2].normalized, Fraction(records[-2].q)
    v2, q2 = records[-1].normalized, Fraction(records[-1].q)
    extrapolated = (v2 * q2 - v1 * q1) / (q2 - q1)
    consistent = True
    if len(records) >= 3:
        c = (v2 - extrapolated) * q2
        q0 = records[-3].q
        predicted = extrapolated + c / q0
        residual = abs(records[-3].normalized - predicted)
        consistent = residual <= max(Fraction(2, q0), Fraction(1, 50))
    return extrapolated, consistent, monotone


def fsig_sequence(
    ring: RingPresentation | ToricRing,
    delta: PairDivisor | TorusQDivisor | None = None,
    e_max: int = 4,
    include_ideals: bool = False,
    deadline: float | None = None,
) -> SplittingSequence:
    """Splitting numbers a_e for e = 1..e_max with the normalized estimate.

    A ToricRing (with a TorusQDivisor pair) takes its a_e from the lattice
    window counts, a RingPresentation (with a PairDivisor) from the rank of
    the colon twist.  ``deadline`` is checked before each e and, on a
    presentation, before each graded block; past it ``BudgetExceeded``
    carries the records finished so far.
    """
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    toric = isinstance(ring, ToricRing)
    if toric and include_ideals:
        raise ValueError("splitting ideals need a ring presentation")
    records: list[SplittingRecord] = []
    for e in range(1, e_max + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"time budget exhausted before e = {e}", records)
        q = ring.p**e
        if toric:
            a_e = toric_splitting_number(ring, delta, e)
        else:
            try:
                a_e = splitting_number(ring, delta, e, deadline=deadline)
            except TimeoutError:
                raise BudgetExceeded(f"time budget exhausted during e = {e}", records) from None
        ideal = splitting_ideal(ring, delta, e) if include_ideals else None
        records.append(SplittingRecord(e, q, a_e, Fraction(a_e, q**ring.d), ideal))
    extrapolated, consistent, monotone = sequence_diagnostics(records)
    sequence = SplittingSequence(
        ring, delta, records, records[-1].normalized, extrapolated, consistent, monotone
    )
    if toric:
        sequence.note = "window counts; " + sequence.note
    return sequence


@dataclass(frozen=True)
class FSignature:
    """s(R, Delta), exact or estimated, with the interval it is known to lie in.

    An estimate's ``s`` is the extrapolation of ``sequence`` (its last
    value when there is only one record) and ``interval`` spans it and the
    last normalized value; an exact value has ``interval == (s, s)``.
    """

    s: Fraction
    exact: bool
    interval: tuple[Fraction, Fraction]
    sequence: SplittingSequence | None = None


def fsig_value(
    ring: RingPresentation | ToricRing,
    delta: PairDivisor | TorusQDivisor | None = None,
    backend: str = "auto",
    e_max: int = 3,
    deadline: float | None = None,
) -> FSignature:
    """The F-signature from the backend the ring and ``backend`` select.

    ``auto`` gives the exact lattice value iff the ring is a ToricRing,
    ``toric`` requires one, and ``sequence`` estimates s from
    ``fsig_sequence(ring, delta, e_max, deadline)`` on either kind of ring.
    """
    if backend not in ("auto", "toric", "sequence"):
        raise ValueError(f"unknown backend {backend!r}")
    toric = isinstance(ring, ToricRing)
    if backend == "toric" and not toric:
        raise ValueError("backend=toric requires a toric or quotient ring")
    if toric and backend != "sequence":
        s = toric_fsig_exact(ring, delta)
        return FSignature(s, True, (s, s))
    seq = fsig_sequence(ring, delta, e_max=e_max, deadline=deadline)
    s = seq.last if seq.extrapolated is None else seq.extrapolated
    return FSignature(s, False, (min(seq.last, s), max(seq.last, s)), seq)


@dataclass(frozen=True)
class RoundingReport:
    """Per-component comparison of the two twist-exponent conventions."""

    q: int
    floor_exponents: tuple[int, ...]
    ceil_exponents: tuple[int, ...]
    equalities: tuple[bool, ...]
    forced_equalities: tuple[bool, ...]
    passed: bool


def rounding_gap_check(delta: PairDivisor, e: int, p: int) -> RoundingReport:
    """Checks floor(q*t) <= ceil((q-1)*t), with equality forced when (q-1)*t is integral."""
    delta.check_floor_zero()
    q = p**e
    floors = []
    ceils = []
    equalities = []
    forced = []
    ok = True
    for _, t in delta.components:
        lo = math.floor(q * t)
        hi = math.ceil((q - 1) * t)
        floors.append(lo)
        ceils.append(hi)
        equalities.append(lo == hi)
        integral = ((q - 1) * t).denominator == 1
        forced.append(integral)
        if lo > hi:
            ok = False
        if integral and lo != hi:
            ok = False
    return RoundingReport(q, tuple(floors), tuple(ceils), tuple(equalities), tuple(forced), ok)


def ctrick_gap_sequence(
    ring: RingPresentation, c: Polynomial, e_max: int
) -> list[Fraction]:
    """Normalized gaps (a_e - length through the extra colon by c)/q^d.

    With I_e the splitting ideal and J_e = (I_e : c), the gap is
    lambda(J_e/I_e)/q^d, which must be nonnegative and tend to zero.
    """
    if c.is_zero():
        raise ValueError("c must be nonzero")
    _check_nonzero_in_ring(ring, c)
    gaps = []
    for e in range(1, e_max + 1):
        q, g, factors = _twist(ring, None, e)
        base = _colon_length(ring, g, q, factors)
        shifted = _colon_length(ring, g * c, q, factors + (c,))
        gaps.append(Fraction(base - shifted, q**ring.d))
    return gaps


def _check_nonzero_in_ring(ring: RingPresentation, c: Polynomial) -> None:
    if ring.kind == "hypersurface":
        ideal = Ideal(ring.p, ring.nvars, [ring.f])
        if ideal.contains(c):
            raise ValueError("c is zero in the quotient ring")


@dataclass(frozen=True)
class PerturbationReport:
    gaps: tuple[Fraction, ...]
    threshold: Fraction
    passed: bool


def perturbed_limit_check(
    ring: RingPresentation,
    delta: PairDivisor | None,
    extra: PairDivisor,
    e_max: int,
    threshold: Fraction | None = None,
) -> PerturbationReport:
    """Gap between the sequence and its fixed-divisor perturbation.

    The extra divisor must have integer coefficients; its twist factor
    prod h_j^(t_j) is held fixed across e, so the normalized gap must
    sink below the threshold (default 2/q at e_max).
    """
    fixed = Polynomial.one(ring.p, ring.nvars)
    for h, t in extra.components:
        if t.denominator != 1:
            raise ValueError("perturbation coefficients must be integers")
        if t < 0:
            raise ValueError("perturbation coefficients must be nonnegative")
        fixed = fixed * h ** int(t)
    gaps = []
    for e in range(1, e_max + 1):
        q, g, factors = _twist(ring, delta, e)
        base = _colon_length(ring, g, q, factors)
        pert = _colon_length(ring, g * fixed, q, factors + (fixed,))
        gaps.append(Fraction(base - pert, q**ring.d))
    q_last = ring.p**e_max
    if threshold is None:
        threshold = Fraction(2, q_last)
    passed = all(gap >= 0 for gap in gaps) and gaps[-1] <= threshold
    return PerturbationReport(tuple(gaps), threshold, passed)


def hk_length_sequence(ring: RingPresentation, ideal: Ideal, e_max: int) -> list[Fraction]:
    """Normalized Hilbert-Kunz lengths lambda(R/I^[q] R)/q^d for e = 1..e_max."""
    if ideal.p != ring.p or ideal.nvars != ring.nvars:
        raise ValueError("ideal lives in a different ambient ring")
    caps1 = _diagonal_caps(ideal)
    out = []
    for e in range(1, e_max + 1):
        q = ring.p**e
        if caps1 is not None:
            caps = tuple(a * q for a in caps1)
            if ring.kind == "regular":
                length = math.prod(caps)
            else:
                weights = find_positive_weights(ring.f)
                length = math.prod(caps) - multiplication_rank(ring.f, caps, weights=weights)
        else:
            bracket = frobenius_power(ideal, q)
            if ring.kind == "hypersurface":
                bracket = ideal_sum(bracket, Ideal(ring.p, ring.nvars, [ring.f]))
            length = quotient_length(bracket)
            if length == math.inf:
                raise ValueError("ideal does not have finite colength in the ring")
        out.append(Fraction(int(length), q**ring.d))
    return out


def _diagonal_caps(ideal: Ideal) -> tuple[int, ...] | None:
    """Exponent caps when the ideal is generated by pure variable powers."""
    caps = [0] * ideal.nvars
    for g in ideal.generators:
        if not g.is_monomial():
            return None
        m = next(iter(g.terms))
        support = [i for i, e in enumerate(m) if e]
        if len(support) != 1:
            return None
        i = support[0]
        if caps[i] == 0 or m[i] < caps[i]:
            caps[i] = m[i]
    if any(c == 0 for c in caps):
        return None
    return tuple(caps)


@dataclass(frozen=True)
class SfrWitness:
    """Least e with the splitting witness, or None if inconclusive.

    A missing witness up to searched_up_to is reported as inconclusive,
    never as a negative certificate.
    """

    e: int | None
    searched_up_to: int

    @property
    def conclusive(self) -> bool:
        return self.e is not None


def sfr_witness(ring: RingPresentation, c: Polynomial, e_max: int = 4) -> SfrWitness:
    """Search for the least e such that c times the Frobenius twist splits."""
    if c.is_zero():
        raise ValueError("c must be nonzero")
    _check_nonzero_in_ring(ring, c)
    for e in range(1, e_max + 1):
        q = ring.p**e
        try:
            if ring.kind == "regular":
                candidate = c
            else:
                candidate = c * ring.f ** (q - 1)
        except OverflowError:
            raise ExponentOverflow(q) from None
        if not in_bracket_maximal(candidate, q):
            return SfrWitness(e, e_max)
    return SfrWitness(None, e_max)
