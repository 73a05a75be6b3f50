"""Splitting numbers and F-signature sequences.

Rings are presented either as a polynomial ring over GF(p) (regular) or
as a hypersurface quotient P/(f).  By Fedder's criterion the splitting
number is a_e = lambda(P/(m^[q] : g)) for the twist
g = f^(q-1) * prod g_j^(r_j), which is the rank of multiplication by g
on P/m^[q].  That rank comes from Jordan types (fsig.sebastiani) without
building g when f is separated or a quadratic form at odd p and the pair
is monomial, or one linear form on such a quadratic form; every other
twist is ranked on P/m^[q] itself.  The Groebner route
(``method="colon"``) cross-checks it without linear algebra: the exact
sequence 0 -> P/(m^[q] : g) -> P/m^[q] -> P/(m^[q], g) -> 0 gives
a_e = q^n - lambda(P/(m^[q], g)).  fsig_sequence and fsig_value take any
ring kind with the methods ``splitting_number(delta, e, deadline)`` and
``exact_fsig(delta)``: a RingPresentation ranks twists and has no exact
value, a ToricRing counts lattice windows and gives the exact volume.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .field import rank_mod_p_reference
from .ideals import Ideal, frobenius_power, ideal_sum, normal_form, quotient_length
from .linalg import find_positive_weights, multiplication_rank
from .poly import Polynomial
from .sebastiani import separated_colength, separated_splitting_number
from .toric import ToricRing, TorusQDivisor

FLOOR_PE = "floor_pe"
CEIL_PE_MINUS_1 = "ceil_pe_minus_1"


class BudgetExceeded(RuntimeError):
    """A sequence computation ran past its deadline; carries partial records."""

    def __init__(self, message: str, records: list["SplittingRecord"]):
        super().__init__(message)
        self.records = records


class LevelRefused(ValueError):
    """A sequence computation refused a level after finishing others; carries their records."""

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

    @classmethod
    def regular(cls, p: int, nvars: int, names: Sequence[str] | None = None) -> RingPresentation:
        return cls("regular", p, nvars, None, tuple(names) if names else None)

    @classmethod
    def hypersurface(cls, f: Polynomial, names: Sequence[str] | None = None) -> RingPresentation:
        return cls("hypersurface", f.p, f.nvars, f, tuple(names) if names else None)

    @property
    def d(self) -> int:
        return self.nvars if self.kind == "regular" else self.nvars - 1

    def maximal_ideal(self) -> Ideal:
        gens = [Polynomial.variable(i, self.p, self.nvars) for i in range(self.nvars)]
        return Ideal(self.p, self.nvars, gens)

    sequence_note = ""  # the ring-kind interface of fsig_sequence and fsig_value

    def splitting_number(self, delta: PairDivisor | None, e: int, deadline: float | None = None) -> int:
        """a_e as the rank of the Fedder twist (``splitting_number``)."""
        return splitting_number(self, delta, e, deadline=deadline)

    def exact_fsig(self, delta: PairDivisor | None) -> None:
        """None: the limit of a presentation's sequence is only estimated."""
        return None


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


def _pair_factors(
    ring: RingPresentation, delta: PairDivisor | None, q: int
) -> list[tuple[Polynomial, int]]:
    """The pair's twist factors (g_j, r_j) with r_j > 0 at scale q, after its checks."""
    if delta is None:
        return []
    if not isinstance(delta, PairDivisor):
        raise ValueError("a presentation takes divisor components (PairDivisor) as its pair")
    delta.check_floor_zero()
    for comp, _ in delta.components:
        if comp.p != ring.p or comp.nvars != ring.nvars:
            raise ValueError("divisor component lives in a different ring")
    return [(comp, r) for (comp, _), r in zip(delta.components, delta.exponents(q)) if r]


def _twist(
    ring: RingPresentation, delta: PairDivisor | None, e: int
) -> tuple[int, Polynomial, tuple[Polynomial, ...]]:
    """q = p^e, the colon twist f^(q-1) * prod g_j^(r_j), and its factors.

    The factors are f and the g_j with r_j > 0, each nonzero.
    """
    q = ring.p**e
    g = Polynomial.one(ring.p, ring.nvars)
    factors: list[Polynomial] = []
    pairs = _pair_factors(ring, delta, q)
    try:
        if ring.kind == "hypersurface":
            g = ring.f ** (q - 1)
            factors.append(ring.f)
        for comp, r in pairs:
            g = g * comp**r
            factors.append(comp)
    except OverflowError:
        raise ExponentOverflow(q) from None
    return q, g, tuple(factors)


def splitting_number(
    ring: RingPresentation,
    delta: PairDivisor | None = None,
    e: int = 1,
    method: str = "auto",
    deadline: float | None = None,
) -> int:
    """a_e = lambda(P/(m^[q] : g)), the free rank of the e-th Frobenius pushforward.

    ``method="auto"`` takes a_e of a hypersurface from ``fsig.sebastiani``
    when f is separated (terms in pairwise disjoint variables) or a
    quadratic form at odd p, and the pair is monomial or one linear form
    on such a quadratic form; otherwise it is the rank of g on P/m^[q].
    ``method="colon"`` computes q^n - lambda(P/(m^[q], g)) from a grevlex
    basis and never calls the engine.  Every route stops with
    ``TimeoutError`` past ``deadline``.
    """
    if method not in ("auto", "colon"):
        raise ValueError(f"unknown method {method!r}")
    if e < 1:
        raise ValueError("e must be a positive integer")
    if method == "auto":
        return _twisted_rank(ring, delta, e, None, deadline)
    q, g, _ = _twist(ring, delta, e)
    bracket = Ideal.bracket_maximal(ring.p, ring.nvars, q)
    length = quotient_length(ideal_sum(bracket, Ideal(ring.p, ring.nvars, [g])), deadline)
    if length == math.inf:
        raise ValueError("m^[q] + (twist) does not have finite colength")
    return q**ring.nvars - int(length)


def _twisted_rank(
    ring: RingPresentation,
    delta: PairDivisor | None,
    e: int,
    extra: Polynomial | None = None,
    deadline: float | None = None,
) -> int:
    """The rank of the twist of ``delta`` (times ``extra``) on P/m^[q].

    On a hypersurface the engine takes it when it can, with ``extra`` as
    one more factor of exponent 1; otherwise the twist is built and ranked.
    """
    q = ring.p**e
    if ring.kind == "hypersurface":
        pairs = _pair_factors(ring, delta, q) + ([(extra, 1)] if extra is not None else [])
        rank = separated_splitting_number(ring.f, q, pairs, deadline)
        if rank is not None:
            return rank
    _, g, factors = _twist(ring, delta, e)
    if extra is not None:
        g, factors = g * extra, factors + (extra,)
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


@dataclass
class SplittingSequence:
    """Splitting numbers for e = 1..e_max with an estimated limit.

    The estimate is never the exact limit: ``last`` is the final
    normalized value and ``extrapolated`` the two-point fit against
    a_e/q^d = s + c/q, reported only as an estimate.  Exact values come
    from the lattice backend where one exists.
    """

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
    deadline: float | None = None,
) -> SplittingSequence:
    """Splitting numbers a_e for e = 1..e_max with the normalized estimate.

    Each a_e is ``ring.splitting_number(delta, e, deadline)``: the lattice
    window count on a ToricRing (with a TorusQDivisor pair), the twist's
    rank on a RingPresentation (with a PairDivisor); the note starts with
    the ring's ``sequence_note``.  ``deadline`` is checked before each e,
    before each level of a window count's lattice walk, and on a
    presentation before each graded block or in the separated engine's
    walk; past it ``BudgetExceeded`` carries the records finished so far.
    A level refused with ``ValueError`` (too large for every route) after
    others finished raises ``LevelRefused``, which carries their records.
    """
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    records: list[SplittingRecord] = []
    for e in range(1, e_max + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"time budget exhausted before e = {e}", records)
        q = ring.p**e
        try:
            a_e = ring.splitting_number(delta, e, deadline)
        except TimeoutError:
            raise BudgetExceeded(f"time budget exhausted during e = {e}", records) from None
        except ValueError as exc:
            if not records:
                raise
            message = f"e = {e} refused: {exc}; the last finished level is e = {e - 1}"
            raise LevelRefused(message, records) from exc
        records.append(SplittingRecord(e, q, a_e, Fraction(a_e, q**ring.d)))
    extrapolated, consistent, monotone = sequence_diagnostics(records)
    return SplittingSequence(records, records[-1].normalized, extrapolated, consistent, monotone,
                             ring.sequence_note + SplittingSequence.note)


@dataclass(frozen=True)
class FSignature:
    """s(R, Delta), exact or estimated, with the interval it is known to lie in.

    An estimate's ``s`` is min(last, estimate) of ``sequence``, the value
    bounds and purity verdicts are judged on; ``interval`` spans the last
    normalized value and the extrapolation (the last value when there is
    only one record).  An exact value has ``interval == (s, s)``.
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

    ``auto`` gives ``ring.exact_fsig(delta)`` when the ring kind has an
    exact value (a ToricRing: the lattice volume), ``toric`` requires
    one, and otherwise, or with ``sequence``, s is estimated from
    ``fsig_sequence(ring, delta, e_max, deadline)``.
    """
    if backend not in ("auto", "toric", "sequence"):
        raise ValueError(f"unknown backend {backend!r}")
    s = None if backend == "sequence" else ring.exact_fsig(delta)
    if s is not None:
        return FSignature(s, True, (s, s))
    if backend == "toric":
        raise ValueError("backend=toric requires a toric or quotient ring")
    seq = fsig_sequence(ring, delta, e_max=e_max, deadline=deadline)
    fit = seq.last if seq.extrapolated is None else seq.extrapolated
    return FSignature(min(seq.last, seq.estimate), False, (min(seq.last, fit), max(seq.last, fit)), seq)


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
    return _gap_sequence(ring, None, c, e_max)


def _gap_sequence(
    ring: RingPresentation, delta: PairDivisor | None, extra: Polynomial, e_max: int
) -> list[Fraction]:
    """(lambda(P/(m^[q] : g)) - lambda(P/(m^[q] : g*extra)))/q^d for e = 1..e_max.

    g is the twist of ``delta``; ``extra`` must be nonzero.  The first
    length is a_e from ``splitting_number``, the second the rank of
    g*extra, each through the engine when it takes them.
    """
    gaps = []
    for e in range(1, e_max + 1):
        base = splitting_number(ring, delta, e)
        shifted = _twisted_rank(ring, delta, e, extra)
        gaps.append(Fraction(base - shifted, ring.p ** (e * ring.d)))
    return gaps


def _check_nonzero_in_ring(ring: RingPresentation, c: Polynomial) -> None:
    # {f} is a Groebner basis of (f), so trial division by f decides membership
    if ring.kind == "hypersurface" and normal_form(c, (ring.f,)).is_zero():
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
) -> PerturbationReport:
    """Gap between the sequence and its fixed-divisor perturbation.

    The extra divisor must have integer coefficients; its twist factor
    prod h_j^(t_j) is held fixed across e, so the normalized gap must
    sink below the threshold 2/q at e_max.
    """
    fixed = Polynomial.one(ring.p, ring.nvars)
    for h, t in extra.components:
        if t.denominator != 1:
            raise ValueError("perturbation coefficients must be integers")
        if t < 0:
            raise ValueError("perturbation coefficients must be nonnegative")
        fixed = fixed * h ** int(t)
    gaps = _gap_sequence(ring, delta, fixed, e_max)
    threshold = Fraction(2, ring.p**e_max)
    passed = all(gap >= 0 for gap in gaps) and gaps[-1] <= threshold
    return PerturbationReport(tuple(gaps), threshold, passed)


def hk_length_sequence(
    ring: RingPresentation, ideal: Ideal, e_max: int, deadline: float | None = None
) -> list[Fraction]:
    """Normalized Hilbert-Kunz lengths lambda(R/I^[q] R)/q^d for e = 1..e_max.

    When I is generated by pure variable powers x_i^(a_i), I^[q] is the box
    (x_i^(a_i q)); so it is, with every a_i = 1, when I is spanned by n
    independent linear forms, which make I = m.  The length of a regular
    ring is then prod a_i q.  On a hypersurface it is the block count of
    ``separated_colength`` when f is separated, or a quadratic form at odd
    p with every a_i q the same power of p, and otherwise prod a_i q less
    the rank of f on the box (``multiplication_rank``).  Any other ideal
    takes the Groebner route, lambda(P/(I^[q] + (f))).  Past ``deadline``
    the rank, the Groebner basis and count, and the engine's walk raise
    ``TimeoutError``.
    """
    if ideal.p != ring.p or ideal.nvars != ring.nvars:
        raise ValueError("ideal lives in a different ambient ring")
    caps1 = _diagonal_caps(ideal)
    box = caps1 is not None and ring.kind == "hypersurface"
    weights = find_positive_weights(ring.f) if box else None
    out = []
    for e in range(1, e_max + 1):
        q = ring.p**e
        if caps1 is not None:
            caps = tuple(a * q for a in caps1)
            if ring.kind == "regular":
                length = math.prod(caps)
            else:
                length = separated_colength(ring.f, caps, deadline)
                if length is None:
                    length = math.prod(caps) - multiplication_rank(ring.f, caps, weights, deadline)
        else:
            bracket = frobenius_power(ideal, q)
            if ring.kind == "hypersurface":
                bracket = ideal_sum(bracket, Ideal(ring.p, ring.nvars, [ring.f]))
            length = quotient_length(bracket, deadline)
            if length == math.inf:
                raise ValueError("ideal does not have finite colength in the ring")
        out.append(Fraction(int(length), q**ring.d))
    return out


def _diagonal_caps(ideal: Ideal) -> tuple[int, ...] | None:
    """Caps a_i with I^[q] = (x_i^(a_i q)) for every q, or None.

    That holds when I is generated by pure variable powers, and when its
    generators are linear forms of rank n: they span the linear forms, so
    I is m and I^[q] = m^[q].
    """
    n = ideal.nvars
    if all(sum(m) == 1 for g in ideal.generators for m in g.terms):
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rows = [[g.terms.get(unit, 0) for unit in units] for g in ideal.generators]
        return (1,) * n if rank_mod_p_reference(rows, ideal.p) == n else None
    caps = [0] * n
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
