"""Exact F-signature machinery for simplicial affine semigroup rings.

A ring is presented by the primitive facet normals of its semigroup
inside the intrinsic lattice Z^d, together with an embedding matrix
mapping intrinsic coordinates to ambient monomial exponents.  A residue
class of M/qM is free exactly when it contains a lattice point pairing
into [0, q-1] with every facet normal, and such a window point is
provably the unique minimal element of its class.  Lattice points with
pairings in a box are made by a walk over an echelon basis of the
pairing lattice normals @ Z^d, one pairing coordinate per level, so only
lattice points and their prefixes are ever built.  A window count a_e
stops the walk one level short and sums the last level's progression
lengths in closed form: it refuses only when a level it builds would
hold more than 20,000,000 partial sums, and its cost does not depend on
the index of the lattice.  The class audit finds
the minimal elements of every class in one enumeration of a box whose
bound, q*D_F - 1 on facet F, is proved in toric_splitting_certificates.
The Hilbert basis is the extreme rays and the minimal nonzero points of
the fundamental parallelepiped, made by the same walk.  Every walk
refuses by the partial sums it builds (or a value past int64), never by
the size of the box it walks.
The F-signature is the exact rational volume of the limiting window
polytope.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Vector = tuple[int, ...]


class VerificationFailure(RuntimeError):
    """A mathematical check that must hold did not; the CLI exits 4."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationFailure(message)


# -- small exact linear algebra over Z / Q --------------------------------


def primitive_vector(v: Sequence[int]) -> Vector:
    g = math.gcd(*(int(x) for x in v))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(int(x) // g for x in v)


def _rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination: the one exact elimination.

    Returns (R, pivots, det) for an integer matrix: R / det is the reduced
    row echelon form of ``rows``, with its leading ones in the columns
    ``pivots``, and det is the determinant of ``rows`` when they are
    square and nonsingular.  Each step divides by the previous pivot;
    every entry stays, up to sign, a minor of ``rows`` (Bareiss), so the
    divisions are exact and no fraction is ever formed.
    """
    work = [[int(x) for x in row] for row in rows]
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        top = work[r]
        a = top[c]
        for i, row in enumerate(work):
            if i != r:
                b = row[c]
                work[i] = [(a * x - b * y) // prev for x, y in zip(row, top)]
        prev = a
        pivots.append(c)
    return [[sign * x for x in row] for row in work], pivots, sign * prev


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]] | None, int]:
    """Integer adjugate and determinant, with adj(A) @ A = det * I.

    Both come from one elimination of [A | I], whose right half becomes
    adj(A) when its left half becomes det * I.  A singular matrix gives
    (None, 0); each caller raises its own error.
    """
    d = len(rows)
    reduced, pivots, det = _rref([list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(rows)])
    if pivots != list(range(d)):
        return None, 0
    adj = [row[d:] for row in reduced]
    cols = list(zip(*rows))
    _require([[sum(map(operator.mul, r, c)) for c in cols] for r in adj]
             == [[det * (i == j) for j in range(d)] for i in range(d)],
             "the adjugate fails adj(A) @ A = det * I")
    return adj, det


def _solve_row(adj_det: tuple[list[list[int]], int], v: Sequence[int]) -> Vector | None:
    """The x with x @ A = v, from (adj A, det A); None when x is not integral."""
    adj, det = adj_det
    x = []
    for col in zip(*adj):
        num = sum(a * int(b) for a, b in zip(col, v))
        if num % det:
            return None
        x.append(num // det)
    return tuple(x)


def row_reduction_transform(row: Sequence[int]) -> tuple[int, list[Vector]]:
    """Unimodular columns turning ``row`` into (g, 0, ..., 0).

    Returns g = gcd and the column vectors U_j with row . U_0 = g and
    row . U_j = 0 for j >= 1; the U_j form a basis of Z^m.
    """
    m = len(row)
    r = [int(x) for x in row]
    cols = [[int(i == j) for i in range(m)] for j in range(m)]
    pivot = next((i for i, x in enumerate(r) if x), None)
    if pivot is None:
        raise ValueError("zero row has full kernel; not supported here")
    if pivot != 0:
        r[0], r[pivot] = r[pivot], r[0]
        cols[0], cols[pivot] = cols[pivot], cols[0]
    for j in range(1, m):
        if r[j] == 0:
            continue
        g, s, t = _xgcd(r[0], r[j])
        a, b = r[0] // g, r[j] // g
        c0 = [s * cols[0][i] + t * cols[j][i] for i in range(m)]
        cj = [-b * cols[0][i] + a * cols[j][i] for i in range(m)]
        cols[0], cols[j] = c0, cj
        r[0], r[j] = g, 0
    if r[0] < 0:
        r[0] = -r[0]
        cols[0] = [-x for x in cols[0]]
    return r[0], [tuple(c) for c in cols]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def row_lattice_basis(gens: Sequence[Sequence[int]]) -> list[Vector]:
    """Echelon basis of the lattice spanned by the given integer rows."""
    ncols = len(gens[0])
    work = [list(map(int, g)) for g in gens if any(g)]
    basis: list[Vector] = []
    col = 0
    while col < ncols and work:
        pivots = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pivots:
            col += 1
            work = rest
            continue
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            p0 = pivots[0]
            reduced = [p0]
            for r in pivots[1:]:
                f = r[col] // p0[col]
                rr = [a - f * b for a, b in zip(r, p0)]
                if rr[col] != 0:
                    reduced.append(rr)
                elif any(rr):
                    rest.append(rr)
            pivots = reduced
        row = pivots[0]
        if row[col] < 0:
            row = [-x for x in row]
        basis.append(tuple(row))
        work = rest
        col += 1
    return basis


def congruence_lattice_basis(amb_weights: Sequence[int], n: int) -> list[Vector]:
    """Basis of the lattice {u in Z^d : sum a_i u_i = 0 mod n}."""
    d = len(amb_weights)
    row = list(amb_weights) + [n]
    _, cols = row_reduction_transform(row)
    basis = [c[:d] for c in cols[1:]]
    if len(basis) != d:
        raise ValueError("degenerate congruence data")
    return [tuple(b) for b in basis]


# -- divisors --------------------------------------------------------------


@dataclass(frozen=True)
class TorusQDivisor:
    """Rational coefficients on the torus-invariant prime divisors, one per facet."""

    coefficients: tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs: Iterable) -> TorusQDivisor:
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def zero(cls, nfacets: int) -> TorusQDivisor:
        return cls((Fraction(0),) * nfacets)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def check_pair_range(self) -> None:
        for c in self.coefficients:
            if not (0 <= c < 1):
                raise ValueError(f"pair coefficient {c} outside [0, 1)")

    def __add__(self, other: TorusQDivisor) -> TorusQDivisor:
        self._match(other)
        return TorusQDivisor(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: TorusQDivisor) -> TorusQDivisor:
        self._match(other)
        return TorusQDivisor(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))

    def _match(self, other: TorusQDivisor) -> None:
        if len(self.coefficients) != len(other.coefficients):
            raise ValueError("divisors live on different facet sets")


# -- rings -----------------------------------------------------------------


class SimplicialityError(ValueError):
    """The cone is not simplicial; exact guarantees do not apply."""


class ToricRing:
    """A simplicial affine semigroup ring over GF(p).

    ``normals`` are the primitive facet pairings in intrinsic lattice
    coordinates; ``embedding`` maps intrinsic coordinates c to ambient
    monomial exponents u = c @ embedding.  The rays of a toric document
    are these normals: a lattice point belongs to the semigroup exactly
    when it pairs nonnegatively with every one.  A ring never changes
    after it is built, so covers and chains share their rings.
    """

    def __init__(
        self,
        p: int,
        normals: Sequence[Sequence[int]],
        embedding: Sequence[Sequence[int]] | None = None,
        group_order: int | None = None,
        group_weights: tuple[int, ...] | None = None,
        label: str = "",
    ):
        self.p = p
        self.normals: tuple[Vector, ...] = tuple(tuple(int(x) for x in row) for row in normals)
        self.d = len(self.normals[0]) if self.normals else 0
        if not self.normals or any(len(row) != self.d for row in self.normals):
            raise ValueError("rays must be nonempty vectors of equal length")
        if len(self.normals) != self.d:
            raise SimplicialityError(
                f"{len(self.normals)} rays in rank {self.d}; only simplicial cones are supported"
            )
        self._adj, self._det = adjugate(self.normals)
        if self._det == 0:
            raise ValueError("rays are linearly dependent; cone is not full-dimensional")
        for row in self.normals:
            if primitive_vector(row) != row:
                raise ValueError(f"ray {row} is not primitive")
        if embedding is None:
            embedding = [[int(i == j) for j in range(self.d)] for i in range(self.d)]
        self.embedding: tuple[Vector, ...] = tuple(tuple(int(x) for x in row) for row in embedding)
        self.group_order = group_order
        self.group_weights = group_weights
        self.label = label or f"toric ring on {self.normals}"

    @classmethod
    def regular(cls, p: int, d: int) -> ToricRing:
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        return cls(p, eye, label=f"regular rank {d}")

    @property
    def small(self) -> bool | None:
        """Whether the cyclic group acts freely in codimension one; None without a group."""
        return None if self.group_order is None else _is_small(self.group_order, self.group_weights)

    # -- the ring-kind interface of fsig.frobenius --

    sequence_note = "window counts; "

    def splitting_number(self, delta: TorusQDivisor | None, e: int, deadline: float | None = None) -> int:
        """a_e as a lattice window count (``toric_splitting_number``)."""
        return toric_splitting_number(self, delta, e, deadline=deadline)

    def exact_fsig(self, delta: TorusQDivisor | None) -> Fraction:
        """The exact F-signature, the window polytope's volume (``toric_fsig_exact``)."""
        return toric_fsig_exact(self, delta)

    # -- lattice plumbing --

    @property
    def index(self) -> int:
        return abs(self._det)

    @property
    def nfacets(self) -> int:
        return self.d

    def embed(self, c: Sequence[int]) -> Vector:
        return tuple(
            sum(int(c[i]) * self.embedding[i][j] for i in range(self.d))
            for j in range(len(self.embedding[0]))
        )

    def pairing(self, c: Sequence[int]) -> Vector:
        return tuple(sum(v[i] * int(c[i]) for i in range(self.d)) for v in self.normals)

    @cached_property
    def _embedding_adjugate(self) -> tuple[list[list[int]], int]:
        adj, det = adjugate(self.embedding)
        if det == 0:
            raise ValueError("embedding matrix is singular")
        return adj, det

    def intrinsic_from_ambient(self, u: Sequence[int]) -> Vector | None:
        """Solve c @ embedding = u over the integers, or None."""
        return _solve_row(self._embedding_adjugate, u)

    def extreme_rays(self) -> list[Vector]:
        """Primitive generators of the semigroup cone, intrinsic coordinates.

        They are the columns of normals^-1 = adj / det, made primitive.
        """
        sign = 1 if self._det > 0 else -1
        return [primitive_vector([sign * x for x in col]) for col in zip(*self._adj)]

    # -- Hilbert basis --

    def hilbert_basis(self) -> tuple[Vector, ...]:
        """Minimal generators in ambient coordinates, by (facet degree, intrinsic c).

        Every semigroup element is a sum of extreme rays r_F and one point of
        the fundamental parallelepiped 0 <= <v_F, c> <= <v_F, r_F> - 1, which
        the lattice walk makes, so the rays and those points generate.  A
        ray is irreducible.  When a parallelepiped point is a + b with a, b
        nonzero semigroup elements, a and b pair below it on every facet and
        lie in the parallelepiped too: its irreducible points are its
        minimal nonzero points (``_minimal_elements``).
        """
        rays = self.extreme_rays()
        caps = [sum(map(operator.mul, v, r)) - 1 for v, r in zip(self.normals, rays)]
        points = self._lattice_points(caps, 5_000_000, "Hilbert basis too large to enumerate")
        pairings = np.asarray(self.normals, dtype=np.int64) @ points
        members = [(c, y) for c, y in zip(*(map(tuple, a.T.tolist()) for a in (points, pairings))) if any(c)]
        generators = rays + _minimal_elements(members)
        generators.sort(key=lambda c: (sum(self.pairing(c)), c))
        return tuple(self.embed(c) for c in generators)

    @cached_property
    def _pairing_basis(self) -> tuple[list[Vector], list[list[int]], int]:
        """Echelon basis b_1..b_d of the pairing lattice normals @ Z^d.

        b_i[j] = 0 for j < i and b_i[i] > 0.  Also returns the adjugate and
        determinant of B, the matrix whose columns are the b_i, so that the
        coordinates of y = B k are k = adj @ y / det.
        """
        basis = row_lattice_basis(list(zip(*self.normals)))
        _require(len(basis) == self.d and all(b[i] > 0 for i, b in enumerate(basis)),
                 "the pairing lattice has no echelon basis of full rank")
        adj, det = adjugate(list(zip(*basis)))
        return basis, adj, det

    def _require_int64(self, caps: Sequence[int], error: str) -> None:
        """Raise ValueError(error) unless every value the walk forms fits in int64.

        That is adj @ y and det for c = adj @ y / det, the basis entries,
        the partial sums and the count.  B is lower triangular, so k_j
        depends on y_1..y_j alone: |k_j| <= sum_m |adj_B[j][m]| caps[m] / |det|
        holds for every prefix of the walk and bounds its partial sums.  The
        count is at most the box.
        """
        basis, adj_b, det_b = self._pairing_basis
        reach = lambda rows: [sum(abs(a) * int(c) for a, c in zip(row, caps)) for row in rows]
        ks = [k // abs(det_b) for k in reach(adj_b)]
        partial = max(caps) + max(sum(k * abs(b[m]) for k, b in zip(ks, basis)) for m in range(self.d))
        entries = max(abs(x) for b in basis for x in b)
        box = math.prod(int(c) + 1 for c in caps)
        if max(*reach(self._adj), abs(self._det), partial, entries, box) >= 2**63:
            raise ValueError(error)

    def _walk(self, caps: Sequence[int], levels: int, limit: int, error: str,
              deadline: float | None = None) -> np.ndarray:
        """The partial sums y = sum_{j<levels} k_j b_j with 0 <= y_j <= caps[j], j < levels.

        Level i extends every partial sum s by the progression s + k b_i
        whose y_i lies in [0, caps[i]], in increasing k, so the columns come
        out in lexicographic order of their first ``levels`` entries.  Before
        each level, raises TimeoutError once ``deadline`` (time.monotonic)
        has passed, and ValueError(error) when the level would hold more
        than limit partial sums.  The caller checks _require_int64.
        """
        basis = np.asarray(self._pairing_basis[0], dtype=np.int64)
        sums = np.zeros((self.d, 1), dtype=np.int64)
        for i in range(levels):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"deadline passed before level {i + 1} of a lattice walk")
            first, length = self._progressions(sums, i, caps[i])
            total = int(length.sum())
            if total > limit:
                raise ValueError(error)
            starts = np.cumsum(length) - length
            k = np.arange(total) - np.repeat(starts - first, length)
            sums = np.repeat(sums, length, axis=1) + basis[i][:, None] * k
        return sums

    def _progressions(self, sums: np.ndarray, i: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
        """Per column s, the first k and the number of k with 0 <= s_i + k b_ii <= cap."""
        pivot = self._pairing_basis[0][i][i]
        first = -(sums[i] // pivot)
        return first, np.maximum((int(cap) - sums[i]) // pivot - first + 1, 0)

    def _lattice_points(self, caps: Sequence[int], limit: int, error: str) -> np.ndarray:
        """Lattice points c with 0 <= <v_F, c> <= caps[F], as a d x N int64 array.

        Walks the echelon basis of the pairing lattice (``_walk``): only
        lattice points and their prefixes are made, never the box of pairing
        values.  The columns come in lexicographic order of their pairing
        vectors y = normals @ c, and c = adj @ y / det.  Raises
        ValueError(error) when a level of the walk would hold more than limit
        partial sums, so more than limit points are never made, or when a
        value could leave int64, where numpy would wrap.
        """
        self._require_int64(caps, error)
        ys = self._walk(caps, self.d, limit, error)
        return (np.asarray(self._adj, dtype=np.int64) @ ys) // self._det

    def _lattice_count(self, caps: Sequence[int], limit: int, error: str,
                       deadline: float | None = None) -> int:
        """The number of columns of ``_lattice_points(caps)``, from a walk one level short.

        The last level's progression lengths are summed in closed form, so
        the count never makes its points and its cost does not depend on the
        index of the pairing lattice.  It has no box check: it refuses when a
        level it builds would hold more than limit partial sums or a value
        could leave int64; ``deadline`` as in ``_walk``.
        """
        self._require_int64(caps, error)
        sums = self._walk(caps, self.d - 1, limit, error, deadline)
        return int(self._progressions(sums, self.d - 1, caps[-1])[1].sum())

    def __repr__(self) -> str:
        return f"ToricRing(p={self.p}, {self.label})"


def _is_small(n: int, weights: Sequence[int]) -> bool:
    """No g^j with 0 < j < n fixes a hyperplane, in O(d^2) operations.

    g^j fixes the hyperplane x_i = 0 iff j * a_k = 0 mod n for every
    k != i, that is iff every order n / gcd(n, a_k), k != i, divides j.
    Some 0 < j < n does iff the lcm of those orders is below n.
    """
    orders = [n // math.gcd(n, a) for a in weights]
    return all(math.lcm(*orders[:i], *orders[i + 1 :]) == n for i in range(len(orders)))


def quotient_singularity(n: int, weights: Sequence[int], p: int) -> ToricRing:
    """The invariant ring of the order-n cyclic action with the given weights.

    Records the group, from which ``small`` says whether the action is
    small (free in codimension one): no group element fixes a
    hyperplane, equivalently for every 1 <= j < n at most d-2 of the
    j*a_i vanish mod n.
    """
    weights = tuple(int(a) % n if n > 1 else 0 for a in weights)
    d = len(weights)
    if d < 1:
        raise ValueError("need at least one weight")
    if n < 1:
        raise ValueError("n must be positive")
    if n > 1 and p > 0 and n % p == 0:
        raise ValueError(
            f"p = {p} divides n = {n}: the cover degree must be prime to p"
        )
    if n > 1 and math.gcd(n, *weights) != 1:
        raise ValueError("gcd(n, weights) must be 1")
    if n == 1:
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        return ToricRing(p, eye, group_order=1, group_weights=weights, label="regular (trivial quotient)")
    basis = congruence_lattice_basis(weights, n)
    normals = []
    for i in range(d):
        col = [basis[r][i] for r in range(d)]
        normals.append(primitive_vector(col))
    ring = ToricRing(
        p,
        normals,
        embedding=basis,
        group_order=n,
        group_weights=weights,
        label=f"1/{n}{weights}",
    )
    det_b = ring._embedding_adjugate[1]
    _require(abs(det_b) == n, f"the congruence lattice has index {abs(det_b)}, not {n}")
    return ring


# -- splitting numbers and certificates ------------------------------------


@dataclass(frozen=True)
class FreeClassCertificate:
    """Per-residue-class evidence for the Frobenius pushforward decomposition.

    A window witness w pairs into [0, q-1] with every facet normal and is
    then the unique minimal element of its class, so the class summand is
    free; ``counted`` says whether w also lies in the pair's window
    [0, q-1-floor(q*t_F)].  An obstruction is the two least minimal
    elements, in tuple order, of a class with no window point.
    ``region_bound`` gives the facet pairing caps of the enumerated box:
    q-1 for a witness, q*D_F - 1 for an obstruction, where D_F is the
    least t > 0 with t*e_F a pairing vector.
    """

    q: int
    residue: Vector
    residue_ambient: Vector
    free: bool
    counted: bool
    witness: Vector | None = None
    witness_ambient: Vector | None = None
    obstruction: tuple[Vector, Vector] | None = None
    obstruction_ambient: tuple[Vector, Vector] | None = None
    region_bound: tuple[int, ...] | None = None


def _facet_pair(ring: ToricRing, delta: TorusQDivisor | None) -> TorusQDivisor:
    """The pair, checked: a TorusQDivisor with one coefficient t_F >= 0 per facet."""
    if delta is None:
        return TorusQDivisor.zero(ring.nfacets)
    if not isinstance(delta, TorusQDivisor):
        raise ValueError("a toric ring takes facet coefficients (TorusQDivisor) as its pair")
    if len(delta.coefficients) != ring.nfacets:
        raise ValueError("divisor does not match the facet count")
    if any(t < 0 for t in delta.coefficients):
        raise ValueError("pair coefficients must be nonnegative")
    return delta


def _window_widths(ring: ToricRing, delta: TorusQDivisor | None, q: int) -> list[int]:
    """Facet windows q - 1 - floor(q * t_F), each >= 0 since t_F < 1."""
    delta = _facet_pair(ring, delta)
    delta.check_pair_range()
    return [q - 1 - math.floor(q * t) for t in delta.coefficients]


_WINDOW_LIMIT = 20_000_000
_WINDOW_ERROR = "window too large to enumerate"


def toric_splitting_number(
    ring: ToricRing, delta: TorusQDivisor | None = None, e: int = 1, deadline: float | None = None
) -> int:
    """a_e: the number of free residue classes of the e-th pushforward.

    That is the number of lattice points in the window 0 <= <v_F, c> <=
    q - 1 - floor(q * t_F), counted by the echelon walk one level short
    (``ToricRing._lattice_count``).  Raises ValueError when a level of the
    walk would hold more than 20,000,000 partial sums or a value would
    leave int64, and TimeoutError before a level once ``deadline``
    (time.monotonic) has passed.
    """
    if e < 1:
        raise ValueError("e must be a positive integer")
    q = ring.p**e
    widths = _window_widths(ring, delta, q)
    return ring._lattice_count(widths, _WINDOW_LIMIT, _WINDOW_ERROR, deadline)


def toric_splitting_certificates(
    ring: ToricRing,
    delta: TorusQDivisor | None = None,
    e: int = 1,
    include_obstructions: bool = False,
) -> list[FreeClassCertificate]:
    """Certificates for the free classes; optionally audit every class.

    With include_obstructions, all q^d residue classes (at most 200,000)
    are audited from one enumeration of the box 0 <= <v_F, c> <= q*D_F - 1:
    its points are grouped by residue mod q, and each class without a
    window point receives its two least minimal elements, which must be
    incomparable.  The box is large enough: if <v_F, c> >= q*D_F, then
    c - q*u with <v_F, u> = D_F and <v_G, u> = 0 for G != F is a smaller
    member of the class in the cone.  So every minimal element lies in
    the box, and a point is minimal in its class exactly when it is
    minimal among the class's points in the box.
    """
    q = ring.p**e
    widths = _window_widths(ring, delta, q)
    free_widths = [q - 1] * ring.nfacets
    certs: dict[Vector, FreeClassCertificate] = {}
    for w in map(tuple, ring._lattice_points(free_widths, _WINDOW_LIMIT, _WINDOW_ERROR).T.tolist()):
        residue = tuple(x % q for x in w)
        counted = all(x <= limit for x, limit in zip(ring.pairing(w), widths))
        certs[residue] = FreeClassCertificate(
            q=q,
            residue=residue,
            residue_ambient=ring.embed(residue),
            free=True,
            counted=counted,
            witness=w,
            witness_ambient=ring.embed(w),
            region_bound=tuple(free_widths),
        )
    out = list(certs.values())
    if include_obstructions:
        if q**ring.d > 200_000:
            raise ValueError("class audit too large; lower e")
        # D_F = index / gcd(index, column F of adj) is the least t > 0 with
        # t * e_F a pairing vector, so every minimal element lies in the box.
        bound = tuple(q * (ring.index // math.gcd(ring.index, *col)) - 1 for col in zip(*ring._adj))
        points = ring._lattice_points(bound, 5_000_000, "class audit too large; lower e")
        pairings = np.asarray(ring.normals, dtype=np.int64) @ points
        classes: dict[Vector, list[tuple[Vector, Vector]]] = {}
        for c, y, r in zip(*(map(tuple, a.T.tolist()) for a in (points, pairings, points % q))):
            classes.setdefault(r, []).append((c, y))
        shape = (q,) * ring.d
        for flat in range(q**ring.d):
            residue = tuple(int(x) for x in np.unravel_index(flat, shape))
            if residue in certs:
                continue
            minimals = sorted(_minimal_elements(classes.get(residue, [])))
            _require(len(minimals) >= 2,
                     f"residue class {residue} has no window point but {len(minimals)} minimal element(s)")
            m1, m2 = minimals[:2]
            pair1, pair2 = ring.pairing(m1), ring.pairing(m2)
            _require(any(a < b for a, b in zip(pair1, pair2)) and any(a > b for a, b in zip(pair1, pair2)),
                     f"obstruction pair {m1}, {m2} of residue class {residue} is comparable")
            out.append(
                FreeClassCertificate(
                    q=q,
                    residue=residue,
                    residue_ambient=ring.embed(residue),
                    free=False,
                    counted=False,
                    obstruction=(m1, m2),
                    obstruction_ambient=(ring.embed(m1), ring.embed(m2)),
                    region_bound=bound,
                )
            )
    return out


def _minimal_elements(members: list[tuple[Vector, Vector]]) -> list[Vector]:
    """The points of (point, pairing) members whose pairing lies above no other's.

    The pairing is injective, so a point below v has a strictly smaller
    pairing total.  In order of increasing total, every point below v
    comes first and lies above a minimal element already kept, so v is
    tested only against those.
    """
    minimal: list[tuple[Vector, Vector]] = []
    for _, pv, v in sorted((sum(pv), pv, v) for v, pv in members):
        if not any(all(a <= b for a, b in zip(pw, pv)) for pw, _ in minimal):
            minimal.append((pv, v))
    return [v for _, v in minimal]


def toric_fsig_exact(ring: ToricRing, delta: TorusQDivisor | None = None) -> Fraction:
    """The exact F-signature: volume of the limiting window polytope.

    For a simplicial cone the window {0 <= <v_F, x> <= 1 - t_F} maps
    under the facet pairing to a box, so the volume is the product of
    the widths over the pairing determinant.
    """
    delta = _facet_pair(ring, delta)
    if any(t >= 1 for t in delta.coefficients):
        return Fraction(0)
    return math.prod((1 - t for t in delta.coefficients), start=Fraction(1, ring.index))


def canonical_divisor(ring: ToricRing) -> TorusQDivisor:
    """K = -(sum of the torus-invariant prime divisors)."""
    return TorusQDivisor((Fraction(-1),) * ring.nfacets)
