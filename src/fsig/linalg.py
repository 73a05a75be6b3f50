"""Exact dense linear algebra over GF(p) and multiplication-map ranks.

Ranks come from LU elimination on integer-valued float arrays: float32
while the bounds below allow it, float64 past that; a prime from about
9.5 * 10^7 on is "too large for the dense backend" (ValueError).
``multiplication_rank`` builds each graded block from its two degrees
alone, under one size cap, ``_MAX_CELLS``: on the degree count and every
block before any allocation, and on each level of each enumeration.

Exactness invariant: every entry the rank kernel holds is an integer of
magnitude at most ``_limit(p, dtype)``, which lies at least p below 2^24
(float32) or 2^53 (float64).  So every product, sum and difference the
kernel forms, BLAS calls included, is exact, and ``_reduce`` (X -= rint(X
* (1/p)) * p, into (-p, p)) is exact as well.

Reduction mod p is delayed.  Multipliers and pivot rows are reduced when
they are formed, so one update term is at most (p-1)^2 in magnitude, and
a column is reduced when it is searched for a pivot.  The rest of the
active block is left unreduced: the kernel tracks a bound on it, a panel
of k pivots raises the bound by k*(p-1)^2, and the block is reduced only
before a panel whose updates could carry it past the limit.  At p = 3 in
float32 that takes over a million pivots, so in practice it never happens.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import chain, product
from typing import Sequence

import numpy as np

from .poly import Polynomial
from .toric import _rref, _runs, primitive_vector

_F32_LIMIT = 2**24
_F64_LIMIT = 2**53
_MAX_BLOCK = 128
# source x target cells of one dense block: 256 MB in float32
_MAX_CELLS = 2**26
# (term, source) pairs per chunk in _block_matrix: about 1 MB of mask and
# 8 MB per index array at most
_CHUNK_PAIRS = 2**20


def _limit(p: int, dtype) -> int:
    """Largest magnitude the kernel lets an unreduced entry reach.

    With 2^t the mantissa limit of dtype: below 2^t - p every integer the
    kernel forms is exact, and below p * 2^(t-3) the quotient X * (1/p)
    in ``_reduce`` is within 1/4 of X/p, so its rint is floor or ceil.
    """
    top = _F32_LIMIT if dtype == np.float32 else _F64_LIMIT
    return min(top - p, p * top // 8)


def _plan(p: int) -> tuple[type | None, int]:
    """Dtype and pivots per panel b keeping (p-1) + b*(p-1)^2 within ``_limit``."""
    unit = (p - 1) ** 2
    for dtype, least in ((np.float32, 8), (np.float64, 1)):
        b = (_limit(p, dtype) - (p - 1)) // unit
        if b >= least:
            return dtype, min(_MAX_BLOCK, b)
    return None, 0


def _reduce(X: np.ndarray, p: int) -> None:
    """X <- a representative of X mod p in (-p, p), in place.

    Entries must be integers of magnitude at most ``_limit``; then
    rint(X * (1/p)) is floor or ceil of X/p, and every step is exact.
    """
    t = X * (1.0 / p)
    np.rint(t, out=t)
    t *= p
    X -= t


def _panel(A: np.ndarray, p: int, r0: int, c0: int, kmax: int) -> tuple[int, int]:
    """Find up to kmax pivots on rows r0.. scanning columns from c0.

    Crout order: a column is brought up to date (one GEMV against the
    panel's multipliers) and reduced only when it is searched, and a pivot
    row only when it is chosen, then over every column past its pivot.
    Pivot columns are swapped to c0..c0+k-1, where they hold the reduced
    multipliers below their pivot; rows r0..r0+k-1 become the pivot rows,
    reduced from their pivot on.  Returns k and the first unscanned column.
    """
    m, n = A.shape
    r = r0
    for j in range(c0, n):
        k = r - r0
        c = c0 + k
        column = A[r:, j]
        if k:
            column -= A[r:, c0:c] @ A[r0:r, j]
        _reduce(column, p)
        nz = column.nonzero()[0]
        if nz.size == 0:
            continue
        if j != c:
            A[r0:, [c, j]] = A[r0:, [j, c]]
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv], c0:] = A[[piv, r], c0:]
        row = A[r, j + 1 :]
        if k:
            row -= A[r, c0:c] @ A[r0:r, j + 1 :]
        _reduce(row, p)
        mults = A[r + 1 :, c]
        mults *= pow(int(A[r, c]) % p, p - 2, p)
        _reduce(mults, p)
        r += 1
        if r == m or r - r0 == kmax:
            return r - r0, j + 1
    return r - r0, n


def _rank_inplace(A: np.ndarray, p: int, block: int) -> int:
    """Rank of A over GF(p); entries must be residues, A may be overwritten.

    Zero rows and columns are dropped, and the rest is copied column-major
    with the longer side as rows, so the panel loop runs over the shorter
    side and reads contiguous columns.  Each panel collects up to ``block``
    pivots (``_panel``); the rows below it then get one GEMM update against
    its reduced pivot rows, left unreduced.  ``bound`` caps the magnitude
    of the active block, which is reduced only when the next panel's
    updates could carry it past ``_limit``.
    """
    rows, cols = A.any(axis=1).nonzero()[0], A.any(axis=0).nonzero()[0]
    if rows.size >= cols.size:
        A = A.T[np.ix_(cols, rows)].T
    else:
        A = A[np.ix_(rows, cols)].T
    m, n = A.shape
    limit = _limit(p, A.dtype)
    unit = (p - 1) ** 2
    bound = p - 1
    rank = 0
    col = 0
    while rank < m and col < n:
        if bound + block * unit > limit:
            _reduce(A[rank:, col:], p)
            bound = p - 1
        k, c1 = _panel(A, p, rank, col, block)
        rank += k
        if k and c1 < n and rank < m:
            # F-order operands: the transposed product is C-order, so the
            # update reads and writes both sides in memory order
            A[rank:, c1:] -= (A[rank - k : rank, c1:].T @ A[rank:, col : col + k].T).T
            bound += k * unit
        col = c1
    return rank


def rational_nullspace(rows: Sequence[Sequence[Fraction]], width: int) -> list[tuple[Fraction, ...]]:
    """Basis of the rational kernel of the matrix given by ``rows``.

    One vector per free column of the reduced row echelon form, which is
    unique, so the basis is too.  Each row is first scaled to integers,
    which keeps the kernel.
    """
    integer_rows = []
    for row in rows:
        row = [Fraction(x) for x in row]
        denom = math.lcm(*(x.denominator for x in row))
        integer_rows.append([x * denom for x in row])
    reduced, pivots, det = _rref(integer_rows)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = Fraction(-row[fc], det)
        basis.append(tuple(vec))
    return basis


def find_positive_weights(*polys: Polynomial) -> tuple[int, ...] | None:
    """Positive integer weights making every one of ``polys`` homogeneous, or None.

    The difference vectors of each polynomial's exponents span the
    constraints; small integer combinations of their rational kernel basis
    are scanned for a strictly positive vector.  A product of nonzero
    polynomials is homogeneous under a weight exactly when each factor is,
    so its factors span the same constraints as the product itself and
    give the same weights, from far fewer rows.
    """
    d = polys[0].nvars
    if d == 0:
        return ()
    ones = (1,) * d
    if all(f.is_homogeneous(ones) for f in polys):
        return ones
    rows = [
        [Fraction(a - b) for a, b in zip(e, exps[0])]
        for exps in (list(f.terms) for f in polys)
        for e in exps[1:]
    ]
    basis = rational_nullspace(rows, d)
    if not basis:
        return None
    k = len(basis)
    combos: list[tuple[int, ...]] = [(1,) * k]
    if k <= 4:
        grid = sorted(product(range(-6, 7), repeat=k), key=lambda c: sum(abs(x) for x in c))
        combos += [c for c in grid if any(c)]
    else:
        for i in range(k):
            unit = [0] * k
            unit[i] = 1
            combos.append(tuple(unit))
            unit[i] = -1
            combos.append(tuple(unit))
    for c in combos:
        w = [sum(ci * b[i] for ci, b in zip(c, basis)) for i in range(d)]
        if all(wi > 0 for wi in w):
            denom = math.lcm(*(x.denominator for x in w))
            return primitive_vector([x * denom for x in w])
    return None


def _box_exponents(caps: Sequence[int], weights: Sequence[int], degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows below ``caps`` of weighted degree ``degree``, and their increasing flat indices.

    Fixes the variables one at a time, extending each prefix by the run of
    exponents that leaves a rest the later ones can still make up (all of
    them for a weight of 0); each level is checked against ``_MAX_CELLS`` first.
    """
    flats, rest = np.zeros(1, np.int64), np.full(1, degree, np.int64)
    later = sum(w * (c - 1) for c, w in zip(caps, weights))
    for c, w in zip(caps, weights):
        later -= w * (c - 1)
        if w:
            first = np.maximum(-((later - rest) // w), 0)
            length = np.maximum(np.minimum(rest // w, c - 1) - first + 1, 0)
        else:
            first, length = np.zeros_like(rest), np.where((rest >= 0) & (rest <= later), c, 0)
        total = int(length.sum())
        if total > _MAX_CELLS:
            raise ValueError(f"a graded piece with over {_MAX_CELLS} prefixes is too large for a dense rank")
        k = _runs(first, length, total)
        flats = np.repeat(flats, length) * c + k
        rest = np.repeat(rest, length) - w * k
    return np.stack(np.unravel_index(flats, caps), axis=1), flats


def _piece_sizes(caps: Sequence[int], weights: Sequence[int], top: int) -> np.ndarray:
    """Box monomials of each weighted degree 0..top, each capped at ``_MAX_CELLS + 1``.

    Running sums per residue mod w multiply in each 1 + t^w + ... + t^(w (c - 1));
    capping every term keeps a sum's comparison with the cap exact.
    """
    sizes = np.zeros(top + 1, dtype=np.int64)
    sizes[0] = 1
    for c, w in zip(caps, weights):
        if not w:
            sizes = sizes * min(c, _MAX_CELLS + 1)
        elif w <= top:  # a larger weight leaves degrees 0..top as they are
            sizes = np.pad(sizes, (0, -(top + 1) % w)).reshape(-1, w).cumsum(axis=0).ravel()[: top + 1]
            sizes[w * c :] -= sizes[: max(top + 1 - w * c, 0)]
        sizes = np.minimum(sizes, _MAX_CELLS + 1)
    return sizes


def _block_matrix(terms: np.ndarray, coeffs: np.ndarray, caps_arr: np.ndarray, strides: np.ndarray,
                  source: tuple[np.ndarray, np.ndarray], target: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Matrix of multiplication by g (exponent rows ``terms``, ``coeffs``) from ``source`` to ``target``.

    Both are ``_box_exponents`` pairs.  Column j is g times source j, in the
    rows ``np.searchsorted`` finds for the products' flat indices; products
    past ``caps_arr`` vanish.  Terms are taken in chunks of at most
    ``_CHUNK_PAIRS`` (term, source) pairs, one mask and one scatter each;
    distinct terms send a source to distinct targets, so no cell is written twice.
    """
    (src_exps, src_flats), tgt_flats = source, target[1]
    mat = np.zeros((len(tgt_flats), len(src_flats)), dtype=coeffs.dtype)
    room = caps_arr - terms
    fits = np.all(room > src_exps.min(axis=0), axis=1)
    room, coeffs = room[fits], coeffs[fits]
    shifts = terms[fits] @ strides
    step = max(1, _CHUNK_PAIRS // len(src_flats))
    for a in range(0, len(room), step):
        chunk = room[a : a + step]
        valid = src_exps[:, 0] < chunk[:, :1]
        for i in range(1, len(caps_arr)):
            valid &= src_exps[:, i] < chunk[:, i : i + 1]
        ti, si = valid.nonzero()
        ti += a
        mat[np.searchsorted(tgt_flats, src_flats[si] + shifts[ti]), si] = coeffs[ti]
    return mat


def multiplication_rank(g: Polynomial, caps: Sequence[int], weights: Sequence[int] | None = None,
                        deadline: float | None = None) -> int:
    """Rank of multiplication by g on GF(p)[x]/(x_i^{caps_i}).

    With positive ``weights`` under which g is homogeneous the map is
    computed blockwise per weighted degree; the quotient pairs perfectly
    into its socle degree, so blocks past the midpoint mirror the early
    ones and are not rebuilt.  Without weights the whole box is one block.
    Each block is built from its source and target degrees alone.  The one
    size cap, ``_MAX_CELLS``, raises ``ValueError`` on the degree count and
    each block's cells before any allocation, and on each level of each
    enumeration.  Past ``deadline`` (``time.monotonic()``, checked per block): ``TimeoutError``.
    """
    caps = tuple(int(c) for c in caps)
    if len(caps) != g.nvars:
        raise ValueError("caps length must match the number of variables")
    if g.is_zero() or any(c <= 0 for c in caps):
        return 0
    if g.is_monomial():
        return math.prod(max(c - e, 0) for c, e in zip(caps, next(iter(g.terms))))
    dtype, block = _plan(g.p)
    if dtype is None:
        raise ValueError(f"characteristic {g.p} too large for the dense backend")
    if weights is None:
        # all-zero weights: one block holding the whole box, nothing mirrored
        weights = (0,) * len(caps)
    else:
        weights = tuple(int(w) for w in weights)
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
    if not g.is_homogeneous(weights):
        raise ValueError("polynomial is not homogeneous under the given weights")
    deg_g = g.weighted_degree(weights)
    # source degree j <= center / 2; its target j + deg_g is as large as degree center - j
    center = sum(w * (c - 1) for c, w in zip(caps, weights)) - deg_g
    if center < 0:
        return 0
    if center >= _MAX_CELLS:
        raise ValueError(f"a grading of {center + 1} pieces is too large for a dense rank")
    sizes = _piece_sizes(caps, weights, center)
    sources, targets = sizes[: center // 2 + 1], sizes[::-1][: center // 2 + 1]
    cells = sources * targets
    if cells.max() > _MAX_CELLS:
        j = int(cells.argmax())
        count = lambda n: str(n) if n <= _MAX_CELLS else f"over {_MAX_CELLS}"
        raise ValueError(f"a block of {count(sources[j])} x {count(targets[j])} monomials is too large for a dense rank")
    if math.prod(caps) >= 2**63:
        raise ValueError("the flat indices of this monomial box would leave int64")
    strides = np.cumprod((caps[1:] + (1,))[::-1], dtype=np.int64)[::-1]
    caps_arr = np.asarray(caps, dtype=np.int64)
    terms = np.fromiter(chain.from_iterable(g.terms), np.int64, len(g.terms) * g.nvars).reshape(-1, g.nvars)
    coeffs = np.fromiter(g.terms.values(), dtype=dtype, count=len(terms))
    rank = 0
    for j in range(len(sources)):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("time budget exhausted during a graded rank")
        block_rank = 0
        if cells[j]:
            source, target = _box_exponents(caps, weights, j), _box_exponents(caps, weights, j + deg_g)
            block_rank = _rank_inplace(_block_matrix(terms, coeffs, caps_arr, strides, source, target), g.p, block)
        rank += block_rank if 2 * j == center else 2 * block_rank
    return rank
