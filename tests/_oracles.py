"""Brute-force reference implementations used only by the test suite.

Everything here trades efficiency for obviousness: direct enumeration,
no Groebner bases, no lattice transforms, no linear algebra beyond
what the statement itself demands.  Production code must agree with
these on every case small enough to enumerate.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator

import numpy as np

from fsig.frobenius import RingPresentation, in_bracket_maximal
from fsig.field import is_prime, rank_mod_p_reference
from fsig.linalg import _plan, _rank_inplace
from fsig.poly import Polynomial, default_names
from fsig.toric import TorusQDivisor


def iter_box_monomials(caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All exponent tuples with 0 <= e_i < caps[i], in odometer order."""
    if any(c <= 0 for c in caps):
        return
    cur = [0] * len(caps)
    while True:
        yield tuple(cur)
        i = len(caps) - 1
        while i >= 0:
            cur[i] += 1
            if cur[i] < caps[i]:
                break
            cur[i] = 0
            i -= 1
        if i < 0:
            return


def box_dimension(caps: tuple[int, ...]) -> int:
    """Vector space dimension of GF(p)[x]/(x_i^{caps_i})."""
    return math.prod(int(c) for c in caps)


def invariant_monomial_count(n: int, weights: tuple[int, ...], q: int) -> int:
    """#{u in [0,q)^d : sum(w_i u_i) = 0 mod n}.

    For a small cyclic quotient these are exactly the free summands of
    the e-th Frobenius pushforward, counted one ambient residue at a
    time.
    """
    count = 0
    for u in itertools.product(range(q), repeat=len(weights)):
        if sum(w * x for w, x in zip(weights, u)) % n == 0:
            count += 1
    return count


def brute_invariant_hilbert_basis(n: int, weights: tuple[int, ...], degree_bound: int = 40) -> set:
    """Minimal generators of the invariant-monomial semigroup, by enumeration.

    Collects every nonzero invariant exponent vector up to the degree
    bound and discards those that split as a sum of two smaller ones.
    The bound must exceed twice the largest generator degree for the
    answer to be trustworthy; callers pick it per case.
    """
    d = len(weights)
    members = set()
    for u in itertools.product(range(degree_bound + 1), repeat=d):
        if sum(u) == 0 or sum(u) > degree_bound:
            continue
        if sum(w * x for w, x in zip(weights, u)) % n == 0:
            members.add(u)
    generators = set()
    for u in members:
        splits = any(
            tuple(a - b for a, b in zip(u, v)) in members
            for v in members
            if v != u and all(b <= a for a, b in zip(u, v))
        )
        if not splits:
            generators.add(u)
    return generators


def brute_colon_complement_length(g: Polynomial, q: int) -> int:
    """lambda(P/(m^[q] : g)) by direct linear algebra over GF(p).

    Builds the full matrix of multiplication by g on the monomial basis
    of P/m^[q] (one row per box monomial, entries read off from the
    product reduced mod m^[q]) and row-reduces it with textbook Gaussian
    elimination.  The row rank is the length of the colon quotient:
    P/(m^[q] : g) embeds into P/m^[q] as the image of the map.
    """
    p = g.p
    box = list(iter_box_monomials((q,) * g.nvars))
    col = {m: i for i, m in enumerate(box)}
    rows = []
    for mu in box:
        prod = g.multiply_monomial(mu)
        row = [0] * len(box)
        nonzero = False
        for m, c in prod.terms.items():
            if all(e < q for e in m):
                row[col[m]] = c % p
                nonzero = True
        if nonzero:
            rows.append(row)
    rank = 0
    ncols = len(box)
    pivot_col = 0
    while rows and pivot_col < ncols:
        pivot_row = next((r for r in rows if r[pivot_col] % p), None)
        if pivot_row is None:
            pivot_col += 1
            continue
        rows.remove(pivot_row)
        inv = pow(pivot_row[pivot_col], p - 2, p)
        pivot_row = [(inv * x) % p for x in pivot_row]
        rows = [
            [(x - r[pivot_col] * v) % p for x, v in zip(r, pivot_row)]
            if r[pivot_col] % p
            else r
            for r in rows
        ]
        rank += 1
        pivot_col += 1
    return rank


def brute_jordan_product(a: int, b: int, p: int) -> dict[int, int]:
    """Jordan type {size: count} of J_a (x) 1 + 1 (x) J_b over GF(p).

    The operator is multiplication by x + y on GF(p)[x, y]/(x^a, y^b).
    Its k-th power multiplies x^i y^j by sum_t C(k, t) x^(i+t) y^(j+k-t),
    which raises the degree by k, so its rank r_k is the sum of the ranks
    of its pieces from degree d to degree d + k, written out on monomials.
    Then r_(L-1) - 2 r_L + r_(L+1) blocks have size exactly L.
    """
    pieces: dict[int, list[int]] = {}
    for i in range(a):
        for j in range(b):
            pieces.setdefault(i + j, []).append(i)
    ranks = [a * b]
    while ranks[-1]:
        k = len(ranks)
        rank = 0
        for d, sources in pieces.items():
            targets = pieces.get(d + k, [])
            rows = [[math.comb(k, s - i) if 0 <= s - i <= k else 0 for s in targets] for i in sources]
            rank += rank_mod_p_reference(rows, p)
        ranks.append(rank)
    ranks.append(0)
    counts = {size: ranks[size - 1] - 2 * ranks[size] + ranks[size + 1] for size in range(1, len(ranks) - 1)}
    return {size: count for size, count in counts.items() if count}


def elimination_block_product(a: int, b: int, p: int) -> dict[int, int]:
    """Jordan type of J_a (x) 1 + 1 (x) J_b over GF(p), by a Smith form.

    For a >= b put u = x + y: k[x,y]/(x^a, y^b) is the cokernel of
    (u - y)^a on the free k[u]-module with basis 1, y, .., y^(b-1).
    Entry (r, c) of that matrix is (-1)^(r-c) C(a, r-c) u^(a-r+c), so the
    matrix is homogeneous: a pivot of least u-valuation divides every
    entry, and eliminating with it keeps the pattern.  Its Smith form is
    one elimination over GF(p) in order of valuation, and the valuations
    of the pivots are the block sizes.
    """
    if a < b:
        a, b = b, a
    index = np.arange(b)
    binom = np.array([(-1) ** k * math.comb(a, k) % p for k in range(b)], dtype=np.int64)
    offset = index[:, None] - index[None, :]
    mat = np.where(offset >= 0, binom[np.maximum(offset, 0)], 0)
    sizes: Counter[int] = Counter()
    for _ in range(b):
        # the least valuation a - r + c: per column its lowest nonzero row r
        nonzero = mat != 0
        lowest = b - 1 - np.argmax(nonzero[::-1], axis=0)
        c = int(np.argmax(np.where(nonzero.any(axis=0), lowest - index, -b)))
        r = int(lowest[c])
        sizes[a - r + c] += 1
        rows = nonzero[:, c].nonzero()[0]
        rows = rows[rows != r]
        if rows.size:
            factor = mat[rows, c] * pow(int(mat[r, c]), p - 2, p) % p
            block = mat[rows]
            block -= factor[:, None] * mat[r]
            block %= p
            mat[rows] = block
        mat[r] = 0
        mat[:, c] = 0
    return dict(sizes)


def elimination_diagonal_form(f: Polynomial, keep: Polynomial | None = None) -> Polynomial:
    """f(A x) in normal form with A in GL_n(GF(p)), for a quadratic form f and p odd.

    The reference for ``fsig.sebastiani.diagonal_form``, which reads the
    same kind of form off two ranks and drops the GF(p) coefficients.

    Without ``keep`` the form is sum_k d_k x_k^2.  With a linear form
    ``keep`` = l, A also takes l to the variable u = x_k of l's first
    variable k, and the form is d*u^2 + sum_j d_j y_j^2, u*v + sum_j d_j y_j^2
    or a form without u.

    Symmetric elimination on the matrix B of f (B_ii the coefficient of
    x_i^2, B_ij = B_ji half that of x_i x_j).  With ``keep``, the
    substitution x_k -> (x_k - sum_{i != k} l_i x_i) / l_k comes first, so
    that l becomes x_k, and u = x_k is never a pivot.  A nonzero B_kk is a
    pivot: x_k -> x_k - sum_i (B_ki / B_kk) x_i leaves d_k = B_kk on x_k^2
    and the Schur complement on the other variables.  When no diagonal
    entry is left but some B_ij is nonzero, x_i -> x_i + x_j makes the new
    B_jj = 2 B_ij a pivot.  A form of rank r keeps r terms without ``keep``.
    What is left at the end with ``keep`` is c u^2 + 2 u sum_j B_uj y_j;
    when some B_uj is nonzero, v = c u + 2 sum_j B_uj y_j replaces that y_j,
    and the rest is u*v.
    """
    p, n = f.p, f.nvars
    b = [[0] * n for _ in range(n)]
    for m, c in f.terms.items():
        i, j = (k for k, e in enumerate(m) for _ in range(e))
        b[i][j] = b[j][i] = c if i == j else c * (p + 1) // 2 % p
    rest = list(range(n))
    kept = []
    if keep is not None:
        u = min(m.index(1) for m in keep.terms)
        ell = [keep.terms.get(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]
        inverse = pow(ell[u], p - 2, p)
        # x = A x' with A the identity but for row u: B -> A^T B A, columns then rows
        row = [-c * inverse for c in ell]
        row[u] = inverse - 1
        for t in range(n):
            pivot = b[t][u]
            for j in range(n):
                b[t][j] = (b[t][j] + row[j] * pivot) % p
        for t in range(n):
            pivot = b[u][t]
            for j in range(n):
                b[j][t] = (b[j][t] + row[j] * pivot) % p
        rest.remove(u)
        kept.append(u)
    diagonal = {}
    while True:
        k = next((k for k in rest if b[k][k]), None)
        if k is None:
            pair = next(((i, j) for i in rest for j in rest if b[i][j]), None)
            if pair is None:
                break
            i, k = pair
            for t in rest + kept:  # x_i -> x_i + x_k: column k += column i, then row k += row i
                b[t][k] = (b[t][k] + b[t][i]) % p
            for t in rest + kept:
                b[k][t] = (b[k][t] + b[i][t]) % p
        rest.remove(k)
        diagonal[k] = b[k][k]
        inverse = pow(b[k][k], p - 2, p)
        for i in rest + kept:
            for j in rest + kept:
                b[i][j] = (b[i][j] - b[i][k] * b[k][j] * inverse) % p
    terms = {tuple(2 * (i == k) for i in range(n)): d for k, d in diagonal.items()}
    for u in kept:
        v = next((j for j in rest if b[u][j]), None)
        if v is not None:
            terms[tuple(int(i in (u, v)) for i in range(n))] = 1
        elif b[u][u]:
            terms[tuple(2 * (i == u) for i in range(n))] = b[u][u]
    return Polynomial(p, n, terms)


def brute_block_matrix(
    g: Polynomial,
    caps: tuple[int, ...],
    sources: list[tuple[int, ...]],
    targets: list[tuple[int, ...]],
) -> list[list[int]]:
    """Matrix of multiplication by g from ``sources`` to ``targets``.

    Column j is g * x^sources[j] with every term past ``caps`` dropped,
    written out on the ``targets`` monomials one term at a time.  Every
    remaining term must be one of the targets.
    """
    row = {m: i for i, m in enumerate(targets)}
    mat = [[0] * len(sources) for _ in targets]
    for j, mu in enumerate(sources):
        for m, c in g.multiply_monomial(mu).terms.items():
            if all(e < cap for e, cap in zip(m, caps)):
                mat[row[m]][j] = c
    return mat


def brute_det(rows) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * brute_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
    )


def brute_adjugate(rows) -> list[list[int]]:
    """adj(A)[i][j] = (-1)^(i+j) times the minor of A without row j and column i."""
    rows = [list(r) for r in rows]
    d = len(rows)
    return [
        [
            (-1) ** (i + j) * brute_det([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            for j in range(d)
        ]
        for i in range(d)
    ]


def brute_window_count(normals, q: int, caps: tuple[int, ...] | None = None) -> int:
    """#{c in Z^d : 0 <= <v_F, c> <= cap_F for all F} by grid search.

    Enumerates intrinsic coordinates c over a crude bounding box derived
    from the constraint polytope; correct whenever the polytope is
    bounded, which the callers guarantee by passing simplicial data.
    """
    d = len(normals[0])
    caps = caps if caps is not None else (q - 1,) * len(normals)
    adj, det = brute_adjugate(normals), abs(brute_det([list(v) for v in normals]))
    # c = adj y / det with 0 <= y_F <= cap_F bounds each |c_i| explicitly.
    box = max(sum(abs(adj[i][j]) * caps[j] for j in range(d)) // det + 1 for i in range(d))
    count = 0
    for c in itertools.product(range(-box, box + 1), repeat=d):
        ok = True
        for v, cap in zip(normals, caps):
            val = sum(a * b for a, b in zip(v, c))
            if val < 0 or val > cap:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_lattice_points(ring, caps) -> np.ndarray:
    """Lattice points c with 0 <= <v_F, c> <= caps[F], by filtering the box of pairings.

    Builds every pairing vector y in the box, in lexicographic order, and
    keeps those with adj @ y divisible by det, which are exactly
    y = normals @ c; returns c = adj @ y / det, one point per column.
    """
    grid = np.indices([int(c) + 1 for c in caps]).reshape(ring.d, -1)
    adj = np.asarray(ring._adj, dtype=np.int64)
    ys = grid[:, np.all((adj @ grid) % abs(ring._det) == 0, axis=0)]
    return (adj @ ys) // ring._det


def brute_minimal_elements(ring, points) -> list[tuple[int, ...]]:
    """The points whose pairing vector lies above no other point's, by comparing every pair."""
    pairs = {v: ring.pairing(v) for v in points}
    return [
        v for v in points
        if not any(w != v and all(a <= b for a, b in zip(pairs[w], pairs[v])) for w in points)
    ]


def brute_is_small(n: int, weights: tuple[int, ...]) -> bool:
    """No g^j, 0 < j < n, fixes a hyperplane: at most d-2 of the j*a_i vanish mod n."""
    d = len(weights)
    return all(sum(1 for a in weights if (j * a) % n == 0) <= d - 2 for j in range(1, n))


def normalized_window_fraction(normals, q: int) -> Fraction:
    """Window count over q^d, the discrete approximation of the volume
    of {0 <= <v_F, x> <= 1}; exact toric signatures must agree with its
    q -> infinity limit and stay within O(1/q) of it at finite q.
    """
    d = len(normals[0])
    return Fraction(brute_window_count(normals, q, (q - 1,) * len(normals)), q**d)


def variable_names(ring: RingPresentation) -> tuple[str, ...]:
    """The ring's variable names, x0..x{n-1} when none were given."""
    return ring.names if ring.names is not None else default_names(ring.nvars)


def is_degenerate(ring: RingPresentation) -> bool:
    """True when f lies in m^[p], which forces every a_e to vanish."""
    return ring.kind == "hypersurface" and in_bracket_maximal(ring.f, ring.p)


def is_f_pure(ring: RingPresentation) -> bool:
    """Splitness at e = 1: f^(p-1) outside m^[p] (trivially true if regular)."""
    return ring.kind == "regular" or not in_bracket_maximal(ring.f ** (ring.p - 1), ring.p)


def is_effective(divisor: TorusQDivisor) -> bool:
    """Every facet coefficient is nonnegative."""
    return all(c >= 0 for c in divisor.coefficients)


def brute_standard_monomial_count(leads, caps: tuple[int, ...]) -> int:
    """The exponent vectors below ``caps`` divisible by no lead, one prefix at a time.

    A prefix is dropped as soon as a lead supported on its variables
    divides it; the leads must include a power x_i^c_i with c_i <= caps[i]
    for each variable, so nothing at or past a cap is missed.
    """
    nvars = len(caps)
    count = 0
    stack = [(0, ())]
    while stack:
        depth, prefix = stack.pop()
        if depth == nvars:
            count += 1
            continue
        for e in range(caps[depth]):
            candidate = prefix + (e,)
            if not any(
                all(lm[i] <= candidate[i] for i in range(depth + 1))
                and all(lm[i] == 0 for i in range(depth + 1, nvars))
                for lm in leads
            ):
                stack.append((depth + 1, candidate))
    return count


def rank_mod_p(matrix, p: int) -> int:
    """Rank of an integer matrix over GF(p) by the dense kernel, for testing it."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    A = np.asarray(matrix)
    if A.ndim != 2:
        raise ValueError("expected a two dimensional array")
    m, n = A.shape
    if m == 0 or n == 0:
        return 0
    dtype, block = _plan(p)
    if dtype is None:
        return rank_mod_p_reference(A.tolist(), p)
    A = np.mod(A, p).astype(dtype)
    return _rank_inplace(A, p, block)
