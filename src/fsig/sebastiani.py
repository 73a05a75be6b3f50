"""Splitting numbers and colengths of separated hypersurfaces (Thom-Sebastiani).

When the terms of f use pairwise disjoint sets of variables, the box
P/(x_i^(c_i)) is the tensor product, over the terms, of
k[x_S]/(x_i^(c_i)): a k[T]-module with T acting on each factor as its
term and on the product as the sum T(x)1 + 1(x)T.  The caps are per
variable: c_i = q at m^[q], c_i = a_i q at (x_i^(a_i))^[q].  Two numbers
are read off the Jordan type of T (Han-Monsky, "Some surprising
Hilbert-Kunz functions", Math. Z. 1993):

- with every cap q, each term's q-th power lies in m^[q], so every block
  has size at most q, and a_e, the rank of f^(q-1), is the number of
  blocks of size exactly q;
- the colength lambda(P/(x_i^(c_i), f)), the cokernel of T, is the number
  of blocks, whatever the caps.

Each variable f does not involve contributes a factor k[z]/(z^c) with
T = 0, so c blocks of size 1, and multiplies both numbers by its cap.

A quadratic form that is not separated, such as x*y + y*z + z*x, is
diagonalised first (``diagonal_form``) when p is odd and every cap is the
same power q of p.  Over GF(p), (sum_j a_ij x_j)^q = sum_j a_ij x_j^q, so
x -> A x with A in GL_n(GF(p)) maps m^[q] onto itself and conjugates f on
P/m^[q] to f(A x): neither number changes.  Unequal caps, or caps that
are not powers of p, are not invariant under GL_n, and stay declined.

The rank of a twist f^(q-1) * prod g^r on P/m^[q] (a pair, or the extra
factor of a gap length) is taken in two kinds:

- monomial g, with beta = sum r * exp(g): x^beta P/m^[q] is isomorphic
  to P/(x_i^(q - beta_i)), because multiplication by x^beta maps P onto
  it with kernel m^[q] : x^beta = (x_i^(q - beta_i)).  So the rank is
  that of f^(q-1) on the box with caps q - beta_i, 0 when a cap is <= 0.
  f^q lies in m^[q], inside that box, so every block there has size at
  most q, and the rank is the number of blocks of size exactly q;
- one linear form l on a quadratic form f at odd p: while every cap is
  still q, an A in GL_n(GF(p)) with l(A x) = u, a coordinate, brings f to
  d*u^2 + sum d_j y_j^2, u*v + sum d_j y_j^2 or a form without u
  (``diagonal_form(f, keep=l)``).  A fixes m^[q] and takes the twist to
  f(A x)^(q-1) * u^r, a monomial factor: u's cap becomes q - r.

Every other twist is declined.

A Jordan type is a dict {block size: multiplicity}.  The types of the
terms are closed forms, and so is J_a (x) J_b (``block_product``): the
k-th power of x + y on k[x,y]/(x^a, y^b) has rank r_k = ab - l(k), with
Han's colength 4 l(k) = 2(ab + bk + ka) - a^2 - b^2 - k^2 + delta^2
(``han_colength``), and r_(L-1) - 2 r_L + r_(L+1) blocks have size L.
Two types multiply pair by pair; the last two are read only through
their free summands (``free_count``) or block count (``block_count``).
A unit coefficient does not change a Jordan type.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from itertools import accumulate
from typing import Sequence

from .poly import Polynomial

# q bounds the O(q) loops and dicts below.  One tensor product pairs at
# most _MAX_PAIRS block sizes, and the distinct J_a (x) J_b of one walk
# take at most _MAX_STEPS steps, min(a, b) each: about twice that many
# ranks, and at most twice that many sizes kept in the walk's memo.
_MAX_Q = 1 << 17
_MAX_PAIRS = 1 << 16
_MAX_STEPS = 1 << 22
_TOO_LARGE = "the tensor products are too large for the separated engine"
_TIMEOUT = "time budget exhausted during a tensor product walk"


def separated_splitting_number(
    f: Polynomial,
    q: int,
    factors: Sequence[tuple[Polynomial, int]] = (),
    deadline: float | None = None,
) -> int | None:
    """The rank of f^(q-1) * prod g^r on P/m^[q] at q = p^e, or None when declined.

    With no ``factors`` this is a_e of P/(f).  f must be separated (its
    terms have nonempty, pairwise disjoint variable supports) or a
    quadratic form at odd p; ``factors`` are pairs (g, r) with r > 0,
    either all monomials or one linear form on a quadratic f at odd p
    (see the module docstring).  Past ``deadline`` (a ``time.monotonic()``
    value, checked before the walk and every 1024 ranks of a product) it
    raises ``TimeoutError``.  ``ValueError`` comes before any loop for a q
    past ``_MAX_Q``, and before a product's loop when it pairs more than
    ``_MAX_PAIRS`` sizes or the walk's products pass ``_MAX_STEPS``.
    """
    caps = [q] * f.nvars
    if len(factors) == 1 and _is_form(factors[0][0], 1) and _is_form(f, 2) and f.p % 2:
        ((g, r),) = factors
        f = diagonal_form(f, keep=g)
        caps[_first_variable(g)] -= r
    elif all(g.is_monomial() for g, _ in factors):
        for g, r in factors:
            (m,) = g.terms
            caps = [c - r * e for c, e in zip(caps, m)]
    else:
        return None
    if min(caps) <= 0:
        return 0
    types = _last_types(f, tuple(caps), deadline)
    return None if types is None else free_count(*types, q)


def separated_colength(f: Polynomial, caps: tuple[int, ...], deadline: float | None = None) -> int | None:
    """lambda(P/(x_i^(caps_i), f)) when f is separated, otherwise None.

    The colength is the number of Jordan blocks of f on the box, so
    ``q^n - separated_colength(f, (q,) * n)`` is the rank of f there.  The
    caps must be positive; the refusals and the ``deadline`` are those of
    ``separated_splitting_number``, with the largest cap in place of q.
    """
    types = _last_types(f, caps, deadline)
    return None if types is None else block_count(*types)


def _last_types(
    f: Polynomial, caps: tuple[int, ...], deadline: float | None
) -> tuple[dict[int, int], dict[int, int]] | None:
    """Two Jordan types whose product is the type of f on P/(x_i^(caps_i)).

    Balanced pairwise tensor products reduce the terms' types to at most
    two; J_1 stands in for a missing second, and the first counts every
    block once per monomial in the variables f does not use.  A quadratic
    form that is not separated is replaced by ``diagonal_form(f)`` when p
    is odd and every cap is the same power of p (see the module
    docstring).  None when f is not separated and that does not apply.
    """
    used = _separated_support(f)
    if used is None and f.p % 2 and _is_form(f, 2) and _same_power(caps, f.p):
        f = diagonal_form(f)
        used = _separated_support(f)
    if used is None:
        return None
    if max(caps) > _MAX_Q:
        raise ValueError(
            f"exponent cap {max(caps)} is too large for the separated engine"
            f" (at most {_MAX_Q}; at m^[q] the cap is q)"
        )
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError(_TIMEOUT)
    types = sorted((monomial_type(m, caps) for m in f.terms), key=len)
    memo: dict[tuple[int, int], dict[int, int]] = {}
    while len(types) > 2:
        # neighbours pairwise, so the factors of each product stay balanced
        types = [_tensor(*types[i : i + 2], f.p, memo, deadline) if i + 1 < len(types) else types[i]
                 for i in range(0, len(types), 2)]
    unused = math.prod(c for i, c in enumerate(caps) if i not in used)
    return {size: n * unused for size, n in types[0].items()}, types[1] if len(types) > 1 else {1: 1}


def _separated_support(f: Polynomial) -> set[int] | None:
    """The variables f uses when its terms' supports are nonempty and disjoint, else None."""
    supports = [{i for i, e in enumerate(m) if e} for m in f.terms]
    used = set().union(*supports)
    return used if all(supports) and sum(map(len, supports)) == len(used) else None


def _is_form(f: Polynomial, degree: int) -> bool:
    """Whether every term of f has total degree ``degree``."""
    return all(sum(m) == degree for m in f.terms)


def _first_variable(form: Polynomial) -> int:
    """The least index of a variable a linear form uses."""
    return min(m.index(1) for m in form.terms)


def _same_power(caps: tuple[int, ...], p: int) -> bool:
    """Whether every cap is the same power of p."""
    q = 1
    while q < caps[0]:
        q *= p
    return all(c == q for c in caps)


def diagonal_form(f: Polynomial, keep: Polynomial | None = None) -> Polynomial:
    """f(A x) in normal form with A in GL_n(GF(p)), for a quadratic form f and p odd.

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
        u = _first_variable(keep)
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


def monomial_type(m: tuple[int, ...], caps: tuple[int, ...]) -> dict[int, int]:
    """Jordan type of x^m on k[x_i : m_i > 0]/(x_i^(caps_i)).

    The rank of the k-th power is N(k) = prod max(0, c_i - k m_i), so
    N(L-1) - N(L) blocks have size at least L.  N(k) is 0 from the least
    ceil(c_i / m_i) on, and every factor is positive before it.
    """
    pairs = [(e, c) for e, c in zip(m, caps) if e]
    top = min(-(-c // e) for e, c in pairs)
    ranks = [math.prod(r) for r in zip(*([c - k * e for k in range(top)] for e, c in pairs))]
    return _jordan_type(ranks + [0, 0], 0)


def _jordan_type(ranks: list[int], low: int) -> dict[int, int]:
    """The type of rank ranks[k - low] on the k-th power: r_(L-1) - 2 r_L + r_(L+1) blocks of size L."""
    jordan = {}
    for i in range(1, len(ranks) - 1):
        count = ranks[i - 1] - 2 * ranks[i] + ranks[i + 1]
        if count:
            jordan[low + i] = count
    return jordan


def block_product(a: int, b: int, p: int, deadline: float | None = None) -> dict[int, int]:
    """Jordan type of J_a(x)1 + 1(x)J_b over GF(p), from closed-form ranks.

    The k-th power of x + y on k[x,y]/(x^a, y^b) has rank r_k = ab - l(k)
    with 4 l(k) = 2(ab + bk + ka) - a^2 - b^2 - k^2 + delta^2
    (``han_colength``), and r_(L-1) - 2 r_L + r_(L+1) blocks have size L.
    For a >= b, r_k = b(a - k) while k <= a - b, so every block is longer
    than a - b, and only the ranks from k = a - b on are computed.  Past
    ``deadline``, checked every 1024 ranks, it raises ``TimeoutError``.
    """
    a, b = max(a, b), min(a, b)
    low = a - b
    ranks = []
    for k in range(low, a + b + 1):
        if (k - low) % 1024 == 0 and deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(_TIMEOUT)
        ranks.append(a * b - han_colength(a, b, k, p))
    return _jordan_type(ranks, low)


def han_colength(a: int, b: int, c: int, p: int) -> int:
    """lambda(k[x,y]/(x^a, y^b, (x+y)^c)) over GF(p), by Han's formula (Han-Monsky 1993).

    4 lambda = 2(ab + bc + ca) - a^2 - b^2 - c^2 + delta^2.  delta is the
    excess of the largest of a, b, c over the sum of the others, if any;
    else q - d for the largest power q of p with d < q, where d is the
    taxicab distance from (a, b, c) to the nearest q u with u integral of
    odd coordinate sum; else 0.  That u rounds each coordinate to a nearest
    multiple of q, and, when its sum is even, moves to the other side the
    coordinate k_i that costs least, q - 2 |k_i - q u_i|.
    """
    ks = (a, b, c)
    top = max(ks)
    delta = 2 * top - a - b - c
    if delta < 0:
        delta, q = 0, 1
        while q <= top:
            q *= p
        while q and not delta:
            dist, move, odd = 0, q, 0
            for k in ks:
                u, r = divmod(k, q)
                if 2 * r > q:
                    u, r = u + 1, q - r
                dist, move, odd = dist + r, min(move, q - 2 * r), odd + u
            if odd % 2 == 0:
                dist += move
            delta = max(q - dist, 0)
            q //= p
    return (2 * (a * b + b * c + c * a) - a * a - b * b - c * c + delta * delta) // 4


def free_count(left: dict[int, int], right: dict[int, int], q: int) -> int:
    """Blocks of size q in left (x) right, for types with blocks of size <= q.

    J_a (x) J_b holds max(0, a + b - q) = a - min(a, q - b) of them: sum n_a a
    times sum n_b, less the blocks of left (x) J_(q - b), where J_0 has none.
    """
    mirror = {q - b: n for b, n in right.items()}
    total = sum(a * n for a, n in left.items()) * sum(right.values())
    return total - block_count(left, mirror)


def block_count(left: dict[int, int], right: dict[int, int]) -> int:
    """Jordan blocks of left (x) right.

    J_a (x) J_b has min(a, b) blocks in every characteristic: its cokernel
    is k[x, y]/(x^a, y^b, x + y) = k[x]/(x^min(a, b)).  min(a, b) counts
    the s <= a with s <= b, so the count is the sum over a of n_a times
    the prefix sum up to a of (blocks of right of size >= s).
    """
    top = max(right, default=0)
    # blocks of right of size >= s, for s from top down to 1
    at_least = list(accumulate(right.get(s, 0) for s in range(top, 0, -1)))
    # reach[s]: those counts summed over 1..s
    reach = [0, *accumulate(reversed(at_least))]
    return sum(n * reach[min(a, top)] for a, n in left.items())


def _tensor(left: dict[int, int], right: dict[int, int], p: int, memo: dict,
            deadline: float | None) -> dict[int, int]:
    """left (x) right, each ``block_product`` computed once per walk and kept in ``memo``."""
    if len(left) * len(right) > _MAX_PAIRS:
        raise ValueError(_TOO_LARGE)
    new = {(min(a, b), max(a, b)) for a in left for b in right} - memo.keys()
    if sum(key[0] for key in new) + sum(key[0] for key in memo) > _MAX_STEPS:
        raise ValueError(_TOO_LARGE)
    for key in new:
        memo[key] = block_product(*key, p, deadline)
    out: Counter[int] = Counter()
    for a, m in left.items():
        for b, n in right.items():
            for size, k in memo[min(a, b), max(a, b)].items():
                out[size] += m * n * k
    return dict(out)
