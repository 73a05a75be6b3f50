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
replaced by a normal form (``diagonal_form``) when p is odd and every cap
is the same power q of p.  Both numbers are ranks over GF(p), which do
not change over F-bar_p.  There (sum_j a_ij x_j)^q = sum_j a_ij^q x_j^q,
so x -> A x with A in GL_n(F-bar_p) maps m^[q] onto itself and conjugates
f on P/m^[q] to f(A x), and a unit coefficient does not change a Jordan
type.  So f may be replaced by any form equivalent to it over F-bar_p, up
to unit coefficients, and such a form is fixed by a rank: x_0^2 + ... +
x_(r-1)^2 for the rank r of f.  Unequal caps, or caps that are not powers
of p, are not invariant under GL_n, and stay declined.

The rank of a twist f^(q-1) * prod g^r on P/m^[q] (a pair, or the extra
factor of a gap length) is taken in two kinds:

- monomial g, with beta = sum r * exp(g): x^beta P/m^[q] is isomorphic
  to P/(x_i^(q - beta_i)), because multiplication by x^beta maps P onto
  it with kernel m^[q] : x^beta = (x_i^(q - beta_i)).  So the rank is
  that of f^(q-1) on the box with caps q - beta_i, 0 when a cap is <= 0.
  f^q lies in m^[q], inside that box, so every block there has size at
  most q, and the rank is the number of blocks of size exactly q;
- one linear form l on a quadratic form f at odd p: while every cap is
  still q, an A in GL_n(F-bar_p) that takes l to a unit times a
  coordinate u brings f to u*v, u^2 or no u, plus squares; one more rank
  picks which (``diagonal_form(f, keep=l)``).  A fixes m^[q] and takes
  the twist to f(A x)^(q-1) * u^r, a monomial factor: u's cap becomes
  q - r.

Every other twist is declined.

A Jordan type is a dict {block size: multiplicity}.  The types of the
terms are closed forms, and so is J_a (x) J_b (``block_product``): a
recursion on the base-p digits of a and b with three rules, a lift, a
Heller shift and the top digit (Renaud, J. Algebra 58, 1979;
Glasby-Praeger-Xia, J. Algebra 450, 2016), and no rank.  Two types
multiply pair by pair; the last two are read only through
their free summands (``free_count``) or block count (``block_count``).
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .field import rank_mod_p_reference
from .poly import Polynomial

# q bounds the O(q) loops and dicts below.  One tensor product pairs at
# most _MAX_PAIRS block sizes, and the distinct J_a (x) J_b of one walk
# sum min(a, b) to at most _MAX_STEPS: it bounds the sizes kept in the
# walk's memo, at most min(a, b) per product.
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
    value, checked before the walk, before each product J_a (x) J_b, before
    each pair of sizes a product adds up and every 1024 sizes of the last
    count) it raises ``TimeoutError``.  ``ValueError`` comes before any loop for a q
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
    return None if types is None else free_count(*types, q, deadline)


def separated_colength(f: Polynomial, caps: tuple[int, ...], deadline: float | None = None) -> int | None:
    """lambda(P/(x_i^(caps_i), f)) when f is separated, otherwise None.

    The colength is the number of Jordan blocks of f on the box, so
    ``q^n - separated_colength(f, (q,) * n)`` is the rank of f there.  The
    caps must be positive; the refusals and the ``deadline`` are those of
    ``separated_splitting_number``, with the largest cap in place of q.
    """
    types = _last_types(f, caps, deadline)
    return None if types is None else block_count(*types, deadline)


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
    _check(deadline)
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


@lru_cache(maxsize=1024)
def diagonal_form(f: Polynomial, keep: Polynomial | None = None) -> Polynomial:
    """A form equivalent to the quadratic form f over F-bar_p, p odd, up to unit coefficients.

    B is the symmetric matrix of f (B_ii the coefficient of x_i^2, B_ij =
    B_ji half that of x_i x_j) and r its rank.  Every unit of F-bar_p is a
    square, so without ``keep`` the form is x_0^2 + ... + x_(r-1)^2.

    With a linear form ``keep`` = l, the equivalence also takes l to a unit
    times u, l's first variable.  With excess = rank [[B, l^T], [l, 0]] - r
    the form is u*v + (r - 2 squares) at excess 0, u^2 + (r - 1 squares)
    at excess 1 and r squares without u at excess 2; v and the squares
    take the other variables in index order.  Proof: if l = x^T B for some
    x, subtracting x times the first n rows and columns from the last
    reduces the bordered matrix to diag(B, -c), c = x^T B x = l(x).
    - c != 0: f - l^2/c has x in its radical and rank r - 1, so it is a
      form in coordinates vanishing on x, and l is independent of them.
    - c = 0: any z with l(z) = 1, moved along x to be isotropic, spans
      with x a plane where f = 2ab and l = b; on its orthogonal l vanishes
      and f has rank r - 2.
    Otherwise l is not in the row space of B, so l(z) = 1 for some z in
    the radical of f.  In a basis of z and the kernel of l, u is z's
    coordinate, f does not involve it, and the bordered rank is r + 2.

    The form depends only on (f, keep), so each pair is derived once.
    """
    p, n = f.p, f.nvars
    b = [[0] * n for _ in range(n)]
    for m, c in f.terms.items():
        i, j = (k for k, e in enumerate(m) for _ in range(e))
        b[i][j] = b[j][i] = c if i == j else c * (p + 1) // 2 % p
    r = rank_mod_p_reference(b, p)
    rest = list(range(n))
    terms = {}
    if keep is not None:
        u = _first_variable(keep)
        ell = [keep.terms.get(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]
        excess = rank_mod_p_reference([row + [c] for row, c in zip(b, ell)] + [ell + [0]], p) - r
        rest.remove(u)
        if excess == 0:
            v = rest.pop(0)
            terms[tuple(int(i in (u, v)) for i in range(n))] = 1
            r -= 2
        elif excess == 1:
            terms[tuple(2 * (i == u) for i in range(n))] = 1
            r -= 1
    for k in rest[:r]:
        terms[tuple(2 * (i == k) for i in range(n))] = 1
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
    """Jordan type lambda(a, b) of J_a(x)1 + 1(x)J_b over GF(p), by a digit recursion.

    lambda(r, s) is symmetric; take r <= s.  It is the type of V_r (x) V_s
    over k[C_m] for a power m of p with m >= r, s (Glasby-Praeger-Xia, J.
    Algebra 450, 2016).  Let m be the least power of p with m >= r and
    m >= p.  lambda(0, s) is empty, lambda(1, s) = {s}, "c + lambda" adds c
    to every size, and otherwise:

    - lift (s >= m): with s = c m + d, 0 <= d < m, lambda(r, s) is
      c m + lambda(r, d) and max(r - d, 0) blocks of size c m;
    - Heller shift (s < m < r + s): r + s - m blocks of size m and
      lambda(m - s, m - r).  Omega V_r = V_(m-r) and V_m is free over
      k[C_m], so V_(m-s) (x) V_(m-r) = Omega^2 (V_r (x) V_s) + free, and
      Omega^2 fixes each V_k with k < m; dimensions count the V_m;
    - top digit (else m/p < r <= s < m, r + s <= m; Renaud, J. Algebra 58,
      1979): with M = m/p, r = a M + b, s = c M + d, X = lambda(b, d),
      Y = lambda(M - b, M - d) and t over T = {c-a+1, c-a+3, .., c+a-1}:
      (a+c) M + X, (t+1) M - X and (t-1) M + Y for each t, and d - b
      blocks of size (t+1) M for each t if b <= d, else b - d blocks of
      size L M for each L > 0 among c - a and the t + 1.  At M = 1 this
      is Clebsch-Gordan.

    Past ``deadline``, checked when it starts, it raises ``TimeoutError``.
    """
    _check(deadline)
    return _pair_type(min(a, b), max(a, b), p, {})


def _pair_type(r: int, s: int, p: int, memo: dict) -> dict[int, int]:
    """lambda(r, s) for r <= s by the rules of ``block_product``, each (r, s) once in ``memo``."""
    if r <= 1:
        return {s: 1} if r else {}
    if (r, s) in memo:
        return memo[r, s]
    m = p
    while m < r:
        m *= p
    out: dict[int, int] = {}

    def put(jordan: dict[int, int], base: int, sign: int = 1) -> None:
        for size, n in jordan.items():
            key = base + sign * size
            out[key] = out.get(key, 0) + n

    if s >= m:
        c, d = divmod(s, m)
        put(_pair_type(min(r, d), max(r, d), p, memo), c * m)
        out[c * m] = out.get(c * m, 0) + max(r - d, 0)
    elif r + s > m:
        put(_pair_type(m - s, m - r, p, memo), 0)
        out[m] = out.get(m, 0) + r + s - m
    else:
        place = m // p  # M
        (a, b), (c, d) = divmod(r, place), divmod(s, place)
        x = _pair_type(min(b, d), max(b, d), p, memo)
        y = _pair_type(place - max(b, d), place - min(b, d), p, memo)
        put(x, (a + c) * place)
        for t in range(c - a + 1, c + a, 2):
            put(x, (t + 1) * place, -1)
            put(y, (t - 1) * place)
            out[(t + 1) * place] = out.get((t + 1) * place, 0) + max(d - b, 0)
        # b > d: sizes L M for L = c - a (c >= a as r <= s; none when 0), c - a + 2, .., c + a
        for size in range(c - a or 2, c + a + 1, 2) if b > d else ():
            out[size * place] = out.get(size * place, 0) + b - d
    memo[r, s] = {size: n for size, n in out.items() if n}
    return memo[r, s]


def free_count(left: dict[int, int], right: dict[int, int], q: int,
               deadline: float | None = None) -> int:
    """Blocks of size q in left (x) right, for types with blocks of size <= q.

    J_a (x) J_b holds max(0, a + b - q) = a - min(a, q - b) of them: sum n_a a
    times sum n_b, less the blocks of left (x) J_(q - b), where J_0 has none.
    ``deadline`` is that of ``block_count``.
    """
    mirror = {q - b: n for b, n in right.items()}
    total = sum(a * n for a, n in left.items()) * sum(right.values())
    return total - block_count(left, mirror, deadline)


def block_count(left: dict[int, int], right: dict[int, int], deadline: float | None = None) -> int:
    """Jordan blocks of left (x) right.

    J_a (x) J_b has min(a, b) blocks in every characteristic: its cokernel
    is k[x, y]/(x^a, y^b, x + y) = k[x]/(x^min(a, b)).  min(a, b) counts
    the s <= a with s <= b, so the count is the sum over a of n_a times
    the prefix sum up to a of (blocks of right of size >= s).  Past
    ``deadline``, checked every 1024 sizes of left, it raises
    ``TimeoutError``.
    """
    top = max(right, default=0)
    # blocks of right of size >= s, for s from top down to 1
    at_least = list(accumulate(right.get(s, 0) for s in range(top, 0, -1)))
    # reach[s]: those counts summed over 1..s
    reach = [0, *accumulate(reversed(at_least))]
    count = 0
    for i, (a, n) in enumerate(left.items()):
        if i % 1024 == 0:
            _check(deadline)
        count += n * reach[min(a, top)]
    return count


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
    out: dict[int, int] = {}
    for a, m in left.items():
        for b, n in right.items():
            _check(deadline)
            for size, k in memo[min(a, b), max(a, b)].items():
                out[size] = out.get(size, 0) + m * n * k
    return out


def _check(deadline: float | None) -> None:
    """Raise ``TimeoutError`` once ``time.monotonic()`` is past ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError(_TIMEOUT)
