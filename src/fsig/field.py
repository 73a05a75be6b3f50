"""Arithmetic in a prime field GF(p)."""

from __future__ import annotations

from typing import Sequence


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are small word-sized integers."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def inverse_mod(a: int, p: int) -> int:
    """Inverse of ``a`` modulo a prime ``p`` as a plain integer."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("cannot invert 0 mod p")
    return pow(a, p - 2, p)


def rank_mod_p_reference(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p) by plain Gaussian elimination in Python integers.

    For small matrices, and the reference for the dense kernel in ``linalg``.
    """
    work = [[int(x) % p for x in row] for row in rows]
    if not work or not work[0]:
        return 0
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [(v * inv) % p for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r
