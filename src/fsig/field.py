"""Arithmetic in a prime field GF(p)."""

from __future__ import annotations


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
