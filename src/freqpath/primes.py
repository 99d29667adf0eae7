"""Small number-theory helpers: trial-division primality and interval
sieves.

Everything here is exact integer arithmetic; the scales involved (prime
pools of a few dozen entries, products of tens of primes) never justify a
segmented sieve or probabilistic primality.
"""
from __future__ import annotations

from math import isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    r = isqrt(n)
    while f <= r:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    if hi < 2:
        return []
    lo = max(lo, 2)
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [n for n in range(lo, hi + 1) if sieve[n]]
