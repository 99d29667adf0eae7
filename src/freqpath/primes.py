"""Small number-theory helpers: trial-division primality, interval sieves
and integer roots.

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


def prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def floor_nth_root(n: int, k: int) -> int:
    """Largest integer r with r**k <= n (n >= 0, k >= 1), in integers only."""
    if n < 0 or k < 1:
        raise ValueError("floor_nth_root needs n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # Newton from above: 2**ceil(bits/k) > n**(1/k), and the iterates
    # decrease strictly until they reach the floor of the root
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt
