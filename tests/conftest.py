"""Shared generators and independent brute-force oracles.

The oracles here deliberately avoid the library's fast paths: closest lift
pairs are found by scanning all p1*p2 candidates, peeling answers come from
subset enumeration, and expected certificate values are recomputed by direct
substitution.  Tests freeze hand-derived constants where the setup is small
enough to work out by hand.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from freqpath.primes import primes_in_range, prod
from freqpath.pyramid import PrePath
from freqpath.torus import Modulus, TorusPoint, lift_roots, reduce_mod, torus_norm

SMALL_PRIMES = primes_in_range(2, 97)
MODULUS_PRIMES = primes_in_range(2, 50)


def rand_fraction(rng: random.Random, max_num: int = 10**6) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_num))


def rand_signed(rng: random.Random, scale: Fraction) -> Fraction:
    return Fraction(rng.randint(-(10**6), 10**6), 10**6) * scale


def rand_modulus(rng: random.Random) -> Modulus:
    """Either the trivial modulus or a product of <= 3 distinct primes <= 50."""
    if rng.random() < 0.4:
        return Modulus(1, ())
    n = rng.randint(1, 3)
    fs = tuple(sorted(rng.sample(MODULUS_PRIMES, n)))
    return Modulus(prod(fs), fs)


def rand_coprime_primes(rng: random.Random, n: int, modulus: Modulus) -> list[int]:
    pool = [p for p in SMALL_PRIMES if modulus.q % p != 0]
    return rng.sample(pool, n)


def brute_closest_lift_pair(
    a1: TorusPoint, a2: TorusPoint, p1: int, p2: int
) -> tuple[TorusPoint, TorusPoint]:
    """Exhaustive search over all p1*p2 lift pairs; ties lexicographic."""
    best = None
    for b1 in lift_roots(a2, p1):
        for b2 in lift_roots(a1, p2):
            key = (torus_norm(b1 - b2), b1.value, b2.value)
            if best is None or key < best[0]:
                best = (key, (b1, b2))
    return best[1]


def brute_min_degree_subset(n: int, adjacency: dict[int, set[int]], d_min: int) -> frozenset[int]:
    """Union of all subsets whose members each keep more than d_min neighbors
    inside; equals the unique maximal such subset."""
    masks = [0] * n
    for u, nbrs in adjacency.items():
        for v in nbrs:
            masks[u] |= 1 << v
    best = 0
    for s in range(1 << n):
        ok = True
        for u in range(n):
            if s >> u & 1 and bin(masks[u] & s).count("1") <= d_min:
                ok = False
                break
        if ok:
            best |= s
    # the union of valid subsets is valid (degrees only grow), hence maximal
    return frozenset(u for u in range(n) if best >> u & 1)


def brute_route_pair_candidates(
    params, q_star: int, max_out: int
) -> list[tuple[tuple[int, int, int, int], tuple[int, int, int, int]]]:
    """Route pairs for web placement by direct Fraction arithmetic: every
    two-step split route's ratio product qa*qb/(pa*pb) as a Fraction, every
    prime-disjoint, cycle-consistent pair within 40 places in ratio order,
    all of them sorted by (gap, first route, second route)."""
    p1s, p2s = (sorted(s) for s in params.split_partition())
    routes = []
    for pa in p1s:
        for pb in p1s:
            if pb == pa:
                continue
            for qa in p2s:
                for qb in p2s:
                    if qb == qa:
                        continue
                    routes.append((Fraction(qa * qb, pa * pb), (pa, qa, pb, qb)))
    routes.sort()
    out = []
    for i, (r1, t1) in enumerate(routes):
        for j in range(i + 1, min(i + 40, len(routes))):
            r2, t2 = routes[j]
            if set(t1) & set(t2):
                continue
            if q_star > 1:
                pa, qa, pb, qb = t1
                pc, qc, pd, qd = t2
                if (qa * qb * pc * pd - qc * qd * pa * pb) % q_star != 0:
                    continue
            out.append((t1, t2, r2 - r1))
    out.sort(key=lambda t: (t[2], t[0], t[1]))
    return [(t1, t2) for t1, t2, _gap in out[:max_out]]


def brute_physical_candidates(
    params, xs: list[Fraction]
) -> list[tuple[int, int, int, int, Fraction]]:
    """Physical edge candidates by direct Fraction arithmetic: for every site
    i and split pair (p, q), bisect the ascending sites for x_i * q/p, take
    the nearer of the two neighbours other than i (ties toward the smaller
    site), and keep it when |x_i/p - x_j/q| <= s_edge."""
    p1s, p2s = params.split_partition()
    out = []
    for i, x in enumerate(xs):
        for p in p1s:
            for q in p2s:
                target = x * Fraction(q, p)
                pos = bisect_left(xs, target)
                best = None
                for j in (pos - 1, pos):
                    if 0 <= j < len(xs) and j != i:
                        d = abs(xs[j] - target)
                        if best is None or d < abs(xs[best] - target):
                            best = j
                if best is None:
                    continue
                slack = abs(x / p - xs[best] / q)
                if slack <= params.s_edge:
                    out.append((i, best, p, q, slack))
    return out


def planted_prepath(
    rng: random.Random,
    k: int,
    eps: Fraction,
    modulus: Modulus | None = None,
    exact: bool = False,
) -> PrePath:
    """A uniform-tolerance pre-path planted from one hidden frequency.

    Anchor i is (prod_{j<i} p_j * prod_{j>=i} q_j) * alpha plus bounded
    jitter; the planted parts cancel in every hypothesis, so the jitter
    scale alone controls validity.  With exact=True all relations hold with
    zero residual.
    """
    modulus = modulus or rand_modulus(rng)
    ps = rand_coprime_primes(rng, 2 * k, modulus)
    p_primes, q_primes = tuple(ps[:k]), tuple(ps[k:])
    alpha = rand_fraction(rng) * modulus.q
    biggest = max(p_primes + q_primes)

    def mult(i: int) -> int:
        return prod(p_primes[: i - 1]) * prod(q_primes[i - 1 :])

    jit_scale = Fraction(0) if exact else eps / (8 * biggest)
    tops = tuple(
        reduce_mod(mult(i) * alpha + rand_signed(rng, jit_scale), modulus)
        for i in range(1, k + 2)
    )
    mid_scale = Fraction(0) if exact else eps / 4
    mids = tuple(
        reduce_mod(
            p_primes[j] * tops[j].value + rand_signed(rng, mid_scale), modulus
        )
        for j in range(k)
    )
    return PrePath(
        modulus=modulus,
        top_anchors=tops,
        mid_anchors=mids,
        p_primes=p_primes,
        q_primes=q_primes,
        eps=(eps,) * k,
        eps_prime=(eps,) * k,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
