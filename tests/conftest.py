"""Shared generators, independent brute-force oracles and reference oracles.

The oracles here deliberately avoid the library's fast paths: closest lift
pairs are found by scanning all p1*p2 candidates, peeling answers come from
subset enumeration, and expected certificate values are recomputed by direct
substitution.  The exact core (reduction mod Q, merge, pyramid, certificate
bounds) has a reference in `fractions.Fraction` arithmetic, term by term,
that the library's integer kernel must match exactly.  Tests freeze hand-derived
constants where the setup is small enough to work out by hand.

One hypothesis profile is loaded for the whole suite: derandomised, with a
bounded example count and no example database, so every run draws the same
examples.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from math import floor

import pytest
from hypothesis import settings

from freqpath.pathgraph import Path, Site
from freqpath.primes import primes_in_range, prod
from freqpath.pyramid import HypothesisViolation, PrePath, Pyramid, predicted_gap
from freqpath.torus import (
    Modulus,
    TorusPoint,
    as_fraction,
    lift_roots,
    reduce_mod,
    torus_norm,
)

settings.register_profile(
    "freqpath", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("freqpath")

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


def ref_reduce_mod(x, q: int) -> Fraction:
    """x mod Q by floor division in Fraction arithmetic: x - Q*floor(x/Q)."""
    x = Fraction(x)
    return x - q * floor(x / q)


def ref_signed_residual(x: TorusPoint) -> Fraction:
    """The representative of x in (-Q/2, Q/2]; its absolute value is the norm."""
    q = x.modulus.as_fraction()
    return x.value if 2 * x.value <= q else x.value - q


def ref_closest_lift_pair(
    a1: TorusPoint, a2: TorusPoint, p1: int, p2: int
) -> tuple[TorusPoint, TorusPoint]:
    """Closest lift pair in Fraction arithmetic, in O(1): the CRT shift c
    that reduces p2*a2 - p1*a1 into (-Q/2, Q/2], both shifts at the antipode,
    lexicographically smallest pair."""
    q = a1.modulus.q
    w = reduce_mod(p2 * a2.value - p1 * a1.value, a1.modulus)
    s = ref_signed_residual(w)
    m_frac = (p2 * a2.value - p1 * a1.value - w.value) / q
    assert m_frac.denominator == 1
    m = m_frac.numerator
    cs = [((s - w.value) / q).numerator]
    if 2 * s == q:
        cs.append(cs[0] - 1)
    out = []
    inv_p2 = pow(p2, -1, p1)
    for c in cs:
        k1 = ((c - m) * inv_p2) % p1
        k2 = ((k1 * p2 - (c - m)) // p1) % p2
        b1 = TorusPoint((a2.value + k1 * q) / p1, a1.modulus)
        b2 = TorusPoint((a1.value + k2 * q) / p2, a1.modulus)
        out.append((b1, b2))
    return min(out, key=lambda bb: (bb[0].value, bb[1].value))


def ref_aligned_reals(b1: TorusPoint, b2: TorusPoint) -> tuple[Fraction, Fraction]:
    """Real representatives (a, b) of the two points with |a - b| equal to
    their torus distance."""
    q = b1.modulus.as_fraction()
    a = b1.value
    best = None
    for t in (0, -1, 1):
        b = b2.value + t * q
        if best is None or abs(a - b) < abs(a - best):
            best = b
    return a, best


def ref_merge_two(a1, a2, p1, p2, eps1, eps2) -> TorusPoint:
    """merge_two in Fraction arithmetic: premise, closest lift pair, aligned
    reals, convex combination with weights (eps1, eps2), post-conditions."""
    eps1, eps2 = as_fraction(eps1), as_fraction(eps2)
    if torus_norm(a1.scale(p1) - a2.scale(p2)) >= eps1 + eps2:
        raise HypothesisViolation("merge premise fails")
    ra, rb = ref_aligned_reals(*ref_closest_lift_pair(a1, a2, p1, p2))
    alpha = reduce_mod(ra - (eps2 / (eps1 + eps2)) * (ra - rb), a1.modulus)
    assert torus_norm(alpha.scale(p2) - a1) < eps1 / p1
    assert torus_norm(alpha.scale(p1) - a2) < eps2 / p2
    return alpha


def ref_build_pyramid(pp: PrePath) -> Pyramid:
    """build_pyramid in Fraction arithmetic, checking every layer hypothesis
    with torus_norm before merging."""
    k = pp.k
    layers = [pp.top_anchors]
    cur_eps, cur_eps_prime = list(pp.eps), list(pp.eps_prime)
    mids = pp.mid_anchors
    step_eps, step_eps_prime = [], []
    for s in range(1, k + 1):
        m = k + 1 - s
        top, ps, qs = layers[-1], pp.p_primes[:m], pp.q_primes[s - 1 : s - 1 + m]
        step_eps.append(tuple(cur_eps[:m]))
        step_eps_prime.append(tuple(cur_eps_prime[:m]))
        for j in range(m):
            if torus_norm(top[j + 1].scale(qs[j]) - mids[j]) >= cur_eps[j]:
                raise HypothesisViolation(f"q-side hypothesis fails at index {j + 1}")
            if torus_norm(top[j].scale(ps[j]) - mids[j]) >= cur_eps_prime[j]:
                raise HypothesisViolation(f"p-side hypothesis fails at index {j + 1}")
        layers.append(tuple(
            ref_merge_two(
                top[j], top[j + 1], ps[j], qs[j], cur_eps_prime[j], cur_eps[j]
            )
            for j in range(m)
        ))
        mids = top[1:-1]
        cur_eps, cur_eps_prime = (
            [cur_eps_prime[i + 1] / pp.p_primes[i + 1] for i in range(m - 1)],
            [cur_eps[i] / qs[i] for i in range(m - 1)],
        )
    return Pyramid(pp.modulus, pp.p_primes, pp.q_primes, tuple(layers),
                   tuple(step_eps), tuple(step_eps_prime))


def ref_anchor_bound(py: Pyramid, j: int, m: int) -> tuple[Fraction, Fraction]:
    """(actual, bound) of anchor_bound_certificate, one Fraction per term."""
    eps = py.step_eps[0][0]
    col = py.anchor_column
    actual = torus_norm(col[j - 1].scale(prod(py.q_primes[m - 1 : j - 1])) - col[m - 1])
    bound = Fraction(0)
    for t in range(m, j):
        bound += predicted_gap(t, eps, py.p_primes, py.q_primes) * prod(
            py.q_primes[m - 1 : t - 1]
        )
    return actual, bound


def ref_top_anchor(py: Pyramid, j: int) -> tuple[Fraction, Fraction]:
    """(actual, bound) of top_anchor_certificate, one Fraction per term."""
    k = py.k
    pprod = prod(py.p_primes[: j - 1])
    qprod = prod(py.q_primes[j - 1 :])
    actual = torus_norm(py.top.scale(pprod * qprod) - py.layers[0][j - 1])
    eps = py.step_eps[0][0]
    b_fwd = Fraction(0)
    for t in range(j, k + 1):
        b_fwd += predicted_gap(t, eps, py.p_primes, py.q_primes) * prod(
            py.q_primes[j - 1 : t - 1]
        )
    b_dwn = Fraction(0)
    for t in range(1, j):
        b_dwn += py.pside_bound(j - t, t) * prod(py.p_primes[t : j - 1])
    return actual, b_dwn + pprod * b_fwd


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


def path_over(pp: PrePath) -> Path:
    """A path with the pre-path's primes whose sites carry its top anchors."""
    return Path(
        sites=tuple(Site(i + 1, a.value) for i, a in enumerate(pp.top_anchors)),
        p_primes=pp.p_primes,
        q_primes=pp.q_primes,
        step_witness=(frozenset({2}),) * pp.k,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
