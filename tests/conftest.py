"""Shared generators, independent brute-force oracles and reference oracles.

The oracles here deliberately avoid the library's fast paths: closest lift
pairs are found by scanning all p1*p2 candidates, peeling answers come from
subset enumeration, and expected certificate values are recomputed by direct
substitution.  The exact core (reduction mod Q, merge, pyramid, certificate
bounds) has a reference in `fractions.Fraction` arithmetic, term by term,
that the library's integer kernel must match exactly.  A path's modulus
check, one decision per step, is matched against a prefix chain that
decides each step at every partial product of the modulus's factors;
split walks are matched against an enumerator that rebuilds the adjacency
on every call, recovery's route pairs against every two of its paths
(`ref_route_pairs`), and the integer separation check against sorted
Fractions.
Generation decides on integer-scaled values; its Fraction references are
the witness check (`ref_edge_witness`) and site placement
(`ref_place_sites`), and the audit's planted and physical checks have
theirs (`ref_planted_consistency`, `ref_slacks_within`).
Tests freeze hand-derived constants where the setup is small enough to
work out by hand.

One hypothesis profile is loaded for the whole suite: derandomised, with a
bounded example count and no example database, so every run draws the same
examples.
"""
from __future__ import annotations

import itertools
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import floor, prod

import pytest
from hypothesis import settings

from freqpath.pathgraph import (
    Configuration,
    Edge,
    Path,
    PathEnumeration,
    PathError,
    Site,
)
from freqpath.primes import is_prime, primes_in_range
from freqpath.pyramid import (
    BoundReport,
    HypothesisViolation,
    PrePath,
    Pyramid,
    predicted_gap,
)
from freqpath.synth import InfeasibleParamsError, _route_pair_candidates
from freqpath.torus import (
    Modulus,
    TorusError,
    TorusPoint,
    as_fraction,
    combine_moduli,
    norm_mod,
    reduce_mod,
    scaled_gap,
    torus_norm,
)

settings.register_profile(
    "freqpath", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("freqpath")

SMALL_PRIMES = primes_in_range(2, 97)
MODULUS_PRIMES = primes_in_range(2, 50)


def pair(x) -> tuple[int, int]:
    """The rational x as the pair (num, den) in lowest terms, den > 0, that
    a Site or an Edge holds."""
    x = Fraction(x)
    return x.numerator, x.denominator


def site(x, alpha) -> Site:
    """A Site at the rationals x and alpha."""
    return Site(pair(x), pair(alpha))


def edge(i: int, j: int, p: int, q: int, witness, slack) -> Edge:
    """An Edge with the witness primes of any iterable and a rational slack."""
    return Edge(i, j, p, q, frozenset(witness), pair(slack))


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


def lift_roots(alpha: TorusPoint, p: int) -> list[TorusPoint]:
    """The p solutions beta of p*beta = alpha (mod Q), ascending.

    They are alpha/p + k*Q/p for k = 0..p-1; requires p prime and p not
    dividing Q (automatic for Q = 1).
    """
    q = alpha.modulus.q
    if not is_prime(p):
        raise TorusError(f"{p} is not prime")
    if q % p == 0:
        raise TorusError(f"prime {p} divides the modulus {q}")
    step = Fraction(q, p)
    base = alpha.value / p
    return [reduce_mod(base + k * step, alpha.modulus) for k in range(p)]


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
    q = Fraction(x.modulus.q)
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
        b1 = reduce_mod((a2.value + k1 * q) / p1, a1.modulus)
        b2 = reduce_mod((a1.value + k2 * q) / p2, a1.modulus)
        out.append((b1, b2))
    return min(out, key=lambda bb: (bb[0].value, bb[1].value))


def ref_aligned_reals(b1: TorusPoint, b2: TorusPoint) -> tuple[Fraction, Fraction]:
    """Real representatives (a, b) of the two points with |a - b| equal to
    their torus distance."""
    q = Fraction(b1.modulus.q)
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


@dataclass(frozen=True)
class RefPyramid:
    """The layers and both tolerance tables of a pyramid, as Fractions."""

    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    layers: tuple[tuple[TorusPoint, ...], ...]
    step_eps: tuple[tuple[Fraction, ...], ...]
    step_eps_prime: tuple[tuple[Fraction, ...], ...]


def ref_build_pyramid(pp: PrePath) -> RefPyramid:
    """build_pyramid in Fraction arithmetic, checking every layer hypothesis
    with torus_norm before merging."""
    k = pp.k
    layers = [pp.top_anchors]
    cur_eps, cur_eps_prime = [pp.eps] * k, [pp.eps] * k
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
    return RefPyramid(pp.p_primes, pp.q_primes, tuple(layers),
                      tuple(step_eps), tuple(step_eps_prime))


def step_eps(py: Pyramid) -> tuple[tuple[Fraction, ...], ...]:
    """The pyramid's eps_table, each integer pair as a Fraction."""
    return tuple(tuple(Fraction(*e) for e in row) for row in py.eps_table)


def step_eps_prime(py: Pyramid) -> tuple[tuple[Fraction, ...], ...]:
    """The pyramid's eps_prime_table, each integer pair as a Fraction."""
    return tuple(tuple(Fraction(*e) for e in row) for row in py.eps_prime_table)


def qside_bound(py: Pyramid, step: int, entry: int) -> Fraction:
    """Bound on ||q_{step+entry-1} * layers[step][entry-1] -
    layers[step-1][entry-1]||, read off the Fraction tolerance tables;
    1-based step and entry."""
    return step_eps_prime(py)[step - 1][entry - 1] / py.p_primes[entry - 1]


def pside_bound(py: Pyramid, step: int, entry: int) -> Fraction:
    """Bound on ||p_entry * layers[step][entry-1] - layers[step-1][entry]||,
    read off the Fraction tolerance tables; 1-based step and entry."""
    return step_eps(py)[step - 1][entry - 1] / py.q_primes[step + entry - 2]


def all_passed(report: BoundReport) -> bool:
    """Whether every row of a verify_pyramid report passed."""
    return all(r.passed for r in report.rows)


def ref_anchor_bound(py: Pyramid, j: int, m: int) -> tuple[Fraction, Fraction]:
    """(actual, bound) of anchor_bound_certificate, one Fraction per term."""
    eps = step_eps(py)[0][0]
    col = py.anchor_column
    actual = torus_norm(col[j - 1].scale(prod(py.q_primes[m - 1 : j - 1])) - col[m - 1])
    bound = Fraction(0)
    for t in range(m, j):
        bound += predicted_gap(t, eps, py.p_primes, py.q_primes) * prod(
            py.q_primes[m - 1 : t - 1]
        )
    return actual, bound


def ref_top_anchor(py: Pyramid, j: int) -> tuple[Fraction, Fraction]:
    """(actual, bound) of top_anchor_certificate, one Fraction per term, the
    p-side bounds read off the pyramid's Fraction tolerance tables."""
    k = py.k
    pprod = prod(py.p_primes[: j - 1])
    qprod = prod(py.q_primes[j - 1 :])
    actual = torus_norm(py.top.scale(pprod * qprod) - py.layers[0][j - 1])
    eps = step_eps(py)[0][0]
    b_fwd = Fraction(0)
    for t in range(j, k + 1):
        b_fwd += predicted_gap(t, eps, py.p_primes, py.q_primes) * prod(
            py.q_primes[j - 1 : t - 1]
        )
    b_dwn = Fraction(0)
    for t in range(1, j):
        b_dwn += pside_bound(py, j - t, t) * prod(py.p_primes[t : j - 1])
    return actual, b_dwn + pprod * b_fwd


def top_anchor_actuals(path: Path, top: TorusPoint, j: int) -> Fraction:
    """The j-th apex-to-base distance for an arbitrary candidate apex."""
    pprod = prod(path.p_primes[: j - 1])
    qprod = prod(path.q_primes[j - 1 :])
    base = reduce_mod(path.sites[j - 1].alpha, top.modulus)
    return Fraction(*scaled_gap(pprod * qprod, top, 1, base))


def ratio_product(
    p_primes: tuple[int, ...], q_primes: tuple[int, ...], m: int
) -> Fraction:
    """prod_{i<=m} q_i / p_i as an exact rational."""
    return Fraction(prod(q_primes[:m]), prod(p_primes[:m]))


def ref_ratio_drift(path: Path, m: int) -> tuple[Fraction, Fraction, Fraction, bool]:
    """(ratio, drift, bound, passed) of ratio_drift_certificate in Fraction
    arithmetic: the bound adds, for each step t, q_t times its edge slack
    times the Fraction tail prod_{i=t+1..m} q_i/p_i."""
    ratio = ratio_product(path.p_primes, path.q_primes, m)
    drift = abs(path.sites[0].x * ratio - path.sites[m].x)
    bound = Fraction(0)
    for t in range(1, m + 1):
        tail = Fraction(prod(path.q_primes[t:m]), prod(path.p_primes[t:m]))
        bound += path.q_primes[t - 1] * path.edges[t - 1].slack * tail
    return ratio, drift, bound, drift <= bound


def ref_validate_path_modulus(path: Path, modulus: Modulus, eps_edge: Fraction) -> None:
    """validate_path_modulus as a prefix chain: each step relation is decided
    modulo the first factor, then at every longer product of the factors
    through the checked coprime combination; a trivial modulus checks
    nothing."""
    factors = modulus.factors
    for t, (a, b, e) in enumerate(zip(path.sites, path.sites[1:], path.edges)):
        rel = e.p * a.alpha - e.q * b.alpha
        if not factors:
            continue
        acc = factors[0]
        if norm_mod(rel, acc) >= eps_edge:
            raise PathError(f"step {t + 1} relation fails mod {acc}")
        for w in factors[1:]:
            if not combine_moduli(rel, acc, w, eps_edge):
                raise PathError(f"step {t + 1} relation fails mod {acc * w}")
            acc *= w


def ref_edge_witness(
    a: Site, b: Site, p: int, q: int, witness_pool, eps_edge: Fraction
) -> frozenset[int]:
    """The witness primes by Fraction arithmetic: w is kept when the norm of
    the Fraction p*alpha_a - q*alpha_b modulo w is strictly below eps_edge."""
    rel = p * a.alpha - q * b.alpha
    return frozenset(w for w in witness_pool if norm_mod(rel, w) < eps_edge)


def planted_alpha(truth, site_index: int, x: Fraction) -> Fraction:
    """The planted frequency of the site at index `site_index` and position
    x, a*carrier/q* + t*/x, in Fraction arithmetic."""
    a = truth.a_map.get(site_index, 0)
    return Fraction(a * truth.carrier, truth.q_star) + truth.t_star / x


def ref_planted_consistency(inst) -> bool:
    """The audit's planted_consistency in Fraction arithmetic: every site's
    alpha lies within noise_level * eps_edge of its planted alpha."""
    bound = inst.params.noise_level * inst.params.eps_edge
    return all(abs(s.alpha - planted_alpha(inst.truth, i, s.x)) <= bound
               for i, s in enumerate(inst.cfg.sites))


def ref_slacks_within(inst) -> bool:
    """The audit's physical check in Fraction arithmetic: every stored edge
    slack is at most s_edge."""
    return all(e.slack <= inst.params.s_edge for e in inst.edges)


def _ref_try_place(placed: list[Fraction], x: Fraction, lo, hi, sep) -> bool:
    if not lo <= x <= hi:
        return False
    pos = bisect_left(placed, x)
    if pos > 0 and x - placed[pos - 1] < sep:
        return False
    if pos < len(placed) and placed[pos] - x < sep:
        return False
    insort(placed, x)
    return True


def ref_place_sites(params, rng: random.Random, q_star: int) -> list[Fraction]:
    """Site placement in Fraction arithmetic, drawing from `rng` as the
    generator does: the hub and planted route pairs, diamonds, chains whose
    step takes one of the three smallest Fraction ratios q/p of unused
    primes, then random grid slots, each placed by a bisect over the
    Fraction sites."""
    lo, hi, sep = params.site_lo, params.site_hi, params.separation
    placed: list[Fraction] = []
    if params.placement == "web":
        hub = lo
        placed.append(hub)
        p1s, p2s = params.split_partition()
        pairs = _route_pair_candidates(params, q_star, 4 * params.web_pair_targets)
        planted_pairs = 0
        for t1, t2 in pairs:
            if planted_pairs >= params.web_pair_targets:
                break
            pa, qa, pb, qb = t1
            pc, qc, pd, qd = t2
            z1 = hub * Fraction(qa, pa)
            y = z1 * Fraction(qb, pb)
            z2 = hub * Fraction(qc, pc)
            if abs(z2 * Fraction(qd, pd) - y) > qd * params.s_edge:
                continue
            snapshot = list(placed)
            if all(_ref_try_place(placed, v, lo, hi, sep) for v in (z1, y, z2)):
                planted_pairs += 1
            else:
                placed[:] = snapshot
        for _ in range(params.web_diamonds):
            base_slot = rng.randrange(max(1, params.slot_count() // 3))
            base = lo + base_slot * sep
            pa, pb = rng.sample(p1s, 2)
            qa, qb = rng.sample(p2s, 2)
            z1 = base * Fraction(qa, pa)
            z2 = base * Fraction(qb, pb)
            y = base * Fraction(qa * qb, pa * pb)
            snapshot = list(placed)
            if not all(_ref_try_place(placed, v, lo, hi, sep)
                       for v in (base, z1, z2, y)):
                placed[:] = snapshot
        for _ in range(params.web_chains):
            start_slot = rng.randrange(max(1, params.slot_count() // 20))
            cur = lo + start_slot * sep
            if not _ref_try_place(placed, cur, lo, hi, sep):
                continue
            used: set[int] = set()
            for _step in range(params.web_chain_len):
                avail1 = [p for p in p1s if p not in used]
                avail2 = [q for q in p2s if q not in used]
                if not avail1 or not avail2:
                    break
                smallest = sorted(
                    (Fraction(q, p), p, q) for p in avail1 for q in avail2
                )[:3]
                _, p, q = smallest[rng.randrange(len(smallest))]
                nxt = cur * Fraction(q, p)
                if not _ref_try_place(placed, nxt, lo, hi, sep):
                    break
                used.update((p, q))
                cur = nxt
    need = params.site_count - len(placed)
    if need > 0:
        n_slots = params.slot_count() + 1
        tries = min(n_slots, max(4 * need + 16, need))
        for slot in rng.sample(range(n_slots), tries):
            if need == 0:
                break
            if _ref_try_place(placed, lo + slot * sep, lo, hi, sep):
                need -= 1
        if need > 0:
            raise InfeasibleParamsError(
                f"could not place {params.site_count} separated sites"
            )
    return placed


def ref_separation_error(xs, separation) -> str | None:
    """The message Configuration raises for sites at positions `xs`, by
    sorting the Fractions and subtracting each neighbour pair; None when
    every gap is at least the separation."""
    xs = sorted(Fraction(x) for x in xs)
    separation = Fraction(separation)
    for a, b in zip(xs, xs[1:]):
        if b - a < separation:
            return f"sites {a} and {b} are closer than the separation {separation}"
    return None


def ref_enumerate_split_paths(
    cfg: Configuration, edges, start: int, k: int, limit: int = 10000
) -> PathEnumeration:
    """Split walks of length k from `start`, rebuilding the split adjacency
    on every call: depth-first over edges in ascending index, stored
    orientation only, globally distinct primes, stopping at `limit` with
    the truncation flag raised."""
    if k < 1:
        raise PathError("path length must be at least 1")
    out_edges: dict[int, list[Edge]] = {}
    for e in edges:
        if e.p in cfg.split_p1 and e.q in cfg.split_p2:
            out_edges.setdefault(e.i, []).append(e)
    results: list[Path] = []
    truncated = limit == 0

    def walk(u: int, used: set[int], acc: list[Edge]) -> bool:
        nonlocal truncated
        if len(acc) == k:
            if len(results) >= limit:
                truncated = True
                return False
            idxs = [acc[0].i] + [e.j for e in acc]
            results.append(Path(tuple(cfg.sites[i] for i in idxs), tuple(acc)))
            return True
        for e in out_edges.get(u, ()):
            if e.p in used or e.q in used:
                continue
            used.update((e.p, e.q))
            acc.append(e)
            ok = walk(e.j, used, acc)
            acc.pop()
            used.difference_update((e.p, e.q))
            if not ok:
                return False
        return True

    if limit > 0:
        walk(start, set(), [])
    return PathEnumeration(tuple(results), truncated)


def ref_route_pairs(inst, hub: int, k: int, limit: int = 20000):
    """`find_disjoint_path_pairs` by brute force, as (pairs, paths found,
    truncated), each pair (target, first route's edges, second route's
    edges, the factors of Q): every two paths of `ref_enumerate_split_paths`
    ending at one site other than the hub, in enumeration order, targets
    ascending, whose 4k primes are distinct and whose common witness set
    is not empty, with Q the product of its primes; both
    routes pass `ref_validate_path_modulus` at Q, and every label is a
    prime not dividing Q, as the loop's pre-path needs."""
    enum = ref_enumerate_split_paths(inst.cfg, inst.edges, hub, k, limit)
    pairs = []
    for a, b in itertools.combinations(enum.paths, 2):
        end = a.site_indices[-1]
        if end == hub or b.site_indices[-1] != end:
            continue
        labels = a.p_primes + a.q_primes + b.p_primes + b.q_primes
        common = tuple(sorted(a.common_witness & b.common_witness))
        if len(set(labels)) < 4 * k or not common:
            continue
        q_mod = Modulus(prod(common), common)
        try:
            for path in (a, b):
                ref_validate_path_modulus(path, q_mod, inst.params.eps_edge)
        except PathError:
            continue
        if all(is_prime(p) and q_mod.q % p for p in labels):
            pairs.append((end, a.edges, b.edges, common))
    pairs.sort(key=lambda pair: pair[0])
    return pairs, len(enum.paths), enum.truncated


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
    """A pre-path of tolerance eps planted from one hidden frequency.

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
        eps=eps,
    )


def walk_path(sites, p_primes, q_primes, witnesses, first: int = 0) -> Path:
    """A hand-made walk over `sites` at configuration indices first..first+k:
    step t is an edge from first+t to first+t+1 through (p_t, q_t), with
    witness set witnesses[t] and its exact slack |x_t/p_t - x_{t+1}/q_t|."""
    sites = tuple(sites)
    edges = tuple(
        edge(first + t, first + t + 1, p, q, w,
             abs(sites[t].x / p - sites[t + 1].x / q))
        for t, (p, q, w) in enumerate(zip(p_primes, q_primes, witnesses))
    )
    return Path(sites, edges)


def path_over(pp: PrePath) -> Path:
    """A path with the pre-path's primes whose sites carry its top anchors."""
    return walk_path(
        (site(i + 1, a.value) for i, a in enumerate(pp.top_anchors)),
        pp.p_primes,
        pp.q_primes,
        (frozenset({2}),) * pp.k,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
