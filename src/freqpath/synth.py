"""Deterministic, seeded generator of synthetic configurations with a
planted global frequency, plus the exact re-verification audit.

Frequencies are planted as  alpha_x = a_x * W / q* + T* / x  where W is the
product of the witness prime pool: with that carrier, a congruence
p*a_i = q*a_j (mod q*) makes the rational part of p*alpha_i - q*alpha_j an
integer multiple of every witness prime at once, so edge consistency is
decided by the archimedean part alone.  Every emitted edge is verified
against both thresholds exactly; nothing about an instance is sampled
without being re-checked.

Placement, the physical candidate search and the witness check are decided
on integer-scaled values: sites on the common grid 1/S of every position
they can take, candidate distances over the lcm of the site denominators,
and each witness set on p*alpha_i - q*alpha_j = N/(d_i*d_j), mod the pool's
product W first (exact: ||y||_w <= ||y||_W for every w | W).  Sites, alphas
and slacks stay integer pairs from placement to file and back, so a
Fraction is built for params and truth, not per site.

An instance file holds only what it cannot derive: params, truth, sites and
each edge as [i, j, p, q].  The loader reads it in one pass that accepts
only what `instance_to_json` writes, up to whitespace and key order
(no key twice, canonical "num/den" rationals, integer fields that are
ints, sites ascending in x, edges ascending) and derives the rest: the
split from params, the truth's carrier from the witness pool, and every
edge's slack and witness set in one integer pass over the rows
(`_decide_edges`), which the audit runs on its own edges too.
"""
from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import MISSING, dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, compress, count, islice, repeat
from math import exp, gcd, lcm, log, prod, sqrt
from operator import add, lt, sub

from .pathgraph import (
    Configuration,
    Edge,
    Site,
    close_pair,
    edge_relation,
    route_count_gate_max_k,
    scaled_positions,
    witness_rule,
)
from .primes import primes_in_range
from .torus import (
    MALFORMED,
    Rational,
    as_fraction,
    fields_to_json,
    frac_to_str,
    lowest_terms,
    pair_to_str,
    str_to_frac,
)

SCHEMA_VERSION = 3


class ParamsError(ValueError):
    pass


class InfeasibleParamsError(RuntimeError):
    """The candidate space cannot supply the requested instance."""


class InstanceError(ValueError):
    """An instance file holds what no generated instance can."""


@dataclass(frozen=True)
class Params:
    """Generator scales and thresholds.

    X, H, K, P, P_prime fix the interval geometry (sites live in
    [X/(10K), 2X/K], separated by H/K) and the two prime pools [P, 2P]
    and [P', 2P'] with P * P' = K.  eps_edge and s_edge are the frequency
    and physical edge thresholds.  The remaining fields are free dials:
    edge_count (None = keep every verifying candidate), noise_level
    (bounded rational jitter in units of eps_edge), placement
    ("uniform", or "web" to seed multiplicative clusters that guarantee
    multi-step routes at desk scale), and the web_* knobs.  Under "web",
    site_count is a lower bound: planted cluster sites are never trimmed.
    """

    X: int
    H: int
    K: int
    P: int
    P_prime: int
    eps_edge: Fraction
    s_edge: Fraction
    site_count: int
    edge_count: int | None = None
    noise_level: Fraction = Fraction(0)
    seed: int = 0
    placement: str = "uniform"
    web_pair_targets: int = 0
    web_diamonds: int = 0
    web_chains: int = 0
    web_chain_len: int = 0
    _rationals = ("eps_edge", "s_edge", "noise_level")  # not a field: no annotation

    def __post_init__(self) -> None:
        for name in self._rationals:
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        for name in ("X", "H", "K", "P", "P_prime", "site_count", "seed",
                     "web_pair_targets", "web_diamonds", "web_chains",
                     "web_chain_len"):
            if type(v := getattr(self, name)) is not int:
                raise ParamsError(f"{name} must be an integer, got {v!r}")
        # P, P' >= 1, so by Bertrand's postulate neither prime pool is empty
        if min(self.X, self.H, self.K, self.P, self.P_prime, self.site_count) < 1:
            raise ParamsError("X, H, K, P, P_prime and site_count must be positive")
        if self.P * self.P_prime != self.K:
            raise ParamsError(
                f"P * P' must equal K: {self.P} * {self.P_prime} != {self.K}"
            )
        if 2 * self.P_prime >= self.P:
            raise ParamsError("prime pools [P', 2P'] and [P, 2P] must be disjoint")
        if not 0 < self.eps_edge or 2 * self.eps_edge >= 1:
            raise ParamsError(f"need 0 < eps_edge < 1/2, got {self.eps_edge}")
        if self.s_edge <= 0:
            raise ParamsError("s_edge must be positive")
        if self.noise_level < 0:
            raise ParamsError("noise_level must be nonnegative")
        if (n := self.edge_count) is not None and (type(n) is not int or n < 0):
            raise ParamsError("edge_count must be None or a nonnegative integer")
        if self.placement not in ("uniform", "web"):
            raise ParamsError(f"unknown placement {self.placement!r}")
        if self.slot_count() + 1 < self.site_count:
            raise ParamsError(
                f"interval holds at most {self.slot_count() + 1} separated sites,"
                f" {self.site_count} requested"
            )

    @property
    def separation(self) -> Fraction:
        return Fraction(self.H, self.K)

    @property
    def site_lo(self) -> Fraction:
        return Fraction(self.X, 10 * self.K)

    @property
    def site_hi(self) -> Fraction:
        return Fraction(2 * self.X, self.K)

    def slot_count(self) -> int:
        return int((self.site_hi - self.site_lo) / self.separation)

    def edge_primes(self) -> tuple[int, ...]:
        return primes_in_range(self.P, 2 * self.P)

    def witness_primes(self) -> tuple[int, ...]:
        return primes_in_range(self.P_prime, 2 * self.P_prime)

    def split_partition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The lower and upper halves of the edge-prime pool, ascending."""
        ps = self.edge_primes()
        half = (len(ps) + 1) // 2
        return ps[:half], ps[half:]

    def route_gate_k(self) -> int:
        return route_count_gate_max_k(self.X, self.H, 2 * self.P)

    def gates(self) -> dict:
        """Which asymptotic hypotheses hold at this scale (report only)."""
        x, h = self.X, self.H
        h_floor = exp(sqrt(log(x) * log(max(log(x), 2.0)))) if x > 2 else 0.0
        return {
            "h_range": h >= h_floor,
            "h_le_sqrt_x": h * h <= x,
            "eps_scale_ok": self.eps_edge <= Fraction(2 * self.P * self.K, h),
            "route_count_gate_max_k": self.route_gate_k(),
        }

    def to_json(self) -> dict:
        return fields_to_json(self)

    @classmethod
    def from_json(cls, doc: dict) -> "Params":
        """Params from a JSON object holding every field without a default
        and no other key, each rational field a rational's text; anything
        else is refused with ParamsError."""
        if type(doc) is not dict:
            raise ParamsError(f"params must be a JSON object, got {type(doc).__name__}")
        fields = cls.__dataclass_fields__
        if unknown := doc.keys() - fields.keys():
            raise ParamsError(f"unknown params keys {sorted(unknown)}")
        if missing := [n for n, f in fields.items() if f.default is MISSING and n not in doc]:
            raise ParamsError(f"missing params keys {missing}")
        try:
            rationals = {n: as_fraction(doc[n]) for n in cls._rationals if n in doc}
        except (ValueError, ZeroDivisionError) as exc:  # str_to_frac's
            raise ParamsError(f"unreadable params value: {type(exc).__name__}: {exc}") from exc
        return cls(**{**doc, **rationals})


@dataclass(frozen=True)
class GroundTruth:
    """The planted structure: alpha_x = a_x * carrier / q_star + T_star / x."""

    mode: str
    t_star: Fraction
    q_star: int
    carrier: int
    a_map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_star", as_fraction(self.t_star))
        if self.mode not in ("archimedean", "rational"):
            raise ParamsError(f"unknown truth mode {self.mode!r}")
        entries = [v for item in self.a_map.items() for v in item]
        if not all(type(v) is int for v in (self.q_star, self.carrier, *entries)):
            raise ParamsError("q_star, carrier and every a_map entry must be integers")
        if self.q_star < 1 or self.carrier < 1:
            raise ParamsError("q_star and carrier must be positive")
        if self.mode == "archimedean" and self.q_star != 1:
            raise ParamsError("archimedean mode requires q_star = 1")
        for idx, a in self.a_map.items():
            if not 0 <= a < self.q_star:
                raise ParamsError(f"residue a[{idx}] = {a} outside [0, {self.q_star})")

    def to_json(self) -> dict:
        """Every field but the carrier, which the params fix."""
        return {
            "mode": self.mode,
            "t_star": frac_to_str(self.t_star),
            "q_star": self.q_star,
            "a_map": {str(k): v for k, v in sorted(self.a_map.items())},
        }

    @classmethod
    def from_json(cls, doc: dict, carrier: int) -> "GroundTruth":
        return cls(
            mode=doc["mode"],
            t_star=str_to_frac(doc["t_star"]),
            q_star=doc["q_star"],
            carrier=carrier,
            a_map={int(k): v for k, v in doc["a_map"].items()},
        )


@dataclass(frozen=True)
class Instance:
    cfg: Configuration
    edges: tuple[Edge, ...]
    truth: GroundTruth | None
    params: Params

    def strip_truth(self) -> "Instance":
        return Instance(self.cfg, self.edges, None, self.params)


def _try_place(placed: list[int], x: int, lo: int, hi: int, sep: int) -> bool:
    if not lo <= x <= hi:
        return False
    pos = bisect_left(placed, x)
    if pos > 0 and x - placed[pos - 1] < sep:
        return False
    if pos < len(placed) and placed[pos] - x < sep:
        return False
    insort(placed, x)
    return True


Route = tuple[int, int, int, int]  # (pa, qa, pb, qb)


def _route_pair_candidates(
    params: Params, q_star: int, max_out: int
) -> list[tuple[Route, Route]]:
    """The max_out pairs of two-step split routes with disjoint primes and
    nearly equal ratio products, ascending by (ratio gap, first route,
    second route).

    A route (pa, qa, pb, qb) is keyed by its ratio qa*qb/(pa*pb) scaled by
    the product of the p-side primes, an exact integer that sorts like the
    ratio.  The pairs are those of each route with the 39 routes after it in
    (key, route) order.  Only cycle-consistent pairs are kept (the
    congruence multipliers around the closing loop multiply to 1 mod
    q_star), so in rational mode the planted residues verify on the closing
    edge as well.

    The search ranks groups, not routes.  By unique factorisation two routes
    share a key exactly when they use the same sets {pa, pb} and {qa, qb},
    so the routes fall into groups of four with distinct keys, each group
    contiguous in route order with members (a, c, b, d) < (a, d, b, c) <
    (b, c, a, d) < (b, d, a, c) for a < b and c < d.  A zero gap joins two
    routes of one group, which share primes, so it never qualifies.  Member
    m of group g sits at place 4g + m, so its 39 successors are all members
    of groups g+1 .. g+9 and the members m' < m of group g+10.  Every route
    of a group uses all four of its primes, and a pair's gap is the
    difference of its groups' keys, so prime-disjointness and cycle
    consistency are decided once per pair of groups.  A lazy heap yields the
    pairs of groups by ascending gap; each gap's route pairs are emitted in
    (route, route) order.
    """
    if max_out == 0:
        return []
    p1s, p2s = params.split_partition()
    scale = prod(p1s)
    groups = sorted(
        (c * d * (scale // (a * b)), a, b, c, d)
        for a, b in combinations(p1s, 2)
        for c, d in combinations(p2s, 2)
    )
    heap = [(groups[g + 1][0] - groups[g][0], g, g + 1)
            for g in range(len(groups) - 1)]
    heapify(heap)
    out: list[tuple[Route, Route]] = []
    while heap and len(out) < max_out:
        gap, batch = heap[0][0], []
        while heap and heap[0][0] == gap:
            _gap, g, h = heappop(heap)
            if h - g < 10 and h + 1 < len(groups):
                heappush(heap, (groups[h + 1][0] - groups[g][0], g, h + 1))
            # for disjoint routes the key gap is the loop's multiplier
            # difference qa*qb*pc*pd - qc*qd*pa*pb times a cofactor prime to
            # q_star (gen_instance checks), so the gap decides consistency
            if gap % q_star or not set(groups[g][1:]).isdisjoint(groups[h][1:]):
                continue
            window_end = h - g == 10
            batch.extend(
                (t1, t2)
                for m, t1 in enumerate(_group_routes(groups[g]))
                for m2, t2 in enumerate(_group_routes(groups[h]))
                if not window_end or m2 < m
            )
        batch.sort()
        out.extend(batch)
    return out[:max_out]


def _group_routes(group: tuple[int, int, int, int, int]) -> tuple[Route, ...]:
    """The four routes of a group (key, a, b, c, d), in route order."""
    _key, a, b, c, d = group
    return (a, c, b, d), (a, d, b, c), (b, c, a, d), (b, d, a, c)


def _place_sites(params: Params, rng: random.Random, q_star: int) -> list[tuple[int, int]]:
    """The ascending sites of an instance, as pairs in lowest terms.

    Every site is a grid point lo + slot*sep times a ratio prod(qs)/prod(ps)
    of split primes: the ps are distinct primes of the p-side set p1s (a
    route's two primes, a diamond's sample of two, a chain's unused ones,
    none for a plain grid point).  Over S = L*prod(p1s), L the lcm of the
    denominators of lo, sep and hi, such a site is the integer
    (lo + slot*sep)*L * prod(qs) * prod(p1s without ps), a product with no
    division, so placement decides on integers and reduces each v/S once,
    at return.
    """
    lo, hi, sep = params.site_lo, params.site_hi, params.separation
    p1s, p2s = params.split_partition()
    p1_prod = prod(p1s)
    unit = lcm(lo.denominator, sep.denominator, hi.denominator)
    scale = unit * p1_prod
    lo_u, sep_u = (v.numerator * (unit // v.denominator) for v in (lo, sep))
    lo_s, hi_s, sep_s = (v.numerator * (scale // v.denominator) for v in (lo, hi, sep))

    def site(slot: int, ps: tuple[int, ...] = (), qs: tuple[int, ...] = ()) -> int:
        return (lo_u + slot * sep_u) * prod(qs) * prod(p for p in p1s if p not in ps)

    def place(*vs: int) -> bool:
        return all(_try_place(placed, v, lo_s, hi_s, sep_s) for v in vs)

    slots = params.slot_count()
    placed: list[int] = []
    if params.placement == "web":
        placed.append(site(0))  # the hub
        s_num, s_den = params.s_edge.numerator, params.s_edge.denominator
        pairs = _route_pair_candidates(params, q_star, 4 * params.web_pair_targets)
        planted_pairs = 0
        for t1, t2 in pairs:
            if planted_pairs >= params.web_pair_targets:
                break
            pa, qa, pb, qb = t1
            pc, qc, pd, qd = t2
            z1 = site(0, (pa,), (qa,))
            y = site(0, (pa, pb), (qa, qb))
            z2 = site(0, (pc,), (qc,))
            # closing edge z2 -> y through (pd, qd) must satisfy the
            # physical threshold: |z2 * qd/pd - y| <= qd * s_edge
            if abs(z2 * qd - y * pd) * s_den > pd * qd * s_num * scale:
                continue
            snapshot = list(placed)
            if place(z1, y, z2):
                planted_pairs += 1
            else:
                placed[:] = snapshot
        for _ in range(params.web_diamonds):
            slot = rng.randrange(max(1, slots // 3))
            pa, pb = rng.sample(p1s, 2)
            qa, qb = rng.sample(p2s, 2)
            snapshot = list(placed)
            if not place(site(slot), site(slot, (pa,), (qa,)), site(slot, (pb,), (qb,)),
                         site(slot, (pa, pb), (qa, qb))):
                placed[:] = snapshot
        # a chain step takes one of the three smallest ratios q/p of unused
        # primes; q * (prod(p1s) // p) is an integer that sorts like q/p
        ratios = sorted((q * (p1_prod // p), p, q) for p in p1s for q in p2s)
        for _ in range(params.web_chains):
            # start near the interval floor so long chains fit below the roof
            slot = rng.randrange(max(1, slots // 20))
            if not place(site(slot)):
                continue
            ps: tuple[int, ...] = ()
            qs: tuple[int, ...] = ()
            for _step in range(params.web_chain_len):
                smallest = list(islice(
                    ((p, q) for _key, p, q in ratios if p not in ps and q not in qs), 3))
                if not smallest:
                    break
                p, q = smallest[rng.randrange(len(smallest))]
                if not place(site(slot, ps + (p,), qs + (q,))):
                    break
                ps, qs = ps + (p,), qs + (q,)
    need = params.site_count - len(placed)
    if need > 0:
        n_slots = slots + 1
        tries = min(n_slots, max(4 * need + 16, need))
        for slot in rng.sample(range(n_slots), tries):
            if need == 0:
                break
            if place(lo_s + slot * sep_s):
                need -= 1
        if need > 0:
            raise InfeasibleParamsError(
                f"could not place {params.site_count} separated sites"
            )
    # web placement may overshoot site_count; planted sites are never trimmed,
    # so site_count is a lower bound under placement="web"
    return [lowest_terms(v, scale) for v in placed]


def _physical_candidates(
    params: Params, xs: list[tuple[int, int]]
) -> list[tuple[int, int, int, int, tuple[int, int]]]:
    """All (i, j, p, q, slack) with j the site nearest x_i * q/p passing the
    physical threshold; ties toward the smaller site.  xs holds the sites
    as pairs, ascending (so scaling keeps its order), and the candidates
    come in (i, p, q) order, each slack a pair in lowest terms.

    The sites are scaled by the lcm D of their denominators to integers X,
    so the search and both comparisons are exact integer arithmetic: the
    nearest site minimises d = |X_j*p - X_i*q| = p*D*|x_j - x_i*q/p|, the
    slack |x_i/p - x_j/q| is d/(p*q*D), and it passes when d <= lim =
    floor(s_edge*p*q*D).  With L the product of the split primes, u =
    X_i*L/p and v = X_j*L/q are on one integer scale, |u - v| = d*L/(p*q),
    so d <= lim exactly when |u - v| <= W = floor(s_edge*L*D) for every
    (p, q).  All v are sorted once, and (i, p, q) takes the neighbour
    search (the first j with X_j*p >= X_i*q, and the one before it) only
    when a v of that q lies in [u - W, u + W]: only then can its pick pass.
    """
    p1s, p2s = params.split_partition()
    scale, ints = scaled_positions(xs)
    s_num, s_den = params.s_edge.numerator, params.s_edge.denominator
    n = len(ints)
    if n < 2:
        return []
    big, nq = prod(p1s) * prod(p2s), len(p2s)
    # key = v*nq + (index of q), so v lies in [u - W, u + W] exactly when
    # its key lies in [u*nq - W*nq, u*nq + W*nq + nq - 1]
    keys = sorted([x * (big // q) * nq + t for t, q in enumerate(p2s) for x in ints])
    width = s_num * big * scale // s_den * nq
    found = []
    for p in p1s:
        us = [x * (big // p) * nq for x in ints]
        los = list(map(bisect_left, repeat(keys), map(sub, us, repeat(width))))
        his = list(map(bisect_right, repeat(keys), map(add, us, repeat(width + nq - 1))))
        xp = [x * p for x in ints]
        for i in compress(count(), map(lt, los, his)):
            for t in sorted({key % nq for key in keys[los[i]:his[i]]}):
                q = p2s[t]
                target = ints[i] * q
                pos = bisect_left(xp, target)
                best = d_best = None
                for j in (pos - 1, pos):
                    if 0 <= j < n and j != i:
                        d = abs(xp[j] - target)
                        if best is None or d < d_best:
                            best, d_best = j, d
                if best is not None and d_best * s_den <= s_num * p * q * scale:
                    found.append((i, p, q, best, d_best))
    # p1s and p2s are ascending, so sorting on (i, p, q) is the loop order
    # of a search site by site
    found.sort()
    return [(i, j, p, q, lowest_terms(d, p * q * scale)) for i, p, q, j, d in found]


def _propagate_residues(
    n_sites: int,
    candidates: list[tuple[int, int, int, int, tuple[int, int]]],
    q_star: int,
) -> dict[int, int]:
    """Assign residues along a spanning forest of the candidate adjacency so
    that every tree edge satisfies p * a_i = q * a_j (mod q_star)."""
    adj: dict[int, list[tuple[int, int, int]]] = {i: [] for i in range(n_sites)}
    seen_pairs = set()
    for i, j, p, q, _slack in candidates:
        if (i, j) in seen_pairs:
            continue
        seen_pairs.add((i, j))
        adj[i].append((j, p, q))
        adj[j].append((i, q, p))  # traversing backwards swaps the roles
    a: dict[int, int] = {}
    for root in range(n_sites):
        if root in a:
            continue
        a[root] = 1 if q_star > 1 else 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, pu, qv in adj[u]:
                if v in a:
                    continue
                # edge u -> v labelled (pu, qv): a_v = qv^{-1} * pu * a_u
                a[v] = (pow(qv, -1, q_star) * pu * a[u]) % q_star if q_star > 1 else 0
                queue.append(v)
    return a


def gen_instance(
    params: Params,
    mode: str = "archimedean",
    t_star: Rational = 0,
    q_star: int = 1,
) -> Instance:
    """Generate a verified instance: separated sites, planted frequencies,
    and edges that pass both thresholds exactly.

    Deterministic for fixed (params, seed).  Raises InfeasibleParamsError
    when a requested edge_count cannot be met after exhausting every
    candidate (site, p, q) triple.
    """
    if mode not in ("archimedean", "rational"):
        raise ParamsError(f"unknown mode {mode!r}")
    if mode == "archimedean" and q_star != 1:
        raise ParamsError("archimedean mode requires q_star = 1")
    pool_w, pool_pq = params.witness_primes(), params.edge_primes()
    for p in pool_pq + pool_w:
        if gcd(p, q_star) != 1:
            raise ParamsError(f"q_star = {q_star} shares a factor with pool prime {p}")
    rng = random.Random(params.seed)
    xs = _place_sites(params, rng, q_star)
    candidates = _physical_candidates(params, xs)
    if mode == "rational":
        a_map = _propagate_residues(len(xs), candidates, q_star)
        a_map = {i: v for i, v in a_map.items() if v}
    else:
        a_map = {}
    truth = GroundTruth(
        mode=mode,
        t_star=as_fraction(t_star),
        q_star=q_star,
        carrier=prod(pool_w),
        a_map=a_map,
    )
    # alpha = a*carrier/q* + t*/x on integers: N/D over D = q* * dt * nx for
    # x = nx/dx, t* = nt/dt, and noise r/10^6 * (un/ud) joins over D * ud
    nt, dt = truth.t_star.numerator, truth.t_star.denominator
    noise_unit = params.noise_level * params.eps_edge
    un, ud = noise_unit.numerator, 10**6 * noise_unit.denominator
    sites = []
    for i, (nx, dx) in enumerate(xs):
        num = a_map.get(i, 0) * truth.carrier * dt * nx + nt * dx * q_star
        den = q_star * dt * nx
        if un:
            num, den = num * ud + rng.randint(-(10**6), 10**6) * un * den, den * ud
        sites.append(Site((nx, dx), lowest_terms(num, den)))
    cfg = Configuration(tuple(sites), params.separation, *params.split_partition())
    order = list(range(len(candidates)))
    if params.edge_count is not None:
        rng.shuffle(order)
    witness_of = witness_rule(pool_w, params.eps_edge)
    edges: list[Edge] = []
    for idx in order:
        if params.edge_count is not None and len(edges) >= params.edge_count:
            break
        i, j, p, q, slack = candidates[idx]
        witness = witness_of(*edge_relation(cfg.sites[i], cfg.sites[j], p, q))
        if not witness:
            continue
        edges.append(Edge(i, j, p, q, witness, slack))
    if params.edge_count is not None and len(edges) < params.edge_count:
        raise InfeasibleParamsError(
            f"only {len(edges)} edges verify; {params.edge_count} requested"
        )
    edges.sort(key=lambda e: (e.i, e.j, e.p, e.q))
    return Instance(cfg=cfg, edges=tuple(edges), truth=truth, params=params)


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "pass": self.passed,
        }


def _decide_edges(params: Params, cfg: Configuration, pool_w: tuple[int, ...], rows):
    """Each row [i, j, p, q] as the Edge of `cfg` under `params` (witness
    pool `pool_w`) that `gen_instance` derives, in one pass over per-site
    integer arrays, for the loader and the audit.  A row that fails a check
    raises InstanceError naming the first one, after the rows before it were
    yielded: not four integers, not ascending, a site index out of range,
    primes not split-oriented, a slack beyond s_edge, no witness prime.  The slack
    |x_i/p - x_j/q| is d/(p*q*D) for d = |X_i*q - X_j*p| over the positions
    X = x*D, kept in lowest terms; the witness set is `witness_rule` on
    p*alpha_i - q*alpha_j."""
    xs, scale, p1s, p2s = cfg.positions, cfg.scale, cfg.split_p1, cfg.split_p2
    nums, dens = [s.alpha_pair[0] for s in cfg.sites], [s.alpha_pair[1] for s in cfg.sites]
    s_num, s_den = params.s_edge.numerator, params.s_edge.denominator
    witness_of = witness_rule(pool_w, params.eps_edge)
    n_sites, prev = len(xs), None
    for n, row in enumerate(rows):
        if type(row) is not list or len(row) != 4 or not (
                int is type(row[0]) is type(row[1]) is type(row[2]) is type(row[3])):
            raise InstanceError(f"edge {n} is not four integers [i, j, p, q]")
        if n and prev >= row:
            raise InstanceError(f"edges do not ascend at edge {n}")
        i, j, p, q = prev = row
        if not (0 <= i < n_sites and 0 <= j < n_sites):
            fault = "site index out of range"
        elif p not in p1s or q not in p2s:
            fault = "not split-oriented"
        elif (d := abs(xs[i] * q - xs[j] * p)) * s_den > s_num * (pq := p * q * scale):
            fault = f"physical slack {Fraction(d, pq)} exceeds s_edge"
        elif not (witness := witness_of(p * nums[i] * dens[j] - q * nums[j] * dens[i],
                                        dens[i] * dens[j])):
            fault = "no witness prime"
        else:
            g = gcd(d, pq)
            yield Edge(i, j, p, q, witness, (d // g, pq // g))
            continue
        raise InstanceError(f"edge ({i},{j},{p},{q}): {fault}")


def _planted_within(truth: GroundTruth, sites, bound: Fraction) -> bool:
    """Whether every site's alpha is within `bound` of its planted alpha,
    decided on integers: with alpha = na/da, x = nx/dx, t* = nt/dt and
    residue a, alpha - (a*carrier/q* + t*/x) is N/D over the one
    denominator D = da*q**dt*nx (nx > 0), so the test is |N| * b_den <=
    b_num * D."""
    q, carrier = truth.q_star, truth.carrier
    nt, dt = truth.t_star.numerator, truth.t_star.denominator
    b_num, b_den = bound.numerator, bound.denominator
    for i, site in enumerate(sites):
        (na, da), (nx, dx) = site.alpha_pair, site.x_pair
        a = truth.a_map.get(i, 0)
        dev = (na * q - a * carrier * da) * dt * nx - nt * dx * da * q
        if abs(dev) * b_den > b_num * da * q * dt * nx:
            return False
    return True


def audit_instance(inst: Instance) -> AuditReport:
    """Re-verify every instance invariant with exact arithmetic.  The edges
    go through the loader's pass, `_decide_edges`, as rows [i, j, p, q], and
    each derived slack and witness set is compared with the stored one."""
    params = inst.params
    cfg = inst.cfg
    checks: list[AuditCheck] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(AuditCheck(name, ok, detail))

    scale, xs = cfg.scale, cfg.positions
    check("separation", close_pair(scale, sorted(xs), params.separation) is None)
    lo, hi = params.site_lo, params.site_hi
    check(
        "sites_in_interval",
        all(lo.numerator * scale <= x * lo.denominator
            and x * hi.denominator <= hi.numerator * scale for x in xs),
    )
    pool_pq, pool_w = set(params.edge_primes()), params.witness_primes()
    check(
        "partition",
        cfg.split_p1.isdisjoint(cfg.split_p2)
        and cfg.split_p1 | cfg.split_p2 <= pool_pq,
    )
    bad_edge, rows = "", [[e.i, e.j, e.p, e.q] for e in inst.edges]
    try:
        for e, got in zip(inst.edges, _decide_edges(params, cfg, pool_w, rows)):
            if got != e:
                slack_ok = got.slack_pair == e.slack_pair
                what = "witness mismatch" if slack_ok else "stored slack is not exact"
                bad_edge = f"edge ({e.i},{e.j},{e.p},{e.q}): {what}"
                break
    except InstanceError as exc:
        bad_edge = str(exc)
    check("edges", not bad_edge, bad_edge)
    if inst.truth is not None:
        truth = inst.truth
        check(
            "coprimality",
            all(gcd(p, truth.q_star) == 1 for p in pool_pq | set(pool_w)),
        )
        check(
            "residue_range",
            all(0 <= a < truth.q_star for a in truth.a_map.values()),
        )
        check("planted_consistency", _planted_within(
            truth, cfg.sites, params.noise_level * params.eps_edge))
    return AuditReport(tuple(checks))


def instance_to_json(inst: Instance) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "params": inst.params.to_json(),
        "truth": inst.truth.to_json() if inst.truth else None,
        "sites": [
            {"x": pair_to_str(s.x_pair), "alpha": pair_to_str(s.alpha_pair)}
            for s in inst.cfg.sites
        ],
        "edges": [[e.i, e.j, e.p, e.q] for e in inst.edges],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _pair(text: str) -> tuple[int, int]:
    """The pair of a file's "num/den" as `pair_to_str` writes it: the
    integers print back to the text, den > 0 and gcd(num, den) = 1."""
    num, den = text.split("/")
    n, d = int(num), int(den)
    if str(n) != num or str(d) != den or d <= 0 or gcd(n, d) != 1:
        raise InstanceError(f"{text!r} is not a canonical num/den in lowest terms")
    return n, d


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key that `json.loads` sees twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _v in pairs]
        raise InstanceError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def instance_from_json(text: str) -> Instance:
    """Read an instance in the one form `instance_to_json` writes, up to
    whitespace and key order (the document is canonical: no key twice).
    Each site rational is parsed once into a pair (`_pair`), each Site, Edge
    and Configuration is built once, and params and truth are decided by
    writing them back; the split, the carrier and every edge's slack and
    witness set are derived as `gen_instance` decides them.  InstanceError
    names what no generated instance holds: not JSON, a duplicate key,
    another schema, a missing key, a top-level or site key it does not
    write, a wrong type (a bool or float for an integer too, a truth that
    is neither null nor an object, sites or edges not a list), a rational
    not written as `frac_to_str` writes it (a zero or negative denominator
    too), sites not ascending in x or closer than the separation, an a_map
    key not a site index in decimal, edges not ascending, or an edge that
    is not four integers [i, j, p, q] or that `_decide_edges` refuses."""
    try:
        return _instance_from_doc(json.loads(text, object_pairs_hook=_unique_keys))
    except InstanceError:
        raise
    except MALFORMED as exc:
        raise InstanceError(
            f"malformed instance file: {type(exc).__name__}: {exc}") from exc


def _instance_from_doc(doc: dict) -> Instance:
    if doc["schema"] != SCHEMA_VERSION:
        raise InstanceError(f"unsupported schema {doc['schema']!r}")
    if unknown := doc.keys() - {"schema", "params", "truth", "sites", "edges"}:
        raise InstanceError(f"unknown top-level keys {sorted(unknown)}")
    if type(doc["sites"]) is not list or type(doc["edges"]) is not list:
        raise InstanceError("sites and edges must be lists")
    params = Params.from_json(doc["params"])
    pool_w = params.witness_primes()
    truth = None if doc["truth"] is None else GroundTruth.from_json(doc["truth"], prod(pool_w))
    # decided by writing them back: "+5/1", "2/4" or an a_map key "01" differ
    if params.to_json() != doc["params"] or truth and truth.to_json() != doc["truth"]:
        raise InstanceError("params or truth not in the form instance_to_json writes")
    sites = []
    for n, s in enumerate(doc["sites"]):
        sites.append(Site(_pair(s["x"]), _pair(s["alpha"])))
        # both keys were read, so any third is one the writer never writes
        if len(s) != 2:
            extra = sorted(s.keys() - {"x", "alpha"})
            raise InstanceError(f"site {n} has unknown keys {extra}")
        # ascending, so site index order is x order (census rows rely on it);
        # the denominators are positive, so cross-multiplying decides it
        (n1, d1), (n2, d2) = sites[n - 1].x_pair if n else (0, 1), sites[n].x_pair
        if n1 * d2 >= n2 * d1:
            raise InstanceError(f"sites do not ascend in x at site {n}")
    cfg = Configuration(tuple(sites), params.separation, *params.split_partition())
    if truth is not None and not all(0 <= i < len(sites) for i in truth.a_map):
        raise InstanceError("an a_map key is not a site index")
    edges = tuple(_decide_edges(params, cfg, pool_w, doc["edges"]))
    return Instance(cfg=cfg, edges=edges, truth=truth, params=params)
