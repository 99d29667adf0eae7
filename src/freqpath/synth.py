"""Deterministic, seeded generator of synthetic configurations with a
planted global frequency, plus the exact re-verification audit.

Frequencies are planted as  alpha_x = a_x * W / q* + T* / x  where W is the
product of the witness prime pool: with that carrier, a congruence
p*a_i = q*a_j (mod q*) makes the rational part of p*alpha_i - q*alpha_j an
integer multiple of every witness prime at once, so edge consistency is
decided by the archimedean part alone.  Every emitted edge is verified
against both thresholds exactly; nothing about an instance is sampled
without being re-checked.
"""
from __future__ import annotations

import json
import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import exp, gcd, lcm, log, sqrt

from .pathgraph import (
    Configuration,
    Edge,
    Site,
    edge_witness,
    route_count_gate_max_k,
)
from .primes import primes_in_range, prod
from .torus import (
    MALFORMED,
    Rational,
    as_fraction,
    fields_to_json,
    frac_to_str,
    str_to_frac,
)

SCHEMA_VERSION = 1


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
    edge_count (None = keep every verifying candidate), witness_density
    (minimum fraction of the witness pool an edge must carry),
    noise_level (bounded rational jitter in units of eps_edge), placement
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
    witness_density: Fraction = Fraction(0)
    noise_level: Fraction = Fraction(0)
    d_min: int = 1
    k_max: int = 4
    B_ratio: Fraction = Fraction(1)
    c_cal: Fraction = Fraction(1)
    seed: int = 0
    placement: str = "uniform"
    web_pair_targets: int = 0
    web_diamonds: int = 0
    web_chains: int = 0
    web_chain_len: int = 0

    def __post_init__(self) -> None:
        for name in ("eps_edge", "s_edge", "witness_density", "noise_level",
                     "B_ratio", "c_cal"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        for name in ("X", "H", "K", "P", "P_prime", "site_count"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ParamsError(f"{name} must be a positive integer, got {v!r}")
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
        if not 0 <= self.witness_density <= 1:
            raise ParamsError("witness_density must lie in [0, 1]")
        if self.noise_level < 0:
            raise ParamsError("noise_level must be nonnegative")
        if self.d_min < 0 or self.k_max < 1:
            raise ParamsError("need d_min >= 0 and k_max >= 1")
        if self.B_ratio <= 0 or self.c_cal <= 0:
            raise ParamsError("B_ratio and c_cal must be positive")
        if self.edge_count is not None and self.edge_count < 0:
            raise ParamsError("edge_count must be None or nonnegative")
        if self.placement not in ("uniform", "web"):
            raise ParamsError(f"unknown placement {self.placement!r}")
        if not self.edge_primes():
            raise ParamsError(f"no primes in [{self.P}, {2 * self.P}]")
        if not self.witness_primes():
            raise ParamsError(f"no primes in [{self.P_prime}, {2 * self.P_prime}]")
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
        return tuple(primes_in_range(self.P, 2 * self.P))

    def witness_primes(self) -> tuple[int, ...]:
        return tuple(primes_in_range(self.P_prime, 2 * self.P_prime))

    def witness_carrier(self) -> int:
        return prod(self.witness_primes())

    def split_partition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The lower and upper halves of the edge-prime pool, ascending."""
        ps = self.edge_primes()
        half = (len(ps) + 1) // 2
        return ps[:half], ps[half:]

    def min_witness(self) -> int:
        pool = len(self.witness_primes())
        want = self.witness_density * pool
        return max(1, -(-want.numerator // want.denominator))

    def route_gate_k(self) -> int:
        return route_count_gate_max_k(self.X, self.H, 2 * self.P, self.B_ratio)

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
        kwargs = dict(doc)
        for name, fld in cls.__dataclass_fields__.items():
            if name in kwargs and fld.type == "Fraction" and isinstance(
                kwargs[name], str
            ):
                kwargs[name] = str_to_frac(kwargs[name])
        return cls(**kwargs)


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
        if self.q_star < 1 or self.carrier < 1:
            raise ParamsError("q_star and carrier must be positive")
        if self.mode == "archimedean" and self.q_star != 1:
            raise ParamsError("archimedean mode requires q_star = 1")
        for idx, a in self.a_map.items():
            if not 0 <= a < self.q_star:
                raise ParamsError(f"residue a[{idx}] = {a} outside [0, {self.q_star})")

    def planted_alpha(self, site_index: int, x: Fraction) -> Fraction:
        a = self.a_map.get(site_index, 0)
        return Fraction(a * self.carrier, self.q_star) + self.t_star / x

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "t_star": frac_to_str(self.t_star),
            "q_star": self.q_star,
            "carrier": self.carrier,
            "a_map": {str(k): v for k, v in sorted(self.a_map.items())},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GroundTruth":
        return cls(
            mode=doc["mode"],
            t_star=str_to_frac(doc["t_star"]),
            q_star=doc["q_star"],
            carrier=doc["carrier"],
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


def _try_place(placed: list[Fraction], x: Fraction, lo, hi, sep) -> bool:
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


def _place_sites(params: Params, rng: random.Random, q_star: int) -> list[Fraction]:
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
            # closing edge z2 -> y through (pd, qd) must satisfy the
            # physical threshold: |z2 * qd/pd - y| <= qd * s_edge
            if abs(z2 * Fraction(qd, pd) - y) > qd * params.s_edge:
                continue
            snapshot = list(placed)
            if all(_try_place(placed, v, lo, hi, sep) for v in (z1, y, z2)):
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
            if not all(_try_place(placed, v, lo, hi, sep) for v in (base, z1, z2, y)):
                placed[:] = snapshot
        for _ in range(params.web_chains):
            # start near the interval floor so long chains fit below the roof
            start_slot = rng.randrange(max(1, params.slot_count() // 20))
            cur = lo + start_slot * sep
            if not _try_place(placed, cur, lo, hi, sep):
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
                if not _try_place(placed, nxt, lo, hi, sep):
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
            if _try_place(placed, lo + slot * sep, lo, hi, sep):
                need -= 1
        if need > 0:
            raise InfeasibleParamsError(
                f"could not place {params.site_count} separated sites"
            )
    # web placement may overshoot site_count; planted sites are never trimmed,
    # so site_count is a lower bound under placement="web"
    return placed


def _physical_candidates(
    params: Params, xs: list[Fraction]
) -> list[tuple[int, int, int, int, Fraction]]:
    """All (i, j, p, q, slack) with j the site nearest x_i * q/p passing the
    physical threshold; ties toward the smaller site.  xs is ascending.

    The sites are scaled by the lcm D of their denominators to integers X,
    so the search and both comparisons are exact integer arithmetic: the
    nearest site minimises d = |X_j*p - X_i*q| = p*D*|x_j - x_i*q/p|, and
    the slack |x_i/p - x_j/q| is d/(p*q*D)."""
    p1s, p2s = params.split_partition()
    scale = lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (scale // x.denominator) for x in xs]
    s_num, s_den = params.s_edge.numerator, params.s_edge.denominator
    n = len(ints)
    out = []
    for i, xi in enumerate(ints):
        for p in p1s:
            for q in p2s:
                xq = xi * q
                # x_j >= x_i*q/p  iff  X_j >= ceil(X_i*q/p), X_j being integers
                pos = bisect_left(ints, -(-xq // p))
                best = d_best = None
                for j in (pos - 1, pos):
                    if 0 <= j < n and j != i:
                        d = abs(ints[j] * p - xq)
                        if best is None or d < d_best:
                            best, d_best = j, d
                if best is None:
                    continue
                pq_scale = p * q * scale
                if d_best * s_den <= s_num * pq_scale:
                    out.append((i, best, p, q, Fraction(d_best, pq_scale)))
    return out


def _propagate_residues(
    n_sites: int,
    candidates: list[tuple[int, int, int, int, Fraction]],
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
    if mode == "archimedean":
        q_star = 1
    elif mode != "rational":
        raise ParamsError(f"unknown mode {mode!r}")
    pool_w = params.witness_primes()
    pool_pq = params.edge_primes()
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
        carrier=params.witness_carrier(),
        a_map=a_map,
    )
    noise_unit = params.noise_level * params.eps_edge
    alphas = []
    for i, x in enumerate(xs):
        alpha = truth.planted_alpha(i, x)
        if noise_unit:
            alpha += Fraction(rng.randint(-(10**6), 10**6), 10**6) * noise_unit
        alphas.append(alpha)
    p1, p2 = params.split_partition()
    cfg = Configuration(
        sites=tuple(Site(x, a) for x, a in zip(xs, alphas)),
        separation=params.separation,
        split_p1=p1,
        split_p2=p2,
    )
    order = list(range(len(candidates)))
    if params.edge_count is not None:
        rng.shuffle(order)
    min_w, eps = params.min_witness(), params.eps_edge
    edges: list[Edge] = []
    for idx in order:
        if params.edge_count is not None and len(edges) >= params.edge_count:
            break
        i, j, p, q, slack = candidates[idx]
        witness = edge_witness(cfg.sites[i], cfg.sites[j], p, q, pool_w, eps)
        if len(witness) < min_w:
            continue
        edges.append(Edge(i, j, p, q, witness, slack))
    if params.edge_count is not None and len(edges) < params.edge_count:
        raise InfeasibleParamsError(
            f"only {len(edges)} edges verify; {params.edge_count} requested"
        )
    if params.edge_count is None:
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


def _slack_is_exact(a: Site, b: Site, p: int, q: int, slack: Fraction) -> bool:
    """Whether slack = |x_a/p - x_b/q|, decided on integers: with x_a = n1/d1,
    x_b = n2/d2 and slack = n/m it holds iff |n1*d2*q - n2*d1*p| * m equals
    n * d1*d2*p*q, all denominators being positive."""
    n1, d1 = a.x.numerator, a.x.denominator
    n2, d2 = b.x.numerator, b.x.denominator
    return (abs(n1 * d2 * q - n2 * d1 * p) * slack.denominator
            == slack.numerator * d1 * d2 * p * q)


def audit_instance(inst: Instance) -> AuditReport:
    """Re-verify every instance invariant with exact arithmetic."""
    params = inst.params
    cfg = inst.cfg
    checks: list[AuditCheck] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(AuditCheck(name, ok, detail))

    xs = sorted(s.x for s in cfg.sites)
    sep_ok = all(b - a >= params.separation for a, b in zip(xs, xs[1:]))
    check("separation", sep_ok)
    check(
        "sites_in_interval",
        all(params.site_lo <= x <= params.site_hi for x in xs),
    )
    pool_pq = set(params.edge_primes())
    check(
        "partition",
        cfg.split_p1.isdisjoint(cfg.split_p2)
        and cfg.split_p1 | cfg.split_p2 <= pool_pq,
    )
    pool_w = params.witness_primes()
    min_w = params.min_witness()
    bad_edge = ""
    for e in inst.edges:
        if not (0 <= e.i < len(cfg.sites) and 0 <= e.j < len(cfg.sites)):
            bad_edge = f"edge ({e.i},{e.j}) site index out of range"
            break
        if e.p not in cfg.split_p1 or e.q not in cfg.split_p2:
            bad_edge = f"edge ({e.i},{e.j},{e.p},{e.q}) not split-oriented"
            break
        step = (cfg.sites[e.i], cfg.sites[e.j], e.p, e.q)
        if not _slack_is_exact(*step, e.slack):
            bad_edge = f"edge ({e.i},{e.j},{e.p},{e.q}) stored slack is not exact"
            break
        if e.slack > params.s_edge:
            bad_edge = f"edge ({e.i},{e.j},{e.p},{e.q}) physical slack {e.slack}"
            break
        witness = edge_witness(*step, pool_w, params.eps_edge)
        if witness != e.witness:
            bad_edge = f"edge ({e.i},{e.j},{e.p},{e.q}) witness mismatch"
            break
        if len(witness) < min_w:
            bad_edge = f"edge ({e.i},{e.j},{e.p},{e.q}) witness below density"
            break
    check("edges", not bad_edge, bad_edge)
    if inst.truth is not None:
        truth = inst.truth
        check(
            "coprimality",
            all(gcd(p, truth.q_star) == 1 for p in list(pool_pq) + list(pool_w)),
        )
        check(
            "residue_range",
            all(0 <= a < truth.q_star for a in truth.a_map.values()),
        )
        bound = params.noise_level * params.eps_edge
        planted_ok = True
        for i, site in enumerate(cfg.sites):
            ideal = truth.planted_alpha(i, site.x)
            if abs(site.alpha - ideal) > bound:
                planted_ok = False
                break
        check("planted_consistency", planted_ok)
    return AuditReport(tuple(checks))


def instance_to_json(inst: Instance) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "params": inst.params.to_json(),
        "truth": inst.truth.to_json() if inst.truth else None,
        "sites": [
            {"x": frac_to_str(s.x), "alpha": frac_to_str(s.alpha)}
            for s in inst.cfg.sites
        ],
        "edges": [
            {
                "i": e.i,
                "j": e.j,
                "p": e.p,
                "q": e.q,
                "witness": sorted(e.witness),
                "slack": frac_to_str(e.slack),
            }
            for e in inst.edges
        ],
        "partition": [sorted(inst.cfg.split_p1), sorted(inst.cfg.split_p2)],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def instance_from_json(text: str) -> Instance:
    """Read an instance; raise InstanceError naming what no generated instance
    holds: text that is not JSON, another schema, a missing key, a value of
    the wrong type, a rational that is not "num/den", a partition other than
    the params' split, or an edge with a site index out of range, primes not
    split-oriented, a witness outside the witness pool or an inexact slack."""
    try:
        return _instance_from_doc(json.loads(text))
    except InstanceError:
        raise
    except MALFORMED as exc:
        raise InstanceError(
            f"malformed instance file: {type(exc).__name__}: {exc}") from exc


def _instance_from_doc(doc: dict) -> Instance:
    if doc["schema"] != SCHEMA_VERSION:
        raise InstanceError(f"unsupported schema {doc['schema']!r}")
    params = Params.from_json(doc["params"])
    truth = GroundTruth.from_json(doc["truth"]) if doc["truth"] else None
    split = params.split_partition()
    if [set(half) for half in doc["partition"]] != [set(half) for half in split]:
        raise InstanceError(f"partition is not the params' split {list(split)}")
    cfg = Configuration(
        sites=tuple(
            Site(str_to_frac(s["x"]), str_to_frac(s["alpha"])) for s in doc["sites"]
        ),
        separation=params.separation,
        split_p1=split[0],
        split_p2=split[1],
    )
    edges = tuple(
        Edge(
            e["i"],
            e["j"],
            e["p"],
            e["q"],
            frozenset(e["witness"]),
            str_to_frac(e["slack"]),
        )
        for e in doc["edges"]
    )
    sites, pool_w = range(len(cfg.sites)), set(params.witness_primes())
    for e in edges:
        where = f"edge ({e.i},{e.j},{e.p},{e.q})"
        if not all(type(v) is int for v in (e.i, e.j, e.p, e.q, *e.witness)):
            raise InstanceError(f"{where}: a non-integer index, prime or witness")
        if e.i not in sites or e.j not in sites:
            raise InstanceError(f"{where}: site index out of range")
        if e.p not in cfg.split_p1 or e.q not in cfg.split_p2:
            raise InstanceError(f"{where}: not split-oriented")
        if not e.witness <= pool_w:
            raise InstanceError(f"{where}: witness outside the pool {sorted(pool_w)}")
        if not _slack_is_exact(cfg.sites[e.i], cfg.sites[e.j], e.p, e.q, e.slack):
            raise InstanceError(f"{where}: stored slack is not exact")
    return Instance(cfg=cfg, edges=edges, truth=truth, params=params)
