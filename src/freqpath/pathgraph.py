"""Configurations, prime-labeled edges, path algebra and combinatorial checks.

A configuration is a set of separated sites (x, alpha); an edge relates two
sites through a prime pair (p, q) with |x_i/p - x_j/q| below a physical
threshold and p*alpha_i - q*alpha_j small modulo each prime in its witness
set.  Paths chain edges under a global all-distinct-primes rule and induce
pre-paths, so every layered bound becomes a computable certificate with the
implicit constants replaced by exact telescoped sums.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, log

from .primes import primes_in_range, prod
from .pyramid import PrePath, Pyramid, predicted_gap
from .torus import (
    Modulus,
    Rational,
    as_fraction,
    combine_moduli,
    frac_to_str,
    norm_mod,
    reduce_mod,
    torus_norm,
)


class PathError(ValueError):
    """Structurally invalid path data."""


class EndpointMismatch(PathError):
    pass


class PrimeCollision(PathError):
    pass


class ResourceBudgetError(RuntimeError):
    """Enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class Site:
    """An interval anchor: left endpoint x > 0 and a real frequency
    representative alpha (reducible mod any modulus)."""

    x: Fraction
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_fraction(self.x))
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.x <= 0:
            raise PathError(f"site position must be positive, got {self.x}")


@dataclass(frozen=True)
class Configuration:
    """Separated sites plus a split partition of the edge-prime pool.

    Sites must be pairwise at distance >= separation; the two prime sets
    must be disjoint.
    """

    sites: tuple[Site, ...]
    separation: Fraction
    split_p1: frozenset[int]
    split_p2: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "separation", as_fraction(self.separation))
        object.__setattr__(self, "split_p1", frozenset(self.split_p1))
        object.__setattr__(self, "split_p2", frozenset(self.split_p2))
        if self.split_p1 & self.split_p2:
            raise PathError("split prime sets must be disjoint")
        xs = sorted(s.x for s in self.sites)
        for a, b in zip(xs, xs[1:]):
            if b - a < self.separation:
                raise PathError(
                    f"sites {a} and {b} are closer than the separation "
                    f"{self.separation}"
                )


@dataclass(frozen=True)
class Edge:
    """Quadruple relation between sites i and j through primes (p, q).

    slack is the exact physical deviation |x_i/p - x_j/q|; witness is the
    nonempty set of moduli under which the frequency relation holds.  The
    reverse orientation (j, i, q, p) carries identical slack and witness.
    """

    i: int
    j: int
    p: int
    q: int
    witness: frozenset[int]
    slack: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "witness", frozenset(self.witness))
        object.__setattr__(self, "slack", as_fraction(self.slack))
        if self.p == self.q:
            raise PathError("edge primes must differ")
        if self.i == self.j:
            raise PathError("an edge needs two distinct sites")
        if not self.witness:
            raise PathError("edge witness set must be nonempty")


def edge_slack(a: Site, b: Site, p: int, q: int) -> Fraction:
    """The physical deviation |x_a/p - x_b/q| of a step from a to b."""
    return abs(a.x / p - b.x / q)


def edge_witness(
    a: Site, b: Site, p: int, q: int, witness_pool: tuple[int, ...], eps_edge: Fraction
) -> frozenset[int]:
    """Exact witness computation: primes w in the pool for which
    ||p*alpha_a - q*alpha_b||_w <= eps_edge."""
    rel = p * a.alpha - q * b.alpha
    return frozenset(w for w in witness_pool if norm_mod(rel, w) <= eps_edge)


@dataclass(frozen=True)
class Path:
    """A walk through the configuration with globally distinct primes.

    Step t relates sites[t] to sites[t+1] through (p_t, q_t) with witness
    set step_witness[t]; site_indices, when known, are the sites' positions
    in the configuration.  The per-step deviations and the path modulus (the
    product of the common witness primes, possibly trivial) are derived from
    these fields.
    """

    sites: tuple[Site, ...]
    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    step_witness: tuple[frozenset[int], ...]
    site_indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        k = self.k
        if k < 1:
            raise PathError("a path has at least one step")
        if not (
            len(self.sites) == k + 1
            and len(self.q_primes) == len(self.step_witness) == k
        ):
            raise PathError("inconsistent path tuple lengths")
        allp = self.p_primes + self.q_primes
        if len(set(allp)) != 2 * k:
            raise PrimeCollision(f"path primes must all be distinct: {allp}")

    @property
    def k(self) -> int:
        return len(self.p_primes)

    @property
    def initial(self) -> Site:
        return self.sites[0]

    @property
    def end(self) -> Site:
        return self.sites[-1]

    def steps(self):
        """(site, next site, p, q) for each step, in order."""
        return zip(self.sites, self.sites[1:], self.p_primes, self.q_primes)

    @cached_property
    def step_edge_slack(self) -> tuple[Fraction, ...]:
        """The symmetric per-step deviations |x_t/p_t - x_{t+1}/q_t|."""
        return tuple(edge_slack(*step) for step in self.steps())

    @property
    def common_witness(self) -> frozenset[int]:
        out = self.step_witness[0]
        for w in self.step_witness[1:]:
            out &= w
        return out

    @property
    def modulus(self) -> Modulus:
        common = tuple(sorted(self.common_witness))
        return Modulus(prod(common), common)


def build_path(cfg: Configuration, edges: list[Edge] | tuple[Edge, ...]) -> Path:
    """Assemble a Path from consecutive forward-oriented edges."""
    if not edges:
        raise PathError("empty edge sequence")
    idxs = [edges[0].i]
    for e in edges:
        if e.i != idxs[-1]:
            raise EndpointMismatch("edges do not chain")
        idxs.append(e.j)
    return Path(
        sites=tuple(cfg.sites[i] for i in idxs),
        p_primes=tuple(e.p for e in edges),
        q_primes=tuple(e.q for e in edges),
        step_witness=tuple(e.witness for e in edges),
        site_indices=tuple(idxs),
    )


def validate_path_modulus(path: Path, modulus: Modulus, eps_edge: Fraction) -> None:
    """Check each step relation against the combined modulus, one coprime
    combination at a time."""
    factors = modulus.factors
    if factors is None:
        raise PathError("modulus validation needs the prime factor list")
    for t, (a, b, p, q) in enumerate(path.steps()):
        rel = p * a.alpha - q * b.alpha
        if not factors:
            continue
        acc = factors[0]
        if norm_mod(rel, acc) >= eps_edge:
            raise PathError(f"step {t + 1} relation fails mod {acc}")
        for w in factors[1:]:
            if not combine_moduli(rel, acc, w, eps_edge):
                raise PathError(f"step {t + 1} relation fails mod {acc * w}")
            acc *= w


def invert_path(path: Path) -> Path:
    """Endpoint reversal: primes become (q_k..q_1, p_k..p_1).  An involution."""
    return Path(
        sites=tuple(reversed(path.sites)),
        p_primes=tuple(reversed(path.q_primes)),
        q_primes=tuple(reversed(path.p_primes)),
        step_witness=tuple(reversed(path.step_witness)),
        site_indices=(
            tuple(reversed(path.site_indices)) if path.site_indices else None
        ),
    )


def concat_paths(a: Path, b: Path) -> Path:
    """Join two paths sharing a middle endpoint; prime sets must be disjoint
    to preserve the global distinctness invariant."""
    if a.end != b.initial:
        raise EndpointMismatch("end of the first path is not the start of the second")
    sa = set(a.p_primes + a.q_primes)
    sb = set(b.p_primes + b.q_primes)
    if sa & sb:
        raise PrimeCollision(f"paths share primes {sorted(sa & sb)}")
    return Path(
        sites=a.sites + b.sites[1:],
        p_primes=a.p_primes + b.p_primes,
        q_primes=a.q_primes + b.q_primes,
        step_witness=a.step_witness + b.step_witness,
        site_indices=(
            a.site_indices + b.site_indices[1:]
            if a.site_indices and b.site_indices
            else None
        ),
    )


def path_prepath(
    path: Path, eps: Rational, modulus: Modulus | None = None
) -> PrePath:
    """The pre-path a path induces modulo `modulus` (default: the path's own).

    The j-th reference anchor is taken to be exactly p_j * alpha_j, so the
    p-side hypothesis is exact and one uniform tolerance serves both
    inequalities.
    """
    eps = as_fraction(eps)
    q = modulus if modulus is not None else path.modulus
    tops = tuple(reduce_mod(s.alpha, q) for s in path.sites)
    mids = tuple(
        reduce_mod(path.p_primes[t] * path.sites[t].alpha, q) for t in range(path.k)
    )
    return PrePath(
        modulus=q,
        top_anchors=tops,
        mid_anchors=mids,
        p_primes=path.p_primes,
        q_primes=path.q_primes,
        eps=(eps,) * path.k,
        eps_prime=(eps,) * path.k,
    )


def ratio_product(
    p_primes: tuple[int, ...], q_primes: tuple[int, ...], m: int
) -> Fraction:
    """prod_{i<=m} q_i / p_i as an exact rational."""
    return Fraction(prod(q_primes[:m]), prod(p_primes[:m]))


@dataclass(frozen=True)
class RatioDriftCert:
    m: int
    ratio: Fraction
    drift: Fraction
    bound: Fraction

    @property
    def passed(self) -> bool:
        return self.drift <= self.bound

    def to_row(self) -> dict:
        return {
            "m": self.m,
            "ratio": frac_to_str(self.ratio),
            "drift": frac_to_str(self.drift),
            "bound": frac_to_str(self.bound),
            "pass": self.passed,
        }


def ratio_drift_certificate(path: Path, m: int) -> RatioDriftCert:
    """Telescoped physical-drift certificate after m steps.

    drift = |x_1 * prod_{i<=m} q_i/p_i  -  x_{m+1}| and the bound is the
    exact telescoping sum  sum_t s_t * prod_{i=t+1..m} q_i/p_i  with s_t =
    q_t times the t-th edge slack, |x_t * q_t/p_t - x_{t+1}|, so drift <=
    bound holds with no hidden constants.
    """
    if not 1 <= m <= path.k:
        raise IndexError(f"m = {m} out of range 1..{path.k}")
    ratio = ratio_product(path.p_primes, path.q_primes, m)
    drift = abs(path.sites[0].x * ratio - path.sites[m].x)
    slack = path.step_edge_slack
    bound = Fraction(0)
    for t in range(1, m + 1):
        tail = Fraction(prod(path.q_primes[t:m]), prod(path.p_primes[t:m]))
        bound += path.q_primes[t - 1] * slack[t - 1] * tail
    return RatioDriftCert(m, ratio, drift, bound)


@dataclass(frozen=True)
class AnchorCert:
    j: int
    m: int
    actual: Fraction
    bound: Fraction

    @property
    def passed(self) -> bool:
        return self.actual <= self.bound

    def to_row(self) -> dict:
        return {
            "j": self.j,
            "m": self.m,
            "actual": frac_to_str(self.actual),
            "bound": frac_to_str(self.bound),
            "pass": self.passed,
        }


def _check_pyramid_matches(path: Path, py: Pyramid) -> None:
    if py.p_primes != path.p_primes or py.q_primes != path.q_primes:
        raise PathError("pyramid primes do not match the path")


def anchor_bound_certificate(path: Path, py: Pyramid, j: int, m: int) -> AnchorCert:
    """Exact anchor-column certificate between levels m < j.

    actual = ||(prod_{i=m..j-1} q_i) * col[j] - col[m]|| and the bound is
    the recursion  sum_{t=m..j-1} predicted_gap(t) * prod_{i=m..t-1} q_i,
    evaluated exactly.
    """
    _check_pyramid_matches(path, py)
    k = path.k
    if not (1 <= m < j <= k + 1):
        raise IndexError(f"need 1 <= m < j <= {k + 1}, got (j, m) = ({j}, {m})")
    eps = py.step_eps[0][0]
    col = py.anchor_column
    mult = prod(path.q_primes[m - 1 : j - 1])
    actual = torus_norm(col[j - 1].scale(mult) - col[m - 1])
    bound = Fraction(0)
    for t in range(m, j):
        bound += predicted_gap(t, eps, path.p_primes, path.q_primes) * prod(
            path.q_primes[m - 1 : t - 1]
        )
    return AnchorCert(j, m, actual, bound)


def top_anchor_certificate(path: Path, py: Pyramid, j: int) -> AnchorCert:
    """Certificate tying the apex to the j-th base anchor.

    actual = ||(prod_{i<j} p_i * prod_{i>=j} q_i) * top - base[j]||.  The
    bound composes, by the triangle inequality, the anchor-column
    certificate from level j up to the apex with the descending chain of
    p-side bounds from level j back down to the base.
    """
    _check_pyramid_matches(path, py)
    k = path.k
    if not 1 <= j <= k + 1:
        raise IndexError(f"j = {j} out of range 1..{k + 1}")
    pprod = prod(path.p_primes[: j - 1])
    qprod = prod(path.q_primes[j - 1 :])
    actual = torus_norm(py.top.scale(pprod * qprod) - py.layers[0][j - 1])
    eps = py.step_eps[0][0]
    b_fwd = Fraction(0)
    for t in range(j, k + 1):
        b_fwd += predicted_gap(t, eps, path.p_primes, path.q_primes) * prod(
            path.q_primes[j - 1 : t - 1]
        )
    b_dwn = Fraction(0)
    for t in range(1, j):
        b_dwn += py.pside_bound(j - t, t) * prod(path.p_primes[t : j - 1])
    return AnchorCert(j, 0, actual, b_dwn + pprod * b_fwd)


def top_anchor_actuals(path: Path, top, j: int) -> Fraction:
    """The j-th apex-to-base distance for an arbitrary candidate apex."""
    pprod = prod(path.p_primes[: j - 1])
    qprod = prod(path.q_primes[j - 1 :])
    base = reduce_mod(path.sites[j - 1].alpha, top.modulus)
    return torus_norm(top.scale(pprod * qprod) - base)


@dataclass(frozen=True)
class PathEnumeration:
    paths: tuple[Path, ...]
    truncated: bool


def enumerate_split_paths(
    cfg: Configuration,
    edges: list[Edge] | tuple[Edge, ...],
    start: int,
    k: int,
    limit: int = 10000,
) -> PathEnumeration:
    """Depth-first enumeration of split walks of length k from site `start`.

    Edges are traversed in their stored orientation only (p-label from the
    first split set, q-label from the second); the 2k primes along a walk
    must be globally distinct.  Exploration follows ascending edge index,
    so the output order is deterministic; enumeration stops at `limit`
    with the truncation flag raised.
    """
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
            results.append(build_path(cfg, acc))
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


def peel_regular(
    cfg: Configuration,
    edges: list[Edge] | tuple[Edge, ...],
    d_min: int,
    witness_prime: int | None = None,
) -> frozenset[int]:
    """Iteratively strip sites with too few surviving neighbors.

    Neighbors are distinct sites joined by a single split edge whose
    witness set contains `witness_prime` (all edges when None), counted
    symmetrically.  Sites connected to at most d_min surviving neighbors
    are removed until the set stabilizes; every member of the result keeps
    more than d_min neighbors inside it.
    """
    if d_min < 0:
        raise PathError("d_min must be nonnegative")
    nbrs: dict[int, set[int]] = {i: set() for i in range(len(cfg.sites))}
    for e in edges:
        if witness_prime is not None and witness_prime not in e.witness:
            continue
        if not (e.p in cfg.split_p1 and e.q in cfg.split_p2):
            continue
        nbrs[e.i].add(e.j)
        nbrs[e.j].add(e.i)
    alive = set(nbrs)
    changed = True
    while changed:
        changed = False
        doomed = [u for u in alive if len(nbrs[u] & alive) <= d_min]
        if doomed:
            changed = True
            alive.difference_update(doomed)
    return frozenset(alive)


@dataclass(frozen=True)
class ProductCountReport:
    r: int
    p0: int
    n_scale: Fraction
    threshold: Fraction
    count: int
    bound: Fraction
    c_cal: Fraction

    @property
    def passed(self) -> bool:
        return self.count <= self.c_cal * self.bound


def count_close_products(
    r: int,
    p0: int,
    n_scale: Rational,
    a_scale: Rational = 1,
    c_cal: Rational = 1,
    budget: int = 10**7,
) -> ProductCountReport:
    """Exhaustive census of near-colliding prime products.

    Counts ordered 2r-tuples of primes from [p0, 2*p0] whose two r-fold
    products differ by at most A*(2*p0)^r / N, and compares against the
    calibrated bound  c_cal * A * (r!)^2 * (2*p0)^r * ((2*p0)^r / N + 1).
    """
    if r < 1 or p0 < 3:
        raise ValueError("need r >= 1 and p0 >= 3")
    n_scale = as_fraction(n_scale)
    a_scale = as_fraction(a_scale)
    ps = primes_in_range(p0, 2 * p0)
    if len(ps) ** (2 * r) > budget:
        raise ResourceBudgetError(
            f"{len(ps)}^{2 * r} ordered tuples exceed the budget {budget}"
        )
    threshold = a_scale * Fraction((2 * p0) ** r) / n_scale
    products = sorted(prod(t) for t in itertools.product(ps, repeat=r))
    count = 0
    for a in products:
        lo = bisect_left(products, a - threshold)
        hi = bisect_left(products, a + threshold)
        while hi < len(products) and products[hi] <= a + threshold:
            hi += 1
        count += hi - lo
    bound = (
        a_scale
        * factorial(r) ** 2
        * (2 * p0) ** r
        * (Fraction((2 * p0) ** r) / n_scale + 1)
    )
    return ProductCountReport(
        r, p0, n_scale, threshold, count, bound, as_fraction(c_cal)
    )


def route_count_gate_max_k(x_scale: int, h_scale: int, two_p: int, b_ratio) -> int:
    """Largest k with (2P)^(2k) * H * B * ceil(ln X) <= X; 0 when none.

    This is the length range in which the factorial route-count budget is
    provable; the logarithm is pinned to the integer ceiling of ln X so the
    gate itself is an exact integer comparison.
    """
    b_ratio = as_fraction(b_ratio)
    if x_scale < 3 or h_scale < 1:
        return 0
    log_ceil = int(log(x_scale)) + 1
    k = 0
    while (
        Fraction(two_p ** (2 * (k + 1)))
        * h_scale
        * b_ratio
        * log_ceil
        <= x_scale
    ):
        k += 1
    return k


@dataclass(frozen=True)
class EndpointCensusRow:
    endpoint: int
    count: int
    budget: int
    budget_ok: bool | None

    def to_row(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "count": self.count,
            "budget": self.budget,
            "budget_ok": self.budget_ok,
        }


@dataclass(frozen=True)
class CensusReport:
    k: int
    gate_applicable: bool
    gate_max_k: int
    rows: tuple[EndpointCensusRow, ...]
    pairs_sharing_endpoint: int
    pairs_sharing_prime: int
    different_multiset_pairs: int
    ratio_gap_violations: int

    @property
    def passed(self) -> bool:
        if self.ratio_gap_violations:
            return False
        if self.gate_applicable:
            return all(r.budget_ok for r in self.rows)
        return True

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "gate_applicable": self.gate_applicable,
            "gate_max_k": self.gate_max_k,
            "rows": [r.to_row() for r in self.rows],
            "pairs_sharing_endpoint": self.pairs_sharing_endpoint,
            "pairs_sharing_prime": self.pairs_sharing_prime,
            "different_multiset_pairs": self.different_multiset_pairs,
            "ratio_gap_violations": self.ratio_gap_violations,
            "pass": self.passed,
        }


def collision_census(
    paths: list[Path] | tuple[Path, ...],
    x_scale: int,
    h_scale: int,
    p_scale: int,
    b_ratio: Rational = 1,
) -> CensusReport:
    """Same-endpoint statistics for a family of equal-length paths.

    All paths must share the initial site and length k.  Per endpoint the
    path count is compared with the (2k)! budget whenever the length gate
    holds (outside the gate the budget is unproven and only flagged).  For
    every same-endpoint pair with different prime multisets the product
    ratio prod(q_i * p'_i) / prod(p_i * q'_i) must differ from 1 by at
    least (2P)^(-2k); that inequality is decided in exact integers and a
    failure counts as a violation.
    """
    if not paths:
        raise PathError("census needs at least one path")
    k = paths[0].k
    x0 = paths[0].initial
    for ell in paths:
        if ell.k != k:
            raise PathError("census paths must have equal length")
        if ell.initial != x0:
            raise PathError("census paths must share the initial site")
    gate_max = route_count_gate_max_k(x_scale, h_scale, 2 * p_scale, b_ratio)
    gate_ok = 1 <= k <= gate_max
    budget = factorial(2 * k)
    groups: dict[tuple, list[Path]] = {}
    for ell in paths:
        key = (ell.end.x, ell.end.alpha)
        groups.setdefault(key, []).append(ell)
    rows = []
    share_endpoint = share_prime = diff_multiset = violations = 0
    two_p_pow = (2 * p_scale) ** (2 * k)
    for gi, (key, group) in enumerate(sorted(groups.items())):
        endpoint_idx = (
            group[0].site_indices[-1] if group[0].site_indices is not None else gi
        )
        rows.append(
            EndpointCensusRow(
                endpoint_idx,
                len(group),
                budget,
                len(group) <= budget if gate_ok else None,
            )
        )
        for ell1, ell2 in itertools.combinations(group, 2):
            share_endpoint += 1
            s1 = set(ell1.p_primes + ell1.q_primes)
            s2 = set(ell2.p_primes + ell2.q_primes)
            if s1 & s2:
                share_prime += 1
            if sorted(s1) != sorted(s2):
                diff_multiset += 1
                num = prod(ell1.q_primes) * prod(ell2.p_primes)
                den = prod(ell1.p_primes) * prod(ell2.q_primes)
                # |num/den - 1| >= (2P)^(-2k)  <=>  |num - den| * (2P)^(2k) >= den
                if abs(num - den) * two_p_pow < den:
                    violations += 1
    return CensusReport(
        k=k,
        gate_applicable=gate_ok,
        gate_max_k=gate_max,
        rows=tuple(rows),
        pairs_sharing_endpoint=share_endpoint,
        pairs_sharing_prime=share_prime,
        different_multiset_pairs=diff_multiset,
        ratio_gap_violations=violations,
    )
