"""Configurations, prime-labeled edges, path algebra and combinatorial checks.

A configuration is a set of separated sites (x, alpha); an edge relates two
sites through a prime pair (p, q) with |x_i/p - x_j/q| below a physical
threshold and p*alpha_i - q*alpha_j small modulo each prime in its witness
set.  Paths chain edges under a global all-distinct-primes rule and induce
pre-paths, so every layered bound becomes a computable certificate with the
implicit constants replaced by exact telescoped sums.

Sites hold x and alpha, and edges their slack, as integer pairs in lowest
terms, built as Fractions only when read; both are slotted, compare and
hash by value, and are not frozen, so an instance load stores each of
their fields plainly (nothing assigns to one after construction).

Split walks come from a `SplitWalks`, which holds one instance's split
adjacency: a command that walks from every start site (`census`,
`verify-bounds`) builds it once per instance and walks each start from it,
recovery's pair search walks its hub from one, and `enumerate_split_paths`
(for the tests and the benchmark) keeps the one it builds for a tuple of
edges on the configuration.  A walk is a tuple of edges; `census` and the
pair search read ends, primes and witnesses off them, and a `Path` is
built only for a walk that is certified or paired.

The certificates decide `passed` by one integer cross-multiplication and
hold each value as a pair in lowest terms: a row writes the pairs as text,
and `cert.actual` and the other values build a Fraction only when read.  A
certificate is a mutable slotted dataclass, so a row costs one plain
attribute store per field.
Each decision is one public function on integer pairs, called by the
object route (`path_prepath`, `build_pyramid`, `verify_pyramid`, the
certificates) and by `certify_path`, the `verify-bounds` pass that builds
no PrePath, Pyramid, TorusPoint or certificate: `path_anchors`, then
`pyramid.decide_prepath`, `merge_layers`, `prefix_tables` and
`layer_gaps`, `ratio_drift` (its telescoped bound over one denominator in
O(m)) and `apex_gap` (its bound off the prefix tables).
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm, log, prod
from collections.abc import Sequence
from typing import NamedTuple

from .primes import primes_in_range
from .pyramid import PrePath, Pyramid, decide_prepath, layer_gaps, merge_layers, prefix_tables
from .torus import (
    Modulus,
    Pair,
    Rational,
    TorusPoint,
    as_fraction,
    below,
    lowest_terms,
    pair_gap,
    pair_property,
    pair_to_str,
    residue_gap,
)


class PathError(ValueError):
    """Structurally invalid path data."""


class EndpointMismatch(PathError):
    pass


class PrimeCollision(PathError):
    pass


class ResourceBudgetError(RuntimeError):
    """Enumeration would exceed the configured budget."""


@dataclass(slots=True, unsafe_hash=True)
class Site:
    """An interval anchor: left endpoint x > 0 and a real frequency
    representative alpha (reducible mod any modulus), each held as the
    pair (num, den) in lowest terms, den > 0, that the constructor takes;
    `x` and `alpha` build the Fraction when read."""

    x_pair: tuple[int, int]
    alpha_pair: tuple[int, int]

    x = pair_property("x_pair")
    alpha = pair_property("alpha_pair")

    def __post_init__(self) -> None:
        if self.x_pair[0] <= 0:
            raise PathError(f"site position must be positive, got {self.x}")


def scaled_positions(xs: Sequence[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """(D, the integers x*D in the order given) for positions held as pairs
    (num, den): D is the lcm of the denominators, so every comparison of
    positions, or of a gap b - a with a rational s, is decided on integers:
    b - a < s iff (B - A) * s_den < s_num * D."""
    scale = lcm(*(d for _n, d in xs))
    return scale, tuple([n * (scale // d) for n, d in xs])


def close_pair(
    scale: int, ints: list[int], separation: Fraction
) -> tuple[int, int] | None:
    """The first neighbours (A, B) of the ascending scaled positions `ints`
    closer than `separation`, or None when every gap is at least it."""
    sep_den, scaled_sep = separation.denominator, separation.numerator * scale
    for a, b in zip(ints, ints[1:]):
        if (b - a) * sep_den < scaled_sep:
            return a, b
    return None


@dataclass(frozen=True)
class Configuration:
    """Separated sites plus a split partition of the edge-prime pool.

    Sites must be pairwise at distance >= separation; the two prime sets
    must be disjoint.  The positions are scaled once, at construction:
    `positions[i]` is x_i * `scale` in site order (`scaled_positions`).
    """

    sites: tuple[Site, ...]
    separation: Fraction
    split_p1: frozenset[int]
    split_p2: frozenset[int]
    scale: int = field(init=False, repr=False, compare=False)
    positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "separation", as_fraction(self.separation))
        object.__setattr__(self, "split_p1", frozenset(self.split_p1))
        object.__setattr__(self, "split_p2", frozenset(self.split_p2))
        if self.split_p1 & self.split_p2:
            raise PathError("split prime sets must be disjoint")
        scale, xs = scaled_positions([s.x_pair for s in self.sites])
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "positions", xs)
        pair = close_pair(scale, sorted(xs), self.separation)
        if pair:
            a, b = pair
            raise PathError(
                f"sites {Fraction(a, scale)} and {Fraction(b, scale)} are "
                f"closer than the separation {self.separation}"
            )


@dataclass(slots=True, unsafe_hash=True)
class Edge:
    """Quadruple relation between sites i and j through primes (p, q).

    slack is the exact physical deviation |x_i/p - x_j/q|, a pair like a
    site's x; witness is the nonempty frozenset of primes w with
    ||p*alpha_i - q*alpha_j||_w < eps_edge, the strict inequality every
    pre-path hypothesis needs.  Both are functions of the sites, so an
    instance file does not hold them: the loader derives them for each
    [i, j, p, q].  The reverse orientation carries identical ones.
    """

    i: int
    j: int
    p: int
    q: int
    witness: frozenset[int]
    slack_pair: tuple[int, int]

    slack = pair_property("slack_pair")

    def __post_init__(self) -> None:
        if self.p == self.q:
            raise PathError("edge primes must differ")
        if self.i == self.j:
            raise PathError("an edge needs two distinct sites")
        if not self.witness:
            raise PathError("edge witness set must be nonempty")


def edge_relation(a: Site, b: Site, p: int, q: int) -> tuple[int, int]:
    """p*alpha_a - q*alpha_b as an unreduced pair (N, D), the value N/D.

    With alpha_a = n_a/d_a and alpha_b = n_b/d_b, N = p*n_a*d_b - q*n_b*d_a
    and D = d_a*d_b > 0; N may be negative."""
    (na, da), (nb, db) = a.alpha_pair, b.alpha_pair
    return p * na * db - q * nb * da, da * db


def edge_witness(
    a: Site, b: Site, p: int, q: int, witness_pool: tuple[int, ...], eps_edge: Fraction
) -> frozenset[int]:
    """Exact witness computation: primes w in the pool for which
    ||p*alpha_a - q*alpha_b||_w < eps_edge.  The generator and the loader
    both decide it here, for every edge, so `residue_gap` and `below` run
    inline: with N/D the relation and r = N mod w*D, w is kept when
    min(r, w*D - r) * eps_den < eps_num * D."""
    n, d = edge_relation(a, b, p, q)
    e_den, bound, out = eps_edge.denominator, eps_edge.numerator * d, []
    for w in witness_pool:
        r = n % (wd := w * d)
        if min(r, wd - r) * e_den < bound:
            out.append(w)
    return frozenset(out)


@dataclass(frozen=True)
class Path:
    """A walk through the configuration over checked edges, with globally
    distinct primes.

    Step t is edges[t], taken in the direction of the walk: it relates
    sites[t] to sites[t+1] through (p_t, q_t) with its witness set and its
    stored slack |x_t/p_t - x_{t+1}/q_t|.  The primes, the site indices and
    the path modulus (the product of the common witness primes, possibly
    trivial) are read off the edges; the two prime tuples once, at
    construction.
    """

    sites: tuple[Site, ...]
    edges: tuple[Edge, ...]
    p_primes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    q_primes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.k
        if k < 1:
            raise PathError("a path has at least one step")
        if len(self.sites) != k + 1:
            raise PathError("inconsistent path tuple lengths")
        for t, (e, f) in enumerate(zip(self.edges, self.edges[1:])):
            if e.j != f.i:
                raise EndpointMismatch(
                    f"step {t + 1} ends at site {e.j} but step {t + 2} "
                    f"starts at site {f.i}"
                )
        ps = tuple([e.p for e in self.edges])
        qs = tuple([e.q for e in self.edges])
        object.__setattr__(self, "p_primes", ps)
        object.__setattr__(self, "q_primes", qs)
        allp = ps + qs
        if len(set(allp)) != 2 * k:
            raise PrimeCollision(f"path primes must all be distinct: {allp}")

    @property
    def k(self) -> int:
        return len(self.edges)

    @property
    def site_indices(self) -> tuple[int, ...]:
        return (self.edges[0].i,) + tuple(e.j for e in self.edges)

    @property
    def common_witness(self) -> frozenset[int]:
        return frozenset.intersection(*(e.witness for e in self.edges))

    @property
    def modulus(self) -> Modulus:
        common = tuple(sorted(self.common_witness))
        return Modulus(prod(common), common)


def build_path(cfg: Configuration, edges: list[Edge] | tuple[Edge, ...]) -> Path:
    """Assemble a Path from consecutive forward-oriented edges (the Path
    checks that they chain)."""
    if not edges:
        raise PathError("empty edge sequence")
    sites = cfg.sites
    return Path(tuple([sites[edges[0].i]] + [sites[e.j] for e in edges]), tuple(edges))


def validate_path_modulus(path: Path, modulus: Modulus, eps_edge: Fraction) -> None:
    """Check each step relation ||p_t*alpha_t - q_t*alpha_{t+1}||_Q < eps_edge.

    One decision per step at the whole modulus Q suffices: for every d
    dividing Q, ||x||_d <= ||x||_Q, so it implies the relation modulo each
    partial product of Q's prime factors.
    """
    for t, (a, b, e) in enumerate(zip(path.sites, path.sites[1:], path.edges)):
        gap = residue_gap(*edge_relation(a, b, e.p, e.q), modulus.q)
        if not below(gap, eps_edge):
            raise PathError(f"step {t + 1} relation fails mod {modulus.q}")


def invert_path(path: Path) -> Path:
    """Endpoint reversal: primes become (q_k..q_1, p_k..p_1).  An involution.

    Each edge is taken backwards, with its slack and witness unchanged."""
    edges = tuple(Edge(e.j, e.i, e.q, e.p, e.witness, e.slack_pair) for e in path.edges)
    return Path(tuple(reversed(path.sites)), edges[::-1])


def concat_paths(a: Path, b: Path) -> Path:
    """Join two paths sharing a middle endpoint; prime sets must be disjoint
    to preserve the global distinctness invariant."""
    if a.sites[-1] != b.sites[0]:
        raise EndpointMismatch("end of the first path is not the start of the second")
    sa = set(a.p_primes + a.q_primes)
    sb = set(b.p_primes + b.q_primes)
    if sa & sb:
        raise PrimeCollision(f"paths share primes {sorted(sa & sb)}")
    return Path(a.sites + b.sites[1:], a.edges + b.edges)


def path_anchors(path: Path, q: int) -> tuple[list[Pair], list[Pair]]:
    """The top anchors alpha_t and mid anchors p_j * alpha_j of the pre-path
    a path induces mod q, as residue pairs in lowest terms: alpha = n/d is
    in lowest terms, and so is (n mod Q*d)/d, so only p*n/d takes a gcd."""
    alphas = [s.alpha_pair for s in path.sites]
    return ([(n % (q * d), d) for n, d in alphas],
            [lowest_terms(p * n % (q * d), d) for p, (n, d) in zip(path.p_primes, alphas)])


def path_prepath(
    path: Path, eps: Rational, modulus: Modulus | None = None
) -> PrePath:
    """The pre-path a path induces modulo `modulus` (default: the path's own).

    The j-th reference anchor is taken to be exactly p_j * alpha_j, so the
    p-side hypothesis is exact and the one tolerance serves both
    inequalities.
    """
    if modulus is None:
        modulus = path.modulus
    top, mid = path_anchors(path, modulus.q)
    return PrePath(modulus=modulus, top_anchors=tuple([TorusPoint(n, d, modulus) for n, d in top]),
                   mid_anchors=tuple([TorusPoint(n, d, modulus) for n, d in mid]),
                   p_primes=path.p_primes, q_primes=path.q_primes, eps=as_fraction(eps))


@dataclass(slots=True)
class RatioDriftCert:
    """A `ratio_drift_certificate` row.  ratio, drift and bound are held as
    pairs in lowest terms and read as Fractions, built when read."""

    m: int
    ratio_pair: tuple[int, int]
    drift_pair: tuple[int, int]
    bound_pair: tuple[int, int]
    passed: bool

    ratio = pair_property("ratio_pair")
    drift = pair_property("drift_pair")
    bound = pair_property("bound_pair")

    def to_row(self) -> dict:
        return {
            "m": self.m,
            "ratio": pair_to_str(self.ratio_pair),
            "drift": pair_to_str(self.drift_pair),
            "bound": pair_to_str(self.bound_pair),
            "pass": self.passed,
        }


def ratio_drift_certificate(path: Path, m: int) -> RatioDriftCert:
    """Telescoped physical-drift certificate after m steps (`ratio_drift`)."""
    if not 1 <= m <= path.k:
        raise IndexError(f"m = {m} out of range 1..{path.k}")
    return RatioDriftCert(m, *ratio_drift(path, m))


def ratio_drift(path: Path, m: int) -> tuple[Pair, Pair, Pair, bool]:
    """(ratio, drift, bound, drift <= bound) after m steps, 1 <= m <= k,
    each value a pair in lowest terms.

    drift = |x_1 * prod_{i<=m} q_i/p_i  -  x_{m+1}| and the bound is the
    exact telescoping sum  sum_t s_t * prod_{i=t+1..m} q_i/p_i  with s_t =
    q_t times the t-th edge slack, |x_t * q_t/p_t - x_{t+1}|, so drift <=
    bound holds with no hidden constants.

    With L the lcm of the slacks' denominators, bound * P_m * L is the
    integer sum_t slack_t * L * P_t * prod_{i=t..m} q_i (P_t the product
    of the first t p-primes), accumulated in one pass; `passed` is one
    integer cross-multiplication.
    """
    slack = [e.slack_pair for e in path.edges[:m]]
    scale = lcm(*[d for _n, d in slack])
    pprod = qprod = 1
    total = 0
    for p, q, (n, d) in zip(path.p_primes, path.q_primes, slack):
        pprod *= p
        qprod *= q
        total = q * (total + n * (scale // d) * pprod)
    (n0, d0), (nm, dm) = path.sites[0].x_pair, path.sites[m].x_pair
    drift = abs(n0 * qprod * dm - nm * pprod * d0)  # over pprod * d0 * dm
    return (
        lowest_terms(qprod, pprod),
        lowest_terms(drift, pprod * d0 * dm),
        lowest_terms(total, pprod * scale),
        drift * scale <= total * d0 * dm,
    )


@dataclass(slots=True)
class AnchorCert:
    """An anchor or apex certificate row.  actual and bound are held as
    pairs in lowest terms and read as Fractions, built when read."""

    j: int
    m: int
    actual_pair: tuple[int, int]
    bound_pair: tuple[int, int]
    passed: bool

    actual = pair_property("actual_pair")
    bound = pair_property("bound_pair")

    def to_row(self) -> dict:
        return {
            "j": self.j,
            "m": self.m,
            "actual": pair_to_str(self.actual_pair),
            "bound": pair_to_str(self.bound_pair),
            "pass": self.passed,
        }


def _bound_row(gap: Pair, num: int, den: int) -> tuple[Pair, Pair, bool]:
    """(actual, bound, actual <= bound) for the gap g/D and num/den, in lowest terms."""
    g, d = gap
    return lowest_terms(g, d), lowest_terms(num, den), g * den <= num * d


def _pyramid_eps(path: Path, py: Pyramid) -> Pair:
    """The pyramid's tolerance as its pair (n, d), which the closed-form
    bounds are stated in; they hold for no pyramid over other primes."""
    if py.p_primes != path.p_primes or py.q_primes != path.q_primes:
        raise PathError("pyramid primes do not match the path")
    return py.eps_pair


def anchor_bound_certificate(path: Path, py: Pyramid, j: int, m: int) -> AnchorCert:
    """Exact anchor-column certificate between levels m < j.

    actual = ||(prod_{i=m..j-1} q_i) * col[j] - col[m]|| and the bound is
    the recursion  sum_{t=m..j-1} predicted_gap(t) * prod_{i=m..t-1} q_i,
    read off the pyramid's column sums in O(1), scaled by the pyramid's
    tolerance.
    """
    k = path.k
    if not (1 <= m < j <= k + 1):
        raise IndexError(f"need 1 <= m < j <= {k + 1}, got (j, m) = ({j}, {m})")
    e, f = _pyramid_eps(path, py)
    _pre_p, pre_q, sums, den = py.tables
    col = py.column_pairs
    gap = pair_gap(pre_q[j - 1] // pre_q[m - 1], col[j - 1], 1, col[m - 1], py.modulus.q)
    actual, bound, passed = _bound_row(gap, e * (sums[j - 1] - sums[m - 1]),
                                       f * den * pre_q[m - 1])
    return AnchorCert(j, m, actual, bound, passed)


def top_anchor_certificate(path: Path, py: Pyramid, j: int) -> AnchorCert:
    """Certificate tying the apex to the j-th base anchor.

    actual = ||(prod_{i<j} p_i * prod_{i>=j} q_i) * top - base[j]||.  The
    bound composes, by the triangle inequality, the anchor-column
    certificate from level j up to the apex with the descending chain of
    p-side bounds from level j back down to the base:

        sum_{t<j} pside_bound(j-t, t) * prod_{i=t+1..j-1} p_i
            + prod_{i<j} p_i * sum_{t=j..k} predicted_gap(t) * prod_{i=j..t-1} q_i.

    pside_bound(j-t, t) is the step-(j-t) tolerance of entry t over
    q_{j-1}; under the tolerance eps its denominator is eps's times
    P_{t+a} / P_t * Q_{j-2} / Q_{j-2-b} (P_i, Q_i the prefix products,
    a = floor((j-t)/2), b = floor((j-t-1)/2)), so the bound is

        eps * (sum_t P_{j-1} / P_{t+a} * Q_{j-2-b} * P_H
               + P_{j-1} * (column_sums[k] - column_sums[j-1]))
            / (P_H * Q_{j-1}),

    read off the pyramid's tables with one integer sum (`apex_gap`).
    """
    k = path.k
    if not 1 <= j <= k + 1:
        raise IndexError(f"j = {j} out of range 1..{k + 1}")
    eps = _pyramid_eps(path, py)
    base = py.layers[0][j - 1]
    actual, bound, passed = apex_gap(j, py.modulus.q, py.column_pairs[-1], (base.num, base.den),
                                     py.tables, eps)
    return AnchorCert(j, 0, actual, bound, passed)


def apex_gap(
    j: int, q: int, apex: Pair, base: Pair, tables: tuple, eps: Pair
) -> tuple[Pair, Pair, bool]:
    """`top_anchor_certificate`'s (actual, bound, passed) from the apex and
    the j-th base anchor as residue pairs mod q, the `prefix_tables` and
    the tolerance eps = (n, d)."""
    pre_p, pre_q, sums, den = tables
    down = sum([pre_p[j - 1] // pre_p[t + (j - t) // 2] * pre_q[j - 2 - (j - t - 1) // 2]
                for t in range(1, j)])
    gap = pair_gap(pre_p[j - 1] * (pre_q[-1] // pre_q[j - 1]), apex, 1, base, q)
    e, f = eps
    return _bound_row(gap, e * (down * den + pre_p[j - 1] * (sums[-1] - sums[j - 1])),
                      f * den * pre_q[j - 1])


def certify_path(path: Path, eps: Rational) -> tuple[list[tuple], int, list[list[Pair]]]:
    """One path's `verify-bounds` rows, its modulus Q and its pyramid layers
    as residue pairs mod Q, in one pass over its integer pairs.  A row is
    (kind, j, m, actual, bound, passed), the values as text and "" for an
    index its kind lacks: each layer gap, the drift at m = k and the apex
    at j = 1 and k + 1.  Each decision, from `Path.modulus` to the rows, is
    the object route's own function, so a refused pre-path raises the
    PrePathError that `path_prepath` raises.
    """
    eps = as_fraction(eps)
    q = path.modulus.q
    ps, qs, k = path.p_primes, path.q_primes, path.k
    e = (eps.numerator, eps.denominator)
    top, mid = path_anchors(path, q)
    decide_prepath(q, top, mid, ps, qs, e)
    layers = merge_layers(q, top, ps, qs, e)[0]
    tables = prefix_tables(ps, qs)
    rows = [("layer_gap", j, "", pair_to_str(actual), pair_to_str(bound), ok)
            for j, actual, bound, ok in layer_gaps(q, [layer[0] for layer in layers],
                                                   qs, tables, e)]
    _ratio, drift, bound, ok = ratio_drift(path, k)
    rows.append(("ratio_drift", "", k, pair_to_str(drift), pair_to_str(bound), ok))
    for j in (1, k + 1):
        actual, bound, ok = apex_gap(j, q, layers[-1][0], top[j - 1], tables, e)
        rows.append(("apex_anchor", j, "", pair_to_str(actual), pair_to_str(bound), ok))
    return rows, q, layers


Walk = tuple[Edge, ...]


class PathEnumeration(NamedTuple):
    """The paths of one `enumerate_split_paths` call; a named tuple, since
    a loop over every start and length builds thousands of them."""

    paths: tuple[Path, ...]
    truncated: bool


class SplitWalks:
    """The split walks of one instance, all walked from one adjacency.

    The adjacency keeps the split-oriented edges only (p-label from the
    first split set, q-label from the second), each under its tail site in
    ascending edge index, so every walk's output order is deterministic.
    """

    def __init__(
        self, cfg: Configuration, edges: list[Edge] | tuple[Edge, ...]
    ) -> None:
        self.out_edges: dict[int, list[Edge]] = {}
        for e in edges:
            if e.p in cfg.split_p1 and e.q in cfg.split_p2:
                self.out_edges.setdefault(e.i, []).append(e)

    def walks(self, start: int, k: int, limit: int = 10000) -> tuple[list[Walk], bool]:
        """The split walks of length k from `start`, depth first, and whether
        the enumeration was truncated.

        Edges are traversed in their stored orientation only; the 2k primes
        along a walk must be globally distinct.  Enumeration stops at
        `limit` walks with the truncation flag raised, so a limit of 0 gives
        no walks, truncated; a negative limit is refused.
        """
        if k < 1:
            raise PathError("path length must be at least 1")
        if limit < 0:
            raise PathError(f"walk limit must be at least 0, got {limit}")
        if limit == 0:
            return [], True
        out_edges = self.out_edges
        found: list[Walk] = []

        def walk(u: int, used: frozenset[int], acc: Walk) -> bool:
            for e in out_edges.get(u, ()):
                if e.p in used or e.q in used:
                    continue
                nxt = acc + (e,)
                if len(nxt) < k:
                    if not walk(e.j, used | {e.p, e.q}, nxt):
                        return False
                elif len(found) < limit:
                    found.append(nxt)
                else:
                    return False
            return True

        # `walk` refers to itself through its closure cell; deleting it
        # breaks that cycle, so the call leaves nothing for the cyclic
        # collector
        try:
            return found, not walk(start, frozenset(), ())
        finally:
            del walk


def enumerate_split_paths(
    cfg: Configuration,
    edges: list[Edge] | tuple[Edge, ...],
    start: int,
    k: int,
    limit: int = 10000,
) -> PathEnumeration:
    """Split walks of length k from site `start` as Paths; see
    `SplitWalks.walks`.

    The adjacency built for a tuple of edges is kept on `cfg` and reused
    while the same tuple (by identity) comes back, so a loop over every
    start and every k builds it once.  A list of edges may change between
    calls, so each call copies it into a new tuple with its own adjacency.
    """
    edges = tuple(edges)
    cached = cfg.__dict__.get("_split_walks")
    if cached is None or cached[0] is not edges:
        cached = cfg.__dict__["_split_walks"] = (edges, SplitWalks(cfg, edges))
    found, truncated = cached[1].walks(start, k, limit)
    return PathEnumeration(tuple([build_path(cfg, w) for w in found]), truncated)


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

    @property
    def passed(self) -> bool:
        return self.count <= self.bound


def count_close_products(
    r: int,
    p0: int,
    n_scale: Rational,
    budget: int = 10**7,
) -> ProductCountReport:
    """Exhaustive census of near-colliding prime products.

    Counts ordered 2r-tuples of primes from [p0, 2*p0] whose two r-fold
    products differ by at most (2*p0)^r / N, and compares against the
    bound  (r!)^2 * (2*p0)^r * ((2*p0)^r / N + 1).
    """
    if r < 1 or p0 < 3:
        raise ValueError("need r >= 1 and p0 >= 3")
    n_scale = as_fraction(n_scale)
    ps = primes_in_range(p0, 2 * p0)
    if len(ps) ** (2 * r) > budget:
        raise ResourceBudgetError(
            f"{len(ps)}^{2 * r} ordered tuples exceed the budget {budget}"
        )
    threshold = Fraction((2 * p0) ** r) / n_scale
    products = sorted(prod(t) for t in itertools.product(ps, repeat=r))
    count = 0
    for a in products:
        count += bisect_right(products, a + threshold) - bisect_left(products, a - threshold)
    bound = factorial(r) ** 2 * (2 * p0) ** r * (threshold + 1)
    return ProductCountReport(r, p0, n_scale, threshold, count, bound)


def route_count_gate_max_k(x_scale: int, h_scale: int, two_p: int) -> int:
    """Largest k with (2P)^(2k) * H * ceil(ln X) <= X; 0 when none.

    This is the length range in which the factorial route-count budget is
    provable; the logarithm is pinned to the integer ceiling of ln X so the
    gate itself is an exact integer comparison.
    """
    if x_scale < 3 or h_scale < 1:
        return 0
    log_ceil = int(log(x_scale)) + 1
    k = 0
    while two_p ** (2 * (k + 1)) * h_scale * log_ceil <= x_scale:
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
    walks: list[Walk] | tuple[Walk, ...], gate_max_k: int, p_scale: int
) -> CensusReport:
    """Same-endpoint statistics for equal-length split walks (edge tuples)
    sharing their initial site, grouped by end site index, rows ascending
    (ascending in x for a loaded instance, whose sites ascend).

    Per endpoint the walk count is compared with the (2k)! budget when
    1 <= k <= gate_max_k, the scale's route-count gate
    (`Params.route_gate_k`); outside it the budget is unproven and only
    flagged.  For every same-endpoint pair with different prime sets the
    product ratio prod(q_i * p'_i) / prod(p_i * q'_i) must differ from 1 by
    at least (2P)^(-2k), P = p_scale, decided in exact integers; a failure
    counts as a violation.
    """
    if not walks:
        raise PathError("census needs at least one path")
    k = len(walks[0])
    x0 = walks[0][0].i
    for w in walks:
        if len(w) != k:
            raise PathError("census paths must have equal length")
        if w[0].i != x0:
            raise PathError("census paths must share the initial site")
    gate_ok = 1 <= k <= gate_max_k
    budget = factorial(2 * k)
    groups: dict[int, list[Walk]] = {}
    for w in walks:
        groups.setdefault(w[-1].j, []).append(w)
    rows = []
    share_endpoint = share_prime = diff_multiset = violations = 0
    two_p_pow = (2 * p_scale) ** (2 * k)
    for end in sorted(groups):
        group = groups[end]
        rows.append(
            EndpointCensusRow(
                end,
                len(group),
                budget,
                len(group) <= budget if gate_ok else None,
            )
        )
        if len(group) < 2:
            continue
        # per walk: its prime set and the products of its p- and q-primes
        keyed = [(frozenset(e.p for e in w) | {e.q for e in w},
                  prod(e.p for e in w), prod(e.q for e in w)) for w in group]
        for (s1, p1, q1), (s2, p2, q2) in itertools.combinations(keyed, 2):
            share_endpoint += 1
            if not s1.isdisjoint(s2):
                share_prime += 1
            if s1 != s2:
                diff_multiset += 1
                num, den = q1 * p2, p1 * q2
                # |num/den - 1| >= (2P)^(-2k)  <=>  |num - den| * (2P)^(2k) >= den
                if abs(num - den) * two_p_pow < den:
                    violations += 1
    return CensusReport(
        k=k,
        gate_applicable=gate_ok,
        gate_max_k=gate_max_k,
        rows=tuple(rows),
        pairs_sharing_endpoint=share_endpoint,
        pairs_sharing_prime=share_prime,
        different_multiset_pairs=diff_multiset,
        ratio_gap_violations=violations,
    )
