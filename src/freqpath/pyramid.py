"""Pre-paths and pyramids: the layered merge construction on R/QZ.

A pre-path of length k is two anchor tuples, 2k distinct primes coprime to
the modulus, and one tolerance under which consecutive anchors are
multiplicatively related.  Iterating the two-point merge produces a
triangular array of frequencies (a pyramid) whose apex is simultaneously
close, after multiplication by suitable prime products, to every anchor.

Tolerances evolve deterministically through the iteration, so each layer's
hypothesis bounds are carried along explicitly; `predicted_gap` is the
closed form of the anchor-column bound and `verify_pyramid` checks the
constructed pyramid against it row by row, in exact arithmetic.

Where each decision lives: in one public function on integer pairs, which
the objects here and `pathgraph.certify_path` (the `verify-bounds` row
pass, which builds no PrePath, Pyramid or TorusPoint) both call.
- `decide_prepath` decides the primes (distinct, prime, not dividing Q),
  that the tolerance is positive and the first layer's hypotheses, once;
  `PrePath` calls it at construction.  Each later layer's hypotheses are
  the previous merges' post-conditions (same gap, same bound).
- `_merge` is the one merge kernel.  On residues and tolerances given as
  integer pairs it decides the premise ||p1*a1 - p2*a2|| < eps1 + eps2,
  takes the lift shift from `torus.nearest_lift`, forms the weighted
  combination over one denominator, reduces it by one gcd and decides
  both post-conditions; it builds no Fraction and no TorusPoint.
  `merge_layers` sends all k(k+1)/2 merges of a pyramid to it with the
  tolerance tables, and `build_pyramid` builds a TorusPoint per entry of
  the layers it returns; `merge_two` first checks its primes and
  tolerances, `layer_step` its slice lengths and tolerances.
- `prefix_tables` derives the prefix products and anchor-column sums from
  the primes.  A `Pyramid` holds them, its anchor column and its apex,
  derived at construction, so a copy made with other layers gets its own.
- `layer_gaps` decides the rows of `verify_pyramid`, each by one integer
  cross-multiplication; the certificates in `pathgraph` read the tables.

A torus distance comes from `torus.pair_gap`, `scaled_gap` or
`residue_gap` as a pair (g, D).  A report row (`GapRow` here, the
certificates in `pathgraph`) holds its values as pairs in lowest terms, one
gcd each, and writes them as text directly; a Fraction is built for a
value only when it is read (`row.actual`) or an error message shows it.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .primes import is_prime
from .torus import (
    Modulus,
    Pair,
    Rational,
    TorusPoint,
    as_fraction,
    check_lift_primes,
    lowest_terms,
    nearest_lift,
    pair_gap,
    pair_property,
    pair_to_str,
    residue_gap,
)


class PrePathError(ValueError):
    """Structurally invalid pre-path data."""


class HypothesisViolation(PrePathError):
    """Input distance at or above the tolerance the merge step requires."""


def _merge(
    x1: tuple[int, int], x2: tuple[int, int], q: int,
    p1: int, p2: int, e1: int, f1: int, e2: int, f2: int,
) -> tuple[int, int]:
    """The merge kernel: `merge_two` on the residues x1 = n1/d1 and
    x2 = n2/d2 mod q, each a pair in lowest terms, with eps1 = e1/f1 and
    eps2 = e2/f2 given as positive integer pairs, not necessarily in lowest
    terms, and with the primes taken as checked.  Returns alpha as a pair in
    lowest terms.

    x = (p2*a2 - p1*a1)*d1*d2 reduced into [-M/2, M/2] by `nearest_lift`
    is s, so |s|/(d1*d2) is the premise's gap; alpha is built over one
    integer denominator and reduced by one gcd, and both post-conditions
    are decided on its numerator and denominator.
    """
    n1, d1 = x1
    n2, d2 = x2
    d = d1 * d2
    k1, _k2, s = nearest_lift(p2 * n2 * d1 - p1 * n1 * d2, q * d, p1, p2)
    # eps1 : eps2 = w1 : w2, and eps1 + eps2 = w / (f1 * f2)
    w1, w2 = e1 * f2, e2 * f1
    w = w1 + w2
    if abs(s) * f1 * f2 >= w * d:
        raise HypothesisViolation(
            f"||{p1}*a1 - {p2}*a2|| = {Fraction(abs(s), d)} >= "
            f"eps1 + eps2 = {Fraction(w, f1 * f2)}"
        )
    # b1 = (a2 + k1*Q)/p1 and b1 - b2 = s/(p1*p2*d1*d2), over one
    # denominator and reduced by one gcd
    den = w * p1 * p2 * d
    na, da = lowest_terms(((n2 + k1 * q * d2) * w * p2 * d1 - w2 * s) % (q * den), den)
    g, gd = residue_gap(p2 * na * d1 - n1 * da, da * d1, q)
    if g * f1 * p1 >= e1 * gd:
        raise AssertionError(
            f"merge output: ||{p2}*alpha - a1|| = {Fraction(g, gd)} "
            f">= eps1/{p1}"
        )
    g, gd = residue_gap(p1 * na * d2 - n2 * da, da * d2, q)
    if g * f2 * p2 >= e2 * gd:
        raise AssertionError(
            f"merge output: ||{p1}*alpha - a2|| = {Fraction(g, gd)} "
            f">= eps2/{p2}"
        )
    return na, da


def merge_two(
    a1: TorusPoint,
    a2: TorusPoint,
    p1: int,
    p2: int,
    eps1: Rational,
    eps2: Rational,
) -> TorusPoint:
    """Merge two multiplicatively related frequencies into one.

    Requires ||p1*a1 - p2*a2||_Q < eps1 + eps2.  Returns alpha with

        ||p2*alpha - a1||_Q < eps1/p1   and   ||p1*alpha - a2||_Q < eps2/p2,

    built as the closest lift pair (b1, b2) followed by the convex
    combination b1 - eps2/(eps1 + eps2) * (b1 - b2) of its aligned reals.
    The primes must be distinct primes not dividing Q.  Both output
    inequalities are re-checked before returning; a failure would mean a
    construction bug, not bad input, and raises AssertionError.
    """
    eps1, eps2 = as_fraction(eps1), as_fraction(eps2)
    if eps1 <= 0 or eps2 <= 0:
        raise PrePathError("tolerances must be positive")
    a1._check_same(a2)
    modulus = a1.modulus
    check_lift_primes(modulus.q, p1, p2)
    alpha = _merge((a1.num, a1.den), (a2.num, a2.den), modulus.q, p1, p2,
                   eps1.numerator, eps1.denominator,
                   eps2.numerator, eps2.denominator)
    return TorusPoint(*alpha, modulus)


def _merge_layer(
    top: list[tuple[int, int]],
    q: int,
    p_primes: tuple[int, ...],
    q_primes: tuple[int, ...],
    eps: tuple[tuple[int, int], ...],
    eps_prime: tuple[tuple[int, int], ...],
) -> list[tuple[int, int]]:
    """Entry j is `_merge` on the residue pairs (top[j], top[j+1]) mod q
    with primes (p_j, q_j) and tolerances (eps_prime[j], eps[j]) as integer
    pairs; a failing premise names its 1-based index."""
    out = []
    for j, ((e2, f2), (e1, f1)) in enumerate(zip(eps, eps_prime)):
        try:
            out.append(_merge(top[j], top[j + 1], q, p_primes[j], q_primes[j],
                              e1, f1, e2, f2))
        except HypothesisViolation as exc:
            raise HypothesisViolation(f"merge failed at index {j + 1}: {exc}") from exc
    return out


def layer_step(
    top: tuple[TorusPoint, ...],
    p_primes: tuple[int, ...],
    q_primes: tuple[int, ...],
    eps: tuple[Fraction, ...],
    eps_prime: tuple[Fraction, ...],
) -> tuple[TorusPoint, ...]:
    """One layer of the iteration.

    With m = len(p_primes), takes anchors top[0..m] for which the caller
    has decided, for each j,

        ||q_j * top[j+1] - mid[j]|| < eps[j]
        ||p_j * top[j]   - mid[j]|| < eps_prime[j]

    and returns m merged points new[j] with

        ||p_j * new[j] - top[j+1]|| < eps[j] / q_j
        ||q_j * new[j] - top[j]  || < eps_prime[j] / p_j.

    Each entry is the merge of (top[j], top[j+1]) with primes (p_j, q_j)
    and weights (eps_prime[j], eps[j]).  The hypotheses and the primes
    (distinct, prime, not dividing Q) are the caller's and are not
    re-checked, because each is already decided once: `PrePath` decides
    the primes and the first layer's hypotheses on its mid anchors; at a
    later layer mid[j] is entry j+1 of the layer before `top`, and they
    are the previous merges' post-conditions.  They imply each merge
    premise by the triangle inequality, which the merge decides; a failure
    names its index.
    """
    m = len(p_primes)
    if not (len(q_primes) == len(eps) == len(eps_prime) == m and len(top) == m + 1):
        raise PrePathError("inconsistent slice lengths")
    tols = [as_fraction(e) for e in (*eps, *eps_prime)]
    if any(e <= 0 for e in tols):
        raise PrePathError("tolerances must be positive")
    pairs = tuple([(e.numerator, e.denominator) for e in tols])
    modulus = top[0].modulus
    for pt in top[1:]:
        pt._check_same(top[0])
    merged = _merge_layer([(pt.num, pt.den) for pt in top], modulus.q,
                          p_primes, q_primes, pairs[:m], pairs[m:])
    return tuple([TorusPoint(n, d, modulus) for n, d in merged])


def decide_prepath(
    q: int, top: Sequence[Pair], mid: Sequence[Pair],
    p_primes: tuple[int, ...], q_primes: tuple[int, ...], eps: Pair,
) -> None:
    """Every pre-path decision, on the residue pairs of the k+1 top and k
    mid anchors mod q and the tolerance eps = (n, d); raises PrePathError.
    Decides the lengths, that the 2k primes are distinct, prime and do not
    divide q, that eps > 0, and at each index j both hypotheses
    ||q_j*top[j+1] - mid[j]|| < eps and ||p_j*top[j] - mid[j]|| < eps, each
    by one cross-multiplication g*d < n*D of its gap g/D."""
    k = len(p_primes)
    if k < 1:
        raise PrePathError("length must be at least 1")
    if not (len(top) == k + 1 and len(mid) == k and len(q_primes) == k):
        raise PrePathError("inconsistent tuple lengths")
    allp = p_primes + q_primes
    if len(set(allp)) != 2 * k:
        raise PrePathError(f"the 2k primes must be distinct, got {allp}")
    for p in allp:
        if not is_prime(p):
            raise PrePathError(f"{p} is not prime")
        if q % p == 0:
            raise PrePathError(f"prime {p} divides the modulus {q}")
    n, d = eps
    if n <= 0:
        raise PrePathError("tolerances must be positive")
    for j, (p, qj, m) in enumerate(zip(p_primes, q_primes, mid)):
        side, (g, gd) = "q", pair_gap(qj, top[j + 1], 1, m, q)
        if g * d < n * gd:
            side, (g, gd) = "p", pair_gap(p, top[j], 1, m, q)
        if g * d >= n * gd:
            raise HypothesisViolation(f"{side}-side hypothesis fails at index {j + 1}: "
                                      f"{Fraction(g, gd)} >= {Fraction(n, d)}")


@dataclass(frozen=True)
class PrePath:
    """Anchors, primes and a tolerance forming a valid length-k pre-path.

    top_anchors has k+1 entries; mid_anchors has k entries, the j-th being
    the reference point both hypothesis inequalities at index j+1 refer to,
    each strictly below the one tolerance eps.  All 2k primes are distinct
    and coprime to the modulus.  Every anchor must carry the modulus, and
    `decide_prepath` decides the rest at construction.
    """

    modulus: Modulus
    top_anchors: tuple[TorusPoint, ...]
    mid_anchors: tuple[TorusPoint, ...]
    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    eps: Fraction

    def __post_init__(self) -> None:
        q = self.modulus.q
        for pt in self.top_anchors + self.mid_anchors:
            if pt.modulus.q != q:
                raise PrePathError("anchor modulus mismatch")
        decide_prepath(q, [(pt.num, pt.den) for pt in self.top_anchors],
                       [(pt.num, pt.den) for pt in self.mid_anchors],
                       self.p_primes, self.q_primes,
                       (self.eps.numerator, self.eps.denominator))

    @property
    def k(self) -> int:
        return len(self.p_primes)


def prefix_tables(p_primes: tuple[int, ...], q_primes: tuple[int, ...]) -> tuple:
    """(p_prefix, q_prefix, column_sums, column_den) of a pyramid over these
    primes: p_prefix[i] and q_prefix[i] are the products of the first i.
    With h(t) = floor((t-1)/2) + 1 and H = h(k), column_den = p_prefix[H]
    and column_sums[t] is the whole number
    sum_{u<=t} q_prefix[h(u)-1] * p_prefix[H] / p_prefix[h(u)], so that

        sum_{t=first..last} predicted_gap(t) * prod_{i=first..t-1} q_i
            = eps * (column_sums[last] - column_sums[first-1])
                  / (column_den * q_prefix[first-1]).
    """
    k = len(p_primes)
    p_prefix, q_prefix = [1], [1]
    for p, q in zip(p_primes, q_primes):
        p_prefix.append(p_prefix[-1] * p)
        q_prefix.append(q_prefix[-1] * q)
    top_p = p_prefix[(k - 1) // 2 + 1]
    column_sums = [0]
    for t in range(1, k + 1):
        h = (t - 1) // 2 + 1
        column_sums.append(column_sums[-1] + q_prefix[h - 1] * (top_p // p_prefix[h]))
    return tuple(p_prefix), tuple(q_prefix), tuple(column_sums), top_p


@dataclass(frozen=True)
class Pyramid:
    """The triangular array built by iterating the layer merge, with the
    integer tables its bounds are read from.

    layers[0] is the pre-path's top anchor tuple; layer s has k+1-s
    entries, and eps is the pre-path's tolerance.  The merge at step s+1
    pairs p_primes[:m] with q_primes[s:s+m], m = k - s, under the
    tolerances eps_table[s] and eps_prime_table[s] (`merge_layers`), so
    every bound downstream is auditable without re-deriving it.

    The other fields are derived from the primes and layers at
    construction, so a pyramid made by `dataclasses.replace` has tables
    that match its own layers: anchor_column holds each layer's first entry
    (column_pairs as residue pairs), top the apex, tables `prefix_tables`,
    and eps_pair is eps as the integer pair (n, d).
    """

    modulus: Modulus
    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    layers: tuple[tuple[TorusPoint, ...], ...]
    eps_table: tuple[tuple[tuple[int, int], ...], ...]
    eps_prime_table: tuple[tuple[tuple[int, int], ...], ...]
    eps: Fraction
    anchor_column: tuple[TorusPoint, ...] = field(init=False, repr=False, compare=False)
    column_pairs: tuple[Pair, ...] = field(init=False, repr=False, compare=False)
    top: TorusPoint = field(init=False, repr=False, compare=False)
    tables: tuple = field(init=False, repr=False, compare=False)
    eps_pair: Pair = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        col = tuple(layer[0] for layer in self.layers)
        object.__setattr__(self, "anchor_column", col)
        object.__setattr__(self, "column_pairs", tuple([(pt.num, pt.den) for pt in col]))
        object.__setattr__(self, "top", self.layers[-1][0])
        object.__setattr__(self, "tables", prefix_tables(self.p_primes, self.q_primes))
        object.__setattr__(self, "eps_pair", (self.eps.numerator, self.eps.denominator))

    @property
    def k(self) -> int:
        return len(self.layers) - 1


def merge_layers(
    q: int, top: list[Pair], p_primes: tuple[int, ...], q_primes: tuple[int, ...], eps: Pair,
) -> tuple[list[list[Pair]], list, list]:
    """All k(k+1)/2 merges to the apex on residue pairs mod q, tracking the
    tolerances exactly: (layers, eps_table, eps_prime_table), layers[0] =
    top.  Step s consumes primes p_1..p_{k+1-s} and q_s..q_k.  The
    hypotheses of step s+1 are step s's merge post-conditions, relative to
    the interior entries of layer s-1, so its tolerances are the step-s
    output bounds:

        eps'[s+1][i] = eps[s][i] / q_{s+i-1}
        eps [s+1][i] = eps'[s][i+1] / p_{i+1}

    kept as integer pairs whose denominators pick up one prime per step,
    from eps at step 1.  The primes and the first layer's hypotheses are
    the caller's, decided once by `decide_prepath`, so every merge goes
    straight to the kernel.
    """
    k = len(p_primes)
    tols = tols_prime = (eps,) * k
    layers, eps_table, eps_prime_table = [top], [], []
    for s in range(k):
        if s:
            tols, tols_prime = (
                tuple([(n, d * p) for (n, d), p in zip(tols_prime[1:], p_primes[1:])]),
                tuple([(n, d * qi) for (n, d), qi in zip(tols[:-1], q_primes[s - 1:])]),
            )
        eps_table.append(tols)
        eps_prime_table.append(tols_prime)
        layers.append(_merge_layer(layers[-1], q, p_primes, q_primes[s:], tols, tols_prime))
    return layers, eps_table, eps_prime_table


def build_pyramid(pp: PrePath) -> Pyramid:
    """The pre-path's pyramid: `merge_layers` on its anchors' residue pairs,
    with one TorusPoint per layer entry built from the pairs it returns.

    Every prime pair (p_i, q_l), i <= l, meets in exactly one merge, so the
    kernel's lift inverse is computed once per pair.  The construction is
    deterministic (lift ties included), so identical pre-paths give
    identical triangles.
    """
    modulus = pp.modulus
    layers, eps_table, eps_prime_table = merge_layers(
        modulus.q, [(pt.num, pt.den) for pt in pp.top_anchors], pp.p_primes,
        pp.q_primes, (pp.eps.numerator, pp.eps.denominator))
    points = [tuple([TorusPoint(n, d, modulus) for n, d in layer]) for layer in layers[1:]]
    return Pyramid(modulus=modulus, p_primes=pp.p_primes, q_primes=pp.q_primes,
                   layers=(pp.top_anchors, *points), eps_table=tuple(eps_table),
                   eps_prime_table=tuple(eps_prime_table), eps=pp.eps)


def predicted_gap(
    j: int,
    eps: Rational,
    p_primes: tuple[int, ...],
    q_primes: tuple[int, ...],
) -> Fraction:
    """Closed-form anchor-column bound for a pre-path of tolerance eps:

        eps * (prod_{i=1}^{floor((j-1)/2)+1} p_i)^-1
            * (prod_{i=1}^{ceil((j-1)/2)}    q_{j-i})^-1

    for 1 <= j <= k; this is exactly what the tolerance recursion yields
    for the first column, so the constructed pyramid must beat it strictly.
    With h = floor((j-1)/2) + 1 the denominator is
    prod_{i<=h} p_i * prod_{h<=i<j} q_i.
    """
    k = len(p_primes)
    if not 1 <= j <= k:
        raise IndexError(f"j = {j} out of range 1..{k}")
    h = (j - 1) // 2 + 1
    return as_fraction(eps) / (prod(p_primes[:h]) * prod(q_primes[h - 1 : j - 1]))


@dataclass(slots=True)
class GapRow:
    """One row of `verify_pyramid`: the anchor-column gap at level j and
    predicted_gap(j), each held as a pair in lowest terms; `actual` and
    `predicted` build their Fractions when read."""

    j: int
    actual_pair: tuple[int, int]
    predicted_pair: tuple[int, int]
    passed: bool

    actual = pair_property("actual_pair")
    predicted = pair_property("predicted_pair")

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "actual": pair_to_str(self.actual_pair),
            "predicted": pair_to_str(self.predicted_pair),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class BoundReport:
    rows: tuple[GapRow, ...]


def layer_gaps(
    q: int, col: Sequence[Pair], q_primes: tuple[int, ...], tables: tuple, eps: Pair,
) -> list[tuple[int, Pair, Pair, bool]]:
    """The rows (j, gap, predicted, gap < predicted), j = 1..k, of
    `verify_pyramid` on the anchor column `col` as residue pairs mod q: the
    gap ||q_j * col[j] - col[j-1]|| and predicted_gap(j) = eps * q_prefix[h-1]
    / (p_prefix[h] * q_prefix[j-1]), read off the `prefix_tables`, each in
    lowest terms, and the strict `<` by one cross-multiplication."""
    e, f = eps
    pre_p, pre_q = tables[0], tables[1]
    rows = []
    for j in range(1, len(col)):
        g, d = pair_gap(q_primes[j - 1], col[j], 1, col[j - 1], q)
        h = (j - 1) // 2 + 1
        pn, pd = e * pre_q[h - 1], f * pre_p[h] * pre_q[j - 1]
        rows.append((j, lowest_terms(g, d), lowest_terms(pn, pd), g * pd < pn * d))
    return rows


def verify_pyramid(pp: PrePath, py: Pyramid) -> BoundReport:
    """Exact per-row comparison of anchor-column gaps with predicted_gap,
    by `layer_gaps`.

    Requires a pyramid built from the pre-path.  A failing row signals a
    construction bug; failures are report rows, not exceptions.
    """
    if (py.layers[0], py.p_primes, py.q_primes) != (
        pp.top_anchors, pp.p_primes, pp.q_primes
    ):
        raise PrePathError("pyramid does not start from this pre-path")
    return BoundReport(tuple([
        GapRow(*row) for row in layer_gaps(pp.modulus.q, py.column_pairs, pp.q_primes,
                                           py.tables, (pp.eps.numerator, pp.eps.denominator))
    ]))
