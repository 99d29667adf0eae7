"""Pre-paths and pyramids: the layered merge construction on R/QZ.

A pre-path of length k is two anchor tuples, 2k distinct primes coprime to
the modulus, and per-index tolerances under which consecutive anchors are
multiplicatively related.  Iterating the two-point merge produces a
triangular array of frequencies (a pyramid) whose apex is simultaneously
close, after multiplication by suitable prime products, to every anchor.

Tolerances evolve deterministically through the iteration, so each layer's
hypothesis bounds are carried along explicitly; `predicted_gap` is the
closed form of the anchor-column bound and `verify_pyramid` checks the
constructed pyramid against it row by row, in exact arithmetic.

Where each decision lives:
- `PrePath` decides the primes (distinct, prime, not dividing Q), that the
  tolerances are positive and the first layer's hypotheses, once, on the
  integer pairs of its anchors and tolerances.  Each later layer's
  hypotheses are the previous merges' post-conditions (same gap, same
  bound).
- `_merge` is the one merge kernel.  On residues and tolerances given as
  integer pairs it decides the premise ||p1*a1 - p2*a2|| < eps1 + eps2,
  takes the lift shift from `torus.nearest_lift`, forms the weighted
  combination over one denominator, reduces it by one gcd and decides
  both post-conditions; it builds no Fraction and no TorusPoint.
  `build_pyramid` sends all k(k+1)/2 merges of a pyramid to it, layer by
  layer on residue pairs, and builds each layer entry's TorusPoint once;
  `merge_two` first checks its primes and tolerances, `layer_step` its
  slice lengths and tolerances.
- A `Pyramid` holds its tolerance tables and derives, at construction,
  its anchor column, apex, prefix products and anchor-column sums from
  its primes and layers, so a copy made with other layers gets its own.
  `verify_pyramid` and the certificates in `pathgraph` read them and
  decide every row by one integer cross-multiplication.

A torus distance comes from `torus.scaled_gap` or `torus.residue_gap` as a
pair (g, D).  A report row (`GapRow` here, the certificates in
`pathgraph`) holds its values as pairs in lowest terms, one gcd each, and
writes them as text directly; a Fraction is built for a value only when
it is read (`row.actual`) or an error message shows it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .primes import is_prime
from .torus import (
    Modulus,
    Rational,
    TorusPoint,
    as_fraction,
    check_lift_primes,
    lowest_terms,
    nearest_lift,
    pair_property,
    pair_to_str,
    residue_gap,
    scaled_gap,
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
    return TorusPoint.canonical(*alpha, modulus)


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


def _points(pairs: list[tuple[int, int]], modulus: Modulus) -> tuple[TorusPoint, ...]:
    canonical = TorusPoint.canonical
    return tuple([canonical(n, d, modulus) for n, d in pairs])


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
    return _points(merged, modulus)


@dataclass(frozen=True)
class PrePath:
    """Anchors, primes and tolerances forming a valid length-k pre-path.

    top_anchors has k+1 entries; mid_anchors has k entries, the j-th being
    the reference point both hypothesis inequalities at index j+1 refer to.
    All 2k primes are distinct and coprime to the modulus.  Hypotheses are
    checked exactly at construction.
    """

    modulus: Modulus
    top_anchors: tuple[TorusPoint, ...]
    mid_anchors: tuple[TorusPoint, ...]
    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    eps: tuple[Fraction, ...]
    eps_prime: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ps, qs, top, mid = self.p_primes, self.q_primes, self.top_anchors, self.mid_anchors
        k = len(ps)
        if k < 1:
            raise PrePathError("length must be at least 1")
        if not (
            len(top) == k + 1
            and len(mid) == k
            and len(qs) == len(self.eps) == len(self.eps_prime) == k
        ):
            raise PrePathError("inconsistent tuple lengths")
        q = self.modulus.q
        allp = ps + qs
        if len(set(allp)) != 2 * k:
            raise PrePathError(f"the 2k primes must be distinct, got {allp}")
        for p in allp:
            if not is_prime(p):
                raise PrePathError(f"{p} is not prime")
            if q % p == 0:
                raise PrePathError(f"prime {p} divides the modulus {q}")
        # each tolerance as its integer pair (n, d), d > 0, so n > 0 decides
        # eps > 0 and g * d < n * D decides g/D < eps
        eps = [(e.numerator, e.denominator) for e in self.eps]
        eps_prime = [(e.numerator, e.denominator) for e in self.eps_prime]
        for n, _d in eps + eps_prime:
            if n <= 0:
                raise PrePathError("tolerances must be positive")
        for pt in top + mid:
            if pt.modulus.q != q:
                raise PrePathError("anchor modulus mismatch")
        for j, (p, qj, m, (n, d), (n2, d2)) in enumerate(zip(ps, qs, mid, eps, eps_prime)):
            g, gd = scaled_gap(qj, top[j + 1], 1, m)
            if g * d >= n * gd:
                raise HypothesisViolation(
                    f"q-side hypothesis fails at index {j + 1}: "
                    f"{Fraction(g, gd)} >= {self.eps[j]}"
                )
            g, gd = scaled_gap(p, top[j], 1, m)
            if g * d2 >= n2 * gd:
                raise HypothesisViolation(
                    f"p-side hypothesis fails at index {j + 1}: "
                    f"{Fraction(g, gd)} >= {self.eps_prime[j]}"
                )

    @property
    def k(self) -> int:
        return len(self.p_primes)

    @property
    def uniform_eps(self) -> Fraction | None:
        """The one tolerance, or None when the tolerances differ."""
        e = self.eps[0]
        same = all(x is e or x == e for x in self.eps + self.eps_prime)
        return e if same else None


@dataclass(frozen=True)
class Pyramid:
    """The triangular array built by iterating the layer merge, with the
    integer tables its bounds are read from.

    layers[0] is the pre-path's top anchor tuple; layer s has k+1-s
    entries.  The merge at step s+1 pairs p_primes[:m] with
    q_primes[s:s+m], m = k - s, under the tolerances eps_table[s] and
    eps_prime_table[s]: each is a pre-path tolerance n/d written as the
    pair (n, d * an integer product), the exact recursion of
    `build_pyramid`, so every bound downstream is auditable without
    re-deriving it.

    The other tables are derived from the primes and layers at
    construction, so a pyramid made by `dataclasses.replace` has tables
    that match its own layers.  anchor_column holds each layer's first
    entry, and top the apex.  p_prefix[i] and q_prefix[i] are the products
    of the first i primes.  With h(t) = floor((t-1)/2) + 1 and H = h(k),
    column_sums[t] is
    sum_{u<=t} q_prefix[h(u)-1] * p_prefix[H] / p_prefix[h(u)], a whole
    number, so that for a uniform tolerance eps

        sum_{t=first..last} predicted_gap(t) * prod_{i=first..t-1} q_i
            = eps * (column_sums[last] - column_sums[first-1])
                  / (column_den * q_prefix[first-1]),

    column_den = p_prefix[H].
    """

    modulus: Modulus
    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    layers: tuple[tuple[TorusPoint, ...], ...]
    eps_table: tuple[tuple[tuple[int, int], ...], ...]
    eps_prime_table: tuple[tuple[tuple[int, int], ...], ...]
    uniform_eps: Fraction | None
    anchor_column: tuple[TorusPoint, ...] = field(init=False, repr=False, compare=False)
    top: TorusPoint = field(init=False, repr=False, compare=False)
    p_prefix: tuple[int, ...] = field(init=False, repr=False, compare=False)
    q_prefix: tuple[int, ...] = field(init=False, repr=False, compare=False)
    column_sums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    column_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.k
        p_prefix, q_prefix = [1], [1]
        for p, q in zip(self.p_primes, self.q_primes):
            p_prefix.append(p_prefix[-1] * p)
            q_prefix.append(q_prefix[-1] * q)
        top_p = p_prefix[(k - 1) // 2 + 1]
        column_sums = [0]
        for t in range(1, k + 1):
            h = (t - 1) // 2 + 1
            column_sums.append(column_sums[-1] + q_prefix[h - 1] * (top_p // p_prefix[h]))
        derived = {
            "anchor_column": tuple(layer[0] for layer in self.layers),
            "top": self.layers[-1][0],
            "p_prefix": tuple(p_prefix),
            "q_prefix": tuple(q_prefix),
            "column_sums": tuple(column_sums),
            "column_den": top_p,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return len(self.layers) - 1

    def to_json(self) -> dict:
        return {
            "modulus": str(self.modulus.q),
            "p_primes": list(self.p_primes),
            "q_primes": list(self.q_primes),
            "layers": [
                [f"{pt.num}/{pt.den}" for pt in layer] for layer in self.layers
            ],
        }


def build_pyramid(pp: PrePath) -> Pyramid:
    """Run all k(k+1)/2 merges to the apex, tracking tolerances exactly.

    Step s consumes primes p_1..p_{k+1-s} and q_s..q_k.  The hypotheses of
    step s+1 are step s's merge post-conditions, relative to the interior
    entries of layer s-1, so its tolerances are the step-s output bounds:

        eps'[s+1][i] = eps[s][i] / q_{s+i-1}
        eps [s+1][i] = eps'[s][i+1] / p_{i+1}

    kept as integer pairs whose denominators pick up one prime per step.
    The primes and the first layer's hypotheses are `PrePath`'s, decided
    once, so every merge goes straight to the integer kernel, on the
    layer before as residue pairs; each entry becomes a TorusPoint once.
    Every prime pair (p_i, q_l), i <= l, meets in exactly one merge, so the
    kernel's lift inverse is computed once per pair.  The construction is
    deterministic (lift ties included), so identical pre-paths give
    identical triangles.
    """
    k = pp.k
    ps, qs = pp.p_primes, pp.q_primes
    modulus = pp.modulus
    eps = tuple([(e.numerator, e.denominator) for e in pp.eps])
    eps_prime = tuple([(e.numerator, e.denominator) for e in pp.eps_prime])
    top = [(pt.num, pt.den) for pt in pp.top_anchors]
    layers = [pp.top_anchors]
    eps_table, eps_prime_table = [], []
    for s in range(k):
        eps_table.append(eps)
        eps_prime_table.append(eps_prime)
        top = _merge_layer(top, modulus.q, ps, qs[s:], eps, eps_prime)
        layers.append(_points(top, modulus))
        eps, eps_prime = (
            tuple([(n, d * p) for (n, d), p in zip(eps_prime[1:], ps[1:])]),
            tuple([(n, d * q) for (n, d), q in zip(eps[:-1], qs[s:])]),
        )
    return Pyramid(
        modulus=modulus,
        p_primes=ps,
        q_primes=qs,
        layers=tuple(layers),
        eps_table=tuple(eps_table),
        eps_prime_table=tuple(eps_prime_table),
        uniform_eps=pp.uniform_eps,
    )


def predicted_gap(
    j: int,
    eps: Rational,
    p_primes: tuple[int, ...],
    q_primes: tuple[int, ...],
) -> Fraction:
    """Closed-form anchor-column bound for a uniform-tolerance pre-path:

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


class GapRow:
    """One row of `verify_pyramid`: the anchor-column gap at level j and
    predicted_gap(j), each held as a pair in lowest terms; `actual` and
    `predicted` build their Fractions when read."""

    __slots__ = ("j", "actual_pair", "predicted_pair", "passed")

    def __init__(self, j: int, actual_pair: tuple[int, int],
                 predicted_pair: tuple[int, int], passed: bool) -> None:
        self.j = j
        self.actual_pair = actual_pair
        self.predicted_pair = predicted_pair
        self.passed = passed

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


def verify_pyramid(pp: PrePath, py: Pyramid) -> BoundReport:
    """Exact per-row comparison of anchor-column gaps with predicted_gap.

    Requires a uniform-tolerance pre-path and a pyramid built from it.
    predicted_gap(j) = eps * q_prefix[h-1] / (p_prefix[h] * q_prefix[j-1])
    is read off the pyramid's prefix tables, and each row's strict `<` is
    one integer cross-multiplication.  A failing row signals a
    construction bug; failures are report rows, not exceptions.
    """
    eps = pp.uniform_eps
    if eps is None:
        raise PrePathError("verification needs uniform tolerances")
    if (py.layers[0], py.p_primes, py.q_primes) != (
        pp.top_anchors, pp.p_primes, pp.q_primes
    ):
        raise PrePathError("pyramid does not start from this pre-path")
    e, f = eps.numerator, eps.denominator
    col, pre_p, pre_q = py.anchor_column, py.p_prefix, py.q_prefix
    rows = []
    for j in range(1, pp.k + 1):
        g, d = scaled_gap(pp.q_primes[j - 1], col[j], 1, col[j - 1])
        h = (j - 1) // 2 + 1
        pn, pd = e * pre_q[h - 1], f * pre_p[h] * pre_q[j - 1]
        rows.append(GapRow(j, lowest_terms(g, d), lowest_terms(pn, pd), g * pd < pn * d))
    return BoundReport(tuple(rows))
