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

Each hypothesis is decided once: `PrePath` decides the first layer's, and
each later layer's are the previous merges' post-conditions (same gap, same
bound), which `merge_two` decides; `layer_step` only merges.

Every inequality here is decided on integers: a torus distance comes from
`torus.scaled_gap` as a pair (g, D) and is compared with a tolerance by
`torus.below`.  `merge_two` takes the closest lift pair from
`torus.lift_shifts` and forms the weighted combination over one integer
denominator, so each merged point costs one gcd; a Fraction is built for a
distance only where a report or an error message shows it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .primes import is_prime, prod
from .torus import (
    Modulus,
    Rational,
    TorusPoint,
    as_fraction,
    below,
    frac_to_str,
    lift_shifts,
    scaled_gap,
)


class PrePathError(ValueError):
    """Structurally invalid pre-path data."""


class HypothesisViolation(PrePathError):
    """Input distance at or above the tolerance the merge step requires."""


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
    Both output inequalities are re-checked before returning; a failure
    would mean a construction bug, not bad input, and raises AssertionError.
    """
    eps1, eps2 = as_fraction(eps1), as_fraction(eps2)
    e1, f1 = eps1.numerator, eps1.denominator
    e2, f2 = eps2.numerator, eps2.denominator
    if e1 <= 0 or e2 <= 0:
        raise PrePathError("tolerances must be positive")
    # eps1 : eps2 = w1 : w2, and eps1 + eps2 = (w1 + w2) / (f1 * f2)
    w1, w2 = e1 * f2, e2 * f1
    g, d = scaled_gap(p1, a1, p2, a2)
    if g * f1 * f2 >= (w1 + w2) * d:
        raise HypothesisViolation(
            f"||{p1}*a1 - {p2}*a2|| = {Fraction(g, d)} >= eps1 + eps2 = {eps1 + eps2}"
        )
    k1, _k2, s = lift_shifts(a1, a2, p1, p2)
    q = a1.modulus.q
    x1, x2 = a1.value, a2.value
    d1, d2 = x1.denominator, x2.denominator
    # b1 = (a2 + k1*Q)/p1 and b1 - b2 = s/(p1*p2*d1*d2), over one denominator
    den = (w1 + w2) * p1 * p2 * d1 * d2
    num = (x2.numerator + k1 * q * d2) * (w1 + w2) * p2 * d1 - w2 * s
    alpha = TorusPoint.canonical(Fraction(num % (q * den), den), a1.modulus)
    g, d = scaled_gap(p2, alpha, 1, a1)
    if g * f1 * p1 >= e1 * d:
        raise AssertionError(
            f"merge output: ||{p2}*alpha - a1|| = {Fraction(g, d)} >= eps1/{p1}"
        )
    g, d = scaled_gap(p1, alpha, 1, a2)
    if g * f2 * p2 >= e2 * d:
        raise AssertionError(
            f"merge output: ||{p1}*alpha - a2|| = {Fraction(g, d)} >= eps2/{p2}"
        )
    return alpha


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

    Each entry is merge_two on (top[j], top[j+1]) with primes (p_j, q_j)
    and weights (eps_prime[j], eps[j]).  The hypotheses are the caller's
    and are not re-checked, because each is already decided once: at the
    first layer `PrePath` decides them on its mid anchors; at a later layer
    mid[j] is entry j+1 of the layer before `top`, and they are the
    previous merges' post-conditions.  They imply each merge premise by the
    triangle inequality, which `merge_two` decides; a failure names its
    index.
    """
    m = len(p_primes)
    if not (len(q_primes) == len(eps) == len(eps_prime) == m and len(top) == m + 1):
        raise PrePathError("inconsistent slice lengths")
    out = []
    for j in range(m):
        try:
            out.append(
                merge_two(
                    top[j], top[j + 1], p_primes[j], q_primes[j], eps_prime[j], eps[j]
                )
            )
        except HypothesisViolation as exc:
            raise HypothesisViolation(f"merge failed at index {j + 1}: {exc}") from exc
    return tuple(out)


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
        k = self.k
        if k < 1:
            raise PrePathError("length must be at least 1")
        if not (
            len(self.top_anchors) == k + 1
            and len(self.mid_anchors) == k
            and len(self.q_primes) == len(self.eps) == len(self.eps_prime) == k
        ):
            raise PrePathError("inconsistent tuple lengths")
        allp = self.p_primes + self.q_primes
        if len(set(allp)) != 2 * k:
            raise PrePathError(f"the 2k primes must be distinct, got {allp}")
        for p in allp:
            if not is_prime(p):
                raise PrePathError(f"{p} is not prime")
            if self.modulus.q % p == 0:
                raise PrePathError(f"prime {p} divides the modulus {self.modulus.q}")
        for e in self.eps + self.eps_prime:
            if e <= 0:
                raise PrePathError("tolerances must be positive")
        for pt in self.top_anchors + self.mid_anchors:
            if pt.modulus.q != self.modulus.q:
                raise PrePathError("anchor modulus mismatch")
        for j in range(k):
            mid = self.mid_anchors[j]
            qn = scaled_gap(self.q_primes[j], self.top_anchors[j + 1], 1, mid)
            if not below(qn, self.eps[j]):
                raise HypothesisViolation(
                    f"q-side hypothesis fails at index {j + 1}: "
                    f"{Fraction(*qn)} >= {self.eps[j]}"
                )
            pn = scaled_gap(self.p_primes[j], self.top_anchors[j], 1, mid)
            if not below(pn, self.eps_prime[j]):
                raise HypothesisViolation(
                    f"p-side hypothesis fails at index {j + 1}: "
                    f"{Fraction(*pn)} >= {self.eps_prime[j]}"
                )

    @property
    def k(self) -> int:
        return len(self.p_primes)

    @property
    def uniform_eps(self) -> Fraction | None:
        vals = set(self.eps) | set(self.eps_prime)
        return next(iter(vals)) if len(vals) == 1 else None


@dataclass(frozen=True)
class Pyramid:
    """The triangular array built by iterating layer_step.

    layers[0] is the pre-path's top anchor tuple; layer s has k+1-s
    entries.  step_eps/step_eps_prime record the hypothesis tolerances in
    force at each step, so every bound downstream is auditable without
    re-deriving the recursion; the merge at step s+1 pairs p_primes[:m]
    with q_primes[s:s+m], m = k - s.
    """

    modulus: Modulus
    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    layers: tuple[tuple[TorusPoint, ...], ...]
    step_eps: tuple[tuple[Fraction, ...], ...]
    step_eps_prime: tuple[tuple[Fraction, ...], ...]

    @property
    def k(self) -> int:
        return len(self.layers) - 1

    @property
    def anchor_column(self) -> tuple[TorusPoint, ...]:
        return tuple(layer[0] for layer in self.layers)

    @property
    def top(self) -> TorusPoint:
        return self.layers[-1][0]

    @cached_property
    def uniform_eps(self) -> Fraction | None:
        """The pre-path's one tolerance, or None when its tolerances differ."""
        vals = set(self.step_eps[0]) | set(self.step_eps_prime[0])
        return next(iter(vals)) if len(vals) == 1 else None

    def qside_bound(self, step: int, entry: int) -> Fraction:
        """Bound on ||q_{step+entry-1} * layers[step][entry-1] -
        layers[step-1][entry-1]||; 1-based step and entry."""
        return self.step_eps_prime[step - 1][entry - 1] / self.p_primes[entry - 1]

    def pside_bound(self, step: int, entry: int) -> Fraction:
        """Bound on ||p_entry * layers[step][entry-1] - layers[step-1][entry]||;
        1-based step and entry."""
        return (
            self.step_eps[step - 1][entry - 1] / self.q_primes[step + entry - 2]
        )

    def to_json(self) -> dict:
        return {
            "modulus": str(self.modulus.q),
            "p_primes": list(self.p_primes),
            "q_primes": list(self.q_primes),
            "layers": [
                [frac_to_str(pt.value) for pt in layer] for layer in self.layers
            ],
        }


def build_pyramid(pp: PrePath) -> Pyramid:
    """Iterate layer_step to the apex, tracking tolerances exactly.

    Step s consumes primes p_1..p_{k+1-s} and q_s..q_k.  The hypotheses of
    step s+1 are step s's merge post-conditions, relative to the interior
    entries of layer s-1, so its tolerances are the step-s output bounds:

        eps'[s+1][i] = eps[s][i] / q_{s+i-1}
        eps [s+1][i] = eps'[s][i+1] / p_{i+1}

    The construction is deterministic (closest_lift_pair ties included),
    so identical pre-paths give identical triangles.
    """
    k = pp.k
    layers = [pp.top_anchors]
    cur_eps = list(pp.eps)
    cur_eps_prime = list(pp.eps_prime)
    step_eps, step_eps_prime = [], []
    for s in range(1, k + 1):
        m = k + 1 - s
        ps = pp.p_primes[:m]
        qs = pp.q_primes[s - 1 : s - 1 + m]
        step_eps.append(tuple(cur_eps[:m]))
        step_eps_prime.append(tuple(cur_eps_prime[:m]))
        new_layer = layer_step(layers[-1], ps, qs, step_eps[-1], step_eps_prime[-1])
        next_eps = [cur_eps_prime[i + 1] / pp.p_primes[i + 1] for i in range(m - 1)]
        next_eps_prime = [cur_eps[i] / qs[i] for i in range(m - 1)]
        cur_eps, cur_eps_prime = next_eps, next_eps_prime
        layers.append(new_layer)
    return Pyramid(
        modulus=pp.modulus,
        p_primes=pp.p_primes,
        q_primes=pp.q_primes,
        layers=tuple(layers),
        step_eps=tuple(step_eps),
        step_eps_prime=tuple(step_eps_prime),
    )


def gap_denominator(
    j: int, p_primes: tuple[int, ...], q_primes: tuple[int, ...]
) -> int:
    """eps / predicted_gap(j, eps, ...): with h = floor((j-1)/2) + 1 it is

        prod_{i=1}^{h} p_i * prod_{i=h}^{j-1} q_i.
    """
    h = (j - 1) // 2 + 1
    return prod(p_primes[:h]) * prod(q_primes[h - 1 : j - 1])


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
    """
    k = len(p_primes)
    if not 1 <= j <= k:
        raise IndexError(f"j = {j} out of range 1..{k}")
    return as_fraction(eps) / gap_denominator(j, p_primes, q_primes)


@dataclass(frozen=True)
class GapRow:
    j: int
    actual: Fraction
    predicted: Fraction
    passed: bool

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "actual": frac_to_str(self.actual),
            "predicted": frac_to_str(self.predicted),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class BoundReport:
    rows: tuple[GapRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def verify_pyramid(pp: PrePath, py: Pyramid) -> BoundReport:
    """Exact per-row comparison of anchor-column gaps with predicted_gap.

    Requires a uniform-tolerance pre-path and a pyramid built from it.  A
    failing row signals a construction bug; failures are report rows, not
    exceptions.
    """
    eps = pp.uniform_eps
    if eps is None:
        raise PrePathError("verification needs uniform tolerances")
    if py.layers[0] != pp.top_anchors:
        raise PrePathError("pyramid does not start from this pre-path")
    col = py.anchor_column
    rows = []
    for j in range(1, pp.k + 1):
        gap = scaled_gap(pp.q_primes[j - 1], col[j], 1, col[j - 1])
        pred = predicted_gap(j, eps, pp.p_primes, pp.q_primes)
        rows.append(GapRow(j, Fraction(*gap), pred, below(gap, pred)))
    return BoundReport(tuple(rows))
