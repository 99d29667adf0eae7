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
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .primes import is_prime
from .torus import (
    Modulus,
    Rational,
    TorusPoint,
    aligned_reals,
    as_fraction,
    closest_lift_pair,
    convex_combine,
    frac_to_str,
    torus_norm,
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

    built as the closest lift pair followed by the convex combination with
    weights (eps1, eps2).  Both output inequalities are re-checked before
    returning; a failure would mean a construction bug, not bad input.
    """
    eps1, eps2 = as_fraction(eps1), as_fraction(eps2)
    if eps1 <= 0 or eps2 <= 0:
        raise PrePathError("tolerances must be positive")
    premise = torus_norm(a1.scale(p1) - a2.scale(p2))
    if premise >= eps1 + eps2:
        raise HypothesisViolation(
            f"||{p1}*a1 - {p2}*a2|| = {premise} >= eps1 + eps2 = {eps1 + eps2}"
        )
    b1, b2 = closest_lift_pair(a1, a2, p1, p2)
    ra, rb = aligned_reals(b1, b2)
    alpha = convex_combine(ra, rb, eps1, eps2, a1.modulus)
    assert torus_norm(alpha.scale(p2) - a1) < eps1 / p1
    assert torus_norm(alpha.scale(p1) - a2) < eps2 / p2
    return alpha


def layer_step(
    top: tuple[TorusPoint, ...],
    mid: tuple[TorusPoint, ...],
    p_primes: tuple[int, ...],
    q_primes: tuple[int, ...],
    eps: tuple[Fraction, ...],
    eps_prime: tuple[Fraction, ...],
) -> tuple[TorusPoint, ...]:
    """One layer of the iteration.

    With m = len(p_primes), takes anchors top[0..m] and mid[0..m-1]
    satisfying, for each j,

        ||q_j * top[j+1] - mid[j]|| < eps[j]
        ||p_j * top[j]   - mid[j]|| < eps_prime[j]

    and returns m merged points new[j] with

        ||p_j * new[j] - top[j+1]|| < eps[j] / q_j
        ||q_j * new[j] - top[j]  || < eps_prime[j] / p_j.

    Each entry is merge_two on (top[j], top[j+1]) with primes (p_j, q_j)
    and weights (eps_prime[j], eps[j]); the mid anchors only enter through
    the hypotheses, which imply the merge premise by the triangle
    inequality.
    """
    m = len(p_primes)
    if not (len(q_primes) == len(eps) == len(eps_prime) == m and len(top) == m + 1):
        raise PrePathError("inconsistent slice lengths")
    if len(mid) != m:
        raise PrePathError("mid tuple must have one entry per merged pair")
    for j in range(m):
        if torus_norm(top[j + 1].scale(q_primes[j]) - mid[j]) >= eps[j]:
            raise HypothesisViolation(f"q-side hypothesis fails at index {j + 1}")
        if torus_norm(top[j].scale(p_primes[j]) - mid[j]) >= eps_prime[j]:
            raise HypothesisViolation(f"p-side hypothesis fails at index {j + 1}")
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
            qn = torus_norm(
                self.top_anchors[j + 1].scale(self.q_primes[j]) - self.mid_anchors[j]
            )
            if qn >= self.eps[j]:
                raise HypothesisViolation(
                    f"q-side hypothesis fails at index {j + 1}: {qn} >= {self.eps[j]}"
                )
            pn = torus_norm(
                self.top_anchors[j].scale(self.p_primes[j]) - self.mid_anchors[j]
            )
            if pn >= self.eps_prime[j]:
                raise HypothesisViolation(
                    f"p-side hypothesis fails at index {j + 1}: "
                    f"{pn} >= {self.eps_prime[j]}"
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

    Step s consumes primes p_1..p_{k+1-s} and q_s..q_k.  The mid anchors
    for step s+1 are layer s's entries from the second onward, and the new
    hypothesis tolerances come from the previous step's output bounds:

        eps'[s+1][i] = eps[s][i] / q_{s+i-1}
        eps [s+1][i] = eps'[s][i+1] / p_{i+1}

    The construction is deterministic (closest_lift_pair ties included),
    so identical pre-paths give identical triangles.
    """
    k = pp.k
    layers = [pp.top_anchors]
    cur_eps = list(pp.eps)
    cur_eps_prime = list(pp.eps_prime)
    mids = pp.mid_anchors
    step_eps, step_eps_prime = [], []
    for s in range(1, k + 1):
        m = k + 1 - s
        ps = pp.p_primes[:m]
        qs = pp.q_primes[s - 1 : s - 1 + m]
        step_eps.append(tuple(cur_eps[:m]))
        step_eps_prime.append(tuple(cur_eps_prime[:m]))
        new_layer = layer_step(
            layers[-1], mids, ps, qs, step_eps[-1], step_eps_prime[-1]
        )
        mids = layers[-1][1:-1]
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
    eps = as_fraction(eps)
    denom = 1
    for i in range(1, (j - 1) // 2 + 2):
        denom *= p_primes[i - 1]
    for i in range(1, (j - 1 + 1) // 2 + 1):
        denom *= q_primes[j - i - 1]
    return eps / denom


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

    def to_json(self) -> dict:
        return {"rows": [r.to_json() for r in self.rows], "pass": self.all_passed}


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
        actual = torus_norm(col[j].scale(pp.q_primes[j - 1]) - col[j - 1])
        pred = predicted_gap(j, eps, pp.p_primes, pp.q_primes)
        rows.append(GapRow(j, actual, pred, actual < pred))
    return BoundReport(tuple(rows))


def pyramid_report_json(pp: PrePath, py: Pyramid) -> str:
    doc = {"pyramid": py.to_json(), "bounds": verify_pyramid(pp, py).to_json()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
