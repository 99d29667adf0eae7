"""Global frequency recovery: hub selection, disjoint split-route pairs,
loop pyramids, per-target local estimates and their aggregation.

For a pair of prime-disjoint split routes from the hub to a common target,
the closed loop (first route followed by the inverted second) admits a
pyramid whose apex alpha_y nearly annihilates D = prod(p-labels) -
prod(q-labels):  D * alpha_y = n * Q_y + e with |e| certified by the exact
apex-to-base bounds.  The integer part yields the rational component
(u/d) * Q_y with d dividing |D|; the residue e yields the archimedean
component T_y.  Aggregation anchors on the estimate with the largest
shared-witness mass and keeps estimates agreeing both archimedeanly
(|T - T_y| <= tol) and rationally (congruent modulo the gcd modulus).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .pathgraph import (
    Path,
    PathError,
    concat_paths,
    enumerate_split_paths,
    invert_path,
    path_prepath,
    peel_regular,
    top_anchor_certificate,
    validate_path_modulus,
)
from .primes import floor_nth_root, prod
from .pyramid import PrePathError, build_pyramid
from .synth import GroundTruth, Instance
from .torus import MALFORMED, Modulus, as_fraction, frac_to_str, norm_mod, str_to_frac


class EmptyGraphError(RuntimeError):
    pass


class NoConsensusError(RuntimeError):
    pass


class InvariantViolation(AssertionError):
    pass


class RecordError(ValueError):
    """A recovery record that is malformed or was made by another run."""


@dataclass(frozen=True)
class RecoverConfig:
    """Free dials of the recovery pipeline.

    tol_t defaults to x_hub / H^(3/4) with the root taken as an exact
    integer floor.
    """

    k: int = 2
    min_common_witness: int = 1
    tol_t: Fraction | None = None
    path_limit: int = 20000
    d_min: int | None = None  # peeling degree override; None uses the instance's

    def default_tol_t(self, hub_x: Fraction, h_scale: int) -> Fraction:
        return hub_x / max(1, floor_nth_root(h_scale**3, 4))


def round_half_down(z: Fraction) -> int:
    """Nearest integer, half-integer ties toward minus infinity."""
    n = (as_fraction(z)).__floor__()
    return n + 1 if z - n > Fraction(1, 2) else n


@dataclass(frozen=True)
class HubSelection:
    index: int
    survival_count: int


def select_hub(inst: Instance, d_min: int | None = None) -> HubSelection:
    """The site surviving witness-wise peeling most often; ties to smallest x."""
    if not inst.edges:
        raise EmptyGraphError("instance has no edges")
    params = inst.params
    degree = params.d_min if d_min is None else d_min
    scores = {i: 0 for i in range(len(inst.cfg.sites))}
    for w in params.witness_primes():
        for i in peel_regular(inst.cfg, inst.edges, degree, w):
            scores[i] += 1
    best = min(
        scores, key=lambda i: (-scores[i], inst.cfg.sites[i].x)
    )
    return HubSelection(best, scores[best])


@dataclass(frozen=True)
class PathPair:
    target_index: int
    first: Path
    second: Path
    q_mod: Modulus


@dataclass(frozen=True)
class PairSearch:
    pairs: tuple[PathPair, ...]
    paths_found: int
    truncated: bool


def find_disjoint_path_pairs(
    inst: Instance,
    hub_index: int,
    k: int,
    min_common_witness: int = 1,
    path_limit: int = 20000,
) -> PairSearch:
    """Prime-disjoint pairs of split routes from the hub to a common target.

    Both routes are split walks of length k; their 2k-prime sets must be
    disjoint and their witness intersections at least min_common_witness
    primes large.  The pair modulus is the product of the shared witness
    primes, re-validated against every step relation through the checked
    coprime combination.
    """
    enum = enumerate_split_paths(
        inst.cfg, inst.edges, hub_index, k, limit=path_limit
    )
    groups: dict[int, list[Path]] = {}
    for path in enum.paths:
        end = path.site_indices[-1]
        if end != hub_index:
            groups.setdefault(end, []).append(path)
    eps = inst.params.eps_edge
    pairs: list[PathPair] = []
    for end in sorted(groups):
        for a, b in itertools.combinations(groups[end], 2):
            pa = set(a.p_primes + a.q_primes)
            pb = set(b.p_primes + b.q_primes)
            if pa & pb:
                continue
            common = a.common_witness & b.common_witness
            if len(common) < max(1, min_common_witness):
                continue
            q_mod = Modulus(prod(sorted(common)), tuple(sorted(common)))
            try:
                validate_path_modulus(a, q_mod, eps)
                validate_path_modulus(b, q_mod, eps)
            except PathError:
                continue
            pairs.append(PathPair(end, a, b, q_mod))
    return PairSearch(tuple(pairs), len(enum.paths), enum.truncated)


@dataclass(frozen=True)
class LocalEstimate:
    """Per-target decomposition of the loop apex.

    e = D * alpha_y - n * Q_y is the signed residue modulo Q_y (|e| <= Q_y/2,
    ties resolved downward); (u/d) is n/D mod 1 in lowest terms, so d divides
    |D|.  res_hub and res_target are the exact residuals of the two base
    congruences after rounding out the integer parts a_y, b_y.
    """

    target_index: int
    target_x: Fraction
    q_mod: Modulus
    d_big: int
    e: Fraction
    u: int
    d: int
    t_y: Fraction
    a_y: int
    b_y: int
    res_hub: Fraction
    res_target: Fraction
    apex_bound: Fraction

    def to_row(self) -> dict:
        return {
            "target": self.target_index,
            "target_x": frac_to_str(self.target_x),
            "Q_y": str(self.q_mod.q),
            "Q_y_factors": sorted(self.q_mod.factors),
            "D": str(self.d_big),
            "T_y": frac_to_str(self.t_y),
            "d_y": self.d,
            "u_y": self.u,
            "a_y": self.a_y,
            "b_y": self.b_y,
            "res_hub": frac_to_str(self.res_hub),
            "res_target": frac_to_str(self.res_target),
        }


@dataclass(frozen=True)
class DroppedTarget:
    target_index: int
    reason: str


def local_estimate(
    inst: Instance, hub_index: int, pair: PathPair
) -> LocalEstimate | DroppedTarget:
    """Extract (T_y, a_y, b_y, d_y, Q_y) from one disjoint route pair.

    Loud failure modes return DroppedTarget with a reason instead of
    snapping values silently; an exactly zero D would violate the
    prime-disjointness invariant and raises.
    """
    hub = inst.cfg.sites[hub_index]
    target = inst.cfg.sites[pair.target_index]
    loop = concat_paths(pair.first, invert_path(pair.second))
    try:
        pp = path_prepath(loop, inst.params.eps_edge, modulus=pair.q_mod)
    except PrePathError as exc:
        return DroppedTarget(pair.target_index, f"loop pre-path invalid: {exc}")
    py = build_pyramid(pp)
    alpha_y = py.top
    two_k = loop.k
    k = pair.first.k
    prod_q = prod(loop.q_primes)
    prod_p = prod(loop.p_primes)
    d_big = prod_p - prod_q
    if d_big == 0:
        raise InvariantViolation("product difference vanished for a disjoint pair")
    cert_lo = top_anchor_certificate(loop, py, 1)
    cert_hi = top_anchor_certificate(loop, py, two_k + 1)
    cert_mid = top_anchor_certificate(loop, py, k + 1)
    for cert in (cert_lo, cert_hi, cert_mid):
        if not cert.passed:
            raise InvariantViolation("apex certificate failed on a valid loop")
    q_val = Fraction(pair.q_mod.q)
    apex_bound = cert_lo.bound + cert_hi.bound
    if 2 * apex_bound >= q_val:
        return DroppedTarget(
            pair.target_index, "certificate bound exceeds half the modulus"
        )
    d_alpha = d_big * alpha_y.value
    n = round_half_down(d_alpha / q_val)
    e = d_alpha - n * q_val
    if abs(e) != norm_mod(d_alpha, pair.q_mod):
        raise InvariantViolation("signed apex residue disagrees with the norm")
    if abs(e) > apex_bound:
        return DroppedTarget(
            pair.target_index, "apex residue above its certificate bound"
        )
    frac_part = Fraction(n % d_big, d_big)
    u, d = frac_part.numerator, frac_part.denominator
    t_y = e * hub.x * prod_q / d_big
    # hub-side congruence: alpha_0 = (a/d) Q_y + T_y/x_0 + res  (mod Q_y)
    z_hub = d * (hub.alpha - t_y / hub.x) / q_val
    a_y = round_half_down(z_hub) % d
    res_hub = norm_mod(hub.alpha - Fraction(a_y, d) * q_val - t_y / hub.x, pair.q_mod)
    if res_hub > cert_lo.bound:
        return DroppedTarget(pair.target_index, "hub residual above tolerance")
    # target-side congruence: beta = (b/d) Q_y + T_y/y + res  (mod Q_y);
    # replacing T_y/x_0 * prod(p)/prod(q) by T_y/y costs an exact transfer term
    ratio_first = Fraction(prod(pair.first.p_primes), prod(pair.first.q_primes))
    transfer = abs(t_y / hub.x * ratio_first - t_y / target.x)
    target_bound = cert_mid.bound + transfer
    z_tgt = d * (target.alpha - t_y / target.x) / q_val
    b_y = round_half_down(z_tgt) % d
    res_target = norm_mod(
        target.alpha - Fraction(b_y, d) * q_val - t_y / target.x, pair.q_mod
    )
    if res_target > target_bound:
        return DroppedTarget(pair.target_index, "target residual above tolerance")
    return LocalEstimate(
        target_index=pair.target_index,
        target_x=target.x,
        q_mod=pair.q_mod,
        d_big=d_big,
        e=e,
        u=u,
        d=d,
        t_y=t_y,
        a_y=a_y,
        b_y=b_y,
        res_hub=res_hub,
        res_target=res_target,
        apex_bound=apex_bound,
    )


@dataclass(frozen=True)
class GlobalFrequency:
    t: Fraction
    q: int
    anchor_target: int
    accepted: tuple[LocalEstimate, ...]
    tied_moduli: tuple[int, ...]
    cluster_width: Fraction
    targets_total: int

    @property
    def coverage(self) -> Fraction:
        if self.targets_total == 0:
            return Fraction(0)
        return Fraction(len(self.accepted), self.targets_total)

    def to_json(self) -> dict:
        anchor_q = next(
            (e.q_mod.q for e in self.accepted if e.target_index == self.anchor_target),
            1,
        )
        return {
            "T": frac_to_str(self.t),
            "q": self.q,
            "anchor_target": self.anchor_target,
            "accepted": [e.to_row() for e in self.accepted],
            "tied_moduli": list(self.tied_moduli),
            "cluster_width": frac_to_str(self.cluster_width),
            "targets_total": self.targets_total,
            "coverage": frac_to_str(self.coverage),
            "gcd_moduli": {
                str(e.target_index): str(gcd(anchor_q, e.q_mod.q))
                for e in self.accepted
            },
        }


def _shared_witness_count(a: Modulus, b: Modulus) -> int:
    return len(set(a.factors) & set(b.factors))


def _rationally_consistent(anchor: LocalEstimate, est: LocalEstimate) -> bool:
    """(a_y/d_y) Q_y = (a0/d0) Q_0 modulo gcd(Q_y, Q_0), decided exactly."""
    q_tilde = gcd(anchor.q_mod.q, est.q_mod.q)
    delta = (
        Fraction(est.a_y, est.d) * est.q_mod.q
        - Fraction(anchor.a_y, anchor.d) * anchor.q_mod.q
    )
    return (delta / q_tilde).denominator == 1


def aggregate_global(
    estimates: list[LocalEstimate] | tuple[LocalEstimate, ...],
    tol_t: Fraction,
    min_cluster: Fraction = Fraction(1, 2),
    targets_total: int | None = None,
) -> GlobalFrequency:
    """Anchor on the largest shared-witness mass and keep agreeing estimates.

    The anchor maximizes the total number of witness primes its modulus
    shares with the other estimates (ties to the smallest target x).  An
    estimate is accepted when |T - T_y| <= tol_t and its rational part is
    congruent to the anchor's modulo the gcd modulus.  The global modulus
    q is the most frequent denominator among accepted estimates; all tied
    denominators are reported.
    """
    estimates = tuple(estimates)
    if not estimates:
        raise NoConsensusError("no local estimates to aggregate")
    tol_t = as_fraction(tol_t)
    mass = [
        sum(
            _shared_witness_count(a.q_mod, b.q_mod)
            for b in estimates
            if b is not a
        )
        for a in estimates
    ]
    order = sorted(
        range(len(estimates)),
        key=lambda i: (-mass[i], estimates[i].target_x, estimates[i].target_index),
    )
    anchor = estimates[order[0]]
    t_global = anchor.t_y
    accepted = tuple(
        e
        for e in estimates
        if abs(t_global - e.t_y) <= tol_t and _rationally_consistent(anchor, e)
    )
    if len(accepted) < min_cluster * len(estimates):
        raise NoConsensusError(
            f"largest cluster holds {len(accepted)} of {len(estimates)} estimates"
        )
    counts: dict[int, int] = {}
    for e in accepted:
        counts[e.d] = counts.get(e.d, 0) + 1
    top = max(counts.values())
    tied = tuple(sorted(d for d, c in counts.items() if c == top))
    width = max((abs(t_global - e.t_y) for e in accepted), default=Fraction(0))
    return GlobalFrequency(
        t=t_global,
        q=tied[0],
        anchor_target=anchor.target_index,
        accepted=accepted,
        tied_moduli=tied,
        cluster_width=width,
        targets_total=targets_total if targets_total is not None else len(estimates),
    )


@dataclass(frozen=True)
class RecoveryScore:
    status: str
    rel_t_error: Fraction | None = None
    q_match: bool | None = None
    coverage: Fraction | None = None
    residues_consistent: bool | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "rel_T_error": (
                frac_to_str(self.rel_t_error) if self.rel_t_error is not None else None
            ),
            "q_match": self.q_match,
            "coverage": (
                frac_to_str(self.coverage) if self.coverage is not None else None
            ),
            "residues_consistent": self.residues_consistent,
        }


def _malformed(exc: Exception) -> RecordError:
    return RecordError(f"malformed recovery record: {type(exc).__name__}: {exc}")


def _int(v, lo: float = -inf, hi: float = inf) -> int:
    """v itself when it is an integer in [lo, hi); ValueError otherwise."""
    if type(v) is not int or not lo <= v < hi:
        raise ValueError(f"{v!r} is not an integer in [{lo}, {hi})")
    return v


def _decimal(s) -> int:
    """A positive integer recorded as a decimal string."""
    if type(s) is not str or not s.isdigit():
        raise ValueError(f"{s!r} is not a decimal string")
    return _int(int(s), 1)


def score_global(
    glob: dict | None,
    truth: GroundTruth | None,
    hub_index: int | None = None,
    sites: int | None = None,
) -> RecoveryScore:
    """Grade the `global` block of a recovery record against the planted truth.

    Reads T, q, coverage and each accepted row's target, Q_y, d_y, a_y and
    b_y exactly from their recorded forms; a malformed block, or a target
    outside range(sites), raises RecordError.  Refuses gracefully when the
    truth is held out; reports the relative archimedean error, whether the
    recovered modulus equals the planted one, the accepted fraction of
    reachable targets, and (rational mode) whether every accepted residue
    matches the planted residue map.
    """
    if glob is not None:
        top = inf if sites is None else sites
        try:
            t, q = str_to_frac(glob["T"]), _int(glob["q"])
            coverage = str_to_frac(glob["coverage"])
            rows = [
                (_int(r["target"], 0, top), _decimal(r["Q_y"]),
                 *(_int(r[key]) for key in ("d_y", "a_y", "b_y")))
                for r in glob["accepted"]
            ]
        except MALFORMED as exc:
            raise _malformed(exc) from exc
    if truth is None:
        return RecoveryScore(status="truth unavailable")
    if glob is None:
        return RecoveryScore(status="recovery failed")

    def consistent(target: int, q_y: int, d_y: int, a_y: int, b_y: int) -> bool:
        q_star, a_map = truth.q_star, truth.a_map
        if d_y != q_star or truth.carrier % q_y:
            return False
        w = truth.carrier // q_y
        hub_ok = hub_index is None or (a_map.get(hub_index, 0) * w - a_y) % q_star == 0
        return hub_ok and (a_map.get(target, 0) * w - b_y) % q_star == 0

    return RecoveryScore(
        status="ok",
        rel_t_error=abs(t - truth.t_star) / max(1, abs(truth.t_star)),
        q_match=q == truth.q_star,
        coverage=coverage,
        residues_consistent=all(consistent(*row) for row in rows),
    )


def score_recovery(
    gf: GlobalFrequency | None,
    truth: GroundTruth | None,
    hub_index: int | None = None,
) -> RecoveryScore:
    """Compare a recovery against the planted truth (see score_global)."""
    return score_global(gf.to_json() if gf is not None else None, truth, hub_index)


def score_record(doc: dict, inst: Instance, k: int) -> RecoveryScore:
    """Grade a recorded recovery, the document recover writes, against the
    instance's planted truth.

    Refuses with RecordError a malformed record, one from another instance
    (its params or seed differ), one made with a k other than `k`, and one
    naming a hub or target the instance does not have.
    """
    try:
        made = (doc["params"], doc["seed"])
        made_k, glob = _int(doc["config"]["k"]), doc["global"]
        hub = _int(doc["hub"], 0, len(inst.cfg.sites))
    except MALFORMED as exc:
        raise _malformed(exc) from exc
    if made != (inst.params.to_json(), inst.params.seed):
        raise RecordError("recovery record: params or seed differ from the instance's")
    if made_k != k:
        raise RecordError(f"recovery record was made with k={made_k}, not k={k}")
    return score_global(glob, inst.truth, hub, sites=len(inst.cfg.sites))


@dataclass(frozen=True)
class RecoveryResult:
    hub_index: int
    hub_survival: int
    paths_found: int
    truncated: bool
    pairs_found: int
    reachable_targets: int
    estimates: tuple[LocalEstimate, ...]
    dropped: tuple[DroppedTarget, ...]
    global_freq: GlobalFrequency | None
    error: str | None

    def to_json(self) -> dict:
        return {
            "hub": self.hub_index,
            "hub_survival": self.hub_survival,
            "paths_found": self.paths_found,
            "truncated": self.truncated,
            "pairs_found": self.pairs_found,
            "reachable_targets": self.reachable_targets,
            "estimates": [e.to_row() for e in self.estimates],
            "dropped": [
                {"target": d.target_index, "reason": d.reason} for d in self.dropped
            ],
            "global": self.global_freq.to_json() if self.global_freq else None,
            "error": self.error,
        }


def recover_instance(inst: Instance, rcfg: RecoverConfig) -> RecoveryResult:
    """Full pipeline: hub, pairs, one estimate per reachable target, global."""
    hub = select_hub(inst, rcfg.d_min)
    search = find_disjoint_path_pairs(
        inst, hub.index, rcfg.k, rcfg.min_common_witness, rcfg.path_limit
    )
    first_pair: dict[int, PathPair] = {}
    for pair in search.pairs:
        first_pair.setdefault(pair.target_index, pair)
    estimates: list[LocalEstimate] = []
    dropped: list[DroppedTarget] = []
    for target in sorted(first_pair):
        out = local_estimate(inst, hub.index, first_pair[target])
        if isinstance(out, LocalEstimate):
            estimates.append(out)
        else:
            dropped.append(out)
    reachable = len(first_pair)
    hub_x = inst.cfg.sites[hub.index].x
    tol_t = (
        rcfg.tol_t
        if rcfg.tol_t is not None
        else rcfg.default_tol_t(hub_x, inst.params.H)
    )
    global_freq, error = None, None
    try:
        global_freq = aggregate_global(estimates, tol_t, targets_total=reachable)
    except NoConsensusError as exc:
        error = str(exc)
    return RecoveryResult(
        hub_index=hub.index,
        hub_survival=hub.survival_count,
        paths_found=search.paths_found,
        truncated=search.truncated,
        pairs_found=len(search.pairs),
        reachable_targets=reachable,
        estimates=tuple(estimates),
        dropped=tuple(dropped),
        global_freq=global_freq,
        error=error,
    )
