"""Every refusal of bad input, one table row each: the call, its typed error
and its exact message.

Not here: `pyramid._merge`'s two AssertionErrors and `recover.local_estimate`'s
three InvariantViolations guard against construction bugs, and no input
reaches them.
"""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from conftest import edge, path_over, site
from freqpath.pathgraph import (
    Configuration,
    Path,
    PathError,
    SplitWalks,
    build_path,
    collision_census,
    count_close_products,
    peel_regular,
    top_anchor_certificate,
)
from freqpath.pyramid import (
    HypothesisViolation,
    PrePath,
    PrePathError,
    build_pyramid,
    layer_step,
    merge_two,
    verify_pyramid,
)
from freqpath.recover import RecordError, score_global
from freqpath.synth import GroundTruth, Params, ParamsError, gen_instance
from freqpath.torus import (
    Modulus,
    TorusError,
    as_fraction,
    check_lift_primes,
    reduce_mod,
    scaled_gap,
)

EPS = F(1, 8)
M35 = Modulus(35, (5, 7))
ZERO = reduce_mod(0, M35)
SITES = (site(1, 0), site(2, 0), site(3, 0))
E01 = edge(0, 1, 11, 13, {2}, 0)
E12 = edge(1, 2, 17, 19, {2}, 0)
CFG = Configuration(SITES, F(1, 2), frozenset({11, 17}), frozenset({13, 19}))


def prepath(**kw) -> PrePath:
    """A valid length-1 pre-path mod 35 at zero, with fields overridden."""
    base = dict(modulus=M35, top_anchors=(ZERO, ZERO), mid_anchors=(ZERO,),
                p_primes=(11,), q_primes=(13,), eps=EPS)
    return PrePath(**{**base, **kw})


def params(**kw) -> Params:
    base = dict(X=10**8, H=10**4, K=100, P=20, P_prime=5, eps_edge=F(1, 5),
                s_edge=F(5), site_count=10)
    return Params(**{**base, **kw})


def params_doc() -> dict:
    """The JSON document of a valid Params."""
    return params().to_json()


def truth(**kw) -> GroundTruth:
    base = dict(mode="rational", t_star=F(0), q_star=6, carrier=35, a_map={})
    return GroundTruth(**{**base, **kw})


def glob_with_q_y(q_y: str) -> dict:
    """A recovery record's `global` block with one accepted row."""
    row = {"target": 0, "Q_y": q_y, "d_y": 1, "a_y": 0, "b_y": 0}
    return {"T": "0/1", "q": 1, "coverage": "1/1", "accepted": [row]}


OTHER_PRIMES = prepath(p_primes=(17,), q_primes=(19,))

REFUSALS = {
    # pathgraph
    "Configuration-split-overlap": (
        lambda: Configuration(SITES, F(1, 2), frozenset({11}), frozenset({11})),
        PathError, "split prime sets must be disjoint"),
    "Edge-equal-primes": (
        lambda: edge(0, 1, 11, 11, {2}, 0), PathError, "edge primes must differ"),
    "Edge-one-site": (
        lambda: edge(1, 1, 11, 13, {2}, 0), PathError, "an edge needs two distinct sites"),
    "Edge-no-witness": (
        lambda: edge(0, 1, 11, 13, (), 0), PathError, "edge witness set must be nonempty"),
    "Path-no-step": (
        lambda: Path((), ()), PathError, "a path has at least one step"),
    "Path-lengths": (
        lambda: Path(SITES[:1], (E01,)), PathError, "inconsistent path tuple lengths"),
    "build_path-empty": (
        lambda: build_path(CFG, []), PathError, "empty edge sequence"),
    "walks-k0": (
        lambda: SplitWalks(CFG, (E01, E12)).walks(0, 0), PathError,
        "path length must be at least 1"),
    "peel_regular-negative-d_min": (
        lambda: peel_regular(CFG, (E01, E12), -1), PathError, "d_min must be nonnegative"),
    "collision_census-no-walks": (
        lambda: collision_census([], 0, 10), PathError, "census needs at least one path"),
    "collision_census-two-starts": (
        lambda: collision_census([(E01,), (E12,)], 0, 10), PathError,
        "census paths must share the initial site"),
    "count_close_products-r0": (
        lambda: count_close_products(0, 5, 10), ValueError, "need r >= 1 and p0 >= 3"),
    "count_close_products-p0-2": (
        lambda: count_close_products(1, 2, 10), ValueError, "need r >= 1 and p0 >= 3"),
    "_pyramid_eps-other-primes": (
        lambda: top_anchor_certificate(path_over(OTHER_PRIMES), build_pyramid(prepath()), 1),
        PathError, "pyramid primes do not match the path"),
    # pyramid
    "verify_pyramid-other-prepath": (
        lambda: verify_pyramid(prepath(), build_pyramid(OTHER_PRIMES)), PrePathError,
        "pyramid does not start from this pre-path"),
    "PrePath-length-0": (
        lambda: prepath(p_primes=()), PrePathError, "length must be at least 1"),
    "PrePath-lengths": (
        lambda: prepath(top_anchors=(ZERO,) * 3), PrePathError, "inconsistent tuple lengths"),
    "PrePath-repeated-prime": (
        lambda: prepath(q_primes=(11,)), PrePathError,
        "the 2k primes must be distinct, got (11, 11)"),
    "PrePath-composite": (
        lambda: prepath(q_primes=(15,)), PrePathError, "15 is not prime"),
    "PrePath-prime-divides-Q": (
        lambda: prepath(q_primes=(7,)), PrePathError, "prime 7 divides the modulus 35"),
    "PrePath-zero-tolerance": (
        lambda: prepath(eps=F(0)), PrePathError, "tolerances must be positive"),
    "PrePath-anchor-modulus": (
        lambda: prepath(mid_anchors=(reduce_mod(0, 5),)), PrePathError,
        "anchor modulus mismatch"),
    "PrePath-q-side": (
        lambda: prepath(top_anchors=(ZERO, reduce_mod(F(1, 2), M35))), HypothesisViolation,
        "q-side hypothesis fails at index 1: 13/2 >= 1/8"),
    # 13 * 1/26 = 1/2 is the mid anchor, so only the p-side 11 * 0 misses it
    "PrePath-p-side": (
        lambda: prepath(top_anchors=(ZERO, reduce_mod(F(1, 26), M35)),
                        mid_anchors=(reduce_mod(F(1, 2), M35),)),
        HypothesisViolation, "p-side hypothesis fails at index 1: 1/2 >= 1/8"),
    "merge_two-zero-tolerance": (
        lambda: merge_two(ZERO, ZERO, 11, 13, F(0), EPS), PrePathError,
        "tolerances must be positive"),
    "layer_step-lengths": (
        lambda: layer_step((ZERO, ZERO), (11,), (13, 17), (EPS,), (EPS,)), PrePathError,
        "inconsistent slice lengths"),
    "layer_step-zero-tolerance": (
        lambda: layer_step((ZERO, ZERO), (11,), (13,), (EPS,), (F(0),)), PrePathError,
        "tolerances must be positive"),
    # torus and primes
    "Modulus-zero": (
        lambda: Modulus(0), TorusError, "modulus must be a positive integer, got 0"),
    "Modulus-repeated-factor": (
        lambda: Modulus(25, (5, 5)), TorusError, "repeated prime in factors (5, 5)"),
    "Modulus-composite-factor": (
        lambda: Modulus(15, (15,)), TorusError, "15 in factors is not prime"),
    "Modulus-wrong-product": (
        lambda: Modulus(36, (5, 7)), TorusError, "factors (5, 7) do not multiply to 36"),
    "as_fraction-float": (
        lambda: as_fraction(1.5), TorusError, "not an exact rational: 1.5"),
    "scaled_gap-moduli": (
        lambda: scaled_gap(1, reduce_mod(0, 5), 1, reduce_mod(0, 7)), TorusError,
        "modulus mismatch: 5 vs 7"),
    "TorusPoint-sub-moduli": (
        lambda: reduce_mod(0, 5) - reduce_mod(0, 7), TorusError, "modulus mismatch: 5 vs 7"),
    "check_lift_primes-composite": (
        lambda: check_lift_primes(35, 15, 11), TorusError, "15 is not prime"),
    "check_lift_primes-divides-Q": (
        lambda: check_lift_primes(35, 11, 7), TorusError, "prime 7 divides the modulus 35"),
    # synth
    "Params-zero-scale": (
        lambda: params(X=0), ParamsError,
        "X, H, K, P, P_prime and site_count must be positive"),
    "Params-s_edge": (
        lambda: params(s_edge=F(0)), ParamsError, "s_edge must be positive"),
    "Params-noise_level": (
        lambda: params(noise_level=F(-1)), ParamsError, "noise_level must be nonnegative"),
    "Params-edge_count": (
        lambda: params(edge_count=-1), ParamsError,
        "edge_count must be None or a nonnegative integer"),
    "Params-placement": (
        lambda: params(placement="grid"), ParamsError, "unknown placement 'grid'"),
    "Params.from_json-list": (
        lambda: Params.from_json([1, 2]), ParamsError, "params must be a JSON object, got list"),
    "Params.from_json-missing-key": (
        lambda: Params.from_json({k: v for k, v in params_doc().items() if k != "X"}),
        ParamsError, "missing params keys ['X']"),
    "Params.from_json-unknown-key": (
        lambda: Params.from_json({**params_doc(), "k_max": 4}), ParamsError,
        "unknown params keys ['k_max']"),
    "GroundTruth-mode": (
        lambda: truth(mode="complex"), ParamsError, "unknown truth mode 'complex'"),
    "GroundTruth-q_star": (
        lambda: truth(q_star=0), ParamsError, "q_star and carrier must be positive"),
    "GroundTruth-archimedean-q_star": (
        lambda: truth(mode="archimedean"), ParamsError,
        "archimedean mode requires q_star = 1"),
    "GroundTruth-residue": (
        lambda: truth(a_map={0: 6}), ParamsError, "residue a[0] = 6 outside [0, 6)"),
    "gen_instance-mode": (
        lambda: gen_instance(params(), mode="complex"), ParamsError, "unknown mode 'complex'"),
    # recover
    "score_global-Q_y": (
        lambda: score_global(glob_with_q_y("3.5"), None), RecordError,
        "malformed recovery record: ValueError: '3.5' is not a decimal string"),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
