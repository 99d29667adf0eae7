"""Path algebra, drift/anchor certificates, enumeration, peeling and the
counting checks."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    MODULUS_PRIMES,
    SMALL_PRIMES,
    brute_min_degree_subset,
    edge,
    path_over,
    planted_prepath,
    ratio_product,
    ref_edge_witness,
    ref_enumerate_split_paths,
    ref_separation_error,
    ref_validate_path_modulus,
    site,
    top_anchor_actuals,
    walk_path,
)
from freqpath.pathgraph import (
    Configuration,
    EndpointMismatch,
    Path,
    PathError,
    PrimeCollision,
    SplitWalks,
    anchor_bound_certificate,
    build_path,
    certify_path,
    collision_census,
    concat_paths,
    count_close_products,
    edge_witness,
    enumerate_split_paths,
    invert_path,
    path_prepath,
    peel_regular,
    ratio_drift_certificate,
    route_count_gate_max_k,
    top_anchor_certificate,
    validate_path_modulus,
)
from freqpath import pathgraph, pyramid
from freqpath.pyramid import (
    HypothesisViolation,
    PrePathError,
    build_pyramid,
    verify_pyramid,
)
from freqpath.synth import Params, gen_instance
from freqpath.torus import Modulus, pair_to_str
from test_e2e import e2e_params


def chain_instance(seed: int, chains: int = 5, length: int = 8):
    """Web instance whose planted multiplicative chains supply real paths."""
    params = Params(
        X=10**11,
        H=4 * 10**5,
        K=500,
        P=100,
        P_prime=5,
        eps_edge=F(1, 8),
        s_edge=F(8),
        site_count=120,
        seed=seed,
        placement="web",
        web_chains=chains,
        web_chain_len=length,
    )
    return gen_instance(params, mode="archimedean", t_star=F(10**5))


def generator_paths(seeds=range(3), k_max: int = 8, cap: int = 200) -> list[Path]:
    out: list[Path] = []
    for seed in seeds:
        inst = chain_instance(seed)
        for start in range(len(inst.cfg.sites)):
            for k in range(1, k_max + 1):
                enum = enumerate_split_paths(inst.cfg, inst.edges, start, k, limit=8)
                out.extend(enum.paths)
                if len(out) >= cap:
                    return out[:cap]
    return out


def simple_path(xs, ps, qs, witness=frozenset({5, 7}), first: int = 0) -> Path:
    return walk_path(
        (site(F(x), F(0)) for x in xs), ps, qs, (witness,) * len(ps), first
    )


class TestPathAlgebra:
    def test_invert_single_edge(self):
        ell = simple_path([1000, 1182], [11], [13])
        inv = invert_path(ell)
        assert inv.sites == tuple(reversed(ell.sites))
        assert inv.p_primes == (13,) and inv.q_primes == (11,)
        assert inv.edges[0].slack == ell.edges[0].slack

    def test_invert_is_involution(self):
        ell = simple_path([1000, 1180, 1260, 1500], [11, 23, 31], [13, 29, 37])
        assert invert_path(invert_path(ell)) == ell

    def test_concat(self):
        a = simple_path([1000, 1182], [11], [13])
        b = simple_path([1182, 1280], [23], [29], first=1)
        ab = concat_paths(a, b)
        assert ab.k == 2
        assert ab.p_primes == (11, 23) and ab.q_primes == (13, 29)

    def test_concat_endpoint_mismatch(self):
        a = simple_path([1000, 1182], [11], [13])
        b = simple_path([1183, 1280], [23], [29])
        with pytest.raises(EndpointMismatch):
            concat_paths(a, b)

    def test_concat_prime_collision(self):
        a = simple_path([1000, 1182], [11], [13])
        b = simple_path([1182, 1280], [13], [29])
        with pytest.raises(PrimeCollision):
            concat_paths(a, b)

    def test_inverse_distributes_over_concat(self):
        a = simple_path([1000, 1182], [11], [13])
        b = simple_path([1182, 1280], [23], [29], first=1)
        lhs = invert_path(concat_paths(a, b))
        rhs = concat_paths(invert_path(b), invert_path(a))
        assert lhs == rhs

    def test_concat_refuses_unchained_edges(self):
        # both walks run 0 -> 1, so the join would read site_indices (0, 1, 1)
        a = simple_path([1000, 1182], [11], [13])
        b = simple_path([1182, 1280], [23], [29])
        with pytest.raises(EndpointMismatch, match="step 1 ends at site 1"):
            concat_paths(a, b)
        with pytest.raises(EndpointMismatch):
            Path(a.sites + b.sites[1:], a.edges + b.edges)

    def test_path_rejects_repeated_primes(self):
        with pytest.raises(PrimeCollision):
            simple_path([1000, 1180, 1395], [11, 13], [13, 11])


class TestRatioDrift:
    def test_symmetric_prime_ratio(self):
        # the ratio helper is indifferent to path validity
        assert ratio_product((11, 13), (13, 11), 2) == 1
        assert ratio_product((11, 13), (17, 19), 2) == F(17 * 19, 11 * 13)

    def test_single_edge_worked_example(self):
        ell = simple_path([1000, 1182], [11], [13])
        cert = ratio_drift_certificate(ell, 1)
        assert cert.drift == F(2, 11)
        assert cert.bound == F(2, 11)
        assert cert.passed

    def test_telescoping_identity_random(self, rng):
        # drift equals |sum of signed per-step deviations carried forward|
        for ell in generator_paths(cap=40):
            for m in range(1, ell.k + 1):
                cert = ratio_drift_certificate(ell, m)
                signed = F(0)
                for t in range(1, m + 1):
                    delta = (
                        ell.sites[t - 1].x
                        * ell.q_primes[t - 1]
                        / ell.p_primes[t - 1]
                        - ell.sites[t].x
                    )
                    signed += delta * ratio_product(ell.p_primes, ell.q_primes, m) / (
                        ratio_product(ell.p_primes, ell.q_primes, t)
                    )
                assert cert.drift == abs(signed)
                assert cert.drift <= cert.bound


class TestAnchorCertificates:
    def test_single_step_bound(self):
        ell = simple_path([1000, 1182], [11], [13])
        pp = path_prepath(ell, F(1, 8))
        py = build_pyramid(pp)
        cert = anchor_bound_certificate(ell, py, 2, 1)
        assert cert.bound == F(1, 8) / 11
        assert cert.passed

    def test_trivial_modulus_path(self):
        # disjoint step witnesses leave the trivial modulus; certificates
        # still hold there since integer multiples of any witness prime are
        # in particular integers
        a0 = F(1, 997)
        s = [
            site(F(10**6), a0),
            site(F(10**6) * F(157, 101), a0 * F(101, 157)),
            site(F(10**6) * F(157 * 163, 101 * 103), a0 * F(101 * 103, 157 * 163)),
        ]
        ell = walk_path(s, (101, 103), (157, 163), (frozenset({5}), frozenset({7})))
        assert ell.modulus.q == 1 and ell.modulus.factors == ()
        pp = path_prepath(ell, F(1, 8))
        assert pp.modulus.q == 1
        py = build_pyramid(pp)
        for j in (1, 2, 3):
            assert top_anchor_certificate(ell, py, j).passed

    def test_index_errors(self):
        ell = simple_path([1000, 1182], [11], [13])
        pp = path_prepath(ell, F(1, 8))
        py = build_pyramid(pp)
        with pytest.raises(IndexError):
            anchor_bound_certificate(ell, py, 3, 1)
        with pytest.raises(IndexError):
            anchor_bound_certificate(ell, py, 2, 2)
        with pytest.raises(IndexError):
            top_anchor_certificate(ell, py, 3)
        with pytest.raises(IndexError):
            ratio_drift_certificate(ell, 2)

    def test_planted_paths_have_zero_residual(self):
        # zero-noise plant: every anchor is an exact multiple of one frequency
        inst = chain_instance(0)
        truthless = [
            p
            for p in generator_paths(seeds=[0], cap=20)
        ]
        for ell in truthless[:6]:
            pp = path_prepath(ell, inst.params.eps_edge)
            py = build_pyramid(pp)
            for j in range(2, ell.k + 2):
                for m in range(1, j):
                    assert anchor_bound_certificate(ell, py, j, m).passed

    def test_all_level_pairs_on_generator_paths(self):
        paths = generator_paths(cap=60)
        assert len(paths) >= 40
        for ell in paths:
            pp = path_prepath(ell, F(1, 8))
            py = build_pyramid(pp)
            for j in range(2, ell.k + 2):
                for m in range(1, j):
                    cert = anchor_bound_certificate(ell, py, j, m)
                    assert cert.passed
            for j in range(1, ell.k + 2):
                assert top_anchor_certificate(ell, py, j).passed

    def test_prefix_property_across_join(self):
        # the joined path's pyramid agrees with the first segment's pyramid
        # on the whole anchor column (same modulus on both sides)
        found = 0
        for ell in generator_paths(cap=30):
            if ell.k < 4:
                continue
            found += 1
            head_edges = ell.k // 2
            head = Path(ell.sites[: head_edges + 1], ell.edges[:head_edges])
            modulus = path_prepath(ell, F(1, 8)).modulus
            full_col = build_pyramid(path_prepath(ell, F(1, 8))).anchor_column
            head_col = build_pyramid(
                path_prepath(head, F(1, 8), modulus=modulus)
            ).anchor_column
            assert [c.value for c in head_col] == [
                c.value for c in full_col[: head_edges + 1]
            ]
        assert found >= 3

    def test_inversion_symmetry(self):
        # the apex of a path's pyramid is an apex for the inverted path too
        for ell in generator_paths(cap=12):
            if ell.k < 2:
                continue
            pp = path_prepath(ell, F(1, 8))
            py = build_pyramid(pp)
            inv = invert_path(ell)
            ppi = path_prepath(inv, F(1, 8), modulus=pp.modulus)
            pyi = build_pyramid(ppi)
            # generic inputs: the deterministic tie-breaks coincide
            assert py.top.value == pyi.top.value
            # the unconditional invariant: each apex satisfies every
            # apex-to-base inequality of both orientations
            for path, pyr in ((ell, py), (inv, pyi)):
                for j in range(1, path.k + 2):
                    bound = top_anchor_certificate(path, pyr, j).bound
                    assert top_anchor_actuals(path, py.top, j) <= bound
                    assert top_anchor_actuals(path, pyi.top, j) <= bound


# sha256 of every certificate row of the first split path of each length
# 1..8 of acceptance criterion 3's chain instance at seed 0, as made by the
# Fraction-per-term certificates
PINNED_CERTIFICATES = {
    1: "9d3a36e454ab846eadeff59e338fd8f786b5df3bce8c81ac5220be0092417b88",
    2: "cd7e5e57f751a5633757429410370fdf6f3da1b506fbea09b277fbea33dc165e",
    3: "83aafecff87b1654dd57fea1db0b404f4d083380c1f102930a3215a985a79ea8",
    4: "4d646117cb049b3756fbb2dca8c0e8b34edaf4bd8777f769bd3092f98f59fcf8",
    5: "01c6987487f342c04c33e322fe60099438bdc43fda6c3d1a0577909e59ed6cbf",
    6: "d940c1f01583a89a9f9b8e0742e7d17ff2604e9cd0bc9c4daccf35435338d42c",
    7: "bf4d77c2c99dbe4de792005a28cb2fc64d20459461f5459ec0dfffa559a8d330",
    8: "0c666314b5464d6ea1e77fb356ae566b191fc26221c5b5c961d0ea07c4341736",
}


class TestPinnedCertificates:
    """Certificate rows are pinned byte for byte: verify rows, drift for
    every m, anchor for every (j, m) and apex for every j."""

    def test_rows_of_one_path_per_length(self):
        inst = chain_instance(0, chains=6)
        walks = SplitWalks(inst.cfg, inst.edges)
        eps = inst.params.eps_edge
        for k, digest in PINNED_CERTIFICATES.items():
            path = next(build_path(inst.cfg, w) for start in range(len(inst.cfg.sites))
                        for w in walks.walks(start, k, limit=1)[0])
            pp = path_prepath(path, eps)
            py = build_pyramid(pp)
            rows = [r.to_json() for r in verify_pyramid(pp, py).rows]
            rows += [ratio_drift_certificate(path, m).to_row()
                     for m in range(1, k + 1)]
            rows += [anchor_bound_certificate(path, py, j, m).to_row()
                     for j in range(2, k + 2) for m in range(1, j)]
            rows += [top_anchor_certificate(path, py, j).to_row()
                     for j in range(1, k + 2)]
            text = json.dumps(rows, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, k


def chain_paths_by_length() -> dict[int, Path]:
    """The first split path of each length 1..8 of the chain instance at
    seed 0, the paths `TestPinnedCertificates` pins."""
    inst = chain_instance(0, chains=6)
    walks = SplitWalks(inst.cfg, inst.edges)
    return {k: next(build_path(inst.cfg, w) for start in range(len(inst.cfg.sites))
                    for w in walks.walks(start, k, limit=1)[0])
            for k in PINNED_CERTIFICATES}


def object_route_rows(path: Path, eps: F) -> tuple[list[tuple], int, list[list[tuple]]]:
    """`certify_path`'s rows, modulus and layers made by the object route:
    `verify_pyramid`'s rows, `ratio_drift_certificate(path, k)` and
    `top_anchor_certificate` at j = 1 and k + 1."""
    pp = path_prepath(path, eps)
    py = build_pyramid(pp)
    rows = [("layer_gap", r.j, "", pair_to_str(r.actual_pair),
             pair_to_str(r.predicted_pair), r.passed) for r in verify_pyramid(pp, py).rows]
    drift = ratio_drift_certificate(path, path.k)
    rows.append(("ratio_drift", "", drift.m, pair_to_str(drift.drift_pair),
                 pair_to_str(drift.bound_pair), drift.passed))
    for j in (1, path.k + 1):
        cert = top_anchor_certificate(path, py, j)
        rows.append(("apex_anchor", cert.j, "", pair_to_str(cert.actual_pair),
                     pair_to_str(cert.bound_pair), cert.passed))
    return rows, pp.modulus.q, [[(pt.num, pt.den) for pt in layer] for layer in py.layers]


def verify_bounds_paths(inst, k_max: int = 2, limit: int = 200) -> list[Path]:
    """The paths `verify-bounds` certifies, in its order: every start, each
    length 1..k_max, up to `limit` paths."""
    walks, out = SplitWalks(inst.cfg, inst.edges), []
    for start, k in itertools.product(range(len(inst.cfg.sites)), range(1, k_max + 1)):
        out += [build_path(inst.cfg, w) for w in walks.walks(start, k, limit)[0]]
        if len(out) >= limit:
            return out[:limit]
    return out


class TestCertifyPath:
    """The one-pass row route gives the object route's rows and layers, and
    refuses a pre-path with the same error."""

    def test_chain_paths_of_every_length(self):
        eps = chain_instance(0, chains=6).params.eps_edge
        for k, path in chain_paths_by_length().items():
            assert certify_path(path, eps) == object_route_rows(path, eps), k

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode, q_star", [("archimedean", 1), ("rational", 6)])
    def test_first_200_paths_of_e2e_instances(self, seed, mode, q_star):
        inst = gen_instance(e2e_params(seed), mode=mode, t_star=F(10**5), q_star=q_star)
        paths = verify_bounds_paths(inst)
        assert len(paths) == 200
        eps = inst.params.eps_edge
        for path in paths:
            assert certify_path(path, eps) == object_route_rows(path, eps)

    def test_builds_no_object(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("certify_path built an object")

        paths = chain_paths_by_length()
        want = {k: object_route_rows(path, F(1, 8)) for k, path in paths.items()}
        for module, name in [(pathgraph, "PrePath"), (pathgraph, "Pyramid"),
                             (pathgraph, "TorusPoint"), (pyramid, "TorusPoint"),
                             (pathgraph, "AnchorCert"), (pathgraph, "RatioDriftCert"),
                             (pyramid, "GapRow")]:
            monkeypatch.setattr(module, name, refuse)
        for k, path in paths.items():
            assert certify_path(path, F(1, 8)) == want[k]

    @pytest.mark.parametrize(
        "path, eps",
        [
            (walk_path((site(1000, 0), site(1555, 0)), (9,), (15,), ({7},)), F(1, 8)),
            (walk_path((site(1000, 0), site(1555, 0)), (7,), (11,), ({5, 7},)), F(1, 8)),
            (walk_path((site(1000, 0), site(1555, F(1, 8 * 157))), (101,), (157,),
                       ({5, 7},)), F(1, 8)),
        ],
        ids=["composite-label", "label-divides-Q", "hypothesis-fails"],
    )
    def test_refuses_as_path_prepath_does(self, path, eps):
        with pytest.raises(PrePathError) as by_object:
            path_prepath(path, eps)
        with pytest.raises(PrePathError) as by_rows:
            certify_path(path, eps)
        assert type(by_rows.value) is type(by_object.value)
        assert str(by_rows.value) == str(by_object.value)


class TestStepRelations:
    def test_witness_excludes_the_tolerance_itself(self):
        # ||101*0 - 157/(8*157)||_w is exactly 1/8 for w = 5 and w = 7; the
        # pre-path hypotheses are strict, so a path over an edge witnessed
        # there would be refused
        a, b = site(F(1000), F(0)), site(F(1555), F(1, 8 * 157))
        eps = F(1, 8)
        with pytest.raises(HypothesisViolation):
            path_prepath(walk_path((a, b), (101,), (157,), ({5, 7},)), eps)
        assert edge_witness(a, b, 101, 157, (5, 7), eps) == frozenset()
        wider = eps + F(1, 10**9)
        witness = edge_witness(a, b, 101, 157, (5, 7), wider)
        assert witness == {5, 7}
        path_prepath(walk_path((a, b), (101,), (157,), (witness,)), wider)

    @pytest.mark.parametrize("p, q", [(9, 15), (4, 9), (101, 161)])
    def test_composite_primes_are_refused(self, p, q):
        # a Path checks only that its primes are distinct, so a hand-built
        # walk over composite labels reaches path_prepath, which refuses it
        a, b = site(F(1000), F(0)), site(F(1555), F(0))
        ell = walk_path((a, b), (p,), (q,), ({7},))
        with pytest.raises(PrePathError, match="is not prime"):
            path_prepath(ell, F(1, 8))

    @pytest.mark.parametrize(
        "rel, want",
        [
            (F(0), {5, 7}),
            (F(105), {5, 7}),
            (F(-35), {5, 7}),
            (-F(1, 16) - 35, {5, 7}),
            (F(1, 8) + 5, set()),
            (-F(1, 8) - 7, set()),
            (-F(1, 16) - 5, {5}),
            (F(-1, 16) + 14, {7}),
        ],
        ids=["zero", "multiple_of_both", "negative_multiple", "negative_inside",
             "exactly_eps_mod_5", "exactly_minus_eps_mod_7", "negative_mod_5_only",
             "mod_7_only"],
    )
    def test_witness_boundaries(self, rel, want):
        # ||p*alpha_a - q*alpha_b||_w for the relation rel, eps = 1/8:
        # r = 0, negative N, and norms exactly at eps
        a = site(F(1000), F(3, 7))
        b = site(F(1555), (101 * a.alpha - rel) / 157)
        eps = F(1, 8)
        assert edge_witness(a, b, 101, 157, (5, 7), eps) == want
        assert ref_edge_witness(a, b, 101, 157, (5, 7), eps) == want

    @given(st.data())
    def test_witness_matches_fractions(self, data):
        # the relation is eps times a ratio in [-2, 2] (-1, 0 and 1
        # included) plus a multiple, of either sign, of one pool prime or of
        # the whole pool's product
        pool = sorted(data.draw(st.lists(
            st.sampled_from(MODULUS_PRIMES), min_size=1, max_size=3, unique=True)))
        eps = data.draw(st.fractions(F(1, 100), F(49, 100), max_denominator=100))
        p, q = data.draw(st.lists(
            st.sampled_from(SMALL_PRIMES), min_size=2, max_size=2, unique=True))
        ratio = data.draw(st.one_of(
            st.sampled_from([F(-1), F(0), F(1)]),
            st.fractions(-2, 2, max_denominator=64)))
        unit = data.draw(st.sampled_from(pool + [prod(pool)]))
        rel = ratio * eps + unit * data.draw(st.integers(-5, 5))
        a = site(F(1000), data.draw(st.fractions(-3, 3, max_denominator=1000)))
        b = site(F(1555), (p * a.alpha - rel) / q)
        assert edge_witness(a, b, p, q, tuple(pool), eps) == ref_edge_witness(
            a, b, p, q, tuple(pool), eps)

    @staticmethod
    def verdict(check, path, modulus, eps):
        """None when the check accepts, else the failing step's label."""
        try:
            check(path, modulus, eps)
        except PathError as exc:
            return str(exc).split(" relation")[0]
        return None

    @pytest.mark.parametrize(
        "rel, want",
        [(F(1, 16) + 35, None), (F(1, 8) + 35, "step 1"), (F(1, 16) + 5, "step 1")],
        ids=["inside", "exactly_eps", "inside_mod_5_only"],
    )
    def test_step_relation_at_whole_modulus(self, rel, want):
        modulus, eps = Modulus(35, (5, 7)), F(1, 8)
        ell = walk_path((site(1, F(0)), site(2, -rel / 23)), (11,), (23,), ({5, 7},))
        for check in (validate_path_modulus, ref_validate_path_modulus):
            assert self.verdict(check, ell, modulus, eps) == want

    @given(st.data())
    def test_one_decision_matches_prefix_chain(self, data):
        # every step relation lies strictly inside eps plus a multiple of Q,
        # except step `odd` (none when odd == k): its relation is eps times
        # a ratio in [-2, 2] (exactly 1 included) plus a multiple of a
        # partial product of the factors, so it may fail at the first
        # factor, only at a longer product, exactly at eps, or pass.
        # Recovery's pair moduli always have at least one factor.
        factors = tuple(sorted(data.draw(st.lists(
            st.sampled_from(MODULUS_PRIMES), min_size=1, max_size=3, unique=True))))
        modulus = Modulus(prod(factors), factors)
        partial = [prod(factors[:i]) for i in range(len(factors) + 1)]
        eps = data.draw(st.fractions(F(1, 100), F(49, 100), max_denominator=100))
        k = data.draw(st.integers(1, 3))
        odd = data.draw(st.integers(0, k))
        primes = data.draw(st.lists(
            st.sampled_from(SMALL_PRIMES), min_size=2 * k, max_size=2 * k, unique=True))
        ps, qs = primes[:k], primes[k:]
        alphas = [data.draw(st.fractions(0, 1, max_denominator=1000))]
        for t in range(k):
            if t == odd:
                ratio = data.draw(st.one_of(
                    st.just(F(1)), st.fractions(-2, 2, max_denominator=64)))
                unit = data.draw(st.sampled_from(partial))
            else:
                ratio = data.draw(st.fractions(-1, 1, max_denominator=64).filter(
                    lambda r: abs(r) < 1))
                unit = modulus.q
            rel = ratio * eps + unit * data.draw(st.integers(0, modulus.q))
            alphas.append((ps[t] * alphas[t] - rel) / qs[t])
        ell = walk_path((site(i + 1, a) for i, a in enumerate(alphas)),
                        ps, qs, (frozenset(factors),) * k)
        assert self.verdict(validate_path_modulus, ell, modulus, eps) == self.verdict(
            ref_validate_path_modulus, ell, modulus, eps)


def line_config(n: int = 3):
    sites = tuple(site(F(1000 + 200 * i), F(0)) for i in range(n))
    return Configuration(
        sites=sites,
        separation=F(100),
        split_p1=frozenset({11, 23, 41}),
        split_p2=frozenset({13, 29, 43}),
    )


def make_edge(cfg, i, j, p, q, witness=frozenset({5})):
    return edge(i, j, p, q, witness, abs(cfg.sites[i].x / p - cfg.sites[j].x / q))


class TestEnumeration:
    def test_hand_enumerable_line(self):
        cfg = line_config()
        edges = [make_edge(cfg, 0, 1, 11, 13), make_edge(cfg, 1, 2, 23, 29)]
        enum = enumerate_split_paths(cfg, edges, 0, 2)
        assert len(enum.paths) == 1 and not enum.truncated
        assert enum.paths[0].site_indices == (0, 1, 2)
        one = enumerate_split_paths(cfg, edges, 0, 1)
        assert len(one.paths) == 1

    def test_distinctness_exhausts(self):
        cfg = line_config()
        edges = [make_edge(cfg, 0, 1, 11, 13), make_edge(cfg, 1, 2, 11, 13)]
        enum = enumerate_split_paths(cfg, edges, 0, 2)
        assert enum.paths == ()

    def test_limit_zero(self):
        cfg = line_config()
        edges = [make_edge(cfg, 0, 1, 11, 13)]
        enum = enumerate_split_paths(cfg, edges, 0, 1, limit=0)
        assert enum.paths == () and enum.truncated

    def test_negative_limit_is_refused(self):
        cfg = line_config()
        walks = SplitWalks(cfg, [make_edge(cfg, 0, 1, 11, 13)])
        with pytest.raises(PathError, match="limit"):
            walks.walks(0, 1, limit=-1)

    def test_walks_leave_no_cyclic_garbage(self):
        inst = chain_instance(0)
        walks = SplitWalks(inst.cfg, inst.edges)
        gc.collect()
        gc.disable()
        try:
            for start in range(len(inst.cfg.sites)):
                walks.walks(start, 3, limit=8)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_one_adjacency_per_edge_tuple(self, monkeypatch):
        built: list[tuple] = []

        class Counting(SplitWalks):
            def __init__(self, cfg, edges):
                built.append((id(cfg), id(edges)))
                super().__init__(cfg, edges)

        monkeypatch.setattr("freqpath.pathgraph.SplitWalks", Counting)
        inst = chain_instance(0)
        halves = (inst.edges, inst.edges[::2])
        cfgs = (inst.cfg, dataclasses.replace(inst.cfg))
        for cfg, edges in itertools.product(cfgs, halves):
            for start, k in itertools.product(range(len(cfg.sites)), (1, 2, 3)):
                enumerate_split_paths(cfg, edges, start, k, limit=8)
            # every start and every k walked from the one adjacency
            assert built.count((id(cfg), id(edges))) == 1
        assert len(built) == 4

    def test_alternating_edge_tuples(self):
        inst = chain_instance(0)
        cfg, halves = inst.cfg, (inst.edges, inst.edges[1::2])
        for start, k in itertools.product(range(len(cfg.sites)), (1, 2, 3)):
            for edges in halves:
                assert enumerate_split_paths(cfg, edges, start, k, 8) == \
                    ref_enumerate_split_paths(cfg, edges, start, k, 8)

    def test_mutated_edge_list(self):
        cfg = line_config()
        edges = [make_edge(cfg, 0, 1, 11, 13)]
        assert enumerate_split_paths(cfg, edges, 0, 2).paths == ()
        edges.append(make_edge(cfg, 1, 2, 23, 29))
        enum = enumerate_split_paths(cfg, edges, 0, 2)
        assert enum == ref_enumerate_split_paths(cfg, edges, 0, 2)
        assert [p.site_indices for p in enum.paths] == [(0, 1, 2)]

    def test_length_beyond_diameter(self):
        cfg = line_config()
        edges = [make_edge(cfg, 0, 1, 11, 13), make_edge(cfg, 1, 2, 23, 29)]
        enum = enumerate_split_paths(cfg, edges, 0, 3)
        assert enum.paths == () and not enum.truncated

    def test_non_split_edges_ignored(self):
        cfg = line_config()
        edges = [make_edge(cfg, 0, 1, 13, 11)]  # p-label from the wrong set
        assert enumerate_split_paths(cfg, edges, 0, 1).paths == ()

    @pytest.mark.parametrize(
        "seed, mode, q_star",
        [(seed, mode, q) for seed in range(3)
         for mode, q in (("archimedean", 1), ("rational", 6))] + [(0, "chain", 1)],
    )
    def test_walks_match_reference(self, seed, mode, q_star):
        # same paths, same order, same truncation flag, from every start
        if mode == "chain":
            inst = chain_instance(seed)
        else:
            inst = gen_instance(e2e_params(seed), mode=mode, t_star=F(10**5),
                                q_star=q_star)
        walks = SplitWalks(inst.cfg, inst.edges)
        for start, k in itertools.product(range(len(inst.cfg.sites)), (1, 2, 3)):
            for limit in (0, 1, 8, 10000):
                ref = ref_enumerate_split_paths(inst.cfg, inst.edges, start, k, limit)
                found, truncated = walks.walks(start, k, limit)
                assert (found, truncated) == ([p.edges for p in ref.paths], ref.truncated)
            assert enumerate_split_paths(inst.cfg, inst.edges, start, k) == ref


class TestSeparation:
    @staticmethod
    def verdict(xs, separation):
        """None when the configuration is accepted, else its error text."""
        try:
            Configuration(tuple(site(x, F(0)) for x in xs), separation,
                          frozenset({11}), frozenset({13}))
        except PathError as exc:
            return str(exc)
        return None

    def test_gap_equal_to_separation(self):
        sep = F(100, 7)
        assert self.verdict([F(1000, 3), F(1000, 3) + sep], sep) is None
        assert self.verdict([F(1000, 3) + sep - F(1, 10**9), F(1000, 3)], sep) == (
            f"sites {F(1000, 3)} and {F(1000, 3) + sep - F(1, 10**9)} are closer "
            f"than the separation {sep}")

    @given(st.data())
    def test_integer_check_matches_fractions(self, data):
        # the sites, in drawn order, sit at running sums of gaps; a gap is
        # the separation exactly, or anything from 0 to three times it
        sep = data.draw(st.fractions(F(1, 50), 50, max_denominator=50))
        gaps = data.draw(st.lists(
            st.one_of(st.just(sep), st.fractions(0, 3 * sep, max_denominator=60)),
            min_size=1, max_size=8))
        x0 = data.draw(st.fractions(F(1, 7), 10**6, max_denominator=1000))
        xs = data.draw(st.permutations(list(itertools.accumulate(gaps, initial=x0))))
        assert self.verdict(xs, sep) == ref_separation_error(xs, sep)


class TestPeeling:
    def make_cfg(self, n):
        sites = tuple(site(F(1000 + 200 * i), F(0)) for i in range(n))
        return Configuration(
            sites=sites,
            separation=F(100),
            split_p1=frozenset({11}),
            split_p2=frozenset({13}),
        )

    def edges_from_pairs(self, cfg, pairs):
        return [make_edge(cfg, i, j, 11, 13) for i, j in pairs]

    def test_triangle_survives(self):
        cfg = self.make_cfg(3)
        edges = self.edges_from_pairs(cfg, [(0, 1), (1, 2), (0, 2)])
        assert peel_regular(cfg, edges, 1) == frozenset({0, 1, 2})

    def test_path_graph_dissolves(self):
        cfg = self.make_cfg(3)
        edges = self.edges_from_pairs(cfg, [(0, 1), (1, 2)])
        assert peel_regular(cfg, edges, 1) == frozenset()

    def test_k4_minus_edge(self):
        cfg = self.make_cfg(4)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]  # missing (2, 3)
        edges = self.edges_from_pairs(cfg, pairs)
        assert peel_regular(cfg, edges, 1) == frozenset({0, 1, 2, 3})
        assert peel_regular(cfg, edges, 2) == frozenset()

    def test_matches_subset_enumeration(self, rng):
        for _ in range(40):
            n = rng.randint(3, 9)
            cfg = self.make_cfg(n)
            pairs = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            d_min = rng.randint(0, 3)
            edges = self.edges_from_pairs(cfg, pairs)
            adjacency = {u: set() for u in range(n)}
            for i, j in pairs:
                adjacency[i].add(j)
                adjacency[j].add(i)
            assert peel_regular(cfg, edges, d_min) == brute_min_degree_subset(
                n, adjacency, d_min
            )

    def test_witness_restriction(self):
        cfg = self.make_cfg(3)
        edges = [
            make_edge(cfg, 0, 1, 11, 13, frozenset({5})),
            make_edge(cfg, 1, 2, 11, 13, frozenset({7})),
        ]
        assert peel_regular(cfg, edges, 0, witness_prime=5) == frozenset({0, 1})
        assert peel_regular(cfg, edges, 0, witness_prime=7) == frozenset({1, 2})


class TestCountCloseProducts:
    def test_worked_example(self):
        rep = count_close_products(1, 3, 100)
        assert rep.count == 2  # only (3,3) and (5,5) fall within 6/100
        assert rep.bound == F(159, 25)
        assert rep.passed

    def test_huge_scale_counts_diagonal_only(self):
        rep = count_close_products(1, 3, 10**9)
        assert rep.count == 2

    def test_matches_brute_force(self):
        from freqpath.primes import primes_in_range

        for r, p0, n in [(2, 5, 10), (2, 3, 1000), (3, 3, 10)]:
            rep = count_close_products(r, p0, n)
            ps = primes_in_range(p0, 2 * p0)
            thresh = F((2 * p0) ** r, n)
            brute = sum(
                1
                for t1 in itertools.product(ps, repeat=r)
                for t2 in itertools.product(ps, repeat=r)
                if abs(prod(t1) - prod(t2)) <= thresh
            )
            assert rep.count == brute
            assert rep.count <= rep.bound

    def test_budget_guard(self):
        from freqpath.pathgraph import ResourceBudgetError

        with pytest.raises(ResourceBudgetError):
            count_close_products(3, 20, 10, budget=10)


class TestCollisionCensus:
    def diamond_paths(self):
        """Two same-endpoint routes using the same four primes in both orders."""
        base = F(10**6)
        sites = {
            "b": site(base, F(0)),
            "z1": site(base * F(17, 11), F(0)),
            "z2": site(base * F(19, 13), F(0)),
            "y": site(base * F(17 * 19, 11 * 13), F(0)),
        }
        mk = lambda s1, s2, p, q: (sites[s1], sites[s2], p, q)

        def path_of(*steps):
            st = [steps[0][0]] + [s[1] for s in steps]
            return walk_path(
                st,
                [s[2] for s in steps],
                [s[3] for s in steps],
                (frozenset({5}),) * len(steps),
            )

        r1 = path_of(mk("b", "z1", 11, 17), mk("z1", "y", 13, 19))
        r2 = path_of(mk("b", "z2", 13, 19), mk("z2", "y", 11, 17))
        return r1, r2

    def test_same_multiset_pair_is_not_a_violation(self):
        r1, r2 = self.diamond_paths()
        rep = collision_census([r1.edges, r2.edges],
                               route_count_gate_max_k(10**13, 10**3, 20), p_scale=10)
        assert rep.gate_applicable  # k = 2 is inside the gate at this scale
        assert rep.pairs_sharing_endpoint == 1
        assert rep.different_multiset_pairs == 0
        assert rep.ratio_gap_violations == 0
        assert all(r.budget_ok for r in rep.rows)
        assert rep.passed

    def test_different_multisets_satisfy_ratio_gap(self):
        # same endpoints, genuinely different prime sets: the exact product
        # ratio must sit at least (2P)^(-2k) away from 1
        base = F(2000)
        y = base * F(13, 11)
        s0, s1 = site(base, F(0)), site(y, F(0))
        mk_path = lambda p, q: walk_path((s0, s1), (p,), (q,), (frozenset({5}),))
        r1, r2 = mk_path(11, 13), mk_path(23, 29)
        num = prod(r1.q_primes) * prod(r2.p_primes)
        den = prod(r1.p_primes) * prod(r2.q_primes)
        assert abs(F(num, den) - 1) >= F(1, (2 * 20) ** 2)
        rep = collision_census([r1.edges, r2.edges],
                               route_count_gate_max_k(10**6, 10**3, 40), p_scale=20)
        assert rep.different_multiset_pairs == 1
        assert rep.ratio_gap_violations == 0
        assert rep.pairs_sharing_prime == 0

    def test_outside_gate_is_flagged_not_asserted(self):
        r1, r2 = self.diamond_paths()
        rep = collision_census([r1.edges, r2.edges],
                               route_count_gate_max_k(10**6, 10**4, 20), p_scale=10)
        assert not rep.gate_applicable
        assert all(r.budget_ok is None for r in rep.rows)
        assert rep.passed  # no violations; budget not asserted

    def test_mixed_lengths_rejected(self):
        r1, _ = self.diamond_paths()
        short = simple_path([1000, 1182], [11], [13])
        with pytest.raises(PathError):
            collision_census([r1.edges, short.edges],
                             route_count_gate_max_k(10**6, 10**3, 20), 10)

    def test_gate_values(self):
        # (2P)^(2k) * H * ceil(ln X) <= X with 2P = 20, H = 1e3, X = 1e13:
        # k = 3 gives 1.92e12 <= 1e13 while k = 4 gives 7.68e14 > 1e13
        assert route_count_gate_max_k(10**13, 10**3, 20) == 3
        assert route_count_gate_max_k(10**8, 10**4, 40) == 0
