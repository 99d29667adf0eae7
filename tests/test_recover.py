"""Hub selection, disjoint route pairs, local estimates and aggregation."""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from freqpath.pathgraph import Configuration, Edge, Site
from freqpath.primes import floor_nth_root
from freqpath.recover import (
    EmptyGraphError,
    LocalEstimate,
    NoConsensusError,
    RecoverConfig,
    aggregate_global,
    find_disjoint_path_pairs,
    local_estimate,
    recover_instance,
    score_recovery,
    select_hub,
)
from freqpath.synth import GroundTruth, Instance, Params, gen_instance
from freqpath.torus import Modulus, norm_mod


def fixture_params(**kw) -> Params:
    base = dict(
        X=10**10,
        H=4 * 10**5,
        K=500,
        P=100,
        P_prime=5,
        eps_edge=F(1, 8),
        s_edge=F(8),
        site_count=8,
        seed=0,
    )
    base.update(kw)
    return Params(**base)


def hand_instance(t_star=F(0), q_star=1, drop_edges=()):
    """Two vertex-disjoint two-step routes hub -> y on disjoint primes.

    Route 1: hub -(127,179)-> z1 -(149,191)-> y
    Route 2: hub -(131,167)-> z2 -(139,197)-> y
    The two ratio products differ by about 8e-7, so y (placed exactly on
    route 1) stays well inside route 2's closing physical window.
    """
    params = fixture_params()
    truth = GroundTruth(
        mode="rational" if q_star > 1 else "archimedean",
        t_star=t_star,
        q_star=q_star,
        carrier=35,
        a_map={},
    )
    hub_x = F(2 * 10**6)
    r1 = (127, 179, 149, 191)
    r2 = (131, 167, 139, 197)
    z1 = hub_x * F(179, 127)
    y = z1 * F(191, 149)
    z2 = hub_x * F(167, 131)
    sites_x = [hub_x, z1, z2, y]
    alphas = [truth.t_star / x for x in sites_x]
    sites = tuple(Site(x, a) for x, a in zip(sites_x, alphas))
    cfg = Configuration(
        sites=sites,
        separation=params.separation,
        split_p1=frozenset({101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151}),
        split_p2=frozenset({157, 163, 167, 173, 179, 181, 191, 193, 197, 199}),
    )

    def mk(i, j, p, q):
        slack = abs(sites[i].x / p - sites[j].x / q)
        rel = p * sites[i].alpha - q * sites[j].alpha
        witness = frozenset(
            w for w in (5, 7) if norm_mod(rel, w) <= params.eps_edge
        )
        assert slack <= params.s_edge, f"fixture edge ({i},{j}) physically invalid"
        return Edge(i, j, p, q, witness, slack)

    edges = [
        mk(0, 1, r1[0], r1[1]),
        mk(1, 3, r1[2], r1[3]),
        mk(0, 2, r2[0], r2[1]),
        mk(2, 3, r2[2], r2[3]),
    ]
    edges = [e for i, e in enumerate(edges) if i not in drop_edges]
    return Instance(cfg, tuple(edges), truth, params)


class TestIntegerRoots:
    """Roots far beyond float range are decided in integers."""

    @pytest.mark.parametrize(
        "n,k",
        [(10**400, 4), (10**400 - 1, 4), (3**1001, 7), (2**2048 + 1, 2)],
        ids=["10^400,4", "10^400-1,4", "3^1001,7", "2^2048+1,2"],
    )
    def test_floor_nth_root_brackets(self, n, k):
        r = floor_nth_root(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_default_tol_t_at_huge_scale(self):
        h = 10**110
        tol = RecoverConfig().default_tol_t(F(10**6), h)
        root = F(10**6) / tol
        assert root.denominator == 1
        assert root**4 <= h**3 < (root + 1) ** 4


class TestFixtureGeometry:
    def test_closing_edge_within_threshold(self):
        # |hub*(167*197)/(131*139) - y| must stay within 197 * s_edge
        hub_x = F(2 * 10**6)
        y = hub_x * F(179 * 191, 127 * 149)
        drift = abs(hub_x * F(167 * 197, 131 * 139) - y)
        assert drift <= 197 * F(8)


class TestSelectHub:
    def test_core_site_wins(self):
        inst = hand_instance()
        hub = select_hub(inst)
        assert hub.index == 0

    def test_tie_breaks_to_smallest_x(self):
        inst = hand_instance()
        # peeling with d_min = 1 strips the whole fixture: every site ties at 0
        assert select_hub(inst).index == 0

    def test_dense_core_beats_pendants(self):
        # triangle of mutually connected sites plus a pendant: only core
        # members survive peeling, so the hub must be a core site
        params = fixture_params(site_count=4, d_min=1)
        xs = [F(2 * 10**6), F(2 * 10**6) * F(179, 127), F(25 * 10**5), F(4 * 10**6)]
        xs_sites = tuple(Site(x, F(0)) for x in sorted(xs))
        cfg = Configuration(
            sites=xs_sites,
            separation=params.separation,
            split_p1=frozenset({101, 103, 107, 109, 113, 127, 131, 137, 139}),
            split_p2=frozenset({157, 163, 167, 173, 179, 181, 191}),
        )

        def mk(i, j, p, q):
            return Edge(
                i, j, p, q, frozenset({5, 7}),
                abs(cfg.sites[i].x / p - cfg.sites[j].x / q),
            )

        core = [mk(0, 1, 101, 157), mk(1, 2, 103, 163), mk(0, 2, 107, 167),
                mk(2, 3, 109, 173)]
        inst = Instance(cfg, tuple(core), None, params)
        hub = select_hub(inst)
        assert hub.index in {0, 1, 2}
        assert hub.survival_count == 2  # survives peeling for both witnesses

    def test_empty_graph(self):
        inst = hand_instance(drop_edges=(0, 1, 2, 3))
        with pytest.raises(EmptyGraphError):
            select_hub(inst)


class TestFindDisjointPairs:
    def test_exactly_one_pair(self):
        inst = hand_instance()
        search = find_disjoint_path_pairs(inst, 0, k=2)
        assert len(search.pairs) == 1
        pair = search.pairs[0]
        assert pair.target_index == 3
        assert pair.q_mod.q == 35

    def test_shared_prime_excluded(self):
        # swap p on route 2's closing edge to collide with route 1's primes
        inst = hand_instance()
        cfg = inst.cfg
        e = inst.edges[3]
        collided = Edge(
            e.i, e.j, 149, e.q, e.witness,
            abs(cfg.sites[e.i].x / 149 - cfg.sites[e.j].x / e.q),
        )
        bad = Instance(cfg, inst.edges[:3] + (collided,), inst.truth, inst.params)
        search = find_disjoint_path_pairs(bad, 0, k=2)
        assert search.pairs == ()

    def test_min_common_witness_exhausts(self):
        inst = hand_instance()
        assert find_disjoint_path_pairs(inst, 0, k=2, min_common_witness=3).pairs == ()


class TestLocalEstimate:
    def test_null_phase(self):
        # T* = 0, q* = 1: the loop apex decomposes to exactly nothing
        inst = hand_instance(t_star=F(0))
        pair = find_disjoint_path_pairs(inst, 0, k=2).pairs[0]
        est = local_estimate(inst, 0, pair)
        assert isinstance(est, LocalEstimate)
        assert est.t_y == 0 and est.a_y == 0 and est.b_y == 0 and est.d == 1
        assert est.e == 0

    def test_archimedean_plant_recovers_t(self):
        inst = hand_instance(t_star=F(10**5))
        pair = find_disjoint_path_pairs(inst, 0, k=2).pairs[0]
        est = local_estimate(inst, 0, pair)
        assert isinstance(est, LocalEstimate)
        assert est.d == 1
        assert abs(est.t_y - F(10**5)) <= F(10**5, 100)

    def test_invariants(self):
        inst = hand_instance(t_star=F(10**5))
        pair = find_disjoint_path_pairs(inst, 0, k=2).pairs[0]
        est = local_estimate(inst, 0, pair)
        # the signed apex residue agrees with the norm, recomputed here
        d_alpha_norm = est.e if est.e >= 0 else -est.e
        assert d_alpha_norm <= est.apex_bound
        assert abs(est.d_big) % est.d == 0
        assert 0 <= est.u < max(est.d, 1) or (est.u == 0 and est.d == 1)
        # hub-side congruence residual, recomputed independently
        hub = inst.cfg.sites[0]
        res = norm_mod(
            hub.alpha - F(est.a_y, est.d) * est.q_mod.q - est.t_y / hub.x,
            est.q_mod,
        )
        assert res == est.res_hub

    def test_rational_mode_recovers_modulus(self):
        # generator-made web instance: planted residues mod 6 propagate and
        # the estimate denominator lands exactly on q*
        params = fixture_params(
            site_count=200,
            placement="web",
            web_pair_targets=4,
            seed=5,
        )
        inst = gen_instance(params, mode="rational", t_star=F(10**5), q_star=6)
        from freqpath.recover import select_hub as sh

        hub = sh(inst)
        pairs = find_disjoint_path_pairs(inst, hub.index, k=2).pairs
        assert pairs
        for pair in pairs[:3]:
            est = local_estimate(inst, hub.index, pair)
            assert isinstance(est, LocalEstimate)
            assert est.d == 6
            assert abs(est.d_big) % 6 == 0


def make_estimate(target, x, q_factors, t_y, a=0, b=0, d=1) -> LocalEstimate:
    from freqpath.primes import prod

    return LocalEstimate(
        target_index=target,
        target_x=F(x),
        q_mod=Modulus(prod(q_factors), tuple(sorted(q_factors))),
        d_big=48,
        e=F(0),
        u=0,
        d=d,
        t_y=F(t_y),
        a_y=a,
        b_y=b,
        res_hub=F(0),
        res_target=F(0),
        apex_bound=F(1, 10),
    )


class TestAggregate:
    def test_singleton_trivially_global(self):
        est = make_estimate(1, 1000, (5, 7), 100)
        gf = aggregate_global([est], tol_t=F(1))
        assert gf.t == 100 and gf.q == 1 and gf.coverage == 1

    def test_majority_cluster_wins(self):
        good = [make_estimate(i, 1000 + i, (5, 7), 100) for i in range(3)]
        bad = [make_estimate(9 + i, 5000 + i, (5,), 10**6 + i) for i in range(2)]
        gf = aggregate_global(good + bad, tol_t=F(1))
        assert gf.t == 100
        assert len(gf.accepted) == 3
        assert gf.coverage == F(3, 5)

    def test_no_consensus(self):
        ests = [
            make_estimate(i, 1000 + i, (5, 7), 100 + 10 * i) for i in range(4)
        ]
        with pytest.raises(NoConsensusError):
            aggregate_global(ests, tol_t=F(1))

    def test_idempotence(self):
        good = [make_estimate(i, 1000 + i, (5, 7), 100) for i in range(3)]
        bad = [make_estimate(7, 9000, (5,), 10**6)]
        gf = aggregate_global(good + bad, tol_t=F(1))
        again = aggregate_global(gf.accepted, tol_t=F(1))
        assert (again.t, again.q) == (gf.t, gf.q)

    def test_tied_moduli_reported(self):
        ests = [
            make_estimate(0, 1000, (5, 7), 100, d=2),
            make_estimate(1, 1001, (5, 7), 100, d=3),
        ]
        gf = aggregate_global(ests, tol_t=F(1))
        assert gf.tied_moduli == (2, 3)
        assert gf.q == 2

    def test_rational_consistency_filter(self):
        anchor = make_estimate(0, 1000, (5, 7), 100, a=1, d=6)
        clash = make_estimate(1, 1001, (5, 7), 100, a=2, d=6)
        agree = make_estimate(2, 1002, (5, 7), 100, a=1, d=6)
        gf = aggregate_global([anchor, agree, clash], tol_t=F(1), min_cluster=F(0))
        accepted_targets = {e.target_index for e in gf.accepted}
        assert accepted_targets == {0, 2}


class TestScore:
    def test_perfect_recovery(self):
        truth = GroundTruth("archimedean", F(100), 1, 35, {})
        est = make_estimate(1, 1000, (5, 7), 100)
        gf = aggregate_global([est], tol_t=F(1))
        sc = score_recovery(gf, truth, hub_index=0)
        assert sc.status == "ok"
        assert sc.rel_t_error == 0
        assert sc.q_match is True
        assert sc.coverage == 1
        assert sc.residues_consistent is True

    def test_blind_refusal(self):
        est = make_estimate(1, 1000, (5, 7), 100)
        gf = aggregate_global([est], tol_t=F(1))
        sc = score_recovery(gf, None)
        assert sc.status == "truth unavailable"
        assert sc.rel_t_error is None

    def test_failed_recovery(self):
        truth = GroundTruth("archimedean", F(100), 1, 35, {})
        sc = score_recovery(None, truth)
        assert sc.status == "recovery failed"


class TestPipeline:
    def test_end_to_end_on_fixture(self):
        inst = hand_instance(t_star=F(10**5))
        res = recover_instance(inst.strip_truth(), RecoverConfig(k=2))
        assert res.error is None
        assert res.reachable_targets == 1
        sc = score_recovery(res.global_freq, inst.truth, res.hub_index)
        assert sc.rel_t_error <= F(5, 100)
        assert sc.coverage == 1

    def test_zero_noise_invariant(self):
        # whenever a disjoint pair exists on a zero-noise plant, the score is
        # exact: rel error 0 and matching modulus
        inst = hand_instance(t_star=F(0))
        res = recover_instance(inst.strip_truth(), RecoverConfig(k=2))
        sc = score_recovery(res.global_freq, inst.truth, res.hub_index)
        assert sc.rel_t_error == 0
        assert sc.q_match is True
