"""Path algebra, drift/anchor certificates, enumeration, peeling and the
counting checks."""
from __future__ import annotations

import itertools
from fractions import Fraction as F


import pytest

from conftest import brute_min_degree_subset
from freqpath.pathgraph import (
    Configuration,
    Edge,
    EndpointMismatch,
    Path,
    PathError,
    PrimeCollision,
    Site,
    anchor_bound_certificate,
    collision_census,
    concat_paths,
    count_close_products,
    enumerate_split_paths,
    invert_path,
    path_prepath,
    peel_regular,
    ratio_drift_certificate,
    ratio_product,
    route_count_gate_max_k,
    top_anchor_actuals,
    top_anchor_certificate,
)
from freqpath.primes import prod
from freqpath.pyramid import build_pyramid
from freqpath.synth import Params, gen_instance


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


def simple_path(xs, ps, qs, witness=frozenset({5, 7})) -> Path:
    sites = tuple(Site(F(x), F(0)) for x in xs)
    return Path(
        sites=sites,
        p_primes=tuple(ps),
        q_primes=tuple(qs),
        step_witness=(witness,) * len(ps),
    )


class TestPathAlgebra:
    def test_invert_single_edge(self):
        ell = simple_path([1000, 1182], [11], [13])
        inv = invert_path(ell)
        assert inv.sites == tuple(reversed(ell.sites))
        assert inv.p_primes == (13,) and inv.q_primes == (11,)
        assert inv.step_edge_slack == ell.step_edge_slack

    def test_invert_is_involution(self):
        ell = simple_path([1000, 1180, 1260, 1500], [11, 23, 31], [13, 29, 37])
        assert invert_path(invert_path(ell)) == ell

    def test_concat(self):
        a = simple_path([1000, 1182], [11], [13])
        b = simple_path([1182, 1280], [23], [29])
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
        b = simple_path([1182, 1280], [23], [29])
        lhs = invert_path(concat_paths(a, b))
        rhs = concat_paths(invert_path(b), invert_path(a))
        assert lhs == rhs

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
            Site(F(10**6), a0),
            Site(F(10**6) * F(157, 101), a0 * F(101, 157)),
            Site(F(10**6) * F(157 * 163, 101 * 103), a0 * F(101 * 103, 157 * 163)),
        ]
        ell = Path(
            sites=tuple(s),
            p_primes=(101, 103),
            q_primes=(157, 163),
            step_witness=(frozenset({5}), frozenset({7})),
        )
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
            head = Path(
                sites=ell.sites[: head_edges + 1],
                p_primes=ell.p_primes[:head_edges],
                q_primes=ell.q_primes[:head_edges],
                step_witness=ell.step_witness[:head_edges],
            )
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


def line_config(n: int = 3):
    sites = tuple(Site(F(1000 + 200 * i), F(0)) for i in range(n))
    return Configuration(
        sites=sites,
        separation=F(100),
        split_p1=frozenset({11, 23, 41}),
        split_p2=frozenset({13, 29, 43}),
    )


def make_edge(cfg, i, j, p, q, witness=frozenset({5})):
    return Edge(i, j, p, q, witness, abs(cfg.sites[i].x / p - cfg.sites[j].x / q))


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

    def test_length_beyond_diameter(self):
        cfg = line_config()
        edges = [make_edge(cfg, 0, 1, 11, 13), make_edge(cfg, 1, 2, 23, 29)]
        enum = enumerate_split_paths(cfg, edges, 0, 3)
        assert enum.paths == () and not enum.truncated

    def test_non_split_edges_ignored(self):
        cfg = line_config()
        edges = [make_edge(cfg, 0, 1, 13, 11)]  # p-label from the wrong set
        assert enumerate_split_paths(cfg, edges, 0, 1).paths == ()


class TestPeeling:
    def make_cfg(self, n):
        sites = tuple(Site(F(1000 + 200 * i), F(0)) for i in range(n))
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
            "b": Site(base, F(0)),
            "z1": Site(base * F(17, 11), F(0)),
            "z2": Site(base * F(19, 13), F(0)),
            "y": Site(base * F(17 * 19, 11 * 13), F(0)),
        }
        mk = lambda s1, s2, p, q: (sites[s1], sites[s2], p, q)

        def path_of(*steps):
            st = [steps[0][0]] + [s[1] for s in steps]
            return Path(
                sites=tuple(st),
                p_primes=tuple(s[2] for s in steps),
                q_primes=tuple(s[3] for s in steps),
                step_witness=(frozenset({5}),) * len(steps),
            )

        r1 = path_of(mk("b", "z1", 11, 17), mk("z1", "y", 13, 19))
        r2 = path_of(mk("b", "z2", 13, 19), mk("z2", "y", 11, 17))
        return r1, r2

    def test_same_multiset_pair_is_not_a_violation(self):
        r1, r2 = self.diamond_paths()
        rep = collision_census([r1, r2], x_scale=10**13, h_scale=10**3, p_scale=10)
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
        s0, s1 = Site(base, F(0)), Site(y, F(0))
        mk_path = lambda p, q: Path(
            sites=(s0, s1),
            p_primes=(p,),
            q_primes=(q,),
            step_witness=(frozenset({5}),),
        )
        r1, r2 = mk_path(11, 13), mk_path(23, 29)
        num = prod(r1.q_primes) * prod(r2.p_primes)
        den = prod(r1.p_primes) * prod(r2.q_primes)
        assert abs(F(num, den) - 1) >= F(1, (2 * 20) ** 2)
        rep = collision_census([r1, r2], x_scale=10**6, h_scale=10**3, p_scale=20)
        assert rep.different_multiset_pairs == 1
        assert rep.ratio_gap_violations == 0
        assert rep.pairs_sharing_prime == 0

    def test_outside_gate_is_flagged_not_asserted(self):
        r1, r2 = self.diamond_paths()
        rep = collision_census([r1, r2], x_scale=10**6, h_scale=10**4, p_scale=10)
        assert not rep.gate_applicable
        assert all(r.budget_ok is None for r in rep.rows)
        assert rep.passed  # no violations; budget not asserted

    def test_mixed_lengths_rejected(self):
        r1, _ = self.diamond_paths()
        short = simple_path([1000, 1182], [11], [13])
        with pytest.raises(PathError):
            collision_census([r1, short], 10**6, 10**3, 10)

    def test_gate_values(self):
        # (2P)^(2k) * H * ceil(ln X) <= X with 2P = 20, H = 1e3, X = 1e13:
        # k = 3 gives 1.92e12 <= 1e13 while k = 4 gives 7.68e14 > 1e13
        assert route_count_gate_max_k(10**13, 10**3, 20, 1) == 3
        assert route_count_gate_max_k(10**8, 10**4, 40, 1) == 0
