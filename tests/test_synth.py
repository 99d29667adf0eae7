"""Generator determinism, exact audits and planted consistency."""
from __future__ import annotations

import json
import random
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import brute_physical_candidates, brute_route_pair_candidates
from freqpath.pathgraph import Edge
from freqpath.synth import (
    InfeasibleParamsError,
    Instance,
    InstanceError,
    Params,
    ParamsError,
    _physical_candidates,
    _place_sites,
    _route_pair_candidates,
    audit_instance,
    gen_instance,
    instance_from_json,
    instance_to_json,
)


def small_params(**kw) -> Params:
    base = dict(
        X=10**8,
        H=10**4,
        K=100,
        P=20,
        P_prime=5,
        eps_edge=F(1, 5),
        s_edge=F(5),
        site_count=400,
        seed=1,
    )
    base.update(kw)
    return Params(**base)


def web_params(**kw) -> Params:
    base = dict(
        X=10**10,
        H=4 * 10**5,
        K=500,
        P=100,
        P_prime=5,
        eps_edge=F(1, 8),
        s_edge=F(8),
        site_count=250,
        seed=1,
        placement="web",
        web_pair_targets=4,
        web_diamonds=2,
        web_chains=2,
        web_chain_len=4,
    )
    base.update(kw)
    return Params(**base)


class TestParamsValidation:
    def test_pool_product_constraint(self):
        with pytest.raises(ParamsError, match="P \\* P'"):
            small_params(K=99)

    def test_eps_range(self):
        with pytest.raises(ParamsError, match="eps_edge"):
            small_params(eps_edge=F(1, 2))

    def test_capacity(self):
        with pytest.raises(ParamsError, match="separated sites"):
            small_params(site_count=100000)

    def test_pool_overlap(self):
        with pytest.raises(ParamsError, match="disjoint"):
            Params(
                X=10**8,
                H=10**4,
                K=100,
                P=10,
                P_prime=10,
                eps_edge=F(1, 5),
                s_edge=F(5),
                site_count=10,
            )

    def test_json_round_trip(self):
        p = web_params()
        assert Params.from_json(p.to_json()) == p

    def test_gate_report_shape(self):
        gates = small_params().gates()
        assert set(gates) >= {"h_range", "h_le_sqrt_x", "route_count_gate_max_k"}
        assert gates["route_count_gate_max_k"] == 0


class TestDeterminism:
    def test_byte_identical_runs(self):
        for seed in (0, 7):
            a = instance_to_json(
                gen_instance(small_params(seed=seed), t_star=F(10**5))
            )
            b = instance_to_json(
                gen_instance(small_params(seed=seed), t_star=F(10**5))
            )
            assert a == b

    def test_seeds_differ(self):
        a = instance_to_json(gen_instance(small_params(seed=0), t_star=F(10**5)))
        b = instance_to_json(gen_instance(small_params(seed=1), t_star=F(10**5)))
        assert a != b

    def test_serialization_round_trip(self):
        inst = gen_instance(web_params(), mode="rational", t_star=F(10**5), q_star=6)
        back = instance_from_json(instance_to_json(inst))
        assert back.cfg.sites == inst.cfg.sites
        assert back.edges == inst.edges
        assert back.truth == inst.truth
        assert back.params == inst.params


def small_instance(seed: int, sites: int, kind: str, blind: bool = False) -> Instance:
    """A small web instance of one generator kind: archimedean, rational at
    q* = 6, or archimedean with site noise."""
    noise = F(1, 100) if kind == "noisy" else F(0)
    params = web_params(site_count=sites, seed=seed, noise_level=noise)
    mode, q_star = ("rational", 6) if kind == "q*=6" else ("archimedean", 1)
    inst = gen_instance(params, mode=mode, t_star=F(10**5), q_star=q_star)
    return inst.strip_truth() if blind else inst


@cache
def valid_instance_text() -> str:
    return instance_to_json(small_instance(5, 60, "q*=6"))


# values no field of an instance file holds: other types, and strings that
# are not "num/den" integers
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.lists(st.none(), min_size=1, max_size=2),
    st.sampled_from(["", "x", "1/0", "12.5", "1/2/3", "0x1f", "1/2.0"]),
)


def _shifted(value: str, delta: F) -> str:
    x = F(value) + delta
    return f"{x.numerator}/{x.denominator}"


@st.composite
def corruptions(draw):
    """(description, doc -> None): one field of a valid instance file set to
    a value no generated instance holds."""
    doc = json.loads(valid_instance_text())
    n_sites, n_edges = len(doc["sites"]), len(doc["edges"])
    e = draw(st.integers(0, n_edges - 1))
    edge = doc["edges"][e]
    field = draw(st.sampled_from(["x", "slack", "index", "witness", "partition"]))
    shift = draw(st.one_of(st.none(), st.fractions().filter(bool)))
    if field == "x":
        end = draw(st.sampled_from(["i", "j"]))
        site = edge[end]
        if shift is None:
            value = draw(JUNK)
        else:
            value = _shifted(doc["sites"][site]["x"], shift)
            # the edge's slack stays exact only if its endpoint moves to the
            # mirror image about the other end
            xs = {k: F(doc["sites"][edge[k]]["x"]) for k in ("i", "j")}
            xs[end] = F(value)
            assume(abs(xs["i"] / edge["p"] - xs["j"] / edge["q"]) != F(edge["slack"]))

        def corrupt(d):
            d["sites"][site]["x"] = value
    elif field == "slack":
        value = draw(JUNK) if shift is None else _shifted(edge["slack"], shift)

        def corrupt(d):
            d["edges"][e]["slack"] = value
    elif field == "index":
        end = draw(st.sampled_from(["i", "j"]))
        other = edge["j" if end == "i" else "i"]
        value = draw(st.one_of(
            JUNK,
            st.integers(max_value=-1),
            st.integers(min_value=n_sites),
            st.just(other),
        ))

        def corrupt(d):
            d["edges"][e][end] = value
    elif field == "witness":
        pool = web_params().witness_primes()
        outside = st.integers().filter(lambda w: w not in pool)
        value = draw(st.one_of(
            JUNK,
            st.tuples(st.lists(st.sampled_from(pool), max_size=2), outside).map(
                lambda t: t[0] + [t[1]]
            ),
        ))

        def corrupt(d):
            d["edges"][e]["witness"] = value
    else:
        lower, upper = doc["partition"]
        value = draw(st.one_of(
            JUNK,
            st.sampled_from([
                [upper, lower],
                [lower[1:], upper],
                [lower + upper[:1], upper[1:]],
                [lower + [2], upper],
                [lower],
            ]),
        ))

        def corrupt(d):
            d["partition"] = value
    return f"{field} of edge {e} set to {value!r}", corrupt


class TestInstanceJson:
    """The JSON round trip is the identity on generated instances, and any
    one corrupted field of a valid file is refused with InstanceError."""

    @given(
        seed=st.integers(0, 10**6),
        sites=st.integers(20, 80),
        kind=st.sampled_from(["archimedean", "q*=6", "noisy"]),
        blind=st.booleans(),
    )
    def test_round_trip_is_identity(self, seed, sites, kind, blind):
        text = instance_to_json(small_instance(seed, sites, kind, blind))
        assert instance_to_json(instance_from_json(text)) == text

    @given(corruptions())
    def test_corrupted_field_is_refused(self, case):
        _what, corrupt = case
        doc = json.loads(valid_instance_text())
        corrupt(doc)
        with pytest.raises(InstanceError):
            instance_from_json(json.dumps(doc))

    def test_valid_file_loads(self):
        text = valid_instance_text()
        assert instance_to_json(instance_from_json(text)) == text


class TestGeneratedInstances:
    def test_archimedean_edge_consistency_inequality(self):
        # per-edge oracle: |p*a1 - q*a2| <= T* p q s_edge / (x1 x2) < eps_edge
        inst = gen_instance(small_params(), t_star=F(10**5))
        assert len(inst.edges) > 40
        t_star = inst.truth.t_star
        for e in inst.edges:
            s1, s2 = inst.cfg.sites[e.i], inst.cfg.sites[e.j]
            lhs = abs(e.p * s1.alpha - e.q * s2.alpha)
            cap = t_star * e.p * e.q * inst.params.s_edge / (s1.x * s2.x)
            assert lhs <= cap <= F(8, 100) < F(1, 5)
            assert e.witness == frozenset({5, 7})

    def test_zero_frequency_smoke(self):
        inst = gen_instance(small_params(site_count=100), t_star=0)
        assert all(s.alpha == 0 for s in inst.cfg.sites)
        assert all(e.witness == frozenset({5, 7}) for e in inst.edges)

    def test_audit_passes_archimedean(self):
        assert audit_instance(gen_instance(small_params(), t_star=F(10**5))).passed

    def test_audit_passes_rational_and_noise(self):
        inst = gen_instance(
            web_params(noise_level=F(1, 100)),
            mode="rational",
            t_star=F(10**5),
            q_star=6,
        )
        assert audit_instance(inst).passed

    def test_rational_edges_satisfy_congruence(self):
        inst = gen_instance(web_params(), mode="rational", t_star=F(10**5), q_star=6)
        q_star = inst.truth.q_star
        assert any(inst.truth.a_map.values())
        for e in inst.edges:
            ai = inst.truth.a_map.get(e.i, 0)
            aj = inst.truth.a_map.get(e.j, 0)
            assert (e.p * ai - e.q * aj) % q_star == 0

    def test_planted_reconstruction(self):
        inst = gen_instance(web_params(), mode="rational", t_star=F(10**5), q_star=6)
        for i, site in enumerate(inst.cfg.sites):
            assert site.alpha == inst.truth.planted_alpha(i, site.x)

    def test_noise_bounded(self):
        params = web_params(noise_level=F(1, 10))
        inst = gen_instance(params, t_star=F(10**5))
        bound = params.noise_level * params.eps_edge
        for i, site in enumerate(inst.cfg.sites):
            assert abs(site.alpha - inst.truth.planted_alpha(i, site.x)) <= bound

    def test_coprimality_enforced(self):
        with pytest.raises(ParamsError, match="shares a factor"):
            gen_instance(small_params(), mode="rational", q_star=23)

    def test_infeasible_edge_count(self):
        with pytest.raises(InfeasibleParamsError):
            gen_instance(small_params(edge_count=10**6), t_star=F(10**5))


class TestAudit:
    def test_corrupted_slack_fails(self):
        inst = gen_instance(small_params(site_count=200), t_star=F(10**5))
        e = inst.edges[0]
        for delta in (F(1), F(1, 10**9)):
            bad = Edge(e.i, e.j, e.p, e.q, e.witness, e.slack + delta)
            tampered = Instance(
                inst.cfg, (bad,) + inst.edges[1:], inst.truth, inst.params
            )
            report = audit_instance(tampered)
            assert not report.passed
            assert any(
                c.name == "edges" and not c.passed and "not exact" in c.detail
                for c in report.checks
            )

    def test_corrupted_witness_fails(self):
        inst = gen_instance(small_params(site_count=200), t_star=F(10**5))
        e = inst.edges[0]
        bad = Edge(e.i, e.j, e.p, e.q, frozenset({5}), e.slack)
        tampered = Instance(inst.cfg, (bad,) + inst.edges[1:], inst.truth, inst.params)
        assert not audit_instance(tampered).passed

    def test_empty_instance_vacuous_pass(self):
        inst = gen_instance(small_params(site_count=50), t_star=F(10**5))
        empty = Instance(inst.cfg, (), inst.truth, inst.params)
        assert audit_instance(empty).passed

    def test_blind_instance_audits(self):
        inst = gen_instance(small_params(site_count=50), t_star=F(10**5))
        assert audit_instance(inst.strip_truth()).passed


class TestRoutePairSearch:
    """The integer-keyed search ranks the same pairs as the Fraction oracle."""

    @pytest.mark.parametrize("q_star", [1, 6, 13])
    def test_matches_fraction_oracle(self, q_star):
        params = web_params()
        want = brute_route_pair_candidates(params, q_star, 24)
        assert len(want) == 24
        assert _route_pair_candidates(params, q_star, 24) == want

    def test_fewer_pairs_than_requested(self):
        params = web_params(P=50, K=250)
        want = brute_route_pair_candidates(params, 13, 24)
        assert 0 < len(want) < 24
        assert _route_pair_candidates(params, 13, 24) == want

    # The window of 39 routes ends inside the tenth prime-set group ahead:
    # these lists hold pairs from that group, so pairing it in full or
    # stopping one group short both change them.
    def test_window_edge_at_q7(self):
        params = web_params(P=50, K=250)
        want = brute_route_pair_candidates(params, 7, 200)
        assert 24 < len(want) < 200
        assert _route_pair_candidates(params, 7, 200) == want

    @pytest.mark.parametrize("pool", [50, 60])
    def test_full_list(self, pool):
        params = web_params(P=pool, K=5 * pool)
        want = brute_route_pair_candidates(params, 1, 10**6)
        assert 24 < len(want) < 10**6
        assert _route_pair_candidates(params, 1, 10**6) == want


def e2e_sites(seed: int, q_star: int, sites: int = 300):
    """The ascending sites gen_instance places for an e2e-scale seed."""
    params = web_params(site_count=sites, seed=seed, web_pair_targets=6)
    return params, _place_sites(params, random.Random(seed), q_star)


class TestPhysicalCandidates:
    """The integer-scaled search keeps the Fraction oracle's candidates,
    slacks included, in the same order."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("q_star", [1, 6])
    def test_e2e_sites(self, seed, q_star):
        params, xs = e2e_sites(seed, q_star)
        want = brute_physical_candidates(params, xs)
        assert len(want) > 300
        assert _physical_candidates(params, xs) == want

    def test_1200_sites(self):
        params, xs = e2e_sites(2, 1, sites=1200)
        assert len(xs) >= 1200
        assert _physical_candidates(params, xs) == brute_physical_candidates(params, xs)

    def test_chain_instance_sites(self):
        params = Params(
            X=10**11, H=4 * 10**5, K=500, P=100, P_prime=5,
            eps_edge=F(1, 8), s_edge=F(8), site_count=120, seed=0,
            placement="web", web_chains=6, web_chain_len=8,
        )
        xs = _place_sites(params, random.Random(0), 1)
        want = brute_physical_candidates(params, xs)
        assert want
        assert _physical_candidates(params, xs) == want

    # hand-built sites on the [20, 40] pool, split (23, 29) | (31, 37)

    def test_exact_tie_goes_to_the_smaller_site(self):
        # x_0 * 31/23 = 3100/7 lies exactly between 3099/7 and 3101/7
        xs = [F(2300, 7), F(3099, 7), F(3101, 7), F(5000, 3)]
        params = small_params(s_edge=F(5))
        got = _physical_candidates(params, xs)
        assert got == brute_physical_candidates(params, xs)
        assert (0, 1, 23, 31, F(1, 31 * 7)) in got
        assert not any(c[:4] == (0, 2, 23, 31) for c in got)

    def test_fractional_target_takes_the_site_above(self):
        # x_0 * 31/23 = 1581/23 lies strictly between the sites 68 and 69,
        # and 69 is the nearer one
        xs = [F(51), F(68), F(69)]
        params = small_params(s_edge=F(5))
        got = _physical_candidates(params, xs)
        assert got == brute_physical_candidates(params, xs)
        assert (0, 2, 23, 31, F(6, 23 * 31)) in got

    def test_slack_equal_to_threshold_is_kept(self):
        # x_0/23 = 100 and x_1/31 = 209/2, so the slack is exactly 9/2
        xs = [F(2300), F(6479, 2)]
        at = small_params(s_edge=F(9, 2))
        below = small_params(s_edge=F(9, 2) - F(1, 10**9))
        assert (0, 1, 23, 31, F(9, 2)) in _physical_candidates(at, xs)
        assert (0, 1, 23, 31, F(9, 2)) not in _physical_candidates(below, xs)
        for params in (at, below):
            assert _physical_candidates(params, xs) == brute_physical_candidates(
                params, xs
            )

    def test_site_itself_is_skipped(self):
        # x_0 * 31/23 = 62: x_0 itself (distance 16) is nearer than x_1
        # (distance 17), but an edge needs two sites, so x_1 is taken
        xs = [F(46), F(79)]
        params = small_params(s_edge=F(5))
        got = _physical_candidates(params, xs)
        assert got == brute_physical_candidates(params, xs)
        assert (0, 1, 23, 31, F(17, 31)) in got
        assert all(i != j for i, j, *_ in got)
        assert _physical_candidates(params, [F(46)]) == []


class TestWebPlacement:
    def test_planted_pairs_have_disjoint_routes(self):
        from freqpath.recover import find_disjoint_path_pairs, select_hub

        inst = gen_instance(web_params(), t_star=F(10**5))
        hub = select_hub(inst)
        search = find_disjoint_path_pairs(inst, hub.index, k=2)
        assert len(search.pairs) >= 1
        for pair in search.pairs:
            sa = set(pair.first.p_primes + pair.first.q_primes)
            sb = set(pair.second.p_primes + pair.second.q_primes)
            assert not sa & sb
            assert pair.q_mod.q > 1

    def test_web_chain_paths_exist(self):
        from freqpath.pathgraph import enumerate_split_paths

        inst = gen_instance(
            web_params(web_chains=5, web_chain_len=8, web_pair_targets=0),
            t_star=F(10**5),
        )
        best = 0
        for start in range(len(inst.cfg.sites)):
            for k in range(best + 1, 9):
                if enumerate_split_paths(inst.cfg, inst.edges, start, k, 4).paths:
                    best = k
        assert best >= 6
