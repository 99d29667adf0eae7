"""Generator determinism, exact audits and planted consistency."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from bisect import bisect_left
from fractions import Fraction as F
from functools import cache
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    brute_physical_candidates,
    brute_route_pair_candidates,
    edge,
    pair,
    planted_alpha,
    ref_place_sites,
    ref_planted_consistency,
    ref_slacks_within,
    site,
)
import freqpath
from freqpath.pathgraph import Configuration
from freqpath.primes import primes_in_range
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

    def test_every_prime_pool_holds_a_prime(self):
        # Params refuses no empty pool: [n, 2n] holds a prime for every
        # n >= 1 (Bertrand's postulate), checked here up to 10^4 on one sieve
        n_max = 10**4
        primes = primes_in_range(1, 2 * n_max)
        empty = [n for n in range(1, n_max + 1)
                 if primes[bisect_left(primes, n)] > 2 * n]
        assert not empty

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


def _moved_site_is_refused(doc: dict, site: int, x: F) -> bool:
    """Whether a file with site `site` moved to x breaks what the loader
    checks of positions: x > 0, ascent and separation, and the physical
    threshold on every edge of that site."""
    params = Params.from_json(doc["params"])
    xs = [F(s["x"]) for s in doc["sites"]]
    xs[site] = x
    if x <= 0 or any(b - a < params.separation for a, b in zip(xs, xs[1:])):
        return True
    return any(abs(xs[i] / p - xs[j] / q) > params.s_edge
               for i, j, p, q in doc["edges"] if site in (i, j))


@st.composite
def corruptions(draw):
    """(description, doc -> None): one field of a valid instance file set to
    a value no generated instance holds."""
    doc = json.loads(valid_instance_text())
    n_sites, n_edges = len(doc["sites"]), len(doc["edges"])
    e = draw(st.integers(0, n_edges - 1))
    edge = doc["edges"][e]
    field = draw(st.sampled_from(["x", "index", "order"]))
    if field == "x":
        site = edge[draw(st.sampled_from([0, 1]))]
        shift = draw(st.one_of(st.none(), st.fractions().filter(bool)))
        if shift is None:
            value = draw(JUNK)
        else:
            value = _shifted(doc["sites"][site]["x"], shift)
            # a moved site that keeps its order, its separation and every
            # edge within s_edge is another valid instance
            assume(_moved_site_is_refused(doc, site, F(value)))

        def corrupt(d):
            d["sites"][site]["x"] = value
    elif field == "index":
        end = draw(st.sampled_from([0, 1]))
        other = edge[1 - end]
        value = draw(st.one_of(
            JUNK,
            st.integers(max_value=-1),
            st.integers(min_value=n_sites),
            st.just(other),
        ))

        def corrupt(d):
            d["edges"][e][end] = value
    else:
        other = draw(st.integers(0, n_edges - 1))
        value = "repeated" if other == e else f"swapped with edge {other}"

        def corrupt(d):
            rows = d["edges"]
            if other == e:
                rows.insert(e, list(rows[e]))
            else:
                rows[e], rows[other] = rows[other], rows[e]
    return f"{field} of edge {e} set to {value!r}", corrupt


# a value of each JSON type; the integers stay small, so a mutated params
# block never asks for a large sieve
VALUES = st.one_of(JUNK, st.integers(-2, 10**4), st.just({}), st.just([]),
                   st.sampled_from(["1/2", "5/1", "rational", "web"]))


def _nodes(value, path=()):
    """(path, value) for a JSON value and every value nested in it."""
    yield path, value
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _draw_path(draw, nodes, keep) -> tuple:
    """The path of a node that `keep(value)` accepts, its depth drawn first,
    so that the top-level keys are drawn as often as the site fields."""
    kept = [path for path, value in nodes if keep(value)]
    depth = draw(st.sampled_from(sorted({len(path) for path in kept})))
    return draw(st.sampled_from([path for path in kept if len(path) == depth]))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _dumps_key_twice(value, path, key, first) -> str:
    """`value` as JSON text with `key` of the object at `path` written
    twice: as `first`, then as the object holds it."""
    if not path:
        return "{" + f"{json.dumps(key)}: {json.dumps(first)}, " + json.dumps(value)[1:]
    text = [_dumps_key_twice(child, path[1:], key, first) if k == path[0] else json.dumps(child)
            for k, child in (value.items() if type(value) is dict else enumerate(value))]
    if type(value) is list:
        return "[" + ", ".join(text) + "]"
    return "{" + ", ".join(f"{json.dumps(k)}: {t}" for k, t in zip(value, text)) + "}"


@st.composite
def mutations(draw):
    """(description, text): a valid instance file under one structural
    mutation, which may or may not leave it a valid file."""
    doc = json.loads(valid_instance_text())
    nodes = list(_nodes(doc))
    kind = draw(st.sampled_from(
        ["insert", "delete", "duplicate", "retype", "swap", "repeat", "perturb"]))
    if kind == "duplicate":
        path = _draw_path(draw, nodes, lambda v: type(v) is dict and v)
        key = draw(st.sampled_from(sorted(_at(doc, path))))
        first = draw(st.one_of(VALUES, st.just(_at(doc, path)[key])))
        return f"{key!r} of {path} written first as {first!r}", _dumps_key_twice(
            doc, path, key, first)
    if kind == "insert":
        path = _draw_path(draw, nodes, lambda v: type(v) is dict)
        key = draw(st.sampled_from(["note", "x", "alpha", "mode", "seed", "schema", "0", ""]))
        _at(doc, path)[key] = draw(VALUES)
    elif kind == "delete":
        path = _draw_path(draw, nodes[1:], lambda v: True)
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "retype":
        path = _draw_path(draw, nodes, lambda v: True)
        value = draw(VALUES)
        if path:
            _at(doc, path[:-1])[path[-1]] = value
        else:
            doc = value
    elif kind in ("swap", "repeat"):
        path = _draw_path(draw, nodes, lambda v: type(v) is list and v)
        rows = _at(doc, path)
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        if kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows.insert(i, json.loads(json.dumps(rows[i])))
    else:
        path = _draw_path(draw, nodes, lambda v: type(v) is str and "/" in v)
        old = _at(doc, path)
        num, den = old.split("/")
        _at(doc, path[:-1])[path[-1]] = draw(st.one_of(
            st.fractions(-10**6, 10**6, max_denominator=10**6).map(
                lambda d: _shifted(old, d)),
            st.sampled_from(["+" + old, " " + old, f"{2 * int(num)}/{2 * int(den)}",
                             f"{num}/-{den}", f"{num}.0/{den}"]),
        ))
    return f"{kind} at {path}", json.dumps(doc)


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

    @given(
        seed=st.integers(0, 10**6),
        sites=st.integers(20, 80),
        kind=st.sampled_from(["archimedean", "rational", "noisy-count"]),
    )
    def test_load_returns_the_generated_values(self, seed, sites, kind):
        if kind == "noisy-count":
            # half the edges that verify under noise, drawn in shuffled order
            params = web_params(site_count=sites, seed=seed, noise_level=F(1, 100))
            full = gen_instance(params, t_star=F(10**5))
            params = dataclasses.replace(params, edge_count=len(full.edges) // 2)
            inst = gen_instance(params, t_star=F(10**5))
            assert set(inst.edges) <= set(full.edges)
        else:
            # web placement plants routes, so these instances hold edges
            # (small_params instances of 20-80 sites hold 0-5)
            inst = gen_instance(web_params(site_count=sites, seed=seed), mode=kind,
                                t_star=F(10**5), q_star=6 if kind == "rational" else 1)
        assert inst.edges
        keys = [(e.i, e.j, e.p, e.q) for e in inst.edges]
        assert keys == sorted(set(keys))
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert instance_to_json(back) == text
        assert back.cfg.sites == inst.cfg.sites and back.edges == inst.edges
        assert (back.truth, back.params) == (inst.truth, inst.params)

    @given(corruptions())
    def test_corrupted_field_is_refused(self, case):
        _what, corrupt = case
        doc = json.loads(valid_instance_text())
        corrupt(doc)
        with pytest.raises(InstanceError):
            instance_from_json(json.dumps(doc))

    @staticmethod
    def refused_or_written_back(text: str) -> None:
        # a mutation either fails as InstanceError or leaves a file that
        # loads to an instance writing back the mutated document; sorted
        # JSON text is compared, since True == 1 and 1.0 == 1 in Python
        try:
            inst = instance_from_json(text)
        except InstanceError:
            return
        back = json.dumps(json.loads(instance_to_json(inst)), sort_keys=True)
        assert back == json.dumps(json.loads(text), sort_keys=True)

    @given(mutations())
    def test_mutated_file_is_refused_or_written_back(self, case):
        _what, text = case
        self.refused_or_written_back(text)

    @pytest.mark.parametrize("key, value", [
        ("truth", False), ("truth", 0), ("truth", []), ("edges", {}), ("edges", ""),
    ])
    def test_retyped_top_level_key_is_refused_or_written_back(self, key, value):
        # the property draws top-level retypes too rarely to be sure of one
        # at its example count, so these run on every pass: a loader that
        # took a non-object truth or non-list edges would write back another
        # document
        doc = json.loads(valid_instance_text())
        doc[key] = value
        self.refused_or_written_back(json.dumps(doc))

    def test_valid_file_loads(self):
        text = valid_instance_text()
        assert instance_to_json(instance_from_json(text)) == text

    @given(
        seed=st.integers(0, 10**6),
        sites=st.integers(20, 80),
        kind=st.sampled_from(["archimedean", "q*=6", "noisy"]),
    )
    def test_values_are_pairs_in_lowest_terms(self, seed, sites, kind):
        # generated and loaded alike: each site and edge holds its rationals
        # as (num, den) in lowest terms, den > 0, and reads them as Fractions
        inst = small_instance(seed, sites, kind)
        for got in (inst, instance_from_json(instance_to_json(inst))):
            held = [(s.x, s.x_pair) for s in got.cfg.sites]
            held += [(s.alpha, s.alpha_pair) for s in got.cfg.sites]
            held += [(e.slack, e.slack_pair) for e in got.edges]
            for value, (num, den) in held:
                assert den > 0 and gcd(num, den) == 1
                assert type(value) is F and value == F(num, den)

    def test_load_builds_no_fraction_per_site_or_edge(self, monkeypatch):
        # only params and truth build Fractions, so a 1200-site file costs
        # as many as a 300-site one
        texts = [
            instance_to_json(gen_instance(
                web_params(site_count=n, seed=0, web_pair_targets=6), t_star=F(10**5)))
            for n in (300, 1200)
        ]
        built = []
        new = F.__new__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counting))
        counts = []
        for text in texts:
            built.clear()
            instance_from_json(text)
            counts.append(len(built))
        assert 0 < counts[0] == counts[1]


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
            assert site.alpha == planted_alpha(inst.truth, i, site.x)

    def test_noise_bounded(self):
        params = web_params(noise_level=F(1, 10))
        inst = gen_instance(params, t_star=F(10**5))
        bound = params.noise_level * params.eps_edge
        for i, site in enumerate(inst.cfg.sites):
            assert abs(site.alpha - planted_alpha(inst.truth, i, site.x)) <= bound

    def test_coprimality_enforced(self):
        with pytest.raises(ParamsError, match="shares a factor"):
            gen_instance(small_params(), mode="rational", q_star=23)

    def test_archimedean_q_star_is_refused(self, monkeypatch):
        # refused before any site is placed, never rewritten to 1
        def place(*_args):
            raise AssertionError("sites placed for a refused q_star")

        monkeypatch.setattr("freqpath.synth._place_sites", place)
        with pytest.raises(ParamsError, match="archimedean mode requires q_star = 1"):
            gen_instance(small_params(), mode="archimedean", q_star=6)

    def test_infeasible_edge_count(self):
        with pytest.raises(InfeasibleParamsError):
            gen_instance(small_params(edge_count=10**6), t_star=F(10**5))


class TestAudit:
    def test_corrupted_slack_fails(self):
        inst = gen_instance(small_params(site_count=200), t_star=F(10**5))
        e = inst.edges[0]
        for delta in (F(1), F(1, 10**9)):
            bad = edge(e.i, e.j, e.p, e.q, e.witness, e.slack + delta)
            tampered = Instance(
                inst.cfg, (bad,) + inst.edges[1:], inst.truth, inst.params
            )
            report = audit_instance(tampered)
            assert not report.passed
            assert any(
                c.name == "edges" and not c.passed and "not exact" in c.detail
                for c in report.checks
            )

    def test_physical_slack_at_the_bound(self):
        # s_edge equal to the largest stored slack passes, 10^-15 below it
        # fails; the integer check agrees with the Fraction reference
        inst = gen_instance(small_params(site_count=200), t_star=F(10**5))
        top = max(e.slack for e in inst.edges)
        for s_edge, ok in ((top, True), (top - F(1, 10**15), False)):
            params = dataclasses.replace(inst.params, s_edge=s_edge)
            tampered = Instance(inst.cfg, inst.edges, inst.truth, params)
            edges = next(c for c in audit_instance(tampered).checks
                         if c.name == "edges")
            assert edges.passed == ok == ref_slacks_within(tampered)
            assert ok or "physical slack" in edges.detail

    def test_planted_consistency_at_the_bound(self):
        # a site moved exactly noise_level * eps_edge off its planted alpha
        # passes, 10^-15 further fails, on either side; the integer check
        # agrees with the Fraction reference each time
        params = web_params(noise_level=F(1, 100))
        inst = gen_instance(params, mode="rational", t_star=F(10**5), q_star=6)
        bound = params.noise_level * params.eps_edge
        tiny = F(1, 10**15)
        sites = list(inst.cfg.sites)
        for i in (0, len(sites) - 1):
            ideal = planted_alpha(inst.truth, i, sites[i].x)
            for delta, ok in ((bound, True), (-bound, True),
                              (bound + tiny, False), (-bound - tiny, False)):
                moved = sites[:i] + [site(sites[i].x, ideal + delta)] + sites[i + 1:]
                cfg = Configuration(tuple(moved), inst.cfg.separation,
                                    inst.cfg.split_p1, inst.cfg.split_p2)
                tampered = Instance(cfg, inst.edges, inst.truth, params)
                planted = next(c for c in audit_instance(tampered).checks
                               if c.name == "planted_consistency")
                assert planted.passed == ok == ref_planted_consistency(tampered)

    def test_corrupted_witness_fails(self):
        inst = gen_instance(small_params(site_count=200), t_star=F(10**5))
        e = inst.edges[0]
        bad = edge(e.i, e.j, e.p, e.q, frozenset({5}), e.slack)
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
    return params, [F(*x) for x in _place_sites(params, random.Random(seed), q_star)]


def physical_candidates(params: Params, xs: list[F]) -> tuple[list, list]:
    """`_physical_candidates` of the ascending sites xs, and the Fraction
    oracle's candidates with each slack written as a pair in lowest terms."""
    got = _physical_candidates(params, [pair(x) for x in xs])
    want = [(i, j, p, q, pair(slack))
            for i, j, p, q, slack in brute_physical_candidates(params, xs)]
    return got, want


class TestPhysicalCandidates:
    """The integer-scaled search keeps the Fraction oracle's candidates,
    slacks included, in the same order."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("q_star", [1, 6])
    def test_e2e_sites(self, seed, q_star):
        got, want = physical_candidates(*e2e_sites(seed, q_star))
        assert len(want) > 300
        assert got == want

    def test_1200_sites(self):
        params, xs = e2e_sites(2, 1, sites=1200)
        assert len(xs) >= 1200
        got, want = physical_candidates(params, xs)
        assert got == want

    def test_chain_instance_sites(self):
        params = Params(
            X=10**11, H=4 * 10**5, K=500, P=100, P_prime=5,
            eps_edge=F(1, 8), s_edge=F(8), site_count=120, seed=0,
            placement="web", web_chains=6, web_chain_len=8,
        )
        xs = [F(*x) for x in _place_sites(params, random.Random(0), 1)]
        got, want = physical_candidates(params, xs)
        assert want
        assert got == want

    # hand-built sites on the [20, 40] pool, split (23, 29) | (31, 37)

    def test_exact_tie_goes_to_the_smaller_site(self):
        # x_0 * 31/23 = 3100/7 lies exactly between 3099/7 and 3101/7
        xs = [F(2300, 7), F(3099, 7), F(3101, 7), F(5000, 3)]
        got, want = physical_candidates(small_params(s_edge=F(5)), xs)
        assert got == want
        assert (0, 1, 23, 31, (1, 31 * 7)) in got
        assert not any(c[:4] == (0, 2, 23, 31) for c in got)

    def test_fractional_target_takes_the_site_above(self):
        # x_0 * 31/23 = 1581/23 lies strictly between the sites 68 and 69,
        # and 69 is the nearer one
        xs = [F(51), F(68), F(69)]
        got, want = physical_candidates(small_params(s_edge=F(5)), xs)
        assert got == want
        assert (0, 2, 23, 31, (6, 23 * 31)) in got

    def test_slack_equal_to_threshold_is_kept(self):
        # x_0/23 = 100 and x_1/31 = 209/2, so the slack is exactly 9/2
        xs = [F(2300), F(6479, 2)]
        at = small_params(s_edge=F(9, 2))
        below = small_params(s_edge=F(9, 2) - F(1, 10**9))
        assert (0, 1, 23, 31, (9, 2)) in physical_candidates(at, xs)[0]
        assert (0, 1, 23, 31, (9, 2)) not in physical_candidates(below, xs)[0]
        for params in (at, below):
            got, want = physical_candidates(params, xs)
            assert got == want

    @given(
        base=st.lists(st.fractions(min_value=1, max_value=3000, max_denominator=12),
                      min_size=1, max_size=8),
        s_edge=st.fractions(min_value=F(1, 8), max_value=20, max_denominator=8),
        p=st.sampled_from([23, 29]),
        q=st.sampled_from([31, 37]),
        offset=st.fractions(min_value=0, max_value=10, max_denominator=6),
    )
    def test_matches_the_oracle_on_drawn_sites(self, base, s_edge, p, q, offset):
        # around x = base[0] and its target x*q/p: two sites at equal
        # distance offset from the target (an exact tie; offset 0 puts one
        # on it) and one whose slack to x is exactly s_edge
        x = base[0]
        target = x * F(q, p)
        planted = [target - offset, target + offset, q * (x / p + s_edge)]
        xs = sorted({v for v in base + planted if v > 0})
        got, want = physical_candidates(small_params(s_edge=s_edge), xs)
        assert got == want

    def test_site_itself_is_skipped(self):
        # x_0 * 31/23 = 62: x_0 itself (distance 16) is nearer than x_1
        # (distance 17), but an edge needs two sites, so x_1 is taken
        xs = [F(46), F(79)]
        params = small_params(s_edge=F(5))
        got, want = physical_candidates(params, xs)
        assert got == want
        assert (0, 1, 23, 31, (17, 31)) in got
        assert all(i != j for i, j, *_ in got)
        assert physical_candidates(params, [F(46)]) == ([], [])


def chain_params(seed: int) -> Params:
    """Acceptance criterion 3's chain scale: 6 chains of length 8."""
    return Params(
        X=10**11, H=4 * 10**5, K=500, P=100, P_prime=5,
        eps_edge=F(1, 8), s_edge=F(8), site_count=120, seed=seed,
        placement="web", web_chains=6, web_chain_len=8,
    )


class TestPlacement:
    """Placement on integer-scaled sites places the Fraction oracle's sites,
    drawing the same random numbers."""

    @staticmethod
    def both(params: Params, q_star: int) -> tuple[list, list]:
        """The placed sites as pairs, and the oracle's written as pairs."""
        rng, ref_rng = random.Random(params.seed), random.Random(params.seed)
        got = _place_sites(params, rng, q_star)
        want = [pair(x) for x in ref_place_sites(params, ref_rng, q_star)]
        assert rng.getstate() == ref_rng.getstate()
        return got, want

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("q_star", [1, 6])
    def test_e2e_seeds(self, seed, q_star):
        got, want = self.both(web_params(site_count=300, seed=seed,
                                         web_pair_targets=6), q_star)
        assert len(want) >= 300
        assert got == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chain_instances(self, seed):
        got, want = self.both(chain_params(seed), 1)
        assert got == want

    @pytest.mark.parametrize("seed", [0, 5])
    def test_uniform(self, seed):
        got, want = self.both(small_params(seed=seed), 1)
        assert len(want) == 400
        assert got == want

    def test_closing_edge_at_the_threshold_is_planted(self):
        # s_edge is the first route pair's closing-edge deviation
        # |z2*qd/pd - y| / qd exactly; the physical threshold is inclusive,
        # so the pair is planted and its target y is a site
        base = web_params(site_count=300, seed=0, web_pair_targets=1,
                          web_diamonds=0, web_chains=0)
        (pa, qa, pb, qb), (pc, qc, pd, qd) = _route_pair_candidates(base, 1, 4)[0]
        hub = base.site_lo
        y = hub * F(qa * qb, pa * pb)
        s_edge = abs(hub * F(qc * qd, pc * pd) - y) / qd
        got, want = self.both(dataclasses.replace(base, s_edge=s_edge), 1)
        assert got == want
        assert pair(y) in got

    def test_infeasible_is_refused_alike(self):
        # 191 grid slots and 191 sites: the planted web sites lie off the
        # grid, so some slots are blocked and the grid cannot fill up
        params = small_params(X=10**6, site_count=191, placement="web",
                              web_pair_targets=2, web_diamonds=1, web_chains=1,
                              web_chain_len=3)
        assert params.slot_count() + 1 == 191
        errors = []
        for place in (_place_sites, ref_place_sites):
            with pytest.raises(InfeasibleParamsError) as info:
                place(params, random.Random(params.seed), 1)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "could not place 191 separated sites"


def uniform_noisy_params() -> Params:
    """Uniform placement at the e2e scale with an edge count to meet and
    noise that costs most candidates their witnesses."""
    return web_params(site_count=300, seed=3, placement="uniform",
                      web_pair_targets=0, web_diamonds=0, web_chains=0,
                      web_chain_len=0, edge_count=30, noise_level=F(1, 4))


# sha256 of instance_to_json (schema 3); the sites and edges are those of
# the generator that decided placement, candidates and witnesses in Fraction
# arithmetic, and a change to generation that moves one byte fails here
PINNED = {
    "e2e-0-archimedean": "bf872fca87f8c42a17772a64603611ad609a4a70a30cc4decd2351ef2990a9d0",
    "e2e-0-rational": "66ac0107f48df66a4e2785ea009266e82fc73627530c1b94eef9a750c9b916d1",
    "e2e-1-archimedean": "de94768e7a9b411d69e66c6874745a535cd799cd9fc9d973a45c0890e25ac36b",
    "e2e-1-rational": "6937d2251f2c0b132328675698c5fdfb0ae2b45d0e019717d0be7d77bee28793",
    "e2e-2-archimedean": "b44d7c58674dc9b5131e198452242be6d170ce7e6d389cc5e683f7405761516d",
    "e2e-2-rational": "70d79e93a7868adc1fd91a8283845ced19b7a892dcc204781647b990b66dc0f0",
    "chain-0": "6c6c76b9bfef37249aba09a9b1d203d34ea5f45641e9e4e17e8919b41e6cc7c9",
    "uniform-noisy": "8988e7c6fd76569218d329082861aa1bd13d40e7ced83a1ddd2ee6cf509b832a",
}


def pinned_instance(name: str) -> Instance:
    if name == "chain-0":
        return gen_instance(chain_params(0), t_star=F(10**5))
    if name == "uniform-noisy":
        return gen_instance(uniform_noisy_params(), t_star=F(10**5))
    _e2e, seed, mode = name.split("-")
    params = web_params(site_count=300, seed=int(seed), web_pair_targets=6)
    q_star = 6 if mode == "rational" else 1
    return gen_instance(params, mode=mode, t_star=F(10**5), q_star=q_star)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedBytes:
    """Generated instance files are pinned byte for byte."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_instance_bytes(self, name):
        inst = pinned_instance(name)
        if name == "uniform-noisy":
            assert len(inst.edges) == 30
        text = instance_to_json(inst)
        assert sha256_hex(text) == PINNED[name]
        # every slack and witness set the loader derives is the generated one
        assert instance_from_json(text).edges == inst.edges

    def test_bytes_under_optimize(self):
        # python -O strips every assert: generation must not depend on one
        script = textwrap.dedent("""
            import sys
            import test_synth

            if not sys.flags.optimize:
                sys.exit(2)
            name = "e2e-0-rational"
            inst = test_synth.pinned_instance(name)
            digest = test_synth.sha256_hex(test_synth.instance_to_json(inst))
            sys.exit(0 if digest == test_synth.PINNED[name] else 1)
        """)
        here = pathlib.Path(__file__).resolve().parent
        src = pathlib.Path(freqpath.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(here)])}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestWebPlacement:
    def test_planted_pairs_have_disjoint_routes(self):
        from freqpath.recover import find_disjoint_path_pairs, select_hub

        inst = gen_instance(web_params(), t_star=F(10**5))
        hub = select_hub(inst)
        search = find_disjoint_path_pairs(inst, hub.index, k=2)
        assert len(search.pairs) >= 1
        for pair in search.pairs:
            # the loop's first k steps are one route and its last k the other
            loop = pair.loop
            sa = set(loop.p_primes[:2] + loop.q_primes[:2])
            sb = set(loop.p_primes[2:] + loop.q_primes[2:])
            assert len(sa) == len(sb) == 4 and not sa & sb
            assert pair.prepath.modulus.q > 1

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
