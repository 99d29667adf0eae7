"""The integer exact core against its Fraction reference oracles.

Reductions mod Q, merged points, whole pyramids (layers and both tolerance
tables) and certificate rows must equal the reference values exactly, on
Q = 1, Q = 35 and products of three primes, with uniform and non-uniform
tolerances, at forced antipodal ties where two lift pairs are equally
close, and on chain paths of length 1..8 taken through `path_prepath`.
Every row string must be `frac_to_str` of the Fraction its row reads back.
"""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    MODULUS_PRIMES,
    SMALL_PRIMES,
    brute_closest_lift_pair,
    path_over,
    planted_prepath,
    qside_bound,
    ref_anchor_bound,
    ref_build_pyramid,
    ref_closest_lift_pair,
    ref_merge_two,
    ref_ratio_drift,
    ref_reduce_mod,
    ref_top_anchor,
    step_eps,
    step_eps_prime,
    top_anchor_actuals,
    walk_path,
)
from freqpath.pathgraph import (
    Edge,
    Path,
    Site,
    anchor_bound_certificate,
    path_prepath,
    ratio_drift_certificate,
    top_anchor_certificate,
)
from freqpath.pyramid import (
    HypothesisViolation,
    PrePath,
    build_pyramid,
    layer_step,
    merge_two,
    verify_pyramid,
)
from freqpath.torus import (
    Modulus,
    TorusPoint,
    closest_lift_pair,
    frac_to_str,
    reduce_mod,
    scaled_gap,
    torus_norm,
)

three_prime_moduli = st.lists(
    st.sampled_from(MODULUS_PRIMES), min_size=3, max_size=3, unique=True
).map(lambda fs: Modulus(prod(fs), tuple(sorted(fs))))
moduli = st.one_of(
    st.just(Modulus(1, ())), st.just(Modulus(35, (5, 7))), three_prime_moduli
)


def coprime_primes(modulus: Modulus, n: int, pool=SMALL_PRIMES):
    return st.lists(
        st.sampled_from([p for p in pool if modulus.q % p]),
        min_size=n, max_size=n, unique=True,
    )


def points(modulus: Modulus, max_den: int = 10**12):
    return st.integers(1, max_den).flatmap(
        lambda d: st.integers(0, modulus.q * d - 1).map(
            lambda n: reduce_mod(F(n, d), modulus)
        )
    )


positive = st.builds(F, st.integers(1, 1000), st.integers(1, 4000))


@st.composite
def merge_cases(draw, tie: bool = False):
    """(a1, a2, p1, p2, eps1, eps2) satisfying the merge premise.  With
    tie=True, p1*a1 - p2*a2 sits at the antipode Q/2, so two lift pairs are
    equally close, and eps1 + eps2 is drawn above Q/2."""
    m = draw(moduli)
    p1, p2 = draw(coprime_primes(m, 2))
    a1 = draw(points(m))
    half = F(m.q, 2)
    if tie:
        eps1 = half * draw(st.builds(F, st.integers(1, 999), st.just(1000)))
        eps2 = half - eps1 + draw(positive)
        delta = half
    else:
        eps1, eps2 = draw(positive), draw(positive)
        share = draw(st.builds(F, st.integers(-999, 999), st.just(1000)))
        delta = (eps1 + eps2) * share
    t = draw(st.integers(0, p2 - 1))
    a2 = reduce_mod((p1 * a1.value + delta + t * m.q) / p2, m)
    return a1, a2, p1, p2, eps1, eps2


@st.composite
def prepaths(draw, uniform: bool):
    """A planted pre-path of length 1..6; when not uniform, every tolerance
    is raised by its own factor, which keeps the planted hypotheses."""
    m = draw(moduli)
    k = draw(st.integers(1, 6))
    eps = F(1, draw(st.integers(10, 200)))
    pp = planted_prepath(random.Random(draw(st.integers(0, 2**32))), k, eps, m)
    if uniform:
        return pp
    factors = st.lists(st.integers(1, 50), min_size=k, max_size=k)
    return PrePath(
        pp.modulus, pp.top_anchors, pp.mid_anchors, pp.p_primes, pp.q_primes,
        tuple(e * f for e, f in zip(pp.eps, draw(factors))),
        tuple(e * f for e, f in zip(pp.eps_prime, draw(factors))),
    )


def assert_same_pyramid(pp: PrePath) -> None:
    py, ref = build_pyramid(pp), ref_build_pyramid(pp)
    assert py.layers == ref.layers
    assert step_eps(py) == ref.step_eps
    assert step_eps_prime(py) == ref.step_eps_prime


class TestReduceMod:
    @given(
        moduli,
        st.one_of(
            st.integers(-10**30, 10**30),
            st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**15)),
        ),
    )
    def test_canonical(self, m, x):
        r = reduce_mod(x, m).value
        assert r == ref_reduce_mod(x, m.q)
        assert 0 <= r < m.q
        assert ((x - r) / m.q).denominator == 1
        assert r.denominator > 0 and gcd(r.numerator, r.denominator) == 1


class TestScaledGap:
    @given(st.data())
    def test_matches_torus_norm(self, data):
        m = data.draw(moduli)
        a, b = data.draw(points(m)), data.draw(points(m))
        c1, c2 = data.draw(st.integers(-10**6, 10**6)), data.draw(st.integers(-99, 99))
        g, d = scaled_gap(c1, a, c2, b)
        assert F(g, d) == torus_norm(a.scale(c1) - b.scale(c2))


class TestLiftPair:
    @given(merge_cases())
    def test_matches_reference(self, case):
        a1, a2, p1, p2, _e1, _e2 = case
        ref = ref_closest_lift_pair(a1, a2, p1, p2)
        assert closest_lift_pair(a1, a2, p1, p2) == ref

    @given(st.data())
    def test_antipodal_tie_matches_exhaustive_search(self, data):
        m = data.draw(moduli)
        p1, p2 = data.draw(coprime_primes(m, 2, pool=SMALL_PRIMES[:8]))
        a1 = data.draw(points(m, max_den=1000))
        t = data.draw(st.integers(0, p2 - 1))
        a2 = reduce_mod((p1 * a1.value + F(m.q, 2) + t * m.q) / p2, m)
        b1, b2 = closest_lift_pair(a1, a2, p1, p2)
        assert torus_norm(b1 - b2) == F(m.q, 2 * p1 * p2)
        assert (b1, b2) == brute_closest_lift_pair(a1, a2, p1, p2)


class TestMergeTwo:
    @given(merge_cases())
    def test_matches_reference(self, case):
        assert merge_two(*case) == ref_merge_two(*case)

    @given(merge_cases(tie=True))
    def test_antipodal_tie_matches_reference(self, case):
        assert merge_two(*case) == ref_merge_two(*case)

    def test_output_is_canonical_and_reduced(self):
        a = merge_two(reduce_mod(F(3, 10), 1), reduce_mod(F(21, 100), 1), 2, 3,
                      F(1, 50), F(1, 50))
        assert a == TorusPoint(F(41, 400), Modulus(1))


class TestPyramid:
    @given(prepaths(uniform=True))
    def test_uniform_matches_reference(self, pp):
        assert_same_pyramid(pp)

    @given(prepaths(uniform=False))
    def test_nonuniform_matches_reference(self, pp):
        assert_same_pyramid(pp)

    @given(prepaths(uniform=True))
    def test_verify_rows_match_direct_substitution(self, pp):
        py = build_pyramid(pp)
        col = py.anchor_column
        for row in verify_pyramid(pp, py).rows:
            j = row.j
            actual = torus_norm(col[j].scale(pp.q_primes[j - 1]) - col[j - 1])
            assert row.actual == actual
            assert row.passed == (actual < row.predicted)
            assert row.predicted == qside_bound(py, j, 1)


def assert_row_strings(row: dict, cert, names) -> None:
    """Each named value of a row is written as `frac_to_str` writes the
    Fraction the certificate reads back under the same name."""
    for name in names:
        assert row[name] == frac_to_str(getattr(cert, name)), name


def assert_certificates_match_reference(path, py) -> None:
    """Every anchor and apex row equals its Fraction reference, each
    `passed` is the Fraction comparison actual <= bound, and each row
    string is the Fraction read back."""
    k = path.k
    for j in range(2, k + 2):
        for m in range(1, j):
            cert = anchor_bound_certificate(path, py, j, m)
            assert (cert.actual, cert.bound) == ref_anchor_bound(py, j, m)
            assert cert.passed == (cert.actual <= cert.bound)
            assert_row_strings(cert.to_row(), cert, ("actual", "bound"))
    for j in range(1, k + 2):
        cert = top_anchor_certificate(path, py, j)
        assert (cert.actual, cert.bound) == ref_top_anchor(py, j)
        assert cert.passed == (cert.actual <= cert.bound)
        assert top_anchor_actuals(path, py.top, j) == cert.actual
        assert_row_strings(cert.to_row(), cert, ("actual", "bound"))


@st.composite
def drift_paths(draw):
    """A walk of length 1..6 over random positions; each stored slack is
    the exact step deviation times a factor in [0, 2], often exactly 1, so
    drift <= bound fails for some draws and holds for others, with
    equality when every factor is 1 and the deviations share a sign."""
    k = draw(st.integers(1, 6))
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=2 * k,
                           max_size=2 * k, unique=True))
    xs = draw(st.lists(st.builds(F, st.integers(1, 10**9), st.integers(1, 10**4)),
                       min_size=k + 1, max_size=k + 1))
    factor = st.one_of(st.just(F(1)), st.builds(F, st.integers(0, 2000), st.just(1000)))
    factors = draw(st.lists(factor, min_size=k, max_size=k))
    edges = tuple(
        Edge(t, t + 1, p, q, frozenset({2}), abs(xs[t] / p - xs[t + 1] / q) * c)
        for t, (p, q, c) in enumerate(zip(primes[:k], primes[k:], factors))
    )
    return Path(tuple(Site(x, 0) for x in xs), edges)


class TestCertificates:
    @given(prepaths(uniform=True))
    def test_rows_match_reference(self, pp):
        assert_certificates_match_reference(path_over(pp), build_pyramid(pp))

    @given(prepaths(uniform=True), st.builds(F, st.integers(1, 999), st.just(1000)))
    def test_rows_match_reference_on_moved_layers(self, pp, share):
        # every layer above the base moved by share*Q: the rows that now
        # fail are decided as the Fraction comparison decides them
        py = build_pyramid(pp)
        shift = share * pp.modulus.q
        moved = tuple(tuple(reduce_mod(a.value + shift, pp.modulus) for a in layer)
                      for layer in py.layers[1:])
        py = dataclasses.replace(py, layers=py.layers[:1] + moved)
        assert_certificates_match_reference(path_over(pp), py)

    def test_distance_at_the_bound(self, rng):
        # anchor and apex rows pass at equality (<=), layer-gap rows do not
        # (<): the apex of a length-1 pyramid is moved to exactly the bound
        # of each row, then 10^-12 past it
        eps = F(1, 20)
        pp = planted_prepath(rng, 1, eps, Modulus(1, ()))
        path, py = path_over(pp), build_pyramid(pp)
        (p1,), (q1,) = pp.p_primes, pp.q_primes
        base = py.layers[0]

        def with_apex(anchor, mult, gap):
            # the apex a with mult * a - anchor = gap
            apex = reduce_mod((anchor.value + gap) / mult, pp.modulus)
            return dataclasses.replace(py, layers=(base, (apex,)))

        for extra, ok in ((F(0), True), (F(1, 10**12), False)):
            cert = anchor_bound_certificate(path, with_apex(base[0], q1, eps / p1 + extra), 2, 1)
            assert (cert.actual, cert.bound, cert.passed) == (eps / p1 + extra, eps / p1, ok)
            cert = top_anchor_certificate(path, with_apex(base[1], p1, eps / q1 + extra), 2)
            assert (cert.actual, cert.bound, cert.passed) == (eps / q1 + extra, eps / q1, ok)
        row, = verify_pyramid(pp, with_apex(base[0], q1, eps / p1)).rows
        assert (row.actual, row.predicted, row.passed) == (eps / p1, eps / p1, False)

    @given(drift_paths())
    def test_ratio_drift_matches_reference(self, path):
        for m in range(1, path.k + 1):
            cert = ratio_drift_certificate(path, m)
            ref = ref_ratio_drift(path, m)
            assert (cert.ratio, cert.drift, cert.bound, cert.passed) == ref
            assert cert.passed == (cert.drift <= cert.bound)


@st.composite
def chain_paths(draw, k: int):
    """(path, eps, modulus): a chain walk of length k whose pre-path
    modulo `modulus` meets its hypotheses.  The frequencies follow
    alpha_{t+1} = (p_t * alpha_t + delta_t) / q_t with |delta_t| < eps, so
    ||q_t * alpha_{t+1} - p_t * alpha_t|| < eps, and the positions follow
    x_{t+1} = x_t * q_t / p_t up to a relative jitter below 1/100."""
    m = draw(moduli)
    primes = draw(coprime_primes(m, 2 * k))
    ps, qs = primes[:k], primes[k:]
    eps = F(1, draw(st.integers(8, 200)))
    alpha = draw(st.builds(F, st.integers(0, 10**6), st.integers(1, 10**6)))
    x = F(draw(st.integers(10**3, 10**9)))
    share = st.builds(F, st.integers(-999, 999), st.just(1000))
    sites = [Site(x, alpha)]
    for p, q in zip(ps, qs):
        alpha = (p * alpha + eps * draw(share)) / q
        x = x * q / p * (1 + draw(share) / 100)
        sites.append(Site(x, alpha))
    return walk_path(sites, ps, qs, (frozenset({2}),) * k), eps, m


# every length 1..8 gets its own draws, 15 each
chain_cases = pytest.mark.parametrize("k", range(1, 9))
per_length = settings(max_examples=15)


class TestChainPaths:
    @chain_cases
    @per_length
    @given(data=st.data())
    def test_core_matches_reference(self, k, data):
        path, eps, modulus = data.draw(chain_paths(k))
        pp = path_prepath(path, eps, modulus)
        py = build_pyramid(pp)
        ref = ref_build_pyramid(pp)
        assert py.layers == ref.layers
        assert step_eps(py) == ref.step_eps
        assert step_eps_prime(py) == ref.step_eps_prime
        for row in verify_pyramid(pp, py).rows:
            assert row.predicted == qside_bound(py, row.j, 1)
            assert row.passed
            assert_row_strings(row.to_json(), row, ("actual", "predicted"))
        for m in range(1, path.k + 1):
            cert = ratio_drift_certificate(path, m)
            assert (cert.ratio, cert.drift, cert.bound, cert.passed) == ref_ratio_drift(path, m)
            assert_row_strings(cert.to_row(), cert, ("ratio", "drift", "bound"))
        assert_certificates_match_reference(path, py)

    @chain_cases
    @per_length
    @given(data=st.data())
    def test_failed_premise_names_its_index(self, k, data):
        # the merge at index i gets tolerances summing to exactly its gap;
        # the merges before it keep the pre-path's, under which they hold
        path, eps, modulus = data.draw(chain_paths(k))
        pp = path_prepath(path, eps, modulus)
        i = data.draw(st.integers(0, pp.k - 1))
        top = pp.top_anchors
        gap = F(*scaled_gap(pp.p_primes[i], top[i], pp.q_primes[i], top[i + 1]))
        assume(gap > 0)
        tight = list(pp.eps)
        tight[i] = gap / 2
        with pytest.raises(HypothesisViolation, match=f"merge failed at index {i + 1}: "):
            layer_step(top, pp.p_primes, pp.q_primes, tuple(tight), tuple(tight))
