"""The integer exact core against its Fraction reference oracles.

Reductions mod Q, merged points, whole pyramids (layers and both tolerance
tables) and certificate rows must equal the reference values exactly, on
Q = 1, Q = 35 and products of three primes, with uniform and non-uniform
tolerances, and at forced antipodal ties where two lift pairs are equally
close.
"""
from __future__ import annotations

import random
from fractions import Fraction as F
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    MODULUS_PRIMES,
    SMALL_PRIMES,
    brute_closest_lift_pair,
    path_over,
    planted_prepath,
    ref_anchor_bound,
    ref_build_pyramid,
    ref_closest_lift_pair,
    ref_merge_two,
    ref_reduce_mod,
    ref_top_anchor,
)
from freqpath.pathgraph import (
    anchor_bound_certificate,
    top_anchor_actuals,
    top_anchor_certificate,
)
from freqpath.primes import prod
from freqpath.pyramid import PrePath, build_pyramid, merge_two, verify_pyramid
from freqpath.torus import (
    Modulus,
    TorusPoint,
    closest_lift_pair,
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
    assert py.step_eps == ref.step_eps
    assert py.step_eps_prime == ref.step_eps_prime


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
            assert row.predicted == py.qside_bound(j, 1)


class TestCertificates:
    @given(prepaths(uniform=True))
    def test_rows_match_reference(self, pp):
        path, py = path_over(pp), build_pyramid(pp)
        k = pp.k
        for j in range(2, k + 2):
            for m in range(1, j):
                cert = anchor_bound_certificate(path, py, j, m)
                assert (cert.actual, cert.bound) == ref_anchor_bound(py, j, m)
        for j in range(1, k + 2):
            cert = top_anchor_certificate(path, py, j)
            assert (cert.actual, cert.bound) == ref_top_anchor(py, j)
            assert top_anchor_actuals(path, py.top, j) == cert.actual
