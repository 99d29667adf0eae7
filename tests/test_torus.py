"""Exact torus arithmetic: canonical reduction, norms, lifts and the
checked coprime combination."""
from __future__ import annotations

import copy
import pickle
from fractions import Fraction as F

import pytest

from conftest import (
    brute_closest_lift_pair,
    lift_roots,
    rand_coprime_primes,
    rand_fraction,
    rand_modulus,
)
from freqpath.torus import (
    Modulus,
    TorusError,
    TorusPoint,
    closest_lift_pair,
    combine_moduli,
    frac_to_str,
    norm_mod,
    reduce_mod,
    scaled_gap,
    str_to_frac,
    torus_norm,
)


class TestReduce:
    def test_direct_mod_reduction(self):
        assert reduce_mod(F(73, 10), 5).value == F(23, 10)

    def test_negative_input_wraps(self):
        assert reduce_mod(F(-1, 3), 1).value == F(2, 3)

    def test_zero(self):
        assert reduce_mod(0, 7).value == 0

    def test_canonical_range(self, rng):
        for _ in range(300):
            m = rand_modulus(rng)
            x = rand_fraction(rng) - rand_fraction(rng)
            pt = reduce_mod(x, m)
            assert 0 <= pt.value < m.q
            assert (x - pt.value) % m.q == 0


class TestPoint:
    def test_value_semantics(self):
        m = Modulus(35, (5, 7))
        pt = reduce_mod(F(-1, 3), m)
        for name in ("num", "den", "modulus"):
            with pytest.raises(AttributeError):
                setattr(pt, name, 1)
            with pytest.raises(AttributeError):
                delattr(pt, name)
        assert (pt.num, pt.den) == (104, 3)
        same = TorusPoint(104, 3, Modulus(35, (5, 7)))
        assert same == pt and hash(same) == hash(pt)
        # the same q with other factors (none) is another modulus
        assert TorusPoint(104, 3, Modulus(35)) != pt
        assert TorusPoint(103, 3, m) != pt
        for twin in (copy.copy(pt), copy.deepcopy(pt), pickle.loads(pickle.dumps(pt))):
            assert twin == pt and hash(twin) == hash(pt)
            assert twin.modulus == m and twin.value == F(104, 3)


class TestNorm:
    def test_below_half(self):
        assert torus_norm(reduce_mod(F(23, 10), 5)) == F(23, 10)

    def test_antipode(self):
        assert torus_norm(reduce_mod(F(9, 2), 1)) == F(1, 2)

    def test_zero(self):
        assert torus_norm(reduce_mod(0, 11)) == 0

    def test_range_and_sign_consistency(self, rng):
        for _ in range(300):
            m = rand_modulus(rng)
            pt = reduce_mod(rand_fraction(rng) - rand_fraction(rng), m)
            n = torus_norm(pt)
            assert 0 <= n <= F(m.q, 2)
            # the integer norm of 1*pt - 0*pt agrees, unreduced over d^2
            g, d = scaled_gap(1, pt, 0, pt)
            assert F(g, d) == n and d == pt.value.denominator ** 2


class TestLiftRoots:
    def test_two_lifts(self):
        roots = lift_roots(reduce_mod(F(1, 5), 1), 2)
        assert [r.value for r in roots] == [F(1, 10), F(3, 5)]

    def test_three_lifts(self):
        roots = lift_roots(reduce_mod(F(3, 10), 1), 3)
        assert [r.value for r in roots] == [F(1, 10), F(13, 30), F(23, 30)]

    def test_prime_divides_modulus(self):
        with pytest.raises(TorusError):
            lift_roots(reduce_mod(F(1, 2), 6), 3)

    def test_roots_multiply_back(self, rng):
        for _ in range(200):
            m = rand_modulus(rng)
            (p,) = rand_coprime_primes(rng, 1, m)
            alpha = reduce_mod(rand_fraction(rng), m)
            roots = lift_roots(alpha, p)
            assert len(set(r.value for r in roots)) == p
            for r in roots:
                assert r.scale(p).value == alpha.value


class TestClosestLiftPair:
    def test_worked_example(self):
        a1 = reduce_mod(F(3, 10), 1)
        a2 = reduce_mod(F(21, 100), 1)
        b1, b2 = closest_lift_pair(a1, a2, 2, 3)
        assert (b1.value, b2.value) == (F(21, 200), F(1, 10))
        assert torus_norm(b1 - b2) == F(1, 200)

    def test_exact_incidence_gap_zero(self):
        # 2^{-1} a2 and 3^{-1} a1 share a lift when 2*x = a1, 3*x = a2 for x = 1/10
        a1 = reduce_mod(F(3, 10), 1)
        a2 = reduce_mod(F(1, 5), 1)
        b1, b2 = closest_lift_pair(a1, a2, 2, 3)
        assert b1.value == b2.value == F(1, 10)

    def test_equal_primes_rejected(self):
        a = reduce_mod(F(1, 3), 1)
        with pytest.raises(TorusError):
            closest_lift_pair(a, a, 5, 5)

    def test_matches_exhaustive_search(self, rng):
        for _ in range(150):
            m = rand_modulus(rng)
            p1, p2 = rand_coprime_primes(rng, 2, m)
            a1 = reduce_mod(rand_fraction(rng) * m.q, m)
            a2 = reduce_mod(rand_fraction(rng) * m.q, m)
            fast = closest_lift_pair(a1, a2, p1, p2)
            brute = brute_closest_lift_pair(a1, a2, p1, p2)
            assert (fast[0].value, fast[1].value) == (
                brute[0].value,
                brute[1].value,
            )

    def test_gap_bound(self, rng):
        for _ in range(200):
            m = rand_modulus(rng)
            p1, p2 = rand_coprime_primes(rng, 2, m)
            a1 = reduce_mod(rand_fraction(rng) * m.q, m)
            a2 = reduce_mod(rand_fraction(rng) * m.q, m)
            b1, b2 = closest_lift_pair(a1, a2, p1, p2)
            assert torus_norm(b1 - b2) <= F(m.q, 2 * p1 * p2)

    def test_antipodal_tie_is_deterministic(self):
        # ||w||_Q = Q/2 exactly: both shifts achieve the gap, lexicographic wins
        a1 = reduce_mod(F(0), 1)
        a2 = reduce_mod(F(1, 4), 1)  # w = 2*a2 - 3*a1 = 1/2
        b1, b2 = closest_lift_pair(a1, a2, 3, 2)
        brute = brute_closest_lift_pair(a1, a2, 3, 2)
        assert (b1.value, b2.value) == (brute[0].value, brute[1].value)


class TestCombineModuli:
    def test_exact_multiple(self):
        assert combine_moduli(F(10), 2, 5, F(1, 10)) is True
        assert norm_mod(F(10), 10) == 0

    def test_close_multiple(self):
        assert combine_moduli(F(101, 10), 2, 5, F(1, 5)) is True
        assert norm_mod(F(101, 10), 10) == F(1, 10)

    def test_eps_too_large(self):
        with pytest.raises(TorusError):
            combine_moduli(F(1), 2, 5, F(3, 5))

    def test_shared_factor(self):
        with pytest.raises(TorusError):
            combine_moduli(F(1), 6, 10, F(1, 10))

    def test_inference_always_holds(self, rng):
        # both single-modulus norms below eps force the product-modulus norm
        for _ in range(1000):
            q1, q2 = rng.sample([2, 3, 5, 7, 11, 13], 2)
            eps = F(rng.randint(1, 499), 1000)
            x = rng.randint(-50, 50) * q1 * q2 + F(
                rng.randint(-999, 999), 1000
            ) * eps
            assert norm_mod(x, q1) < eps and norm_mod(x, q2) < eps
            assert combine_moduli(x, q1, q2, eps) is True


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(50):
            x = rand_fraction(rng) - rand_fraction(rng)
            assert str_to_frac(frac_to_str(x)) == x

    def test_format(self):
        assert frac_to_str(F(23, 10)) == "23/10"
        assert frac_to_str(5) == "5/1"
        assert str_to_frac("7") == 7
