"""Pre-path construction, the two-point merge, layer iteration, and the
closed-form gap bound."""
from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from math import prod

import pytest

from conftest import (
    all_passed,
    planted_prepath,
    pside_bound,
    qside_bound,
    rand_coprime_primes,
    rand_fraction,
    rand_modulus,
    rand_signed,
    ref_merge_two,
)
from freqpath import pyramid as pyramid_module
from freqpath.pyramid import (
    HypothesisViolation,
    PrePath,
    build_pyramid,
    layer_step,
    merge_two,
    predicted_gap,
    verify_pyramid,
)
from freqpath.torus import Modulus, reduce_mod, torus_norm


def make_valid_merge_case(rng: random.Random):
    """Random (a1, a2, p1, p2, e1, e2, Q) satisfying the merge premise."""
    m = rand_modulus(rng)
    p1, p2 = rand_coprime_primes(rng, 2, m)
    e1 = F(rng.randint(1, 1000), 4000)
    e2 = F(rng.randint(1, 1000), 4000)
    a1 = reduce_mod(rand_fraction(rng) * m.q, m)
    delta = rand_signed(rng, (e1 + e2) * F(999, 1000))
    t = rng.randrange(p2)
    a2 = reduce_mod((p1 * a1.value + delta + t * m.q) / p2, m)
    return a1, a2, p1, p2, e1, e2


class TestMergeTwo:
    def test_exact_incidence(self):
        a = merge_two(
            reduce_mod(F(3, 10), 1), reduce_mod(F(1, 5), 1), 2, 3, F(1, 10), F(1, 10)
        )
        assert a.value == F(1, 10)
        assert torus_norm(a.scale(3) - reduce_mod(F(3, 10), 1)) == 0
        assert torus_norm(a.scale(2) - reduce_mod(F(1, 5), 1)) == 0

    def test_worked_example(self):
        a1 = reduce_mod(F(3, 10), 1)
        a2 = reduce_mod(F(21, 100), 1)
        a = merge_two(a1, a2, 2, 3, F(1, 50), F(1, 50))
        assert a.value == F(41, 400)
        # direct substitution of the output into both inequalities
        assert torus_norm(a.scale(2) - a2) == F(1, 200) < F(1, 50) / 3
        assert torus_norm(a.scale(3) - a1) == F(3, 400) < F(1, 50) / 2

    def test_violated_premise(self):
        with pytest.raises(HypothesisViolation):
            merge_two(
                reduce_mod(F(0), 1), reduce_mod(F(1, 2), 1), 2, 3, F(1, 10), F(1, 10)
            )

    def test_premise_at_equality_is_refused(self):
        # ||2*0 - 3*(1/30)|| = 1/10 exactly: the premise is strict
        a1, a2 = reduce_mod(F(0), 1), reduce_mod(F(1, 30), 1)
        with pytest.raises(HypothesisViolation):
            merge_two(a1, a2, 2, 3, F(1, 20), F(1, 20))
        merge_two(a1, a2, 2, 3, F(1, 20), F(1, 20) + F(1, 10**9))

    def test_postconditions_random(self, rng):
        for _ in range(500):
            a1, a2, p1, p2, e1, e2 = make_valid_merge_case(rng)
            a = merge_two(a1, a2, p1, p2, e1, e2)
            assert torus_norm(a.scale(p2) - a1) < e1 / p1
            assert torus_norm(a.scale(p1) - a2) < e2 / p2

    def test_postconditions_checked_under_optimize(self):
        # a wrong lift index breaks the output inequalities; the checks must
        # raise even where `python -O` strips assert statements
        script = textwrap.dedent("""
            import sys
            from fractions import Fraction as F
            from freqpath import pyramid
            from freqpath.torus import reduce_mod

            assert sys.flags.optimize >= 1
            true_lift = pyramid.nearest_lift

            def wrong_lift(x, m, p1, p2):
                k1, k2, s = true_lift(x, m, p1, p2)
                return (k1 + 1) % p1, k2, s

            pyramid.nearest_lift = wrong_lift
            a1, a2 = reduce_mod(F(3, 10), 1), reduce_mod(F(21, 100), 1)
            try:
                pyramid.merge_two(a1, a2, 2, 3, F(1, 50), F(1, 50))
            except AssertionError as exc:
                print(exc)
                sys.exit(0)
            sys.exit(1)
        """)
        src = pathlib.Path(pyramid_module.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "merge output" in proc.stdout


class TestLayerStep:
    def test_single_pair_matches_merge(self):
        # ||2*a1 - 3*a2|| = 3/100 < 2/25, the merge premise
        m = Modulus(1)
        a1 = reduce_mod(F(3, 10), m)
        a2 = reduce_mod(F(21, 100), m)
        out = layer_step((a1, a2), (2,), (3,), (F(1, 25),), (F(1, 25),))
        assert len(out) == 1 and out[0].value == F(41, 400)

    def test_failing_merge_names_its_index(self):
        # merge 1: ||2*0 - 3*0|| = 0; merge 2: ||5*0 - 7*(1/2)|| = 1/2 >= 2/10
        m = Modulus(1)
        tops = (reduce_mod(F(0), m), reduce_mod(F(0), m), reduce_mod(F(1, 2), m))
        eps = (F(1, 10), F(1, 10))
        with pytest.raises(HypothesisViolation, match="index 2"):
            layer_step(tops, (2, 5), (3, 7), eps, eps)

    def test_exact_reference_side(self, rng):
        # mids equal to p_j * top_j exactly, as path_prepath builds them: the
        # p-side hypothesis is exact, the pre-path is valid, and each entry
        # of the layer is the Fraction reference merge of its two anchors
        for _ in range(20):
            k = rng.randint(1, 5)
            pp = planted_prepath(rng, k, F(1, 40))
            mids = tuple(reduce_mod(p * a.value, pp.modulus)
                         for p, a in zip(pp.p_primes, pp.top_anchors))
            exact = PrePath(pp.modulus, pp.top_anchors, mids, pp.p_primes,
                            pp.q_primes, eps=pp.eps)
            tops, eps = exact.top_anchors, (exact.eps,) * k
            out = layer_step(tops, exact.p_primes, exact.q_primes, eps, eps)
            assert out == tuple(
                ref_merge_two(tops[j], tops[j + 1], exact.p_primes[j],
                              exact.q_primes[j], exact.eps, exact.eps)
                for j in range(k)
            )

    def test_output_inequalities_random_slices(self, rng):
        for _ in range(60):
            k = rng.randint(1, 4)
            pp = planted_prepath(rng, k, F(1, 30))
            eps = (pp.eps,) * k
            out = layer_step(pp.top_anchors, pp.p_primes, pp.q_primes, eps, eps)
            for j in range(k):
                assert (
                    torus_norm(out[j].scale(pp.p_primes[j]) - pp.top_anchors[j + 1])
                    < pp.eps / pp.q_primes[j]
                )
                assert (
                    torus_norm(out[j].scale(pp.q_primes[j]) - pp.top_anchors[j])
                    < pp.eps / pp.p_primes[j]
                )


class TestBuildPyramid:
    def test_single_step_shape(self, rng):
        pp = planted_prepath(rng, 1, F(1, 20))
        py = build_pyramid(pp)
        assert [len(layer) for layer in py.layers] == [2, 1]
        direct = merge_two(
            pp.top_anchors[0],
            pp.top_anchors[1],
            pp.p_primes[0],
            pp.q_primes[0],
            pp.eps,
            pp.eps,
        )
        assert py.top.value == direct.value

    def test_plant_and_recover(self, rng):
        # exact plant: the apex reproduces every anchor after multiplication
        for _ in range(10):
            pp = planted_prepath(rng, 2, F(1, 50), exact=True)
            py = build_pyramid(pp)
            for i in range(1, 4):
                mult = prod(pp.p_primes[: i - 1]) * prod(pp.q_primes[i - 1 :])
                assert torus_norm(py.top.scale(mult) - pp.top_anchors[i - 1]) == 0

    def test_deterministic(self, rng):
        pp = planted_prepath(rng, 4, F(1, 30))
        la = build_pyramid(pp).layers
        lb = build_pyramid(pp).layers
        assert la == lb

    def test_column_prefix_locality(self, rng):
        # anchor column entry j only reads anchors 1..j, mids 2..j and
        # primes below j: mutating everything later must not change it
        pp = planted_prepath(rng, 5, F(1, 40))
        col = build_pyramid(pp).anchor_column
        j = 3
        tops = list(pp.top_anchors)
        mids = list(pp.mid_anchors)
        for t in range(j, len(tops)):
            tops[t] = reduce_mod(tops[t].value + F(1, 97), pp.modulus)
        for t in range(j - 1, len(mids)):
            mids[t] = reduce_mod(mids[t].value + F(1, 89), pp.modulus)
        mutated = None
        # mutated anchors need not satisfy the hypotheses past the prefix,
        # so rebuild only the length-(j-1) prefix pre-path and compare
        prefix = PrePath(
            pp.modulus,
            tuple(tops[:j]),
            tuple(mids[: j - 1]),
            pp.p_primes[: j - 1],
            pp.q_primes[: j - 1],
            eps=pp.eps,
        )
        mutated = build_pyramid(prefix).anchor_column
        assert [c.value for c in mutated] == [c.value for c in col[:j]]

    def test_hypotheses_at_equality_are_refused(self):
        # ||3*(1/30) - 0|| = 1/10 and ||2*0 - 0|| = 0: both hypotheses are strict
        m = Modulus(1)
        tops = (reduce_mod(F(0), m), reduce_mod(F(1, 30), m))
        mids = (reduce_mod(F(0), m),)
        with pytest.raises(HypothesisViolation, match="q-side"):
            PrePath(m, tops, mids, (2,), (3,), eps=F(1, 10))
        ok = PrePath(m, tops, mids, (2,), (3,), eps=F(1, 10) + F(1, 10**9))
        assert all_passed(verify_pyramid(ok, build_pyramid(ok)))

    def test_propagates_failing_index(self, rng):
        pp = planted_prepath(rng, 3, F(1, 30))
        bad_mids = list(pp.mid_anchors)
        bad_mids[1] = reduce_mod(bad_mids[1].value + F(1, 2), pp.modulus)
        with pytest.raises(HypothesisViolation, match="index 2"):
            PrePath(
                pp.modulus,
                pp.top_anchors,
                tuple(bad_mids),
                pp.p_primes,
                pp.q_primes,
                eps=pp.eps,
            )


class TestPredictedGap:
    def test_first_level(self):
        assert predicted_gap(1, F(1, 7), (2, 3), (5, 7)) == F(1, 7) / 2

    def test_second_level(self):
        assert predicted_gap(2, F(1, 7), (2, 3), (5, 7)) == F(1, 7) / 10

    def test_third_level(self):
        assert predicted_gap(3, 1, (2, 3, 11), (5, 7, 13)) == F(1, 42)

    def test_tolerance_tables_bound_every_layer_gap(self, rng):
        # audit the per-step bound tables against the constructed layers:
        # every q-side and p-side gap sits strictly below its table entry
        for _ in range(10):
            k = rng.randint(2, 6)
            pp = planted_prepath(rng, k, F(1, rng.randint(15, 80)))
            py = build_pyramid(pp)
            for s in range(1, k + 1):
                for i in range(1, k + 2 - s):
                    new = py.layers[s][i - 1]
                    q_gap = torus_norm(
                        new.scale(pp.q_primes[s + i - 2]) - py.layers[s - 1][i - 1]
                    )
                    assert q_gap < qside_bound(py, s, i)
                    p_gap = torus_norm(
                        new.scale(pp.p_primes[i - 1]) - py.layers[s - 1][i]
                    )
                    assert p_gap < pside_bound(py, s, i)

    def test_matches_tolerance_recursion(self, rng):
        # the closed form equals the recursion's first-column bound
        for _ in range(20):
            k = rng.randint(1, 8)
            eps = F(1, rng.randint(20, 100))
            pp = planted_prepath(rng, k, eps)
            py = build_pyramid(pp)
            for j in range(1, k + 1):
                assert qside_bound(py, j, 1) == predicted_gap(
                    j, eps, pp.p_primes, pp.q_primes
                )

    def test_index_range(self):
        with pytest.raises(IndexError):
            predicted_gap(3, 1, (2, 3), (5, 7))


class TestVerifyPyramid:
    def test_worked_single_step(self, rng):
        pp = planted_prepath(rng, 1, F(1, 20))
        report = verify_pyramid(pp, build_pyramid(pp))
        assert all_passed(report) and len(report.rows) == 1
        assert report.rows[0].predicted == F(1, 20) / pp.p_primes[0]

    def test_random_prepaths(self, rng):
        for _ in range(100):
            k = rng.randint(1, 8)
            pp = planted_prepath(rng, k, F(1, rng.randint(10, 200)))
            report = verify_pyramid(pp, build_pyramid(pp))
            assert all_passed(report)

    def test_eps_scaling(self, rng):
        pp = planted_prepath(rng, 3, F(1, 60))
        doubled = PrePath(
            pp.modulus,
            pp.top_anchors,
            pp.mid_anchors,
            pp.p_primes,
            pp.q_primes,
            eps=2 * pp.eps,
        )
        r1 = verify_pyramid(pp, build_pyramid(pp))
        r2 = verify_pyramid(doubled, build_pyramid(doubled))
        for a, b in zip(r1.rows, r2.rows):
            assert b.predicted == 2 * a.predicted
            assert b.passed
