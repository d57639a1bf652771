"""Tests for repro.symbolic.roots (Sturm isolation, bisection)."""

import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.randomized import best_symmetric_mixture_exact
from repro.optimize.oblivious_opt import solve_oblivious_optimum
from repro.optimize.threshold_opt import optimal_symmetric_threshold
from repro.symbolic.polynomial import Polynomial
from repro.symbolic.roots import (
    cauchy_root_bound,
    count_real_roots,
    isolate_real_roots,
    real_roots,
    refine_root,
    sign_variations,
    sturm_sequence,
)


class TestSturmSequence:
    def test_chain_starts_with_poly_and_derivative_signs(self):
        p = Polynomial.from_roots([0, 1])
        chain = sturm_sequence(p)
        # sign-preserving scaling: evaluations keep the sign of p and p'
        x = Fraction(2)
        assert (chain[0](x) > 0) == (p(x) > 0)
        assert (chain[1](x) > 0) == (p.derivative()(x) > 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sturm_sequence(Polynomial.zero())

    def test_constant_poly_chain(self):
        assert len(sturm_sequence(Polynomial([5]))) == 1

    def test_sign_preservation_negative_lead(self):
        # regression: forcing positive leads corrupted variation counts
        # (observed on the n=5 threshold derivative).
        p = Polynomial(
            [
                Fraction(-75, 4),
                Fraction(1085, 6),
                Fraction(-2465, 4),
                Fraction(5335, 6),
                Fraction(-11015, 24),
            ]
        )
        # this quartic has NO roots in (1/3, 1/2]
        assert count_real_roots(p, Fraction(1, 3), Fraction(1, 2)) == 0


class TestSignVariations:
    def test_simple(self):
        chain = sturm_sequence(Polynomial.from_roots([0]))
        assert sign_variations(chain, -1) - sign_variations(chain, 1) == 1

    def test_zeros_in_chain_are_skipped(self):
        p = Polynomial.from_roots([0, 2])
        chain = sturm_sequence(p)
        # evaluation exactly at a root of a chain element must not crash
        sign_variations(chain, 0)


class TestCountRealRoots:
    def test_counts_on_subintervals(self):
        p = Polynomial.from_roots([Fraction(1, 4), Fraction(3, 4)])
        assert count_real_roots(p, 0, 1) == 2
        assert count_real_roots(p, 0, Fraction(1, 2)) == 1
        assert count_real_roots(p, Fraction(1, 2), 1) == 1

    def test_half_open_convention(self):
        p = Polynomial.from_roots([Fraction(1, 2)])
        # root at upper endpoint is counted, at lower endpoint is not
        assert count_real_roots(p, 0, Fraction(1, 2)) == 1
        assert count_real_roots(p, Fraction(1, 2), 1) == 0

    def test_multiple_roots_counted_once(self):
        p = Polynomial.from_roots([Fraction(1, 2), Fraction(1, 2)])
        assert count_real_roots(p, 0, 1) == 1

    def test_no_real_roots(self):
        p = Polynomial([1, 0, 1])  # x^2 + 1
        assert count_real_roots(p, -10, 10) == 0

    def test_empty_interval(self):
        p = Polynomial.from_roots([0])
        assert count_real_roots(p, 1, 1) == 0
        with pytest.raises(ValueError):
            count_real_roots(p, 2, 1)


class TestCauchyBound:
    def test_bounds_all_roots(self):
        roots = [Fraction(-7), Fraction(2), Fraction(5)]
        p = Polynomial.from_roots(roots)
        bound = cauchy_root_bound(p)
        assert all(abs(r) <= bound for r in roots)

    def test_constant_gets_default(self):
        assert cauchy_root_bound(Polynomial([5])) == 1


class TestIsolateRealRoots:
    def test_each_interval_has_one_root(self):
        roots = [Fraction(1, 7), Fraction(1, 2), Fraction(6, 7)]
        p = Polynomial.from_roots(roots)
        intervals = isolate_real_roots(p, 0, 1)
        assert len(intervals) == 3
        for (a, b), r in zip(intervals, roots):
            assert a <= r <= b

    def test_root_exactly_at_bisection_point(self):
        # 1/2 is the first midpoint of [0, 1]
        p = Polynomial.from_roots([Fraction(1, 4), Fraction(1, 2)])
        intervals = isolate_real_roots(p, 0, 1)
        assert len(intervals) == 2
        assert (Fraction(1, 2), Fraction(1, 2)) in intervals

    def test_unbounded_search_uses_cauchy(self):
        p = Polynomial.from_roots([-3, 11])
        intervals = isolate_real_roots(p)
        assert len(intervals) == 2

    def test_no_roots(self):
        assert isolate_real_roots(Polynomial([1, 0, 1])) == []

    def test_constant(self):
        assert isolate_real_roots(Polynomial([2])) == []


class TestRefineRoot:
    def test_rational_root_found_exactly_or_within_tolerance(self):
        p = Polynomial.from_roots([Fraction(1, 3)])
        r = refine_root(p, 0, 1, Fraction(1, 10**12))
        assert abs(r - Fraction(1, 3)) <= Fraction(1, 10**12)

    def test_irrational_root_enclosure(self):
        p = Polynomial([-2, 0, 1])  # x^2 - 2
        r = refine_root(p, 1, 2, Fraction(1, 10**15))
        assert abs(float(r) - 2**0.5) < 1e-14

    def test_root_at_upper_endpoint(self):
        p = Polynomial.from_roots([1])
        assert refine_root(p, 0, 1) == 1

    def test_no_sign_change_rejected(self):
        p = Polynomial([1, 0, 1])
        with pytest.raises(ValueError):
            refine_root(p, 0, 1)

    def test_tolerance_validation(self):
        p = Polynomial.from_roots([Fraction(1, 2)])
        with pytest.raises(ValueError):
            refine_root(p, 0, 1, 0)


class TestRealRoots:
    def test_paper_quadratic(self):
        # the paper's optimality quadratic: beta^2 - 2 beta + 6/7
        p = Polynomial([Fraction(6, 7), -2, 1])
        roots = real_roots(p, 0, 1, Fraction(1, 10**15))
        assert len(roots) == 1
        assert abs(float(roots[0]) - (1 - (1 / 7) ** 0.5)) < 1e-14

    def test_sorted_output(self):
        p = Polynomial.from_roots([Fraction(3, 4), Fraction(1, 4)])
        roots = real_roots(p, 0, 1)
        assert roots == sorted(roots)

    def test_multiplicities_collapsed(self):
        p = Polynomial.from_roots([Fraction(1, 2)] * 3)
        roots = real_roots(p, 0, 1)
        assert len(roots) == 1

    def test_restricted_window(self):
        p = Polynomial.from_roots([Fraction(1, 4), Fraction(3, 4)])
        roots = real_roots(p, Fraction(1, 2), 1)
        assert len(roots) == 1
        assert abs(roots[0] - Fraction(3, 4)) < Fraction(1, 10**9)

    def test_degree_zero_and_zero(self):
        assert real_roots(Polynomial([3])) == []


# ----------------------------------------------------------------------
# Identity with the rational Sturm implementation
# ----------------------------------------------------------------------
# The module works on primitive integer rows.  The reference below is
# the plain ``Fraction`` implementation it replaced: Euclid over Q for
# the gcd and square-free part, Fraction remainders for the Sturm chain,
# Fraction evaluation for every sign.  Every chain, count, isolating
# interval and refined root must be the same exact rational, so the
# tests compare with ``==``.


def ref_primitive_part(poly):
    denominator = math.lcm(*(c.denominator for c in poly.coefficients))
    ints = [int(c * denominator) for c in poly.coefficients]
    content = math.gcd(*ints)
    return Polynomial([v // content for v in ints])


def ref_gcd(p, q):
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a / a.leading_coefficient


@functools.lru_cache(maxsize=None)  # Euclid over Q is slow on huge denominators
def ref_squarefree_part(poly):
    if poly.is_zero() or poly.is_constant():
        return poly
    g = ref_gcd(poly, poly.derivative())
    if g.is_constant():
        return poly
    return poly.divmod(g)[0]


def ref_sturm_sequence(poly):
    chain = [ref_primitive_part(poly)]
    derivative = poly.derivative()
    if derivative.is_zero():
        return chain
    chain.append(ref_primitive_part(derivative))
    while True:
        remainder = chain[-2] % chain[-1]
        if remainder.is_zero():
            break
        chain.append(ref_primitive_part(-remainder))
    return chain


def ref_sign_variations(chain, x):
    signs = [1 if v > 0 else -1 for v in (p(x) for p in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def ref_count_real_roots(poly, lo, hi):
    if lo == hi:
        return 0
    chain = ref_sturm_sequence(ref_squarefree_part(poly))
    return ref_sign_variations(chain, lo) - ref_sign_variations(chain, hi)


def ref_cauchy_root_bound(poly):
    if poly.is_zero() or poly.is_constant():
        return Fraction(1)
    lead = abs(poly.leading_coefficient)
    return 1 + max(abs(c) for c in poly.coefficients[:-1]) / lead


def ref_isolate(square_free, lo, hi):
    if square_free.is_constant():
        return []
    chain = ref_sturm_sequence(square_free)
    bound = ref_cauchy_root_bound(square_free)
    lo = -bound if lo is None else lo
    hi = bound if hi is None else hi
    intervals = []

    def recurse(a, b):
        n = ref_sign_variations(chain, a) - ref_sign_variations(chain, b)
        if n == 0:
            return
        if n == 1:
            intervals.append((a, b))
            return
        mid = (a + b) / 2
        if square_free(mid) == 0:
            recurse(a, mid)
            while intervals and intervals[-1][1] == mid and intervals[-1][0] != mid:
                intervals.pop()
            intervals.append((mid, mid))
            recurse(mid, b)
        else:
            recurse(a, mid)
            recurse(mid, b)

    if lo < hi:
        recurse(lo, hi)
    return sorted(intervals)


def ref_refine_root(poly, a, b, tol):
    fb = poly(b)
    if fb == 0:
        return b
    if a == b:
        return a
    fa = poly(a)
    if fa == 0:
        step = (b - a) / 2
        while True:
            probe = a + step
            fp = poly(probe)
            if fp == 0:
                return probe
            if (fp > 0) != (fb > 0):
                a, fa = probe, fp
                break
            step /= 2
            if step < tol:
                return b
    if (fa > 0) == (fb > 0):
        raise ValueError("no sign change")
    while b - a > tol:
        mid = (a + b) / 2
        fm = poly(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return (a + b) / 2


def ref_real_roots(poly, lo, hi, tol):
    square_free = ref_squarefree_part(poly)
    return [
        a if a == b else ref_refine_root(square_free, a, b, tol)
        for a, b in ref_isolate(square_free, lo, hi)
    ]


def _random_rational(rng, huge, lead=False):
    whole = rng.choice([-1, 1]) * rng.randint(1, 30) if lead else rng.randint(-30, 30)
    if not huge:
        return Fraction(whole, rng.randint(1, 12))
    denominator = rng.randint(10**20, 10**30)
    return Fraction(whole * denominator + rng.randint(-3, 3), denominator)


def _random_polynomial(seed):
    """A seeded rational polynomial of degree 1..12.

    Even seeds multiply out rational roots -- dyadic points that bisection
    of ``[0, 1]`` lands on exactly, ``0`` (the open left endpoint of the
    window), repeated roots -- with an irreducible quadratic factor and a
    random (possibly negative) scale; odd seeds draw every coefficient,
    with huge denominators on every other one.
    """
    rng = random.Random(seed)
    if seed % 2:
        degree = rng.randint(1, 12)
        huge = seed % 4 == 1
        coefficients = [_random_rational(rng, huge) for _ in range(degree)]
        return Polynomial(coefficients + [_random_rational(rng, huge, lead=True)])
    pool = [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), Fraction(1),
            Fraction(1, 3), Fraction(2, 7), Fraction(-5, 4), Fraction(11, 10**9)]
    roots = rng.choices(pool, k=rng.randint(1, 8))
    poly = Polynomial.from_roots(roots)
    if rng.random() < 0.5:
        poly = poly * Polynomial([Fraction(rng.randint(1, 9), 7), 0, 1])
    scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**30))
    return poly * scale


IDENTITY_SEEDS = range(64)
WINDOWS = [
    (Fraction(0), Fraction(1)),
    (None, None),
    (Fraction(-3, 2), Fraction(5, 3)),
    (Fraction(1, 4), Fraction(3, 8)),
]


class TestIdentityWithRationalSturm:
    @pytest.mark.parametrize("seed", IDENTITY_SEEDS)
    def test_chain_gcd_and_bound(self, seed):
        p = _random_polynomial(seed)
        assert 1 <= p.degree <= 12
        assert sturm_sequence(p) == ref_sturm_sequence(p)
        square_free = ref_squarefree_part(p)
        assert sturm_sequence(square_free) == ref_sturm_sequence(square_free)
        assert p.gcd(p.derivative()) == ref_gcd(p, p.derivative())
        assert p.squarefree_part() == square_free
        assert cauchy_root_bound(p) == ref_cauchy_root_bound(p)

    @pytest.mark.parametrize("seed", IDENTITY_SEEDS)
    def test_roots_intervals_and_counts(self, seed):
        p = _random_polynomial(seed)
        tol = Fraction(1, 10**12)
        for lo, hi in WINDOWS:
            expected = ref_isolate(ref_squarefree_part(p), lo, hi)
            assert isolate_real_roots(p, lo, hi) == expected
            assert real_roots(p, lo, hi, tol) == ref_real_roots(p, lo, hi, tol)
            if lo is not None:
                assert count_real_roots(p, lo, hi) == ref_count_real_roots(p, lo, hi)
            chain = ref_sturm_sequence(p)
            for point in (lo, hi, Fraction(1, 2)):
                if point is not None:
                    assert sign_variations(chain, point) == ref_sign_variations(chain, point)

    @pytest.mark.parametrize("seed", IDENTITY_SEEDS)
    def test_refine_root_on_isolating_intervals(self, seed):
        # Called on p itself, not its square-free part: a repeated root
        # with no sign change must be refused by both implementations.
        p = _random_polynomial(seed)
        tol = Fraction(1, 10**9)
        for a, b in ref_isolate(ref_squarefree_part(p), None, None):
            try:
                expected = ref_refine_root(p, a, b, tol)
            except ValueError:
                with pytest.raises(ValueError):
                    refine_root(p, a, b, tol)
            else:
                assert refine_root(p, a, b, tol) == expected

    def test_the_seeds_reach_every_special_case(self):
        exact_hits = 0  # a root on a bisection midpoint: interval (r, r]
        open_left = 0  # an interval (a, b] whose open end a is a root
        repeated = 0
        negative = 0
        huge = 0
        for seed in IDENTITY_SEEDS:
            p = _random_polynomial(seed)
            square_free = ref_squarefree_part(p)
            for a, b in ref_isolate(square_free, 0, 1):
                exact_hits += a == b
                open_left += a != b and square_free(a) == 0
            repeated += square_free.degree < p.degree
            negative += p.leading_coefficient < 0
            huge += max(c.denominator for c in p.coefficients) > 10**20
        assert min(exact_hits, open_left, repeated, negative, huge) >= 3

    def test_window_starting_at_a_root(self):
        p = Polynomial.from_roots([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), 0]) * -3
        for lo in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            tol = Fraction(1, 10**12)
            assert real_roots(p, lo, 1, tol) == ref_real_roots(p, lo, 1, tol)
            assert count_real_roots(p, lo, 1) == ref_count_real_roots(p, lo, 1)


# Golden optima recorded with the rational Sturm implementation: every
# (beta, probability) the exact optimizers return must stay the same
# Fraction.
GOLDEN = json.loads((Path(__file__).parent / "golden_exact_optima.json").read_text())


class TestGoldenExactOptima:
    @pytest.mark.parametrize("n,delta,beta,probability", GOLDEN["threshold"])
    def test_symmetric_threshold(self, n, delta, beta, probability):
        optimum = optimal_symmetric_threshold(n, Fraction(delta))
        assert (str(optimum.beta), str(optimum.probability)) == (beta, probability)

    @pytest.mark.parametrize("n,t,alpha,probability", GOLDEN["oblivious"])
    def test_oblivious(self, n, t, alpha, probability):
        optimum = solve_oblivious_optimum(Fraction(t), n)
        assert (str(optimum.alpha), str(optimum.probability)) == (alpha, probability)

    @pytest.mark.parametrize("n,delta,beta,p,probability", GOLDEN["mixture"])
    def test_mixture(self, n, delta, beta, p, probability):
        best = best_symmetric_mixture_exact(n, Fraction(delta), Fraction(beta))
        assert (str(best[0]), str(best[1])) == (p, probability)
