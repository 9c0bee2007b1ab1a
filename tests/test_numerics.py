"""Tests for the special functions and quadrature primitives.

Oracles are kept independent of the code paths they check: scipy's
adaptive quadrature for tail probabilities and integrals, bisection for
the inverse Q-function, closed-form Gaussian moments for the rules.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fso_adapt import numerics
from fso_adapt.numerics import (
    QuadratureRule,
    gauss_hermite,
    gauss_legendre,
    integrate_truncated_normal,
    inverse_q,
    q_function,
    row_dot,
)

SQRT_PI = math.sqrt(math.pi)


def gaussian_tail_oracle(x: float) -> float:
    # Adaptive integration of the standard normal tail to ~1e-13.
    value, err = quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        x,
        max(x, 0.0) + 45.0,
        epsabs=1e-16,
        epsrel=1e-13,
        limit=300,
    )
    assert err < 1e-12
    return value


def bisect_inverse_q(p: float) -> float:
    lo, hi = -45.0, 45.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_function(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQFunction:
    def test_median(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_reflection_identity(self):
        assert q_function(1.7) + q_function(-1.7) == pytest.approx(1.0, abs=1e-15)

    def test_against_tail_integration(self):
        # Frozen from the quadrature oracle; also recomputed live.
        assert q_function(3.0902) == pytest.approx(1.0001087832070712e-3, abs=1e-12)
        for x in (-2.0, -0.3, 0.7, 1.5, 3.0902, 5.0):
            assert q_function(x) == pytest.approx(gaussian_tail_oracle(x), abs=1e-14)

    def test_strictly_decreasing(self):
        grid = np.linspace(-8.0, 8.0, 400)
        values = [q_function(x) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            q_function(bad)


class TestInverseQ:
    def test_median(self):
        assert inverse_q(0.5) == 0.0

    def test_known_tail_point(self):
        # 1e-3 pinned against bisection on q_function (3.090232306167813).
        assert inverse_q(1e-3) == pytest.approx(bisect_inverse_q(1e-3), abs=1e-12)
        assert inverse_q(1e-3) == pytest.approx(3.090232306167813, abs=1e-9)

    def test_round_trip_through_q(self):
        assert inverse_q(q_function(2.0)) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("p", [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-6, 1 - 1e-8])
    def test_round_trip_relative(self, p):
        x = inverse_q(p)
        assert abs(q_function(x) - p) / p < 1e-10

    def test_strictly_decreasing(self):
        ps = np.linspace(1e-6, 1 - 1e-6, 300)
        xs = [inverse_q(p) for p in ps]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("p", [1e-300, 1e-200, 1e-100, 1e-50, 1e-20])
    def test_deep_tail(self, p):
        x = inverse_q(p)
        assert x == pytest.approx(bisect_inverse_q(p), abs=1e-12)
        assert abs(q_function(x) - p) / p < 1e-12

    def test_median_is_positive_zero(self):
        # A -0.0 here would print as "-0" in the thresholds CSV at p_o = 0.5.
        assert math.copysign(1.0, inverse_q(0.5)) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-300.0, max_value=math.log10(0.5)))
    def test_round_trip_log_uniform(self, exponent):
        p = 10.0 ** exponent
        x = inverse_q(p)
        # Q(x) moves by about x^2 times a relative error in x, so a few ulp
        # in x cost about 1e-12 in the round trip near x = 37 (p = 1e-300),
        # even for a correctly rounded x.  Hence 1e-12 up to x = 30
        # (p ~ 5e-198), growing with that condition number beyond.
        assert abs(q_function(x) - p) / p < 1e-12 * max(1.0, (x / 30.0) ** 2)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            inverse_q(bad)


class TestGaussHermite:
    def test_two_point_closed_form(self):
        rule = gauss_hermite(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-14)
        assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], abs=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 5, 16, 30, 64, 128])
    def test_zeroth_moment(self, order):
        rule = gauss_hermite(order)
        assert np.sum(rule.weights) == pytest.approx(SQRT_PI, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 8, 30, 64])
    def test_even_moments_closed_form(self, order):
        # int t^{2k} e^{-t^2} dt = (2k-1)!! sqrt(pi) / 2^k, exact while
        # 2k <= 2*order - 1.
        rule = gauss_hermite(order)
        expected = SQRT_PI
        double_factorial = 1.0
        for k in range(1, min(order, 7)):
            double_factorial *= 2 * k - 1
            expected = double_factorial * SQRT_PI / 2.0 ** k
            got = float(np.sum(rule.weights * rule.nodes ** (2 * k)))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_second_moment(self):
        rule = gauss_hermite(30)
        got = float(np.sum(rule.weights * rule.nodes ** 2))
        assert got == pytest.approx(SQRT_PI / 2.0, rel=1e-12)

    def test_nonpolynomial_vs_adaptive_quadrature(self):
        # 1/(1+t^2) has poles at +-i, so order 30 converges only to
        # ~3e-6 (numpy's reference rule gives the same figure); 1e-8
        # agreement with the adaptive oracle is reached at order 64.
        want, err = quad(lambda t: math.exp(-t * t) / (1.0 + t * t), -12, 12, epsabs=1e-14)
        rule30 = gauss_hermite(30)
        got30 = float(np.sum(rule30.weights / (1.0 + rule30.nodes ** 2)))
        assert abs(got30 - want) < 1e-5
        rule64 = gauss_hermite(64)
        got64 = float(np.sum(rule64.weights / (1.0 + rule64.nodes ** 2)))
        assert abs(got64 - want) < 1e-8

    def test_matches_numpy_reference(self):
        ours = gauss_hermite(64)
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        assert ours.nodes == pytest.approx(nodes, abs=1e-12)
        assert ours.weights == pytest.approx(weights, rel=1e-10)

    @pytest.mark.parametrize("order", [1, 0, 129, 200])
    def test_order_range(self, order):
        with pytest.raises(ValueError):
            gauss_hermite(order)


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [2, 5, 20, 64])
    def test_zeroth_moment(self, order):
        rule = gauss_legendre(order)
        assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-12)

    def test_polynomial_exactness(self):
        rule = gauss_legendre(10)
        # int_-1^1 t^6 dt = 2/7
        assert float(np.sum(rule.weights * rule.nodes ** 6)) == pytest.approx(2.0 / 7.0, rel=1e-13)

    def test_matches_numpy_reference(self):
        ours = gauss_legendre(32)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        assert ours.nodes == pytest.approx(nodes, abs=1e-13)
        assert ours.weights == pytest.approx(weights, rel=1e-12)


class TestQuadratureRuleInvariants:
    def test_rules_are_immutable(self):
        rule = gauss_hermite(8)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_validation_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            QuadratureRule(
                nodes=np.array([-1.0, 1.0]),
                weights=np.array([1.0, 1.0]),
                kind="hermite",
                order=2,
            )

    def test_validation_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            QuadratureRule(
                nodes=np.array([1.0, -1.0]),
                weights=np.array([SQRT_PI / 2, SQRT_PI / 2]),
                kind="hermite",
                order=2,
            )


class TestIntegrateTruncatedNormal:
    # Single-path fading with sigma_x = 0.3: ln I ~ N(-0.18, 0.36).
    MEAN = -0.18
    STD = 0.6

    def test_total_probability(self):
        got = integrate_truncated_normal(lambda i: np.ones_like(i), 0.0, math.inf, self.MEAN, self.STD)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_cdf_identity_at_unity(self):
        # F_I(1) = 1 - Q(0.3) for sigma_x = 0.3; oracle is q_function.
        got = integrate_truncated_normal(lambda i: np.ones_like(i), 0.0, 1.0, self.MEAN, self.STD)
        assert got == pytest.approx(1.0 - q_function(0.3), abs=1e-10)
        assert got == pytest.approx(0.6179114221889526, abs=1e-10)

    def test_unit_mean(self):
        got = integrate_truncated_normal(lambda i: i, 0.0, math.inf, self.MEAN, self.STD)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_additive_over_adjacent_regions(self):
        f = lambda i: i * i / (1.0 + i)
        left = integrate_truncated_normal(f, 0.2, 0.8, self.MEAN, self.STD)
        right = integrate_truncated_normal(f, 0.8, 1.9, self.MEAN, self.STD)
        whole = integrate_truncated_normal(f, 0.2, 1.9, self.MEAN, self.STD)
        assert left + right == pytest.approx(whole, abs=1e-12)

    def test_against_adaptive_quadrature(self):
        f = lambda i: np.log1p(i)
        got = integrate_truncated_normal(f, 0.5, 3.0, self.MEAN, self.STD)
        want, _ = quad(
            lambda y: math.log1p(math.exp(self.MEAN + self.STD * y))
            * math.exp(-0.5 * y * y)
            / math.sqrt(2 * math.pi),
            (math.log(0.5) - self.MEAN) / self.STD,
            (math.log(3.0) - self.MEAN) / self.STD,
            epsabs=1e-15,
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_scalar_callable_raises(self):
        # f is evaluated on arrays; a scalar-only callable is not mapped
        # element by element, so its own error reaches the caller.
        with pytest.raises(TypeError):
            integrate_truncated_normal(lambda i: float(i) ** 2, 0.0, math.inf, self.MEAN, self.STD)

    def test_wrong_shaped_result_raises(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_truncated_normal(lambda i: 1.0, 0.0, math.inf, self.MEAN, self.STD)

    def test_empty_region_raises(self):
        with pytest.raises(ValueError):
            integrate_truncated_normal(lambda i: i, 2.0, 2.0, self.MEAN, self.STD)
        with pytest.raises(ValueError):
            integrate_truncated_normal(lambda i: i, 3.0, 1.0, self.MEAN, self.STD)

    def test_negative_lower_limit_raises(self):
        with pytest.raises(ValueError, match=r"negative lower limit lo=-1\.0"):
            integrate_truncated_normal(lambda i: np.ones_like(i), -1.0, math.inf, self.MEAN, self.STD)
        with pytest.raises(ValueError, match=r"negative lower limit lo=-0\.5"):
            integrate_truncated_normal(lambda i: i, np.array([0.0, -0.5]), 2.0, self.MEAN, self.STD)

    def test_array_limits_equal_scalar_calls_bit_for_bit(self):
        f = lambda i: np.log1p(i) / (1.0 + i * i)
        lo = np.array([[0.0, 0.2, 0.8], [1.3, 1e-9, 1000.0]])
        hi = np.array([[0.2, 0.8, math.inf], [1.9, 1.3, math.inf]])
        got = integrate_truncated_normal(f, lo, hi, self.MEAN, self.STD)
        assert got.shape == lo.shape
        want = [integrate_truncated_normal(f, a, b, self.MEAN, self.STD) for a, b in zip(lo.flat, hi.flat)]
        assert got.ravel().tolist() == want
        assert got[1, 2] == 0.0  # beyond the truncated tail

    def test_panel_cap_keeps_rows_bit_for_bit(self, monkeypatch):
        # With one panel per call every interval is its own group, and
        # each row still equals the uncapped batch and a scalar call.
        f = lambda i, c: c * np.log1p(i) / (1.0 + i * i)
        lo = np.array([0.0, 0.2, 0.8, 1.3, 1000.0])
        hi = np.array([0.2, 0.8, math.inf, 1.9, math.inf])
        c = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        batch = integrate_truncated_normal(f, lo, hi, self.MEAN, self.STD, args=(c,))
        calls = []
        monkeypatch.setattr(numerics, "MAX_PANELS_PER_CALL", 1)
        capped = integrate_truncated_normal(
            lambda i, c: calls.append(len(i)) or f(i, c), lo, hi, self.MEAN, self.STD, args=(c,)
        )
        assert capped.tolist() == batch.tolist()
        assert len(calls) == lo.size and calls[-1] == 0  # the last interval is beyond the tail
        for row, a, b, k in zip(capped.tolist(), lo, hi, c):
            assert row == integrate_truncated_normal(f, a, b, self.MEAN, self.STD, args=(k,))

    def test_per_interval_parameters(self):
        # args reach f as one column per panel, so f(I) = c * I gives
        # c_k times the partial mean of interval k.
        lo, hi = np.array([0.0, 0.5]), np.array([0.5, math.inf])
        got = integrate_truncated_normal(
            lambda i, c: c * i, lo, hi, self.MEAN, self.STD, args=(np.array([2.0, 3.0]),)
        )
        means = integrate_truncated_normal(lambda i: i, lo, hi, self.MEAN, self.STD)
        assert got.tolist() == pytest.approx([2.0 * means[0], 3.0 * means[1]], rel=1e-15)
        assert means.sum() == pytest.approx(1.0, abs=1e-10)

    def test_empty_interval_in_array_raises(self):
        with pytest.raises(ValueError, match="empty integration region"):
            integrate_truncated_normal(
                lambda i: i, np.array([0.0, 2.0]), np.array([1.0, 2.0]), self.MEAN, self.STD
            )

    def test_region_beyond_tail_is_zero(self):
        got = integrate_truncated_normal(
            lambda i: np.ones_like(i), math.exp(self.MEAN + 11 * self.STD), math.inf, self.MEAN, self.STD
        )
        assert got == 0.0


class TestRowDot:
    def test_rows_equal_np_dot_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for rows, n in [(1, 3), (7, 5), (61, 100), (3, 40)]:
            a = rng.random((rows, n)) * 10.0 ** rng.uniform(-8, 0, (rows, n))
            v = rng.random(n)
            assert row_dot(a, v).tolist() == [float(np.dot(v, row)) for row in a]
        assert row_dot(a[0], v).shape == ()
