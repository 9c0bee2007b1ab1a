"""Tests for the fading laws: density/CDF identities, normalization,
sampling moments and the aggregate-law reductions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from fso_adapt.numerics import q_function
from fso_adapt.turbulence import (
    MimoConfig,
    TurbulenceParams,
    cdf,
    draw_fading,
    pdf,
    sample_fading,
)


class TestParams:
    def test_mx_is_derived(self):
        params = TurbulenceParams(sigma_x=0.3)
        assert params.m_x == -(0.3 * 0.3)
        with pytest.raises(Exception):
            params.sigma_x = 0.4  # frozen

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.2, 2.0])
    def test_sigma_range(self, bad):
        with pytest.raises(ValueError):
            TurbulenceParams(sigma_x=bad)
        with pytest.raises(ValueError):
            MimoConfig(f_tx=2, l_rx=2, sigma_x=bad)

    def test_sigma_one_accepted(self):
        TurbulenceParams(sigma_x=1.0)

    def test_io_fixed(self):
        # E{I} = 1 fixes the unfaded intensity, so it is not a parameter.
        with pytest.raises(TypeError):
            TurbulenceParams(sigma_x=0.3, i_o=2.0)

    def test_mimo_aperture_counts(self):
        with pytest.raises(ValueError):
            MimoConfig(f_tx=0, l_rx=1, sigma_x=0.3)
        with pytest.raises(ValueError):
            MimoConfig(f_tx=1, l_rx=-2, sigma_x=0.3)

    def test_aggregate_moment_matching(self):
        cfg = MimoConfig(f_tx=2, l_rx=3, sigma_x=0.3)
        spread = math.exp(4 * 0.3 ** 2) - 1.0
        assert cfg.log_std ** 2 == pytest.approx(math.log(1.0 + spread / 6.0), rel=1e-14)
        assert cfg.log_mean == -0.5 * cfg.log_std ** 2

    def test_single_path_reduction_is_exact(self):
        siso = TurbulenceParams(sigma_x=0.3)
        trivial = MimoConfig(f_tx=1, l_rx=1, sigma_x=0.3)
        assert trivial.log_std ** 2 == 4.0 * 0.3 ** 2
        assert trivial.log_mean == siso.log_mean
        assert trivial.log_std == siso.log_std

    def test_aggregate_spread_shrinks_with_apertures(self):
        spreads = [
            MimoConfig(f_tx=f, l_rx=l, sigma_x=0.3).log_std
            for f, l in [(1, 1), (1, 2), (2, 2), (2, 4), (4, 4)]
        ]
        assert all(a > b for a, b in zip(spreads, spreads[1:]))


class TestPdfCdf:
    def test_density_value_by_direct_substitution(self):
        # sigma_x = 0.3 at i = 1: the closed form is
        # (1 / (2 sqrt(2 pi 0.09))) exp(-(2*0.09)^2 / (8*0.09)).
        want = (1.0 / (2.0 * math.sqrt(2.0 * math.pi * 0.09))) * math.exp(
            -((2.0 * 0.09) ** 2) / (8.0 * 0.09)
        )
        got = pdf(TurbulenceParams(sigma_x=0.3), 1.0)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.6356463591008734, rel=1e-12)

    def test_density_normalizes(self):
        params = TurbulenceParams(sigma_x=0.3)
        total, _ = quad(lambda i: pdf(params, i), 1e-9, 60.0, limit=400, epsabs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unit_mean(self):
        params = TurbulenceParams(sigma_x=0.3)
        mean, _ = quad(lambda i: i * pdf(params, i), 1e-9, 80.0, limit=400, epsabs=1e-12)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_cdf_identity_at_unity(self):
        # F_I(1) = 1 - Q(sigma_x) for a single path.
        got = cdf(TurbulenceParams(sigma_x=0.3), 1.0)
        assert got == pytest.approx(1.0 - q_function(0.3), abs=1e-14)

    def test_cdf_limits(self):
        params = TurbulenceParams(sigma_x=0.3)
        assert cdf(params, 1e-12) < 1e-12
        assert cdf(params, 1e6) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_monotone(self):
        params = TurbulenceParams(sigma_x=0.5)
        grid = np.logspace(-2, 1.5, 200)
        values = cdf(params, grid)
        assert np.all(np.diff(values) >= 0.0)

    def test_cdf_is_antiderivative_of_pdf(self):
        params = TurbulenceParams(sigma_x=0.3)
        grid = np.linspace(0.1, 5.0, 60)
        h = 1e-6
        derivative = (cdf(params, grid + h) - cdf(params, grid - h)) / (2 * h)
        assert derivative == pytest.approx(pdf(params, grid), rel=1e-6)

    def test_mimo_1x1_cdf_matches_siso_bit_exact(self):
        siso = TurbulenceParams(sigma_x=0.3)
        trivial = MimoConfig(f_tx=1, l_rx=1, sigma_x=0.3)
        for i in np.logspace(-1.5, 1.0, 20):
            assert cdf(trivial, float(i)) == cdf(siso, float(i))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_domain(self, bad):
        params = TurbulenceParams(sigma_x=0.3)
        with pytest.raises(ValueError):
            pdf(params, bad)
        with pytest.raises(ValueError):
            cdf(params, bad)


class TestSampling:
    def test_unit_sample_mean(self):
        samples = sample_fading(TurbulenceParams(sigma_x=0.3), 7, 10 ** 6)
        assert abs(samples.mean() - 1.0) < 0.01

    def test_log_mean_matches_gaussian_moments(self):
        # E[ln I] = 2 m_x = -0.18 for sigma_x = 0.3.
        samples = sample_fading(TurbulenceParams(sigma_x=0.3), 7, 10 ** 6)
        assert abs(np.log(samples).mean() - (-0.18)) < 0.005

    def test_mimo_aggregate_variance(self):
        # Variance of the mean of 4 iid unit-mean lognormals:
        # (e^{4 sigma_x^2} - 1) / 4.
        samples = sample_fading(MimoConfig(f_tx=2, l_rx=2, sigma_x=0.3), 11, 10 ** 6)
        want = (math.exp(4 * 0.09) - 1.0) / 4.0
        assert samples.var() == pytest.approx(want, rel=0.05)
        assert abs(samples.mean() - 1.0) < 0.01

    def test_deterministic_given_seed(self):
        a = sample_fading(TurbulenceParams(sigma_x=0.5), 1234, 1000)
        b = sample_fading(TurbulenceParams(sigma_x=0.5), 1234, 1000)
        assert np.array_equal(a, b)
        c = sample_fading(TurbulenceParams(sigma_x=0.5), 1235, 1000)
        assert not np.array_equal(a, c)

    def test_mimo_1x1_sampler_matches_siso_bit_exact(self):
        a = sample_fading(TurbulenceParams(sigma_x=0.3), 42, 5000)
        b = sample_fading(MimoConfig(f_tx=1, l_rx=1, sigma_x=0.3), 42, 5000)
        assert np.array_equal(a, b)

    def test_empirical_cdf_against_analytic(self):
        # Kolmogorov-Smirnov on 1e6 single-path samples.
        params = TurbulenceParams(sigma_x=0.3)
        samples = sample_fading(params, 2024, 10 ** 6)
        stat = kstest(samples, lambda x: cdf(params, x)).statistic
        assert stat < 0.002

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_fading(TurbulenceParams(sigma_x=0.3), 1, 0)

    @pytest.mark.parametrize(
        "params", [TurbulenceParams(sigma_x=0.3), MimoConfig(f_tx=2, l_rx=2, sigma_x=0.3)]
    )
    def test_draw_fading_equals_direct_expression(self, params):
        # The in-place evaluation keeps the operation order of the
        # textbook expression exp(2 (m_x + sigma z)), so it is bit-identical.
        got = draw_fading(params, np.random.default_rng(9), 1000)
        z = np.random.default_rng(9).standard_normal((1000, params.n_paths))
        want = np.exp(2.0 * (-(0.3 * 0.3) + 0.3 * z)).mean(axis=1)
        assert np.array_equal(got, want)

    def test_draw_fading_consumes_shared_stream(self):
        rng = np.random.default_rng(5)
        first = draw_fading(TurbulenceParams(sigma_x=0.3), rng, 10)
        second = draw_fading(TurbulenceParams(sigma_x=0.3), rng, 10)
        assert not np.array_equal(first, second)
