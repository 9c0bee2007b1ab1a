"""Tests for conditional/average BER and the capacity upper bound."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erfc

from fso_adapt.link import (
    LinkBudget,
    ModOrder,
    ber_average,
    ber_conditional,
    capacity_upper_closed,
    capacity_upper_numeric,
    db_to_linear,
    linear_snr,
    linear_to_db,
)
from fso_adapt.numerics import integrate_truncated_normal, inverse_q
from fso_adapt.turbulence import MimoConfig, TurbulenceParams


class TestLinkBudget:
    def test_db_round_trip(self):
        budget = LinkBudget.from_db(15.0)
        assert budget.avg_snr == pytest.approx(10 ** 1.5, rel=1e-15)
        assert budget.snr_db == pytest.approx(15.0, abs=1e-12)

    @pytest.mark.parametrize("snr", [0.0, -3.0, math.inf, math.nan, 1e-310])
    def test_snr_validation(self, snr):
        with pytest.raises(ValueError):
            LinkBudget(avg_snr=snr)

    def test_db_helpers(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert linear_to_db(100.0) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    def test_overflowing_db_is_value_error(self):
        with pytest.raises(ValueError, match="positive and finite"):
            db_to_linear(4000.0)
        assert db_to_linear(-4000.0) == 0.0  # underflow: LinkBudget rejects it

    def test_linear_snr_checks_every_point(self):
        assert linear_snr(np.array([0.0, 10.0])).tolist() == [1.0, 10.0]
        # A numpy float would overflow to inf with a warning; each point
        # is made a Python float first, so LinkBudget's error is raised.
        with pytest.raises(ValueError, match=r"got 10\*\*\(4000.0/10\)"):
            linear_snr(np.array([10.0, 4000.0]))
        with pytest.raises(ValueError, match="must be a normal float, got 1e-309"):
            linear_snr([-3090.0, 10.0])


class TestModOrder:
    @pytest.mark.parametrize("m,bits", [(2, 1), (4, 2), (8, 3), (32, 5), (256, 8)])
    def test_bits(self, m, bits):
        assert ModOrder(m).bits == bits

    @pytest.mark.parametrize("bad", [1, 3, 6, 0, -2, 2.0])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ModOrder(bad)


class TestBerConditional:
    def test_zero_snr_limit_is_half(self):
        budget = LinkBudget(avg_snr=1e-12)
        assert ber_conditional(2, 1e-6, budget) == pytest.approx(0.5, abs=1e-6)

    def test_bpsk_hits_target_at_inverse_q_point(self):
        # With i sqrt(2 snr) = Qinv(1e-3) the BER is exactly 1e-3.
        budget = LinkBudget(avg_snr=10.0)
        i_star = inverse_q(1e-3) / math.sqrt(20.0)
        assert i_star == pytest.approx(0.6909969502857173, abs=1e-12)
        assert ber_conditional(2, i_star, budget) == pytest.approx(1e-3, rel=1e-10)

    def test_qpsk_matches_formula(self):
        budget = LinkBudget(avg_snr=10.0)
        i = 0.6910
        want = 0.5 * erfc(i * math.sqrt(20.0) * math.sin(math.pi / 4.0) / math.sqrt(2.0))
        assert ber_conditional(4, i, budget) == pytest.approx(float(want), rel=1e-14)

    def test_monotone_in_intensity_and_snr(self):
        budget = LinkBudget(avg_snr=10.0)
        grid = np.linspace(0.05, 4.0, 100)
        values = ber_conditional(8, grid, budget)
        assert np.all(np.diff(values) < 0.0)
        snrs = [db_to_linear(db) for db in np.linspace(0, 25, 40)]
        values = [ber_conditional(8, 1.0, LinkBudget(avg_snr=s)) for s in snrs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range(self):
        for m in (2, 4, 8, 16):
            for i in (1e-9, 0.3, 1.0, 10.0):
                value = ber_conditional(m, i, LinkBudget(avg_snr=3.0))
                assert 0.0 <= value <= 0.5

    def test_rejects_bad_inputs(self):
        budget = LinkBudget(avg_snr=1.0)
        with pytest.raises(ValueError):
            ber_conditional(3, 1.0, budget)
        with pytest.raises(ValueError):
            ber_conditional(2, 0.0, budget)


class TestBerAverage:
    def test_degenerate_fading_collapses_to_conditional(self):
        params = TurbulenceParams(sigma_x=1e-6)
        budget = LinkBudget(avg_snr=5.0)
        for m in (2, 8):
            assert ber_average(m, params, budget) == pytest.approx(
                ber_conditional(m, 1.0, budget), rel=1e-9
            )

    def test_bpsk_point_against_monte_carlo_oracle(self):
        # sigma_x = 0.3 at 10 dB.  The oracle is the conditional BPSK BER
        # averaged over ln I ~ N(-0.18, 0.6^2) by scipy's adaptive
        # quadrature, cut at 40 standard deviations (the Gaussian mass
        # beyond is ~1e-350).  A relative 1e-10 is far tighter than 3
        # standard errors of any affordable Monte Carlo estimate.
        params = TurbulenceParams(sigma_x=0.3)
        budget = LinkBudget.from_db(10.0)
        got = ber_average(2, params, budget)
        assert got == pytest.approx(0.013183177789054, abs=1e-8)  # adaptive-quadrature value

        mean, std = params.log_mean, params.log_std
        root = math.sqrt(budget.avg_snr)

        def integrand(x):
            z = (x - mean) / std
            return 0.5 * erfc(math.exp(x) * root) * math.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))

        want, _ = integrate.quad(
            integrand, mean - 40.0 * std, mean + 40.0 * std, epsabs=0.0, epsrel=1e-12, limit=200
        )
        assert abs(got - want) <= 1e-10 * want

    def test_agrees_with_panel_integration(self):
        # Same integral through the independent panel integrator.
        for sigma in (0.1, 0.3, 0.5):
            params = TurbulenceParams(sigma_x=sigma)
            for db in (5.0, 15.0, 25.0):
                budget = LinkBudget.from_db(db)
                for m in (2, 8, 32):
                    gh = ber_average(m, params, budget)
                    panel = integrate_truncated_normal(
                        lambda i: ber_conditional(m, i, budget),
                        0.0,
                        math.inf,
                        params.log_mean,
                        params.log_std,
                    )
                    assert abs(gh - panel) < 1e-8

    def test_monotone_decreasing_in_snr(self):
        params = TurbulenceParams(sigma_x=0.3)
        values = [
            ber_average(2, params, LinkBudget.from_db(db)) for db in np.arange(0.0, 30.5, 1.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_order(self):
        params = TurbulenceParams(sigma_x=0.3)
        budget = LinkBudget.from_db(12.0)
        values = [ber_average(m, params, budget) for m in (2, 4, 8, 16, 32)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_fading_hurts_bpsk(self):
        # Averaging over fading can only hurt at operating points where
        # the conditional BER is convex in the log-fading variable.
        budget = LinkBudget.from_db(10.0)
        params = TurbulenceParams(sigma_x=0.3)
        assert ber_average(2, params, budget) > ber_conditional(2, 1.0, budget)

    @pytest.mark.parametrize("m", [2, 8, 32])
    def test_snr_grid_equals_scalar_calls_bit_for_bit(self, m):
        params = MimoConfig(sigma_x=0.4, f_tx=2, l_rx=1)
        budgets = [LinkBudget.from_db(db) for db in np.arange(-5.0, 40.0, 1.5)]
        grid = ber_average(m, params, np.array([b.avg_snr for b in budgets]))
        assert grid.tolist() == [ber_average(m, params, b) for b in budgets]


class TestCapacity:
    def test_no_fading_limit(self):
        # 0.5 log2(100/e) = 2.6005805744428807 for snr=100, W=1.
        params = TurbulenceParams(sigma_x=1e-9)
        budget = LinkBudget(avg_snr=100.0)
        want = 0.5 * math.log2(100.0 / math.e)
        assert capacity_upper_numeric(params, budget, 1.0) == pytest.approx(want, rel=1e-12)
        assert capacity_upper_closed(params, budget, 1.0) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(2.6005805744428807, rel=1e-15)

    def test_closed_form_strong_turbulence_value(self):
        # 0.5 (log2(100/e) - 1/ln 2) = 1.879233053998399 for sigma_x=0.5.
        got = capacity_upper_closed(TurbulenceParams(sigma_x=0.5), LinkBudget(avg_snr=100.0), 1.0)
        want = 0.5 * (math.log2(100.0 / math.e) - 4 * 0.25 / math.log(2.0))
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(1.879233053998399, rel=1e-14)

    @pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("db", [10.0, 15.0, 20.0, 25.0])
    def test_numeric_equals_closed(self, sigma, db):
        params = TurbulenceParams(sigma_x=sigma)
        budget = LinkBudget.from_db(db)
        numeric = capacity_upper_numeric(params, budget, 1.0)
        closed = capacity_upper_closed(params, budget, 1.0)
        assert numeric == pytest.approx(closed, rel=1e-9)

    def test_mimo_variant_uses_aggregate_law(self):
        cfg = MimoConfig(f_tx=2, l_rx=2, sigma_x=0.3)
        budget = LinkBudget.from_db(15.0)
        closed = capacity_upper_closed(cfg, budget, 1.0)
        want = 0.5 * (math.log2(budget.avg_snr / math.e) + 2.0 * cfg.log_mean / math.log(2.0))
        assert closed == pytest.approx(want, rel=1e-14)
        assert capacity_upper_numeric(cfg, budget, 1.0) == pytest.approx(closed, rel=1e-9)

    def test_doubling_snr_adds_half_bandwidth(self):
        params = TurbulenceParams(sigma_x=0.3)
        w = 2.5
        c1 = capacity_upper_closed(params, LinkBudget(avg_snr=50.0), w)
        c2 = capacity_upper_closed(params, LinkBudget(avg_snr=100.0), w)
        assert c2 - c1 == pytest.approx(w / 2.0, rel=1e-12)

    def test_low_snr_warning(self):
        params = TurbulenceParams(sigma_x=0.3)
        with pytest.warns(UserWarning, match="not trustworthy"):
            capacity_upper_closed(params, LinkBudget.from_db(5.0), 1.0)
        with pytest.warns(UserWarning, match="not trustworthy"):
            capacity_upper_numeric(params, LinkBudget.from_db(5.0), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            capacity_upper_closed(params, LinkBudget.from_db(15.0), 1.0)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            capacity_upper_closed(TurbulenceParams(sigma_x=0.3), LinkBudget(avg_snr=100.0), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        params=st.builds(
            TurbulenceParams,
            sigma_x=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            f_tx=st.integers(min_value=1, max_value=4),
            l_rx=st.integers(min_value=1, max_value=4),
        ),
        grid=st.lists(st.floats(min_value=-50.0, max_value=100.0), min_size=1, max_size=8),
        bandwidth=st.floats(min_value=1e-3, max_value=1e9),
    )
    @example(params=TurbulenceParams(0.3, 2, 2), grid=[-50.0, 10.0, 10.0, 100.0], bandwidth=1.0)
    def test_snr_grid_equals_scalar_calls_bit_for_bit(self, params, grid, bandwidth):
        budgets = [LinkBudget.from_db(db) for db in grid]
        avg_snr = np.array([b.avg_snr for b in budgets])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for bound in (capacity_upper_closed, capacity_upper_numeric):
                column = bound(params, avg_snr, bandwidth)
                assert column.shape == avg_snr.shape
                assert column.tolist() == [bound(params, b, bandwidth) for b in budgets]

    @pytest.mark.parametrize("bound", [capacity_upper_closed, capacity_upper_numeric])
    def test_low_snr_grid_warns_once(self, bound):
        avg_snr = np.array([LinkBudget.from_db(db).avg_snr for db in (0.0, 5.0, 9.0, 15.0, 20.0)])
        with pytest.warns(UserWarning, match="not trustworthy") as record:
            bound(TurbulenceParams(sigma_x=0.3), avg_snr, 1.0)
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound(TurbulenceParams(sigma_x=0.3), avg_snr[-2:], 1.0)
