"""Tests for the rate-adaptation policy: boundaries, order selection,
spectral efficiency, average BER and sweeps."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fso_adapt import adaptation
from fso_adapt.adaptation import (
    MAX_ORDERS,
    AdaptiveScheme,
    average_ber_adaptive,
    compute_boundaries,
    efficiency_sweep,
    region_probabilities,
    scheme_grid,
    select_order,
    spectral_efficiency,
    sweep,
)
from fso_adapt.link import LinkBudget, ber_average, ber_conditional
from fso_adapt.numerics import inverse_q
from fso_adapt.turbulence import MimoConfig, TurbulenceParams


def scheme_at(db: float, n: int = 5, po: float = 1e-3) -> AdaptiveScheme:
    return compute_boundaries(n, po, LinkBudget.from_db(db))


class TestBoundaries:
    def test_first_boundary_known_point(self):
        # snr = 10 linear, target 1e-3: Qinv(1e-3)/sqrt(20).
        scheme = compute_boundaries(5, 1e-3, LinkBudget(avg_snr=10.0))
        assert scheme.boundaries[0] == pytest.approx(0.6909969502857173, abs=1e-12)
        assert scheme.boundaries[0] == pytest.approx(inverse_q(1e-3) / math.sqrt(20.0), rel=1e-14)

    def test_boundaries_strictly_increasing_with_sentinel(self):
        scheme = scheme_at(12.0)
        assert math.isinf(scheme.boundaries[-1])
        assert np.all(np.diff(scheme.boundaries) > 0.0)

    @pytest.mark.parametrize("po", [1e-2, 1e-3])
    @pytest.mark.parametrize("db", [0.0, 10.0, 20.0, 30.0])
    def test_boundary_meets_target_exactly(self, po, db):
        # Each active order's conditional BER at its own boundary is the
        # target, to 1e-10.
        scheme = compute_boundaries(5, po, LinkBudget.from_db(db))
        for order, boundary in zip(scheme.orders, scheme.boundaries[:-1]):
            assert boundary > 0.0
            got = ber_conditional(order, boundary, scheme.budget)
            assert abs(got - po) < 1e-10

    def test_quadrupled_snr_halves_every_boundary(self):
        lo = compute_boundaries(5, 1e-3, LinkBudget(avg_snr=7.0))
        hi = compute_boundaries(5, 1e-3, LinkBudget(avg_snr=28.0))
        assert hi.boundaries[:-1] == pytest.approx(lo.boundaries[:-1] / 2.0, rel=1e-12)

    def test_degenerate_target_keeps_transmission_always_on(self):
        # Target 0.5: BPSK meets it everywhere, activation level 0.
        scheme = compute_boundaries(1, 0.5, LinkBudget(avg_snr=10.0))
        assert scheme.thresholds_by_order == (0.0,)
        assert scheme.boundaries[0] == 0.0
        assert select_order(scheme, 1e-9).m == 2

    def test_degenerate_target_multiple_orders(self):
        # At target 0.5 every order's level clamps to 0 and the largest
        # supersedes the rest (left-closed regions with tied edges).
        scheme = compute_boundaries(3, 0.5, LinkBudget(avg_snr=10.0))
        assert scheme.thresholds_by_order == (0.0, 0.0, 0.0)
        assert [o.m for o in scheme.orders] == [8]
        assert any("region empty" in note for note in scheme.notes)

    def test_unreachable_order_dropped_with_note(self):
        # order 32: Qinv argument (5/2) * 0.45 > 1 -> unreachable.
        scheme = compute_boundaries(5, 0.45, LinkBudget(avg_snr=10.0))
        assert math.isnan(scheme.thresholds_by_order[4])
        assert any("unreachable" in note for note in scheme.notes)
        assert all(order.m != 32 for order in scheme.orders)

    def test_validation(self):
        budget = LinkBudget(avg_snr=10.0)
        with pytest.raises(ValueError):
            compute_boundaries(0, 1e-3, budget)
        with pytest.raises(ValueError):
            compute_boundaries(9, 1e-3, budget)
        with pytest.raises(ValueError):
            compute_boundaries(5, 0.0, budget)
        with pytest.raises(ValueError):
            compute_boundaries(5, 0.6, budget)


class TestSelectOrder:
    def test_boundary_belongs_to_upper_region(self):
        scheme = scheme_at(10.0)
        assert select_order(scheme, float(scheme.boundaries[0])).m == 2
        assert select_order(scheme, float(scheme.boundaries[1])).m == 4

    def test_below_first_boundary_is_no_transmission(self):
        scheme = scheme_at(10.0)
        assert select_order(scheme, float(scheme.boundaries[0]) * 0.999) is None

    def test_top_region_extends_to_sentinel(self):
        scheme = scheme_at(10.0)
        assert select_order(scheme, 1e6).m == 32

    def test_every_region_maps_to_its_order(self):
        scheme = scheme_at(14.0)
        mids = 0.5 * (scheme.boundaries[:-2] + scheme.boundaries[1:-1])
        for mid, order in zip(mids, scheme.orders):
            assert select_order(scheme, float(mid)) is order

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ValueError):
            select_order(scheme_at(10.0), 0.0)


class TestSpectralEfficiency:
    def test_saturates_at_half_order_count(self):
        params = TurbulenceParams(sigma_x=0.3)
        for n in (3, 5):
            eff = spectral_efficiency(scheme_at(60.0, n=n), params)
            assert abs(eff - n / 2.0) < 1e-6

    def test_vanishes_at_low_snr(self):
        params = TurbulenceParams(sigma_x=0.3)
        assert spectral_efficiency(scheme_at(-30.0), params) < 1e-6

    @settings(max_examples=300, deadline=None)
    @given(
        sigma_x=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        f_tx=st.integers(min_value=1, max_value=4),
        l_rx=st.integers(min_value=1, max_value=4),
        db=st.floats(min_value=-10.0, max_value=40.0),
        po=st.floats(min_value=1e-9, max_value=0.5),
    )
    @example(sigma_x=0.5, f_tx=1, l_rx=1, db=10.0, po=0.5)  # zero first boundary
    def test_partition_of_unity(self, sigma_x, f_tx, l_rx, db, po):
        params = TurbulenceParams(sigma_x=sigma_x, f_tx=f_tx, l_rx=l_rx)
        outage, probs = region_probabilities(scheme_at(db, po=po), params)
        assert outage + float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)
        assert outage >= 0.0 and np.all(probs >= 0.0)
        if po == 0.5:
            assert outage == 0.0

    def test_telescoped_equals_weighted_region_sum(self):
        # Identity checked to 1e-12 internally; recompute here too.
        params = TurbulenceParams(sigma_x=0.3)
        scheme = scheme_at(12.0)
        _, probs = region_probabilities(scheme, params)
        direct = 0.5 * float(np.dot(probs, scheme.bits_per_order))
        assert spectral_efficiency(scheme, params) == pytest.approx(direct, abs=1e-12)

    def test_headline_gap_converged_values(self):
        # Strong turbulence, target 1e-3, N=5: the adaptive scheme hits
        # S = 0.5 at 10.266 dB while fixed BPSK needs 27.458 dB to reach
        # the same average-BER target -- a 17.19 dB gap (converged value;
        # acceptance criterion 3 checks the gap against a scipy oracle).
        params = TurbulenceParams(sigma_x=0.5)

        def adaptive_crossing() -> float:
            lo, hi = -10.0, 40.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if spectral_efficiency(scheme_at(mid), params) < 0.5:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        def bpsk_crossing() -> float:
            lo, hi = -10.0, 60.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if ber_average(2, params, LinkBudget.from_db(mid)) > 1e-3:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        adaptive_db = adaptive_crossing()
        bpsk_db = bpsk_crossing()
        assert adaptive_db == pytest.approx(10.266, abs=0.02)
        assert bpsk_db == pytest.approx(27.458, abs=0.02)
        assert bpsk_db - adaptive_db == pytest.approx(17.192, abs=0.03)


class TestAverageBer:
    @pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("po", [1e-2, 1e-3])
    def test_never_exceeds_target(self, sigma, po):
        params = TurbulenceParams(sigma_x=sigma)
        for db in np.arange(0.0, 30.5, 2.5):
            scheme = compute_boundaries(5, po, LinkBudget.from_db(db))
            ber = average_ber_adaptive(scheme, params)
            if ber is not None:
                assert 0.0 <= ber <= po

    def test_outage_only_point_reports_none(self):
        params = TurbulenceParams(sigma_x=0.1)
        scheme = scheme_at(-40.0, po=1e-3)
        assert average_ber_adaptive(scheme, params) is None

    def test_single_order_converges_to_fixed_bpsk_on_log_scale(self):
        # The no-transmission cutoff removes the deep fades that dominate
        # the fixed link's average, so the value ratio approaches 1 only
        # in the log domain (what curve convergence on a log-axis plot
        # means); assert that monotone convergence.
        params = TurbulenceParams(sigma_x=0.3)
        ratios, log_ratios = [], []
        for db in (20.0, 30.0, 40.0):
            budget = LinkBudget.from_db(db)
            adaptive = average_ber_adaptive(compute_boundaries(1, 1e-3, budget), params)
            fixed = ber_average(2, params, budget)
            assert adaptive <= fixed
            ratios.append(adaptive / fixed)
            log_ratios.append(math.log(adaptive) / math.log(fixed))
        assert ratios[0] < ratios[1] < ratios[2]
        assert log_ratios[0] > log_ratios[1] > log_ratios[2] >= 1.0
        assert log_ratios[2] < 1.05

    def test_approaches_largest_fixed_order_at_high_snr(self):
        params = TurbulenceParams(sigma_x=0.3)
        ratios, log_ratios = [], []
        for db in (25.0, 30.0, 40.0):
            budget = LinkBudget.from_db(db)
            adaptive = average_ber_adaptive(compute_boundaries(3, 1e-3, budget), params)
            fixed = ber_average(8, params, budget)
            assert adaptive <= fixed
            ratios.append(adaptive / fixed)
            log_ratios.append(math.log(adaptive) / math.log(fixed))
        assert ratios[0] < ratios[1] < ratios[2]
        assert log_ratios[0] > log_ratios[1] > log_ratios[2] >= 1.0
        assert log_ratios[2] < 1.1


class TestMimo:
    def test_trivial_array_matches_single_path_bit_exact(self):
        siso = TurbulenceParams(sigma_x=0.3)
        trivial = MimoConfig(f_tx=1, l_rx=1, sigma_x=0.3)
        grid = list(np.arange(0.0, 30.5, 1.0))
        points_a = sweep(5, 1e-3, siso, grid)
        points_b = sweep(5, 1e-3, trivial, grid)
        for a, b in zip(points_a, points_b):
            assert a == b  # dataclass equality covers every field

    def test_crossover_moderate_turbulence(self):
        # More apertures help at high SNR and hurt at low SNR (the
        # boundaries sit above unity there, so shrinking the aggregate
        # spread empties the transmit regions).
        one = MimoConfig(f_tx=1, l_rx=1, sigma_x=0.3)
        four = MimoConfig(f_tx=2, l_rx=2, sigma_x=0.3)
        for db in np.arange(15.0, 30.5, 1.0):
            scheme = compute_boundaries(3, 1e-3, LinkBudget.from_db(db))
            assert spectral_efficiency(scheme, four) > spectral_efficiency(scheme, one)
        for db in np.arange(0.0, 6.5, 0.5):
            scheme = compute_boundaries(3, 1e-3, LinkBudget.from_db(db))
            assert spectral_efficiency(scheme, four) < spectral_efficiency(scheme, one)

    def test_mimo_average_ber_guarantee(self):
        four = MimoConfig(f_tx=2, l_rx=2, sigma_x=0.3)
        for db in (5.0, 10.0, 15.0, 20.0):
            scheme = compute_boundaries(5, 1e-3, LinkBudget.from_db(db))
            ber = average_ber_adaptive(scheme, four)
            if ber is not None:
                assert ber <= 1e-3

    def test_efficiency_ordering_in_aperture_product(self):
        # Beyond the 1x1-vs-2x2 pair: S is ordered by F*L on both sides
        # of the crossover.
        arrays = [
            MimoConfig(f_tx=f, l_rx=l, sigma_x=0.3)
            for f, l in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (4, 4)]
        ]
        for db in (15.0, 20.0, 25.0):
            scheme = compute_boundaries(3, 1e-3, LinkBudget.from_db(db))
            values = [spectral_efficiency(scheme, cfg) for cfg in arrays]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        for db in (2.0, 4.0, 6.0):
            scheme = compute_boundaries(3, 1e-3, LinkBudget.from_db(db))
            values = [spectral_efficiency(scheme, cfg) for cfg in arrays]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestSweep:
    def test_single_point_matches_direct_calls(self):
        params = TurbulenceParams(sigma_x=0.3)
        point = sweep(5, 1e-3, params, [15.0])[0]
        scheme = scheme_at(15.0)
        assert point.spectral_eff == spectral_efficiency(scheme, params)
        assert point.avg_ber == average_ber_adaptive(scheme, params)
        assert point.orders == (2, 4, 8, 16, 32)

    def test_efficiency_nondecreasing_in_snr(self):
        params = TurbulenceParams(sigma_x=0.5)
        points = sweep(5, 1e-3, params, list(np.arange(0.0, 30.5, 0.5)))
        effs = [p.spectral_eff for p in points]
        assert all(a <= b + 1e-15 for a, b in zip(effs, effs[1:]))

    def test_outage_only_points_flagged_not_fatal(self):
        params = TurbulenceParams(sigma_x=0.1)
        points = sweep(5, 1e-3, params, [-40.0, 10.0])
        assert math.isnan(points[0].avg_ber)
        assert any("outage_only" in n for n in points[0].notes)
        assert math.isfinite(points[1].avg_ber)

    def test_broken_invariant_raises(self, monkeypatch):
        # A Q-function whose tail at the +inf sentinel is not 0 breaks the
        # telescoping identity; both sweeps must raise, not return NaN rows.
        monkeypatch.setattr(adaptation, "q_function_array", lambda x: np.full(np.shape(x), 0.5))
        for run in (sweep, efficiency_sweep):
            with pytest.raises(AssertionError, match="telescoping"):
                run(5, 1e-3, TurbulenceParams(sigma_x=0.3), [15.0])

    def test_snr_beyond_float_range_flagged_at_both_ends(self):
        # -4000 dB underflows to 0 and 4000 dB overflows; neither aborts
        # the sweep or emits a numpy warning (warnings are errors here).
        points = sweep(5, 1e-3, TurbulenceParams(sigma_x=0.3), [-4000.0, 10.0, 4000.0])
        assert points[0].notes == ("error: avg_snr must be positive and finite, got 0.0",)
        assert points[2].notes == (
            "error: avg_snr must be positive and finite, got 10**(4000.0/10)",
        )
        for point in (points[0], points[2]):
            assert math.isnan(point.spectral_eff) and point.orders == ()
        assert math.isfinite(points[1].avg_ber)
        with pytest.raises(ValueError, match="positive and finite"):
            LinkBudget.from_db(4000.0)

    def test_grid_validation(self):
        params = TurbulenceParams(sigma_x=0.3)
        with pytest.raises(ValueError):
            sweep(5, 1e-3, params, [])
        with pytest.raises(ValueError):
            sweep(5, 1e-3, params, [10.0, 5.0])


OUTAGE_NOTE = "outage_only: transmission probability < 1e-12"


def same_fields(a, b) -> bool:
    # Dataclass equality in which NaN equals NaN.
    return all(x == y or (x != x and y != y) for x, y in zip(astuple(a), astuple(b)))


laws = st.builds(
    TurbulenceParams,
    sigma_x=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    f_tx=st.integers(min_value=1, max_value=4),
    l_rx=st.integers(min_value=1, max_value=4),
)
order_counts = st.integers(min_value=1, max_value=MAX_ORDERS)
targets = st.floats(min_value=1e-9, max_value=0.5)
grids = st.lists(st.floats(min_value=-50.0, max_value=100.0), min_size=1, max_size=6).map(sorted)


class TestGridProperties:
    @settings(max_examples=100, deadline=None)
    @given(params=laws, n=order_counts, po=targets, grid=grids)
    @example(params=TurbulenceParams(0.3), n=5, po=0.5, grid=[0.0, 10.0])
    @example(params=TurbulenceParams(0.3, 2, 2), n=8, po=1e-3, grid=[-400.0, 15.0, 40.0])
    @example(params=TurbulenceParams(0.5), n=3, po=0.5, grid=[-4000.0, -3090.0, 10.0, 4000.0])
    def test_rows_equal_per_point_functions(self, params, n, po, grid):
        points = sweep(n, po, params, grid)
        quick = efficiency_sweep(n, po, params, grid)
        schemes = scheme_grid(n, po, grid)
        assert len(points) == len(quick) == len(grid)
        row = 0
        for point, fast in zip(points, quick):
            assert same_fields(fast, replace(point, avg_ber=math.nan))
            try:
                budget = LinkBudget.from_db(point.snr_db)
            except ValueError as exc:
                assert point.notes == (f"error: {exc}",)
                continue
            scheme = compute_boundaries(n, po, budget)
            outage, probs = region_probabilities(scheme, params)
            ber = average_ber_adaptive(scheme, params)
            assert point.outage_prob == outage
            assert point.region_probs == tuple(probs.tolist())
            assert point.spectral_eff == spectral_efficiency(scheme, params)
            if ber is None:
                assert math.isnan(point.avg_ber)
            else:
                assert point.avg_ber == ber
            assert point.orders == tuple(order.m for order in scheme.orders)
            assert point.notes == scheme.notes + (() if ber is not None else (OUTAGE_NOTE,))
            assert np.array_equal(schemes.boundaries[row], scheme.boundaries)
            assert np.array_equal(
                schemes.thresholds_by_order[row], scheme.thresholds_by_order, equal_nan=True
            )
            row += 1

    @settings(max_examples=100, deadline=None)
    @given(params=laws, n=order_counts, po=targets, grid=grids)
    @example(params=TurbulenceParams(0.3), n=5, po=0.5, grid=[0.0, 10.0])
    @example(params=TurbulenceParams(0.3), n=8, po=1e-3, grid=[20.0, 60.0])
    def test_adaptive_ber_never_exceeds_target(self, params, n, po, grid):
        for point in sweep(n, po, params, grid):
            if not math.isnan(point.avg_ber):
                assert 0.0 <= point.avg_ber <= po

    @settings(max_examples=100, deadline=None)
    @given(n=order_counts, po=targets, grid=grids)
    @example(n=5, po=0.5, grid=[0.0, 10.0])
    @example(n=8, po=1e-3, grid=[-50.0, 100.0])
    def test_boundaries_times_sqrt_snr_constant(self, n, po, grid):
        schemes = scheme_grid(n, po, grid)
        scaled = schemes.boundaries[:, :-1] * np.sqrt(schemes.avg_snr)[:, None]
        assert scaled == pytest.approx(np.broadcast_to(scaled[0], scaled.shape), rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(params=laws, n=order_counts, po=targets, grid=grids)
    @example(params=TurbulenceParams(0.3), n=5, po=0.5, grid=[0.0, 10.0])
    @example(params=TurbulenceParams(0.9, 4, 4), n=8, po=1e-9, grid=[-50.0, 0.0, 100.0])
    def test_efficiency_nondecreasing_in_snr(self, params, n, po, grid):
        effs = [point.spectral_eff for point in efficiency_sweep(n, po, params, grid)]
        assert all(a <= b for a, b in zip(effs, effs[1:]))
