"""Tests for the Monte Carlo link simulator: kernel parity, determinism,
statistical agreement with the analytics, and the validation driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_adapt import _psk_kernel_py, simulator
from fso_adapt._tables import POPCOUNT, TAB_IM, TAB_OFFSET, TAB_RE
from fso_adapt.adaptation import compute_boundaries, spectral_efficiency
from fso_adapt.link import LinkBudget, ModOrder
from fso_adapt.numerics import inverse_q, q_function
from fso_adapt.simulator import SimConfig, run, validate_point
from fso_adapt.turbulence import MimoConfig, TurbulenceParams

try:
    from fso_adapt import _psk_kernel as _compiled
except ImportError:
    _compiled = None

needs_compiled = pytest.mark.skipif(_compiled is None, reason="compiled kernel not built")
KERNELS = {"numpy": _psk_kernel_py.count_bit_errors}
if _compiled is not None:
    KERNELS["compiled"] = _compiled.count_bit_errors


def no_fading() -> TurbulenceParams:
    return TurbulenceParams(sigma_x=1e-9)


class TestKernels:
    @staticmethod
    def _draws(seed: int, nb: int, k: int):
        rng = np.random.default_rng(seed)
        amp = np.abs(rng.normal(2.0, 1.5, nb)) + 0.01
        m = rng.choice(np.array([0, 2, 4, 8, 16, 32], dtype=np.int64), nb)
        u = rng.random(nb * k)
        noise = rng.standard_normal(2 * nb * k)
        return amp, m, u, noise

    def test_numpy_kernel_noiseless_is_error_free(self):
        nb, k = 50, 200
        amp, m, u, _ = self._draws(3, nb, k)
        noise = np.zeros(2 * nb * k)
        errors = _psk_kernel_py.count_bit_errors(
            amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT
        )
        assert errors == 0

    def test_numpy_kernel_bpsk_matches_sign_rule(self):
        rng = np.random.default_rng(11)
        nb, k = 20, 1000
        amp = np.full(nb, 1.2)
        m = np.full(nb, 2, dtype=np.int64)
        u = rng.random(nb * k)
        noise = rng.standard_normal(2 * nb * k)
        errors = _psk_kernel_py.count_bit_errors(
            amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT
        )
        sent = (u * 2).astype(np.int64)
        received = np.where(sent == 0, 1.2, -1.2) + math.sqrt(0.5) * noise[: nb * k]
        decided = (received < 0).astype(np.int64)
        assert errors == int(np.count_nonzero(sent != decided))

    @staticmethod
    def _read_rule_reference(amp, m, u, noise, k):
        # Scalar statement of the read rule: u and noise are consumed from
        # the front in slot order; outage blocks read nothing, BPSK slots
        # one uniform and one normal, M >= 4 slots one uniform and two
        # normals (in-phase first).  Returns the error count and how many
        # uniforms and normals were read.
        errors = uniforms = normals = 0
        for a, order in zip(amp, m):
            order = int(order)
            if order < 2:
                continue
            base = int(TAB_OFFSET[order])
            for _ in range(k):
                sent = int(u[uniforms] * order)
                uniforms += 1
                re = a * TAB_RE[base + sent] + math.sqrt(0.5) * noise[normals]
                normals += 1
                decided = 0
                if order == 2:
                    decided = int(re < 0.0)
                else:
                    im = a * TAB_IM[base + sent] + math.sqrt(0.5) * noise[normals]
                    normals += 1
                    best = re * TAB_RE[base] + im * TAB_IM[base]
                    for cand in range(1, order):
                        score = re * TAB_RE[base + cand] + im * TAB_IM[base + cand]
                        if score > best:
                            best, decided = score, cand
                errors += int(POPCOUNT[(sent ^ (sent >> 1)) ^ (decided ^ (decided >> 1))])
        return errors, uniforms, normals

    @staticmethod
    def _mixed_draws(k: int):
        # Outage (0, 1), BPSK and M >= 4 blocks, interleaved.
        rng = np.random.default_rng(77)
        nb = 60
        amp = rng.uniform(0.5, 3.0, nb)
        m = rng.choice(np.array([0, 1, 2, 4, 8, 16, 32], dtype=np.int64), nb)
        m[:7] = [0, 2, 4, 1, 2, 32, 0]
        return amp, m, rng.random(nb * k), rng.standard_normal(2 * nb * k)

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("backend", list(KERNELS))
    def test_read_rule_matches_scalar_reference(self, backend, k):
        amp, m, u, noise = self._mixed_draws(k)
        expected, uniforms, normals = self._read_rule_reference(amp, m, u, noise, k)
        sending = int(np.count_nonzero(m >= 2))
        assert uniforms == k * sending
        assert normals == k * (sending + int(np.count_nonzero(m >= 4)))
        assert expected > 0
        got = KERNELS[backend](amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT)
        assert got == expected

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("backend", list(KERNELS))
    def test_entries_after_the_read_prefix_are_ignored(self, backend, k):
        amp, m, u, noise = self._mixed_draws(k)
        expected, uniforms, normals = self._read_rule_reference(amp, m, u, noise, k)
        u[uniforms:] = 2.0
        noise[normals:] = np.nan
        got = KERNELS[backend](amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT)
        assert got == expected

    @pytest.mark.parametrize("backend", list(KERNELS))
    def test_ties_resolve_to_lowest_index(self, backend):
        # Zero amplitude and zero noise put every received sample at the
        # origin, where all constellation points score 0, so each symbol
        # must decode as index 0.
        nb, k = 9, 64
        m = np.array([2, 4, 8, 16, 32, 64, 128, 256, 4], dtype=np.int64)
        u = np.random.default_rng(4).random(nb * k)
        sent = (u * np.repeat(m, k)).astype(np.int64)
        expected = int(POPCOUNT[sent ^ (sent >> 1)].sum())
        errors = KERNELS[backend](
            np.zeros(nb), m, u, np.zeros(2 * nb * k), k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT
        )
        assert errors == expected

    @needs_compiled
    def test_backends_bit_identical(self):
        for seed, nb, k in ((0, 137, 61), (1, 999, 17), (2, 64, 512)):
            amp, m, u, noise = self._draws(seed, nb, k)
            a = _psk_kernel_py.count_bit_errors(
                amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT
            )
            b = _compiled.count_bit_errors(
                amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT
            )
            assert a == b

    @needs_compiled
    @pytest.mark.parametrize("trial", range(12))
    def test_backends_bit_identical_fuzz(self, trial):
        # Random shapes, every constellation size, amplitudes spanning
        # six orders of magnitude.
        rng = np.random.default_rng(10_000 + trial)
        nb = int(rng.integers(1, 400))
        k = int(rng.integers(1, 700))
        amp = np.abs(rng.normal(0.0, 3.0, nb)) * rng.choice([1e-6, 0.1, 1.0, 20.0], nb)
        m = rng.choice(np.array([0, 2, 4, 8, 16, 32, 64, 128, 256], dtype=np.int64), nb)
        u = rng.random(nb * k)
        noise = rng.standard_normal(2 * nb * k)
        a = _psk_kernel_py.count_bit_errors(amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT)
        b = _compiled.count_bit_errors(amp, m, u, noise, k, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT)
        assert a == b

    @needs_compiled
    def test_compiled_kernel_rejects_bad_inputs(self):
        nb, k = 40, 25
        amp, m, u, noise = self._draws(5, nb, k)
        good = dict(amp=amp, m=m, u=u, noise=noise, k=k)
        bad_inputs = {
            "int32 m_per_block": dict(m=m.astype(np.int32)),
            "float m_per_block": dict(m=m.astype(np.float64)),
            "float32 amp": dict(amp=amp.astype(np.float32)),
            "short u": dict(u=u[:-1]),
            "long u": dict(u=np.append(u, 0.5)),
            "short noise": dict(noise=noise[:-1]),
            "short m_per_block": dict(m=m[:-1]),
            "k larger than the draws": dict(k=k + 1),
            "2-D u": dict(u=u.reshape(nb, k)),
            "strided noise": dict(noise=np.repeat(noise, 2)[::2]),
            "unsupported order": dict(m=np.full(nb, 3, dtype=np.int64)),
            "order beyond the tables": dict(m=np.full(nb, 512, dtype=np.int64)),
            "uniform outside [0, 1)": dict(u=u + 1.0),
        }
        for label, change in bad_inputs.items():
            a = {**good, **change}
            try:
                _compiled.count_bit_errors(
                    a["amp"], a["m"], a["u"], a["noise"], a["k"], TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT
                )
            except ValueError:
                continue
            pytest.fail(f"accepted {label}")

    @needs_compiled
    def test_backend_selected_at_import(self):
        assert simulator.KERNEL_BACKEND == "compiled"

    @needs_compiled
    def test_run_identical_across_backends(self):
        config = SimConfig(
            blocks=3000,
            symbols_per_block=100,
            seed=99,
            mode=compute_boundaries(5, 1e-3, LinkBudget.from_db(12.0)),
            channel=TurbulenceParams(sigma_x=0.3),
            budget=LinkBudget.from_db(12.0),
        )
        original = simulator.active_kernel
        try:
            simulator.active_kernel = _compiled.count_bit_errors
            with_compiled = run(config)
            simulator.active_kernel = _psk_kernel_py.count_bit_errors
            with_numpy = run(config)
        finally:
            simulator.active_kernel = original
        assert with_compiled.bit_errors == with_numpy.bit_errors
        assert with_compiled.bits_sent == with_numpy.bits_sent
        assert with_compiled.per_region_histogram == with_numpy.per_region_histogram


class TestRunDraws:
    @staticmethod
    def _recorded_run(config: SimConfig):
        # Run with a wrapper around the active kernel that records, per
        # call, the read prefix that m_per_block defines (uniforms and
        # normals) and the nonzero entries inside and after it.
        calls = []
        original = simulator.active_kernel

        def spy(amp, m, u, noise, k, *tables):
            sending = int(np.count_nonzero(m >= 2))
            quad = int(np.count_nonzero(m >= 4))
            uniforms, normals = k * sending, k * (sending + quad)
            calls.append(
                {
                    "blocks": m.size,
                    "sending": sending,
                    "quad": quad,
                    "lengths_ok": u.size == m.size * k and noise.size == 2 * u.size,
                    "uniforms": uniforms,
                    "normals": normals,
                    "nonzero_u": (np.count_nonzero(u[:uniforms]), np.count_nonzero(u[uniforms:])),
                    "nonzero_noise": (
                        np.count_nonzero(noise[:normals]),
                        np.count_nonzero(noise[normals:]),
                    ),
                }
            )
            return original(amp, m, u, noise, k, *tables)

        simulator.active_kernel = spy
        try:
            report = run(config)
        finally:
            simulator.active_kernel = original
        return report, calls

    @pytest.mark.parametrize("k", [1, 40])
    def test_only_the_read_prefix_is_drawn(self, k):
        # At 6 dB and sigma_x = 0.5 a five-order scheme has outage, BPSK
        # and higher-order blocks in every chunk.
        budget = LinkBudget.from_db(6.0)
        config = SimConfig(
            blocks=2 * (simulator.CHUNK_SYMBOLS // k),
            symbols_per_block=k,
            seed=13,
            mode=compute_boundaries(5, 1e-3, budget),
            channel=TurbulenceParams(sigma_x=0.5),
            budget=budget,
        )
        _, calls = self._recorded_run(config)
        assert len(calls) == 2
        for call in calls:
            assert 0 < call["quad"] < call["sending"] < call["blocks"]
            assert call["lengths_ok"]
            assert call["nonzero_u"] == (call["uniforms"], 0)
            assert call["nonzero_noise"] == (call["normals"], 0)

    def test_oversized_outage_block_draws_nothing(self):
        # At -20 dB the single block is in outage for every fading draw
        # the sampler can produce at sigma_x = 0.1.
        budget = LinkBudget.from_db(-20.0)
        config = SimConfig(
            blocks=1,
            symbols_per_block=(1 << 20) + 4321,
            seed=3,
            mode=compute_boundaries(3, 1e-3, budget),
            channel=TurbulenceParams(sigma_x=0.1),
            budget=budget,
        )
        report, calls = self._recorded_run(config)
        assert calls == []
        assert report.bits_sent == 0 and report.outage_fraction == 1.0


class TestClassify:
    @staticmethod
    def _reference(scheme, fading, k):
        # The searchsorted rule of select_order, applied per block.
        region = np.searchsorted(scheme.boundaries, fading, side="right") - 1
        m_values = np.array([order.m for order in scheme.orders], dtype=np.int64)
        bits_values = np.array(scheme.bits_per_order, dtype=np.int64)
        sending = region >= 0
        clamped = np.maximum(region, 0)
        m_blocks = np.where(sending, m_values[clamped], 0)
        return (
            m_blocks,
            np.bincount(region[sending], minlength=len(m_values)),
            int(np.count_nonzero(~sending)),
            int(np.where(sending, bits_values[clamped], 0).sum()) * k,
            int(np.count_nonzero(m_blocks >= 2)),
            int(np.count_nonzero(m_blocks >= 4)),
        )

    def _check(self, scheme, fading, k):
        got = simulator._classify(scheme, fading, k)
        want = self._reference(scheme, fading, k)
        assert got[0].dtype == np.int64
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2:] == want[2:]
        return got

    @pytest.mark.parametrize(
        "n_orders, po, db",
        [(5, 1e-3, 15.0), (8, 1e-3, 30.0), (1, 1e-3, 10.0), (3, 0.5, 6.0), (8, 1e-9, 0.0)],
    )
    def test_edges_extremes_and_random_batch(self, n_orders, po, db):
        scheme = compute_boundaries(n_orders, po, LinkBudget.from_db(db))
        edges = scheme.boundaries[:-1]
        special = np.concatenate([edges, np.nextafter(edges, 0.0), [0.0, 1e300]])
        m_blocks, histogram, outage, *_ = self._check(scheme, special, k=3)
        # A fade exactly on an edge activates the order above it.
        np.testing.assert_array_equal(m_blocks[: edges.size], [o.m for o in scheme.orders])
        assert m_blocks[-1] == scheme.orders[-1].m
        rng = np.random.default_rng(17)
        self._check(scheme, np.exp(rng.normal(-0.2, 0.8, 5000)) * edges[-1], k=250)

    @settings(max_examples=200, deadline=None)
    @given(
        n_orders=st.integers(min_value=1, max_value=8),
        po=st.floats(min_value=1e-9, max_value=0.5),
        db=st.floats(min_value=-10.0, max_value=40.0),
        fading=st.lists(
            st.floats(min_value=0.0, max_value=1e300, allow_subnormal=False), min_size=1, max_size=60
        ),
        k=st.integers(min_value=1, max_value=1000),
    )
    def test_tallies_partition_the_blocks(self, n_orders, po, db, fading, k):
        scheme = compute_boundaries(n_orders, po, LinkBudget.from_db(db))
        fading = np.array(fading)
        _, histogram, outage, bits_sent, sending, _ = self._check(scheme, fading, k)
        assert int(histogram.sum()) + outage == fading.size
        assert sending == fading.size - outage
        assert bits_sent == k * sum(int(h) * b for h, b in zip(histogram, scheme.bits_per_order))


class TestSimConfig:
    def test_guard_rail(self):
        with pytest.raises(ValueError):
            SimConfig(
                blocks=10 ** 6,
                symbols_per_block=10 ** 4,
                seed=1,
                mode=ModOrder(2),
                channel=no_fading(),
                budget=LinkBudget(avg_snr=1.0),
            )

    def test_adaptive_budget_consistency(self):
        scheme = compute_boundaries(3, 1e-3, LinkBudget.from_db(10.0))
        with pytest.raises(ValueError):
            SimConfig(
                blocks=10,
                symbols_per_block=10,
                seed=1,
                mode=scheme,
                channel=no_fading(),
                budget=LinkBudget.from_db(12.0),
            )


class TestRunDeterminism:
    @staticmethod
    def _config(seed: int = 7) -> SimConfig:
        budget = LinkBudget.from_db(13.0)
        return SimConfig(
            blocks=5000,
            symbols_per_block=300,
            seed=seed,
            mode=compute_boundaries(5, 1e-3, budget),
            channel=TurbulenceParams(sigma_x=0.3),
            budget=budget,
        )

    def test_identical_reports_for_identical_config(self):
        assert run(self._config()) == run(self._config())

    def test_seed_changes_stream(self):
        assert run(self._config(seed=7)) != run(self._config(seed=8))

    def test_worker_count_does_not_change_results(self):
        base = run(self._config(), workers=1)
        assert run(self._config(), workers=2) == base
        assert run(self._config(), workers=4) == base

    def test_oversized_block_slab_path(self):
        # One block larger than the chunk target exercises the slab loop.
        budget = LinkBudget.from_db(6.0)
        config = SimConfig(
            blocks=1,
            symbols_per_block=(1 << 20) + 4321,
            seed=3,
            mode=ModOrder(2),
            channel=no_fading(),
            budget=budget,
        )
        report = run(config)
        assert report.bits_sent == config.symbols_per_block
        want = q_function(math.sqrt(2.0 * budget.avg_snr))
        assert abs(report.ber_point - want) < 5.0 * report.ber_ci95


class TestRunStatistics:
    def test_noiseless_limit_zero_errors(self):
        budget = LinkBudget(avg_snr=1e12)
        config = SimConfig(
            blocks=100,
            symbols_per_block=1000,
            seed=5,
            mode=ModOrder(8),
            channel=no_fading(),
            budget=budget,
        )
        report = run(config)
        assert report.bit_errors == 0
        assert report.bits_sent == 300000

    def test_bpsk_no_fading_hits_known_ber(self):
        # snr chosen so Q(sqrt(2 snr)) = 1e-2; 1e7 symbols.
        snr = inverse_q(1e-2) ** 2 / 2.0
        budget = LinkBudget(avg_snr=snr)
        config = SimConfig(
            blocks=10 ** 4,
            symbols_per_block=10 ** 3,
            seed=17,
            mode=ModOrder(2),
            channel=no_fading(),
            budget=budget,
        )
        report = run(config)
        ci_ref = 1.96 * math.sqrt(1e-2 * 0.99 / report.bits_sent)
        assert abs(report.ber_point - 1e-2) <= ci_ref

    def test_adaptive_matches_analytics(self):
        budget = LinkBudget.from_db(15.0)
        scheme = compute_boundaries(5, 1e-3, budget)
        params = TurbulenceParams(sigma_x=0.3)
        config = SimConfig(
            blocks=10 ** 7,
            symbols_per_block=1,
            seed=23,
            mode=scheme,
            channel=params,
            budget=budget,
        )
        report = run(config)
        eff = spectral_efficiency(scheme, params)
        assert abs(0.5 * report.throughput_bits_per_symbol - eff) / eff < 0.02
        assert report.ber_point <= 1e-3 + report.ber_ci95
        assert sum(report.per_region_histogram) == config.blocks - round(
            report.outage_fraction * config.blocks
        )

    def test_histogram_matches_region_probabilities(self):
        from fso_adapt.adaptation import region_probabilities

        budget = LinkBudget.from_db(12.0)
        scheme = compute_boundaries(5, 1e-3, budget)
        params = TurbulenceParams(sigma_x=0.3)
        config = SimConfig(
            blocks=2 * 10 ** 5,
            symbols_per_block=1,
            seed=31,
            mode=scheme,
            channel=params,
            budget=budget,
        )
        report = run(config)
        outage, probs = region_probabilities(scheme, params)
        assert report.outage_fraction == pytest.approx(outage, abs=0.005)
        empirical = np.asarray(report.per_region_histogram) / config.blocks
        assert empirical == pytest.approx(probs, abs=0.005)

    def test_mimo_trivial_array_report_identical_to_siso(self):
        budget = LinkBudget.from_db(14.0)
        scheme = compute_boundaries(5, 1e-3, budget)

        def build(channel):
            return SimConfig(
                blocks=20000,
                symbols_per_block=50,
                seed=41,
                mode=scheme,
                channel=channel,
                budget=budget,
            )

        assert run(build(TurbulenceParams(sigma_x=0.3))) == run(
            build(MimoConfig(f_tx=1, l_rx=1, sigma_x=0.3))
        )


class TestValidatePoint:
    def test_bpsk_no_fading_passes_at_one_percent(self):
        result = validate_point(4.32, no_fading(), ModOrder(2), 0.01, seed=100)
        assert result.status == "pass"
        assert abs(result.details["signed_gap"]) <= result.details["pass_band"]

    def test_bpsk_fading_point_passes(self):
        result = validate_point(10.0, TurbulenceParams(sigma_x=0.3), ModOrder(2), 0.05, seed=101)
        assert result.status == "pass"

    def test_eight_psk_reports_signed_gap(self):
        # The analytic side uses the nearest-neighbour approximation, so
        # a small systematic gap is expected and must be reported.
        result = validate_point(15.0, TurbulenceParams(sigma_x=0.1), ModOrder(8), 0.05, seed=102)
        assert result.status == "pass"
        assert "signed_gap" in result.details

    def test_adaptive_point(self):
        budget = LinkBudget.from_db(15.0)
        scheme = compute_boundaries(5, 1e-3, budget)
        result = validate_point(15.0, TurbulenceParams(sigma_x=0.3), scheme, 0.02, seed=103)
        assert result.status == "pass"
        assert result.details["simulated_ber"] <= 1e-3 + result.report.ber_ci95

    def test_mimo_point_reports_approximation_gap(self):
        budget = LinkBudget.from_db(15.0)
        scheme = compute_boundaries(5, 1e-3, budget)
        result = validate_point(
            15.0, MimoConfig(f_tx=2, l_rx=2, sigma_x=0.3), scheme, 0.05, seed=104
        )
        assert result.details["aggregate_law_is_approximation"] is True
        assert "spectral_eff_signed_gap" in result.details
        assert result.status == "pass"

    def test_infeasible_sample_size_is_inconclusive(self):
        # Tiny tolerance at a tiny BER needs more symbols than the guard
        # rail allows.
        result = validate_point(20.0, TurbulenceParams(sigma_x=0.1), ModOrder(2), 1e-4, seed=105)
        assert result.status == "inconclusive"
        assert result.report is None

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            validate_point(10.0, no_fading(), ModOrder(2), 0.0)
