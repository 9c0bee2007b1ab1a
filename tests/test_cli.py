"""Tests for the command-line front end: column contracts, formats,
determinism, config precedence and exit codes."""

import json
import math
import warnings

import pytest

from fso_adapt.adaptation import compute_boundaries
from fso_adapt.cli import main
from fso_adapt.link import LinkBudget, ber_average
from fso_adapt.turbulence import TurbulenceParams

def run_cli(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestThresholds:
    def test_values_match_compute_boundaries(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert run_cli([
            "thresholds", "--sigma-x", "0.3", "--po", "1e-3", "--n", "5",
            "--snr", "0:30:1", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["snr_db", "i_1", "i_2", "i_3", "i_4", "i_5"]
        for row in rows:
            scheme = compute_boundaries(5, 1e-3, LinkBudget.from_db(row[0]))
            assert row[1:] == pytest.approx(list(scheme.thresholds_by_order), rel=1e-15)

    def test_known_point(self, tmp_path):
        out = tmp_path / "thr.csv"
        run_cli(["thresholds", "--po", "1e-3", "--n", "1", "--snr", "10:10:1", "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0][1] == pytest.approx(0.6909969502857173, abs=1e-12)

    def test_degenerate_target_row_is_zero(self, tmp_path):
        out = tmp_path / "thr.csv"
        run_cli(["thresholds", "--po", "0.5", "--n", "1", "--snr", "10:10:1", "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0][1] == 0.0

    def test_six_db_step_nearly_halves_thresholds(self, tmp_path):
        out = tmp_path / "thr.csv"
        run_cli(["thresholds", "--po", "1e-3", "--n", "5", "--snr", "10:16.02:6.02", "--out", str(out)])
        _, rows = read_csv(out)
        low, high = rows[0], rows[1]
        for a, b in zip(low[1:], high[1:]):
            assert b == pytest.approx(a / 2.0, rel=1e-3)


class TestSpectral:
    def test_columns_and_shapes(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert run_cli([
            "spectral", "--sigma-x", "0.5", "--po", "1e-3", "--n", "5",
            "--snr", "0:30:0.5", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["snr_db", "s_adaptive", "s_capacity_upper", "s_bpsk_nonadaptive", "outage_prob"]
        assert len(rows) == 61
        effs = [r[1] for r in rows]
        assert all(a <= b + 1e-15 for a, b in zip(effs, effs[1:]))
        # BPSK column is a step at level 0.5
        steps = sorted({r[3] for r in rows})
        assert steps == [0.0, 0.5] or steps == [0.0]

    def test_strong_turbulence_gap_shape(self, tmp_path):
        # Adaptive reaches S=0.5 far left of the non-adaptive BPSK step
        # at sigma_x=0.5 (converged gap 17.2 dB).
        out = tmp_path / "fig3.csv"
        run_cli(["spectral", "--sigma-x", "0.5", "--po", "1e-3", "--n", "5",
                 "--snr", "0:30:0.5", "--out", str(out)])
        _, rows = read_csv(out)
        adaptive_at = next(r[0] for r in rows if r[1] >= 0.5)
        bpsk_at = next((r[0] for r in rows if r[3] > 0.0), math.inf)
        assert bpsk_at - adaptive_at > 10.0

    def test_low_turbulence_reversal(self, tmp_path):
        # The two crossings sit ~0.19 dB apart at sigma_x=0.1, so the
        # grid must be finer than that.
        out = tmp_path / "fig1.csv"
        run_cli(["spectral", "--sigma-x", "0.1", "--po", "1e-3", "--n", "5",
                 "--snr", "7:10:0.05", "--out", str(out)])
        _, rows = read_csv(out)
        adaptive_at = next(r[0] for r in rows if r[1] >= 0.5)
        bpsk_at = next(r[0] for r in rows if r[3] > 0.0)
        assert bpsk_at < adaptive_at

    def test_capacity_column_low_turbulence_value(self, tmp_path):
        out = tmp_path / "cap.csv"
        run_cli(["spectral", "--sigma-x", "0.001", "--po", "1e-3", "--n", "5",
                 "--snr", "20:20:1", "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0][2] == pytest.approx(0.5 * math.log2(100.0 / math.e), abs=1e-4)

    def test_mimo_1x1_output_bytes_identical_to_siso(self, tmp_path):
        a, b = tmp_path / "siso.csv", tmp_path / "mimo.csv"
        run_cli(["spectral", "--sigma-x", "0.3", "--po", "1e-3", "--n", "3",
                 "--snr", "0:20:0.5", "--out", str(a)])
        run_cli(["spectral", "--sigma-x", "0.3", "--po", "1e-3", "--n", "3",
                 "--snr", "0:20:0.5", "--mimo", "1x1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["spectral", "--sigma-x", "0.3", "--po", "1e-2", "--n", "4", "--snr", "0:25:0.5"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bpsk_threshold_equals_full_bisection(self, tmp_path):
        out = tmp_path / "fig3.json"
        run_cli(["spectral", "--sigma-x", "0.5", "--po", "1e-3", "--n", "5",
                 "--snr", "25:30:5", "--format", "json", "--out", str(out)])
        got = json.loads(out.read_text())["meta"]["bpsk_ber_meets_target_at_db"]
        channel = TurbulenceParams(sigma_x=0.5)
        lo, hi = -30.0, 90.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ber_average(2, channel, LinkBudget.from_db(mid)) > 1e-3:
                lo = mid
            else:
                hi = mid
        assert got == 0.5 * (lo + hi)

    @pytest.mark.parametrize("command", ["spectral", "capacity"])
    def test_low_snr_grid_emits_no_warning(self, command, tmp_path):
        # The grid starts below the capacity bound's 10 dB trust level.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([command, "--snr", "0:30:0.5", "--out", str(tmp_path / "out.csv")]) == 0


class TestBer:
    def test_columns_and_guarantee(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert run_cli([
            "ber", "--sigma-x", "0.3", "--po", "1e-2", "--n", "5",
            "--snr", "0:30:0.5", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == [
            "snr_db", "ber_adaptive", "ber_fixed_2", "ber_fixed_4",
            "ber_fixed_8", "ber_fixed_16", "ber_fixed_32", "p_o_reference",
        ]
        for row in rows:
            if not math.isnan(row[1]):
                assert row[1] <= 1e-2 + 1e-15
            assert row[-1] == 1e-2

    def test_low_snr_fixed_cap(self, tmp_path):
        # Fixed-M BER at vanishing SNR tends to the (2/log2 M) * 0.5 cap.
        out = tmp_path / "cap.csv"
        run_cli(["ber", "--sigma-x", "0.3", "--po", "1e-2", "--n", "4",
                 "--snr=-80:-80:1", "--out", str(out)])
        header, rows = read_csv(out)
        row = rows[0]
        caps = {"ber_fixed_2": 0.5, "ber_fixed_4": 0.5, "ber_fixed_8": 1 / 3, "ber_fixed_16": 0.25}
        for name, cap in caps.items():
            assert row[header.index(name)] == pytest.approx(cap, rel=1e-3)

    def test_high_snr_adaptive_approaches_largest_fixed(self, tmp_path):
        out = tmp_path / "tail.csv"
        run_cli(["ber", "--sigma-x", "0.3", "--po", "1e-3", "--n", "3",
                 "--snr", "25:40:5", "--out", str(out)])
        header, rows = read_csv(out)
        j_ad, j_fx = header.index("ber_adaptive"), header.index("ber_fixed_8")
        log_gap = [abs(math.log(r[j_ad]) / math.log(r[j_fx]) - 1.0) for r in rows]
        assert all(a >= b for a, b in zip(log_gap, log_gap[1:]))
        assert log_gap[-1] < 0.1


class TestCapacityCommand:
    def test_numeric_matches_closed(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert run_cli(["capacity", "--sigma-x", "0.3", "--snr", "10:25:5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["snr_db", "c_upper_closed", "c_upper_numeric"]
        for row in rows:
            assert row[2] == pytest.approx(row[1], rel=1e-9)


class TestFormatsAndConfig:
    def test_json_envelope(self, tmp_path):
        out = tmp_path / "fig.json"
        run_cli(["spectral", "--sigma-x", "0.3", "--po", "1e-3", "--n", "3",
                 "--snr", "5:10:5", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["meta"]["tool"] == "fso-adapt"
        assert payload["meta"]["command"] == "spectral"
        assert payload["meta"]["sigma_x"] == 0.3
        assert "version" in payload["meta"] and "seed" in payload["meta"]
        assert payload["columns"][0] == "snr_db"
        assert len(payload["rows"]) == 2

    def test_json_flags_mimo_capacity_extrapolation(self, tmp_path):
        out = tmp_path / "fig7.json"
        run_cli(["spectral", "--sigma-x", "0.3", "--po", "1e-3", "--n", "3", "--mimo", "2x2",
                 "--snr", "5:10:5", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["meta"]["mimo_capacity_extrapolated"] is True
        assert payload["meta"]["mimo"] == "2x2"

    def test_csv_floats_are_17_significant_digits(self, tmp_path):
        # 17 significant digits round-trip the double exactly.
        out = tmp_path / "thr.csv"
        run_cli(["thresholds", "--po", "1e-3", "--n", "1", "--snr", "10:10:1", "--out", str(out)])
        text = out.read_text().strip().splitlines()[1].split(",")[1]
        value = float(text)
        assert text == format(value, ".17g")
        assert value == pytest.approx(0.6909969502857173, abs=1e-12)

    def test_config_file_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep campaign\nsigma_x = 0.5\npo = 1e-2\nn = 3\nsnr = 0:10:5\n")
        out_a = tmp_path / "a.csv"
        run_cli(["thresholds", "--config", str(cfg), "--out", str(out_a)])
        header, rows = read_csv(out_a)
        assert header == ["snr_db", "i_1", "i_2", "i_3"]
        assert len(rows) == 3
        # Flag overrides the file value.
        out_b = tmp_path / "b.csv"
        run_cli(["thresholds", "--config", str(cfg), "--n", "2", "--out", str(out_b)])
        header_b, _ = read_csv(out_b)
        assert header_b == ["snr_db", "i_1", "i_2"]

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma = 0.5\n")
        assert run_cli(["thresholds", "--config", str(cfg)]) == 2

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FSO_ADAPT_OUTDIR", str(tmp_path / "results"))
        run_cli(["thresholds", "--po", "1e-3", "--n", "2", "--snr", "10:10:1", "--out", "thr.csv"])
        assert (tmp_path / "results" / "thr.csv").exists()

    def test_stdout_when_no_out(self, capsys):
        assert run_cli(["thresholds", "--po", "1e-3", "--n", "2", "--snr", "10:10:1"]) == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0] == "snr_db,i_1,i_2"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["spectral", "--snr", "10:0:1"],
            ["spectral", "--snr", "0:10:0"],
            ["spectral", "--snr", "nonsense"],
            ["spectral", "--mimo", "2by2"],
            ["ber", "--sigma-x", "7.0"],
            ["thresholds", "--po", "0.7"],
            ["spectral", "--n", "9"],
            ["ber", "--n", "0"],
        ],
    )
    def test_bad_arguments_exit_2(self, args):
        assert run_cli(args) == 2


class TestTargetBer:
    @pytest.mark.parametrize("po", ["2", "-1", "0", "nan"])
    @pytest.mark.parametrize("command", ["spectral", "ber", "thresholds"])
    def test_out_of_range_po_is_usage_error(self, command, po, capsys):
        assert run_cli([command, f"--po={po}", "--snr", "10:10:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: target_ber must lie in (0, 0.5], got {float(po)!r}\n"

    def test_capacity_ignores_po(self, capsys):
        assert run_cli(["capacity", "--po=2", "--snr", "10:10:1"]) == 0
        assert capsys.readouterr().out.startswith("snr_db,")


class TestSnrRange:
    @pytest.mark.parametrize(
        "snr, shown",
        [("0:4000:1000", "10**(4000.0/10)"), ("-4000:0:1000", "0.0")],
    )
    @pytest.mark.parametrize("command", ["spectral", "ber", "thresholds", "capacity"])
    def test_snr_beyond_float_range_is_usage_error(self, command, snr, shown, capsys):
        # Overflow and underflow of the linear SNR end the same way, with
        # no traceback and no numpy warning (warnings are errors here).
        assert run_cli([command, f"--snr={snr}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: avg_snr must be positive and finite, got {shown}\n"


class TestNotes:
    def test_dropped_orders_reach_json_and_stderr(self, tmp_path, capsys):
        out = tmp_path / "fig.json"
        assert run_cli(["spectral", "--po", "0.5", "--n", "5", "--snr", "0:10:5",
                        "--format", "json", "--out", str(out)]) == 0
        notes = json.loads(out.read_text())["meta"]["notes"]
        assert {"note": "order 32 dropped: target 0.5 unreachable", "snr_db": [0.0, 5.0, 10.0]} in notes
        assert any("region empty" in entry["note"] for entry in notes)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(notes)
        assert "note: order 32 dropped: target 0.5 unreachable (3 points, 0 to 10 dB)" in err

    @pytest.mark.parametrize("command", ["spectral", "ber"])
    def test_outage_only_point_reported(self, command, tmp_path, capsys):
        out = tmp_path / "fig.json"
        assert run_cli([command, "--snr=-400:-400:1", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["notes"] == [
            {"note": "outage_only: transmission probability < 1e-12", "snr_db": [-400.0]}
        ]
        assert capsys.readouterr().err == (
            "note: outage_only: transmission probability < 1e-12 (-400 dB)\n"
        )

    def test_thresholds_report_dropped_orders(self, capsys):
        assert run_cli(["thresholds", "--po", "0.45", "--n", "5", "--snr", "10:10:1"]) == 0
        captured = capsys.readouterr()
        assert "note: order 32 dropped: target 0.45 unreachable (10 dB)" in captured.err
        assert captured.out.splitlines()[0] == "snr_db,i_1,i_2,i_3,i_4,i_5"

    def test_csv_bytes_carry_no_notes(self, tmp_path, capsys):
        # Notes go to stderr only; the CSV table is the same as without them.
        out = tmp_path / "fig.csv"
        assert run_cli(["spectral", "--po", "0.5", "--n", "3", "--snr", "0:10:5", "--out", str(out)]) == 0
        text = out.read_text()
        assert "note" not in text and "dropped" not in text
        assert text.splitlines()[0] == "snr_db,s_adaptive,s_capacity_upper,s_bpsk_nonadaptive,outage_prob"
        assert capsys.readouterr().out == ""

    def test_figure_command_prints_no_notes(self, tmp_path, capsys):
        assert run_cli(["ber", "--sigma-x", "0.3", "--po", "1e-2", "--n", "5",
                        "--snr", "0:30:0.5", "--out", str(tmp_path / "fig5.csv")]) == 0
        assert capsys.readouterr().err == ""


class TestSimulateCommand:
    def test_fixed_mode_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code = run_cli([
            "simulate", "--mode", "fixed", "--m", "2", "--sigma-x", "0.3",
            "--snr-db", "10", "--symbols", "2e5", "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ber_point" in stdout and "kernel" in stdout
        payload = json.loads(out.read_text())
        assert payload["report"]["bits_sent"] == 200000

    def test_adaptive_mode_deterministic(self, capsys):
        args = ["simulate", "--mode", "adaptive", "--sigma-x", "0.3", "--po", "1e-3",
                "--snr-db", "15", "--symbols", "1e5", "--seed", "42"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestValidateCommand:
    def test_zero_tolerance_is_usage_error(self, capsys):
        assert run_cli(["validate", "--grid", "default", "--tolerance", "0"]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_unknown_grid_is_usage_error(self):
        assert run_cli(["validate", "--grid", "exotic"]) == 2

    def test_default_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "validate.json"
        code = run_cli([
            "validate", "--grid", "default", "--tolerance", "0.05",
            "--seed", "2024", "--out", str(out), "--workers", "2",
        ])
        stdout = capsys.readouterr().out
        assert "points passed" in stdout
        assert code == 0, stdout
        payload = json.loads(out.read_text())
        assert all(entry["status"] == "pass" for entry in payload["results"])
