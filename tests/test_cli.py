import csv
import gc
import importlib
import io
import math
import os
import shlex
import subprocess
import sys

import pytest

import mimocov
from mimocov import analytic, cli, coverage, errors, improvement_sequence, insights, montecarlo
from mimocov.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in data]


POINT_HEADER = ["kind", "tau_db", "lambda", "alpha", "r0", "noise", "M",
                "theta", "kappa", "beta", "method", "p_c", "ci_halfwidth",
                "trials", "seed"]


class TestCoverageCommand:
    def test_row_schema_and_values(self, capsys, cellular_bundle):
        code, out, err = run_cli(capsys, ["coverage", "--kind", "cellular",
                                          "--alpha", "4"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == POINT_HEADER
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "cellular"
        assert row["tau_db"] == "0"
        assert row["r0"] == ""
        assert row["M"] == "1"
        assert row["method"] == "finite-sum"
        exact = coverage(cellular_bundle()).value
        assert row["p_c"] == format(exact, ".12g")
        assert row["ci_halfwidth"] == "0"
        assert row["trials"] == "0"

    def test_csv_value_round_trips(self, capsys, cellular_bundle):
        code, out, _ = run_cli(capsys, ["coverage", "--kind", "cellular",
                                        "--alpha", "4", "--m", "4"])
        assert code == 0
        _, rows = parse_csv(out)
        exact = coverage(cellular_bundle(m=4)).value
        assert float(rows[0]["p_c"]) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("command", [
        ["coverage"],
        ["sweep", "--axis", "antennas", "--start", "1", "--stop", "2"],
        ["validate"],
    ], ids=["coverage", "sweep", "validate"])
    def test_path_option_is_gone(self, capsys, command):
        # one analytic route: the Toeplitz form is a test oracle, not a flag
        with pytest.raises(SystemExit) as exc:
            main(command + ["--kind", "cellular", "--alpha", "4", "--path", "toeplitz"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--path" in captured.err

    @pytest.mark.parametrize("command", [
        ["coverage", "--tau-db", "4000"],
        ["coverage", "--tau-db", "-4000"],
        ["sweep", "--axis", "tau_db", "--start", "0", "--stop", "4000", "--points", "3"],
    ], ids=["overflow", "underflow", "sweep"])
    def test_threshold_past_double_range_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command + ["--kind", "cellular", "--alpha", "4"])
        assert code == 2
        assert out == ""
        assert "tau_db" in err

    def test_monte_carlo_method(self, capsys):
        code, out, _ = run_cli(capsys, ["coverage", "--kind", "adhoc",
                                        "--alpha", "4", "--r0", "1",
                                        "--lambda", "0.05", "--method", "mc",
                                        "--trials", "2000", "--seed", "7"])
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["method"] == "monte-carlo"
        assert row["trials"] == "2000"
        assert row["seed"] == "7"
        assert float(row["ci_halfwidth"]) > 0.0
        assert 0.0 < float(row["p_c"]) < 1.0

    def test_two_trials_are_the_fewest(self, capsys):
        # the interval needs the sample variance of at least two trials
        argv = ["coverage", "--kind", "adhoc", "--alpha", "4", "--r0", "1",
                "--lambda", "0.05", "--method", "mc", "--trials"]
        code, out, _ = run_cli(capsys, argv + ["2"])
        assert code == 0
        _, rows = parse_csv(out)
        assert math.isfinite(float(rows[0]["ci_halfwidth"]))
        code, out, err = run_cli(capsys, argv + ["1"])
        assert code == 2
        assert out == ""
        assert "at least 2" in err

    def test_unaffordable_window_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["coverage", "--kind", "cellular",
                                          "--alpha", "2.5", "--m", "1",
                                          "--tau-db", "0", "--method", "mc",
                                          "--trials", "1000", "--window", "1e5"])
        assert code == 2
        assert out == ""
        assert "window_radius" in err

    def test_mostly_empty_cellular_window_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["coverage", "--kind", "cellular",
                                          "--alpha", "4", "--method", "mc",
                                          "--window", "5"])
        assert code == 2
        assert out == ""
        assert "enlarge window_radius" in err

    def test_far_field_mean_past_an_overflowing_power(self, capsys):
        # at alpha = 40 and -3000 dB the automatic disc is 7.4e-9 r0 wide, so
        # its rho^(2 - alpha) passes the double range; the far-field mean,
        # about 1.4e270 in units of r0, does not, and the threshold is so low
        # that it still covers every trial, as the series says
        argv = ["coverage", "--kind", "adhoc", "--alpha", "40", "--tau-db", "-3000",
                "--r0", "1e-19", "--lambda", "1"]
        code, out, _ = run_cli(capsys, argv + ["--method", "mc", "--trials", "100"])
        assert code == 0
        _, simulated = parse_csv(out)
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, exact = parse_csv(out)
        assert float(simulated[0]["p_c"]) == float(exact[0]["p_c"]) == 1.0

    def test_heavy_tail_runs_on_the_automatic_window(self, capsys):
        # plain truncation at alpha = 3 would need ~7e7 points per trial
        code, out, _ = run_cli(capsys, ["coverage", "--kind", "cellular",
                                        "--alpha", "3", "--m", "4", "--method", "mc",
                                        "--trials", "2000"])
        assert code == 0
        _, rows = parse_csv(out)
        assert 0.0 < float(rows[0]["p_c"]) < 1.0

    def test_missing_alpha_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["coverage", "--kind", "cellular"])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_writes_to_file(self, capsys, tmp_path):
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(capsys, ["coverage", "--kind", "cellular",
                                        "--alpha", "4", "--out", str(target)])
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert header == POINT_HEADER
        assert len(rows) == 1

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["coverage", "--kind", "cellular", "--alpha", "4",
                                          "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "x.csv" in err


class TestConfigFile:
    def test_file_supplies_parameters(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("# demo scenario\nkind = cellular\nalpha = 4\n"
                       "lambda = 0.002\ntau_db = 5\n")
        code, out, _ = run_cli(capsys, ["coverage", "--config", str(cfg)])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["tau_db"] == "5"
        assert rows[0]["lambda"] == "0.002"

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("kind = cellular\nalpha = 4\nm = 1\n")
        code, out, _ = run_cli(capsys, ["coverage", "--config", str(cfg),
                                        "--m", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["M"] == "3"

    def test_threshold_flag_replaces_file_threshold(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("kind = cellular\nalpha = 4\ntau_db = 5\n")
        code, out, _ = run_cli(capsys, ["coverage", "--config", str(cfg),
                                        "--tau", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["tau_db"] == "0"

    def test_unknown_key_is_reported(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("kind = cellular\nalpha = 4\nwavelength = 3\n")
        code, _, err = run_cli(capsys, ["coverage", "--config", str(cfg)])
        assert code == 2
        assert "wavelength" in err

    def test_undecodable_file_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_bytes(b"\xff\xfekind = cellular\n")
        code, out, err = run_cli(capsys, ["coverage", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert str(cfg) in err


class TestSweepCommand:
    def test_antenna_sweep_reports_improvements(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--kind", "cellular",
                                        "--alpha", "4", "--axis", "antennas",
                                        "--start", "1", "--stop", "6"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == POINT_HEADER + ["delta_p"]
        assert len(rows) == 6
        pcs = [float(r["p_c"]) for r in rows]
        deltas = [float(r["delta_p"]) for r in rows]
        assert deltas[0] == pytest.approx(pcs[0], rel=1e-12)
        for i in range(1, 6):
            # the CSV rounds to 12 significant digits, so differences of
            # parsed values carry a couple of ulps more slack
            assert deltas[i] == pytest.approx(pcs[i] - pcs[i - 1], abs=5e-12)
        assert all(b > a for a, b in zip(pcs, pcs[1:]))

    def test_antenna_sweep_deltas_are_the_improvements(self, capsys, cellular_bundle):
        # past M = 70 the improvements sit below the last digit of p_c, so a
        # difference of rounded coverages would read 0 there
        code, out, _ = run_cli(capsys, ["sweep", "--kind", "cellular", "--alpha", "4",
                                        "--tau-db", "0", "--axis", "antennas",
                                        "--start", "1", "--stop", "120"])
        assert code == 0
        _, rows = parse_csv(out)
        gains = improvement_sequence(cellular_bundle(m=120), 120).values
        assert [r["M"] for r in rows] == [str(m) for m in range(1, 121)]
        assert [r["delta_p"] for r in rows] == [format(g, ".12g") for g in gains]
        assert all(float(r["delta_p"]) > 0.0 for r in rows)
        for m in (1, 70, 120):
            assert rows[m - 1]["p_c"] == format(coverage(cellular_bundle(m=m)).value, ".12g")

    @pytest.mark.parametrize("kind, scenario", [
        ("cellular", ["--alpha", "4", "--tau-db", "0"]),
        ("adhoc", ["--alpha", "4", "--r0", "1", "--lambda", "0.05", "--noise", "0.3"]),
    ], ids=["cellular", "adhoc-noise"])
    def test_analytic_antenna_sweep_is_one_series(self, capsys, monkeypatch, request,
                                                  kind, scenario):
        # coverage with M antennas sums the first M improvements, so one
        # series of order stop gives every row's p_c and delta_p
        make = request.getfixturevalue(f"{kind}_bundle")
        noise = 0.3 if kind == "adhoc" else 0.0
        references = [coverage(make(m=m, noise=noise)).value for m in range(1, 513)]
        seq = improvement_sequence(make(m=512, noise=noise), 512)
        kernels = []
        for name in ("series_exp", "series_reciprocal"):
            kernel = getattr(analytic, name)
            monkeypatch.setattr(analytic, name,
                                lambda c, kernel=kernel: kernels.append(c.size) or kernel(c))
        monkeypatch.setattr(analytic, "coverage", lambda *a: pytest.fail("coverage() called"))
        code, out, _ = run_cli(capsys, ["sweep", "--kind", kind, *scenario,
                                        "--axis", "antennas", "--start", "1", "--stop", "512"])
        assert code == 0
        assert kernels == [512]
        _, rows = parse_csv(out)
        assert [r["M"] for r in rows] == [str(m) for m in range(1, 513)]
        for m, (row, exact) in enumerate(zip(rows, references), 1):
            assert abs(seq.coverage_at(m) - exact) <= 4 * m * sys.float_info.epsilon, m
            assert row["p_c"] == format(seq.coverage_at(m), ".12g"), m
            assert row["delta_p"] == format(seq.values[m - 1], ".12g"), m
            assert row["method"] == "finite-sum"

    @pytest.mark.parametrize("start, stop", [("1", "514"), ("1", "1e12"), ("0", "4"),
                                             ("5", "4"), ("1", "inf"), ("nan", "4")])
    def test_antenna_range_is_checked_before_any_work(self, capsys, monkeypatch, start, stop):
        calls = []
        monkeypatch.setattr(analytic, "coverage", lambda *a: calls.append(a))
        monkeypatch.setattr(insights, "improvement_sequence", lambda *a: calls.append(a))
        monkeypatch.setattr(montecarlo, "simulate", lambda *a: calls.append(a))
        for method in ("analytic", "mc"):
            code, out, err = run_cli(capsys, ["sweep", "--kind", "cellular", "--alpha", "4",
                                              "--axis", "antennas", "--start", start,
                                              "--stop", stop, "--method", method])
            assert code == 2
            assert out == ""
            assert "start <= stop <= 512" in err
        assert calls == []

    @pytest.mark.parametrize("start, stop", [("1.5", "3.7"), ("1", "3.5"), ("2.5", "4")])
    def test_fractional_antenna_bounds_are_refused(self, capsys, monkeypatch, start, stop):
        calls = []
        monkeypatch.setattr(analytic, "coverage", lambda *a: calls.append(a))
        monkeypatch.setattr(insights, "improvement_sequence", lambda *a: calls.append(a))
        monkeypatch.setattr(montecarlo, "simulate", lambda *a: calls.append(a))
        for method in ("analytic", "mc"):
            code, out, err = run_cli(capsys, ["sweep", "--kind", "cellular", "--alpha", "4",
                                              "--axis", "antennas", "--start", start,
                                              "--stop", stop, "--method", method])
            assert code == 2
            assert out == ""
            assert "must be integers" in err
        assert calls == []

    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_one_point_is_the_start(self, capsys, cellular_bundle, scale):
        # one point needs no grid, so a log scale takes any start
        code, out, _ = run_cli(capsys, ["sweep", "--kind", "cellular", "--alpha", "4",
                                        "--axis", "tau_db", "--start", "-3", "--stop", "7",
                                        "--scale", scale, "--points", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [row["tau_db"] for row in rows] == ["-3"]
        exact = coverage(cellular_bundle(tau=10.0**-0.3)).value
        assert float(rows[0]["p_c"]) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_points_are_capped_before_any_allocation(self, capsys, monkeypatch, scale):
        # the grid functions are stubbed, so a missing cap cannot allocate
        grids = []

        def grid(start, stop, num):
            grids.append(num)
            return [start]

        monkeypatch.setattr(cli.np, "linspace", grid)
        monkeypatch.setattr(cli.np, "geomspace", grid)
        command = ["sweep", "--kind", "cellular", "--alpha", "4", "--axis", "tau_db",
                   "--start", "1", "--stop", "2", "--scale", scale, "--points"]
        for points in ("1000000000000", "10001", "0"):
            code, out, err = run_cli(capsys, command + [points])
            assert code == 2
            assert out == ""
            assert "points must be between 1 and 10000" in err
        assert grids == []
        code, out, _ = run_cli(capsys, command + ["10000"])
        assert code == 0
        assert grids == [10000]

    @pytest.mark.parametrize("method", ["analytic", "mc"])
    def test_whole_grid_is_checked_before_any_work(self, capsys, monkeypatch, method):
        # the last density of the grid is negative
        calls = []
        monkeypatch.setattr(analytic, "coverage", lambda *a: calls.append(a))
        monkeypatch.setattr(montecarlo, "simulate", lambda *a: calls.append(a))
        code, out, err = run_cli(capsys, ["sweep", "--kind", "adhoc", "--alpha", "4",
                                          "--r0", "1", "--axis", "lambda", "--start", "0.1",
                                          "--stop", "-0.1", "--points", "3",
                                          "--method", method])
        assert code == 2
        assert out == ""
        assert "lambda must be positive" in err
        assert calls == []

    @pytest.mark.parametrize("grid, message", [
        (["--axis", "lambda", "--start", "1", "--stop", "100"], "one realization needs"),
        (["--axis", "r0", "--start", "1", "--stop", "2", "--seed", str(2**64 - 1)], "seed"),
    ], ids=["window", "seed"])
    def test_simulation_plans_are_checked_before_any_trial(self, capsys, monkeypatch,
                                                           grid, message):
        # at lambda = 100 the automatic disc needs 1.1e7 points per trial,
        # and the second row's seed is 2^64; row 1 alone is fine either way
        calls = []
        monkeypatch.setattr(montecarlo, "simulate", lambda *a: calls.append(a))
        code, out, err = run_cli(capsys, ["sweep", "--kind", "adhoc", "--alpha", "2.1",
                                          "--r0", "1", *grid, "--points", "2",
                                          "--method", "mc", "--trials", "100"])
        assert code == 2
        assert out == ""
        assert message in err
        assert calls == []

    def test_threshold_sweep_is_monotone(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--kind", "cellular",
                                        "--alpha", "4", "--axis", "tau_db",
                                        "--start", "-5", "--stop", "10",
                                        "--points", "7"])
        assert code == 0
        _, rows = parse_csv(out)
        pcs = [float(r["p_c"]) for r in rows]
        assert all(b < a for a, b in zip(pcs, pcs[1:]))

    def test_cellular_density_sweep_is_flat_and_says_so(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--kind", "cellular",
                                          "--alpha", "4", "--axis", "lambda",
                                          "--start", "1e-4", "--stop", "1e-2",
                                          "--points", "3", "--scale", "log"])
        assert code == 0
        assert "flat" in err
        _, rows = parse_csv(out)
        assert len({r["p_c"] for r in rows}) == 1

    def test_adhoc_density_sweep_decreases(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--kind", "adhoc",
                                        "--alpha", "4", "--r0", "1",
                                        "--axis", "lambda", "--start", "0.01",
                                        "--stop", "0.5", "--points", "5"])
        assert code == 0
        _, rows = parse_csv(out)
        pcs = [float(r["p_c"]) for r in rows]
        assert all(b < a for a, b in zip(pcs, pcs[1:]))

    def test_log_scale_rejects_nonpositive_start(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--kind", "cellular",
                                        "--alpha", "4", "--axis", "lambda",
                                        "--start", "0", "--stop", "1",
                                        "--scale", "log"])
        assert code == 2
        assert "positive" in err


class TestValidateCommand:
    def test_small_grid_passes(self, capsys):
        code, out, err = run_cli(capsys, ["validate", "--kind", "adhoc",
                                          "--alpha", "4", "--r0", "1",
                                          "--lambda", "0.05",
                                          "--m-list", "1,2",
                                          "--tau-db-list", "0",
                                          "--trials", "4000", "--seed", "3"])
        assert code == 0
        assert "validate: 2 grid points" in err
        header, rows = parse_csv(out)
        assert header[-6:] == ["analytic", "mc", "ci_halfwidth", "z",
                               "trials", "seed"]
        assert len(rows) == 2
        seeds = [r["seed"] for r in rows]
        assert seeds == ["3", "4"]
        for row in rows:
            assert abs(float(row["z"])) <= 4.0
            assert float(row["analytic"]) == pytest.approx(float(row["mc"]),
                                                           abs=0.05)

    def test_biased_window_trips_the_z_limit(self, capsys):
        # a disc barely larger than the link truncates real interference,
        # so the simulation disagrees with the analytic value
        code, out, err = run_cli(capsys, ["validate", "--kind", "adhoc",
                                          "--alpha", "4", "--r0", "1",
                                          "--lambda", "0.05",
                                          "--m-list", "1", "--tau-db-list", "0",
                                          "--trials", "20000", "--seed", "3",
                                          "--window", "3"])
        assert code == 4
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["z"])) > 4.0

    def test_zero_halfwidth_agreeing_with_the_series_reads_z_0(self, capsys):
        # every trial covers at -3000 dB, and the series reads exactly 1
        code, out, _ = run_cli(capsys, ["validate", "--kind", "adhoc", "--alpha", "2.1",
                                        "--tau-db-list", "-3000", "--m-list", "1",
                                        "--r0", "1e-100", "--lambda", "1", "--trials", "100"])
        assert code == 0
        _, rows = parse_csv(out)
        assert (rows[0]["analytic"], rows[0]["mc"], rows[0]["ci_halfwidth"]) == ("1", "1", "0")
        assert rows[0]["z"] == "0"

    def test_zero_halfwidth_off_the_series_reads_z_inf(self, capsys):
        # a disc of radius 0.01 holds no interferer in 100 trials, so every
        # trial covers where the series reads 0.78
        code, out, _ = run_cli(capsys, ["validate", "--kind", "adhoc", "--alpha", "4",
                                        "--r0", "1", "--lambda", "0.05", "--m-list", "1",
                                        "--tau-db-list", "0", "--trials", "100",
                                        "--window", "0.01"])
        assert code == 4
        _, rows = parse_csv(out)
        assert (rows[0]["mc"], rows[0]["ci_halfwidth"], rows[0]["z"]) == ("1", "0", "inf")

    def test_default_window_bias_within_its_budget_reads_z_0(self, capsys):
        # at this density no trial holds an interferer, so every halfwidth is
        # 0, while the far field's mean moves each estimate by about 6e-10,
        # within the 1e-5 budget of the default window
        code, out, _ = run_cli(capsys, ["validate", "--kind", "adhoc", "--alpha", "4",
                                        "--r0", "1", "--lambda", "1e-12", "--noise", "0.1",
                                        "--m-list", "1,2,4", "--tau-db-list", "0,5",
                                        "--trials", "1000"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6
        for row in rows:
            assert 0.0 < abs(float(row["mc"]) - float(row["analytic"])) < 1e-8
            assert (row["ci_halfwidth"], row["z"]) == ("0", "0")

    def test_cellular_noise_has_no_analytic_reference(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--kind", "cellular",
                                        "--alpha", "4", "--noise", "0.1",
                                        "--m-list", "1", "--tau-db-list", "0",
                                        "--trials", "500", "--seed", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["analytic"] == "n/a"
        assert rows[0]["z"] == ""

    def test_order_past_the_maximum_is_refused_before_any_trial(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "simulate", lambda *a: calls.append(a))
        code, out, err = run_cli(capsys, ["validate", "--kind", "cellular", "--alpha", "4",
                                          "--m-list", "600", "--tau-db-list", "0"])
        assert code == 2
        assert out == ""
        assert "exceeds the supported maximum" in err
        assert calls == []

    @pytest.mark.parametrize("run, message", [(["--window", "5"], "enlarge window_radius"),
                                              (["--seed", str(2**64 - 3)], "seed")],
                             ids=["window", "seed"])
    def test_simulation_plans_are_checked_before_any_trial(self, capsys, monkeypatch,
                                                           run, message):
        calls = []
        monkeypatch.setattr(montecarlo, "simulate", lambda *a: calls.append(a))
        code, out, err = run_cli(capsys, ["validate", "--kind", "cellular", "--alpha", "4",
                                          "--m-list", "1,2", "--tau-db-list", "0,5", *run])
        assert code == 2
        assert out == ""
        assert message in err
        assert calls == []

    @pytest.mark.parametrize("grid", [["--m-list", "1,2,600", "--tau-db-list", "0"],
                                      ["--m-list", "1", "--tau-db-list", "0,4000"]],
                             ids=["order", "threshold"])
    def test_bad_grid_point_is_refused_before_any_trial(self, capsys, monkeypatch, grid):
        # every bundle and every analytic reference is built first
        calls = []
        monkeypatch.setattr(montecarlo, "simulate", lambda *a: calls.append(a))
        code, out, err = run_cli(capsys, ["validate", "--kind", "cellular", "--alpha", "4",
                                          *grid])
        assert code == 2
        assert out == ""
        assert "exceeds the supported maximum" in err or "tau_db" in err
        assert calls == []

    @pytest.mark.parametrize("lists", [["--m-list", "", "--tau-db-list", "0"],
                                       ["--m-list", "1", "--tau-db-list", ","]])
    def test_empty_list_is_usage_error(self, capsys, lists):
        code, out, err = run_cli(capsys, ["validate", "--kind", "cellular", "--alpha", "4",
                                          *lists])
        assert code == 2
        assert out == ""
        assert "at least one antenna count and one threshold" in err

    def test_bad_list_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["validate", "--kind", "cellular",
                                        "--alpha", "4", "--m-list", "1,x"])
        assert code == 2
        assert "antenna" in err


class TestInsightsCommand:
    def test_decay_rate_and_ratios(self, capsys):
        code, out, _ = run_cli(capsys, ["insights", "--kind", "cellular",
                                        "--alpha", "4", "--rc",
                                        "--ratios", "12"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["quantity", "value"]
        table = {r["quantity"]: r["value"] for r in rows}
        assert float(table["decay_rate"]) == pytest.approx(1.6948165380538,
                                                           rel=1e-11)
        ratio_rows = [r for r in rows if r["quantity"].startswith("improvement_ratio_")]
        assert len(ratio_rows) == 11
        assert all(float(r["value"]) > 1.0 for r in ratio_rows)

    def test_truncated_ratios_are_noted(self, capsys):
        code, out, err = run_cli(capsys, ["insights", "--kind", "cellular",
                                          "--alpha", "4", "--tau", "1e-8",
                                          "--ratios", "60"])
        assert code == 0
        assert "truncated" in err
        _, rows = parse_csv(out)
        assert len(rows) < 59

    def test_adhoc_structural_quantities(self, capsys):
        code, out, _ = run_cli(capsys, ["insights", "--kind", "adhoc",
                                        "--alpha", "4", "--r0", "1",
                                        "--lambda", "0.3", "--m", "3",
                                        "--peak-bound", "--density-profile",
                                        "--derivative", "--at-lambda", "0.3"])
        assert code == 0
        _, rows = parse_csv(out)
        table = {r["quantity"]: r["value"] for r in rows}
        mu = math.pi**2 * 0.3 / 2.0
        assert float(table["peak_mu"]) == pytest.approx(mu, rel=1e-11)
        assert int(table["peak_index_bound"]) >= 1
        assert table["peak_monotone"] == "1"
        assert table["density_beta_0"] == "1"
        assert "density_beta_2" in table
        assert float(table["density_head"]) < 0.0
        assert float(table["dcoverage_dlambda"]) < 0.0

    def test_overflowing_density_profile_is_numerical_error(self, capsys):
        code, out, err = run_cli(capsys, ["insights", "--kind", "adhoc",
                                          "--alpha", "4", "--r0", "30",
                                          "--lambda", "1e-5", "--m", "512",
                                          "--tau-db", "0", "--derivative"])
        assert code == 3
        assert out == ""
        assert "numerical error" in err

    def test_density_profile_past_supported_order_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["insights", "--kind", "adhoc",
                                          "--alpha", "4", "--r0", "1",
                                          "--lambda", "0.05", "--m", "100000",
                                          "--density-profile"])
        assert code == 2
        assert out == ""
        assert "exceeds the supported maximum" in err

    def test_non_finite_derivative_is_numerical_error(self, capsys):
        code, out, err = run_cli(capsys, ["insights", "--kind", "adhoc",
                                          "--alpha", "4", "--r0", "1",
                                          "--lambda", "0.05", "--m", "512",
                                          "--derivative", "--at-lambda", "1000"])
        assert code == 3
        assert out == ""
        assert "not finite" in err

    def test_cellular_noise_is_refused(self, capsys):
        code, out, err = run_cli(capsys, ["insights", "--kind", "cellular",
                                          "--alpha", "4", "--noise", "0.5",
                                          "--rc", "--ratios", "4"])
        assert code == 2
        assert out == ""
        assert "noise" in err

    def test_needs_at_least_one_flag(self, capsys):
        code, _, err = run_cli(capsys, ["insights", "--kind", "cellular",
                                        "--alpha", "4"])
        assert code == 2
        assert "pick at least one" in err

    def test_kind_mismatch_is_reported(self, capsys):
        code, _, err = run_cli(capsys, ["insights", "--kind", "adhoc",
                                        "--alpha", "4", "--r0", "1", "--rc"])
        assert code == 2
        assert "cellular" in err
        code, _, err = run_cli(capsys, ["insights", "--kind", "cellular",
                                        "--alpha", "4", "--peak-bound"])
        assert code == 2
        assert "ad hoc" in err


_ADHOC_FAR = ["--kind", "adhoc", "--alpha", "4"]


class TestEdgeInputs:
    # each returns an exit code rather than a traceback, and a refusal
    # leaves stdout empty
    @pytest.mark.parametrize("argv, expected", [
        (["coverage", *_ADHOC_FAR, "--r0", "1e100", "--lambda", "1e-200"], 0),
        (["coverage", *_ADHOC_FAR, "--r0", "1e300", "--lambda", "1e-300"], 0),
        (["coverage", *_ADHOC_FAR, "--r0", "1e300", "--lambda", "1"], 3),
        (["coverage", *_ADHOC_FAR, "--r0", "1e100", "--lambda", "1e-200", "--noise", "1"], 3),
        (["coverage", *_ADHOC_FAR, "--r0", "1e100", "--lambda", "1e-200", "--noise", "1",
          "--method", "mc", "--trials", "1000"], 3),
        (["insights", *_ADHOC_FAR, "--r0", "1", "--lambda", "1e160", "--peak-bound"], 3),
        (["sweep", "--kind", "cellular", "--alpha", "4", "--axis", "antennas",
          "--start", "1.5", "--stop", "3.7"], 2),
        (["validate", "--kind", "cellular", "--alpha", "4", "--m-list", "1,2,600",
          "--tau-db-list", "0"], 2),
        (["coverage", "--kind", "cellular", "--alpha", "4", "--lambda", "1e-20",
          "--method", "mc", "--trials", "1000"], 0),
        (["coverage", "--kind", "cellular", "--alpha", "4", "--lambda", "1e30",
          "--method", "mc", "--trials", "1000"], 0),
        (["coverage", *_ADHOC_FAR, "--r0", "1e10", "--lambda", "5e-22",
          "--method", "mc", "--trials", "1000"], 0),
        # the far-field mean past the double range, in units of r0
        (["coverage", *_ADHOC_FAR, "--tau-db", "-3000", "--r0", "1e100", "--lambda", "1",
          "--method", "mc", "--trials", "100"], 3),
        # the bias radius underflows, and the disc is floored at the least normal double
        (["coverage", "--kind", "adhoc", "--alpha", "2.1", "--tau-db", "-3000", "--r0", "1e-100",
          "--lambda", "1", "--method", "mc", "--trials", "100"], 0),
        # theta / (tau beta) overflows, and with it the decay rate
        (["insights", "--kind", "cellular", "--alpha", "4", "--tau-db", "-3000",
          "--beta", "1e-10", "--rc"], 3),
    ], ids=["adhoc-far", "adhoc-farther", "mu-overflow", "noise-overflow", "mc-noise-overflow",
            "peak-bound-overflow", "fractional-antennas", "validate-order", "mc-sparse-cellular",
            "mc-dense-cellular", "mc-far-adhoc", "mc-far-mean-overflow", "mc-radius-underflow",
            "decay-rate-overflow"])
    def test_exit_code_without_traceback(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, argv)
        assert code == expected
        if code:
            assert out == ""
            assert len(err.splitlines()) == 1
        else:
            _, rows = parse_csv(out)
            assert 0.0 <= float(rows[0]["p_c"]) <= 1.0

    @pytest.mark.parametrize("method", [["analytic"], ["mc", "--trials", "100"]],
                             ids=["analytic", "mc"])
    def test_interference_that_underflows_gives_full_coverage(self, capsys, method):
        # mu underflows to 0 with no noise: the ad hoc column is all zeros,
        # exp(0) = 1, and the series reads what the simulator reads
        argv = ["coverage", "--kind", "adhoc", "--alpha", "2.1", "--tau-db", "-3000",
                "--r0", "1e-100", "--lambda", "1", "--method", *method]
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        _, rows = parse_csv(out)
        assert float(rows[0]["p_c"]) == 1.0


class TestStdoutPurity:
    def test_only_csv_reaches_stdout(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--kind", "cellular",
                                          "--alpha", "4", "--axis", "lambda",
                                          "--start", "1e-4", "--stop", "1e-3",
                                          "--points", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("kind,")
        assert len(lines) == 3
        assert "note:" in err
        assert "note:" not in out


def _child_env(**extra):
    """The environment of a child interpreter that imports the package under test."""
    src = os.path.dirname(os.path.dirname(mimocov.__file__))
    return dict(os.environ, PYTHONPATH=src, **extra)


def _python(*args):
    """Run the interpreter on the package under test; return (stdout, stderr)."""
    done = subprocess.run([sys.executable, *args], env=_child_env(), check=True,
                          capture_output=True, text=True)
    return done.stdout, done.stderr


class TestProgramEntry:
    """``run`` freezes the heap once the output is written, so that the
    interpreter's exit-time collection skips it; ``main`` never does."""

    @pytest.mark.parametrize("argv", [
        ["coverage", "--kind", "cellular", "--alpha", "4"],
        ["coverage", "--kind", "cellular"],
    ], ids=["success", "usage-error"])
    def test_main_leaves_the_heap_unfrozen(self, capsys, argv):
        before = gc.get_freeze_count()
        run_cli(capsys, argv)
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, expected, stream, start", [
        (["coverage", "--kind", "cellular", "--alpha", "4"], 0, "out", "kind,"),
        (["coverage", "--kind", "cellular"], 2, "err", "error: "),
        (["coverage", *_ADHOC_FAR, "--r0", "1e300", "--lambda", "1"], 3, "err",
         "numerical error: "),
        (["validate", *_ADHOC_FAR, "--r0", "1", "--lambda", "0.05", "--m-list", "1",
          "--tau-db-list", "0", "--trials", "100", "--window", "0.01"], 4, "out", "kind,"),
    ], ids=["success", "usage", "numerical", "disagreement"])
    def test_returns_main_code_and_freezes_after_the_output(self, capsys, monkeypatch,
                                                            argv, expected, stream, start):
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(capsys.readouterr()))
        monkeypatch.setattr(sys, "argv", ["mimocov", *argv])
        assert cli.run() == expected
        assert len(frozen) == 1
        assert getattr(frozen[0], stream).startswith(start)

    def test_freezes_on_an_argument_error_too(self, capsys, monkeypatch):
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(capsys.readouterr()))
        monkeypatch.setattr(sys, "argv", ["mimocov", "sweep", "--kind", "cellular"])
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == 2
        assert len(frozen) == 1
        assert "the following arguments are required" in frozen[0].err


class TestUnwritableStdout:
    """A stdout that cannot take the CSV is exit 2 with one error line, as
    an unwritable ``--out`` is, and nothing fails again at exit."""

    ARGV = [sys.executable, "-m", "mimocov", "coverage", "--kind", "cellular",
            "--alpha", "4", "--m", "2"]

    @staticmethod
    def _assert_refused(done):
        assert done.returncode == 2, done.stderr
        assert "Exception ignored" not in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: cannot write to stdout")
        assert len(done.stderr.splitlines()) == 1

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_that_closed_the_pipe(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(self.ARGV, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=_child_env(PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write_end)
        self._assert_refused(done)

    def test_closed_descriptor(self):
        done = subprocess.run(["sh", "-c", f"exec {shlex.join(self.ARGV)} >&-"],
                              stderr=subprocess.PIPE, text=True, env=_child_env())
        self._assert_refused(done)


class TestColdStart:
    def test_import_leaves_quadrature_and_linear_algebra_unloaded(self):
        # only general laws need quadrature, on first use; the library never
        # imports scipy.linalg, nor exact rational arithmetic
        out, _ = _python("-c", "import sys, mimocov; "
                         "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg', 'fractions') "
                         "if m in sys.modules))")
        assert out.strip() == "[]"

    def test_adhoc_work_and_simulation_leave_special_functions_unloaded(self):
        # only general interferer laws (and Gamma shapes beyond about 1.5e6)
        # need scipy.special, on first use; nor do kappa = 2 interferer gains;
        # a Gamma law's far-field moments are closed forms, not quadratures
        out, _ = _python("-c", "import sys, mimocov as mc; "
                         "b = mc.validate(mc.NetworkScenario(kind=mc.ADHOC, lam=0.05, "
                         "alpha=4.0, threshold=1.0, r0=1.0), mc.SignalGainSpec(shape=4), "
                         "mc.InterfererGainSpec(kappa=1.0, beta=1.0)); "
                         "mc.coverage(b); mc.density_profile(b).coverage_at(0.1); "
                         "mc.simulate(b, mc.SimConfig(trials=200, seed=1)); "
                         "k = mc.validate(b.scenario, b.signal, mc.InterfererGainSpec(kappa=2.0, beta=1.0)); "
                         "mc.simulate(k, mc.SimConfig(trials=200, seed=1)); "
                         "print('scipy.special' in sys.modules, 'scipy.integrate' in sys.modules)")
        assert out.split() == ["False", "False"]

    def test_gamma_cellular_work_leaves_special_functions_unloaded(self):
        # the Gamma-law entries are a NumPy recurrence, also for shapes of
        # 1e4 and 1e5 just past the crossover of its two series (beta = 1/kappa);
        # a general law still integrates incomplete gamma functions from scipy.special
        large = []
        for kappa in (1e4, 1e5):
            for m in (2, 16):
                w = (m - 0.5) / (m - 1.5 + kappa + 2.5)  # the crossover at alpha = 4
                large.append((kappa, m, 1.001 * kappa * w / (1.0 - w)))
        out, _ = _python("-c", "import sys, math, mimocov as mc; "
                         "sc = mc.NetworkScenario(kind=mc.CELLULAR, lam=1e-3, alpha=4.0, threshold=3.0); "
                         "b = mc.validate(sc, mc.SignalGainSpec(shape=64), "
                         "mc.InterfererGainSpec(kappa=1.5, beta=1.0)); "
                         "mc.coverage(b); mc.improvement_sequence(b, 64); mc.cellular_decay_rate(b); "
                         "[mc.coverage(mc.validate(mc.NetworkScenario(kind=mc.CELLULAR, lam=1e-3, "
                         "alpha=4.0, threshold=t), mc.SignalGainSpec(shape=m), "
                         f"mc.InterfererGainSpec(kappa=k, beta=1.0 / k))) for k, m, t in {large!r}]; "
                         "print('scipy.special' in sys.modules); "
                         "g = mc.validate(sc, mc.SignalGainSpec(shape=4), "
                         "mc.InterfererGainSpec(pdf=lambda x: math.exp(-x))); "
                         "mc.cellular_entries(g, 4); "
                         "print('scipy.special' in sys.modules)")
        assert out.split() == ["False", "True"]

    @pytest.mark.parametrize("command", [
        ["coverage", "--m", "16", "--tau-db", "7"],
        ["sweep", "--m", "4", "--axis", "tau_db", "--start", "-10", "--stop", "20", "--points", "7"],
        ["insights", "--kappa", "2", "--rc", "--ratios", "24"],
        ["insights", "--kappa", "0.6", "--rc"],
    ], ids=["coverage", "sweep", "insights", "insights-connection"])
    def test_cellular_commands_leave_special_functions_unloaded(self, command):
        out, err = _python("-X", "importtime", "-m", "mimocov", *command,
                           "--kind", "cellular", "--alpha", "4")
        assert len(out.splitlines()) >= 2  # a CSV header and its rows
        imported = _imported(err)
        assert "mimocov.analytic" in imported
        assert not [m for m in imported if m.startswith("scipy.special")]

    ANALYTIC = {"analytic", "series", "specfun"}
    CORE = {"cli", "errors", "model"}

    @pytest.mark.parametrize("command, loaded", [
        (["coverage", "--kind", "cellular", "--alpha", "4", "--m", "4"], CORE | ANALYTIC),
        (["sweep", "--kind", "cellular", "--alpha", "4", "--m", "4", "--axis", "tau_db",
          "--start", "-10", "--stop", "20", "--points", "7"], CORE | ANALYTIC),
        (["insights", "--kind", "cellular", "--alpha", "4", "--kappa", "2", "--rc"],
         CORE | ANALYTIC | {"insights"}),
        (["coverage", "--kind", "adhoc", "--alpha", "4", "--r0", "1", "--lambda", "0.05",
          "--m", "2", "--method", "mc", "--trials", "2000"], CORE | {"montecarlo"}),
        (["validate", "--kind", "adhoc", "--alpha", "4", "--r0", "1", "--lambda", "0.05",
          "--m-list", "2", "--tau-db-list", "0", "--trials", "2000"],
         CORE | ANALYTIC | {"montecarlo"}),
    ], ids=["coverage", "sweep", "insights-rc", "coverage-mc", "validate"])
    def test_commands_import_only_what_they_run(self, command, loaded):
        # each command imports the library modules it calls, when it calls them
        out, err = _python("-X", "importtime", "-m", "mimocov", *command)
        assert len(out.splitlines()) >= 2
        library = {m.split(".", 1)[1] for m in _imported(err) if m.startswith("mimocov.")}
        assert library == loaded


def _imported(importtime_err):
    """Modules named in the ``-X importtime`` report on stderr."""
    return [line.rsplit("|", 1)[-1].strip() for line in importtime_err.splitlines()
            if line.startswith("import time:")]


class TestLazyPackage:
    """``import mimocov`` runs ``errors`` and ``model``; the public names of
    the evaluator modules load their module on first use."""

    def test_import_loads_only_errors_and_model(self):
        out, _ = _python("-c", "import sys, mimocov; "
                         "print(sorted(m for m in sys.modules if m.startswith('mimocov')))")
        assert out.strip() == "['mimocov', 'mimocov.errors', 'mimocov.model']"

    def test_every_public_name_is_its_module_object(self):
        assert set(mimocov._LAZY) <= set(mimocov.__all__)
        for name in mimocov.__all__:
            home = mimocov._LAZY.get(name) or ("errors" if hasattr(errors, name) else "model")
            assert getattr(mimocov, name) is getattr(importlib.import_module(f"mimocov.{home}"), name)

    def test_dir_lists_every_public_name_before_first_use(self):
        out, _ = _python("-c", "import mimocov; "
                         "print(sorted(set(mimocov.__all__) - set(dir(mimocov))))")
        assert out.strip() == "[]"

    def test_star_import_binds_every_public_name(self):
        out, _ = _python("-c", "from mimocov import *; import mimocov; "
                         "print([n for n in mimocov.__all__ if globals().get(n) is not "
                         "getattr(mimocov, n)])")
        assert out.strip() == "[]"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mimocov.no_such_name
        assert not hasattr(mimocov, "no_such_name")
