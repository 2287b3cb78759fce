import csv
import io
import math
import os
import subprocess
import sys

import pytest

import mimocov
from mimocov import coverage
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

    def test_matrix_path_agrees(self, capsys):
        _, out_a, _ = run_cli(capsys, ["coverage", "--kind", "cellular",
                                       "--alpha", "4", "--m", "6"])
        _, out_b, _ = run_cli(capsys, ["coverage", "--kind", "cellular",
                                       "--alpha", "4", "--m", "6",
                                       "--path", "toeplitz"])
        _, rows_a = parse_csv(out_a)
        _, rows_b = parse_csv(out_b)
        assert rows_b[0]["method"] == "toeplitz"
        assert float(rows_a[0]["p_c"]) == pytest.approx(float(rows_b[0]["p_c"]),
                                                        rel=1e-12)

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

    def test_unaffordable_window_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["coverage", "--kind", "cellular",
                                          "--alpha", "2.5", "--m", "1",
                                          "--tau-db", "0", "--method", "mc",
                                          "--trials", "1000"])
        assert code == 2
        assert out == ""
        assert "window_radius" in err

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

    def test_cellular_noise_has_no_analytic_reference(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--kind", "cellular",
                                        "--alpha", "4", "--noise", "0.1",
                                        "--m-list", "1", "--tau-db-list", "0",
                                        "--trials", "500", "--seed", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["analytic"] == "n/a"
        assert rows[0]["z"] == ""

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


class TestColdStart:
    def test_import_leaves_quadrature_and_linear_algebra_unloaded(self):
        # only general laws and the Toeplitz route need them, on first use
        src = os.path.dirname(os.path.dirname(mimocov.__file__))
        code = ("import sys, mimocov; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_adhoc_work_and_simulation_leave_special_functions_unloaded(self):
        # only the cellular entries need scipy.special, on first use
        src = os.path.dirname(os.path.dirname(mimocov.__file__))
        code = ("import sys, mimocov as mc; "
                "b = mc.validate(mc.NetworkScenario(kind=mc.ADHOC, lam=0.05, "
                "alpha=4.0, threshold=1.0, r0=1.0), mc.SignalGainSpec(shape=4), "
                "mc.InterfererGainSpec(kappa=1.0, beta=1.0)); "
                "mc.coverage(b); mc.density_profile(b).coverage_at(0.1); "
                "mc.simulate(b, mc.SimConfig(trials=200, seed=1, batches=2)); "
                "print('scipy.special' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"
