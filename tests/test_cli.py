"""Command-line interface: outputs, determinism, exit codes, config handling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasemag
from phasemag.cli import SIGNAL_HEADER, main


def run_cli(*args):
    return main(list(args))


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def data_rows(path):
    lines = [l for l in read_lines(path) if not l.startswith("#")]
    assert lines[0] == SIGNAL_HEADER
    return [l.split(",") for l in lines[1:]]


class TestSignalCommand:
    def test_ramsey_curve_period(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli("signal", "--protocol", "ramsey", "--t-us", "1.0",
                       "--b-stop-mt", "0.0714285714", "--b-points", "5",
                       "--out", str(out))
        assert code == 0
        rows = data_rows(out)
        # 2 full fringes of 35.714 uT: endpoints and midpoint return to P = 1
        ps = [float(r[1]) for r in rows]
        assert ps[0] == pytest.approx(1.0)
        assert ps[2] == pytest.approx(1.0, abs=1e-9)
        assert ps[4] == pytest.approx(1.0, abs=1e-9)

    def test_berry_last_minimum_position(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run_cli("signal", "--protocol", "berry", "--omega-mhz", "5",
                       "--n", "3", "--t-us", "8", "--b-stop-mt", "0.6",
                       "--b-points", "601", "--out", str(out))
        assert code == 0
        rows = data_rows(out)
        b = np.array([float(r[0]) for r in rows])
        p = np.array([float(r[1]) for r in rows])
        minima = [i for i in range(1, len(p) - 1)
                  if p[i] < p[i - 1] and p[i] < p[i + 1] and p[i] < -0.9]
        assert b[minima[-1]] == pytest.approx(0.40958, abs=0.002)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("signal", "--protocol", "berry", "--omega-mhz", "5", "--n", "2",
                "--t-us", "6", "--b-stop-mt", "0.3", "--b-points", "41")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes().replace(str(a).encode(), b"") \
            == b.read_bytes().replace(str(b).encode(), b"")

    def test_header_embeds_config(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli("signal", "--protocol", "ramsey", "--t-us", "0.5",
                "--b-stop-mt", "0.05", "--b-points", "3", "--out", str(out))
        lines = read_lines(out)
        assert lines[0].startswith("# phasemag ")
        assert "# protocol = ramsey" in lines
        assert "# t_us = 0.5" in lines

    def test_empty_grid_is_config_error(self, tmp_path):
        code = run_cli("signal", "--protocol", "ramsey", "--t-us", "1",
                       "--b-stop-mt", "0.1", "--b-points", "0",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_hahn_analytic_rejected(self, tmp_path):
        code = run_cli("signal", "--protocol", "hahn", "--t-us", "1",
                       "--b-stop-mt", "0.1", "--b-points", "5",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_noise_engine_attenuates_contrast(self, tmp_path, calibrated_noise):
        out = tmp_path / "noisy.csv"
        code = run_cli("signal", "--protocol", "ramsey", "--engine",
                       "numeric+noise", "--t-us", "50",
                       "--delta-rad-s", repr(calibrated_noise.delta),
                       "--tau-c-us", repr(calibrated_noise.tau_c * 1e6),
                       "--ensemble", "60", "--seed", "5",
                       "--b-stop-mt", "0.001", "--b-points", "3",
                       "--out", str(out))
        assert code == 0
        p0 = float(data_rows(out)[0][1])
        # one free-precession coherence time in: contrast near exp(-1)
        assert 0.15 < p0 < 0.65

    # rows written before `signal` and `sweep` shared one curve function
    PINNED_NOISE_ROWS = {
        "ramsey": ["0,0.990999918", "0.005,-0.918528451", "0.01,0.717052393",
                   "0.015,-0.414868457", "0.02,0.0544174791"],
        "hahn": ["0,0.999833111", "0.005,0.999833111", "0.01,0.999833111",
                 "0.015,0.999833111", "0.02,0.999833111"],
    }

    @pytest.mark.parametrize("protocol", ["ramsey", "hahn"])
    def test_noise_engine_rows_pinned(self, tmp_path, protocol):
        out = tmp_path / "pinned.csv"
        code = run_cli("signal", "--protocol", protocol, "--engine",
                       "numeric+noise", "--t-us", "4", "--b-stop-mt", "0.02",
                       "--b-points", "5", "--delta-rad-s", "31415.9",
                       "--tau-c-us", "20", "--ensemble", "3", "--seed", "5",
                       "--out", str(out))
        assert code == 0
        assert [",".join(r) for r in data_rows(out)] == [
            f"{row},numeric+noise,{protocol},,,4"
            for row in self.PINNED_NOISE_ROWS[protocol]]

    @pytest.mark.parametrize("option, value", [
        ("--ensemble", "0"), ("--ensemble", "-3"), ("--workers", "0")])
    def test_bad_counts_are_config_errors(self, tmp_path, option, value):
        out = tmp_path / "x.csv"
        code = run_cli("signal", "--protocol", "ramsey", "--engine",
                       "numeric+noise", "--t-us", "4", "--b-stop-mt", "0.02",
                       "--b-points", "3", "--delta-rad-s", "31415.9",
                       "--tau-c-us", "20", option, value, "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_hyperfine_beating_columns(self, tmp_path):
        out = tmp_path / "h.csv"
        code = run_cli("signal", "--protocol", "ramsey", "--t-us", "0.1543",
                       "--b-stop-mt", "0.001", "--b-points", "2",
                       "--hyperfine", "true", "--out", str(out))
        assert code == 0
        rows = data_rows(out)
        # near the first envelope null the averaged signal is suppressed
        assert abs(float(rows[0][1])) < 0.02


class TestConfigFile:
    def test_config_and_override_precedence(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "protocol = ramsey\n"
            "t_us = 1.0      # interaction time\n"
            "b_stop_mt = 0.1\n"
            "b_points = 3\n",
            encoding="utf-8")
        out = tmp_path / "out.csv"
        code = run_cli("signal", "--config", str(cfgfile), "--t-us", "2.0",
                       "--out", str(out))
        assert code == 0
        assert "# t_us = 2" in read_lines(out)

    def test_unknown_key_rejected_with_diagnostics(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("protocol = ramsey\nbogus_key = 1\n", encoding="utf-8")
        code = run_cli("signal", "--config", str(cfgfile), "--t-us", "1",
                       "--b-stop-mt", "0.1", "--b-points", "3",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("protocol ramsey\n", encoding="utf-8")
        code = run_cli("signal", "--config", str(cfgfile), "--t-us", "1",
                       "--b-stop-mt", "0.1", "--b-points", "3",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert ":1:" in capsys.readouterr().err


class TestSweepCommand:
    def test_ramsey_sweep_with_fit_report(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        code = run_cli("sweep", "--protocol", "ramsey",
                       "--t-us-list", "0.2,0.4,0.8,1.2,1.6,2.0",
                       "--b-stop-mt", "0.18", "--b-points", "51",
                       "--out", str(out))
        assert code == 0
        records = [json.loads(l) for l in read_lines(out) if not l.startswith("#")]
        points = [r for r in records if r["record"] == "point"]
        fits = [r for r in records if r["record"] == "power_law_fit"]
        assert len(points) == 6
        eta_fit = next(f for f in fits if f["response"] == "eta")
        assert float(eta_fit["exponents"]["duration"]) == pytest.approx(-0.5, abs=0.05)

    def test_berry_sweep_fits_all_controls(self, tmp_path):
        out = tmp_path / "berry.jsonl"
        code = run_cli("sweep", "--protocol", "berry",
                       "--omega-mhz-list", "2,4,8",
                       "--n-list", "3,4,6",
                       "--t-us-list", "4,8,16",
                       "--b-stop-mt", "1.2", "--b-points", "41",
                       "--out", str(out))
        assert code == 0
        records = [json.loads(l) for l in read_lines(out) if not l.startswith("#")]
        points = [r for r in records if r["record"] == "point"]
        fits = [r for r in records if r["record"] == "power_law_fit"]
        assert len(points) == 27
        eta_fit = next(f for f in fits if f["response"] == "eta")
        assert set(eta_fit["exponents"]) == {"omega", "n_rotations", "duration"}
        assert float(eta_fit["exponents"]["duration"]) == pytest.approx(0.5, abs=0.05)

    def test_partial_failure_exit_code(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        code = run_cli("sweep", "--protocol", "hahn", "--engine", "numeric",
                       "--t-us-list", "1.0,2.0", "--b-stop-mt", "0.05",
                       "--b-points", "11", "--out", str(out))
        assert code == 4
        records = [json.loads(l) for l in read_lines(out) if not l.startswith("#")]
        assert all(r["status"] == "error" for r in records
                   if r["record"] == "point")

    def test_single_point(self, tmp_path):
        out = tmp_path / "one.jsonl"
        code = run_cli("sweep", "--protocol", "ramsey", "--t-us-list", "1.0",
                       "--b-stop-mt", "0.05", "--b-points", "21",
                       "--out", str(out))
        assert code == 0
        points = [json.loads(l) for l in read_lines(out)
                  if not l.startswith("#")]
        assert len(points) == 1

    def test_invalid_engine_for_protocol(self, tmp_path):
        code = run_cli("sweep", "--protocol", "hahn", "--engine", "analytic",
                       "--t-us-list", "1.0", "--b-stop-mt", "0.05",
                       "--b-points", "11", "--out", str(tmp_path / "x.jsonl"))
        assert code == 2

    @pytest.mark.parametrize("option, value", [
        ("--workers", "0"), ("--workers", "-1"), ("--ensemble", "0")])
    def test_bad_counts_are_config_errors(self, tmp_path, option, value):
        out = tmp_path / "x.jsonl"
        code = run_cli("sweep", "--protocol", "ramsey", "--t-us-list", "1.0",
                       "--b-stop-mt", "0.05", "--b-points", "11",
                       option, value, "--out", str(out))
        assert code == 2
        assert not out.exists()


class TestEstimateCommand:
    def test_geometric_round_trip(self, tmp_path, capsys):
        from phasemag.analytic import GeometricModel, berry_field_range
        from phasemag.constants import angular_from_mhz
        from phasemag.estimate import measure_geometric

        model = GeometricModel(angular_from_mhz(5.0), 3)
        b_true = 0.37 * berry_field_range(model)
        meas = measure_geometric(model, b_true)
        code = run_cli("estimate", "--protocol", "berry", "--omega-mhz", "5",
                       "--n", "3", "--p", repr(meas.p),
                       "--slope-per-mt", repr(meas.slope / 1e3),
                       "--out", str(tmp_path / "est.txt"))
        assert code == 0
        text = (tmp_path / "est.txt").read_text(encoding="utf-8")
        b_hat = float(next(l for l in text.splitlines()
                           if l.startswith("B_hat_mT")).split("=")[1])
        assert b_hat == pytest.approx(b_true * 1e3, rel=1e-6)

    def test_extremum_exits_unresolvable_with_candidates(self, tmp_path, capsys):
        code = run_cli("estimate", "--protocol", "berry", "--omega-mhz", "5",
                       "--n", "3", "--p", "1.0", "--slope-per-mt", "0.0",
                       "--out", str(tmp_path / "est.txt"))
        assert code == 5
        text = (tmp_path / "est.txt").read_text(encoding="utf-8")
        assert "candidates_mT" in text
        assert "unresolvable" in text

    def test_dynamic_ladder_printed(self, tmp_path):
        code = run_cli("estimate", "--protocol", "ramsey", "--t-us", "1.0",
                       "--p", "0.5", "--window-stop-mt", "0.178571429",
                       "--out", str(tmp_path / "est.txt"))
        assert code == 0
        text = (tmp_path / "est.txt").read_text(encoding="utf-8")
        lines = [l for l in text.splitlines() if l.startswith("candidate_mT")]
        assert len(lines) == 10  # five fringes, two branches each


class TestDecohereCommand:
    def test_writes_three_files(self, tmp_path, calibrated_noise):
        out = tmp_path / "deco"
        code = run_cli("decohere",
                       "--delta-rad-s", repr(calibrated_noise.delta),
                       "--tau-c-us", repr(calibrated_noise.tau_c * 1e6),
                       "--a-list", "0.1,1.0", "--overlay-a", "0",
                       "--overlay-t-us", "25", "--out", str(out))
        assert code == 0
        coh = read_lines(tmp_path / "deco_coherence.csv")
        reg = read_lines(tmp_path / "deco_regimes.csv")
        ov = read_lines(tmp_path / "deco_overlay.csv")
        assert any(l.startswith("A,T_us,W") for l in coh)
        assert any(l.startswith("A,T2g_us") for l in reg)
        # zero-adiabaticity overlay: geometric weight column identically zero
        data = [l.split(",") for l in ov if not l.startswith(("#", "omega"))]
        assert all(float(r[2]) == 0.0 for r in data)
        regimes = [l.split(",") for l in reg if not l.startswith(("#", "A,"))]
        assert regimes[0][3] == "intermediate"
        assert regimes[1][3] == "nonadiabatic"

    def test_requires_output_path(self, calibrated_noise):
        code = run_cli("decohere", "--delta-rad-s", "3e4", "--tau-c-us", "8000",
                       "--a-list", "0.5")
        assert code == 2

    def test_empty_ensemble_is_config_error(self, tmp_path, capsys):
        # rejected before any curve is computed or file written
        code = run_cli("decohere", "--engine", "monte-carlo", "--ensemble", "0",
                       "--delta-rad-s", "31415.9", "--tau-c-us", "20",
                       "--a-list", "0.1,0.5", "--out", str(tmp_path / "deco"))
        assert code == 2
        assert "ensemble must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBadNumbers:
    """Absurd but parseable numbers end in exit 2 or 3 and write no file."""

    DECOHERE_STATIC = ("decohere", "--t2star-us", "50", "--t2-us", "500")
    DECOHERE_OU = ("decohere", "--delta-rad-s", "31415.9")

    @pytest.mark.parametrize("args, want", [
        (("calibrate", "--t2star-us", "1e-300", "--t2-us", "1e300"), 3),
        (DECOHERE_STATIC + ("--a-list", "1e300"), 3),
        (DECOHERE_STATIC + ("--a-list", "0.1", "--overlay-t-us", "inf"), 2),
        (DECOHERE_OU + ("--tau-c-us", "inf", "--a-list", "0.1"), 3),
        (DECOHERE_OU + ("--tau-c-us", "20", "--a-list", "0.1",
                        "--overlay-a", "nan"), 3),
        (DECOHERE_OU + ("--tau-c-us", "20", "--a-list", "1e100"), 3),
    ], ids=["calibrate-extreme-targets", "a-overflows", "overlay-t-inf",
            "tau-c-inf", "overlay-a-nan", "no-1e-time"])
    def test_exit_code_and_no_output(self, tmp_path, capsys, args, want):
        assert run_cli(*args, "--out", str(tmp_path / "out")) == want
        assert "error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestExampleConfigs:
    """The canonical configs shipped in docs/examples stay runnable."""

    def test_signal_example(self, tmp_path, repo_docs):
        code = run_cli("signal", "--config", str(repo_docs / "signal.cfg"),
                       "--b-points", "61", "--out", str(tmp_path / "s.csv"))
        assert code == 0

    def test_sweep_example(self, tmp_path, repo_docs):
        code = run_cli("sweep", "--config", str(repo_docs / "sweep.cfg"),
                       "--out", str(tmp_path / "s.jsonl"))
        assert code == 0

    def test_estimate_example(self, tmp_path, repo_docs, capsys):
        code = run_cli("estimate", "--config", str(repo_docs / "estimate.cfg"),
                       "--out", str(tmp_path / "e.txt"))
        assert code == 0
        text = (tmp_path / "e.txt").read_text(encoding="utf-8")
        b_hat = float(next(l for l in text.splitlines()
                           if l.startswith("B_hat_mT")).split("=")[1])
        assert b_hat == pytest.approx(0.2, rel=1e-6)

    def test_decohere_example(self, tmp_path, repo_docs):
        code = run_cli("decohere", "--config", str(repo_docs / "decohere.cfg"),
                       "--a-list", "0.1,1.0",
                       "--out", str(tmp_path / "deco"))
        assert code == 0

    def test_calibrate_example(self, tmp_path, repo_docs):
        code = run_cli("calibrate", "--config", str(repo_docs / "calibrate.cfg"),
                       "--out", str(tmp_path / "cal.txt"))
        assert code == 0


class TestCommonKeys:
    COMMANDS = {
        "signal": ("--protocol", "ramsey", "--t-us", "1", "--b-stop-mt", "0.05",
                   "--b-points", "3"),
        "sweep": ("--protocol", "ramsey", "--t-us-list", "1.0",
                  "--b-stop-mt", "0.05", "--b-points", "11"),
        "estimate": ("--protocol", "ramsey", "--p", "0.5", "--t-us", "1",
                     "--window-stop-mt", "0.1"),
        "decohere": ("--delta-rad-s", "31415.9", "--tau-c-us", "20",
                     "--a-list", "0.1,0.5"),
        "calibrate": ("--t2star-us", "50", "--t2-us", "500"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_zero_workers_is_config_error(self, tmp_path, capsys, command):
        code = run_cli(command, *self.COMMANDS[command], "--workers", "0",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert "workers must be >= 1" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestCalibrateCommand:
    def test_reports_parameters(self, tmp_path):
        out = tmp_path / "cal.txt"
        code = run_cli("calibrate", "--t2star-us", "50", "--t2-us", "500",
                       "--out", str(out))
        assert code == 0
        text = out.read_text(encoding="utf-8")
        delta = float(next(l for l in text.splitlines()
                           if l.startswith("delta_rad_s")).split("=")[1])
        assert delta == pytest.approx(math.sqrt(2) / 50e-6, rel=0.05)

    def test_degenerate_targets_exit_compute_error(self, capsys):
        code = run_cli("calibrate", "--t2star-us", "50", "--t2-us", "50",
                       "--out", "-")
        assert code == 3


class TestStartup:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize is most of the import cost of every CLI call; only
        # the functions that solve or fit load it, and only the 1/f exponent
        # loads scipy.special
        src = str(Path(phasemag.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, phasemag; sys.exit(any(m.split('.')[0] == 'scipy' "
                "for m in sys.modules))")
        res = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        assert res.returncode == 0
