"""Command-line interface: outputs, determinism, exit codes, config handling."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phasemag
from phasemag import analytic, cli, harness, noise
from phasemag.cli import _COMMAND_KEYS, SIGNAL_HEADER, main
from phasemag.constants import NV, angular_from_mhz
from phasemag.harness import fmt


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def run_cli(*args):
    return main(list(args))


def _fresh_env():
    """Environment for a child interpreter that imports this phasemag."""
    src = str(Path(phasemag.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def data_rows(path):
    lines = [l for l in read_lines(path) if not l.startswith("#")]
    assert lines[0] == SIGNAL_HEADER
    return [l.split(",") for l in lines[1:]]


def _eta_and_slope(path):
    """(eta, max_slope) strings of each point record of a sweep file."""
    records = [json.loads(l) for l in read_lines(path) if not l.startswith("#")]
    return [(r["eta"], r["max_slope"]) for r in records
            if r["record"] == "point"]


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

    # rows recorded when free evolution became an exact z rotation; they lie
    # within 1.4e-13 of the mesh at tol 1e-10 on the same trajectories
    PINNED_NOISE_ROWS = {
        "ramsey": ["0,0.99099993", "0.005,-0.918528489", "0.01,0.717052451",
                   "0.015,-0.414868527", "0.02,0.0544175514"],
        "hahn": ["0,0.999833106", "0.005,0.999833106", "0.01,0.999833106",
                 "0.015,0.999833106", "0.02,0.999833106"],
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

    RAMSEY_HYPERFINE = ("signal", "--protocol", "ramsey", "--t-us", "1",
                        "--b-stop-mt", "0.2", "--b-points", "21",
                        "--hyperfine", "true")

    @staticmethod
    def _averages(monkeypatch):
        """The unrounded curves the CLI's hyperfine averages return."""
        average, got = analytic.hyperfine_average, []
        monkeypatch.setattr(analytic, "hyperfine_average",
                            lambda *args: got.append(average(*args)) or got[-1])
        return got

    def test_hyperfine_numeric_ramsey_matches_analytic(self, tmp_path,
                                                       monkeypatch):
        got = self._averages(monkeypatch)
        for engine in ("analytic", "numeric"):
            assert run_cli(*self.RAMSEY_HYPERFINE, "--engine", engine,
                           "--out", str(tmp_path / f"{engine}.csv")) == 0
        assert np.max(np.abs(got[1] - got[0])) <= 1e-12
        # the triplet, not one line: the 2.16 MHz lines beat within 1 us
        assert np.ptp(got[0]) > 0.1
        assert not np.allclose(got[0], np.cos(NV.gamma * np.linspace(
            0.0, 2e-4, 21) * 1e-6))

    @pytest.mark.parametrize("engine", ["analytic", "numeric"])
    def test_hyperfine_berry_is_the_mean_of_shifted_curves(self, tmp_path,
                                                          engine):
        out = tmp_path / "b.csv"
        assert run_cli("signal", "--config", str(EXAMPLES / "signal.cfg"),
                       "--engine", engine, "--b-points", "31",
                       "--hyperfine", "true", "--out", str(out)) == 0
        bs = np.linspace(0.0, 0.6, 31) * 1e-3
        lines = np.array([harness.signal_curve(
            "berry", engine, 8e-6, bs + d / NV.gamma, angular_from_mhz(5.0), 3)
            for d in (-NV.hyperfine_splitting, 0.0, NV.hyperfine_splitting)])
        p = np.array([float(r[1]) for r in data_rows(out)])
        assert np.allclose(p, lines.mean(axis=0), rtol=0, atol=1e-8)
        assert not np.allclose(p, lines[1], rtol=0, atol=1e-3)

    def test_hyperfine_noisy_curve_reproducible(self, tmp_path):
        args = ("signal", "--protocol", "ramsey", "--engine", "numeric+noise",
                "--t-us", "4", "--b-stop-mt", "0.02", "--b-points", "5",
                "--delta-rad-s", "31415.9", "--tau-c-us", "20",
                "--ensemble", "3", "--seed", "5", "--hyperfine", "true")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes().replace(str(a).encode(), b"") \
            == b.read_bytes().replace(str(b).encode(), b"")

    def test_hyperfine_lines_reach_the_phase_cap(self, tmp_path):
        # gamma*|B|*T a hair below 2^52 rad: the curve itself passes, and
        # the upper line's fields b + d/gamma, 3e-9 further out, do not
        gamma = 2 * math.pi * 1e-6 * 1e9
        b_stop_mt = 2.0**52 * (1 - 1e-10) / gamma * 1e3
        args = ("signal", "--protocol", "ramsey", "--t-us", "1e6",
                "--gamma-ghz-per-t", "1e-6", "--b-stop-mt", repr(b_stop_mt),
                "--b-points", "2", "--out", str(tmp_path / "p.csv"))
        assert run_cli(*args) == 0
        assert run_cli(*args, "--hyperfine", "true") == 2


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

    def test_berry_sweep_values_pinned(self, tmp_path):
        # the refined best slope of analytic.sensitivity, digit for digit
        out = tmp_path / "berry.jsonl"
        assert run_cli("sweep", "--protocol", "berry", "--omega-mhz-list", "5",
                       "--n-list", "1,2,3,5", "--t-us-list", "8,16",
                       "--b-stop-mt", "0.4", "--b-points", "81",
                       "--out", str(out)) == 0
        assert _eta_and_slope(out) == [
            ("4.11349146e-08", "68759.7665"), ("5.81735541e-08", "68759.7665"),
            ("2.02141117e-08", "139923.394"), ("2.85870709e-08", "139923.394"),
            ("1.34324556e-08", "210566.645"), ("1.8996361e-08", "210566.645"),
            ("8.04607482e-09", "351528.812"), ("1.13788681e-08", "351528.812")]

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

    def test_underflowing_drive_rows_are_ok(self, tmp_path):
        # Omega^2 underflows at these drives; A = 2*pi*N/(Omega*T) does not
        out = tmp_path / "tiny.jsonl"
        assert run_cli("sweep", "--protocol", "berry",
                       "--omega-mhz-list", "1e-300,1e-290", "--n-list", "1",
                       "--t-us-list", "8", "--b-stop-mt", "0.6",
                       "--b-points", "61", "--out", str(out)) == 0
        points = [json.loads(l) for l in read_lines(out)
                  if not l.startswith("#")]
        assert [p["status"] for p in points] == ["ok", "ok"]
        assert [p["adiabaticity"] for p in points] == ["1.25e+299", "1.25e+289"]

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

    def test_unresolvable_to_stdout_prints_each_line_once(self, capsys):
        code = run_cli("estimate", "--protocol", "berry", "--omega-mhz", "5",
                       "--n", "3", "--p", "1", "--slope-per-mt", "0",
                       "--out", "-")
        assert code == 5
        lines = capsys.readouterr().out.splitlines()
        assert sum(l.startswith("candidates_mT") for l in lines) == 1
        assert sum(l.startswith("unresolvable") for l in lines) == 1

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

    def test_eq3_curves_are_computed_once(self, tmp_path, monkeypatch):
        # the regime scan and _coherence.csv share one curve per A
        from phasemag import harness
        calls = []
        grid = harness._auto_decay_grid

        def counted(S, a_value, n_points=28):
            calls.append(a_value)
            return grid(S, a_value, n_points)

        monkeypatch.setattr(harness, "_auto_decay_grid", counted)
        code = run_cli("decohere", "--delta-rad-s", "31415.9", "--tau-c-us", "20",
                       "--a-list", "0.1,0.5", "--out", str(tmp_path / "deco"))
        assert code == 0
        assert sorted(calls) == [0.1, 0.5]

    def test_unsampled_adiabaticity_writes_an_error_row(self, tmp_path, capsys):
        # chi(T; A=0.01) never crosses 1 on this bath while A = 2 decays:
        # the scan still writes its three files and exits 0
        out = tmp_path / "deco"
        assert run_cli("decohere", "--delta-rad-s", "1e-8", "--tau-c-us", "1e18",
                       "--a-list", "0.01,2", "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        lines = read_lines(tmp_path / "deco_regimes.csv")
        # the reason sits in one comment line just above the column header
        assert lines[lines.index("A,T2g_us,residual,regime,status") - 1] == (
            "# error A=0.01: chi(T; A=0.01) does not cross 1 between "
            "1e-07 s and 1.1e+09 s")
        regimes = [l.split(",") for l in lines if not l.startswith("#")]
        assert regimes[1] == ["0.01", "", "", "adiabatic", "error"]
        assert regimes[2][0] == "2" and regimes[2][4] == "ok"
        assert float(regimes[2][1]) == pytest.approx(7.07e13, rel=1e-3)
        coherence = [l for l in read_lines(tmp_path / "deco_coherence.csv")
                     if not l.startswith("#")]
        assert coherence[0] == "A,T_us,W"
        assert len(coherence) == 29
        assert all(l.startswith("2,") for l in coherence[1:])
        overlay = read_lines(tmp_path / "deco_overlay.csv")
        assert len([l for l in overlay if not l.startswith("#")]) == 201

    def test_failed_fit_keeps_its_curve(self, tmp_path, monkeypatch):
        # a row whose fit failed writes the curve the scan sampled, once
        from phasemag import harness
        calls = []
        grid = harness._auto_decay_grid

        def counted(S, a_value, n_points=28):
            calls.append(a_value)
            return grid(S, a_value, n_points)

        def fail(samples):
            raise harness.FitFailure("no fit")

        prefix = tmp_path / "deco"
        args = ("decohere", "--delta-rad-s", "31415.9", "--tau-c-us", "20",
                "--a-list", "0.5,0.1")
        assert run_cli(*args, "--out", str(prefix)) == 0
        want = (tmp_path / "deco_coherence.csv").read_bytes()
        monkeypatch.setattr(harness, "_auto_decay_grid", counted)
        monkeypatch.setattr(harness.noise_mod, "fit_T2g", fail)
        assert run_cli(*args, "--out", str(prefix)) == 0
        assert sorted(calls) == [0.1, 0.5]
        assert (tmp_path / "deco_coherence.csv").read_bytes() == want
        regimes = read_lines(tmp_path / "deco_regimes.csv")
        assert [l.split(",")[4] for l in regimes[-2:]] == ["error", "error"]

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


# every float key of every command at each bad value, on top of the
# command's example config; estimate's time and window keys on the ramsey
# form of the estimate example
BAD_NUMBER_TABLE = [(command, key, value)
                    for command, registry in sorted(_COMMAND_KEYS.items())
                    for key, (conv, _) in registry.items() if conv is float
                    for value in ("nan", "inf", "-inf", "1e300", "-1e300",
                                  "1e-300")]
ESTIMATE_RAMSEY_KEYS = ("t_us", "window_start_mt", "window_stop_mt")
ESTIMATE_RAMSEY_FORM = ("--protocol=ramsey", "--t-us=1", "--window-stop-mt=0.5")
INT_KEY_TABLE = [(command, key, value)
                 for command, registry in sorted(_COMMAND_KEYS.items())
                 for key, (conv, _) in registry.items()
                 if conv in (int, cli._parse_int_list)
                 for value in ("0", "-1", str(2**31), str(2**63))]
# forms of the example configs on which every count is used: the noisy
# engines loop over the ensemble, and the berry plans take n turns
INT_KEY_FORMS = {
    "signal": ("--engine=numeric+noise", "--b-points=3", "--ensemble=1",
               "--t2star-us=50", "--t2-us=500"),
    "sweep": ("--protocol=berry", "--engine=numeric+noise",
              "--omega-mhz-list=5", "--n-list=3", "--t-us-list=8",
              "--b-points=3", "--ensemble=1", "--t2star-us=50",
              "--t2-us=500"),
    "decohere": ("--engine=monte-carlo", "--a-list=1", "--ensemble=1"),
}
# extreme drive and turn-count pairs on the berry form of each command
# that takes them: the slope envelope 4*pi*N*gamma/Omega overflows, Omega^2
# underflows, and a candidate field leaves the float range
BERRY_FORMS = {
    "signal": ("--n={n}", "--omega-mhz={omega}"),
    "sweep": ("--protocol=berry", "--n-list={n}", "--omega-mhz-list={omega}",
              "--t-us-list=8", "--b-stop-mt=0.6", "--b-points=61"),
    "estimate": ("--n={n}", "--omega-mhz={omega}"),
}
BERRY_PAIR_TABLE = [(command, omega, n) for command in sorted(BERRY_FORMS)
                    for omega in ("1e-300", "1e-290", "1e300")
                    for n in ("1", str(2**47))]
# what a guarded run may ask for: more means a count reached numpy or a
# loop unchecked
GUARD_POINTS = 10**6
GUARD_RUNS = 64


class TestBadNumbers:
    """Absurd but parseable numbers end in exit 2 or 3 and write no file."""

    DECOHERE_STATIC = ("decohere", "--t2star-us", "50", "--t2-us", "500")
    DECOHERE_OU = ("decohere", "--delta-rad-s", "31415.9")
    SWEEP_RAMSEY = ("sweep", "--protocol", "ramsey", "--t-us-list", "1,2,3",
                    "--b-stop-mt", "0.1", "--b-points", "5")
    ESTIMATE_RAMSEY = ("estimate", "--protocol", "ramsey", "--p", "0.3",
                       "--t-us", "1", "--window-stop-mt", "0.5")
    # the OU knots of a 1e300 us trajectory: 5e299, past the cap
    SIGNAL_OU = ("signal", "--protocol", "ramsey", "--engine", "numeric+noise",
                 "--b-points", "3", "--delta-rad-s", "31415.9",
                 "--tau-c-us", "20")

    @pytest.mark.parametrize("args, want", [
        (("calibrate", "--t2star-us", "1e-300", "--t2-us", "1e300"), 3),
        (DECOHERE_STATIC + ("--a-list", "1e300"), 2),
        (DECOHERE_STATIC + ("--a-list", "0.1,nan,-1"), 2),
        (DECOHERE_STATIC + ("--a-list", "0.1,1e300"), 2),
        (DECOHERE_STATIC + ("--a-list", "0.1", "--overlay-t-us", "inf"), 2),
        (DECOHERE_OU + ("--tau-c-us", "inf", "--a-list", "0.1"), 3),
        (DECOHERE_OU + ("--tau-c-us", "20", "--a-list", "0.1",
                        "--overlay-a", "nan"), 2),
        (DECOHERE_OU + ("--tau-c-us", "20", "--a-list", "1e100"), 3),
        (("estimate", "--protocol", "ramsey", "--p", "0.5", "--t-us", "inf",
          "--window-stop-mt", "0.1"), 3),
        (("estimate", "--protocol", "ramsey", "--p", "0.5", "--t-us", "1",
          "--window-stop-mt", "nan"), 3),
        (("signal", "--protocol", "ramsey", "--engine", "analytic",
          "--t-us", "8", "--b-stop-mt", "nan", "--b-points", "3"), 2),
        (("signal", "--protocol", "ramsey", "--engine", "analytic",
          "--t-us", "inf", "--b-stop-mt", "0.1", "--b-points", "3"), 2),
        (("sweep", "--config", str(EXAMPLES / "sweep.cfg"),
          "--t-us-list", "inf,8,16"), 2),
        (("signal", "--protocol", "berry", "--omega-mhz", "inf", "--n", "3",
          "--t-us", "8", "--b-stop-mt", "0.1", "--b-points", "3"), 2),
        (("signal", "--protocol", "berry", "--omega-mhz", "5", "--n", "3",
          "--gamma-ghz-per-t", "inf", "--t-us", "8", "--b-stop-mt", "0.1",
          "--b-points", "3"), 2),
        (("sweep", "--protocol", "berry", "--omega-mhz-list", "inf",
          "--n-list", "3", "--t-us-list", "8", "--b-stop-mt", "0.1",
          "--b-points", "3"), 2),
        (("sweep", "--config", str(EXAMPLES / "sweep.cfg"),
          "--gamma-ghz-per-t", "nan"), 2),
        (("estimate", "--protocol", "ramsey", "--p", "0.5", "--t-us", "1",
          "--window-stop-mt", "0.1", "--gamma-ghz-per-t", "inf"), 2),
        (DECOHERE_STATIC + ("--a-list", "0.1", "--gamma-ghz-per-t", "inf"), 2),
        (SWEEP_RAMSEY + ("--overhead-us", "-5"), 2),
        (SWEEP_RAMSEY + ("--overhead-us", "nan"), 2),
        (SWEEP_RAMSEY + ("--overhead-us", "inf"), 2),
        (SWEEP_RAMSEY + ("--sigma-p", "inf"), 2),
        (SWEEP_RAMSEY + ("--sigma-p", "0"), 2),
        (("estimate", "--protocol", "berry", "--p", "0.3", "--omega-mhz", "5",
          "--n", "3", "--slope-per-mt", "inf"), 3),
        (ESTIMATE_RAMSEY + ("--slope-per-mt", "nan"), 3),
        (ESTIMATE_RAMSEY + ("--sigma", "inf"), 3),
        (DECOHERE_OU + ("--tau-c-us", "20", "--a-list", ""), 2),
        (ESTIMATE_RAMSEY + ("--t-us", "1e300"), 3),
        (ESTIMATE_RAMSEY + ("--window-stop-mt", "1e300"), 3),
        (("estimate", "--protocol", "berry", "--p", "0.3", "--omega-mhz", "5",
          "--n", "1000000000", "--slope-per-mt", "1"), 3),
        (("decohere", "--delta-rad-s", "1e300", "--tau-c-us", "20",
          "--a-list", "0.1,0.5"), 3),
        (SIGNAL_OU + ("--t-us", "1e300", "--b-stop-mt", "0.1"), 2),
        (SIGNAL_OU + ("--t-us", "1e300", "--b-stop-mt", "0"), 3),
        (("sweep", "--config", str(EXAMPLES / "sweep.cfg"),
          "--b-stop-mt", "1e300"), 2),
        (("decohere", "--config", str(EXAMPLES / "decohere.cfg"),
          "--overlay-t-us", "1e300"), 3),
        (("decohere", "--config", str(EXAMPLES / "decohere.cfg"),
          "--overlay-t-us", "1e-300"), 2),
        (("decohere", "--delta-rad-s", "1e-60", "--tau-c-us", "1e160",
          "--a-list", "0.1"), 3),
        (("signal", "--config", str(EXAMPLES / "signal.cfg"), "--engine",
          "numeric+noise", "--b-points", "3", "--ensemble", "2",
          "--t2star-us", "50", "--t2-us", "500", "--seed", "-1"), 2),
        (("decohere", "--config", str(EXAMPLES / "decohere.cfg"), "--engine",
          "monte-carlo", "--ensemble", "2", "--seed", "-1"), 2),
        # a 1e300 MHz drive puts a candidate field past the float range, and
        # a 1e-300 MHz drive the slope envelope 4*pi*N*gamma/Omega
        (("estimate", "--config", str(EXAMPLES / "estimate.cfg"),
          "--omega-mhz=1e300", "--n=1000"), 3),
        (("estimate", "--config", str(EXAMPLES / "estimate.cfg"),
          "--omega-mhz=1e-300", "--n=1000"), 3),
        # a 1e13 rad/s bath swings the detuning by about 6e11 rad/s across
        # each knot interval: the knot mesh's error bound would need more
        # than max_depth halvings, refused before composing
        (("signal", "--config", str(EXAMPLES / "signal.cfg"), "--engine",
          "numeric+noise", "--b-points", "3", "--ensemble", "1",
          "--delta-rad-s", "1e13", "--tau-c-us", "20"), 3),
        # a subnormal gamma puts the upper hyperfine line's offset d/gamma
        # at 1.7969e308 T, and the fields b + d/gamma past the float range
        (("signal", "--protocol", "ramsey", "--t-us", "1e-300",
          "--b-stop-mt", "1.7e308", "--b-points", "2",
          "--gamma-ghz-per-t", "1.2021e-311", "--hyperfine", "true"), 2),
    ], ids=["calibrate-extreme-targets", "a-overflows", "a-list-nan-negative",
            "a-list-later-overflows", "overlay-t-inf",
            "tau-c-inf", "overlay-a-nan", "no-1e-time", "estimate-t-inf",
            "estimate-window-nan", "signal-field-nan", "signal-t-inf",
            "sweep-t-inf", "signal-omega-inf", "signal-gamma-inf",
            "sweep-omega-inf", "sweep-gamma-nan", "estimate-gamma-inf",
            "decohere-gamma-inf", "sweep-overhead-negative",
            "sweep-overhead-nan", "sweep-overhead-inf", "sweep-sigma-p-inf",
            "sweep-sigma-p-zero", "estimate-berry-slope-inf",
            "estimate-ramsey-slope-nan", "estimate-sigma-inf",
            "decohere-a-list-empty", "estimate-ramsey-fringes-t",
            "estimate-ramsey-fringes-window", "estimate-berry-fringes-n",
            "lorentzian-level-overflows", "signal-larmor-phase",
            "signal-ou-knots", "sweep-larmor-phase", "overlay-t-long",
            "overlay-t-short", "lorentzian-psd-tail", "signal-seed-negative",
            "decohere-seed-negative", "estimate-candidate-overflows",
            "estimate-slope-envelope-overflows", "signal-knot-mesh-bound",
            "signal-hyperfine-fields-overflow"])
    def test_exit_code_and_no_output(self, tmp_path, capsys, args, want):
        # rejected by validation: one error line on stderr and no warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*args, "--out", str(tmp_path / "out")) == want
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "error" in err and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["signal", "sweep", "estimate",
                                         "decohere"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1e300"])
    def test_bad_gamma_is_config_error(self, tmp_path, capsys, command, value):
        # one check, as each command starts, for every command with the key
        assert run_cli(command, "--config", str(EXAMPLES / f"{command}.cfg"),
                       f"--gamma-ghz-per-t={value}",
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith(
            "config error: gamma must be positive and finite")
        assert list(tmp_path.iterdir()) == []

    def test_many_turns_are_not_refused(self, tmp_path):
        # the knot mesh follows the slope of the noise, not the Larmor
        # rate: 2**31 turns, once refused for a start of 2**25 slices per
        # knot interval, run on one slice per interval
        out = tmp_path / "s.csv"
        assert run_cli("signal", "--config", str(EXAMPLES / "signal.cfg"),
                       "--engine", "numeric+noise", "--b-points", "3",
                       "--ensemble", "1", "--t2star-us", "50", "--t2-us",
                       "500", "--n", "2147483648", "--out", str(out)) == 0
        p = np.array([float(r[1]) for r in data_rows(out)])
        assert p.size == 3 and np.all(np.abs(p) <= 1.0)

    @pytest.mark.parametrize("command, key, value", BAD_NUMBER_TABLE,
                             ids=["-".join(case) for case in BAD_NUMBER_TABLE])
    def test_every_float_key(self, tmp_path, monkeypatch, capsys, command,
                             key, value):
        # exits with a documented code, warns nothing, says at most one
        # line on stderr, and a rejected run writes no file
        monkeypatch.chdir(tmp_path)
        args = [command, "--config", str(EXAMPLES / f"{command}.cfg")]
        if command == "estimate" and key in ESTIMATE_RAMSEY_KEYS:
            args += ESTIMATE_RAMSEY_FORM
        args.append(f"--{key.replace('_', '-')}={value}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        assert code in (0, 2, 3, 4, 5)
        assert [str(w.message) for w in caught] == []
        assert len(capsys.readouterr().err.splitlines()) <= 1
        if code in (2, 3):
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, omega, n", BERRY_PAIR_TABLE,
                             ids=["-".join(case) for case in BERRY_PAIR_TABLE])
    def test_extreme_berry_pairs(self, tmp_path, monkeypatch, capsys, command,
                                 omega, n):
        # the float-key contract, for two keys at once
        monkeypatch.chdir(tmp_path)
        args = [command, "--config", str(EXAMPLES / f"{command}.cfg"),
                *(arg.format(omega=omega, n=n) for arg in BERRY_FORMS[command])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        assert code in (0, 2, 3, 4, 5)
        assert [str(w.message) for w in caught] == []
        assert len(capsys.readouterr().err.splitlines()) <= 1
        if code in (2, 3):
            assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _guard_counts(monkeypatch):
        """Fail, rather than allocate or loop, when a count goes unchecked:
        a field grid past GUARD_POINTS, a bank of more channels, or more
        than GUARD_RUNS ensemble runs of one curve."""
        linspace, bank, trajectory = np.linspace, noise.ou_bank, noise.ou_trajectory
        runs = []

        def guarded_linspace(start, stop, num=50, *args, **kw):
            assert num <= GUARD_POINTS, f"np.linspace asked for {num} points"
            return linspace(start, stop, num, *args, **kw)

        def guarded_bank(S, duration, dt, n_traj, *args, **kw):
            assert n_traj <= GUARD_POINTS, f"ou_bank asked for {n_traj} runs"
            return bank(S, duration, dt, n_traj, *args, **kw)

        def guarded_trajectory(*args, **kw):
            runs.append(None)
            assert len(runs) <= GUARD_RUNS, "the ensemble loop ran on"
            return trajectory(*args, **kw)

        monkeypatch.setattr(np, "linspace", guarded_linspace)
        monkeypatch.setattr(noise, "ou_bank", guarded_bank)
        monkeypatch.setattr(noise, "ou_trajectory", guarded_trajectory)

    @pytest.mark.parametrize("command, key, value", INT_KEY_TABLE,
                             ids=["-".join(case) for case in INT_KEY_TABLE])
    def test_every_int_key(self, tmp_path, monkeypatch, capsys, command, key,
                           value):
        # the same contract as the float keys, on a form that uses the
        # count; workers above 1 only warns that it has no effect
        monkeypatch.chdir(tmp_path)
        self._guard_counts(monkeypatch)
        args = [command, "--config", str(EXAMPLES / f"{command}.cfg"),
                *INT_KEY_FORMS.get(command, ()),
                f"--{key.replace('_', '-')}={value}"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        assert code in (0, 2, 3, 4, 5)
        allowed = {DeprecationWarning} if key == "workers" else set()
        assert {w.category for w in caught} <= allowed, [
            str(w.message) for w in caught]
        assert len(capsys.readouterr().err.splitlines()) <= 1
        if code in (2, 3):
            assert list(tmp_path.iterdir()) == []


def _reference_parser():
    """The argparse parser the CLI built from ``_COMMAND_KEYS`` before it
    read its options itself: the reference for what each argv means."""
    import argparse

    parser = argparse.ArgumentParser(prog="phasemag")
    parser.add_argument("--version", action="version",
                        version=f"phasemag {phasemag.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, registry in _COMMAND_KEYS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None)
        for key, (conv, _) in registry.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           default=None, type=conv)
    return parser


# one value each converter reads; the float is negative, so that
# "--key -0.25" must read it as a value and not as an option
SAMPLE_TEXT = {int: "7", float: "-0.25", str: "ramsey", cli._parse_bool: "yes",
               cli._parse_float_list: "1,2.5", cli._parse_int_list: "3,4"}


def _shortest_prefix(flag, flags):
    """The shortest prefix of ``flag`` that begins no other flag (or the
    flag itself, when it begins another)."""
    return next(flag[:i] for i in range(3, len(flag) + 1)
                if flag[:i] == flag
                or not any(f.startswith(flag[:i]) for f in flags if f != flag))


def _flags(command):
    return ["--config", "--help", *(f"--{key.replace('_', '-')}"
                                    for key in _COMMAND_KEYS[command])]


EQUIVALENT_ARGVS = [
    *((command, f"--{key.replace('_', '-')}", SAMPLE_TEXT[conv])
      for command, registry in _COMMAND_KEYS.items()
      for key, (conv, _) in registry.items()),
    *((command, f"--{key.replace('_', '-')}={SAMPLE_TEXT[conv]}")
      for command, registry in _COMMAND_KEYS.items()
      for key, (conv, _) in registry.items()),
    *((command, _shortest_prefix(f"--{key.replace('_', '-')}",
                                 _flags(command)), SAMPLE_TEXT[conv])
      for command, registry in _COMMAND_KEYS.items()
      for key, (conv, _) in registry.items()),
    *((command, "--seed", "1", "--seed=2", "--se", "3")
      for command in _COMMAND_KEYS),
    *((command, "--config", str(EXAMPLES / f"{command}.cfg"), "--out", "o.txt")
      for command in _COMMAND_KEYS),
    ("estimate", "--conf", str(EXAMPLES / "estimate.cfg"), "--p", "-1",
     "--sigma", "-.5", "--slope-per-mt=-2e3"),
]


class TestParseEquivalence:
    """Every argv means what the argparse reference made of it."""

    REFERENCE = _reference_parser()

    @staticmethod
    def _record(monkeypatch):
        """The cfg each command is called with, in place of running it."""
        calls = []
        for command in _COMMAND_KEYS:
            monkeypatch.setitem(cli._COMMANDS, command,
                                lambda cfg, c=command: calls.append((c, cfg)) or 0)
        return calls

    @pytest.mark.parametrize("argv", EQUIVALENT_ARGVS,
                             ids=[" ".join(a).replace(str(EXAMPLES), "ex")
                                  for a in EQUIVALENT_ARGVS])
    def test_same_resolved_cfg(self, monkeypatch, argv):
        ns = self.REFERENCE.parse_args(list(argv))
        want = {**cli._resolve(ns.command, ns.config, {}),
                **{k: v for k, v in vars(ns).items()
                   if v is not None and k not in ("command", "config")}}
        calls = self._record(monkeypatch)
        assert main(list(argv)) == 0
        assert [c for c, _ in calls] == [ns.command]
        got = calls[0][1]
        assert sorted(got.items()) == sorted(want.items())
        assert [type(got[k]) for k in sorted(got)] == [type(want[k])
                                                       for k in sorted(want)]

    @pytest.mark.parametrize("argv", [
        ("signal", "--bogus", "1"),
        ("signal", "--t_us", "1"),
        ("signal", "--t", "1"),
        ("signal", "--h"),
        ("signal", "--t-us"),
        ("signal", "--t-us", "--b-points", "3"),
        ("signal", "--t-us", "-inf"),
        ("signal", "--t-us", "abc"),
        ("sweep", "--b-points", "1.5"),
        (),
        ("bogus", "--t-us", "1"),
        ("signal", "stray"),
        ("signal", "--t-us", "1", "2"),
        ("signal", "--t-us", "--", "1"),
        ("signal", "--", "--help"),
        ("signal", "--help=1"),
        ("--version=1",),
    ], ids=["unknown-key", "underscores", "ambiguous-prefix",
            "ambiguous-help-prefix", "missing-value-at-end",
            "missing-value-before-option", "option-like-value",
            "rejected-float", "rejected-int", "missing-command",
            "unknown-command", "stray-positional", "stray-after-value",
            "dashdash-as-value", "help-after-dashdash", "help-with-value",
            "version-with-value"])
    def test_refused(self, tmp_path, monkeypatch, capsys, argv):
        # a file would be named by --out, placed first so as not to change
        # what the rest of the argv means
        if argv and argv[0] in _COMMAND_KEYS:
            argv = (argv[0], "--out=o.txt", *argv[1:])
        with pytest.raises(SystemExit) as exc:
            self.REFERENCE.parse_args(list(argv))
        assert exc.value.code == 2
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("signal", "--hyperfine", "maybe"), ("sweep", "--n-list", "1.5"),
        ("sweep", "--omega-mhz-list", "x"),
    ], ids=["bool", "int-list", "float-list"])
    def test_rejected_text_of_own_converters(self, tmp_path, monkeypatch,
                                             capsys, argv):
        # the reference let these converters' ConfigError escape as a
        # traceback; now they exit 2 like a rejected number
        argv = (argv[0], "--out=o.txt", *argv[1:])
        with pytest.raises(cli.ConfigError):
            self.REFERENCE.parse_args(list(argv))
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: option --") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, want", [
        (("--help",), "commands: signal, sweep, estimate, decohere, calibrate"),
        (("-h",), "commands: signal, sweep, estimate, decohere, calibrate"),
        (("--he",), "commands: signal, sweep, estimate, decohere, calibrate"),
        (("estimate", "--help"), "  --slope-per-mt FLOAT"),
        (("sweep", "--bogus", "-h"), "  --n-list INTEGERS"),
        (("--version",), f"phasemag {phasemag.__version__}"),
        (("--vers", "signal"), f"phasemag {phasemag.__version__}"),
    ])
    def test_help_and_version_exit_0(self, tmp_path, monkeypatch, capsys,
                                     argv, want):
        with pytest.raises(SystemExit) as exc:
            self.REFERENCE.parse_args(list(argv))
        assert exc.value.code == 0
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 0
        assert want in capsys.readouterr().out.splitlines()
        assert list(tmp_path.iterdir()) == []


class TestExampleConfigs:
    """The canonical configs shipped in docs/examples stay runnable."""

    def test_signal_example(self, tmp_path, repo_docs):
        code = run_cli("signal", "--config", str(repo_docs / "signal.cfg"),
                       "--b-points", "61", "--out", str(tmp_path / "s.csv"))
        assert code == 0

    @pytest.mark.parametrize("extra, digest", [
        (("--engine", "numeric", "--b-points", "61"),
         "09cbcb3ecaf19c5749cdf342dde2c7bf89cdf0f8cf7a623394b646c3afe07c4e"),
        (("--engine", "numeric+noise", "--b-points", "7", "--ensemble", "2",
          "--t2star-us", "50", "--t2-us", "500", "--seed", "3"),
         "56a58f733c23f0eaf82dd4934dcc8f43dc3852f56ac7eafb23c6f239e8df69f7"),
    ], ids=["numeric", "numeric-noise"])
    def test_signal_example_output_pinned(self, tmp_path, repo_docs, extra,
                                          digest):
        # sha256 of every line below the '#' header (which embeds --out).
        # The numeric digest was taken from the 3x3-matrix propagators:
        # composing Cayley-Klein pairs moves P by rounding only, and no
        # printed digit.  The numeric-noise digest is that of the
        # interaction-picture knot mesh, whose every printed digit equals
        # a mesh at tol 1e-12
        out = tmp_path / "s.csv"
        assert run_cli("signal", "--config", str(repo_docs / "signal.cfg"),
                       *extra, "--out", str(out)) == 0
        rows = [l for l in out.read_bytes().splitlines(keepends=True)
                if not l.startswith(b"#")]
        assert hashlib.sha256(b"".join(rows)).hexdigest() == digest

    @pytest.mark.parametrize("name, suffixes, want", [
        ("signal", ("",),
         "a49fd43a8d6ca4eb1bee22b74cc921543ff4b8bc47be97c1f0b3aabe108104ea"),
        ("sweep", ("",),
         "5c81f4a96112862d8c5bde9c93047f4c6f83c1ffe092ea7a03f5892492899983"),
        ("estimate", None,
         "8608f83b2694691bb2a5bc1928e4ba679f8012fd0a17379b612a4868fe980216"),
        ("calibrate", None,
         "66baae1aacaf0664d0becaa027ab2f2ac10c58244a49905260582eca29bd24ea"),
        ("decohere", ("_coherence.csv", "_regimes.csv", "_overlay.csv"),
         "0df80014cc4146f9d66b33170a0ff654c55644592bf725a8de305dbcc48d2b29"),
    ])
    def test_shipped_example_output_pinned(self, tmp_path, repo_docs, capsys,
                                           name, suffixes, want):
        # sha256 of the lines below the '#' header of each example at its
        # shipped config, the decohere files in the order given; estimate
        # and calibrate write to stdout
        prefix = tmp_path / "out"
        out = () if suffixes is None else ("--out", str(prefix))
        assert run_cli(name, "--config", str(repo_docs / f"{name}.cfg"),
                       *out) == 0
        if suffixes is None:
            texts = [capsys.readouterr().out.encode()]
        else:
            texts = [Path(f"{prefix}{s}").read_bytes() for s in suffixes]
        digest = hashlib.sha256()
        for text in texts:
            digest.update(b"".join(l for l in text.splitlines(keepends=True)
                                   if not l.startswith(b"#")))
        assert digest.hexdigest() == want

    def test_decohere_output_pinned(self, tmp_path):
        # sha256 of the lines below the '#' headers of the three files, in
        # the order coherence, regimes, overlay, for A values out of order
        # and repeated; recorded from the per-value writer the one-pass
        # tables replaced
        prefix = tmp_path / "alt"
        assert run_cli("decohere", "--t2star-us", "30", "--t2-us", "700",
                       "--a-list", "2,0.05,0.3,0.3", "--overlay-t-us", "11",
                       "--out", str(prefix)) == 0
        digest = hashlib.sha256()
        for suffix in ("_coherence.csv", "_regimes.csv", "_overlay.csv"):
            lines = Path(f"{prefix}{suffix}").read_bytes().splitlines(
                keepends=True)
            digest.update(b"".join(l for l in lines if not l.startswith(b"#")))
        assert digest.hexdigest() == (
            "c5f536c52b6214874cdc72aa8f1772455385916e3121709bb707f19968ffbcf1")

    def test_monte_carlo_decohere_output_pinned(self, tmp_path, repo_docs):
        # sha256 of the lines below the '#' headers of the three files, in
        # the order coherence, regimes, overlay: the regime rows run the
        # noisy knot mesh at tol 1e-3 over 4 runs (T2g within 8e-6 us of
        # the same scan at tol 1e-10)
        prefix = tmp_path / "mc"
        assert run_cli("decohere", "--config", str(repo_docs / "decohere.cfg"),
                       "--engine", "monte-carlo", "--ensemble", "4",
                       "--a-list", "0.1,1", "--out", str(prefix)) == 0
        digest = hashlib.sha256()
        for suffix in ("_coherence.csv", "_regimes.csv", "_overlay.csv"):
            lines = Path(f"{prefix}{suffix}").read_bytes().splitlines(
                keepends=True)
            digest.update(b"".join(l for l in lines if not l.startswith(b"#")))
        assert digest.hexdigest() == (
            "68d19edc129714669df96919880be64e4db53a229be53b4fc2c95bfd38bbb05d")

    def test_sweep_example(self, tmp_path, repo_docs):
        code = run_cli("sweep", "--config", str(repo_docs / "sweep.cfg"),
                       "--out", str(tmp_path / "s.jsonl"))
        assert code == 0
        # the refined best slope of analytic.sensitivity, digit for digit
        assert _eta_and_slope(tmp_path / "s.jsonl") == [
            ("1.27100454e-08", "35185.8377"), ("8.9873593e-09", "70371.6754"),
            ("6.35502271e-09", "140743.351"), ("5.18885431e-09", "211115.026"),
            ("4.49367965e-09", "281486.702"), ("4.01926927e-09", "351858.377")]

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


class TestTable:
    """cli._table writes the bytes of a per-value ``fmt`` join."""

    # 9-digit rounding ties: exact binary halves at the tenth digit
    TIES = [100000000.5, 100000001.5, 123456789.5, -999999999.5,
            1234567885.0, 1234567895.0, -2500000005.0, 0.5, 2.5]
    SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0]

    @staticmethod
    def joined(columns, left="", right=""):
        return "".join(left + ",".join(fmt(c[i]) for c in columns) + right + "\n"
                       for i in range(len(columns[0])))

    @pytest.mark.parametrize("rows", [0, 1, 601])
    def test_random_bit_patterns(self, rows):
        rng = np.random.default_rng(29 + rows)
        columns = list(rng.integers(0, 2**64, size=(3, rows), dtype=np.uint64,
                                    endpoint=False).view(np.float64))
        assert cli._table("%.9g,%.9g,%.9g", *columns) == self.joined(columns)

    def test_special_values_and_ties(self):
        column = np.array(self.SPECIALS + self.TIES)
        assert cli._table("%.9g,%.9g", column, -column) == self.joined(
            [column, -column])
        # and as Python floats, the values fmt sees on its own
        assert cli._table("%.9g", list(column)) == self.joined([list(column)])

    def test_literal_percent_signs(self):
        column = np.array(self.TIES)
        fixed = "50%,x%%y"
        got = cli._table("%%%.9g," + fixed.replace("%", "%%"), column)
        assert got == self.joined([column], left="%", right="," + fixed)

    def test_empty_table_and_integers(self):
        assert cli._table("%.9g,%.9g", [], []) == ""
        # estimate's fringe indices go through one float64 column
        counts = [0, 3, 266, 2**52]
        assert cli._table("%d", counts) == "".join(f"{n}\n" for n in counts)


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

    @pytest.mark.parametrize("command", [
        ("calibrate",), ("decohere",),
        ("signal", "--config", str(EXAMPLES / "signal.cfg"), "--engine",
         "numeric+noise", "--b-points", "3", "--ensemble", "2")],
        ids=["calibrate", "decohere", "signal"])
    def test_extreme_target_ratios(self, tmp_path, capsys, command):
        # t2/t2_star = 1e30 calibrates in the quasi-static limit; 1e60 is
        # past the float range of the calibration's start and is refused
        for t2_us, want in (("1e30", 0), ("1e60", 3)):
            code = run_cli(*command, "--t2star-us", "1", "--t2-us", t2_us,
                           "--out", str(tmp_path / f"out-{t2_us}"))
            err = capsys.readouterr().err
            assert code == want
            if want == 0:
                assert err == ""
            else:
                assert err.startswith("computation error: ")
                assert err.count("\n") == 1


class TestStartup:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # importing phasemag loads no scipy module; no phasemag call does
        # either (test_runs_with_scipy_blocked)
        code = ("import sys, phasemag; sys.exit(any(m.split('.')[0] == 'scipy' "
                "for m in sys.modules))")
        res = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                             timeout=60)
        assert res.returncode == 0

    def test_example_commands_load_no_scipy(self, tmp_path):
        # root finding, the T2g fit and the slope maximum run on
        # phasemag.solve, so no docs/examples command loads any scipy module
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from phasemag.cli import main\n"
            f"cfgs = sorted(Path({str(EXAMPLES)!r}).glob('*.cfg'))\n"
            "codes = [main([c.stem, '--config', str(c)]) for c in cfgs]\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "print([c.stem for c in cfgs], codes, loaded[:5], file=sys.stderr)\n"
            "sys.exit(codes != [0] * 5 or bool(loaded))\n")
        res = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                             cwd=tmp_path, capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr
        assert "'calibrate', 'decohere', 'estimate', 'signal', 'sweep'" in res.stderr

    def test_runs_with_scipy_blocked(self, tmp_path):
        # scipy is a test dependency only: with every scipy import made to
        # fail, the example commands, both 1/f exponents, calibration, the
        # Monte-Carlo oracle and a noisy sequence all run
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "from phasemag import noise, sequences\n"
            "from phasemag.cli import main\n"
            f"cfgs = sorted(Path({str(EXAMPLES)!r}).glob('*.cfg'))\n"
            "codes = [main([c.stem, '--config', str(c)]) for c in cfgs]\n"
            "S = noise.OneOverF(1e9, 120.0, 1.2e8)\n"
            "chi = (noise.ramsey_exponent(S, 60e-6), noise.echo_exponent(S, 60e-6))\n"
            "bath = noise.calibrate_noise(50e-6, 500e-6)\n"
            "mc = noise.mc_free_precession_decay(bath, [10e-6, 40e-6], 64, 3)\n"
            "bank = noise.ou_bank(bath, 8e-6, 0.125e-6, 2, 4)\n"
            "plan = sequences.build_berry(2 * np.pi * 5e6, 3, 8e-6)\n"
            "p = sequences.execute_batch(plan, [0.0, 1e-4], noise_trajectory=bank)\n"
            "ok = (codes == [0] * 5 and all(0 < c < np.inf for c in chi)\n"
            "      and np.all(np.isfinite(mc)) and np.all(np.abs(p) <= 1))\n"
            "print([c.stem for c in cfgs], codes, chi, file=sys.stderr)\n"
            "sys.exit(not ok)\n")
        res = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                             cwd=tmp_path, capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr
        assert "'calibrate', 'decohere', 'estimate', 'signal', 'sweep'" in res.stderr

    def test_cli_loads_no_argparse(self, tmp_path):
        # the CLI reads its options from _COMMAND_KEYS; argparse cost
        # 4-5 ms to import and more than a physics step to parse
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from phasemag.cli import main\n"
            f"cfgs = sorted(Path({str(EXAMPLES)!r}).glob('*.cfg'))\n"
            "codes = [main([c.stem, '--config', str(c)]) for c in cfgs]\n"
            "print([c.stem for c in cfgs], codes, file=sys.stderr)\n"
            "sys.exit(codes != [0] * 5 or 'argparse' in sys.modules)\n")
        res = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                             cwd=tmp_path, capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr
        assert "'calibrate', 'decohere', 'estimate', 'signal', 'sweep'" in res.stderr

    def test_commands_in_one_process_match_fresh_runs(self, tmp_path):
        # back-to-back calls of different commands, and a usage error
        # between them, must not leak state from one call to the next
        runs = [("estimate", "--config", str(EXAMPLES / "estimate.cfg")),
                ("calibrate", "--t2star-us", "abc", "--t2-us", "500"),
                ("signal", "--config", str(EXAMPLES / "signal.cfg"),
                 "--b-points", "61")]

        # the output header names the output path, so run k always writes
        # the same file, read and removed after each run
        def outcome(k, run):
            out = tmp_path / f"run{k}"
            code = run([*runs[k], "--out", str(out)])
            if not out.exists():
                return code, None
            text = out.read_bytes()
            out.unlink()
            return code, text

        def fresh_run(argv):
            return subprocess.run([sys.executable, "-m", "phasemag.cli", *argv],
                                  env=_fresh_env(), capture_output=True,
                                  timeout=60).returncode

        fresh = [outcome(k, fresh_run) for k in range(len(runs))]
        assert [code for code, _ in fresh] == [0, 2, 0]
        for k in (0, 1, 2, 2, 1, 0):
            assert outcome(k, main) == fresh[k]
