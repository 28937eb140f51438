"""Aggregation of tools/bench_pairs.py on canned run.py output; no benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

ENV = "env python 3.11.7 numpy 2.4.6 scipy 1.17.1 phasemag 0.1.0 nproc 2"
DIRECTIONS = {"run_s": "lower", "peak_rss_mb": "lower"}


def _stdout(run_s, rss, failed=0):
    result = {"correct": failed == 0, "attempted": 100, "failed": failed,
              "metrics": {"run_s": {"value": run_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MiB"}}}
    return "\n".join(["workload signal_numeric seed 1 seconds 30 trace 0", ENV,
                      "speed scale 0.6", f"  run_s {run_s} s",
                      json.dumps(result)]) + "\n"


@pytest.fixture(autouse=True)
def no_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the aggregation must start no process")
    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def _pairs():
    parent = [(0.17, 110.0), (0.16, 112.0), (0.18, 111.0), (0.20, 109.0),
              (0.15, 113.0)]
    change = [(0.03, 91.0), (0.04, 92.0), (0.02, 90.0), (0.03, 110.0),
              (0.16, 91.0)]
    return [(bench_pairs.parse_run(_stdout(*p)), bench_pairs.parse_run(_stdout(*c)))
            for p, c in zip(parent, change)]


class TestParseRun:
    def test_result_and_env(self):
        run = bench_pairs.parse_run(_stdout(0.1, 90.0, failed=2))
        assert run["metrics"] == {"run_s": 0.1, "peak_rss_mb": 90.0}
        assert run["env"] == ENV
        assert run["correct"] is False and run["failed"] == 2

    @pytest.mark.parametrize("stdout, code", [
        (_stdout(0.1, 90.0), 3), ("error: time budget exhausted\n", 0), ("", 0)])
    def test_broken_run_is_not_correct(self, stdout, code):
        run = bench_pairs.parse_run(stdout, code)
        assert run["correct"] is False and run["metrics"] == {}


class TestAggregate:
    def test_medians_quartiles_and_wins(self):
        agg = bench_pairs.aggregate(_pairs(), DIRECTIONS)
        run_s = agg["metrics"]["run_s"]
        assert run_s["parent"] == pytest.approx(
            {"median": 0.17, "q1": 0.16, "q3": 0.18, "n": 5})
        assert run_s["change"] == pytest.approx(
            {"median": 0.03, "q1": 0.03, "q3": 0.04, "n": 5})
        # the last pair is a loss (0.16 against 0.15)
        assert run_s["change_wins"] == 4
        # 110.0 against 109.0 loses, the other four win
        assert agg["metrics"]["peak_rss_mb"]["change_wins"] == 4
        assert run_s["previous"] is None
        assert agg["pairs"] == 5
        assert agg["parent"]["correct"] and agg["change"]["correct"]
        assert agg["change"]["attempted"] == 500

    def test_higher_is_better(self):
        agg = bench_pairs.aggregate(_pairs(), {"run_s": "higher"})
        assert agg["metrics"]["run_s"]["change_wins"] == 1

    def test_failed_runs_are_counted_and_skipped(self):
        pairs = _pairs()
        pairs[0] = (pairs[0][0], bench_pairs.parse_run(_stdout(0.01, 90.0, 3)))
        pairs[1] = (pairs[1][0], bench_pairs.parse_run("", 3))
        agg = bench_pairs.aggregate(pairs, DIRECTIONS)
        assert agg["change"]["correct"] is False
        assert agg["change"]["failed"] == 3
        assert agg["metrics"]["run_s"]["change"]["n"] == 4


class TestVerdict:
    """The acceptance rule on a synthetic runs dict of 10 pairs per workload."""

    BOUNDS = {"run_s": 0.25, "peak_rss_mb": 0.1}

    @staticmethod
    def _runs():
        def pairs(parent, change):
            return [(bench_pairs.parse_run(_stdout(*p)),
                     bench_pairs.parse_run(_stdout(*c)))
                    for p, c in zip(parent, change)]
        steady = [0.20 + 0.002 * i for i in range(10)]  # IQR 0.009
        spread = [0.10 + 0.02 * i for i in range(10)]  # IQR 0.09
        return {
            # run_s wins 10 of 10 by 0.05; peak memory rises by 15 % > 10 %
            "clear": pairs([(t, 100.0) for t in steady],
                           [(t - 0.05, 115.0) for t in steady]),
            # run_s wins only 8 of 10; peak memory rises by 5 % < 10 %
            "mixed": pairs([(t, 100.0) for t in steady],
                           [(t - 0.05 if i < 8 else t + 0.1, 105.0)
                            for i, t in enumerate(steady)]),
            # run_s wins 10 of 10, but by 0.01, inside the parent's IQR
            "noisy": pairs([(t, 100.0) for t in spread],
                           [(t - 0.01, 100.0) for t in spread]),
        }

    def test_verdicts(self):
        report = bench_pairs.build_report(self._runs(), DIRECTIONS, 13, 30,
                                          list(range(10)), bounds=self.BOUNDS)
        got = {(w, name): m["verdict"]
               for w, agg in report["workloads"].items()
               for name, m in agg["metrics"].items()}
        assert got == {("clear", "run_s"): "better",
                       ("clear", "peak_rss_mb"): "worse",
                       ("mixed", "run_s"): "unresolved",
                       ("mixed", "peak_rss_mb"): "unresolved",
                       ("noisy", "run_s"): "unresolved",
                       ("noisy", "peak_rss_mb"): "unresolved"}
        lines = bench_pairs.verdict_lines(report)
        assert len(lines) == 9
        assert lines[0] == "clear requests failed: parent 0/1000, change 0/1000"
        assert lines[1] == ("clear run_s: better (parent 0.209, change 0.159, "
                            "change won 10 of 10)")

    def test_change_failing_more_requests_is_invalid(self):
        # requests that raise return early: a change that failed 564 of
        # 5217 requests read "better" on run_s and on peak memory before
        # failures entered the verdict
        runs = self._runs()
        runs["clear"] = [(p, bench_pairs.parse_run(_stdout(
            c["metrics"]["run_s"], 90.0, failed=2 if i == 3 else 0)))
            for i, (p, c) in enumerate(runs["clear"])]
        # the parent failing as often as the change leaves the rule alone
        runs["mixed"] = [(bench_pairs.parse_run(_stdout(
            p["metrics"]["run_s"], 100.0, failed=1)),
            bench_pairs.parse_run(_stdout(c["metrics"]["run_s"], 105.0,
                                          failed=1)))
            for p, c in runs["mixed"]]
        report = bench_pairs.build_report(runs, DIRECTIONS, 13, 30,
                                          list(range(10)), bounds=self.BOUNDS)
        verdicts = {w: {n: m["verdict"] for n, m in agg["metrics"].items()}
                    for w, agg in report["workloads"].items()}
        assert verdicts["clear"] == {"run_s": "invalid", "peak_rss_mb": "invalid"}
        assert verdicts["mixed"] == {"run_s": "unresolved",
                                     "peak_rss_mb": "unresolved"}
        assert verdicts["noisy"]["run_s"] == "unresolved"
        lines = bench_pairs.verdict_lines(report)
        assert "clear requests failed: parent 0/1000, change 2/1000" in lines
        assert "mixed requests failed: parent 10/1000, change 10/1000" in lines

    def test_higher_is_better_and_few_pairs(self):
        # for a higher-is-better metric a 24 % drop is worse past a 0.2
        # bound, and a steady 5 % rise is better
        runs = self._runs()
        report = bench_pairs.build_report(
            runs, {"run_s": "higher", "peak_rss_mb": "higher"}, 13, 30,
            list(range(10)), bounds={"run_s": 0.2, "peak_rss_mb": 0.1})
        assert report["workloads"]["clear"]["metrics"]["run_s"]["verdict"] == "worse"
        assert (report["workloads"]["mixed"]["metrics"]["peak_rss_mb"]["verdict"]
                == "better")
        # five pairs cannot show 9 wins in 10, however clear the gain
        five = bench_pairs.aggregate(runs["clear"][:5], DIRECTIONS,
                                     bounds=self.BOUNDS)
        assert five["metrics"]["run_s"]["verdict"] == "unresolved"
        assert five["metrics"]["run_s"]["change_wins"] == 5


class TestReport:
    def test_previous_file_values(self, tmp_path):
        old = bench_pairs.build_report({"signal_numeric": _pairs()}, DIRECTIONS,
                                       5, 30, [1, 2, 3, 4, 5])
        (tmp_path / "BENCH_5.json").write_text(json.dumps(old))
        (tmp_path / "BENCH_12.json").write_text("{}")
        name, prev = bench_pairs.previous_bench(str(tmp_path / "BENCH_7.json"), 7)
        assert name == "BENCH_5.json"
        report = bench_pairs.build_report({"signal_numeric": _pairs()}, DIRECTIONS,
                                          7, 30, [1, 2, 3, 4, 5], name, prev)
        assert report["previous_file"] == "BENCH_5.json"
        assert report["environment"] == [ENV]
        m = report["workloads"]["signal_numeric"]["metrics"]
        assert m["run_s"]["previous"] == pytest.approx(0.03)
        json.dumps(report)

    def test_no_previous_file(self, tmp_path):
        assert bench_pairs.previous_bench(str(tmp_path / "BENCH_7.json"), 7) == (None, None)
