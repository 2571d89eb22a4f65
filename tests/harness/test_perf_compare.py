"""tools/perf_compare.py: the judge, run validity and pair order.

Every sample is synthetic; no perfbench process runs.
"""

import contextlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "perf_compare", ROOT / "tools" / "perf_compare.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("perf_compare", mod)
    spec.loader.exec_module(mod)
    return mod


tool = _tool()

#: ten samples around 100 with an IQR/median of about 2%
SPREAD = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def _output(metrics, rounds=2, correct=True, failed=0, override=False):
    info = {"info": {"rounds": rounds, "override_set": override,
                     "overrides": {"REPRO_X": "1"} if override else {},
                     "errors": []}}
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": "-"}
                          for k, v in metrics.items()}}
    return "warm-up log\n" + json.dumps(info) + "\n" + json.dumps(result)


def _metrics(trace, scale=1.0):
    names = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    return {m["name"]: 10.0 * (scale if m["name"] == "sim_inst_per_s"
                               else 1.0) for m in names}


class _Harness:
    """main() with git, the export and perfbench replaced by fakes."""

    def __init__(self, monkeypatch, tmp_path, change=None):
        self.calls = []
        self.base_root = tmp_path
        self.base = lambda trace: (0, _output(_metrics(trace)))
        self.change = change or self.base
        monkeypatch.setattr(tool, "git", lambda *args: "c0ffee")
        monkeypatch.setattr(tool, "exported", self._exported)
        monkeypatch.setattr(tool, "run_perfbench", self._run)

    @contextlib.contextmanager
    def _exported(self, commit):
        yield self.base_root

    def _run(self, root, workload, seconds, trace):
        side = "base" if root == self.base_root else "change"
        self.calls.append((side, trace))
        return (self.base if side == "base" else self.change)(trace)


class TestJudge:
    def test_identical_samples_not_flagged(self):
        for better in ("higher", "lower"):
            v = tool.judge_metric(SPREAD, list(SPREAD), better, 0.25)
            assert v["verdict"] == "-"
            assert v["wins"] == 0
            assert v["p"] == pytest.approx(1.0)

    @pytest.mark.parametrize("better, factor, verdict", [
        ("higher", 1.1, "better"), ("higher", 0.9, "worse"),
        ("lower", 1.1, "worse"), ("lower", 0.9, "better"),
    ])
    def test_ten_percent_shift_flagged_in_direction(self, better, factor,
                                                    verdict):
        change = [x * factor for x in SPREAD]
        v = tool.judge_metric(SPREAD, change, better, 0.25)
        assert v["verdict"] == verdict
        assert v["p"] < 0.05
        assert abs(v["shift_vs_iqr"]) > 1
        assert v["wins"] == (10 if verdict == "better" else 0)

    def test_wide_parent_spread_is_unresolved(self):
        base = [60.0, 100.0, 140.0, 80.0, 120.0]
        v = tool.judge_metric(base, list(base), "higher", 0.25)
        assert v["base_iqr"] / v["base_median"] > 0.25
        assert v["verdict"] == "unresolved"

    @pytest.mark.parametrize("better, factor", [("higher", 0.7),
                                                ("lower", 1.3)])
    def test_median_worse_than_bound_is_regression(self, better, factor):
        v = tool.judge_metric(SPREAD, [x * factor for x in SPREAD],
                              better, 0.25)
        assert v["verdict"] == "regression"

    def test_worse_median_not_confirmed_by_pairs_is_unresolved(self):
        """BENCH_16.json: mg-suite job_p95_ms read +28% against its 25%
        bound with the change better in 3 of 5 pairs (p = 0.84)."""
        runs = json.loads((ROOT / "BENCH_16.json").read_text(
            encoding="utf-8"))["workloads"]["mg-suite"]["runs"]
        base, change = ([run["trace0"]["metrics"]["job_p95_ms"]
                         for run in runs[side]]
                        for side in ("base", "change"))
        v = tool.judge_metric(base, change, "lower", 0.25)
        assert v["change_median"] / v["base_median"] - 1 > 0.25
        assert v["wins"] == 3
        assert v["verdict"] == "unresolved"

    def test_consistent_thirty_percent_is_regression(self):
        base = [100.0, 90.0, 110.0, 95.0, 105.0]
        v = tool.judge_metric(base, [x * 1.3 for x in base], "lower", 0.25)
        assert v["wins"] == 0
        assert v["verdict"] == "regression"

    def test_worse_within_bound_is_not_regression(self):
        v = tool.judge_metric(SPREAD, [x * 0.8 for x in SPREAD], "higher",
                              0.25)
        assert v["verdict"] == "worse"

    def test_ties_count_for_neither_side(self):
        v = tool.judge_metric([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], "higher")
        assert v["wins"] == 1

    def test_counts_compared_exactly(self):
        same = tool.judge_count([(3, 300.0), (2, 200.0)],
                                [(2, 200.0), (3, 300.0)])
        assert same["verdict"] == "equal"
        assert same["base_median"] == same["change_median"] == 100.0
        off_by_one = tool.judge_count([(3, 300.0)], [(3, 301.0)])
        assert off_by_one["verdict"] == "differs"
        # no round count in common: equal only through an invariant
        fixed = tool.judge_count([(2, 40.0), (4, 40.0)], [(3, 40.0)])
        assert fixed["verdict"] == "equal"
        proportional = tool.judge_count([(2, 200.0)], [(3, 300.0)])
        assert proportional["verdict"] == "equal"
        disjoint = tool.judge_count([(2, 200.0)], [(3, 360.0)])
        assert disjoint["verdict"] == "unresolved"
        assert disjoint["change_median"] == 120.0
        # a count that varies by round is compared at shared round counts
        varying = tool.judge_count([(2, 200.0), (3, 330.0)], [(3, 330.0)])
        assert varying["verdict"] == "equal"
        assert tool.judge_count([(2, 200.0), (3, 330.0)],
                                [(3, 331.0)])["verdict"] == "differs"

    def test_timing_dependent_counts_vary(self):
        """BENCH_19.json: serve-mix polls and coalesced submissions
        differ between runs of one side at the same round count; the
        replays count does not."""
        runs = json.loads((ROOT / "BENCH_19.json").read_text(
            encoding="utf-8"))["workloads"]["serve-mix"]["runs"]

        def judge(name):
            return tool.judge_count(*[
                [(r["trace1"]["rounds"], r["trace1"]["metrics"][name])
                 for r in runs[side]] for side in ("base", "change")])

        assert judge("serve.polls_per_job")["verdict"] == "varies"
        assert judge("serve.coalesced")["verdict"] == "varies"
        assert judge("serve.replays")["verdict"] == "equal"
        # one side disagreeing with itself varies, whatever the other does
        assert tool.judge_count([(3, 300.0), (3, 301.0)],
                                [(3, 300.0)])["verdict"] == "varies"


class TestPerRound:
    def _runs(self, rounds_and_scale):
        return [{"trace0": {"rounds": r, "metrics": _metrics(0)},
                 "trace1": {"rounds": r, "metrics": {
                     k: v * r * s for k, v in _metrics(1).items()}}}
                for r, s in rounds_and_scale]

    def test_layer_totals_divided_by_rounds(self):
        runs = {"base": self._runs([(2, 1.0)] * 5),
                "change": self._runs([(3, 1.0)] * 5)}
        verdicts = tool.judge_workload(runs, SPEC)
        assert verdicts["unattributed_s"]["base_median"] == 10.0
        assert verdicts["unattributed_s"]["change_median"] == 10.0
        assert verdicts["unattributed_s"]["verdict"] == "-"
        assert verdicts["core.detector.calls"]["change_median"] == 10.0
        # a self time is a share of the run's traced wall time
        assert verdicts["core.detector.self_s"]["base_median"] == 1.0
        assert verdicts["core.detector.self_s"]["change_median"] == 1.0
        assert verdicts["core.detector.self_s"]["verdict"] == "-"
        # a fraction is not a total: it is not divided
        assert verdicts["memory.l1_hit_rate"]["change_median"] == 30.0
        # nor is an end-to-end metric: setup_s is a one-off cost
        for m in SPEC["end_to_end"]:
            v = verdicts[m["name"]]
            assert v["base_median"] == v["change_median"] == 10.0
            assert v["verdict"] == "-"

    def test_slower_layer_flagged_as_share(self):
        runs = {"base": self._runs([(2, 1.0 + i / 100) for i in range(8)]),
                "change": self._runs([(3, 1.2 + i / 100)
                                      for i in range(8)])}
        for run in runs["change"]:
            run["trace1"]["metrics"]["core.detector.self_s"] *= 1.2
        verdicts = tool.judge_workload(runs, SPEC)
        assert verdicts["core.detector.self_s"]["verdict"] == "worse"
        # every run scales its counts too, so runs of one side disagree
        assert verdicts["core.detector.calls"]["verdict"] == "varies"


class TestHostNoise:
    """Ten pairs whose runs each see a host-wide factor within +-15%."""

    #: the host factor of each run: it scales every layer and the wall
    HOST = [0.85, 1.15, 0.9, 1.1, 0.95, 1.05, 0.88, 1.12, 1.0, 0.97]
    #: per-run jitter of the layer itself, about 1%
    JITTER = [1.0, 1.01, 0.99, 1.005, 0.995, 1.0, 1.01, 0.99, 1.0, 1.005]

    def _runs(self, host, layer_factor):
        runs = []
        for h, j in zip(host, self.JITTER):
            metrics = _metrics(1)
            layer = 3.0 * layer_factor * j * h * 2
            metrics["core.detector.self_s"] = layer
            metrics[tool.WALL] = 7.0 * h * 2 + layer
            runs.append({"trace0": {"rounds": 2, "metrics": _metrics(0)},
                         "trace1": {"rounds": 2, "metrics": metrics}})
        return runs

    def test_ten_percent_layer_slowdown_flagged_as_share(self):
        runs = {"base": self._runs(self.HOST, 1.0),
                "change": self._runs(self.HOST[::-1], 1.1)}
        verdicts = tool.judge_workload(runs, SPEC)
        assert verdicts["core.detector.self_s"]["verdict"] == "worse"
        # seconds per round carry the host factor and hide the slowdown
        per_round = {side: [run["trace1"]["metrics"]["core.detector.self_s"]
                            / run["trace1"]["rounds"] for run in runs[side]]
                     for side in runs}
        assert tool.judge_metric(per_round["base"], per_round["change"],
                                 "lower")["verdict"] == "-"

    def test_identical_samples_flag_nothing(self):
        runs = self._runs(self.HOST, 1.0)
        verdicts = tool.judge_workload({"base": runs, "change": runs}, SPEC)
        assert {v["verdict"] for v in verdicts.values()} <= {"-", "equal"}


class TestMultipleComparisons:
    """Holm-Bonferroni over the ~40 metrics one workload judges."""

    #: p = 0.026 against SPREAD, median shift 4.25 against an IQR of 1.75
    BORDERLINE = [103.0, 103.5, 104.0, 104.5, 105.0, 105.5, 106.0, 106.5,
                  95.0, 96.0]

    def _verdicts(self, base, change, name="serve.upload_ms"):
        def runs(samples):
            out = []
            for value in samples:
                metrics = _metrics(1)
                metrics[name] = value
                out.append({"trace0": {"rounds": 2, "metrics": _metrics(0)},
                            "trace1": {"rounds": 2, "metrics": metrics}})
            return out

        return tool.judge_workload({"base": runs(base),
                                    "change": runs(change)}, SPEC)

    def test_holm_adjusts_step_down(self):
        assert tool.holm([0.01, 0.04, 0.03]) == pytest.approx(
            [0.03, 0.06, 0.06])
        assert tool.holm([0.5, 0.9]) == [1.0, 1.0]
        assert tool.holm([]) == []

    def test_borderline_metric_among_forty_is_not_flagged(self):
        alone = tool.judge_metric(SPREAD, self.BORDERLINE, "lower")
        assert alone["p"] == pytest.approx(0.026, abs=0.001)
        assert alone["verdict"] == "worse"
        verdicts = self._verdicts(SPREAD, self.BORDERLINE)
        family = [v for v in verdicts.values() if "p" in v]
        assert len(family) >= 40
        v = verdicts["serve.upload_ms"]
        assert v["p_holm"] == min(1.0, len(family) * v["p"])
        assert v["verdict"] == "-"

    def test_ten_separated_pairs_are_still_flagged(self):
        v = self._verdicts(SPREAD, [x * 1.1 for x in SPREAD])[
            "serve.upload_ms"]
        assert v["wins"] == 0
        assert v["p_holm"] < tool.ALPHA
        assert v["verdict"] == "worse"

    def test_five_pairs_flag_nothing(self):
        """The least two-sided U p at 5 pairs, 2/252, is above 0.05/40."""
        v = self._verdicts(SPREAD[:5], [x * 2 for x in SPREAD[:5]])[
            "serve.upload_ms"]
        assert v["p"] == pytest.approx(2 / 252)
        assert v["verdict"] == "-"

    def test_end_to_end_regression_is_not_corrected(self):
        def runs(scale):
            return [{"trace0": {"rounds": 2, "metrics": dict(
                        _metrics(0), job_p95_ms=scale * x)},
                     "trace1": {"rounds": 2, "metrics": _metrics(1)}}
                    for x in SPREAD[:5]]

        v = tool.judge_workload({"base": runs(1.0), "change": runs(2.0)},
                                SPEC)["job_p95_ms"]
        assert v["p_holm"] >= tool.ALPHA
        assert v["verdict"] == "regression"


class TestRuns:
    def test_loading_the_tool_leaves_scipy_unimported(self):
        """perfbench children inherit the tool's peak RSS, so loading
        it must not pull in scipy (~99 MB resident)."""
        code = ("import importlib.util, sys\n"
                "spec = importlib.util.spec_from_file_location(\n"
                f"    'perf_compare', {str(ROOT / 'tools' / 'perf_compare.py')!r})\n"
                "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
                "assert 'scipy' not in sys.modules, 'scipy imported'\n")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_order_alternates_across_pairs(self):
        assert tool.schedule(4) == [("base", "change"), ("change", "base"),
                                    ("base", "change"), ("change", "base")]

    def test_each_side_runs_trace_0_then_1(self, monkeypatch, tmp_path):
        h = _Harness(monkeypatch, tmp_path)
        assert tool.main(["HEAD", "--workload", "fuzz-sweep",
                          "--pairs", "3"]) == 0
        assert h.calls == [
            ("base", 0), ("base", 1), ("change", 0), ("change", 1),
            ("change", 0), ("change", 1), ("base", 0), ("base", 1),
            ("base", 0), ("base", 1), ("change", 0), ("change", 1)]

    def test_regression_exits_1_and_is_recorded(self, monkeypatch,
                                                tmp_path, capsys):
        _Harness(monkeypatch, tmp_path / "base",
                 change=lambda trace: (0, _output(_metrics(trace, 0.5))))
        record = tmp_path / "BENCH_99.json"
        assert tool.main(["HEAD", "--workload", "mg-suite", "--pairs", "4",
                          "--record", str(record)]) == 1
        assert "verdict: regression" in capsys.readouterr().out
        data = json.loads(record.read_text(encoding="utf-8"))
        assert data["schema"] == 2
        assert data["verdict"] == "regression"
        assert data["regressions"] == ["mg-suite/sim_inst_per_s"]
        mg = data["workloads"]["mg-suite"]
        assert len(mg["runs"]["change"]) == 4
        assert mg["metrics"]["sim_inst_per_s"]["change_median"] == 5.0

    def test_metric_missing_from_base_exits_2(self, monkeypatch, tmp_path,
                                              capsys):
        h = _Harness(monkeypatch, tmp_path)
        metrics = _metrics(1)
        del metrics["core.detector.calls"]
        h.base = lambda trace: (0, _output(metrics if trace
                                           else _metrics(0)))
        assert tool.main(["HEAD", "--workload", "mg-suite",
                          "--pairs", "2"]) == 2
        assert "core.detector.calls" in capsys.readouterr().err

    def test_failed_export_exits_2(self, monkeypatch, tmp_path):
        _Harness(monkeypatch, tmp_path)

        @contextlib.contextmanager
        def broken(commit):
            raise tool.subprocess.CalledProcessError(2, "tar")
            yield

        monkeypatch.setattr(tool, "exported", broken)
        assert tool.main(["HEAD", "--workload", "mg-suite"]) == 2

    @pytest.mark.parametrize("result", [
        (0, _output(_metrics(0), correct=False)),
        (0, _output(_metrics(0), failed=1)),
        (0, _output(_metrics(0), override=True)),
        (1, ""),
    ], ids=["incorrect", "failed", "override_set", "nonzero_exit"])
    def test_invalid_run_exits_2(self, monkeypatch, tmp_path, result):
        h = _Harness(monkeypatch, tmp_path, change=lambda trace: result)
        assert tool.main(["HEAD", "--workload", "paper-suite",
                          "--pairs", "5"]) == 2
        # the comparison stops at the first invalid run
        assert h.calls[-1] == ("change", 0)
