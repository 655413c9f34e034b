"""Benchmark harness tests: runner mechanics, artifact schema, profiling.

Timing runs use a synthetic micro-suite (so the suite stays tier-1 fast);
one integration test exercises the real ``symbolic`` suite end to end.
"""

import json
import math

from repro.bench import (
    SCHEMA,
    SUITES,
    BenchReport,
    LegResult,
    Suite,
    SuiteResult,
    guard_overhead_gate,
    machine_fingerprint,
    planner_speedup_gate,
    profile_suites,
    render_report,
    run_bench,
)
from repro.guard import active as guard_active


def _micro_suite(log=None):
    def run(cache, planner=True):
        total = sum(range(200 if cache else 400))
        if log is not None:
            log.append((cache, planner, total))

    return Suite("micro", "synthetic micro workload", run)


class TestRunner:
    def test_runs_warmup_and_trials_in_every_leg(self):
        log = []
        run_bench([_micro_suite(log)], warmup=2, trials=3)
        # Leg order: cache-on, cache-off, guard, legacy — 2 warmup + 3
        # timed each (the guard and legacy legs reuse the cached config
        # with the planner off).
        configs = [entry[:2] for entry in log]
        assert configs == (
            [(True, True)] * 5
            + [(False, True)] * 5
            + [(True, False)] * 5
            + [(True, False)] * 5
        )

    def test_guard_leg_runs_governed(self):
        seen = []

        def run(cache, planner=True):
            seen.append((cache, planner, guard_active() is not None))

        run_bench([Suite("micro", "governed probe", run)], warmup=0, trials=1)
        assert seen == [
            (True, True, False),
            (False, True, False),
            (True, False, True),  # only the guard leg activates a governor
            (True, False, False),  # legacy: planner off, ungoverned
        ]

    def test_report_statistics(self):
        report = run_bench([_micro_suite()], warmup=0, trials=5)
        result = report.suites["micro"]
        for leg in ("on", "off", "guard", "legacy"):
            stats = result.legs[leg]
            assert len(stats.trials) == 5
            assert stats.median_s > 0
            assert min(stats.trials) <= stats.median_s <= max(stats.trials)
            assert stats.iqr_s >= 0
        assert result.speedup > 0
        assert result.guard_overhead > 0
        assert result.planner_speedup > 0

    def test_median_is_the_statistical_median(self):
        report = run_bench([_micro_suite()], warmup=0, trials=3)
        stats = report.suites["micro"].legs["on"]
        assert stats.median_s == sorted(stats.trials)[1]

    def test_guard_overhead_baselines_against_legacy(self):
        result = SuiteResult("micro", "synthetic")
        result.legs["on"] = LegResult("micro", "on", [1.0])
        result.legs["legacy"] = LegResult("micro", "legacy", [2.0])
        result.legs["guard"] = LegResult("micro", "guard", [2.1])
        # Guard runs the per-pair path, so its overhead is judged against
        # the legacy leg (2.1/2.0), not the planned "on" leg (2.1/1.0).
        assert math.isclose(result.guard_overhead, 1.05)
        del result.legs["legacy"]
        assert math.isclose(result.guard_overhead, 2.1)


class TestArtifact:
    def test_schema_and_shape(self, tmp_path):
        report = run_bench([_micro_suite()], warmup=0, trials=2)
        path = tmp_path / "BENCH_omega.json"
        report.write(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        assert payload["settings"] == {"warmup": 0, "trials": 2}
        for key in ("platform", "python", "implementation", "cpus"):
            assert key in payload["machine"]
        legs = payload["suites"]["micro"]["legs"]
        assert set(legs) == {"on", "off", "guard", "legacy"}
        for leg in legs.values():
            assert {"median_s", "iqr_s", "min_s", "max_s", "trials_s"} <= set(leg)
            assert len(leg["trials_s"]) == 2
        assert payload["suites"]["micro"]["cache_speedup"] > 0
        assert payload["suites"]["micro"]["guard_overhead"] > 0
        assert payload["suites"]["micro"]["planner_speedup"] > 0

    def test_fingerprint_is_stable_within_a_process(self):
        assert machine_fingerprint() == machine_fingerprint()

    def test_render_report_table(self):
        report = run_bench([_micro_suite()], warmup=0, trials=2)
        table = render_report(report)
        assert "micro" in table
        assert "cache speedup" in table
        assert "guard overhead" in table
        assert "planner speedup" in table
        assert "median" in table and "iqr" in table


class TestGuardOverheadGate:
    @staticmethod
    def _report(baseline, guard, suite="corpus"):
        result = SuiteResult(suite, "synthetic")
        result.legs["legacy"] = LegResult(suite, "legacy", [baseline])
        result.legs["guard"] = LegResult(suite, "guard", [guard])
        return BenchReport({suite: result}, {}, 0, 1)

    def test_passes_under_threshold(self):
        ok, message = guard_overhead_gate(self._report(1.0, 1.02))
        assert ok
        assert "PASS" in message

    def test_fails_over_threshold(self):
        ok, message = guard_overhead_gate(self._report(1.0, 1.20))
        assert not ok
        assert "FAIL" in message

    def test_threshold_override(self):
        ok, _ = guard_overhead_gate(self._report(1.0, 1.20), threshold=0.5)
        assert ok

    def test_skips_when_suite_missing(self):
        ok, message = guard_overhead_gate(BenchReport({}, {}, 0, 1))
        assert ok
        assert "skipped" in message


class TestPlannerSpeedupGate:
    @staticmethod
    def _report(pairs):
        suites = {}
        for name, (on, legacy) in pairs.items():
            result = SuiteResult(name, "synthetic")
            result.legs["on"] = LegResult(name, "on", [on])
            if legacy is not None:
                result.legs["legacy"] = LegResult(name, "legacy", [legacy])
            suites[name] = result
        return BenchReport(suites, {}, 0, 1)

    def test_passes_when_both_suites_beat_the_floor(self):
        report = self._report(
            {"corpus": (1.0, 1.5), "cholsky": (1.0, 1.4)}
        )
        ok, message = planner_speedup_gate(report)
        assert ok
        assert "PASS" in message
        assert "corpus 1.50x" in message and "cholsky 1.40x" in message

    def test_fails_when_one_suite_misses_the_floor(self):
        report = self._report(
            {"corpus": (1.0, 1.5), "cholsky": (1.0, 1.1)}
        )
        ok, message = planner_speedup_gate(report)
        assert not ok
        assert "FAIL" in message

    def test_threshold_override(self):
        report = self._report({"corpus": (1.0, 1.1), "cholsky": (1.0, 1.1)})
        ok, _ = planner_speedup_gate(report, threshold=1.05)
        assert ok

    def test_skips_suites_without_a_legacy_leg(self):
        report = self._report({"corpus": (1.0, 1.5), "cholsky": (1.0, None)})
        ok, message = planner_speedup_gate(report)
        assert ok
        assert "cholsky" not in message

    def test_skips_when_nothing_benchmarked(self):
        ok, message = planner_speedup_gate(BenchReport({}, {}, 0, 1))
        assert ok
        assert "skipped" in message


class TestRegisteredSuites:
    def test_paper_suites_registered(self):
        assert {"corpus", "cholsky", "symbolic"} <= set(SUITES)

    def test_symbolic_suite_end_to_end(self):
        report = run_bench([SUITES["symbolic"]], warmup=0, trials=1)
        legs = report.suites["symbolic"].legs
        assert legs["on"].median_s > 0
        assert legs["off"].median_s > 0


class TestProfileIntegration:
    def test_profile_suites_produces_hotspots(self):
        profile = profile_suites([SUITES["symbolic"]])
        assert profile.root_time > 0
        assert math.isclose(
            profile.total_self_time(), profile.root_time, rel_tol=0.01
        )
        names = set(profile.profiles)
        assert "omega.is_satisfiable" in names
        table = profile.hotspot_table(limit=5)
        assert "self%" in table
        assert profile.collapsed_stacks().strip()
