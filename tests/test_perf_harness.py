"""The perf harness itself is under test: report schema, determinism
of the simulated figures, smoke-mode bounds, and regression comparison.
"""

import copy
import json

import pytest

from repro.perf import (
    WORKLOADS,
    compare_reports,
    format_report,
    run_suite,
    run_workload,
    write_report,
)
from repro.perf.harness import _speed_ratio

#: the cheap workloads used where the test only needs *some* report
FAST = ["engine_churn", "storm_token_ring"]


@pytest.fixture(scope="module")
def smoke_report():
    """One full smoke-mode suite, shared by the schema checks."""
    return run_suite(seed=1983, smoke=True)


def test_report_schema(smoke_report):
    assert smoke_report["schema_version"] == 1
    assert smoke_report["benchmark"] == "publishing"
    meta = smoke_report["meta"]
    assert meta["seed"] == 1983
    assert meta["mode"] == "smoke"
    assert isinstance(meta["python"], str)
    workloads = smoke_report["workloads"]
    # the acceptance floor: engine churn, three media storms, the
    # recorder pipeline and the chaos campaign
    assert [w["name"] for w in workloads] == list(WORKLOADS)
    assert len(workloads) >= 4
    for work in workloads:
        assert work["ops"] > 0
        assert work["events"] > 0
        assert work["sim_ms"] > 0
        assert work["wall_ms"] > 0
        assert work["ops_per_sec"] > 0
        assert work["events_per_sec"] > 0


def test_report_is_json_serializable_and_round_trips(smoke_report, tmp_path):
    path = tmp_path / "BENCH_publishing.json"
    write_report(smoke_report, str(path))
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(smoke_report))


def test_engine_churn_reports_baseline_comparison(smoke_report):
    churn = next(w for w in smoke_report["workloads"]
                 if w["name"] == "engine_churn")
    assert churn["baseline"]["wall_ms"] > 0
    assert churn["speedup_vs_baseline"] > 0
    # the differential harness inside the workload vouched for this
    assert churn["event_digest"] > 0


def test_recorder_pipeline_phases_cover_the_recovery_recipe(smoke_report):
    pipeline = next(w for w in smoke_report["workloads"]
                    if w["name"] == "recorder_pipeline")
    phases = pipeline["phases"]
    assert {"publish", "checkpoint", "publish_tail",
            "replay_recovery"} <= set(phases)
    assert phases["checkpoint"]["checkpoints"] > 0
    assert pipeline["messages_recorded"] > 0
    assert pipeline["recoveries"] > 0
    # the mid-stream checkpoint forces genuine replay, not just restore
    assert pipeline["messages_replayed"] > 0


def test_deterministic_figures_identical_across_runs():
    """Everything except wall-clock timing must be bit-identical when
    the same seed runs twice."""

    def deterministic_view(report):
        out = []
        for work in report["workloads"]:
            out.append({k: v for k, v in work.items()
                        if k not in ("wall_ms", "ops_per_sec",
                                     "events_per_sec", "baseline",
                                     "speedup_vs_baseline", "phases")})
        return out

    first = run_suite(seed=1983, smoke=True, only=FAST)
    second = run_suite(seed=1983, smoke=True, only=FAST)
    assert deterministic_view(first) == deterministic_view(second)


def test_different_seed_changes_the_workload():
    first = run_workload("engine_churn", seed=1, smoke=True)
    second = run_workload("engine_churn", seed=2, smoke=True)
    assert first["event_digest"] != second["event_digest"]


def test_smoke_mode_stays_under_simulated_ceiling(smoke_report):
    """Smoke mode exists for CI: every workload must cover a bounded
    stretch of simulated time (the wall-clock follows from it)."""
    for work in smoke_report["workloads"]:
        assert work["sim_ms"] <= 60_000, (
            f"{work['name']} simulated {work['sim_ms']}ms in smoke mode")


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        run_suite(smoke=True, only=["no_such_workload"])


def test_compare_reports_flags_only_real_regressions(smoke_report):
    baseline = copy.deepcopy(smoke_report)
    current = copy.deepcopy(smoke_report)
    assert compare_reports(current, baseline, tolerance=0.25) == []
    # a 50% throughput drop on one workload: flagged
    current["workloads"][0]["ops_per_sec"] /= 2.0
    failures = compare_reports(current, baseline, tolerance=0.25)
    assert len(failures) == 1
    assert current["workloads"][0]["name"] in failures[0]
    # within tolerance: not flagged
    current["workloads"][0]["ops_per_sec"] = (
        baseline["workloads"][0]["ops_per_sec"] * 0.80)
    assert compare_reports(current, baseline, tolerance=0.25) == []
    # a workload missing from the baseline is skipped, not failed
    extra = dict(baseline["workloads"][0], name="brand_new")
    current["workloads"].append(extra)
    current["workloads"][0]["ops_per_sec"] = (
        baseline["workloads"][0]["ops_per_sec"])
    assert compare_reports(current, baseline) == []


def test_best_of_keeps_fastest_repetition(monkeypatch):
    walls = iter([30.0, 10.0, 20.0])

    def fake(seed, smoke):
        return {"ops": 10, "events": 10, "sim_ms": 1.0,
                "wall_ms": next(walls), "event_digest": "abc"}

    monkeypatch.setitem(WORKLOADS, "fake_fast", fake)
    work = run_workload("fake_fast", seed=1, smoke=True, best_of=3)
    assert work["wall_ms"] == 10.0
    assert work["ops_per_sec"] == 1000.0


def test_best_of_rejects_seed_impure_workloads(monkeypatch):
    counter = iter(range(100))

    def impure(seed, smoke):
        return {"ops": next(counter), "events": 0, "sim_ms": 1.0,
                "wall_ms": 1.0}

    monkeypatch.setitem(WORKLOADS, "fake_impure", impure)
    with pytest.raises(RuntimeError, match="seed-pure"):
        run_workload("fake_impure", seed=1, smoke=True, best_of=2)


def test_compare_reports_normalises_by_machine_speed(smoke_report):
    """A throttled runner (calibration loop demonstrably slower) gets a
    proportionally lower floor; digests are still gated exactly."""
    baseline = copy.deepcopy(smoke_report)
    current = copy.deepcopy(smoke_report)
    baseline["meta"]["calibration"] = {"before": 4.0e6, "after": 4.0e6}
    current["meta"]["calibration"] = {"before": 2.0e6, "after": 2.0e6}
    # a 50% throughput drop, exactly matching the 2x slower machine:
    # not a regression
    for work in current["workloads"]:
        work["ops_per_sec"] /= 2.0
    assert compare_reports(current, baseline, tolerance=0.25) == []
    # a real drop beyond the machine-speed ratio: still flagged
    current["workloads"][0]["ops_per_sec"] /= 3.0
    failures = compare_reports(current, baseline, tolerance=0.25)
    assert len(failures) == 1 and "machine-speed scaled" in failures[0]
    # a *faster* machine never tightens the gate above the plain floor
    current = copy.deepcopy(smoke_report)
    current["meta"]["calibration"] = {"before": 9.0e6, "after": 9.0e6}
    assert compare_reports(current, baseline, tolerance=0.25) == []
    # calibration is judged like for like: each side by its slowest
    # sample
    current["meta"]["calibration"] = {"before": 4.0e6, "after": 1.0e6}
    for work in current["workloads"]:
        work["ops_per_sec"] /= 4.0
    assert compare_reports(current, baseline, tolerance=0.25) == []


def test_compare_reports_self_ratio_is_one_despite_calibration_spread(
        smoke_report):
    """Calibration samples 2x apart must not lower the floor when a
    report is compared with itself: the 50% drop is still flagged."""
    report = copy.deepcopy(smoke_report)
    report["meta"]["calibration"] = {"before": 4.0e6, "after": 2.0e6}
    assert _speed_ratio(report, report) == 1.0
    current = copy.deepcopy(report)
    current["workloads"][0]["ops_per_sec"] /= 2.0
    failures = compare_reports(current, report, tolerance=0.25)
    assert len(failures) == 1
    assert current["workloads"][0]["name"] in failures[0]


def test_suite_records_calibration(smoke_report):
    calibration = smoke_report["meta"]["calibration"]
    assert calibration["before"] > 0 and calibration["after"] > 0


def test_compare_reports_honours_throughput_opt_out(smoke_report):
    """``throughput_gated: false`` exempts a workload from the ops/sec
    tolerance (its wall clock is declared noise) while its digests stay
    pinned exactly."""
    baseline = copy.deepcopy(smoke_report)
    current = copy.deepcopy(smoke_report)
    work = next(w for w in current["workloads"] if "event_digest" in w)
    work["throughput_gated"] = False
    work["ops_per_sec"] /= 10.0
    assert compare_reports(current, baseline, tolerance=0.25) == []
    # the digest pin survives the opt-out
    work["event_digest"] = "0" * 64
    failures = compare_reports(current, baseline, tolerance=0.25)
    assert len(failures) == 1 and "event_digest" in failures[0]


def test_format_report_lists_every_workload(smoke_report):
    text = format_report(smoke_report)
    for work in smoke_report["workloads"]:
        assert work["name"] in text


def test_cli_writes_report_and_gates_regressions(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "BENCH_publishing.json"
    base = tmp_path / "baseline.json"
    argv = ["perf", "--smoke", "--seed", "7",
            "--workload", "engine_churn", "--workload", "storm_token_ring"]
    assert main(argv + ["--output", str(base)]) == 0
    # generous tolerance: this compares two live runs on a possibly
    # loaded box, and only the gating logic is under test here
    assert main(argv + ["--output", str(out), "--tolerance", "0.8",
                        "--compare", str(base)]) == 0
    report = json.loads(out.read_text())
    assert [w["name"] for w in report["workloads"]] == FAST
    # poison the baseline so the current run looks like a regression
    poisoned = json.loads(base.read_text())
    for work in poisoned["workloads"]:
        work["ops_per_sec"] *= 100.0
    base.write_text(json.dumps(poisoned))
    assert main(argv + ["--output", "", "--tolerance", "0.8",
                        "--compare", str(base)]) == 1
    # a digest mismatch is a behavioural break: gated at any tolerance
    twisted = json.loads(base.read_text())
    for work in twisted["workloads"]:
        work["ops_per_sec"] /= 100.0          # rates back in line
        if "event_digest" in work:
            work["event_digest"] += 1
    base.write_text(json.dumps(twisted))
    assert main(argv + ["--output", "", "--tolerance", "0.8",
                        "--compare", str(base)]) == 1
