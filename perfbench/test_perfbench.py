"""The benchmark's own tests: schema, negative control, seed purity.

    python3 -m pytest perfbench -q

They run the workloads at a small size, in process, so they take
seconds; the benchmark itself runs each repetition in a fresh
interpreter (see run.py).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import tracing, workloads  # noqa: E402
from perfbench.run import END_TO_END, layer_counts  # noqa: E402
from perfbench.tracing import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small(name: str, requests: int):
    """The named workload's class with fewer requests per client."""
    base = workloads.WORKLOADS[name]
    return type(f"Small{base.__name__}", (base,), {"requests": requests})


# -- schema ----------------------------------------------------------------

def test_benchmark_json_has_exactly_the_expected_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_names_units_and_bounds_are_well_formed():
    names = []
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["name"] in workloads.WORKLOADS
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_runner_reports_exactly_the_declared_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    reported = {f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")}
    reported |= set(layer_counts({}, Tracer().counts))
    reported |= {"sim.us_per_event", "rtt.samples", "trace.overhead_ratio"}
    listed = [workloads.WORKLOADS[w["name"]] for w in SPEC["workloads"]]
    if not any(w.runs_gossip for w in listed):
        # no listed workload can move the gossip layer's metrics
        reported = {k for k in reported if not k.startswith("publishing.gossip.")}
    assert {m["name"] for m in SPEC["per_layer"]} == reported


# -- negative control --------------------------------------------------------

def test_crash_replay_without_publishing_loses_the_counters():
    rep = small("crash_replay", 40)(seed=1, publishing=False).run()
    assert rep.attempted == 4 * 40
    assert rep.completed < rep.attempted
    assert any("counter saw" in note for note in rep.failures)


def test_crash_replay_with_publishing_recovers_exactly():
    rep = small("crash_replay", 40)(seed=1).run()
    reference = small("crash_replay", 40)(seed=1, faults=False).run()
    assert rep.failures == [] and rep.completed == rep.attempted
    assert rep.states == reference.states
    assert rep.recoveries and rep.recoveries[0][2] > 0


# -- seed purity ---------------------------------------------------------------

def fingerprint(rep):
    return (rep.rtt_ms, [(sim, n) for _, sim, n in rep.recoveries],
            rep.states, rep.counts)


@pytest.mark.parametrize("name", ["publish_csma", "federation_ring"])
def test_one_seed_repeats_exactly(name):
    first = small(name, 15)(seed=7).run()
    second = small(name, 15)(seed=7).run()
    assert first.failures == [] and second.failures == []
    assert fingerprint(first) == fingerprint(second)


def test_the_seed_matters():
    one = small("publish_csma", 15)(seed=1).run()
    two = small("publish_csma", 15)(seed=2).run()
    assert one.counts["sim.events_fired"] != two.counts["sim.events_fired"]
    assert one.states != two.states


def test_tracing_leaves_the_simulation_alone():
    plain = small("publish_csma", 15)(seed=3).run()
    tracer = Tracer()
    tracer.install()
    try:
        traced = small("publish_csma", 15)(seed=3).run()
    finally:
        tracer.uninstall()
    assert fingerprint(plain) == fingerprint(traced)
    calls = dict(zip(LAYERS, tracer.calls))
    for layer in ("sim", "net.frames", "net.media", "net.transport",
                  "demos.kernel", "publishing.recorder", "publishing.store",
                  "publishing.recovery_manager", "obs"):
        assert calls[layer] > 0, layer
    assert tracer.counts["net.frames.crc_calls"] > 0
    assert len(tracer.span_name) == sum(tracer.calls)


def test_every_entry_point_is_found():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


def test_a_missing_entry_point_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("repro.publishing.store", "SegmentedLog", "no_such_method",
         "publishing.store"),
        ("repro.net.frames", None, "no_such_function", "net.frames"),
    ))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == [
        "repro.publishing.store:SegmentedLog.no_such_method",
        "repro.net.frames:no_such_function"]

