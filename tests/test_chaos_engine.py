"""Tests for the chaos campaign engine (repro.chaos).

Covers the action vocabulary, JSON round-trips, the seed-determined
monkey, bit-identical replay, partition/heal behaviour, the disk chaos
hooks, the faults-counter registry wiring, and the campaign report's
invariant checks.
"""

import json

import pytest

from repro import System, SystemConfig
from repro.chaos.actions import (
    CrashNode,
    CrashRecorder,
    DiskSlowdown,
    DiskStall,
    Heal,
    Partition,
    RestartNode,
    RestartRecorder,
    action_from_dict,
)
from repro.chaos.campaign import (
    ChaosCampaign,
    check_invariants,
    load_campaign,
    monkey_campaign,
)
from repro.chaos.workload import run_scenario
from repro.errors import ReproError, StorageError
from repro.net.faults import FaultPlan
from repro.net.media import PerfectBroadcast
from repro.net.transport import Transport
from repro.publishing.disk import DiskArray
from repro.sim import Engine, RngStreams


# ----------------------------------------------------------------------
# actions and serialisation
# ----------------------------------------------------------------------

def test_campaign_json_roundtrip(tmp_path):
    campaign = ChaosCampaign([
        CrashNode(1000.0, node=2),
        RestartNode(2500.0, node=2),
        Partition(3000.0, groups=((1,), (2, 3)), duration_ms=500.0),
        Heal(4000.0),
        CrashRecorder(5000.0),
        RestartRecorder(6000.0),
        DiskStall(7000.0, duration_ms=250.0),
        DiskSlowdown(8000.0, factor=3.0, duration_ms=400.0),
    ], name="everything")
    path = tmp_path / "campaign.json"
    campaign.save(str(path))
    loaded = load_campaign(str(path))
    assert loaded.name == "everything"
    assert loaded.to_dict() == campaign.to_dict()
    assert loaded.horizon_ms == 8000.0


def test_action_from_dict_rejects_unknown_kind():
    with pytest.raises(ReproError):
        action_from_dict({"kind": "set_on_fire", "at_ms": 1.0})
    with pytest.raises(ReproError):
        action_from_dict({"kind": "crash_node", "at_ms": 1.0, "bogus": 2})


def test_campaign_actions_sorted_and_armed_once():
    campaign = ChaosCampaign([CrashNode(500.0, node=1),
                              CrashNode(100.0, node=2)])
    assert [a.at_ms for a in campaign.actions] == [100.0, 500.0]
    system = System(SystemConfig(nodes=1))
    campaign.arm(system)
    with pytest.raises(ReproError):
        campaign.arm(system)


def test_skipped_actions_are_counted_not_fatal():
    """Restarting an up node (a state race with the recovery manager's
    own reboot) is a skip, not an error."""
    system = System(SystemConfig(nodes=2))
    system.boot()
    campaign = ChaosCampaign([RestartNode(100.0, node=1),
                              RestartRecorder(120.0)]).arm(system)
    system.run(500)
    assert campaign.injected == 0
    assert campaign.skipped == 2
    skips = system.obs.bus.select(scope="chaos", category="skipped")
    assert len(skips) == 2


# ----------------------------------------------------------------------
# the monkey
# ----------------------------------------------------------------------

def test_monkey_campaign_is_a_pure_function_of_seed():
    def build(seed):
        return monkey_campaign(RngStreams(seed), [1, 2, 3],
                               duration_ms=20_000.0).to_dict()

    assert build(11) == build(11)
    assert build(11) != build(12)


def test_monkey_recorder_crashes_are_paired_with_restarts():
    campaign = monkey_campaign(RngStreams(5), [1, 2], duration_ms=60_000.0,
                               kinds=("crash_recorder",), mean_gap_ms=4000.0)
    kinds = [a.kind for a in campaign.actions]
    assert kinds.count("crash_recorder") >= 2
    assert kinds.count("crash_recorder") == kinds.count("restart_recorder")


# ----------------------------------------------------------------------
# faults registry + partitions
# ----------------------------------------------------------------------

def test_fault_counters_live_in_the_medium_registry():
    """Satellite fix: FaultPlan losses/corruptions are registry counters
    (faults.*), visible in snapshots, with the attributes kept as
    compatibility properties."""
    engine = Engine()
    faults = FaultPlan()
    faults.lose_next(lambda f, node: node == 2, count=2)
    medium = PerfectBroadcast(engine, faults=faults)
    t1 = Transport(engine, medium, 1, lambda s: None)
    Transport(engine, medium, 2, lambda s: None)
    t1.send(2, "x", 64, uid=("p", 1))
    engine.run(until=2000)
    snapshot = medium.obs.registry.snapshot()
    assert snapshot["faults.losses"] == 2
    assert faults.losses == 2              # compat property, same counter
    assert snapshot["faults.corruptions"] == 0


def test_partition_drops_cross_cut_frames_only():
    engine = Engine()
    faults = FaultPlan()
    medium = PerfectBroadcast(engine, faults=faults)
    got = {1: [], 2: [], 3: []}
    t1 = Transport(engine, medium, 1, lambda s: got[1].append(s.body))
    t2 = Transport(engine, medium, 2, lambda s: got[2].append(s.body))
    Transport(engine, medium, 3, lambda s: got[3].append(s.body))
    rule = faults.partition([1], [2, 3])
    # node2 -> node3 stays inside one group: unaffected.
    t2.send(3, "same-side", 64, uid=("a", 1))
    engine.run(until=300)
    assert got[3] == ["same-side"]
    assert faults.partition_drops == 0
    # node1 -> node2 crosses the cut: dropped until the rule lifts.
    t1.send(2, "cross", 64, uid=("b", 1))
    engine.run(until=600)
    assert got[2] == []
    assert faults.partition_drops >= 1
    assert rule.hits >= 1
    faults.remove_rule(rule)
    engine.run(until=30_000)
    assert got[2] == ["cross"]           # retransmission heals the gap


def test_partition_action_heals_itself_after_duration():
    system = System(SystemConfig(nodes=2))
    system.boot()
    ChaosCampaign([Partition(100.0, groups=((1,), (2,)),
                             duration_ms=300.0)]).arm(system)
    system.run(250)
    assert len(system._partitions) == 1
    system.run(5000)
    assert not system._partitions
    checks = {c.name: c.ok for c in check_invariants(system)}
    assert checks["partitions_healed"]


# ----------------------------------------------------------------------
# disk chaos hooks
# ----------------------------------------------------------------------

def test_disk_stall_defers_operations():
    engine = Engine()
    disks = DiskArray(engine, count=1)
    baseline = disks.submit("write", 2000)
    engine.run()
    stall_end = disks.stall(500.0)
    assert stall_end == engine.now + 500.0
    done = disks.submit("write", 2000)
    assert done >= stall_end          # op starts only after the stall
    assert done - stall_end == pytest.approx(baseline)


def test_disk_slowdown_scales_service_time_and_restores():
    engine = Engine()
    disks = DiskArray(engine, count=1)
    fast = disks.submit("write", 2000)
    engine.run()
    disks.set_slowdown(4.0)
    t0 = engine.now
    slow = disks.submit("write", 2000) - max(t0, fast)
    assert slow == pytest.approx(4.0 * fast)
    disks.set_slowdown(1.0)
    with pytest.raises(StorageError):
        disks.set_slowdown(0.0)


# ----------------------------------------------------------------------
# end-to-end campaigns
# ----------------------------------------------------------------------

def test_scenario_with_faults_passes_and_replays_bit_identically():
    campaign_spec = {
        "name": "mini",
        "actions": [
            {"kind": "crash_node", "at_ms": 1500.0, "node": 2},
            {"kind": "partition", "at_ms": 4000.0,
             "groups": [[1], [2]], "duration_ms": 800.0},
            {"kind": "disk_stall", "at_ms": 5200.0, "duration_ms": 200.0},
        ],
    }

    def once():
        return run_scenario(load_campaign(campaign_spec), nodes=2, pairs=2,
                            messages=25, master_seed=99)

    first = once()
    assert first.ok, first.report.format()
    assert first.report.faults_injected == 3
    assert first.totals == [first.expected] * 2
    second = once()
    assert first.event_stream() == second.event_stream()
    assert first.report.to_dict() == second.report.to_dict()


def test_report_flags_missing_workload_and_json_shape():
    """A campaign that wedges the workload must FAIL the report."""
    campaign = ChaosCampaign([Partition(1000.0, groups=((1,), (2,)))],
                             name="never-healed")
    # Tiny deadline: the partition is still standing when we give up,
    # but run_scenario heals leftovers before reporting — the workload
    # shortfall is what must flag the failure.
    result = run_scenario(campaign, nodes=2, pairs=1, messages=30,
                          master_seed=3, deadline_ms=2000.0,
                          settle_ms=1.0)
    assert not result.ok
    payload = result.report.to_dict()
    assert payload["ok"] is False
    names = [c["name"] for c in payload["invariants"]]
    assert "workload_exact" in names
    json.dumps(payload)                  # report must be JSON-serialisable
    assert "FAIL" in result.report.format()


def test_chaos_events_ride_the_spine_in_order():
    """Every firing emits chaos.<kind> before the fault's own cascade."""
    system = System(SystemConfig(nodes=2))
    system.boot()
    ChaosCampaign([CrashNode(1000.0, node=2)]).arm(system)
    system.run(1500)
    events = list(system.obs.bus)
    chaos_idx = next(i for i, e in enumerate(events)
                     if e.scope == "chaos" and e.category == "crash_node")
    crash_idx = next(i for i, e in enumerate(events)
                     if e.scope.startswith("transport.2")
                     and e.category == "crash")
    assert chaos_idx < crash_idx
