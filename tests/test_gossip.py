"""The epidemic repair path (repro.publishing.gossip): bounded peer
buffers, gap tracking, pull rounds, loss injection, the recovery-time
convergence wait — and the set-convergence contract of docs/GOSSIP.md,
pinned by a hypothesis differential against the lossless recorder.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import System, SystemConfig
from repro.chaos.actions import (
    CrashNode,
    CrashRecorder,
    GossipLoss,
    RestartRecorder,
)
from repro.chaos.campaign import ChaosCampaign
from repro.chaos.workload import run_scenario
from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message
from repro.publishing.gossip import GapTracker, GossipBuffer, pull_ranges

from conftest import (
    expected_totals,
    register_test_programs,
    run_counter_scenario,
)

SENDER = ProcessId(1, 1)
DEST = ProcessId(2, 1)


def msg(seq, sender=SENDER):
    return Message(msg_id=MessageId(sender, seq), src=sender, dst=DEST,
                   channel=1, code=0, body=seq, size_bytes=100)


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
class TestGossipBuffer:
    def test_evicts_oldest_first_at_depth(self):
        buffer = GossipBuffer(depth=3)
        for seq in range(1, 5):
            buffer.note(msg(seq))
        assert len(buffer) == 3
        assert buffer.get(MessageId(SENDER, 1)) is None
        assert [m.seq for m in buffer.ids()] == [2, 3, 4]

    def test_resighting_refreshes_position(self):
        buffer = GossipBuffer(depth=2)
        buffer.note(msg(1))
        buffer.note(msg(2))
        buffer.note(msg(1))          # retransmission keeps 1 hot
        buffer.note(msg(3))          # evicts 2, not 1
        assert buffer.get(MessageId(SENDER, 2)) is None
        assert buffer.get(MessageId(SENDER, 1)) is not None

    def test_clear_models_node_crash(self):
        buffer = GossipBuffer(depth=4)
        buffer.note(msg(1))
        buffer.clear()
        assert len(buffer) == 0


class TestGapTracker:
    def test_frontier_jump_flags_the_holes_between(self):
        tracker = GapTracker()
        assert tracker.note_recorded(MessageId(SENDER, 1)) == []
        fresh = tracker.note_recorded(MessageId(SENDER, 4))
        assert fresh == [MessageId(SENDER, 2), MessageId(SENDER, 3)]
        assert tracker.outstanding() == fresh

    def test_recording_a_flagged_id_resolves_it(self):
        tracker = GapTracker()
        tracker.note_recorded(MessageId(SENDER, 1))
        tracker.note_recorded(MessageId(SENDER, 3))
        assert tracker.outstanding() == [MessageId(SENDER, 2)]
        tracker.note_recorded(MessageId(SENDER, 2))
        assert tracker.outstanding() == []

    def test_abandoned_ids_are_never_reflagged(self):
        tracker = GapTracker()
        tracker.note_recorded(MessageId(SENDER, 1))
        tracker.note_recorded(MessageId(SENDER, 3))
        hole = MessageId(SENDER, 2)
        tracker.abandon(hole)
        assert not tracker.flag(hole)
        assert tracker.outstanding() == []
        assert hole in tracker.gave_up

    def test_frontiers_are_per_sender(self):
        tracker = GapTracker()
        other = ProcessId(3, 1)
        tracker.note_recorded(MessageId(SENDER, 2))
        assert tracker.note_recorded(MessageId(other, 1)) == []


# ----------------------------------------------------------------------
# wiring: buffers fill from the wire, loss opens holes, rounds close them
# ----------------------------------------------------------------------
def build_gossip_system(loss_rate=0.0, seed=7, **overrides):
    system = System(SystemConfig(nodes=2, master_seed=seed, gossip=True,
                                 gossip_loss_rate=loss_rate,
                                 gossip_round_ms=100.0, **overrides))
    register_test_programs(system)
    system.boot()
    return system


def drive_to_completion(system, driver_pid, n, budget_ms=300_000):
    deadline = system.engine.now + budget_ms
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= n:
            return driver
        system.run(1000)
    return system.program_of(driver_pid)


def recorded_sets(system):
    """Per-process recorded id sets (the convergence contract's unit)."""
    return {pid: set(record.recorded_ids)
            for pid, record in system.recorder.db.records.items()}


def test_buffers_fill_from_published_traffic():
    system = build_gossip_system()
    counter_pid, driver_pid = run_counter_scenario(system, n=10)
    drive_to_completion(system, driver_pid, 10)
    assert all(len(node.gossip_buffer) > 0
               for node in system.nodes.values())
    snap = system.metrics_snapshot()
    assert snap["gossip.buffered"] > 0


def test_reception_loss_opens_holes_and_rounds_repair_them():
    system = build_gossip_system(loss_rate=0.3)
    counter_pid, driver_pid = run_counter_scenario(system, n=30)
    driver = drive_to_completion(system, driver_pid, 30)
    assert driver.replies == expected_totals(30)
    system.run(2000)                 # a few extra rounds to converge
    snap = system.metrics_snapshot()
    assert snap["gossip.receptions_dropped"] > 0
    assert snap["gossip.messages_repaired"] > 0
    assert snap["gossip.outstanding"] == 0
    assert snap["gossip.gave_up"] == 0
    # every dropped reception was repaired into the log: the recorded
    # sets match a lossless run of the same seed
    lossless = build_gossip_system(loss_rate=0.0)
    c2, d2 = run_counter_scenario(lossless, n=30)
    drive_to_completion(lossless, d2, 30)
    lossless.run(2000)
    assert recorded_sets(system) == recorded_sets(lossless)


def test_zero_rate_loss_makes_no_rng_draws():
    """gossip_loss_rate=0 must leave legacy seeds byte-identical: the
    loss hook exists but never touches its stream."""
    system = build_gossip_system(loss_rate=0.0)
    assert system.reception_loss is None      # hook not even installed
    assert system.medium.recorder_loss is None
    counter_pid, driver_pid = run_counter_scenario(system, n=10)
    drive_to_completion(system, driver_pid, 10)
    snap = system.metrics_snapshot()
    assert "gossip.receptions_dropped" not in snap
    assert snap["gossip.pulls_lost"] == 0


def test_recovery_pulls_hole_before_replay():
    """A counter crash while the log still has holes: recovery waits
    for the pull rounds, then replays — the workload stays exact."""
    system = build_gossip_system(loss_rate=0.25, seed=11)
    counter_pid, driver_pid = run_counter_scenario(system, n=40)
    system.run(900)
    system.crash_process(counter_pid)
    driver = drive_to_completion(system, driver_pid, 40)
    assert driver.replies == expected_totals(40)
    counter = system.program_of(counter_pid)
    # Repaired messages replay at their (late) repair arrival index, so
    # the interleave may differ from first transmission — what converges
    # is the set (docs/GOSSIP.md), and the commutative sum stays exact.
    assert sorted(counter.seen) == list(range(1, 41))
    snap = system.metrics_snapshot()
    assert snap["gossip.receptions_dropped"] > 0


def test_spare_takeover_gets_a_fresh_buffer():
    system = System(SystemConfig(nodes=2, gossip=True,
                                 reboot_policy="spare"))
    register_test_programs(system)
    system.boot()
    counter_pid, driver_pid = run_counter_scenario(system, n=20)
    system.run(900)
    old_buffer = system.nodes[2].gossip_buffer
    system.crash_node(2)
    driver = drive_to_completion(system, driver_pid, 20)
    assert driver.replies == expected_totals(20)
    spare = system.nodes[2]
    assert spare.gossip_buffer is not None
    assert spare.gossip_buffer is not old_buffer


# ----------------------------------------------------------------------
# the acceptance scenario: recorder outage mid-traffic
# ----------------------------------------------------------------------
def outage_campaign():
    return ChaosCampaign([CrashRecorder(1000.0),
                          RestartRecorder(2200.0),
                          CrashNode(3600.0, node=2)],
                         name="gossip_acceptance")


def run_outage(gossip: bool):
    return run_scenario(outage_campaign(), nodes=2, pairs=1, messages=30,
                        master_seed=1983, settle_ms=8000.0,
                        config_overrides={"gossip": gossip,
                                          "transport_max_retries": 6})


def test_recorder_outage_heals_by_pull_and_recovery_is_exact():
    result = run_outage(gossip=True)
    assert result.ok, result.report.format()
    assert result.totals == [result.expected]
    snap = result.system.metrics_snapshot()
    assert snap["gossip.messages_repaired"] > 0
    assert snap["gossip.outstanding"] == 0
    assert snap["gossip.gave_up"] == 0
    assert result.system.dead_letters == []


def test_recorder_outage_without_gossip_dead_letters():
    """The contrast arm: same faults, no repair path, tight retry
    budget — the guaranteed sends give up and the workload diverges."""
    result = run_outage(gossip=False)
    assert not result.ok
    assert len(result.system.dead_letters) > 0
    assert result.totals != [result.expected]
    # satellite 2: the ledger entries are structured and field-named
    letter = result.system.dead_letters[0]
    origin, payload, attempts = letter      # tuple shape preserved
    assert letter.origin == origin
    assert letter.attempts == attempts >= 1


def test_acceptance_scenario_is_deterministic():
    first = run_outage(gossip=True)
    second = run_outage(gossip=True)
    assert first.event_stream() == second.event_stream()


# ----------------------------------------------------------------------
# the range-based pull wire format
# ----------------------------------------------------------------------
def test_pull_ranges_compresses_contiguous_runs():
    a, b = ProcessId(1, 1), ProcessId(2, 1)
    batch = [MessageId(a, 3), MessageId(a, 4), MessageId(a, 5),
             MessageId(a, 9), MessageId(b, 1), MessageId(b, 2)]
    assert pull_ranges(batch) == [((1, 1), 3, 6), ((1, 1), 9, 10),
                                  ((2, 1), 1, 3)]
    assert pull_ranges([]) == []


def test_range_pulls_cost_fewer_control_bytes_on_contiguous_holes():
    """The satellite-1 before/after: a recorder outage opens one long
    contiguous hole per sender, which the `[lo, hi)` encoding ships in
    a handful of runs while the flat id list pays per message. The
    shadow counter meters what the old format *would* have cost."""
    result = run_outage(gossip=True)
    snap = result.system.metrics_snapshot()
    assert snap["gossip.pull_bytes"] > 0
    assert snap["gossip.pull_bytes"] < snap["gossip.pull_bytes_flat"]


# ----------------------------------------------------------------------
# the chaos action
# ----------------------------------------------------------------------
def test_gossip_loss_action_sets_and_restores_rate():
    campaign = ChaosCampaign([GossipLoss(800.0, rate=0.5,
                                         duration_ms=1000.0)],
                             name="loss_window")
    result = run_scenario(campaign, nodes=2, pairs=1, messages=25,
                          master_seed=5, settle_ms=6000.0,
                          config_overrides={"gossip": True})
    assert result.ok, result.report.format()
    system = result.system
    assert system.reception_loss is not None
    assert system.reception_loss.rate == 0.0   # restored after the window
    snap = system.metrics_snapshot()
    assert snap["gossip.receptions_dropped"] > 0
    assert snap["gossip.outstanding"] == 0


def test_gossip_loss_action_round_trips_json():
    from repro.chaos.actions import action_from_dict
    action = GossipLoss(500.0, rate=0.3, duration_ms=200.0)
    assert action_from_dict(action.to_dict()) == action


# ----------------------------------------------------------------------
# satellite 4: the hypothesis differential — recorder-only lossless vs
# recorder+gossip lossy converge to identical recorded sets whenever
# the repair converged (nothing outstanding, nothing abandoned)
# ----------------------------------------------------------------------
def run_plain(seed, n, loss_rate, depth):
    campaign = ChaosCampaign([], name="differential")
    return run_scenario(campaign, nodes=2, pairs=1, messages=n,
                        master_seed=seed, checkpoint_policy=None,
                        settle_ms=4000.0,
                        config_overrides={
                            "gossip": loss_rate is not None,
                            "gossip_loss_rate": loss_rate or 0.0,
                            "gossip_buffer_depth": depth,
                            "gossip_round_ms": 100.0,
                            "gossip_max_retries": 16,
                        })


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(1, 10_000),
       loss=st.floats(0.0, 0.4),
       depth=st.sampled_from([64, 256]),
       n=st.integers(4, 12))
def test_lossy_gossip_converges_to_lossless_recorded_sets(
        seed, loss, depth, n):
    lossless = run_plain(seed, n, None, depth)
    assert lossless.ok, lossless.report.format()
    lossy = run_plain(seed, n, loss, depth)
    snap = lossy.system.metrics_snapshot()
    assume(lossy.ok)
    assume(snap["gossip.outstanding"] == 0 and snap["gossip.gave_up"] == 0)
    assert recorded_sets(lossy.system) == recorded_sets(lossless.system)
    assert lossy.totals == lossless.totals == [lossless.expected]
