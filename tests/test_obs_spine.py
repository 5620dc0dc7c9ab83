"""The instrumentation spine: event bus, metrics registry, determinism.

Covers the `repro.obs` primitives in isolation and the end-to-end
guarantees the spine makes: two identical runs produce bit-identical
event streams and metric snapshots, a disabled scope emits nothing, and
the legacy stats surfaces are views over the shared registry.
"""

import random

import pytest

from repro.obs import EventBus, Histogram, MetricsRegistry, Observability
from repro.sim.trace import TraceLog
from repro.system import System, SystemConfig


# ----------------------------------------------------------------------
# event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_scopes_are_cached(self):
        bus = EventBus()
        assert bus.scope("media.csma") is bus.scope("media.csma")
        assert bus.scope("media").child("csma") is bus.scope("media.csma")

    def test_emit_stamps_clock_and_orders(self):
        t = [0.0]
        bus = EventBus(lambda: t[0])
        scope = bus.scope("transport.1")
        scope.emit("retransmit", "node2", attempt=1)
        t[0] = 7.5
        scope.emit("gave_up", "node2", attempts=5)
        assert [e.time for e in bus] == [0.0, 7.5]
        assert bus.events[1].detail["attempts"] == 5
        assert bus.events[0].scope == "transport.1"

    def test_prefix_disable_covers_descendants_only(self):
        bus = EventBus()
        media = bus.scope("media.csma")
        other = bus.scope("mediator")   # shares the string prefix only
        bus.disable("media")
        assert not media.enabled
        assert not bus.scope("media").enabled
        assert other.enabled            # "mediator" is not under "media"
        media.emit("collision", "n1")
        other.emit("tick", "n1")
        assert bus.count(scope="media") == 0
        assert bus.count() == 1
        bus.enable("media")
        media.emit("collision", "n1")
        assert bus.count(scope="media") == 1

    def test_disable_applies_to_scopes_created_later(self):
        bus = EventBus()
        bus.disable("kernel")
        late = bus.scope("kernel.3")
        assert not late.enabled
        late.emit("checkpoint", "3.1")
        assert len(bus) == 0

    def test_master_switch(self):
        bus = EventBus()
        scope = bus.scope("sim")
        bus.enabled = False
        scope.emit("spare", "node1")
        assert len(bus) == 0
        bus.enabled = True
        scope.emit("spare", "node1")
        assert len(bus) == 1

    def test_select_filters(self):
        bus = EventBus()
        bus.scope("kernel.1").emit("checkpoint", "1.2")
        bus.scope("kernel.2").emit("checkpoint", "2.2")
        bus.scope("recovery").emit("recovery", "1.2", event="complete")
        assert bus.count("checkpoint") == 2
        assert bus.count(subject="1.2") == 2
        assert bus.count(scope="kernel.1") == 1
        assert bus.count("recovery", "1.2", "recovery") == 1

    def test_jsonl_round_trip(self):
        import json
        bus = EventBus(lambda: 2.0)
        bus.scope("media.csma").emit("collision", "n1", contenders=3)
        line = json.loads(bus.to_jsonl())
        assert line == {"time": 2.0, "scope": "media.csma",
                        "category": "collision", "subject": "n1",
                        "detail": {"contenders": 3}}


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_get_or_create_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("transport.1.sent")
        c.inc()
        c.inc(3)
        assert reg.counter("transport.1.sent") is c
        assert reg.counter("transport.1.sent").value == 4

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_fn_rebinds(self):
        reg = MetricsRegistry()
        reg.gauge_fn("kernel.1.processes", lambda: 2)
        reg.gauge_fn("kernel.1.processes", lambda: 5)   # spare takeover
        assert reg.snapshot()["kernel.1.processes"] == 5

    def test_time_weighted_average(self):
        t = [0.0]
        reg = MetricsRegistry(lambda: t[0])
        avg = reg.timeavg("transport.1.queue_depth")
        avg.update(2)          # depth 0 held for 0 ms, now 2
        t[0] = 10.0
        avg.update(4)          # depth 2 held for 10 ms
        t[0] = 20.0            # depth 4 held for 10 ms so far
        assert avg.mean() == pytest.approx((2 * 10 + 4 * 10) / 20)
        assert avg.current == 4

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("media.frame_bytes", buckets=(64, 512))
        for size in (32, 64, 100, 4000):
            h.observe(size)
        snap = h.snapshot_value()
        assert snap["count"] == 4
        assert snap["min"] == 32 and snap["max"] == 4000
        assert snap["buckets"] == {"le_64": 2, "le_512": 1, "inf": 1}

    def test_histogram_bucket_search_matches_a_linear_scan(self):
        bounds = (0.5, 1, 2.5, 8, 64, 64.5, 1000)
        h = Histogram("h", buckets=bounds)
        rng = random.Random(1983)
        values = [rng.uniform(-10, 1100) for _ in range(2000)]
        values += [float(b) for b in bounds] + list(bounds)  # on a bound
        values += [rng.choice(bounds) for _ in range(200)]
        reference = [0] * (len(bounds) + 1)
        for value in values:
            h.observe(value)
            for i, bound in enumerate(bounds):
                if value <= bound:
                    reference[i] += 1
                    break
            else:
                reference[-1] += 1
        assert h.bucket_counts == reference
        assert h.count == len(values)

    @pytest.mark.parametrize("buckets", [(512, 64), (1, 3, 2)])
    def test_histogram_rejects_unsorted_bounds(self, buckets):
        with pytest.raises(ValueError):
            Histogram("h", buckets=buckets)
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=buckets)

    def test_snapshot_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.counter("alpha")
        reg.counter("media.1")
        assert list(reg.snapshot()) == sorted(reg.snapshot())


# ----------------------------------------------------------------------
# the spine end to end
# ----------------------------------------------------------------------
def _run_scenario(medium="broadcast", seed=1983):
    """Two nodes, a self-messaging workload, a node crash + recovery."""
    from repro.metrics.metering import SendToSelfProgram

    system = System(SystemConfig(nodes=2, medium=medium, master_seed=seed))
    system.registry.register("metrics/send_to_self", SendToSelfProgram)
    system.boot()
    system.spawn_program("metrics/send_to_self", args=(24,), node=1)
    system.run(1500)
    system.crash_node(2)
    system.run(3500)
    return system


class TestSpineDeterminism:
    @pytest.mark.parametrize("medium", ["broadcast", "csma_ethernet"])
    def test_identical_runs_identical_streams(self, medium):
        a = _run_scenario(medium)
        b = _run_scenario(medium)
        assert a.obs.bus.to_jsonl() == b.obs.bus.to_jsonl()
        assert a.metrics_snapshot() == b.metrics_snapshot()
        assert len(a.obs.bus) > 0

    def test_different_seed_still_matches_on_perfect_medium(self):
        # PerfectBroadcast consumes no randomness: the seed must not
        # leak into the event stream.
        a = _run_scenario("broadcast", seed=1)
        b = _run_scenario("broadcast", seed=2)
        assert a.obs.bus.to_jsonl() == b.obs.bus.to_jsonl()


class TestScopedSystemTracing:
    def test_layers_emit_into_their_own_scopes(self):
        system = _run_scenario()
        scopes = {e.scope for e in system.obs.bus}
        assert any(s.startswith("kernel.") for s in scopes)
        assert "recovery" in scopes
        # the sim-wide TraceLog still sees every layer's events
        assert system.trace.count() == len(system.obs.bus)
        assert system.trace.count("watchdog", "node2") >= 1

    def test_disabled_scope_emits_nothing(self):
        from repro.metrics.metering import SendToSelfProgram

        system = System(SystemConfig(nodes=2))
        system.obs.bus.disable("kernel")
        system.registry.register("metrics/send_to_self", SendToSelfProgram)
        system.boot()
        system.spawn_program("metrics/send_to_self", args=(8,), node=1)
        system.run(2000)
        assert system.obs.bus.count(scope="kernel") == 0
        assert system.obs.bus.count(scope="recorder") > 0
        # metrics keep flowing even with the events silenced
        assert system.metrics_snapshot()["kernel.1.cpu.kernel_ms"] > 0


class TestLegacyStatsAreRegistryViews:
    def test_all_layers_share_one_registry(self):
        system = _run_scenario()
        snap = system.metrics_snapshot()
        medium = system.medium
        assert snap[f"media.{medium.kind}.frames_delivered"] == \
            medium.stats.frames_delivered
        assert snap["recorder.messages_recorded"] == \
            system.recorder.messages_recorded
        t1 = system.nodes[1].kernel.transport
        assert snap["transport.1.sent"] == t1.stats.sent
        assert snap["kernel.1.cpu.kernel_ms"] == \
            system.nodes[1].kernel.cpu.kernel_ms
        assert snap["recovery.recoveries_completed"] == \
            system.recovery.stats.recoveries_completed
        assert snap["sim.events_fired"] == system.engine.events_fired

    def test_legacy_writes_surface_in_registry(self):
        system = System(SystemConfig(nodes=1))
        medium = system.medium
        medium.stats.collisions += 7     # old in-place mutation style
        assert system.metrics_snapshot()[
            f"media.{medium.kind}.collisions"] == 7

    def test_standalone_components_default_to_medium_obs(self):
        from repro.net.media import PerfectBroadcast
        from repro.net.transport import Transport, TransportConfig
        from repro.sim.engine import Engine

        engine = Engine()
        medium = PerfectBroadcast(engine)
        transport = Transport(engine, medium, 1, lambda m, s: None,
                              TransportConfig())
        assert transport.obs is medium.obs
        assert "transport.1.sent" in medium.obs.registry.snapshot()


class TestTraceLogCompat:
    def test_standalone_tracelog_still_works(self):
        trace = TraceLog(lambda: 4.0)
        trace.emit("publish", "1.2", msg="1.2#9")
        assert trace.count("publish") == 1
        assert trace.records[0].time == 4.0

    def test_tracelog_shares_bus(self):
        obs = Observability(lambda: 0.0)
        kernel_trace = TraceLog(bus=obs.bus, scope="kernel.1")
        sim_trace = TraceLog(bus=obs.bus, scope="sim")
        kernel_trace.emit("checkpoint", "1.2")
        assert sim_trace.count("checkpoint", "1.2") == 1
