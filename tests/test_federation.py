"""Planet-scale federation: sharded recorder placement, gateway
partitions, and cross-cluster recovery.

Four contracts pinned here:

* **Serial event order** — the federation engine's full event stream
  for a fixed scenario hashes to a committed digest, so any change to
  gateway hand-over timing or event ordering is caught.
* **Placement determinism** — the same topology and policy always
  produce byte-identical shard maps, and a sharded federation's event
  stream hashes identically on every run however the shards are placed
  (hypothesis over random topologies).
* **Partition tolerance** — a gateway or inter-cluster partition drops
  frames *in flight* but dead-letters nothing: custody frames ride the
  link-level retry budget across the outage, so a healed partition is
  invisible to the workload.
* **Cross-cluster recovery** — with a cluster's recorder shard down, a
  process recovers by replaying from a *remote* cluster's passively
  recorded log, routed through the gateways, and the replay digest is
  identical to the no-crash run.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SystemConfig
from repro.chaos.actions import (
    GatewayPartition,
    InterclusterPartition,
    action_from_dict,
)
from repro.cluster.gateways import ClusterFederation
from repro.cluster.placement import (
    RECORDER_ID_OFFSET,
    LoadBalancedShardPolicy,
    RangeShardPolicy,
    placement_digest,
    placement_priority_vectors,
    policy_from_name,
)
from repro.errors import NetworkError, PlacementError
from repro.cluster.scenario import DES_VOLATILE_METRICS, DesScenario, run_serial
from repro.publishing.multi_recorder import process_state_digest

from conftest import CounterProgram, DriverProgram


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def build_federation(sizes=(1, 1), configs=None, topology="mesh"):
    fed = ClusterFederation(list(sizes), configs=configs, topology=topology)
    for cluster in fed.clusters:
        cluster.registry.register("test/counter", CounterProgram)
        cluster.registry.register("test/driver", DriverProgram)
    fed.boot()
    return fed


def wait_replies(fed, cluster, driver_pid, n, max_ms=240_000):
    deadline = fed.now + max_ms
    while fed.now < deadline:
        driver = cluster.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= n:
            return driver
        fed.run(1000)
    return cluster.program_of(driver_pid)


# ----------------------------------------------------------------------
# placement units
# ----------------------------------------------------------------------
class TestPlacementPolicies:
    def test_range_policy_splits_the_node_range_exactly(self):
        placement = RangeShardPolicy(shards=3).place(
            cluster_index=0, first_node_id=1, nodes=10, recorder_base=90)
        assert [(s.lo, s.hi) for s in placement.shards] == \
            [(1, 4), (4, 7), (7, 11)]
        assert placement.recorder_ids() == (90, 91, 92)
        for node in range(1, 11):
            shard = placement.shard_for(node)
            assert shard.lo <= node < shard.hi
            assert placement.claim_of(shard.index)(node)

    def test_primary_shard_claims_foreign_nodes(self):
        """Cross-cluster traffic has no local owner; the primary claims
        it so remote recovery has a passive log to replay from."""
        placement = RangeShardPolicy(shards=2).place(
            cluster_index=0, first_node_id=1, nodes=4, recorder_base=90)
        assert placement.claim_of(0)(101)        # primary: yes
        assert not placement.claim_of(1)(101)    # sibling: no

    def test_balanced_policy_scales_shards_with_cluster_size(self):
        policy = LoadBalancedShardPolicy(nodes_per_shard=4, max_shards=8)
        assert policy.shard_count(3) == 1
        assert policy.shard_count(8) == 2
        assert policy.shard_count(40) == 8       # capped

    def test_policy_from_name_rejects_unknown(self):
        with pytest.raises(PlacementError):
            policy_from_name("hashring")

    def test_colliding_recorder_ids_are_rejected(self):
        with pytest.raises(PlacementError):
            RangeShardPolicy(shards=2).place(
                cluster_index=0, first_node_id=1, nodes=8, recorder_base=4)

    def test_priority_vectors_rank_the_owning_shard_first(self):
        placement = RangeShardPolicy(shards=2).place(
            cluster_index=0, first_node_id=1, nodes=4, recorder_base=90)
        vectors = placement_priority_vectors(placement)
        assert vectors.for_node(1)[0] == 90      # nodes 1-2 -> shard 0
        assert vectors.for_node(3)[0] == 91      # nodes 3-4 -> shard 1

    @given(st.integers(1, 60), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_placement_is_byte_deterministic(self, nodes, shards):
        place = lambda: RangeShardPolicy(shards=shards).place(
            cluster_index=2, first_node_id=201, nodes=nodes,
            recorder_base=201 + RECORDER_ID_OFFSET)
        first, second = place(), place()
        assert first.serialize() == second.serialize()
        assert first.digest() == second.digest()
        assert placement_digest([first]) == placement_digest([second])
        # every node is claimed by exactly one shard
        for node in range(201, 201 + nodes):
            owners = [s.index for s in first.shards if s.claims_node(node)]
            assert len(owners) == 1


# ----------------------------------------------------------------------
# sharded federations vs the serial reference
# ----------------------------------------------------------------------
class TestSerialEventOrder:
    SMALL = DesScenario(clusters=6, messages=4, duration_ms=1500.0)

    def test_six_cluster_digest_is_pinned(self):
        result = run_serial(self.SMALL)
        assert result["workload_ok"]
        assert result["digest"] == (
            "082c8358f5976c547506d30734f8305a8f03fe291f1740071273fc832c71c176")

    def test_partitions_other_than_none_are_refused(self):
        with pytest.raises(NetworkError):
            ClusterFederation([1, 1], partitions=2)


class TestDigestScope:
    SMALL = DesScenario(clusters=4, messages=4, duration_ms=1500.0)

    def test_digest_covers_metrics(self):
        # Two scenarios differing only in traffic must not collide.
        a = run_serial(self.SMALL)
        b = run_serial(DesScenario(clusters=4, messages=5,
                                   duration_ms=1500.0))
        assert a["digest"] != b["digest"]

    def test_volatile_metrics_documented(self):
        # The only excluded metric is the engine-global event counter,
        # which counts every cluster's events on the shared engine.
        assert DES_VOLATILE_METRICS == {"sim.events_fired"}


class TestShardedFederationDigests:
    def test_sharded_run_matches_serial_reference(self):
        scenario = DesScenario(clusters=3, cluster_size=2,
                               recorder_shards=2, messages=3,
                               duration_ms=2000.0)
        serial = run_serial(scenario)
        assert serial["workload_ok"]

    @given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 2),
           st.sampled_from(["ring", "mesh"]))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_topologies_are_digest_deterministic(
            self, clusters, cluster_size, shards, topology):
        scenario = DesScenario(clusters=clusters, cluster_size=cluster_size,
                               recorder_shards=shards, messages=2,
                               duration_ms=1500.0, topology=topology)
        first = run_serial(scenario)
        second = run_serial(scenario)
        assert first["workload_ok"]
        assert first["digest"] == second["digest"]
        assert first["per_cluster"] == second["per_cluster"]


# ----------------------------------------------------------------------
# gateway partitions (chaos satellite)
# ----------------------------------------------------------------------
class TestGatewayPartitions:
    def test_gateway_partition_drops_then_heals(self):
        fed = build_federation((1, 1))
        a, b = fed.clusters
        counter = b.spawn_program("test/counter", node=101)
        driver = a.spawn_program("test/driver",
                                 args=(tuple(counter), 20), node=1)
        fed.run(800)
        gid = fed.gateways[0].gateway_id
        action = GatewayPartition(at_ms=fed.now, gateway_id=gid,
                                  duration_ms=1500.0)
        assert action.apply(a)
        assert not action.apply(a)               # state race: already cut
        d = wait_replies(fed, a, driver, 20)
        assert d.replies == [sum(range(1, k + 1)) for k in range(1, 21)]
        assert fed.dead_letters == []            # retries rode it out
        drops = sum(sys.metrics_snapshot()["faults.partition_drops"]
                    for sys in fed.clusters)
        assert drops > 0

    def test_unknown_gateway_is_skipped(self):
        fed = build_federation((1, 1))
        assert not GatewayPartition(at_ms=0.0, gateway_id=424242).apply(
            fed.clusters[0])

    def test_intercluster_partition_cuts_both_directions(self):
        fed = build_federation((1, 1, 1), topology="mesh")
        edges = fed.gateway_edges()
        action = InterclusterPartition(at_ms=0.0, cluster_a=0, cluster_b=1)
        assert action.apply(fed.clusters[0])
        cut = [gid for gid, edge in edges.items() if set(edge) == {0, 1}]
        for gateway in fed.gateways:
            rules = gateway.far.faults._rules
            name = f"partition:gateway:{gateway.gateway_id}"
            if gateway.gateway_id in cut:
                assert any(r.name == name for r in rules)

    def test_actions_round_trip_json(self):
        for action in (GatewayPartition(at_ms=10.0, gateway_id=9000,
                                        duration_ms=500.0),
                       InterclusterPartition(at_ms=10.0, cluster_a=1,
                                             cluster_b=2)):
            assert action_from_dict(action.to_dict()) == action

    def test_partition_soak_with_recorder_crash(self):
        """The satellite-2 soak: an inter-cluster partition stands while
        the far cluster's recorder crashes and restarts — the workload
        still completes exactly, nothing is dead-lettered."""
        fed = build_federation((1, 1))
        a, b = fed.clusters
        counter = b.spawn_program("test/counter", node=101)
        driver = a.spawn_program("test/driver",
                                 args=(tuple(counter), 30), node=1)
        fed.run(800)
        assert InterclusterPartition(at_ms=fed.now, cluster_a=0,
                                     cluster_b=1,
                                     duration_ms=2000.0).apply(a)
        b.crash_recorder()
        fed.run(1000)                            # crash inside the cut
        b.restart_recorder()
        d = wait_replies(fed, a, driver, 30)
        assert d.replies == [sum(range(1, k + 1)) for k in range(1, 31)]
        assert fed.dead_letters == []
        assert b.metrics_snapshot()["faults.partition_drops"] > 0


# ----------------------------------------------------------------------
# cross-cluster recovery (the ISSUE 10 acceptance scenario)
# ----------------------------------------------------------------------
class TestCrossClusterRecovery:
    N = 15

    def _build(self):
        configs = [SystemConfig(nodes=1),
                   SystemConfig(nodes=2, recorder_shards=2)]
        fed = build_federation((1, 2), configs=configs)
        a, b = fed.clusters
        counter = b.spawn_program("test/counter", node=101)
        driver = a.spawn_program("test/driver",
                                 args=(tuple(counter), self.N), node=1)
        return fed, a, b, counter, driver

    def test_recovery_replays_from_a_remote_recorder(self):
        # Reference arm: no crash.
        fed, a, b, counter, driver = self._build()
        assert len(wait_replies(fed, a, driver, self.N).replies) == self.N
        shard = b.placement.shard_for(101)
        ref_digest = process_state_digest(
            b.recorders[shard.index].db.get(counter).arrivals)
        ref_state = b.program_of(counter).total

        # Crash arm: the shard owning the counter's range goes down
        # with the counter's node; recovery replays from cluster A's
        # passively recorded log, through the gateways.
        fed, a, b, counter, driver = self._build()
        wait_replies(fed, a, driver, self.N)
        shard = b.placement.shard_for(101)
        b.crash_recorder(shard=shard.index)
        b.crash_node(101)
        fed.run(200)
        started = fed.remote_recover(101)
        assert started >= 1
        deadline = fed.now + 240_000
        while fed.now < deadline:
            program = b.program_of(counter)
            if program is not None and program.total == ref_state:
                break
            fed.run(1000)
        program = b.program_of(counter)
        assert program is not None and program.total == ref_state
        # The replay digest is identical to the no-crash run: the
        # helper's passive log rebuilds byte-for-byte the same state.
        helper_digest = process_state_digest(
            a.recorder.db.get(counter).arrivals)
        assert helper_digest == ref_digest
        assert a.metrics_snapshot()[
            "recorder.placement.remote_recoveries"] >= 1

    def test_remote_recover_requires_a_live_helper(self):
        fed, a, b, counter, driver = self._build()
        wait_replies(fed, a, driver, self.N)
        a.crash_recorder()                       # the only neighbour
        b.crash_node(101)
        from repro.errors import NetworkError
        with pytest.raises(NetworkError):
            fed.remote_recover(101)
