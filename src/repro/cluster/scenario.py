"""One reproducible federation workload and its digests.

A :class:`DesScenario` is a ring (or mesh) of publishing clusters, each
running a counter and a driver that targets the *next* cluster's
counter, so every add/total round trip crosses two store-and-forward
gateways (§6.2). :func:`run_serial` builds it on one engine, runs it,
and reduces every cluster's full event stream and metrics snapshot to a
digest: "byte-identical" means every layer of every cluster saw the
same events at the same simulated times in the same order.

The ``federation`` sweep kind (:mod:`repro.parallel.tasks`) runs the
same scenario in a worker process, so a sweep over cluster counts is
digest-gated against this serial run.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.workload import (
    CHAOS_COUNTER_IMAGE,
    CHAOS_DRIVER_IMAGE,
    ChaosCounter,
    ChaosDriver,
    expected_total,
    register_chaos_programs,
)
from repro.cluster.gateways import ClusterFederation
from repro.errors import ReproError
from repro.parallel.runner import canonical_json
from repro.system import System, SystemConfig

#: Metrics left out of :func:`cluster_digest`: each cluster's
#: ``sim.events_fired`` gauge reads the shared federation engine's
#: global event counter, so it depends on every other cluster too.
DES_VOLATILE_METRICS = frozenset({"sim.events_fired"})

#: Scope prefixes hashed as the recorder-side sub-stream of
#: :func:`cluster_digest` (plus the recorder's own ``transport.<id>``).
RECORDER_SIDE_SCOPES = ("recorder", "recovery", "quorum", "watchdog")


@dataclass(frozen=True)
class DesScenario:
    """One reproducible federation workload.

    Each cluster runs a :class:`~repro.chaos.workload.ChaosCounter` and
    a :class:`~repro.chaos.workload.ChaosDriver` targeting the *next*
    cluster's counter. Driver start times are staggered per cluster
    (``stagger_ms``) so distinct gateways never collide on exact event
    timestamps.
    """

    clusters: int = 4
    cluster_size: int = 1
    recorder_shards: int = 1
    messages: int = 6
    duration_ms: float = 3000.0
    settle_ms: float = 500.0
    stagger_ms: float = 7.3
    topology: str = "ring"
    forward_delay_ms: float = 5.0
    master_seed: int = 1983

    def validate(self) -> None:
        if self.clusters < 2:
            raise ReproError("a federation scenario needs at least 2 clusters")
        if self.forward_delay_ms <= 0:
            raise ReproError("forward_delay_ms must be positive")
        if self.recorder_shards < 1:
            raise ReproError("recorder_shards must be >= 1")


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def cluster_digest(system: System) -> str:
    """SHA-256 over one cluster's full event stream + metrics snapshot
    (minus :data:`DES_VOLATILE_METRICS`).

    The event stream is hashed as two sub-streams, medium-side scopes
    and recorder-side scopes, each in its own order. The split once let
    a recorder run on its own engine; it stays so that every committed
    federation digest remains byte-identical.
    """
    snapshot = {key: value for key, value in system.metrics_snapshot().items()
                if key not in DES_VOLATILE_METRICS}
    prefixes = RECORDER_SIDE_SCOPES + (
        f"transport.{system.config.recorder_node_id}",)

    def recorder_side(scope: str) -> bool:
        return any(scope == p or scope.startswith(p + ".")
                   for p in prefixes)

    medium_lines: List[str] = []
    recorder_lines: List[str] = []
    for event in system.obs.bus.events:
        line = json.dumps(event.to_dict(), sort_keys=True)
        (recorder_lines if recorder_side(event.scope)
         else medium_lines).append(line)
    blob = ("\n".join(medium_lines) + "\n=recorder=\n"
            + "\n".join(recorder_lines) + "\n" + canonical_json(snapshot))
    return hashlib.sha256(blob.encode()).hexdigest()


def federation_digest(per_cluster: Dict[int, str]) -> str:
    """One digest over all per-cluster digests, order-independent."""
    canon = canonical_json({str(k): per_cluster[k]
                            for k in sorted(per_cluster)})
    return hashlib.sha256(canon.encode()).hexdigest()


# ----------------------------------------------------------------------
# scenario construction
# ----------------------------------------------------------------------
def build_federation(scenario: DesScenario) -> ClusterFederation:
    scenario.validate()
    configs = [SystemConfig(nodes=scenario.cluster_size,
                            master_seed=scenario.master_seed,
                            recorder_shards=scenario.recorder_shards)
               for _ in range(scenario.clusters)]
    fed = ClusterFederation(
        [scenario.cluster_size] * scenario.clusters,
        forward_delay_ms=scenario.forward_delay_ms,
        topology=scenario.topology,
        configs=configs)
    for system in fed.clusters:
        register_chaos_programs(system)
    return fed


def _spawn_driver(system: System, target: Tuple[int, int],
                  messages: int) -> None:
    system.spawn_program(CHAOS_DRIVER_IMAGE, args=(target, messages),
                         node=system.config.first_node_id)


def spawn_workload(fed: ClusterFederation, scenario: DesScenario) -> None:
    """Spawn the ring workload on every cluster.

    Counters are spawned synchronously (the engine idles after settle)
    in ascending cluster order; every cluster boots through the
    identical sequence, so the counter's local pid component is the
    same on all of them. Drivers are then scheduled as staggered engine
    events.
    """
    counter_local: Optional[int] = None
    for system in fed.clusters:
        pid = system.spawn_program(CHAOS_COUNTER_IMAGE,
                                   node=system.config.first_node_id)
        if counter_local is None:
            counter_local = pid.local
        elif pid.local != counter_local:
            raise ReproError(
                f"counter local ids diverged: {pid.local} != {counter_local}")
    for index, system in enumerate(fed.clusters):
        target_cluster = (index + 1) % scenario.clusters
        target = (fed.configs[target_cluster].first_node_id, counter_local)
        delay = 1.0 + scenario.stagger_ms * index
        system.engine.schedule(delay, _spawn_driver, system, target,
                               scenario.messages)


def _programs_of(system: System, cls) -> List[Any]:
    out = []
    for node_id in sorted(system.nodes):
        kernel = system.nodes[node_id].kernel
        for pid in sorted(kernel.processes):
            program = kernel.processes[pid].program
            if isinstance(program, cls):
                out.append(program)
    return out


def collect(fed: ClusterFederation, scenario: DesScenario) -> Dict[str, Any]:
    """Digests plus workload outcome for every cluster. Pure data."""
    per_cluster: Dict[int, str] = {}
    replies: List[int] = []
    totals: List[int] = []
    for index, system in enumerate(fed.clusters):
        per_cluster[index] = cluster_digest(system)
        drivers = _programs_of(system, ChaosDriver)
        counters = _programs_of(system, ChaosCounter)
        replies.append(len(drivers[0].replies) if drivers else 0)
        totals.append(counters[0].total if counters else 0)
    expected = expected_total(scenario.messages)
    return {
        "digest": federation_digest(per_cluster),
        "per_cluster": {str(k): v for k, v in per_cluster.items()},
        "replies": replies,
        "totals": totals,
        "expected_total": expected,
        "workload_ok": (all(r == scenario.messages for r in replies)
                        and all(t == expected for t in totals)),
        "frames_forwarded": sum(g.frames_forwarded for g in fed.gateways),
        "frames_dropped": sum(g.frames_dropped for g in fed.gateways),
        "gateway_retries": sum(g.retries for g in fed.gateways),
        "dead_letters": len(fed.dead_letters),
    }


def run_serial(scenario: DesScenario) -> Dict[str, Any]:
    """Build, boot and run the scenario on one engine; return its
    :func:`collect` summary plus run facts (``wall_ms`` varies)."""
    started = time.perf_counter()
    fed = build_federation(scenario)
    fed.boot(settle_ms=scenario.settle_ms)
    spawn_workload(fed, scenario)
    fed.run(scenario.duration_ms)
    result = collect(fed, scenario)
    result.update({
        "clusters": scenario.clusters,
        "sim_ms": scenario.settle_ms + scenario.duration_ms,
        "wall_ms": (time.perf_counter() - started) * 1000.0,
    })
    return result
