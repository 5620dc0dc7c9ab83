"""Shard executors: what one worker does for each task kind.

Every executor is a module-level function (picklable by reference for
``spawn`` pools) taking the task's parameter dict and returning
``(payload, timing)``: ``payload`` is the deterministic result covered
by the shard digest, ``timing`` carries wall-clock figures excluded
from it. Heavy imports happen inside the executors so a worker only
pays for the subsystems its shards actually touch.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, Tuple

_Result = Tuple[Dict[str, Any], Dict[str, Any]]


def run_chaos_shard(params: Dict[str, Any]) -> _Result:
    """One seeded chaos scenario: monkey (default) or an explicit
    campaign spec dict, run against the counter/driver workload."""
    from repro.chaos.campaign import load_campaign, monkey_campaign
    from repro.chaos.workload import run_scenario
    from repro.sim.rng import RngStreams

    seed = params["seed"]
    nodes = params.get("nodes", 3)
    spec = params.get("campaign")
    if spec is not None:
        campaign = load_campaign(spec)
    else:
        campaign = monkey_campaign(
            RngStreams(seed), list(range(1, nodes + 1)),
            duration_ms=params.get("duration_ms", 4000.0))
    start = time.perf_counter()
    result = run_scenario(
        campaign, nodes=nodes,
        pairs=params.get("pairs", 2),
        messages=params.get("messages", 20),
        master_seed=seed,
        medium=params.get("medium", "broadcast"),
        settle_ms=params.get("settle_ms", 6000.0))
    wall_ms = (time.perf_counter() - start) * 1000.0
    payload = {
        "ok": result.ok,
        "totals": result.totals,
        "expected": result.expected,
        "report": result.report.to_dict(),
        "events_fired": result.system.engine.events_fired,
        "sim_ms": round(result.system.engine.now, 6),
        "event_digest": hashlib.sha256(
            result.event_stream().encode()).hexdigest(),
    }
    return payload, {"wall_ms": round(wall_ms, 3)}


def run_capacity_shard(params: Dict[str, Any]) -> _Result:
    """One §5.1 capacity probe: max users for an operating point."""
    from repro.queueing import OPERATING_POINTS, capacity_in_users
    from repro.queueing.capacity import bottleneck

    point = OPERATING_POINTS[params["point"]]
    disks = params.get("disks", 1)
    buffered = params.get("buffered", True)
    start = time.perf_counter()
    users = capacity_in_users(point, disks=disks, buffered=buffered)
    payload = {
        "point": params["point"],
        "users": users,
        "nodes": round(users / point.users_per_node, 6),
        "bottleneck": bottleneck(point, users, disks=disks,
                                 buffered=buffered),
    }
    wall_ms = (time.perf_counter() - start) * 1000.0
    return payload, {"wall_ms": round(wall_ms, 3)}


def run_utilization_shard(params: Dict[str, Any]) -> _Result:
    """One Figure 5.5 grid cell: station utilizations at a
    (point, disks, nodes) configuration."""
    from repro.queueing import OPERATING_POINTS, OpenQueueingModel

    point = OPERATING_POINTS[params["point"]]
    model = OpenQueueingModel(point=point, nodes=params["nodes"],
                              disks=params["disks"])
    payload = {
        "point": params["point"],
        "nodes": params["nodes"],
        "disks": params["disks"],
        "utilizations": {k: round(v, 9)
                         for k, v in model.utilizations().items()},
        "stable": model.stable(),
    }
    return payload, {}


def run_figure57_shard(params: Dict[str, Any]) -> _Result:
    """One Figure 5.7 measurement (with or without publishing). All
    figures are simulated time, so the payload is fully deterministic."""
    from repro.metrics import measure_send_to_self

    start = time.perf_counter()
    measured = measure_send_to_self(
        publishing=params["publishing"],
        iterations=params.get("iterations", 256))
    wall_ms = (time.perf_counter() - start) * 1000.0
    payload = {key: round(value, 9) for key, value in measured.items()}
    return payload, {"wall_ms": round(wall_ms, 3)}


def run_federation_shard(params: Dict[str, Any]) -> _Result:
    """One federation cell: a sharded-recorder scenario run on one
    engine. The payload is the cell's federation digest plus its
    workload outcome, so a sweep over cluster counts is digest-gated
    against :func:`repro.cluster.scenario.run_serial`."""
    from repro.cluster.scenario import DesScenario, run_serial

    scenario = DesScenario(
        clusters=params["clusters"],
        cluster_size=params.get("cluster_size", 1),
        recorder_shards=params.get("recorder_shards", 1),
        messages=params.get("messages", 6),
        duration_ms=params.get("duration_ms", 3000.0),
        topology=params.get("topology", "ring"),
        forward_delay_ms=params.get("forward_delay_ms", 5.0),
        master_seed=params.get("seed", 1983))
    result = run_serial(scenario)
    payload = {
        "clusters": result["clusters"],
        "topology": scenario.topology,
        "recorder_shards": scenario.recorder_shards,
        "digest": result["digest"],
        "per_cluster": result["per_cluster"],
        "replies": result["replies"],
        "totals": result["totals"],
        "expected_total": result["expected_total"],
        "workload_ok": result["workload_ok"],
        "frames_forwarded": result["frames_forwarded"],
        "dead_letters": result["dead_letters"],
    }
    return payload, {"wall_ms": round(result["wall_ms"], 3)}


#: result keys that vary run-to-run (wall clock and derivatives) — the
#: same set ``tests/test_perf_harness.py`` strips for its determinism
#: check.
PERF_VOLATILE_KEYS = frozenset(
    {"wall_ms", "ops_per_sec", "events_per_sec", "baseline",
     "speedup_vs_baseline", "phases"})


def run_perf_shard(params: Dict[str, Any]) -> _Result:
    """One benchmark workload repetition, split into its deterministic
    facts (digested) and its timing facts (reported, not digested)."""
    from repro.perf.harness import run_workload

    result = run_workload(params["workload"], seed=params.get("seed", 1983),
                          smoke=params.get("smoke", True))
    payload = {k: v for k, v in result.items()
               if k not in PERF_VOLATILE_KEYS}
    timing = {k: v for k, v in result.items() if k in PERF_VOLATILE_KEYS}
    return payload, timing


#: kind -> executor; the registry :func:`repro.parallel.runner.execute_task`
#: dispatches through (rebuilt on import in every worker process).
TASK_KINDS: Dict[str, Callable[[Dict[str, Any]], _Result]] = {
    "chaos": run_chaos_shard,
    "capacity": run_capacity_shard,
    "utilization": run_utilization_shard,
    "figure57": run_figure57_shard,
    "perf": run_perf_shard,
    "federation": run_federation_shard,
}
