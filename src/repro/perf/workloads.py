"""The canonical benchmark workloads.

Each workload is a function ``(seed, smoke) -> dict`` returning at least
``ops`` (its primary operation count), ``events`` (engine events fired)
and ``sim_ms`` (simulated time covered). Workloads that time themselves
(because only part of their work is the thing being measured) also
return ``wall_ms``; otherwise the harness times the whole call.

Every workload is a pure function of its seed: wall-clock figures vary
between runs, but ``ops``, ``events`` and ``sim_ms`` must not — the
harness's ``--verify`` users and ``tests/test_perf_harness.py`` rely on
it. Workloads validate their own outcomes (message counts, counter
totals) and raise on divergence, so a perf number can never be produced
by a broken simulation.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.perf.baseline import BaselineEngine
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

#: churn script knobs: (pump steps, ops per step)
_CHURN_FULL = (600, 100)
_CHURN_SMOKE = (60, 100)

#: storm knobs: (stations, guaranteed messages per station)
_STORM_FULL = (5, 240)
_STORM_SMOKE = (5, 30)

_HASH_MOD = (1 << 61) - 1


class PerfDivergence(RuntimeError):
    """A workload's outcome did not match its expectation — the perf
    number would be describing a broken run, so the harness fails."""


# ----------------------------------------------------------------------
# engine event churn, measured against the pre-PR baseline engine
# ----------------------------------------------------------------------
def _churn_script(seed: int, steps: int,
                  per_step: int) -> List[List[Tuple[Any, ...]]]:
    """A seeded schedule/cancel/chain operation script, generated up
    front so both engines replay exactly the same work."""
    rng = random.Random(seed)
    script: List[List[Tuple[Any, ...]]] = []
    for _ in range(steps):
        ops: List[Tuple[Any, ...]] = []
        for _ in range(per_step):
            r = rng.random()
            if r < 0.62:        # plain timer
                ops.append(("s", rng.uniform(0.01, 60.0),
                            rng.randrange(1 << 16)))
            elif r < 0.87:      # cancel a previously scheduled timer
                ops.append(("c", rng.randrange(1 << 30)))
            else:               # self-rescheduling chain (decaying delay)
                ops.append(("b", rng.uniform(0.5, 8.0),
                            rng.randrange(1 << 16)))
        script.append(ops)
    return script


def _run_churn(make_engine: Callable[[], Any],
               script: List[List[Tuple[Any, ...]]]) -> Dict[str, Any]:
    """Replay the churn script on one engine; returns timing plus an
    order-sensitive event checksum for differential comparison."""
    engine = make_engine()
    fired = [0]
    digest = [0]
    handles: List[Any] = []

    def work(tag):
        fired[0] += 1
        digest[0] = (digest[0] * 1000003 + tag) % _HASH_MOD

    def chain(tag, delay):
        fired[0] += 1
        digest[0] = (digest[0] * 1000003 + tag) % _HASH_MOD
        if delay > 0.4:
            engine.schedule(delay, chain, tag ^ 0x5A5A, delay * 0.5)

    def pump(k):
        for op in script[k]:
            kind = op[0]
            if kind == "s":
                handles.append(engine.schedule(op[1], work, op[2]))
            elif kind == "c":
                if handles:
                    handles.pop(op[1] % len(handles)).cancel()
            else:
                engine.schedule(op[1], chain, op[2], op[1])
        if len(handles) > 4096:
            del handles[:2048]
        if k + 1 < len(script):
            engine.schedule(0.37, pump, k + 1)

    start = time.perf_counter()
    engine.schedule(0.0, pump, 0)
    engine.run()
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "events": engine.events_fired,
            "fired": fired[0], "digest": digest[0], "sim_ms": engine.now}


def engine_churn(seed: int, smoke: bool) -> Dict[str, Any]:
    """Seeded schedule/cancel/spawn churn, run through both the live
    engine and the pre-PR baseline engine. Doubles as a differential
    check: both engines must fire the identical event stream."""
    steps, per_step = _CHURN_SMOKE if smoke else _CHURN_FULL
    script = _churn_script(seed, steps, per_step)
    live = _run_churn(Engine, script)
    base = _run_churn(BaselineEngine, script)
    for key in ("events", "fired", "digest", "sim_ms"):
        if live[key] != base[key]:
            raise PerfDivergence(
                f"engine_churn: optimized and baseline engines diverged "
                f"on {key}: {live[key]!r} != {base[key]!r}")
    live_rate = live["events"] / live["wall_s"] if live["wall_s"] else 0.0
    base_rate = base["events"] / base["wall_s"] if base["wall_s"] else 0.0
    return {
        "ops": steps * per_step,
        "events": live["events"],
        "sim_ms": round(live["sim_ms"], 6),
        "wall_ms": live["wall_s"] * 1000.0,
        "baseline": {
            "wall_ms": base["wall_s"] * 1000.0,
            "events_per_sec": base_rate,
        },
        "speedup_vs_baseline": (live_rate / base_rate if base_rate else 0.0),
        "event_digest": live["digest"],
    }


# ----------------------------------------------------------------------
# media message storms
# ----------------------------------------------------------------------
def _storm(medium_name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """N stations exchange guaranteed messages over one medium model
    until every message is acknowledged and the event heap drains."""
    from repro.net.transport import Transport, TransportConfig

    stations, msgs = _STORM_SMOKE if smoke else _STORM_FULL
    engine = Engine()
    rng = RngStreams(seed)
    if medium_name == "csma":
        from repro.net.ethernet import CsmaEthernet
        medium = CsmaEthernet(engine, rng)
    elif medium_name == "acking":
        from repro.net.acking_ethernet import AckingEthernet
        medium = AckingEthernet(engine, rng)
    elif medium_name == "token_ring":
        from repro.net.token_ring import TokenRing
        medium = TokenRing(engine)
    else:
        raise ValueError(f"unknown storm medium {medium_name!r}")

    received = [0]

    def on_receive(_segment):
        received[0] += 1

    config = TransportConfig()
    transports = [Transport(engine, medium, node, on_receive, config,
                            rng=rng)
                  for node in range(1, stations + 1)]
    spacing = rng.stream("perf/storm")
    for index, transport in enumerate(transports):
        dst = (index + 1) % stations + 1
        at = 0.0
        for k in range(msgs):
            at += spacing.uniform(0.05, 2.0)
            engine.schedule(at, transport.send, dst, ("m", index, k),
                            128, (index + 1, k))
    engine.run()
    expected = stations * msgs
    if received[0] != expected:
        raise PerfDivergence(
            f"storm_{medium_name}: delivered {received[0]} of "
            f"{expected} guaranteed messages")
    stats = {
        "retransmissions": sum(t.stats.retransmissions for t in transports),
        "collisions": medium.stats.collisions,
        "utilization": round(medium.stats.utilization(engine.now), 4),
    }
    return {"ops": expected, "events": engine.events_fired,
            "sim_ms": round(engine.now, 6), **stats}


def storm_csma(seed: int, smoke: bool) -> Dict[str, Any]:
    """Message storm over the contending CSMA/CD Ethernet (§6.1.1)."""
    return _storm("csma", seed, smoke)


def storm_acking(seed: int, smoke: bool) -> Dict[str, Any]:
    """Message storm over the Acknowledging Ethernet's reserved slots."""
    return _storm("acking", seed, smoke)


def storm_token_ring(seed: int, smoke: bool) -> Dict[str, Any]:
    """Message storm over the single-slot token ring (§6.1.2)."""
    return _storm("token_ring", seed, smoke)


# ----------------------------------------------------------------------
# recorder publish + checkpoint + replay-recovery pipeline
# ----------------------------------------------------------------------
def recorder_pipeline(seed: int, smoke: bool) -> Dict[str, Any]:
    """Drive the full publishing path: a counter/driver workload whose
    every message is recorded, then cluster-wide checkpoints, then a
    node crash recovered by replaying the recorded stream."""
    from repro.chaos.workload import (
        CHAOS_COUNTER_IMAGE,
        CHAOS_DRIVER_IMAGE,
        expected_total,
        register_chaos_programs,
    )
    from repro.system import System, SystemConfig

    pairs = 2 if smoke else 3
    messages = 12 if smoke else 60
    system = System(SystemConfig(nodes=3, master_seed=seed,
                                 medium="broadcast"))
    register_chaos_programs(system)
    system.boot()
    spawned = []
    for k in range(pairs):
        counter = system.spawn_program(CHAOS_COUNTER_IMAGE, node=2 + k % 2)
        driver = system.spawn_program(
            CHAOS_DRIVER_IMAGE, args=(tuple(counter), messages), node=1)
        spawned.append((driver, counter))

    def drivers_at(count: int) -> bool:
        return all(len(system.program_of(d).replies) >= count
                   for d, _ in spawned)

    phases: Dict[str, Dict[str, Any]] = {}

    def timed_phase(name: str, body: Callable[[], None]) -> None:
        before_events = system.engine.events_fired
        before_ms = system.engine.now
        start = time.perf_counter()
        body()
        phases[name] = {
            "wall_ms": (time.perf_counter() - start) * 1000.0,
            "events": system.engine.events_fired - before_events,
            "sim_ms": round(system.engine.now - before_ms, 6),
        }

    def publish_until(count: int) -> None:
        deadline = system.engine.now + 120_000.0
        while not drivers_at(count) and system.engine.now < deadline:
            system.run(250)
        if not drivers_at(count):
            raise PerfDivergence("recorder_pipeline: workload stalled")

    def recovery_phase() -> None:
        # Crash a counter node and let the watchdog notice, the reboot
        # policy restart it, and the recovery manager replay its
        # processes from checkpoint + recorded stream (§3.3, §4.7).
        system.crash_node(2)
        deadline = system.engine.now + 120_000.0
        want = expected_total(messages)
        while system.engine.now < deadline:
            system.run(500)
            programs = [system.program_of(c) for _, c in spawned]
            if all(p is not None and p.total == want for p in programs):
                return
        totals = [p.total if p is not None else -1 for p in programs]
        raise PerfDivergence(
            f"recorder_pipeline: counters ended at {totals}, "
            f"never recovered to {want}")

    # Checkpoint mid-stream so the post-crash recovery genuinely mixes
    # checkpoint restoration with replay of the messages consumed after
    # it — the §3.1 recovery recipe, not a checkpoint-only restore.
    timed_phase("publish", lambda: publish_until(messages // 2))

    checkpoints = {}

    def checkpoint_body() -> None:
        checkpoints["count"] = system.checkpoint_all()
        system.run(1_000)

    timed_phase("checkpoint", checkpoint_body)
    timed_phase("publish_tail", lambda: publish_until(messages))
    timed_phase("replay_recovery", recovery_phase)
    phases["checkpoint"]["checkpoints"] = checkpoints["count"]

    recorder = system.recorder
    return {
        "ops": pairs * messages,
        "events": system.engine.events_fired,
        "sim_ms": round(system.engine.now, 6),
        "wall_ms": sum(p["wall_ms"] for p in phases.values()),
        "phases": phases,
        "messages_recorded": recorder.messages_recorded,
        "recoveries": system.recovery.stats.recoveries_completed,
        "messages_replayed": system.recovery.stats.messages_replayed,
    }


# ----------------------------------------------------------------------
# recorder store scaling: segmented log vs the naive flat reference
# ----------------------------------------------------------------------

#: (processes, messages per process) grid points
_RECORDER_GRID_FULL = ((4, 300), (8, 600), (16, 1200))
_RECORDER_GRID_SMOKE = ((2, 150), (4, 400))

#: checkpoints per process over the stream (the reclamation cadence)
_RECORDER_CKPTS = 10

#: post-drain catch-up replay sweeps (a recovery re-walks the log as it
#: catches up with live traffic; see recovery_manager)
_RECORDER_CATCHUP_ROUNDS = 3


def _recorder_script(seed: int, processes: int,
                     messages: int) -> List[Tuple[Any, ...]]:
    """A seeded recorder operation script: per-process arrivals,
    advisories generated against a model queue (so they always match
    the log), cumulative checkpoints, and replay query points. The same
    script drives the segmented store and the flat reference."""
    from repro.demos.ids import MessageId, ProcessId

    rng = random.Random(seed)
    script: List[Tuple[Any, ...]] = []
    queues: List[List[Any]] = [[] for _ in range(processes)]
    consumed = [0] * processes
    controls = [0] * processes
    sent = [0] * processes
    arrived = [0] * processes
    ckpt_every = max(1, messages // _RECORDER_CKPTS)
    srcs = [ProcessId(1, 100 + p) for p in range(processes)]
    live = list(range(processes))
    while live:
        p = live[rng.randrange(len(live))]
        if arrived[p] < messages and (rng.random() < 0.55 or not queues[p]):
            # one arrival: mostly queue messages, a few controls
            sent[p] += 1
            arrived[p] += 1
            is_control = rng.random() < 0.05
            msg_id = MessageId(srcs[p], sent[p])
            script.append(("msg", p, msg_id,
                           rng.choice((128, 128, 256, 1024)), is_control))
            if is_control:
                controls[p] += 1
            else:
                queues[p].append(msg_id)
        elif queues[p]:
            # one consumption, out of order (advisory) one time in four
            queue = queues[p]
            if len(queue) >= 2 and rng.random() < 0.25:
                j = rng.randrange(1, min(len(queue), 5))
                script.append(("adv", p, queue[j], queue[0]))
                del queue[j]
            else:
                del queue[0]
            consumed[p] += 1
            if consumed[p] % ckpt_every == 0:
                script.append(("ckpt", p, consumed[p], controls[p]))
                script.append(("query", p, consumed[p]))
        if arrived[p] >= messages and not queues[p]:
            # the process drained: a final checkpoint covers everything
            # consumed, then the catch-up sweeps a recovery would run
            script.append(("ckpt", p, consumed[p], controls[p]))
            for _ in range(_RECORDER_CATCHUP_ROUNDS):
                script.append(("query", p, consumed[p]))
            live.remove(p)
    return script


def _digest_queries(digest: int, replay, ids) -> int:
    """Fold one query point's results into an order-sensitive digest.
    ``replay`` is the replay list (order matters), ``ids`` the consumed
    set (folded in sorted order)."""
    for lm in replay:
        pid, seq = tuple(lm.message.msg_id)
        digest = (digest * 1000003 + pid[0] * 131 + pid[1] * 31 + seq) % _HASH_MOD
    digest = (digest * 1000003 + 0x9E37) % _HASH_MOD
    for pid, seq in sorted(tuple(m) for m in ids):
        digest = (digest * 1000003 + pid[0] * 131 + pid[1] * 31 + seq) % _HASH_MOD
    return digest


def _drive_segmented(script: List[Tuple[Any, ...]],
                     processes: int) -> Dict[str, Any]:
    """Replay the script through the log-structured store; returns
    timing, the replay digest, and per-query latencies."""
    from repro.demos.ids import ProcessId
    from repro.demos.messages import Message
    from repro.publishing.database import CheckpointEntry, RecorderDatabase
    from repro.publishing.store import SegmentedLog

    db = RecorderDatabase(SegmentedLog(64))
    records = [db.create(ProcessId(2, p + 1), node=2, image="bench")
               for p in range(processes)]
    digest = 0
    invalidated = 0
    replay_wall_s = 0.0
    latencies: List[float] = []
    start = time.perf_counter()
    for op in script:
        kind, p = op[0], op[1]
        record = records[p]
        if kind == "msg":
            _, _, msg_id, size, is_control = op
            message = Message(msg_id=msg_id, src=msg_id.sender,
                              dst=record.pid, channel=1, code=0, body=None,
                              size_bytes=size, deliver_to_kernel=is_control)
            record.record_message(message, db.allocate_arrival_index())
        elif kind == "adv":
            record.add_advisory(op[2], op[3])
        elif kind == "ckpt":
            invalidated += record.apply_checkpoint(CheckpointEntry(
                data=None, consumed=op[2], dtk_processed=op[3],
                send_seq=0, pages=1, stored_at=0.0))
        else:   # query: the replay path being optimized
            t0 = time.perf_counter()
            replay = record.messages_to_replay()
            dt = time.perf_counter() - t0
            replay_wall_s += dt
            latencies.append(dt * 1000.0)
            digest = _digest_queries(digest, replay,
                                     record.consumed_ids(op[2]))
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "replay_wall_s": replay_wall_s,
            "digest": digest, "invalidated": invalidated,
            "latencies": latencies, "log_bytes": db.log.log_bytes,
            "live_bytes": db.log.live_bytes,
            "compactions": db.log.compactions,
            "segments_retired": db.log.segments_retired,
            "segments": db.log.segments}


def _drive_flat(script: List[Tuple[Any, ...]],
                processes: int) -> Dict[str, Any]:
    """Replay the same script through the naive flat-list reference."""
    from repro.demos.ids import ProcessId
    from repro.demos.messages import Message
    from repro.perf.baseline import FlatProcessLog

    logs = [FlatProcessLog() for _ in range(processes)]
    dsts = [ProcessId(2, p + 1) for p in range(processes)]
    digest = 0
    invalidated = 0
    next_arrival = 0
    replay_wall_s = 0.0
    start = time.perf_counter()
    for op in script:
        kind, p = op[0], op[1]
        log = logs[p]
        if kind == "msg":
            _, _, msg_id, size, is_control = op
            message = Message(msg_id=msg_id, src=msg_id.sender,
                              dst=dsts[p], channel=1, code=0, body=None,
                              size_bytes=size, deliver_to_kernel=is_control)
            log.record_message(message, next_arrival)
            next_arrival += 1
        elif kind == "adv":
            log.add_advisory(op[2], op[3])
        elif kind == "ckpt":
            invalidated += log.apply_checkpoint(op[2], op[3])
        else:
            t0 = time.perf_counter()
            replay = log.messages_to_replay()
            replay_wall_s += time.perf_counter() - t0
            digest = _digest_queries(digest, replay, log.consumed_ids(op[2]))
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "replay_wall_s": replay_wall_s,
            "digest": digest, "invalidated": invalidated}


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _page_buffer_contrast(sizes: List[int]) -> Dict[str, Any]:
    """The §5.1 batching contrast on the engine wheel: the same message
    byte stream through per-message writes, fill-triggered group commit,
    and group commit with a flush deadline. Deterministic: supplies the
    workload's ``events``/``sim_ms`` facts."""
    from repro.publishing.disk import DiskArray, PageBuffer

    out: Dict[str, Any] = {}
    events = 0
    sim_ms = 0.0
    for mode, buffered, deadline in (("unbatched", False, None),
                                     ("batched", True, None),
                                     ("batched_deadline", True, 5.0)):
        engine = Engine()
        disks = DiskArray(engine, 1)
        buffer = PageBuffer(disks, buffered=buffered,
                            flush_deadline_ms=deadline)
        at = 0.0
        for size in sizes:
            at += 0.7
            engine.schedule(at, buffer.add, size)
        engine.run()
        buffer.flush()
        events += engine.events_fired
        sim_ms = max(sim_ms, engine.now)
        out[mode] = {
            "disk_writes": disks.writes,
            "disk_reads": disks.reads,
            "pages_flushed": buffer.pages_flushed,
            "deadline_flushes": buffer.deadline_flushes,
        }
    out["events"] = events
    out["sim_ms"] = sim_ms
    return out


def recorder_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """The log-structured recorder store against the naive flat-list
    reference over a processes × message-rate grid, plus the batched vs
    unbatched disk-path contrast. Doubles as a differential check: both
    stores must produce the identical replay order and consumed-id sets
    at every query point, folded into ``replay_digest``."""
    grid = _RECORDER_GRID_SMOKE if smoke else _RECORDER_GRID_FULL
    grid_out: Dict[str, Dict[str, Any]] = {}
    total_messages = 0
    seg_wall_s = 0.0
    digest = 0
    latencies: List[float] = []
    speedup = 0.0
    for processes, messages in grid:
        script = _recorder_script(seed + processes, processes, messages)
        seg = _drive_segmented(script, processes)
        flat = _drive_flat(script, processes)
        if seg["digest"] != flat["digest"]:
            raise PerfDivergence(
                f"recorder_scaling[{processes}x{messages}]: segmented and "
                f"flat stores diverged: {seg['digest']} != {flat['digest']}")
        if seg["invalidated"] != flat["invalidated"]:
            raise PerfDivergence(
                f"recorder_scaling[{processes}x{messages}]: checkpoint "
                f"invalidation diverged: {seg['invalidated']} != "
                f"{flat['invalidated']}")
        total_messages += processes * messages
        seg_wall_s += seg["wall_s"]
        digest = (digest * 1000003 + seg["digest"]) % _HASH_MOD
        latencies = seg["latencies"]        # keep the largest grid point's
        speedup = ((flat["replay_wall_s"] / seg["replay_wall_s"])
                   if seg["replay_wall_s"] else 0.0)
        grid_out[f"{processes}x{messages}"] = {
            "wall_ms": round(seg["wall_s"] * 1000.0, 3),
            "flat_wall_ms": round(flat["wall_s"] * 1000.0, 3),
            "replay_wall_ms": round(seg["replay_wall_s"] * 1000.0, 3),
            "flat_replay_wall_ms": round(flat["replay_wall_s"] * 1000.0, 3),
            "replay_speedup_vs_flat": round(speedup, 3),
            "log_bytes": seg["log_bytes"],
            "live_bytes": seg["live_bytes"],
            "compactions": seg["compactions"],
            "segments_retired": seg["segments_retired"],
            "segments": seg["segments"],
        }
    rng = random.Random(seed ^ 0x5D15)
    contrast = _page_buffer_contrast(
        [rng.choice((128, 128, 256, 1024)) for _ in range(512)])
    events = contrast.pop("events")
    sim_ms = contrast.pop("sim_ms")
    latencies.sort()
    return {
        "ops": total_messages,
        "events": events,
        "sim_ms": round(sim_ms, 6),
        "wall_ms": seg_wall_s * 1000.0,
        "grid": grid_out,
        "page_buffer": contrast,
        "replay_digest": digest,
        "speedup_vs_baseline": speedup,    # largest grid point, vs flat
        "replay_p50_ms": round(_percentile(latencies, 0.50), 4),
        "replay_p90_ms": round(_percentile(latencies, 0.90), 4),
        "replay_p99_ms": round(_percentile(latencies, 0.99), 4),
    }


# ----------------------------------------------------------------------
# chaos campaign
# ----------------------------------------------------------------------
def chaos_campaign(seed: int, smoke: bool) -> Dict[str, Any]:
    """A seeded monkey campaign against the counter workload — the
    heaviest integration path: faults, retries, replays, watchdogs."""
    from repro.chaos.campaign import monkey_campaign
    from repro.chaos.workload import run_scenario

    messages = 10 if smoke else 30
    horizon = 4_000.0 if smoke else 10_000.0
    campaign = monkey_campaign(RngStreams(seed), [1, 2, 3],
                               duration_ms=horizon)
    # A short horizon can cut the campaign right after a late fault;
    # give recoveries room to settle before the invariants are judged.
    result = run_scenario(campaign, nodes=3, pairs=2, messages=messages,
                          master_seed=seed, medium="broadcast",
                          settle_ms=8_000.0)
    if not result.ok:
        raise PerfDivergence("chaos_campaign: campaign invariants failed:\n"
                             + result.report.format())
    system = result.system
    return {
        "ops": 2 * messages,
        "events": system.engine.events_fired,
        "sim_ms": round(system.engine.now, 6),
        "actions": len(campaign.actions),
        "recoveries": system.recovery.stats.recoveries_completed,
    }


# ----------------------------------------------------------------------
# multi-core sweep scaling (repro.parallel)
# ----------------------------------------------------------------------

#: sweep_scaling knobs: (scenarios, messages per pair)
_SWEEP_FULL = (16, 12)
_SWEEP_SMOKE = (6, 8)

#: the scaling curve's sample points
_SWEEP_WORKER_COUNTS = (1, 2, 4)


def sweep_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """Scenarios/sec of a chaos seed matrix at 1, 2 and 4 workers.

    The same task list runs through :func:`repro.parallel.run_tasks` at
    each worker count; every run must produce the identical digest
    chain (the determinism contract of the sharded runner) and every
    scenario must pass its campaign invariants, so the scaling figures
    can never describe divergent or broken runs. The speedup is bounded
    by the machine's core count — expect ~1x on a single-core box.
    """
    from repro.parallel import chaos_matrix_tasks, run_tasks, sweep_digest

    runs, messages = _SWEEP_SMOKE if smoke else _SWEEP_FULL
    tasks = chaos_matrix_tasks(root_seed=seed, runs=runs, pairs=1,
                               messages=messages, duration_ms=2500.0,
                               settle_ms=6000.0)
    workers_out: Dict[str, Dict[str, float]] = {}
    digests = []
    shards: List[Dict[str, Any]] = []
    for workers in _SWEEP_WORKER_COUNTS:
        start = time.perf_counter()
        shards = run_tasks(tasks, max_workers=workers)
        wall_s = time.perf_counter() - start
        digests.append(sweep_digest(shards))
        workers_out[str(workers)] = {
            "wall_ms": round(wall_s * 1000.0, 3),
            "scenarios_per_sec": round(runs / wall_s, 3) if wall_s else 0.0,
        }
    if len(set(digests)) != 1:
        raise PerfDivergence(
            f"sweep_scaling: digest chain varied with worker count: "
            f"{[d[:12] for d in digests]}")
    broken = [s["name"] for s in shards if not s["payload"]["ok"]]
    if broken:
        raise PerfDivergence(
            f"sweep_scaling: scenarios failed their invariants: {broken}")

    def rate(workers: int) -> float:
        return workers_out[str(workers)]["scenarios_per_sec"]

    serial = workers_out["1"]
    return {
        "ops": runs,
        "events": sum(s["payload"]["events_fired"] for s in shards),
        # parallel shards overlap in simulated time; report the longest
        "sim_ms": round(max(s["payload"]["sim_ms"] for s in shards), 6),
        "wall_ms": serial["wall_ms"],   # ops/sec = serial scenarios/sec
        "workers": workers_out,
        "speedup_2_workers": (round(rate(2) / rate(1), 3)
                              if rate(1) else 0.0),
        "speedup_4_workers": (round(rate(4) / rate(1), 3)
                              if rate(1) else 0.0),
        "sweep_digest": digests[0][:16],
    }


# ----------------------------------------------------------------------
# epidemic repair frontier (publishing.gossip)
# ----------------------------------------------------------------------

#: frontier cells: (mode, recording-path loss rate, gossip buffer depth)
_GOSSIP_FULL = (
    ("recorder", 0.0, 0),
    ("recorder", 0.1, 0),
    ("recorder", 0.25, 0),
    ("gossip", 0.1, 128),
    ("gossip", 0.25, 128),
    ("gossip", 0.25, 8),
    ("gossip", 0.4, 128),
)
_GOSSIP_SMOKE = (
    ("recorder", 0.0, 0),
    ("recorder", 0.15, 0),
    ("gossip", 0.15, 64),
    ("gossip", 0.3, 16),
)


def _recorded_set_digest(system) -> int:
    """Order-independent digest of every process's recorded id set —
    the set-convergence contract of docs/GOSSIP.md: a converged
    gossip+loss run matches the lossless recorder-only run on *sets*
    even though repair reordered the arrival interleave."""
    digest = 0
    db = system.recorder.db
    for pid in sorted(db.records):
        record = db.records[pid]
        digest = (digest * 1000003 + pid.node * 131 + pid.local * 31 + 7) % _HASH_MOD
        for sender, seq in sorted(record.recorded_ids):
            digest = (digest * 1000003
                      + sender.node * 131 + sender.local * 31 + seq) % _HASH_MOD
    return digest


def gossip_repair(seed: int, smoke: bool) -> Dict[str, Any]:
    """The reliability-vs-overhead frontier of the epidemic repair path.

    Each cell runs the counter workload under seed-pure loss on the
    recording path. The ``recorder`` cells keep strict enforcement —
    misses are repaired by sender retransmission (overhead shows up as
    ``retransmissions``); the ``gossip`` cells tolerate misses and pull
    the log holes closed from bounded peer buffers (overhead shows up
    as pulls/supplies, and a too-small buffer surfaces as ``gave_up``).
    Every cell's recorded-set digest folds into ``replay_digest``, so
    the compare gate pins two-run determinism of the loss injection,
    the fanout draws, and the repair order.
    """
    from repro.chaos.campaign import ChaosCampaign
    from repro.chaos.workload import run_scenario

    cells = _GOSSIP_SMOKE if smoke else _GOSSIP_FULL
    messages = 8 if smoke else 18
    frontier: List[Dict[str, Any]] = []
    digest = 0
    events = 0
    sim_ms = 0.0
    lossless_digest = None
    for mode, loss_rate, depth in cells:
        overrides: Dict[str, Any] = {
            "gossip": mode == "gossip",
            "gossip_loss_rate": loss_rate,
            "gossip_round_ms": 120.0,
            "gossip_max_retries": 6,
        }
        if depth:
            overrides["gossip_buffer_depth"] = depth
        result = run_scenario(
            ChaosCampaign([], name=f"gossip_{mode}_{loss_rate}"),
            nodes=2, pairs=1, messages=messages, master_seed=seed,
            checkpoint_policy=None, settle_ms=4000.0,
            config_overrides=overrides)
        if not result.ok:
            raise PerfDivergence(
                f"gossip_repair[{mode} loss={loss_rate}]: invariants failed:\n"
                + result.report.format())
        system = result.system
        snap = system.metrics_snapshot()
        retrans = sum(v for k, v in snap.items()
                      if k.startswith("transport.")
                      and k.endswith(".retransmissions"))
        cell_digest = _recorded_set_digest(system)
        digest = (digest * 1000003 + cell_digest) % _HASH_MOD
        if mode == "recorder" and loss_rate == 0.0:
            lossless_digest = cell_digest
        gave_up = int(snap.get("gossip.gave_up", 0))
        frontier.append({
            "mode": mode,
            "loss_rate": loss_rate,
            "buffer_depth": depth or 256,
            "retransmissions": int(retrans),
            "receptions_dropped": int(snap.get("gossip.receptions_dropped", 0)),
            "repaired": int(snap.get("gossip.messages_repaired", 0)),
            "pulls_sent": int(snap.get("gossip.pulls_sent", 0)),
            "supplies_received": int(snap.get("gossip.supplies_received", 0)),
            "gave_up": gave_up,
            "set_matches_lossless": (lossless_digest is not None
                                     and cell_digest == lossless_digest),
        })
        if (mode == "gossip" and gave_up == 0
                and lossless_digest is not None
                and cell_digest != lossless_digest):
            raise PerfDivergence(
                f"gossip_repair[{mode} loss={loss_rate}]: repair converged "
                f"(gave_up=0) but the recorded set diverged from the "
                f"lossless run")
        events += system.engine.events_fired
        sim_ms += system.engine.now
    return {
        "ops": 2 * messages * len(cells),
        "events": events,
        "sim_ms": round(sim_ms, 6),
        "replay_digest": digest,
        "cells": len(cells),
        "frontier": frontier,
    }


#: adversary_quorum cells: (recorders 2f+1, faulty, messages per log)
_ADVERSARY_FULL = ((3, 1, 400), (5, 2, 400), (7, 3, 300), (5, 2, 1200))
_ADVERSARY_SMOKE = ((3, 1, 60), (5, 2, 60))


def adversary_quorum(seed: int, smoke: bool) -> Dict[str, Any]:
    """Quorum-replay throughput against Byzantine recorder logs.

    Each cell feeds one ground-truth message stream into 2f+1 recorder
    databases — the last ``faulty`` of them through a seed-pure
    :class:`~repro.chaos.adversary.ByzantineRecorder` stage — then
    wall-times the cross-recorder majority vote
    (:func:`~repro.publishing.multi_recorder.quorum_replay_stream`).
    The ≤f contract is enforced inline: the majority stream must digest
    to the fault-free state and only faulty recorders may be flagged;
    the digest folds the flagged set too, so the compare gate pins the
    detection behaviour, not just the winner.  A final end-to-end cell
    runs the live acceptance rig (Byzantine stage armed mid-traffic,
    node crash, quorum recovery), which supplies the workload's
    engine-event and simulated-time figures.
    """
    from repro.chaos.adversary import (ByzantineRecorder, feed_record,
                                       run_quorum_scenario)
    from repro.demos.ids import MessageId, ProcessId
    from repro.demos.messages import Message
    from repro.publishing.database import RecorderDatabase
    from repro.publishing.multi_recorder import (process_state_digest,
                                                 quorum_replay_stream)

    src = ProcessId(1, 5)
    dst = ProcessId(2, 9)

    def message(i: int) -> Message:
        return Message(msg_id=MessageId(src, i), src=src, dst=dst,
                       channel=0, code=1, body=("add", i, i * i),
                       size_bytes=24)

    def build(messages: int, stage=None):
        db = RecorderDatabase()
        record = db.create(dst, node=dst.node, image="perf/counter")
        for i in range(1, messages + 1):
            feed_record(record, db, message(i), stage=stage)
        return record

    cells = _ADVERSARY_SMOKE if smoke else _ADVERSARY_FULL
    rows: List[Dict[str, Any]] = []
    digest = 0
    ops = 0
    wall_ms = 0.0
    for index, (recorders, faulty, messages) in enumerate(cells):
        f = (recorders - 1) // 2
        truth = process_state_digest(build(messages).arrivals)
        records = []
        for k in range(recorders):
            stage = None
            if k >= recorders - faulty:
                stage = ByzantineRecorder(
                    random.Random(seed * 1000003 + index * 131 + k),
                    rate=0.3)
            records.append((90 + k, build(messages, stage)))
        start = time.perf_counter()
        verdict = quorum_replay_stream(records, f=f)
        elapsed = (time.perf_counter() - start) * 1000.0
        wall_ms += elapsed
        majority = process_state_digest(verdict.stream)
        flagged = sorted(verdict.divergent)
        honest_flagged = [rid for rid in flagged
                          if rid < 90 + recorders - faulty]
        if faulty <= f and (majority != truth or honest_flagged
                            or verdict.unresolved):
            raise PerfDivergence(
                f"adversary_quorum[{recorders}r/{faulty}b]: <=f replay "
                f"diverged (digest match {majority == truth}, honest "
                f"flagged {honest_flagged}, unresolved "
                f"{verdict.unresolved})")
        ops += verdict.replayed
        digest = (digest * 1000003 + majority) % _HASH_MOD
        for rid in flagged:
            digest = (digest * 1000003 + rid) % _HASH_MOD
        digest = (digest * 1000003 + verdict.unresolved) % _HASH_MOD
        rows.append({
            "recorders": recorders,
            "faulty": faulty,
            "messages": messages,
            "replayed": verdict.replayed,
            "flagged": flagged,
            "stale_skips": verdict.stale_skips,
            "unresolved": verdict.unresolved,
            "wall_ms": round(elapsed, 3),
            "records_per_s": round(
                verdict.replayed / (elapsed / 1000.0), 1)
            if elapsed > 0 else 0.0,
        })
    # One live rig cell: Byzantine stage armed mid-traffic, node crash,
    # recovery through the shared quorum vote.  Its engine gives the
    # workload real event/sim figures, and folding its totals into the
    # digest pins the end-to-end path, not just the offline vote.
    rig = run_quorum_scenario(f=1, byzantine=1,
                              messages=8 if smoke else 30,
                              master_seed=seed)
    report = rig.report
    if not report["ok"]:
        raise PerfDivergence(
            "adversary_quorum rig: scenario invariants failed "
            f"(total {report['total']} expected {report['expected']}, "
            f"flagged honest {report['flagged_honest']})")
    digest = (digest * 1000003 + report["total"]) % _HASH_MOD
    for rid in report["outvoted"]:
        digest = (digest * 1000003 + rid) % _HASH_MOD
    rows.append({
        "recorders": report["recorders"],
        "faulty": report["byzantine"],
        "messages": report["messages"],
        "replayed": report["messages_replayed"],
        "flagged": list(report["outvoted"]),
        "stale_skips": report["quorum_stale_skips"],
        "unresolved": report["quorum_unresolved"],
        "mode": "rig",
    })
    return {
        "ops": ops + report["messages_replayed"],
        "events": rig.engine.events_fired,
        "sim_ms": round(report["sim_ms"], 6),
        "wall_ms": round(wall_ms, 6),
        "replay_digest": digest,
        "cells": len(cells) + 1,
        "frontier": rows,
    }


# ----------------------------------------------------------------------
# planet-scale federation (cluster.placement + queueing.federation)
# ----------------------------------------------------------------------

#: federation_scaling knobs:
#: (cluster counts, cluster_size, recorder_shards, messages, duration_ms)
_FEDERATION_FULL = ((4, 16, 32, 64, 100), 2, 2, 3, 2000.0)
#: smoke still climbs to 64 clusters: the committed curve must keep
#: >=3 cells with the largest federation at planet scale (ISSUE 10)
_FEDERATION_SMOKE = ((4, 16, 64), 2, 2, 3, 2000.0)

#: the gateway station's uplink serialisation time for the capacity
#: section, and the probe grid around its modeled knee (fractions of
#: 1000/service_ms — dense enough that the measured knee lands within
#: ~10% of the model)
_FEDERATION_SERVICE_MS = 2.0
_FEDERATION_PROBE_FRACTIONS = (0.6, 0.8, 0.95, 1.05, 1.1, 1.25, 1.5)


def federation_scaling(seed: int, smoke: bool) -> Dict[str, Any]:
    """The 100-cluster scaling curve with sharded recorder placement.

    Each cell is one ring federation of two-node clusters, every
    cluster's recorder split into two claim-filtered shards
    (``cluster.placement``), run two ways: the single-engine serial
    reference, and the same scenario as an independent shard through
    the :mod:`repro.parallel` sweep runner (a separate OS process — the
    cross-process determinism check). Both must produce byte-identical
    federation digests, so a scaling figure can never describe
    divergent runs.

    The capacity section pairs the federation-level queueing model
    (:class:`~repro.queueing.federation.FederationCapacityModel`) with a
    measurement: the modeled user-capacity knee and saturating station
    per topology, and the gateway station's modeled saturation rate
    against a *driven* :class:`~repro.cluster.gateways.Gateway`'s
    measured knee, with the relative error recorded per topology.
    """
    from repro.cluster.scenario import DesScenario, run_serial
    from repro.parallel import federation_tasks, run_tasks
    from repro.parallel.runner import canonical_json
    from repro.queueing import OPERATING_POINTS
    from repro.queueing.federation import (
        FederationCapacityModel,
        FederationShape,
        measure_gateway_knee,
        modeled_gateway_knee_per_s,
    )

    counts, cluster_size, shards, messages, duration_ms = (
        _FEDERATION_SMOKE if smoke else _FEDERATION_FULL)
    grid: Dict[str, Any] = {}
    digests: Dict[str, str] = {}
    ops = 0
    events = 0
    wall_ms = 0.0
    for clusters in counts:
        scenario = DesScenario(clusters=clusters, cluster_size=cluster_size,
                               recorder_shards=shards, messages=messages,
                               duration_ms=duration_ms, master_seed=seed)
        serial = run_serial(scenario)
        if not serial["workload_ok"]:
            raise PerfDivergence(
                f"federation_scaling[{clusters}]: serial workload incomplete")
        tasks = federation_tasks(cluster_counts=(clusters,),
                                 cluster_size=cluster_size,
                                 recorder_shards=shards, messages=messages,
                                 duration_ms=duration_ms, seed=seed)
        shard = run_tasks(tasks, max_workers=2)[0]
        if shard["payload"]["digest"] != serial["digest"]:
            raise PerfDivergence(
                f"federation_scaling[{clusters}]: sweep-runner digest "
                f"diverged from serial ({shard['payload']['digest'][:12]} "
                f"!= {serial['digest'][:12]})")
        ops += clusters * messages
        events += serial["frames_forwarded"]
        wall_ms += serial["wall_ms"]
        digests[str(clusters)] = serial["digest"]
        grid[str(clusters)] = {
            "nodes": clusters * cluster_size,
            "recorder_shards": shards,
            "frames_forwarded": serial["frames_forwarded"],
            "dead_letters": serial["dead_letters"],
            "serial_wall_ms": round(serial["wall_ms"], 3),
            "digest": serial["digest"][:16],
        }
    # -- capacity section: modeled knee per topology vs a driven gateway
    modeled_rate = modeled_gateway_knee_per_s(_FEDERATION_SERVICE_MS)
    gateway = measure_gateway_knee(
        _FEDERATION_SERVICE_MS,
        rates_per_s=tuple(round(modeled_rate * f, 1)
                          for f in _FEDERATION_PROBE_FRACTIONS))
    capacity: Dict[str, Any] = {}
    for topology in ("ring", "mesh"):
        shape = FederationShape(clusters=max(counts), topology=topology,
                                recorder_shards=shards,
                                gateway_service_ms=_FEDERATION_SERVICE_MS)
        model = FederationCapacityModel(OPERATING_POINTS["mean"], shape)
        capacity[topology] = {
            "model": model.knee_report(),
            "measured_gateway_knee_per_s": gateway["measured_knee_per_s"],
            "modeled_gateway_knee_per_s": gateway["modeled_knee_per_s"],
            "relative_error": gateway.get("relative_error"),
        }
    event_digest = hashlib.sha256(
        canonical_json(digests).encode()).hexdigest()
    return {
        "ops": ops,
        "events": events,
        "sim_ms": round(500.0 + duration_ms, 6),
        "wall_ms": round(wall_ms, 6),
        # wall_ms sums a few short federation runs — load jitter
        # dominates, so the gates are the serial-vs-sweep-runner digest
        # equality per cell and the exact event_digest pin, not the
        # generic ops/sec tolerance.
        "throughput_gated": False,
        "largest_federation": max(counts),
        "grid": grid,
        "capacity": capacity,
        "gateway_probes": gateway["probes"],
        "event_digest": event_digest,
    }


#: name -> workload function, in canonical report order
WORKLOADS: Dict[str, Callable[[int, bool], Dict[str, Any]]] = {
    "engine_churn": engine_churn,
    "storm_csma": storm_csma,
    "storm_acking": storm_acking,
    "storm_token_ring": storm_token_ring,
    "recorder_pipeline": recorder_pipeline,
    "recorder_scaling": recorder_scaling,
    "chaos_campaign": chaos_campaign,
    "sweep_scaling": sweep_scaling,
    "gossip_repair": gossip_repair,
    "adversary_quorum": adversary_quorum,
    "federation_scaling": federation_scaling,
}
