"""Command-line front end: ``python -m repro <command>``.

Commands:

* ``demo``        — run the quickstart scenario (crash + transparent
  recovery) and print a short narrative;
* ``capacity``    — print the §5.1 capacity table for each operating
  point;
* ``utilization`` — print the Figure 5.5 utilization sweep for one
  operating point;
* ``figure57``    — run the Figure 5.6 measurement program with and
  without publishing and print Figure 5.7;
* ``example3_1``  — print the Figure 3.1 recovery-time worked example;
* ``trace``       — run a small crash/recovery scenario and dump the
  instrumentation event stream as JSON lines;
* ``metrics``     — run the same scenario and dump the metrics-registry
  snapshot as JSON;
* ``chaos``       — run a fault campaign (scripted, from a file, or the
  seed-determined monkey) against a live workload and print the
  campaign report (see ``docs/CHAOS.md``);
* ``perf``        — run the deterministic benchmark workloads and write
  ``BENCH_publishing.json`` (see ``docs/PERFORMANCE.md``);
* ``sweep``       — shard an evaluation sweep (chaos seed matrix,
  capacity / utilization / figure57 grids, perf suite) over worker
  processes and merge the results deterministically
  (``--check`` proves parallel == serial digest-for-digest);
* ``federation``  — run sharded-recorder federation cells across
  cluster counts, digest-gating the serial run against the same cell
  run by the sweep runner, and print the federation capacity model's
  knee against a measured gateway (see ``docs/FEDERATION.md``).

``capacity``, ``utilization``, ``chaos`` (with ``--runs K``) and
``perf`` accept ``--parallel N`` to shard their work over N worker
processes; results are identical to serial execution by construction.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import Program, System, SystemConfig
    from repro.demos.ids import ProcessId
    from repro.demos.links import Link

    class Accumulator(Program):
        def __init__(self):
            super().__init__()
            self.total = 0

        def on_message(self, ctx, m):
            if isinstance(m.body, tuple) and m.body[0] == "add":
                self.total += m.body[1]
                if m.passed_link_id is not None:
                    ctx.send(m.passed_link_id, ("total", self.total))

    class Client(Program):
        def __init__(self, server, n):
            super().__init__()
            self.server = tuple(server)
            self.n = n
            self.i = 0
            self.replies = []

        def attach_kernel(self, kernel):
            self._ctx_kernel = kernel

        def setup(self, ctx):
            pcb = self._ctx_kernel.processes[ctx.pid]
            self.link = self._ctx_kernel.forge_link(
                pcb, Link(dst=ProcessId(*self.server)))
            self._next(ctx)

        def _next(self, ctx):
            if self.i < self.n:
                self.i += 1
                reply = ctx.create_link(code=1)
                ctx.send(self.link, ("add", self.i), pass_link_id=reply)

        def on_message(self, ctx, m):
            if isinstance(m.body, tuple) and m.body[0] == "total":
                self.replies.append(m.body[1])
                self._next(ctx)

    system = System(SystemConfig(nodes=2, medium=args.medium))
    system.registry.register("cli/server", Accumulator)
    system.registry.register("cli/client", Client)
    system.boot()
    server = system.spawn_program("cli/server", node=2)
    client = system.spawn_program("cli/client", args=(tuple(server), 30),
                                  node=1)
    system.run(1200)
    print(f"[t={system.engine.now:7.0f} ms] workload running "
          f"({len(system.program_of(client).replies)} replies in)")
    system.crash_process(server)
    print(f"[t={system.engine.now:7.0f} ms] server CRASHED")
    while len(system.program_of(client).replies) < 30:
        system.run(1000)
    replies = system.program_of(client).replies
    ok = replies == [sum(range(1, k + 1)) for k in range(1, 31)]
    print(f"[t={system.engine.now:7.0f} ms] workload complete")
    print(f"replies exactly match the crash-free run: {ok}")
    print(f"recoveries: {system.recovery.stats.recoveries_completed}, "
          f"messages replayed: {system.recovery.stats.messages_replayed}")
    return 0 if ok else 1


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.parallel import capacity_tasks, run_tasks

    # The same shard path serial and parallel: --parallel N only changes
    # how many worker processes probe the operating points.
    shards = run_tasks(capacity_tasks(), max_workers=args.parallel or 1)
    print(f"{'operating point':<18} {'max users':>9} {'nodes':>6} "
          f"{'bottleneck':>10}")
    for shard in shards:
        p = shard["payload"]
        print(f"{p['point']:<18} {p['users']:>9} {p['nodes']:>6.2f} "
              f"{p['bottleneck']:>10}")
    return 0


def _cmd_utilization(args: argparse.Namespace) -> int:
    from repro.parallel import run_tasks, utilization_tasks
    from repro.queueing import OPERATING_POINTS

    point = OPERATING_POINTS[args.point]
    shards = run_tasks(utilization_tasks(point=args.point),
                       max_workers=args.parallel or 1)
    print(f"operating point: {args.point} "
          f"({point.users_per_node} users/node)")
    print(f"{'disks':>5} {'nodes':>5} {'network':>8} {'cpu':>8} {'disk':>8}")
    for shard in shards:
        p = shard["payload"]
        u = p["utilizations"]
        flag = "  SATURATED" if not p["stable"] else ""
        print(f"{p['disks']:>5} {p['nodes']:>5} {100 * u['network']:>7.1f}% "
              f"{100 * u['cpu']:>7.1f}% {100 * u['disk']:>7.1f}%{flag}")
    return 0


def _cmd_figure57(args: argparse.Namespace) -> int:
    from repro.metrics import measure_send_to_self

    for publishing in (True, False):
        r = measure_send_to_self(publishing=publishing, iterations=256)
        label = "with publishing   " if publishing else "without publishing"
        print(f"{label}: real {r['real_ms_per_iter']:6.2f} ms/iter, "
              f"kernel CPU {r['kernel_cpu_ms_per_iter']:6.2f} ms/iter")
    return 0


def _cmd_example3_1(args: argparse.Namespace) -> int:
    from repro.publishing.recovery_time import figure_3_1_example

    example = figure_3_1_example()
    print(f"after 4-page checkpoint : {example['after_checkpoint_ms']:.0f} ms")
    print(f"after 100 ms of compute : {example['after_compute_ms']:.0f} ms")
    print(f"after one 200 B message : {example['after_message_ms']:.0f} ms")
    return 0


def _run_observed_scenario(medium: str, duration_ms: float, crash: bool):
    """A small deterministic workload that exercises every layer of the
    instrumentation spine: two nodes, a send-to-self measurement program,
    and (optionally) a node crash with transparent recovery."""
    from repro import System, SystemConfig
    from repro.metrics.metering import SendToSelfProgram

    system = System(SystemConfig(nodes=2, medium=medium))
    system.registry.register("metrics/send_to_self", SendToSelfProgram)
    system.boot()
    system.spawn_program("metrics/send_to_self", args=(64,), node=1)
    system.run(duration_ms / 2)
    if crash:
        system.crash_node(2)
    system.run(duration_ms / 2)
    return system


def _write_or_print(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_trace(args: argparse.Namespace) -> int:
    system = _run_observed_scenario(args.medium, args.duration,
                                    not args.no_crash)
    events = system.obs.bus.select(scope=args.scope) if args.scope \
        else list(system.obs.bus)
    text = "\n".join(json.dumps(e.to_dict(), sort_keys=True) for e in events)
    _write_or_print(text, args.output)
    print(f"# {len(events)} events", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    system = _run_observed_scenario(args.medium, args.duration,
                                    not args.no_crash)
    _write_or_print(system.obs.registry.to_json(), args.output)
    return 0


def _build_demo_campaign(nodes: int):
    """The fixed demo campaign: one of everything, well spaced."""
    from repro.chaos.actions import (
        CrashNode,
        CrashRecorder,
        DiskStall,
        Partition,
        RestartRecorder,
    )
    from repro.chaos.campaign import ChaosCampaign
    node_ids = list(range(1, nodes + 1))
    actions = [CrashNode(2000.0, node=node_ids[-1])]
    if len(node_ids) >= 2:
        actions.append(Partition(4500.0,
                                 groups=(tuple(node_ids[:1]),
                                         tuple(node_ids[1:])),
                                 duration_ms=1200.0))
    actions.append(DiskStall(7000.0, duration_ms=300.0))
    actions.append(CrashRecorder(9000.0))
    actions.append(RestartRecorder(10500.0))
    return ChaosCampaign(actions, name="demo")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.campaign import load_campaign, monkey_campaign
    from repro.chaos.workload import run_scenario
    from repro.sim.rng import RngStreams

    if args.runs > 1:
        # Seed-matrix mode: shard --runs derived-seed scenarios over
        # --parallel workers (see docs/PERFORMANCE.md).
        return _chaos_matrix(args)

    def build_campaign():
        if args.file:
            return load_campaign(args.file)
        if args.scenario == "monkey":
            return monkey_campaign(RngStreams(args.seed),
                                   list(range(1, args.nodes + 1)),
                                   duration_ms=args.duration)
        return _build_demo_campaign(args.nodes)

    def run_once():
        return run_scenario(build_campaign(), nodes=args.nodes,
                            pairs=args.pairs, messages=args.messages,
                            master_seed=args.seed, medium=args.medium)

    if args.save_campaign:
        build_campaign().save(args.save_campaign)
    result = run_once()
    identical = None
    if args.verify_determinism:
        identical = result.event_stream() == run_once().event_stream()
    ok = result.ok and identical is not False
    if args.json:
        payload = result.report.to_dict()
        payload["totals"] = result.totals
        payload["expected_total"] = result.expected
        if identical is not None:
            payload["replay_identical"] = identical
        payload["ok"] = ok
        _write_or_print(json.dumps(payload, indent=2, sort_keys=True),
                        args.output)
    else:
        text = result.report.format()
        if identical is not None:
            text += ("\n  replay: second run "
                     + ("bit-identical" if identical else "DIVERGED"))
        _write_or_print(text, args.output)
    return 0 if ok else 1


def _cmd_gossip(args: argparse.Namespace) -> int:
    """The epidemic-repair acceptance scenario (docs/GOSSIP.md).

    Crash the recorder mid-traffic, restart it into a log with holes,
    then crash a counter node so recovery must replay across the gap.
    With gossip the holes heal by peer pull and the workload lands
    exactly; the contrast arm (same faults, gossip off, tight retry
    budget) dead-letters instead — the reliability gap the repair path
    closes.
    """
    from repro.chaos.actions import CrashNode, CrashRecorder, RestartRecorder
    from repro.chaos.campaign import ChaosCampaign
    from repro.chaos.workload import run_scenario

    def build_campaign():
        # Traffic spans roughly 0.7-2.8 s simulated; the outage window
        # sits inside it and the node crash lands after the restart.
        return ChaosCampaign(
            [CrashRecorder(1000.0),
             RestartRecorder(1000.0 + args.outage),
             CrashNode(1000.0 + args.outage + 1400.0, node=args.nodes)],
            name="gossip_repair")

    def run_once(gossip: bool):
        # Node recovery replays the whole log through the recorder's
        # disk path; give the settle phase room for it.
        return run_scenario(
            build_campaign(), nodes=args.nodes, pairs=1,
            messages=args.messages, master_seed=args.seed,
            settle_ms=8000.0,
            config_overrides={"gossip": gossip,
                              "transport_max_retries": 6})

    result = run_once(True)
    identical = None
    if args.verify_determinism:
        identical = result.event_stream() == run_once(True).event_stream()
    contrast = None if args.no_contrast else run_once(False)
    snap = result.system.metrics_snapshot()
    ok = result.ok and identical is not False
    if args.json:
        payload = result.report.to_dict()
        payload["totals"] = result.totals
        payload["expected_total"] = result.expected
        payload["gossip"] = {
            k.split(".", 1)[1]: v for k, v in sorted(snap.items())
            if k.startswith("gossip.")}
        if identical is not None:
            payload["replay_identical"] = identical
        if contrast is not None:
            payload["contrast"] = {
                "ok": contrast.ok,
                "totals": contrast.totals,
                "dead_letters": len(contrast.system.dead_letters),
            }
        payload["ok"] = ok
        _write_or_print(json.dumps(payload, indent=2, sort_keys=True),
                        args.output)
    else:
        lines = [result.report.format()]
        lines.append(
            f"  gossip: flagged={snap.get('gossip.gaps_flagged', 0)} "
            f"repaired={snap.get('gossip.messages_repaired', 0)} "
            f"rounds={snap.get('gossip.rounds', 0)} "
            f"gave_up={snap.get('gossip.gave_up', 0)}")
        if identical is not None:
            lines.append("  replay: second run "
                         + ("bit-identical" if identical else "DIVERGED"))
        if contrast is not None:
            lines.append(
                f"  without gossip: ok={contrast.ok} "
                f"dead_letters={len(contrast.system.dead_letters)} "
                f"totals={contrast.totals} (expected {contrast.expected})")
        _write_or_print("\n".join(lines), args.output)
    return 0 if ok else 1


def _cmd_adversary(args: argparse.Namespace) -> int:
    """The quorum acceptance scenario (docs/ADVERSARY.md).

    A 2f+1 recorder cluster acknowledges all traffic; mid-run the last
    ``--byzantine`` recorders turn Byzantine, then the counter's node
    crashes so recovery must replay through the cross-recorder vote.
    With ``byzantine <= f`` the run must land exactly and flag only the
    faulty recorders; beyond f the corruption must be *detected* —
    divergence or unresolved-vote events, never a silent wrong total.
    """
    from repro.chaos.adversary import run_quorum_scenario

    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())

    def run_once():
        return run_quorum_scenario(
            f=args.f, byzantine=args.byzantine, messages=args.messages,
            master_seed=args.seed, modes=modes, rate=args.rate,
            equivocate=args.equivocate)

    result = run_once()
    identical = None
    if args.verify_determinism:
        identical = result.event_stream() == run_once().event_stream()
    ok = result.ok and identical is not False
    payload = dict(result.report)
    if identical is not None:
        payload["replay_identical"] = identical
    payload["ok"] = ok
    if args.json:
        _write_or_print(json.dumps(payload, indent=2, sort_keys=True),
                        args.output)
    else:
        r = result.report
        lines = [
            f"adversary quorum — {'PASS' if ok else 'FAIL'} "
            f"(f={r['f']}, {r['byzantine']}/{r['recorders']} byzantine, "
            f"seed {r['seed']})",
            f"  workload: total={r['total']} expected={r['expected']} "
            f"exact={r['exact']}",
            f"  faults injected: {r['faults_injected']} "
            f"(modes {','.join(r['modes'])} at rate {r['rate']})",
            f"  quorum: replays={r['quorum_replays']} "
            f"divergences={r['quorum_divergences']} "
            f"unresolved={r['quorum_unresolved']} "
            f"outvoted={r['outvoted']}",
        ]
        if r["flagged_honest"]:
            lines.append(f"  FLAGGED HONEST RECORDERS: "
                         f"{r['flagged_honest']}")
        if identical is not None:
            lines.append("  replay: second run "
                         + ("bit-identical" if identical else "DIVERGED"))
        _write_or_print("\n".join(lines), args.output)
    return 0 if ok else 1


def _chaos_matrix(args: argparse.Namespace) -> int:
    """``chaos --runs K [--parallel N]``: a sharded seed matrix."""
    from repro.parallel import chaos_matrix_tasks, run_tasks, sweep_digest

    tasks = chaos_matrix_tasks(
        root_seed=args.seed, runs=args.runs, nodes=args.nodes,
        pairs=args.pairs, messages=args.messages, medium=args.medium,
        duration_ms=args.duration,
        campaign=args.file if args.file else None)
    shards = run_tasks(tasks, max_workers=args.parallel)
    if args.verify_determinism:
        replay = run_tasks(tasks, max_workers=1)
        identical = sweep_digest(shards) == sweep_digest(replay)
    else:
        identical = None
    ok = (all(s["payload"]["ok"] for s in shards)
          and identical is not False)
    if args.json:
        payload = {
            "runs": len(shards),
            "digest": sweep_digest(shards),
            "ok": ok,
            "shards": shards,
        }
        if identical is not None:
            payload["replay_identical"] = identical
        _write_or_print(json.dumps(payload, indent=2, sort_keys=True),
                        args.output)
    else:
        lines = [f"chaos seed matrix — {'PASS' if ok else 'FAIL'} "
                 f"({len(shards)} scenarios, "
                 f"digest {sweep_digest(shards)[:16]})"]
        for shard in shards:
            p = shard["payload"]
            report = p["report"]
            lines.append(
                f"  [{'ok' if p['ok'] else 'FAIL'}] {shard['name']:<12} "
                f"seed={dict(shard['params'])['seed']:<22} "
                f"faults={report['faults_injected']:<3} "
                f"t={report['now_ms']:.0f}ms")
        if identical is not None:
            lines.append("  replay: serial re-run "
                         + ("digest-identical" if identical
                            else "DIVERGED"))
        _write_or_print("\n".join(lines), args.output)
    return 0 if ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.parallel import run_sweep

    kwargs = {}
    if args.kind == "chaos":
        kwargs = dict(root_seed=args.seed, runs=args.runs,
                      nodes=args.nodes, pairs=args.pairs,
                      messages=args.messages, medium=args.medium,
                      duration_ms=args.duration,
                      campaign=args.file if args.file else None)
    elif args.kind == "capacity":
        kwargs = dict(disks=tuple(int(d) for d in args.disks.split(",")))
    elif args.kind == "utilization":
        kwargs = dict(point=args.point)
    elif args.kind == "figure57":
        kwargs = dict(iterations=args.iterations)
    elif args.kind == "perf":
        kwargs = dict(names=args.workload or None, seed=args.seed,
                      smoke=args.smoke)
    merged = run_sweep(args.kind, max_workers=args.parallel,
                       check=args.check, **kwargs)
    ok = True
    if args.kind == "chaos":
        ok = all(s["payload"]["ok"] for s in merged["shards"])
    if args.check:
        ok = ok and merged["serial_check"]["matches"]
    if args.json or args.output:
        _write_or_print(json.dumps(merged, indent=2, sort_keys=True),
                        args.output)
    if not args.json or args.output:
        workers = merged.get("workers") or "auto"
        print(f"sweep {args.kind}: {merged['count']} shards, "
              f"workers={workers}, wall {merged['wall_ms']:.0f}ms, "
              f"digest {merged['digest'][:16]}")
        if args.check:
            check = merged["serial_check"]
            print("serial check: "
                  + ("MATCH" if check["matches"] else "MISMATCH"))
            for line in check["mismatches"]:
                print(f"  - {line}")
        print(f"result: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_federation(args: argparse.Namespace) -> int:
    """The federation acceptance rig: every cell runs serially and
    through the sweep runner (a separate OS process), and the two must
    agree digest-for-digest; then the capacity model's knee is paired
    with a driven gateway's measured saturation rate."""
    from repro.cluster.scenario import DesScenario, run_serial
    from repro.parallel import federation_tasks, run_tasks
    from repro.queueing import OPERATING_POINTS
    from repro.queueing.federation import (
        FederationCapacityModel,
        FederationShape,
        measure_gateway_knee,
        modeled_gateway_knee_per_s,
    )

    counts = sorted(set(args.clusters or [4, 8]))
    workers = args.workers or 2
    cells = []
    ok = True
    for clusters in counts:
        scenario = DesScenario(clusters=clusters,
                               cluster_size=args.cluster_size,
                               recorder_shards=args.shards,
                               messages=args.messages,
                               duration_ms=args.duration,
                               topology=args.topology,
                               master_seed=args.seed)
        serial = run_serial(scenario)
        shard = run_tasks(
            federation_tasks(cluster_counts=(clusters,),
                             cluster_size=args.cluster_size,
                             recorder_shards=args.shards,
                             topology=args.topology,
                             messages=args.messages,
                             duration_ms=args.duration,
                             seed=args.seed),
            max_workers=workers)[0]
        matches = shard["payload"]["digest"] == serial["digest"]
        ok = ok and matches and serial["workload_ok"]
        cells.append({
            "clusters": clusters,
            "nodes": clusters * args.cluster_size,
            "recorder_shards": args.shards,
            "digest": serial["digest"],
            "digests_match": matches,
            "workload_ok": serial["workload_ok"],
            "frames_forwarded": serial["frames_forwarded"],
            "serial_wall_ms": round(serial["wall_ms"], 3),
        })
    modeled_rate = modeled_gateway_knee_per_s(args.service_ms)
    gateway = measure_gateway_knee(
        args.service_ms,
        rates_per_s=tuple(round(modeled_rate * f, 1)
                          for f in (0.6, 0.8, 0.95, 1.05, 1.1, 1.25, 1.5)))
    capacity = {}
    for topology in ("ring", "mesh"):
        shape = FederationShape(clusters=max(max(counts), 2),
                                topology=topology,
                                recorder_shards=args.shards,
                                gateway_service_ms=args.service_ms)
        model = FederationCapacityModel(OPERATING_POINTS["mean"], shape)
        capacity[topology] = model.knee_report()
    report = {
        "cells": cells,
        "capacity": capacity,
        "gateway_knee": gateway,
        "ok": ok,
    }
    if args.json or args.output:
        _write_or_print(json.dumps(report, indent=2, sort_keys=True),
                        args.output)
    if not args.json or args.output:
        print(f"federation scaling ({args.topology}, "
              f"{args.shards} recorder shard(s)/cluster):")
        for cell in cells:
            print(f"  {cell['clusters']:>4} clusters "
                  f"digest {cell['digest'][:16]} "
                  f"serial {cell['serial_wall_ms']:7.1f}ms "
                  f"{'MATCH' if cell['digests_match'] else 'DIVERGED'}")
        for topology, knee in capacity.items():
            print(f"  capacity[{topology}]: knee {knee['knee_users']} "
                  f"users, bottleneck {knee['bottleneck']}")
        err = gateway.get("relative_error")
        print(f"  gateway knee: modeled {gateway['modeled_knee_per_s']:.0f}/s "
              f"measured {gateway['measured_knee_per_s']}/s "
              f"relative error {err if err is not None else 'n/a'}")
        print(f"result: {'PASS' if ok else 'FAIL'}")
    if args.check and not ok:
        return 1
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf.harness import main as perf_main

    output = args.output
    if output is None:
        # A partial run must not overwrite the canonical baseline by
        # default; pass --output explicitly to write one anyway.
        if args.workload:
            output = ""
            print("note: --workload selected, skipping default "
                  "BENCH_publishing.json write (use --output to force)")
        else:
            output = "BENCH_publishing.json"
    return perf_main(seed=args.seed, smoke=args.smoke, output=output,
                     only=args.workload or None, compare=args.compare,
                     tolerance=args.tolerance, parallel=args.parallel,
                     best_of=args.best_of)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of Presotto's PUBLISHING (SOSP 1983)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="crash + transparent recovery demo")
    demo.add_argument("--medium", default="broadcast",
                      choices=["broadcast", "acking_ethernet",
                               "csma_ethernet", "star", "token_ring"])
    demo.set_defaults(fn=_cmd_demo)

    def add_parallel(cmd, what):
        cmd.add_argument("--parallel", type=int, default=None, metavar="N",
                         help=f"shard {what} over N worker processes "
                              "(default: serial; results are identical "
                              "either way)")

    cap = sub.add_parser("capacity", help="§5.1 capacity table")
    add_parallel(cap, "the operating-point probes")
    cap.set_defaults(fn=_cmd_capacity)

    util = sub.add_parser("utilization", help="Figure 5.5 sweep")
    util.add_argument("--point", default="mean",
                      choices=["mean", "max_load_average",
                               "max_state_sizes", "max_message_rate"])
    add_parallel(util, "the grid cells")
    util.set_defaults(fn=_cmd_utilization)

    f57 = sub.add_parser("figure57", help="Figure 5.7 measurement")
    f57.set_defaults(fn=_cmd_figure57)

    f31 = sub.add_parser("example3_1", help="Figure 3.1 worked example")
    f31.set_defaults(fn=_cmd_example3_1)

    media_choices = ["broadcast", "acking_ethernet", "csma_ethernet",
                     "star", "token_ring"]
    for name, fn, help_text in (
            ("trace", _cmd_trace,
             "dump the scenario's event stream as JSON lines"),
            ("metrics", _cmd_metrics,
             "dump the scenario's metrics snapshot as JSON")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--medium", default="broadcast",
                         choices=media_choices)
        cmd.add_argument("--duration", type=float, default=5000.0,
                         help="simulated milliseconds to run")
        cmd.add_argument("--no-crash", action="store_true",
                         help="skip the mid-run node crash")
        cmd.add_argument("--output", default=None,
                         help="write to this file instead of stdout")
        if name == "trace":
            cmd.add_argument("--scope", default=None,
                             help="only events whose scope matches this "
                                  "prefix (e.g. 'transport', 'kernel.1')")
        cmd.set_defaults(fn=fn)

    chaos = sub.add_parser(
        "chaos", help="run a fault campaign and print the report")
    chaos.add_argument("--scenario", default="demo",
                       choices=["demo", "monkey"],
                       help="demo: one fixed fault of each kind; "
                            "monkey: seed-determined random campaign")
    chaos.add_argument("--file", default=None,
                       help="load the campaign from this JSON file "
                            "(overrides --scenario)")
    chaos.add_argument("--seed", type=int, default=1983,
                       help="master seed (drives both the workload "
                            "and the monkey)")
    chaos.add_argument("--nodes", type=int, default=3)
    chaos.add_argument("--pairs", type=int, default=3,
                       help="counter/driver pairs in the workload")
    chaos.add_argument("--messages", type=int, default=40,
                       help="request/reply round trips per pair")
    chaos.add_argument("--medium", default="broadcast",
                       choices=media_choices)
    chaos.add_argument("--duration", type=float, default=10_000.0,
                       help="monkey campaign horizon (simulated ms)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
    chaos.add_argument("--verify-determinism", action="store_true",
                       help="run the campaign twice and require "
                            "bit-identical event streams")
    chaos.add_argument("--save-campaign", default=None,
                       help="also write the campaign's action list to "
                            "this JSON file")
    chaos.add_argument("--output", default=None,
                       help="write the report to this file instead of "
                            "stdout")
    chaos.add_argument("--runs", type=int, default=1, metavar="K",
                       help="run a K-scenario seed matrix (seeds derived "
                            "from --seed per shard) instead of a single "
                            "campaign")
    add_parallel(chaos, "the seed matrix (--runs > 1)")
    chaos.set_defaults(fn=_cmd_chaos)

    gossip = sub.add_parser(
        "gossip", help="epidemic-repair acceptance scenario: recorder "
                       "outage mid-traffic, holes healed by peer pull "
                       "(docs/GOSSIP.md)")
    gossip.add_argument("--seed", type=int, default=1983)
    gossip.add_argument("--nodes", type=int, default=2)
    gossip.add_argument("--messages", type=int, default=30,
                        help="request/reply round trips")
    gossip.add_argument("--outage", type=float, default=1200.0,
                        help="recorder outage length (simulated ms)")
    gossip.add_argument("--no-contrast", action="store_true",
                        help="skip the gossip-off contrast arm")
    gossip.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    gossip.add_argument("--verify-determinism", action="store_true",
                        help="run the gossip arm twice and require "
                             "bit-identical event streams")
    gossip.add_argument("--output", default=None,
                        help="write the report to this file instead of "
                             "stdout")
    gossip.set_defaults(fn=_cmd_gossip)

    adversary = sub.add_parser(
        "adversary", help="Byzantine-recorder quorum acceptance "
                          "scenario: 2f+1 recorders outvote faulty "
                          "logs during replay (docs/ADVERSARY.md)")
    adversary.add_argument("--seed", type=int, default=1983)
    adversary.add_argument("--f", type=int, default=1,
                           help="fault tolerance: 2f+1 recorders run")
    adversary.add_argument("--byzantine", type=int, default=1,
                           help="how many recorders turn Byzantine")
    adversary.add_argument("--messages", type=int, default=30,
                           help="request/reply round trips")
    adversary.add_argument("--modes",
                           default="drop,corrupt,duplicate,reorder",
                           help="comma-separated Byzantine fault modes")
    adversary.add_argument("--rate", type=float, default=0.3,
                           help="per-record fault probability")
    adversary.add_argument("--equivocate", action="store_true",
                           help="faulty recorders also log shared "
                                "divergent payloads")
    adversary.add_argument("--json", action="store_true",
                           help="emit the report as JSON")
    adversary.add_argument("--verify-determinism", action="store_true",
                           help="run the scenario twice and require "
                                "bit-identical event streams")
    adversary.add_argument("--output", default=None,
                           help="write the report to this file instead "
                                "of stdout")
    adversary.set_defaults(fn=_cmd_adversary)

    sweep = sub.add_parser(
        "sweep", help="shard an evaluation sweep over worker processes "
                      "and merge the results deterministically")
    sweep.add_argument("--kind", default="chaos",
                       choices=["chaos", "capacity", "utilization",
                                "figure57", "perf"])
    add_parallel(sweep, "the sweep")
    sweep.add_argument("--check", action="store_true",
                       help="also run serially and fail on any shard "
                            "digest mismatch")
    sweep.add_argument("--seed", type=int, default=1983,
                       help="root seed (chaos/perf kinds)")
    sweep.add_argument("--runs", type=int, default=9,
                       help="chaos: scenarios in the seed matrix")
    sweep.add_argument("--nodes", type=int, default=3)
    sweep.add_argument("--pairs", type=int, default=2)
    sweep.add_argument("--messages", type=int, default=20)
    sweep.add_argument("--medium", default="broadcast",
                       choices=media_choices)
    sweep.add_argument("--duration", type=float, default=4000.0,
                       help="chaos: monkey campaign horizon (sim ms)")
    sweep.add_argument("--file", default=None,
                       help="chaos: replay this campaign JSON file in "
                            "every shard instead of per-shard monkeys")
    sweep.add_argument("--disks", default="1",
                       help="capacity: comma-separated disk counts")
    sweep.add_argument("--point", default="mean",
                       choices=["mean", "max_load_average",
                                "max_state_sizes", "max_message_rate"],
                       help="utilization: operating point")
    sweep.add_argument("--iterations", type=int, default=256,
                       help="figure57: send-to-self iterations")
    sweep.add_argument("--workload", action="append", default=None,
                       metavar="NAME", help="perf: only this workload "
                                            "(repeatable)")
    sweep.add_argument("--smoke", action="store_true",
                       help="perf: smoke-size workloads")
    sweep.add_argument("--json", action="store_true",
                       help="emit the merged report as JSON")
    sweep.add_argument("--output", default=None,
                       help="write the merged report JSON to this file")
    sweep.set_defaults(fn=_cmd_sweep)

    federation = sub.add_parser(
        "federation", help="sharded-recorder federation scaling cells "
                           "with a serial-vs-sweep digest gate and the "
                           "capacity-model knee (docs/FEDERATION.md)")
    federation.add_argument("--clusters", type=int, action="append",
                            default=None, metavar="N",
                            help="cluster count to run (repeatable; "
                                 "default 4 and 8)")
    federation.add_argument("--cluster-size", type=int, default=2,
                            help="nodes per cluster")
    federation.add_argument("--shards", type=int, default=2,
                            help="recorder shards per cluster")
    federation.add_argument("--topology", default="ring",
                            choices=["ring", "mesh"])
    federation.add_argument("--messages", type=int, default=3,
                            help="request/reply pairs per driver")
    federation.add_argument("--duration", type=float, default=2000.0,
                            help="simulated run length after settle (ms)")
    federation.add_argument("--seed", type=int, default=1983)
    federation.add_argument("--workers", type=int, default=None,
                            metavar="N",
                            help="worker processes for the sweep "
                                 "comparison (default 2)")
    federation.add_argument("--service-ms", type=float, default=2.0,
                            help="gateway uplink serialisation time for "
                                 "the capacity section")
    federation.add_argument("--check", action="store_true",
                            help="exit 1 unless every cell's serial and "
                                 "sweep-runner digests agree")
    federation.add_argument("--json", action="store_true",
                            help="emit the report as JSON")
    federation.add_argument("--output", default=None,
                            help="write the report JSON to this file")
    federation.set_defaults(fn=_cmd_federation)

    perf = sub.add_parser(
        "perf", help="run the benchmark workloads, write "
                     "BENCH_publishing.json")
    perf.add_argument("--smoke", action="store_true",
                      help="small workload sizes (seconds, for CI)")
    perf.add_argument("--seed", type=int, default=1983,
                      help="master seed for every workload")
    from repro.perf.workloads import WORKLOADS
    # choices= is deliberately not used: the harness validates names
    # itself (exit 2 with the full list), which keeps the repeatable
    # flag's error identical however the workload set grows.
    perf.add_argument("--workload", action="append", default=None,
                      metavar="NAME",
                      help="run only this workload (repeatable); "
                           "default: all of " + ", ".join(WORKLOADS))
    perf.add_argument("--output", default=None,
                      help="report path ('' to skip writing; default "
                           "BENCH_publishing.json for full-suite runs)")
    perf.add_argument("--compare", default=None, metavar="BASELINE.json",
                      help="fail (exit 1) if any workload's ops/sec "
                           "regressed more than --tolerance vs this "
                           "earlier report")
    perf.add_argument("--best-of", type=int, default=3, metavar="N",
                      help="interleaved suite passes, fastest pass kept "
                           "per workload: measures the noise floor "
                           "instead of one scheduler sample, and spaces "
                           "repetitions so one load burst cannot bias a "
                           "workload's figure (default 3)")
    perf.add_argument("--tolerance", type=float, default=0.25,
                      help="allowed fractional throughput drop for "
                           "--compare (default 0.25)")
    add_parallel(perf, "the workloads (timings run under contention)")
    perf.set_defaults(fn=_cmd_perf)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); die quietly.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
