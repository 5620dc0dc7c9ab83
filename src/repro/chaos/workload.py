"""A self-contained workload + scenario runner for chaos campaigns.

The CLI (``python -m repro chaos``) needs traffic to break: this module
carries a counter/driver request-reply pair (the same shape the test
suite uses) so campaigns exercise real guaranteed messages, recorder
logging, checkpoints and replay — without importing anything from the
tests.

:func:`run_scenario` is the one-call driver: build a system, spawn the
workload, arm the campaign, run until the workload completes (or a
deadline), settle, and return the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.demos.ids import ProcessId
from repro.demos.links import Link
from repro.demos.process import Program
from repro.system import System, SystemConfig

if TYPE_CHECKING:
    from repro.chaos.campaign import CampaignReport, ChaosCampaign

CHAOS_COUNTER_IMAGE = "chaos/counter"
CHAOS_DRIVER_IMAGE = "chaos/driver"


class ChaosCounter(Program):
    """Accumulates 'add' values; replies with the running total.

    State is a pure function of the messages received, so after any
    crash + replay the totals must match a fault-free run exactly.
    """

    def __init__(self):
        super().__init__()
        self.total = 0
        self.seen: List[int] = []

    def on_message(self, ctx, m):
        if isinstance(m.body, tuple) and m.body and m.body[0] == "add":
            self.total += m.body[1]
            self.seen.append(m.body[1])
            if m.passed_link_id is not None:
                ctx.send(m.passed_link_id, ("total", self.total))


class ChaosDriver(Program):
    """Sends 'add i' for i = 1..n, one per reply received."""

    def __init__(self, target=None, n=10):
        super().__init__()
        self.target = tuple(target) if target is not None else None
        self.n = n
        self.i = 0
        self.replies: List[int] = []
        self.target_link = None

    def attach_kernel(self, kernel):
        self._ctx_kernel = kernel

    def setup(self, ctx):
        if self.target is None:
            return
        pcb = self._ctx_kernel.processes[ctx.pid]
        self.target_link = self._ctx_kernel.forge_link(
            pcb, Link(dst=ProcessId(*self.target)))
        self._send_next(ctx)

    def _send_next(self, ctx):
        if self.target_link is not None and self.i < self.n:
            self.i += 1
            reply = ctx.create_link(channel=0, code=1)
            ctx.send(self.target_link, ("add", self.i), pass_link_id=reply)

    def on_message(self, ctx, m):
        if isinstance(m.body, tuple) and m.body and m.body[0] == "total":
            self.replies.append(m.body[1])
            self._send_next(ctx)


def register_chaos_programs(system: System) -> None:
    """Make the chaos workload images spawnable on ``system``."""
    if not system.registry.known(CHAOS_COUNTER_IMAGE):
        system.registry.register(CHAOS_COUNTER_IMAGE, ChaosCounter)
    if not system.registry.known(CHAOS_DRIVER_IMAGE):
        system.registry.register(CHAOS_DRIVER_IMAGE, ChaosDriver)


def expected_total(n: int) -> int:
    """The final counter total a correct run must reach: 1+2+...+n."""
    return n * (n + 1) // 2


@dataclass
class ScenarioResult:
    """Everything a caller (CLI, CI gate, test) needs from one run."""

    system: System
    report: CampaignReport
    #: per-pair (driver_pid, counter_pid)
    pairs: List[Tuple[ProcessId, ProcessId]]
    #: per-pair final counter totals, in pair order
    totals: List[int]
    expected: int

    @property
    def ok(self) -> bool:
        return self.report.ok

    def event_stream(self) -> str:
        """The full ordered event stream, for replay-equivalence checks."""
        return self.system.obs.bus.to_jsonl()


def run_scenario(campaign: ChaosCampaign,
                 nodes: int = 3,
                 pairs: int = 3,
                 messages: int = 40,
                 master_seed: int = 1983,
                 medium: str = "broadcast",
                 checkpoint_policy: Optional[str] = "storage",
                 deadline_ms: float = 120_000.0,
                 settle_ms: float = 3_000.0,
                 config_overrides: Optional[Dict[str, Any]] = None,
                 ) -> ScenarioResult:
    """Run one campaign against a counter/driver workload.

    Drivers live on node 1, counters spread over the remaining nodes
    (so node crashes hit counters and partitions cut request paths).
    Runs in 250 ms slices until every driver has its ``messages``
    replies or ``deadline_ms`` simulated time elapses, then settles,
    heals any partition the campaign left standing, and reports.

    The workload-correctness invariant — every counter ended at
    1+2+...+n exactly once — is appended to the report's checks.
    """
    from repro.chaos.campaign import InvariantCheck, build_report, check_invariants
    overrides = dict(config_overrides or {})
    system = System(SystemConfig(nodes=nodes, master_seed=master_seed,
                                 medium=medium,
                                 checkpoint_policy=checkpoint_policy,
                                 **overrides))
    register_chaos_programs(system)
    system.boot()

    spawned: List[Tuple[ProcessId, ProcessId]] = []
    node_ids = sorted(system.nodes)
    counter_nodes = node_ids[1:] or node_ids
    for k in range(pairs):
        counter_pid = system.spawn_program(
            CHAOS_COUNTER_IMAGE, node=counter_nodes[k % len(counter_nodes)])
        driver_pid = system.spawn_program(
            CHAOS_DRIVER_IMAGE, args=(tuple(counter_pid), messages),
            node=node_ids[0])
        spawned.append((driver_pid, counter_pid))
    system.run(200)

    campaign.arm(system)

    def drivers_done() -> bool:
        for driver_pid, _ in spawned:
            program = system.program_of(driver_pid)
            if program is None or len(program.replies) < messages:
                return False
        return True

    deadline = system.engine.now + deadline_ms
    while not drivers_done() and system.engine.now < deadline:
        system.run(250)
    # A fast workload can finish before the campaign does; every
    # scheduled action must fire before the cluster is judged.
    if campaign.horizon_ms > system.engine.now:
        system.run(campaign.horizon_ms - system.engine.now)
    # Let in-flight traffic, replays and watchdog-driven restarts land;
    # any partition the campaign never healed would wedge the drain, so
    # lift leftovers first (a campaign bug, and the report will still
    # show it if the workload fell short).
    system.run(max(settle_ms, 1.0))
    if system._partitions:
        system.heal_partitions()
        system.run(max(settle_ms, 1.0))

    totals: List[int] = []
    for _, counter_pid in spawned:
        program = system.program_of(counter_pid)
        totals.append(program.total if program is not None else -1)
    want = expected_total(messages)
    checks = check_invariants(system)
    bad = [i for i, total in enumerate(totals) if total != want]
    checks.append(InvariantCheck(
        "workload_exact", not bad,
        (f"pairs {bad} ended at {[totals[i] for i in bad]} != {want}"
         if bad else f"all {pairs} counters reached {want}")))
    report = build_report(system, campaign, invariants=checks)
    return ScenarioResult(system=system, report=report, pairs=spawned,
                          totals=totals, expected=want)
