"""`System` — one-call construction of a publishing DEMOS/MP cluster.

Wires together everything the thesis's Figure 3.2 shows: processing
nodes running the DEMOS/MP kernel and system processes, a broadcast
medium the recorder passively listens to, the recorder with its disks
and stable storage, watchdogs, and the recovery manager.

Typical use::

    from repro import System, SystemConfig

    system = System(SystemConfig(nodes=2))
    system.registry.register("my/prog", MyProgram)
    system.boot()
    pid = system.spawn_program("my/prog", node=1)
    system.run(5_000)
    system.crash_node(1)          # fault injection
    system.run(20_000)            # transparent recovery happens here
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.demos.costs import CostModel
from repro.demos.ids import ProcessId, kernel_pid
from repro.demos.kernel import KernelConfig
from repro.demos.kernel_process import KERNEL_PROCESS_IMAGE, KernelProcessProgram
from repro.demos.node import Node
from repro.demos.process import ProgramRegistry
from repro.demos.sysprocs import (
    MS_IMAGE,
    NLS_IMAGE,
    PM_IMAGE,
    MemoryScheduler,
    NamedLinkServer,
    ProcessManager,
)
from repro.errors import ReproError
# Every medium is imported here, not when it is built: perfbench's
# tracer wraps the ``Medium.transmit`` overrides that exist when it is
# installed, before any System is built, so a medium imported on first
# use would silently drop out of the traced profile.
from repro.net.acking_ethernet import AckingEthernet
from repro.net.ethernet import CsmaEthernet
from repro.net.faults import FaultPlan
from repro.net.frames import DeadLetter
from repro.net.media import Medium, PerfectBroadcast
from repro.net.star import StarHub
from repro.net.token_ring import TokenRing
from repro.net.transport import TransportConfig
from repro.publishing.checkpoints import CheckpointPolicy, install_policy
from repro.publishing.recorder import Recorder, RecorderConfig
from repro.publishing.recovery_manager import RecoveryManager
from repro.obs import Observability
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceLog

if TYPE_CHECKING:
    from repro.publishing.gossip import GossipCoordinator, ReceptionLoss

#: Media selectable by name in :class:`SystemConfig`.
MEDIA = ("broadcast", "acking_ethernet", "csma_ethernet", "star", "token_ring")


@dataclass
class SystemConfig:
    """Cluster-wide configuration."""

    nodes: int = 2
    #: first processing-node id; nodes are numbered consecutively from
    #: here (clusters use disjoint ranges, §6.2)
    first_node_id: int = 1
    publishing: bool = True
    medium: str = "broadcast"
    recorder_node_id: int = 99
    #: recorder shards (cluster.placement): 1 keeps the single §3.3
    #: recorder, byte-identical to the pre-sharding behaviour; >1
    #: splits the node range into contiguous slices, one claim-filtered
    #: recorder + recovery manager per slice, with shard j attached at
    #: ``recorder_node_id + j``
    recorder_shards: int = 1
    #: shard layout policy: "range" (fixed shard count) or "balanced"
    #: (shard count grows with the node count; see cluster.placement)
    placement_policy: str = "range"
    master_seed: int = 1983
    costs: CostModel = field(default_factory=CostModel)
    publish_path: str = "media_tap"
    disks: int = 1
    buffered_writes: bool = True
    #: start NLS / process manager / memory scheduler on this node
    boot_system_processes: bool = True
    services_node: int = 1
    reboot_delay_ms: float = 1000.0
    #: what happens when the watchdog declares a node dead (§4.6's
    #: operator choices): "restart" reboots the same processor; "spare"
    #: swaps in a fresh processor that assumes the failed one's
    #: identity; "none" leaves the node down (recovery stalls until the
    #: operator intervenes via restart_node/spare_takeover).
    reboot_policy: str = "restart"
    watchdog_ping_ms: float = 500.0
    watchdog_timeout_ms: float = 1500.0
    retransmit_timeout_ms: float = 50.0
    #: adaptive retransmission: retries back off exponentially by this
    #: factor (1.0 = the original fixed timer), capped at
    #: ``backoff_max_ms``, with optional multiplicative jitter drawn
    #: from the cluster's named RNG streams (deterministic per
    #: master_seed, but seed-*dependent* — so it defaults off, keeping
    #: fault-free runs on randomness-free media seed-independent)
    backoff_factor: float = 2.0
    backoff_max_ms: float = 2000.0
    backoff_jitter: float = 0.0
    #: transport window per node: 1 = the thesis's stop-and-wait ("only
    #: one unacknowledged message in transit from each processor"); >1
    #: enables the anticipated windowing scheme with receiver-side
    #: reordering (§4.3.3)
    transport_window: int = 1
    loss_rate: float = 0.0
    corruption_rate: float = 0.0
    #: attempts before a guaranteed send becomes a dead letter
    transport_max_retries: int = 1000
    #: automatic checkpoint policy installed on every node at boot:
    #: None, "young", "bound", or "storage" (§3.2.4 / §3.2.3 / §5.1)
    checkpoint_policy: Optional[str] = None
    #: parameters for the chosen policy
    checkpoint_mtbf_ms: float = 60_000.0
    recovery_bound_ms: float = 2_000.0
    #: epidemic repair layer (publishing.gossip): nodes keep bounded
    #: buffers of recent publications, the medium tolerates recorder
    #: misses, and the recorder pulls log holes closed in gossip rounds
    gossip: bool = False
    gossip_buffer_depth: int = 256
    gossip_round_ms: float = 150.0
    gossip_fanout: int = 2
    gossip_max_retries: int = 8
    #: seed-pure loss probability on the recording/repair path (frames
    #: missing every recorder; pull/supply datagrams dropped). Works
    #: with gossip off too — then strict recorder enforcement plus
    #: sender retransmission carries the load (the recorder-only arm
    #: of the reliability-vs-overhead frontier).
    gossip_loss_rate: float = 0.0


class System:
    """A complete simulated publishing cluster."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 registry: Optional[ProgramRegistry] = None,
                 engine: Optional[Engine] = None):
        self.config = config or SystemConfig()
        self.engine = engine or Engine()
        #: set by ClusterFederation when this cluster lives in one —
        #: lets chaos actions reach federation-level subjects (gateways)
        self.federation = None
        self.cluster_index: Optional[int] = None
        self.rng = RngStreams(self.config.master_seed)
        #: one instrumentation spine (event bus + metrics registry)
        #: shared by every layer of the cluster
        self.obs = Observability(lambda: self.engine.now)
        self.trace = TraceLog(bus=self.obs.bus, scope="sim")
        self.obs.registry.gauge_fn("sim.now", lambda: self.engine.now)
        self.obs.registry.gauge_fn("sim.events_fired",
                                   lambda: self.engine.events_fired)
        self.registry = registry or ProgramRegistry()
        self._register_builtin_images()
        self.faults = FaultPlan(rng=self.rng,
                                loss_rate=self.config.loss_rate,
                                corruption_rate=self.config.corruption_rate,
                                registry=self.obs.registry)
        self.medium = self._build_medium()
        #: dead letters: one :class:`DeadLetter` (origin node, segment,
        #: attempts) for every guaranteed message some transport
        #: finally gave up on — same shape as the federation-level
        #: gateway ledger, so losslessness checks can sum both
        self.dead_letters: List[DeadLetter] = []
        #: active partition rules, in installation order
        self._partitions: List[object] = []
        self.recorder: Optional[Recorder] = None
        self.recovery: Optional[RecoveryManager] = None
        #: sharded placement (cluster.placement): the shard map plus
        #: one recorder / recovery manager per shard. With one shard,
        #: the lists alias [self.recorder] / [self.recovery] and
        #: ``placement`` stays None — no new metrics, no new ids.
        self.placement = None
        self.recorders: List[Recorder] = []
        self.recoveries: List[RecoveryManager] = []
        if self.config.publishing:
            self._build_recorder()
        self.nodes: Dict[int, Node] = {}
        first = self.config.first_node_id
        for node_id in range(first, first + self.config.nodes):
            self.nodes[node_id] = self._build_node(node_id)
        if self.config.services_node not in self.nodes:
            self.config.services_node = first
        for recovery in self.recoveries:
            recovery.node_restarter = self._restart_node_later
        #: epidemic repair layer (publishing.gossip) — built only when
        #: enabled, so legacy configurations register no gossip metrics
        #: and draw from no gossip RNG streams
        self.gossip: Optional[GossipCoordinator] = None
        self.reception_loss: Optional[ReceptionLoss] = None
        if self.config.publishing and self.config.gossip_loss_rate > 0.0:
            self.install_reception_loss(self.config.gossip_loss_rate)
        if self.config.publishing and self.config.gossip:
            from repro.publishing.gossip import GossipConfig, GossipCoordinator
            self.gossip = GossipCoordinator(self, GossipConfig(
                buffer_depth=self.config.gossip_buffer_depth,
                round_ms=self.config.gossip_round_ms,
                fanout=self.config.gossip_fanout,
                max_retries=self.config.gossip_max_retries))
            self.gossip.loss = self.reception_loss
            self.recovery.gossip = self.gossip

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _register_builtin_images(self) -> None:
        reg = self.registry
        if not reg.known(KERNEL_PROCESS_IMAGE):
            reg.register(KERNEL_PROCESS_IMAGE, KernelProcessProgram)
        if not reg.known(NLS_IMAGE):
            reg.register(NLS_IMAGE, NamedLinkServer)
        if not reg.known(PM_IMAGE):
            reg.register(PM_IMAGE, ProcessManager)
        if not reg.known(MS_IMAGE):
            reg.register(MS_IMAGE, MemoryScheduler)

    def _build_medium(self) -> Medium:
        cfg = self.config
        kwargs = dict(faults=self.faults,
                      enforce_recorder_ack=cfg.publishing,
                      obs=self.obs)
        if cfg.medium == "broadcast":
            return PerfectBroadcast(self.engine, **kwargs)
        if cfg.medium == "acking_ethernet":
            return AckingEthernet(self.engine, self.rng, **kwargs)
        if cfg.medium == "csma_ethernet":
            return CsmaEthernet(self.engine, self.rng, **kwargs)
        if cfg.medium == "star":
            return StarHub(self.engine, **kwargs)
        if cfg.medium == "token_ring":
            return TokenRing(self.engine, **kwargs)
        raise ReproError(f"unknown medium {cfg.medium!r}; choose from {MEDIA}")

    def _recorder_config(self, node_id: int) -> RecorderConfig:
        cfg = self.config
        return RecorderConfig(
            node_id=node_id,
            publish_path=cfg.publish_path,
            disks=cfg.disks,
            buffered_writes=cfg.buffered_writes,
            costs=cfg.costs,
            transport=TransportConfig(
                retransmit_timeout_ms=cfg.retransmit_timeout_ms,
                backoff_factor=cfg.backoff_factor,
                backoff_max_ms=cfg.backoff_max_ms,
                backoff_jitter=cfg.backoff_jitter,
                max_retries=cfg.transport_max_retries,
                per_destination=True, window=1),
        )

    def _build_recorder(self) -> None:
        cfg = self.config
        if cfg.recorder_shards > 1:
            self._build_recorder_shards()
            return
        recorder_config = self._recorder_config(cfg.recorder_node_id)
        self.recorder = Recorder(self.engine, self.medium, recorder_config,
                                 obs=self.obs, rng=self.rng)
        self.recovery = RecoveryManager(
            self.engine, self.recorder,
            node_ids=list(range(cfg.first_node_id,
                                cfg.first_node_id + cfg.nodes)),
            ping_interval_ms=cfg.watchdog_ping_ms,
            watchdog_timeout_ms=cfg.watchdog_timeout_ms,
        )
        self.recorders = [self.recorder]
        self.recoveries = [self.recovery]

    def _build_recorder_shards(self) -> None:
        """Sharded placement: several claim-filtered recorders split the
        node range (cluster.placement), each with its own recovery
        manager watching only its slice. Shard 0 is the primary — it
        additionally claims cross-cluster traffic and receives the
        kernels' crash reports, which it dispatches to the owning
        shard's manager."""
        cfg = self.config
        if cfg.gossip:
            raise ReproError(
                "recorder shards and gossip repair are mutually "
                "exclusive (the gossip coordinator assumes one recorder)")
        from repro.cluster.placement import policy_from_name
        policy = policy_from_name(cfg.placement_policy,
                                  shards=cfg.recorder_shards)
        self.placement = policy.place(
            cluster_index=self.cluster_index or 0,
            first_node_id=cfg.first_node_id, nodes=cfg.nodes,
            recorder_base=cfg.recorder_node_id)
        for shard in self.placement.shards:
            recorder = Recorder(self.engine, self.medium,
                                self._recorder_config(shard.node_id),
                                obs=self.obs, rng=self.rng)
            recorder.claim = self.placement.claim_of(shard.index)
            manager = RecoveryManager(
                self.engine, recorder,
                node_ids=list(range(shard.lo, shard.hi)),
                ping_interval_ms=cfg.watchdog_ping_ms,
                watchdog_timeout_ms=cfg.watchdog_timeout_ms,
            )
            self.recorders.append(recorder)
            self.recoveries.append(manager)
        self.recorder = self.recorders[0]
        self.recovery = self.recoveries[0]
        # Kernels address crash reports to the primary shard's node id;
        # route each to the manager owning the crashed pid's range.
        placement = self.placement

        def _route_process_crashed(control, src_node: int) -> None:
            pid = ProcessId(*control["pid"])
            shard = placement.shard_for(pid.node)
            self.recoveries[shard.index]._on_process_crashed(
                control, src_node)
        self.recorder.on_control("process_crashed", _route_process_crashed)
        registry = self.obs.registry
        registry.gauge_fn("recorder.placement.shards",
                          lambda: len(self.recorders))
        for shard in self.placement.shards:
            registry.gauge_fn(
                f"recorder.placement.shard.{shard.node_id}.nodes",
                lambda _s=shard: _s.width)

    def _build_node(self, node_id: int) -> Node:
        cfg = self.config
        kernel_config = KernelConfig(
            publishing=cfg.publishing,
            recorder_node=cfg.recorder_node_id if cfg.publishing else None,
            costs=cfg.costs,
            transport=TransportConfig(
                retransmit_timeout_ms=cfg.retransmit_timeout_ms,
                backoff_factor=cfg.backoff_factor,
                backoff_max_ms=cfg.backoff_max_ms,
                backoff_jitter=cfg.backoff_jitter,
                max_retries=cfg.transport_max_retries,
                # With the epidemic repair layer on, receivers keep
                # frames the recorder missed: the gossip pull closes
                # the log hole instead of a sender retransmission.
                require_recorder_ack=cfg.publishing and not cfg.gossip,
                window=cfg.transport_window,
                ordered_window=cfg.transport_window > 1),
        )
        node = Node(self.engine, node_id, self.medium, kernel_config,
                    self.registry, obs=self.obs, rng=self.rng)
        node.kernel.transport.on_gave_up = (
            lambda segment, attempts, _n=node_id:
            self._note_dead_letter(_n, segment, attempts))
        return node

    def _note_dead_letter(self, node_id: int, segment, attempts: int) -> None:
        self.dead_letters.append(DeadLetter(node_id, segment, attempts))
        self.trace.emit("dead_letter", f"node{node_id}",
                        dst=getattr(segment, "dst_node", None),
                        attempts=attempts)

    def install_reception_loss(self, rate: Optional[float] = None) -> ReceptionLoss:
        """Install (or re-rate) seed-pure loss on the recording path.

        Built lazily so loss-free systems make no ``gossip/loss`` RNG
        draws and register no gossip counters; the chaos ``gossip_loss``
        action lands here mid-run.
        """
        if self.reception_loss is None:
            from repro.publishing.gossip import ReceptionLoss
            self.reception_loss = ReceptionLoss(
                self.rng.stream("gossip/loss"),
                self.config.gossip_loss_rate if rate is None else rate,
                self.obs.registry)
            self.medium.recorder_loss = self.reception_loss.lose_reception
            if self.gossip is not None:
                self.gossip.loss = self.reception_loss
        elif rate is not None:
            self.reception_loss.set_rate(rate)
        return self.reception_loss

    def _restart_node_later(self, node_id: int) -> None:
        policy = self.config.reboot_policy
        if policy == "none":
            return
        node = self.nodes.get(node_id)
        if node is None or node.up:
            return
        if policy == "spare":
            self.engine.schedule(self.config.reboot_delay_ms,
                                 self.spare_takeover, node_id)
        else:
            self.engine.schedule(self.config.reboot_delay_ms, node.restart)

    def spare_takeover(self, node_id: int) -> "Node":
        """Replace a failed processor with a spare that assumes its
        identity (§3.3.3: "it would be best to have one or more spare
        processors on the network that could assume the identities of
        failed processors").

        The dead node's interface is detached; a brand-new node —
        different hardware, same node id — attaches in its place with an
        empty kernel, and the recovery manager repopulates it exactly as
        it would a rebooted processor.
        """
        old = self.nodes.get(node_id)
        if old is None:
            raise ReproError(f"no node {node_id} to replace")
        if old.up:
            return old
        self.medium.detach(old.kernel.transport.iface)
        spare = self._build_node(node_id)
        self.nodes[node_id] = spare
        spare.booted = True
        if self.gossip is not None:
            # The spare starts with an empty (not absent) gossip buffer.
            self.gossip.attach_node(spare)
        self.trace.emit("spare", f"node{node_id}", event="takeover")
        return spare

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def boot(self, settle_ms: float = 500.0) -> None:
        """Boot every node's kernel process and the system processes,
        start the watchdogs, then let the engine settle."""
        cfg = self.config
        nls_pid: Optional[Tuple[int, int]] = None
        services_specs: Tuple = ()
        if cfg.boot_system_processes and cfg.services_node in self.nodes:
            node_order = tuple(sorted(self.nodes))
            # Boot order fixes the local ids: NLS=(n,1), PM=(n,2), MS=(n,3).
            services_specs = (
                (NLS_IMAGE, (), (), True, 2),
                (PM_IMAGE, (), (("proc", 2),), True, 2),
                (MS_IMAGE, (node_order,),
                 tuple(("kp", n) for n in node_order), True, 2),
            )
            nls_pid = (cfg.services_node, 1)
        for node_id, node in self.nodes.items():
            specs = services_specs if node_id == cfg.services_node else ()
            node.boot(boot_specs=specs, nls_pid=nls_pid)
        for recovery in self.recoveries:
            recovery.start()
        if cfg.checkpoint_policy is not None:
            self.install_checkpoint_policy(cfg.checkpoint_policy)
        if settle_ms > 0:
            self.run(settle_ms)
        if self.config.publishing:
            # Give every system process a first checkpoint so recovery
            # never needs to replay the boot sequence itself.
            self.checkpoint_all()

    def install_checkpoint_policy(self, name: str) -> CheckpointPolicy:
        """Install one of the thesis's checkpoint policies on every
        node: "young" (§3.2.4), "bound" (§3.2.3's recovery-time limit),
        or "storage" (§5.1's storage balance)."""
        from repro.publishing.checkpoints import (
            RecoveryTimeBoundPolicy,
            StorageBalancePolicy,
            YoungIntervalPolicy,
        )
        if name == "young":
            policy: CheckpointPolicy = YoungIntervalPolicy(
                mtbf_ms=self.config.checkpoint_mtbf_ms)
        elif name == "bound":
            policy = RecoveryTimeBoundPolicy(
                default_bound_ms=self.config.recovery_bound_ms)
        elif name == "storage":
            policy = StorageBalancePolicy()
        else:
            raise ReproError(
                f"unknown checkpoint policy {name!r}; "
                f"choose young, bound, or storage")
        for node in self.nodes.values():
            install_policy(node.kernel, policy)
        self.checkpoint_policy = policy
        return policy

    def run(self, duration_ms: float) -> float:
        """Advance the simulation ``duration_ms`` milliseconds."""
        return self.engine.run(until=self.engine.now + duration_ms)

    def run_until_idle(self, max_ms: float = 60_000.0) -> float:
        """Run until no events remain or the guard expires."""
        return self.run(max_ms)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """A name-sorted snapshot of every registered metric."""
        return self.obs.registry.snapshot()

    def export_metrics(self, path: str) -> None:
        """Write :meth:`metrics_snapshot` to ``path`` as JSON."""
        self.obs.registry.export_json(path)

    def export_trace(self, path: str) -> None:
        """Write every recorded event to ``path`` as JSON lines."""
        self.obs.bus.export_json(path)

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def spawn_program(self, image: str, args: Tuple = (), node: int = 1,
                      recoverable: bool = True, state_pages: int = 4) -> ProcessId:
        """Create a process directly through the node's kernel process.

        This bypasses the PM→MS message chain (use a client program and
        the process manager for the fully message-based path). The
        kernel process's allocator state changes outside a message, so
        it is immediately re-checkpointed to keep its recovery sound.
        """
        kernel = self.nodes[node].kernel
        kp_pcb = kernel.processes.get(kernel_pid(node))
        if kp_pcb is None:
            raise ReproError(f"node {node} is not booted")
        kp_program: KernelProcessProgram = kp_pcb.program  # type: ignore[assignment]
        pid = kp_program._allocate(node)
        kernel.create_process(image=image, args=args, pid=pid,
                              initial_links=kp_program._with_nls(()),
                              recoverable=recoverable, state_pages=state_pages)
        if self.config.publishing:
            kernel.checkpoint_process(kernel_pid(node))
        return pid

    def checkpoint_all(self) -> int:
        """Checkpoint every checkpointable process; returns the count."""
        count = 0
        for node in self.nodes.values():
            if not node.up:
                continue
            for pid in list(node.kernel.processes):
                if node.kernel.checkpoint_process(pid):
                    count += 1
        return count

    def checkpoint(self, pid: ProcessId) -> bool:
        """Checkpoint one process."""
        return self.nodes[pid_node(pid, self)].kernel.checkpoint_process(pid)

    def process_state(self, pid: ProcessId) -> Optional[str]:
        """The state name of a process, wherever it lives, or None."""
        for node in self.nodes.values():
            pcb = node.kernel.processes.get(pid)
            if pcb is not None:
                return pcb.state.value
        return None

    def program_of(self, pid: ProcessId):
        """The live program instance behind a pid (tests peek at state)."""
        for node in self.nodes.values():
            pcb = node.kernel.processes.get(pid)
            if pcb is not None:
                return pcb.program
        return None

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash_process(self, pid: ProcessId) -> None:
        """Halt one process; the crash is reported and recovery begins."""
        for node in self.nodes.values():
            if pid in node.kernel.processes:
                node.kernel.crash_process(pid)
                return
        raise ReproError(f"no such process {pid}")

    def crash_node(self, node_id: int) -> None:
        """Fail a whole processor; the watchdog will notice."""
        self.nodes[node_id].crash()

    def restart_node(self, node_id: int) -> None:
        """Reboot a down processor immediately (operator action); the
        recovery manager repopulates it as usual."""
        node = self.nodes[node_id]
        if not node.up:
            node.restart()

    def partition(self, *groups) -> object:
        """Cut the network into node groups: frames crossing the cut are
        dropped until :meth:`heal_partitions` (or ``heal(rule)``). Nodes
        named in no group — the recorder, typically — remain reachable,
        so the §4.3.3 "temporary network failure" hits node↔node traffic
        while publishing continues to observe whatever still flows."""
        rule = self.faults.partition(*groups)
        self._partitions.append(rule)
        self.trace.emit("partition", "net",
                        groups=[sorted(g) for g in groups])
        return rule

    def heal(self, rule) -> None:
        """Lift one partition rule."""
        self.faults.remove_rule(rule)
        if rule in self._partitions:
            self._partitions.remove(rule)
        self.trace.emit("partition_healed", "net")

    def heal_partitions(self) -> int:
        """Lift every active partition; returns how many were healed."""
        healed = 0
        for rule in list(self._partitions):
            self.heal(rule)
            healed += 1
        return healed

    def stall_disks(self, duration_ms: float) -> float:
        """Freeze the recorder's disk array (controller stall); returns
        the time the stall lifts."""
        if self.recorder is None:
            raise ReproError("this system has no recorder")
        ends = self.recorder.disks.stall(duration_ms)
        self.trace.emit("disk_stall", "recorder", until=ends)
        return ends

    def slow_disks(self, factor: float) -> None:
        """Degrade (or with 1.0 restore) the recorder's disk speed."""
        if self.recorder is None:
            raise ReproError("this system has no recorder")
        self.recorder.disks.set_slowdown(factor)
        self.trace.emit("disk_slowdown", "recorder", factor=factor)

    def crash_recorder(self, shard: int = 0) -> None:
        """Fail the recorder (or one shard of it); published traffic to
        its claimed range suspends while sibling shards keep acking."""
        if not self.recorders:
            raise ReproError("this system has no recorder")
        self.recorders[shard].crash()
        self.recoveries[shard].stop()

    def restart_recorder(self, shard: int = 0) -> int:
        """Restart the recorder (or one shard of it) and run the §3.3.4
        reconciliation."""
        if not self.recoveries:
            raise ReproError("this system has no recorder")
        return self.recoveries[shard].restart_recorder()


def pid_node(pid: ProcessId, system: System) -> int:
    """The node a pid currently lives on (falls back to its birth node)."""
    for node_id, node in system.nodes.items():
        if pid in node.kernel.processes:
            return node_id
    return pid.node
