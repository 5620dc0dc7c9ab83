"""The benchmark's four workloads, driven through the public API only.

Every workload is closed-loop: a client is a driver -> counter pair and
the driver sends its next ``add`` only after the previous reply arrived.
The seed reaches the program through two doors only: ``master_seed`` and
the request schedule generated here (the value each request adds). Every
request is sent with the kernel's default body size, 128 B
(``ProcessContext.send``). One call to :func:`run_rep` builds the
cluster, drives its traffic and fault phases, checks the outcome and
returns a :class:`RepResult`; the caller times nothing itself.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import System, SystemConfig
from repro.chaos.workload import ChaosCounter, ChaosDriver
from repro.cluster.gateways import ClusterFederation

from perfbench.calibration import calibrate

COUNTER_IMAGE = "perfbench/counter"
DRIVER_IMAGE = "perfbench/driver"

#: sim-ms slices the drivers are polled at; the crash points below are
#: taken at slice boundaries, so they are a pure function of the seed
TRAFFIC_SLICE_MS = 50.0
RECOVERY_SLICE_MS = 10.0
#: give up on a phase after this much simulated time (a stalled run)
PHASE_LIMIT_MS = 600_000.0
#: simulated time run after the last phase, before outcomes are read
SETTLE_MS = 3000.0


class ScheduledDriver(ChaosDriver):
    """A :class:`ChaosDriver` whose i-th request adds ``schedule[i]``.

    The schedule and the round-trip times live in ``_ctx`` attributes,
    which checkpoints leave out, so they do not grow the driver's
    checkpoints.
    """

    def __init__(self, target=None, schedule: Sequence[int] = ()):
        super().__init__(target, len(schedule))
        self._ctx_schedule = tuple(schedule)
        self._ctx_sent_at = 0.0
        self._ctx_rtt: List[float] = []

    def _send_next(self, ctx):
        if self.target_link is not None and self.i < self.n:
            value = self._ctx_schedule[self.i]
            self.i += 1
            reply = ctx.create_link(channel=0, code=1)
            self._ctx_sent_at = self._ctx_kernel.engine.now
            ctx.send(self.target_link, ("add", value), pass_link_id=reply)

    def on_message(self, ctx, m):
        if isinstance(m.body, tuple) and m.body and m.body[0] == "total":
            self._ctx_rtt.append(self._ctx_kernel.engine.now - self._ctx_sent_at)
        super().on_message(ctx, m)


def register(system: System) -> None:
    system.registry.register(COUNTER_IMAGE, ChaosCounter)
    system.registry.register(DRIVER_IMAGE, ScheduledDriver)


def make_schedule(seed: int, clients: int,
                  requests: int) -> List[Tuple[int, ...]]:
    """Per-client request lists: the value each request adds."""
    rng = random.Random(seed)
    return [tuple(rng.randint(1, 999) for _ in range(requests))
            for _ in range(clients)]


@dataclass
class Client:
    driver_system: System
    driver: object
    counter_system: System
    counter: object
    schedule: Tuple[int, ...]


@dataclass
class RepResult:
    """One build + drive + check of a workload."""

    #: ``time.monotonic()`` when the cluster is built and its first
    #: request is about to go out; the clock is system-wide, so the
    #: launching process can subtract its spawn time
    first_request_at: float = 0.0
    #: host seconds of :func:`calibration.calibrate` just before and just
    #: after the timed phases
    calibration_s: Tuple[float, float] = (0.0, 0.0)
    traffic_s: float = 0.0
    #: host time and engine events of the traffic and recovery phases
    wall_s: float = 0.0
    timed_events: int = 0
    attempted: int = 0
    completed: int = 0
    rtt_ms: List[float] = field(default_factory=list)
    #: one (host s, sim ms, records replayed) per crash, from the crash
    #: call to the last recovery it caused completing
    recoveries: List[Tuple[float, float, int]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: per-client counter state (total, seen) at the end
    states: List[Tuple[int, Tuple[int, ...]]] = field(default_factory=list)
    #: deterministic per-layer counts read from the metrics registry
    counts: Dict[str, float] = field(default_factory=dict)


class Cluster:
    """What a workload drives: one System, or a federation of them on
    one serial engine."""

    def __init__(self, systems: List[System], engine, runner, federation=None):
        self.systems = systems
        self.engine = engine
        self.run = runner.run
        self.federation = federation

    def now(self) -> float:
        return self.engine.now

    def dead_letters(self) -> int:
        total = sum(len(s.dead_letters) for s in self.systems)
        if self.federation is not None:
            total += len(self.federation.dead_letters)
        return total


def _single(config: SystemConfig) -> Cluster:
    system = System(config)
    register(system)
    system.boot()
    return Cluster([system], system.engine, system)


def _replies(client: Client) -> int:
    program = client.driver_system.program_of(client.driver)
    return len(program.replies) if program is not None else 0


def _metric(system: System, name: str) -> float:
    metric = system.obs.registry.get(name)
    return metric.snapshot_value() if metric is not None else 0


class Rep:
    """Shared phase logic; a workload subclass builds and sequences."""

    clients = 0
    requests = 0
    #: whether the workload runs ``publishing.gossip``; the gossip
    #: layer's metrics are reported only where it does
    runs_gossip = False

    def __init__(self, seed: int, publishing: bool = True,
                 faults: bool = True):
        self.seed = seed
        self.publishing = publishing
        self.faults = faults
        self.result = RepResult()
        self.cluster: Optional[Cluster] = None
        self.pairs: List[Client] = []

    # -- phases ----------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def phases(self) -> None:
        raise NotImplementedError

    def run(self) -> RepResult:
        res = self.result
        self.build()
        res.first_request_at = time.monotonic()
        res.attempted = self.clients * self.requests
        before = calibrate()
        gc.collect()
        events0 = self.cluster.engine.events_fired
        t1 = time.perf_counter()
        self.phases()
        res.wall_s = time.perf_counter() - t1
        res.timed_events = self.cluster.engine.events_fired - events0
        res.calibration_s = (before, calibrate())
        # Replayed and held messages may still be queued when the last
        # recovery completes; read outcomes once they have executed.
        self.cluster.run(SETTLE_MS)
        self.read_counts()
        self.check()
        return res

    def drive_until(self, done: Callable[[], bool]) -> bool:
        """Run traffic slices until ``done``; host time counts as traffic."""
        cluster = self.cluster
        limit = cluster.now() + PHASE_LIMIT_MS
        t0 = time.perf_counter()
        while not done() and cluster.now() < limit:
            cluster.run(TRAFFIC_SLICE_MS)
        self.result.traffic_s += time.perf_counter() - t0
        return done()

    def all_have(self, share: float) -> Callable[[], bool]:
        want = int(self.requests * share)
        return lambda: all(_replies(c) >= want for c in self.pairs)

    def recover(self, systems: List[System], crash: Callable[[], None]) -> None:
        """Call ``crash`` and run until every recovery it started, in
        each of ``systems``, has completed."""
        cluster = self.cluster

        def total(name: str) -> List[float]:
            return [_metric(system, f"recovery.{name}") for system in systems]

        started0 = total("recoveries_started")
        completed0 = total("recoveries_completed")
        replayed0 = sum(total("messages_replayed"))
        crash_sim = cluster.now()
        limit = crash_sim + PHASE_LIMIT_MS

        def settled() -> bool:
            return all(
                s > s0 and c - c0 == s - s0
                for s, s0, c, c0 in zip(total("recoveries_started"), started0,
                                        total("recoveries_completed"), completed0))

        # Start every timed recovery from the same collector state, so a
        # full collection that happens to fall inside the window does not
        # decide the figure.
        gc.collect()
        t0 = time.perf_counter()
        crash()
        while not settled() and cluster.now() < limit:
            cluster.run(RECOVERY_SLICE_MS)
        host_s = time.perf_counter() - t0
        if not settled():
            self.result.failures.append(
                f"recovery did not complete within {PHASE_LIMIT_MS:.0f} sim ms")
            return
        done_at = crash_sim
        for system in systems:
            for event in reversed(system.obs.bus.events):
                if event.time < crash_sim:
                    break
                if (event.category == "recovery"
                        and event.detail.get("event") == "complete"):
                    done_at = max(done_at, event.time)
                    break
        self.result.recoveries.append((
            host_s, done_at - crash_sim,
            int(sum(total("messages_replayed")) - replayed0)))

    # -- checks ------------------------------------------------------------
    def check(self) -> None:
        res = self.result
        for k, client in enumerate(self.pairs):
            driver = client.driver_system.program_of(client.driver)
            counter = client.counter_system.program_of(client.counter)
            values = client.schedule
            replies = list(driver.replies) if driver is not None else []
            state = ((counter.total, tuple(counter.seen))
                     if counter is not None else (-1, ()))
            res.states.append(state)
            running, want = 0, []
            for v in values:
                running += v
                want.append(running)
            good = sum(1 for got, exp in zip(replies, want) if got == exp)
            res.completed += good
            if good < len(values) or len(replies) > len(values):
                res.failures.append(
                    f"client {k}: {good} of {len(values)} replies correct, "
                    f"{len(replies)} received")
            if state != (sum(values), values):
                order = (" in another order"
                         if sorted(state[1]) == sorted(values) else "")
                res.failures.append(
                    f"client {k}: counter saw {len(state[1])} adds"
                    f"{order}, total {state[0]}; the schedule has "
                    f"{len(values)}, total {sum(values)}")
            if driver is not None:
                res.rtt_ms.extend(driver._ctx_rtt)
        dead = self.cluster.dead_letters()
        if dead:
            res.failures.append(f"{dead} dead letters")

    def read_counts(self) -> None:
        """Sum the deterministic registry counts over every cluster."""
        sums: Dict[str, float] = {}
        events = 0
        for system in self.cluster.systems:
            events += len(system.obs.bus)
            for name, value in system.metrics_snapshot().items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    key = _family(name)
                    sums[key] = sums.get(key, 0) + value
        # Federation clusters share one engine: count its events once.
        sums["sim.events_fired"] = self.cluster.engine.events_fired
        sums.pop("sim.now", None)
        sums["obs.events"] = events
        self.result.counts = sums

    def spawn(self, home: System, driver_node: int, far: System,
              counter_node: int, schedule) -> None:
        """One client: a counter on ``far``, its driver on ``home``."""
        counter = far.spawn_program(COUNTER_IMAGE, node=counter_node)
        driver = home.spawn_program(
            DRIVER_IMAGE, args=(tuple(counter), schedule), node=driver_node)
        self.pairs.append(Client(home, driver, far, counter, schedule))


def _family(name: str) -> str:
    """``transport.3.sent`` -> ``transport.sent``: per-node instances of a
    metric are summed into one family."""
    parts = name.split(".")
    return ".".join(p for p in parts if not p.isdigit())


#: counter nodes crashed one after another once publish_csma's traffic
#: is done; each recovery is short (the storage-balance policy bounds
#: the replay), so several are timed and the median reported
PROBE_NODES = (2, 3, 4, 2, 3, 4)


class PublishCsma(Rep):
    """The paper's steady state on CSMA/CD Ethernet, then bounded
    recoveries: storage-balance checkpoints keep each replay short."""

    clients = 6
    requests = 400

    def build(self):
        cluster = self.cluster = _single(SystemConfig(
            nodes=4, medium="csma_ethernet", checkpoint_policy="storage",
            master_seed=self.seed, publishing=self.publishing))
        system = cluster.systems[0]
        for k, schedule in enumerate(make_schedule(
                self.seed, self.clients, self.requests)):
            self.spawn(system, 1, system, 2 + k % 3, schedule)

    def phases(self):
        self.drive_until(self.all_have(1.0))
        if self.faults:
            system = self.cluster.systems[0]
            for node in PROBE_NODES:
                self.recover([system], lambda: system.crash_node(node))


class CrashReplay(Rep):
    """The recovery path: both counter nodes crash at half-way and are
    replayed from the start of their logs (no automatic checkpoints)."""

    clients = 4
    requests = 1000

    def build(self):
        cluster = self.cluster = _single(SystemConfig(
            nodes=3, medium="broadcast", master_seed=self.seed,
            publishing=self.publishing))
        system = cluster.systems[0]
        for k, schedule in enumerate(make_schedule(
                self.seed, self.clients, self.requests)):
            self.spawn(system, 1, system, 2 + k % 2, schedule)

    def phases(self):
        if self.faults:
            self.drive_until(self.all_have(0.5))
            system = self.cluster.systems[0]

            def crash():
                system.crash_node(2)
                system.crash_node(3)
            self.recover([system], crash)
        self.drive_until(self.all_have(1.0))


class GossipOutage(Rep):
    """Epidemic repair: the recorder misses a stretch of traffic, gossip
    pulls close the holes, then a counter node recovers across them."""

    clients = 4
    requests = 600
    runs_gossip = True
    outage_ms = 1200.0

    def build(self):
        cluster = self.cluster = _single(SystemConfig(
            nodes=3, medium="broadcast", gossip=True,
            master_seed=self.seed, publishing=self.publishing))
        system = cluster.systems[0]
        for k, schedule in enumerate(make_schedule(
                self.seed, self.clients, self.requests)):
            self.spawn(system, 1, system, 2 + k % 2, schedule)

    def phases(self):
        if self.faults:
            system = self.cluster.systems[0]
            self.drive_until(self.all_have(0.25))
            system.crash_recorder()
            outage_end = self.cluster.now() + self.outage_ms
            self.drive_until(lambda: self.cluster.now() >= outage_end)
            system.restart_recorder()
            self.drive_until(self.all_have(0.5))
            self.recover([system], lambda: system.crash_node(3))
        self.drive_until(self.all_have(1.0))


class FederationRing(Rep):
    """16 two-node clusters in a ring on one serial engine; each client's
    counter sits in the next cluster, so a round trip crosses two
    gateways. At the end every cluster's counter node crashes at once and
    each cluster's recorder replays its counter's full log."""

    clients = 16
    requests = 120

    def build(self):
        fed = ClusterFederation(
            [2] * self.clients, topology="ring", partitions=None,
            configs=[SystemConfig(nodes=2, master_seed=self.seed,
                                  publishing=self.publishing)
                     for _ in range(self.clients)])
        for system in fed.clusters:
            register(system)
        fed.boot()
        self.cluster = Cluster(list(fed.clusters), fed.engine, fed,
                               federation=fed)
        systems = fed.clusters
        for k, schedule in enumerate(make_schedule(
                self.seed, self.clients, self.requests)):
            home, far = systems[k], systems[(k + 1) % len(systems)]
            self.spawn(home, home.config.first_node_id,
                       far, far.config.first_node_id + 1, schedule)

    def phases(self):
        self.drive_until(self.all_have(1.0))
        if self.faults:
            systems = self.cluster.systems

            def crash():
                for system in systems:
                    system.crash_node(system.config.first_node_id + 1)
            self.recover(systems, crash)


WORKLOADS = {
    "publish_csma": PublishCsma,
    "crash_replay": CrashReplay,
    "gossip_outage": GossipOutage,
    "federation_ring": FederationRing,
}


def run_rep(name: str, seed: int, **kwargs) -> RepResult:
    return WORKLOADS[name](seed, **kwargs).run()
