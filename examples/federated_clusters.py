"""LAN clusters with autonomous recovery (§6.2).

"Many LAN's are now attached to other LAN's via general topology store
and forward networks. ... a recorder can be attached to each cluster to
perform recovery for that cluster alone. The great advantage to this
scheme is autonomous control."

Two campus LANs, each with its own recorder, joined by store-and-forward
gateways. A directory service in cluster B serves clients in cluster A;
cluster B's node crashes and is recovered by *its own* recorder — the
other cluster's recovery machinery never stirs, yet cross-cluster
requests resume exactly where they left off.

Run:  python examples/federated_clusters.py
"""

from repro import Program
from repro.cluster.gateways import ClusterFederation
from repro.demos.ids import ProcessId
from repro.demos.links import Link


class Directory(Program):
    """A lookup service with registrations as process state."""

    def __init__(self, entries=()):
        super().__init__()
        self.entries = {k: v for k, v in entries}
        self.lookups = 0

    def on_message(self, ctx, m):
        body = m.body
        if not isinstance(body, tuple):
            return
        if body[0] == "lookup" and m.passed_link_id is not None:
            self.lookups += 1
            ctx.send(m.passed_link_id,
                     ("entry", body[1], self.entries.get(body[1])))
        elif body[0] == "register":
            self.entries[body[1]] = body[2]


class Client(Program):
    """Queries the remote directory for a scripted list of names."""

    def __init__(self, directory_pid, names):
        super().__init__()
        self.directory_pid = tuple(directory_pid)
        self.names = tuple(names)
        self.index = 0
        self.answers = []

    def attach_kernel(self, kernel):
        self._ctx_kernel = kernel

    def setup(self, ctx):
        pcb = self._ctx_kernel.processes[ctx.pid]
        self.link = self._ctx_kernel.forge_link(
            pcb, Link(dst=ProcessId(*self.directory_pid)))
        self._ask(ctx)

    def _ask(self, ctx):
        if self.index < len(self.names):
            name = self.names[self.index]
            self.index += 1
            reply = ctx.create_link(code=2)
            ctx.send(self.link, ("lookup", name), pass_link_id=reply)

    def on_message(self, ctx, m):
        if isinstance(m.body, tuple) and m.body[0] == "entry":
            self.answers.append((m.body[1], m.body[2]))
            self._ask(ctx)


ENTRIES = tuple((f"host{i}", f"10.0.1.{i}") for i in range(1, 9))
QUERIES = tuple(f"host{1 + i % 8}" for i in range(30))


def main():
    fed = ClusterFederation([2, 1])
    campus_a, campus_b = fed.clusters
    for cluster in fed.clusters:
        cluster.registry.register("fed/directory", Directory)
        cluster.registry.register("fed/client", Client)
    fed.boot()
    print(f"campus A nodes: {sorted(campus_a.nodes)}  "
          f"campus B nodes: {sorted(campus_b.nodes)}")

    directory = campus_b.spawn_program("fed/directory", args=(ENTRIES,),
                                       node=101)
    client = campus_a.spawn_program("fed/client",
                                    args=(tuple(directory), QUERIES), node=2)
    fed.run(1200)
    answered = len(campus_a.program_of(client).answers)
    print(f"t={fed.engine.now:.0f} ms: {answered} cross-cluster lookups done")

    print("\n--- campus B's server node fails ---")
    campus_b.crash_node(101)

    while len(campus_a.program_of(client).answers) < len(QUERIES):
        fed.run(1000)

    answers = campus_a.program_of(client).answers
    print(f"\nall {len(answers)} lookups answered")
    correct = all(value == f"10.0.1.{name[4:]}" for name, value in answers)
    print(f"every answer correct: {correct}")
    print(f"campus B recoveries: "
          f"{campus_b.recovery.stats.node_crashes_detected} node crash, "
          f"{campus_b.recovery.stats.recoveries_completed} processes")
    print(f"campus A recoveries: "
          f"{campus_a.recovery.stats.recoveries_started} (autonomy: its "
          f"recorder never acted)")
    assert correct
    assert campus_a.recovery.stats.recoveries_started == 0


if __name__ == "__main__":
    main()
