"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload publish_csma --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Every line but the last names a metric
with its value and unit, a failed check, or (after ``#``) what was run
and how fast the host was; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured with no
wrappers installed; with ``--trace 1`` they are the per-layer ones,
from repetitions run under :class:`perfbench.tracing.Tracer`, whose
spans are written to ``.perfbench_out/``. ``--workload all`` runs every
workload in turn and prints the tables only.

A run first makes the crash-free reference of the seed, then repeats
the workload (same seed, same inputs) until ``--seconds`` of host time
have passed, each repetition in a fresh interpreter
(``perfbench/rep.py``), and reports medians over the repetitions.
Host times are scaled to a reference host by each repetition's own
calibration (``perfbench/calibration.py``). Simulated metrics and
per-layer counts must repeat exactly; the run fails if one does not.
The exit code is 0 when every check passed, 1 when one failed and 2
when the program or a repetition could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
REP_TIMEOUT_S = 60

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))
try:
    from perfbench.calibration import REFERENCE_S
    from perfbench.tracing import LAYERS
    from perfbench.workloads import WORKLOADS
except ImportError as exc:   # the program is not beside the benchmark
    print(f"cannot import the program from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)

#: (name, unit) of the end-to-end metrics, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("msgs_per_s", "req/s"),
    ("rtt_sim_ms_p50", "sim_ms"),
    ("rtt_sim_ms_p99", "sim_ms"),
    ("recovery_s", "s"),
    ("replay_msgs_per_s", "rec/s"),
    ("recovery_sim_ms", "sim_ms"),
    ("peak_rss_mb", "MB"),
)


class RepError(RuntimeError):
    """A repetition crashed or could not import the program."""


def run_rep(name: str, seed: int, *flags: str) -> Dict:
    """Launch one repetition and read its JSON; ``setup_s`` runs from just
    before the process is spawned to its first request.

    Every host time is scaled to the reference host (see
    ``calibration.py``) by the repetition's own calibration."""
    cmd = [sys.executable, str(HERE / "rep.py"), name, str(seed), *flags]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RepError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    scale = REFERENCE_S / statistics.mean(rep["calibration_s"])
    rep["setup_s"] = (rep["first_request_at"] - spawned_at) * scale
    for key in ("traffic_s", "wall_s", "recovery_s", "recovery_total_s"):
        rep[key] *= scale
    for layer in rep.get("self_s", {}):
        rep["self_s"][layer] *= scale
    return rep


def fingerprint(rep: Dict) -> Tuple:
    """What must not vary between repetitions of one seed."""
    return (rep["rtt_digest"], rep["recovery_sim_ms"], rep["replayed"],
            tuple(rep["states"]), tuple(sorted(rep["counts"].items())),
            tuple(sorted(rep.get("wrapped", {}).items())),
            tuple(sorted(rep.get("calls", {}).items())))


def failed_requests(rep: Dict, reference: Dict, clients: int
                    ) -> Tuple[int, List[str]]:
    """Requests of one repetition that did not complete exactly once,
    and why. A client whose counter ended in another state than in the
    crash-free run of the seed loses all its requests."""
    failed = rep["attempted"] - rep["completed"]
    notes = list(rep["failures"])
    per_client = rep["attempted"] // clients
    for k, (got, want) in enumerate(zip(rep["states"], reference["states"])):
        if got != want:
            failed += per_client
            notes.append(f"client {k}: counter state differs from the "
                         f"crash-free run")
    return min(failed, rep["attempted"]), notes


def layer_counts(counts: Dict[str, float], wrapped: Dict[str, int]
                 ) -> Dict[str, float]:
    """The per-layer counts: registry families plus wrapper counts."""
    def total(prefix: str, suffix: str) -> float:
        return sum(v for k, v in counts.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    get = counts.get
    offered = total("media.", ".frames_offered")
    delivered = total("media.", ".frames_delivered")
    sent = get("transport.sent", 0)
    retrans = get("transport.retransmissions", 0)
    supplied = get("gossip.supplies_received", 0)
    repaired = get("gossip.messages_repaired", 0)
    out = {
        "sim.events": get("sim.events_fired", 0),
        "net.media.frames_offered": offered,
        "net.media.frames_delivered": delivered,
        "net.media.delivered_ratio": ratio(delivered, offered),
        "net.media.collisions": total("media.", ".collisions"),
        "net.media.busy_sim_ms": total("media.", ".busy_time_ms"),
        "net.transport.sent": sent,
        "net.transport.retransmissions": retrans,
        "net.transport.first_try_ratio": ratio(sent - retrans, sent),
        "net.transport.duplicates_suppressed":
            get("transport.duplicates_suppressed", 0),
        "net.transport.gave_up": get("transport.gave_up", 0),
        "demos.kernel.messages_delivered": get("kernel.messages_delivered", 0),
        "demos.kernel.cpu_sim_ms":
            get("kernel.cpu.kernel_ms", 0) + get("kernel.cpu.user_ms", 0),
        "publishing.recorder.messages_recorded":
            get("recorder.messages_recorded", 0),
        "publishing.recorder.duplicates_ignored":
            get("recorder.duplicates_ignored", 0),
        "publishing.recorder.cpu_busy_sim_ms": get("recorder.cpu_busy_ms", 0),
        "publishing.store.compactions": get("recorder.compactions", 0),
        "publishing.store.segments_retired": get("recorder.segments_retired", 0),
        "publishing.store.log_bytes": get("recorder.log_bytes", 0),
        "publishing.store.disk_busy_sim_ms": get("recorder.disk_busy_ms", 0),
        "publishing.recovery_manager.recoveries":
            get("recovery.recoveries_completed", 0),
        "publishing.recovery_manager.messages_replayed":
            get("recovery.messages_replayed", 0),
        "publishing.gossip.pulls_sent": get("gossip.pulls_sent", 0),
        "publishing.gossip.pull_bytes": get("gossip.pull_bytes", 0),
        "publishing.gossip.supplies_received": supplied,
        "publishing.gossip.messages_repaired": repaired,
        "publishing.gossip.useful_ratio": ratio(repaired, supplied),
        "cluster.gateways.frames_forwarded": get("gateway.frames_forwarded", 0),
        "cluster.gateways.retries": get("gateway.retries", 0),
        "cluster.gateways.frames_dropped": get("gateway.frames_dropped", 0),
        "obs.events_emitted": get("obs.events", 0),
    }
    out.update(wrapped)
    return out


def unit_of(key: str) -> str:
    for suffix, unit in (("_ratio", "ratio"), ("_sim_ms", "sim_ms"),
                         ("_bytes", "bytes"), ("self_s", "s"),
                         ("us_per_event", "us")):
        if key.endswith(suffix):
            return unit
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (correct, attempted, failed, metrics, notes); ``metrics``
    maps name -> (value, unit) and holds the per-layer metrics too when
    ``trace`` is set."""
    clients = WORKLOADS[name].clients
    reference = run_rep(name, seed, "--crash-free")
    notes = [f"crash-free reference: {n}" for n in reference["failures"]]
    plain: List[Dict] = []
    traced: List[Dict] = []
    spans = OUT / f"{name}-seed{seed}.spans.csv.gz"
    if trace:
        OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + seconds
    while (time.monotonic() < deadline or len(plain) < MIN_REPS
           or (trace and len(traced) < MIN_REPS)):
        if trace and len(traced) < len(plain):
            traced.append(run_rep(name, seed, "--trace", "--spans", str(spans)))
        else:
            plain.append(run_rep(name, seed))

    attempted = failed = 0
    for rep in plain + traced:
        lost, why = failed_requests(rep, reference, clients)
        attempted += rep["attempted"]
        failed += lost
        notes.extend(why)
    for group in (plain, traced):
        for k, rep in enumerate(group[1:], start=1):
            if fingerprint(rep) != fingerprint(group[0]):
                notes.append(f"NONDETERMINISTIC: repetition {k} of seed {seed} "
                             f"differs from repetition 0 in a simulated metric "
                             f"or a count")
    if traced and plain[0]["counts"] != traced[0]["counts"]:
        notes.append("NONDETERMINISTIC: tracing changed a registry count")
    for where in traced[0]["missing"] if traced else ():
        notes.append(f"entry point {where} not found: its layer's spans "
                     f"and counts would read 0")

    first = plain[0]
    if first["rtt_n"] < 1000:
        notes.append(f"only {first['rtt_n']} round trips: too few for a p99 "
                     f"with 10 samples beyond it")
    if first["replayed"] == 0:
        notes.append("the recovery replayed no records")
    if any(rep["recovery_s"] <= 0 for rep in plain):
        notes.append("a repetition recorded no recovery")
        return False, attempted, failed, {}, notes

    def median(key: str, reps: List[Dict] = plain) -> float:
        return statistics.median(rep[key] for rep in reps)

    metrics = {
        "setup_s": median("setup_s"),
        "msgs_per_s": statistics.median(
            r["completed"] / r["traffic_s"] for r in plain),
        "rtt_sim_ms_p50": first["rtt_p50"],
        "rtt_sim_ms_p99": first["rtt_p99"],
        "recovery_s": median("recovery_s"),
        "replay_msgs_per_s": statistics.median(
            r["replayed"] / r["recovery_total_s"] for r in plain),
        "recovery_sim_ms": first["recovery_sim_ms"],
        "peak_rss_mb": median("peak_rss_mb"),
    }
    report = {key: (metrics[key], unit) for key, unit in END_TO_END}
    if trace:
        for layer in LAYERS:
            report[f"{layer}.self_s"] = (statistics.median(
                r["self_s"][layer] for r in traced), "s")
            report[f"{layer}.calls"] = (traced[0]["calls"][layer], "count")
        counts = layer_counts(first["counts"], traced[0]["wrapped"])
        wall = median("wall_s")
        counts["sim.us_per_event"] = wall * 1e6 / first["timed_events"]
        counts["rtt.samples"] = first["rtt_n"]
        counts["trace.overhead_ratio"] = median("wall_s", traced) / wall
        for key in sorted(counts):
            report[key] = (counts[key], unit_of(key))
        if not WORKLOADS[name].runs_gossip:
            # Nothing on this workload can move the gossip layer.
            report = {key: value for key, value in report.items()
                      if not key.startswith("publishing.gossip.")}
    # Printed for the record, not a metric: the host's speed during the run.
    report["calibration_s"] = (statistics.median(
        statistics.mean(r["calibration_s"]) for r in plain), "s")
    return not notes, attempted, failed, report, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")

    ok = True
    for name in names:
        try:
            correct, attempted, failed, report, notes = run_workload(
                name, args.seed, args.seconds, bool(args.trace))
        except (RepError, subprocess.TimeoutExpired) as exc:
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            return 2
        ok = ok and correct
        calibration = report.pop("calibration_s", (0.0, "s"))[0]
        print(f"# {name} seed={args.seed} trace={args.trace}")
        for key, (value, unit) in report.items():
            print(f"{key:46s} {value:>16.6g} {unit}")
        print(f"{'failed_frac':46s} {failed / max(attempted, 1):>16.6g} ratio"
              f"  ({failed} of {attempted} requests)")
        print(f"# host times are scaled to the reference host: calibration "
              f"{calibration:.4f} s here, {REFERENCE_S} s there")
        for note in dict.fromkeys(notes):
            print(f"FAIL {note} (x{notes.count(note)})")
    if args.workload != "all":
        end_to_end = dict(END_TO_END)
        if args.trace:
            wanted = [k for k in report if k not in end_to_end]
        else:
            wanted = [k for k in report if k in end_to_end]
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": report[k][0], "unit": report[k][1]}
                        for k in wanted}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
