"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py <workload> <seed> [--trace] [--crash-free]
        [--spans PATH]

Prints one JSON object: the repetition's timings, outcome and counts.
``perfbench/run.py`` launches one of these per repetition, so no
process-global state of the program (id counters, caches) carries over
from one repetition to the next. Exits 2 if the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
from statistics import median
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--crash-free", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    from perfbench.tracing import LAYERS, Tracer
    from perfbench.workloads import run_rep

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        rep = run_rep(args.workload, args.seed, faults=not args.crash_free)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rtt = sorted(rep.rtt_ms)
    recoveries = rep.recoveries or [(0.0, 0.0, 0)]
    out = {
        "first_request_at": rep.first_request_at,
        "calibration_s": rep.calibration_s,
        "traffic_s": rep.traffic_s,
        "wall_s": rep.wall_s,
        "timed_events": rep.timed_events,
        "attempted": rep.attempted,
        "completed": rep.completed,
        "rtt_n": len(rtt),
        "rtt_p50": percentile(rtt, 0.50) if rtt else 0.0,
        "rtt_p99": percentile(rtt, 0.99) if rtt else 0.0,
        "rtt_digest": digest(rep.rtt_ms),
        "recovery_s": median(host for host, _, _ in recoveries),
        "recovery_sim_ms": median(sim for _, sim, _ in recoveries),
        "recovery_total_s": sum(host for host, _, _ in recoveries),
        "replayed": sum(n for _, _, n in recoveries),
        "failures": rep.failures,
        "states": [digest(state) for state in rep.states],
        "counts": rep.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["self_s"] = {name: tracer.self_ns[i] / 1e9
                         for i, name in enumerate(LAYERS)}
        out["calls"] = {name: tracer.calls[i] for i, name in enumerate(LAYERS)}
        out["wrapped"] = tracer.counts
        out["missing"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
