"""The benchmark harness: runs workloads, emits ``BENCH_publishing.json``.

The report separates the deterministic facts (``ops``, ``events``,
``sim_ms`` — identical for a given seed on every run and every machine)
from the timing facts (``wall_ms``, ``ops_per_sec``, ``events_per_sec``
— machine- and load-dependent). Regression comparison (``--compare``)
works on ``ops_per_sec`` with a tolerance wide enough to ride out CI
noise; determinism checking works on the deterministic facts exactly.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.perf.workloads import WORKLOADS

SCHEMA_VERSION = 1

#: default allowed fractional throughput drop before --compare fails
DEFAULT_TOLERANCE = 0.25

#: default CLI repetitions per workload: the committed baseline and the
#: CI comparison run both keep the fastest repetition, so both sit near
#: the machine's noise floor instead of wherever the scheduler happened
#: to land one sample — a single lucky-fast committed figure would make
#: every later single-sample comparison a coin flip
DEFAULT_BEST_OF = 3

#: deterministic facts that must be bit-identical across repetitions
_SEED_PURE_KEYS = ("ops", "events", "sim_ms", "event_digest",
                   "replay_digest")

#: iterations of the calibration loop (see _calibrate)
_CALIBRATION_ITERS = 200_000


def _calibrate(best_of: int = 5) -> float:
    """Iterations/sec of a fixed pure-python loop: the runner's
    demonstrated speed at this moment. Recorded before and after the
    suite, it lets ``compare_reports`` normalise throughput figures
    between a baseline machine and a (possibly throttled) current one —
    CPU throttling slows this loop and the workloads alike."""
    best = float("inf")
    for _ in range(max(1, best_of)):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_ITERS):
            acc += i ^ (acc >> 3)
        best = min(best, time.perf_counter() - start)
    return _CALIBRATION_ITERS / best


def _speed_ratio(current: Dict[str, Any], baseline: Dict[str, Any]) -> float:
    """How much slower the current run's machine demonstrably is than
    the baseline's, as a multiplier ≤ 1 for the comparison floor.

    Like for like: each report is judged by its *slowest* calibration
    sample (throttling may have started mid-suite), so a report
    compared with itself scores exactly 1. Never above 1 — a faster
    machine does not tighten the gate. Reports without calibration
    metadata (older baselines) compare unscaled."""
    cur = current.get("meta", {}).get("calibration")
    base = baseline.get("meta", {}).get("calibration")
    if not cur or not base:
        return 1.0
    cur_speed = min(cur.values())
    base_speed = min(base.values())
    if base_speed <= 0 or cur_speed <= 0:
        return 1.0
    return min(1.0, cur_speed / base_speed)


def _keep_fastest(name: str, best: Optional[Dict[str, Any]],
                  result: Dict[str, Any]) -> Dict[str, Any]:
    """Of two repetitions, keep the faster — after checking the
    seed-pure facts are bit-identical between them."""
    if best is None:
        return result
    for key in _SEED_PURE_KEYS:
        if best.get(key) != result.get(key):
            raise RuntimeError(
                f"{name}: seed-pure fact {key!r} varied across "
                f"repetitions ({best.get(key)} != {result.get(key)})")
    return result if result["wall_ms"] < best["wall_ms"] else best


def run_workload(name: str, seed: int, smoke: bool,
                 best_of: int = 1) -> Dict[str, Any]:
    """Run one workload (``best_of`` times, keeping the fastest
    repetition) and normalise its result into report shape."""
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, best_of)):
        best = _keep_fastest(name, best, _run_workload_once(name, seed, smoke))
    assert best is not None
    return best


def _run_workload_once(name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    fn = WORKLOADS[name]
    start = time.perf_counter()
    raw = fn(seed, smoke)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    # Workloads that time only their measured section report their own
    # wall_ms (engine_churn excludes baseline-run and script-generation
    # time); everything else is timed wall-to-wall here.
    wall_ms = float(raw.pop("wall_ms", elapsed_ms))
    ops = int(raw.pop("ops"))
    events = int(raw.pop("events"))
    sim_ms = float(raw.pop("sim_ms"))
    wall_s = wall_ms / 1000.0
    result: Dict[str, Any] = {
        "name": name,
        "ops": ops,
        "events": events,
        "sim_ms": sim_ms,
        "wall_ms": round(wall_ms, 3),
        "ops_per_sec": round(ops / wall_s, 2) if wall_s > 0 else 0.0,
        "events_per_sec": round(events / wall_s, 2) if wall_s > 0 else 0.0,
    }
    phases = raw.pop("phases", None)
    if phases:
        result["phases"] = {
            pname: {k: (round(v, 3) if isinstance(v, float) else v)
                    for k, v in pdata.items()}
            for pname, pdata in phases.items()
        }
    baseline = raw.pop("baseline", None)
    if baseline:
        result["baseline"] = {
            k: (round(v, 3) if isinstance(v, float) else v)
            for k, v in baseline.items()
        }
    speedup = raw.pop("speedup_vs_baseline", None)
    if speedup is not None:
        result["speedup_vs_baseline"] = round(speedup, 3)
    # whatever workload-specific extras remain ride along verbatim
    for key in sorted(raw):
        value = raw[key]
        result[key] = round(value, 3) if isinstance(value, float) else value
    return result


def run_suite(seed: int = 1983, smoke: bool = False,
              only: Optional[Iterable[str]] = None,
              parallel: Optional[int] = None,
              best_of: int = 1) -> Dict[str, Any]:
    """Run the selected workloads and assemble the full report.

    ``parallel=N`` (N > 1) shards the workloads over N worker processes
    via :mod:`repro.parallel`. Deterministic facts are unaffected (each
    workload still runs whole in one process); wall-clock figures are
    measured under contention, so use parallel runs for quick checks
    and serial runs for committed baselines. ``best_of`` (serial path
    only) runs the whole suite that many *interleaved* passes and keeps
    each workload's fastest pass: repetitions of one workload land
    seconds apart, so a transient load burst on a shared runner must
    recur over the same workload in every pass to bias its figure —
    back-to-back repetition would let a single sub-second burst eat
    all of them.
    """
    names = list(only) if only else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workload(s): {', '.join(unknown)} "
                       f"(known: {', '.join(WORKLOADS)})")
    meta = {
        "seed": seed,
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }
    calibration_before = _calibrate()
    if parallel is not None and parallel > 1:
        from repro.parallel import perf_tasks, run_tasks
        shards = run_tasks(perf_tasks(names, seed=seed, smoke=smoke),
                           max_workers=parallel)
        workloads = [{**shard["payload"], **shard["timing"]}
                     for shard in shards]
        meta["workers"] = parallel
    else:
        by_name: Dict[str, Dict[str, Any]] = {}
        for _ in range(max(1, best_of)):
            for name in names:
                by_name[name] = _keep_fastest(
                    name, by_name.get(name),
                    _run_workload_once(name, seed, smoke))
        workloads = [by_name[name] for name in names]
    meta["calibration"] = {"before": round(calibration_before, 1),
                           "after": round(_calibrate(), 1)}
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "publishing",
        "meta": meta,
        "workloads": workloads,
    }


def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Regression check: list of failures, empty when everything holds.

    A workload regresses when its ``ops_per_sec`` fell more than
    ``tolerance`` (fractional) below the baseline report's figure.
    Workloads present only on one side are skipped — adding a workload
    must not fail CI until its baseline is committed. A workload may
    opt out of the throughput check by reporting
    ``"throughput_gated": false`` (its digests are still pinned
    exactly): right for grids of many short subprocess runs whose wall
    clock is spawn-latency noise rather than a hot-path signal, and
    which enforce their own internal performance gate instead.

    When both reports carry calibration metadata, the floor is further
    scaled by the demonstrated machine-speed ratio (:func:`_speed_ratio`)
    so a throttled CI runner is compared against what *it* can do, not
    against the baseline machine's clock.
    """
    failures: List[str] = []
    ratio = _speed_ratio(current, baseline)
    base_by_name = {w["name"]: w for w in baseline.get("workloads", [])}
    for work in current.get("workloads", []):
        base = base_by_name.get(work["name"])
        if base is None:
            continue
        base_rate = base.get("ops_per_sec", 0.0)
        if base_rate > 0 and work.get("throughput_gated", True):
            floor = base_rate * (1.0 - tolerance) * ratio
            rate = work.get("ops_per_sec", 0.0)
            if rate < floor:
                scaled = ("" if ratio >= 1.0 else
                          f", machine-speed scaled x{ratio:.2f}")
                failures.append(
                    f"{work['name']}: {rate:.1f} ops/s is more than "
                    f"{tolerance:.0%} below baseline {base_rate:.1f} "
                    f"ops/s{scaled}")
        # Deterministic digests must match exactly: a changed replay
        # order or event stream is a behavioural break, not noise.
        for key in ("replay_digest", "event_digest"):
            if key in base and key in work and work[key] != base[key]:
                failures.append(
                    f"{work['name']}: {key} changed "
                    f"({base[key]} -> {work[key]}) — deterministic "
                    f"behaviour diverged from the committed baseline")
    return failures


def format_report(report: Dict[str, Any]) -> str:
    """A terminal-friendly table of the report."""
    meta = report["meta"]
    lines = [f"repro perf — mode={meta['mode']} seed={meta['seed']} "
             f"python={meta['python']}"]
    header = (f"{'workload':<20} {'ops':>8} {'wall_ms':>10} "
              f"{'ops/sec':>12} {'events/sec':>12} {'speedup':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for work in report["workloads"]:
        speedup = work.get("speedup_vs_baseline")
        lines.append(
            f"{work['name']:<20} {work['ops']:>8} {work['wall_ms']:>10.1f} "
            f"{work['ops_per_sec']:>12.1f} {work['events_per_sec']:>12.1f} "
            f"{(f'{speedup:.2f}x' if speedup is not None else '-'):>8}")
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def main(seed: int, smoke: bool, output: Optional[str],
         only: Optional[List[str]] = None,
         compare: Optional[str] = None,
         tolerance: float = DEFAULT_TOLERANCE,
         parallel: Optional[int] = None,
         best_of: int = DEFAULT_BEST_OF) -> int:
    """CLI entry point shared by ``python -m repro perf``. Returns an
    exit code: 0 on success, 1 on regression vs the compare baseline,
    2 for an unknown ``--workload`` name."""
    if only:
        unknown = [n for n in only if n not in WORKLOADS]
        if unknown:
            print(f"unknown workload(s): {', '.join(unknown)}",
                  file=sys.stderr)
            print(f"available: {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
    report = run_suite(seed=seed, smoke=smoke, only=only, parallel=parallel,
                       best_of=best_of)
    print(format_report(report))
    if output:
        write_report(report, output)
        print(f"wrote {output}")
    if compare:
        with open(compare, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = compare_reports(report, baseline, tolerance)
        if failures:
            print("performance regression detected:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {compare} (tolerance {tolerance:.0%})")
    return 0
