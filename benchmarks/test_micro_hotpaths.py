"""Micro-benchmarks for the per-frame hot spots: the C frame checksum
(``binascii.crc_hqx``, vs the bit-loop reference), the frame CRC cache, and the
capacity sweep's model-reuse probe (vs rebuilding the model per probe).

These assert the optimizations actually pay: the C CRC must be at
least 3x the bit-loop (typically ~250x) with byte-identical checksums.
"""

import random
import time
from dataclasses import replace

from repro.net.frames import Frame, FrameKind, crc16
from repro.queueing import OPERATING_POINTS, OpenQueueingModel, capacity_in_users

from conftest import once, print_table


def crc16_bitwise(data):
    """CRC-16/CCITT-FALSE, one bit at a time (the reference)."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def _payloads(count=400, lo=16, hi=512, seed=1983):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(rng.randrange(lo, hi)))
            for _ in range(count)]


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_crc16_vs_bitwise(benchmark):
    payloads = _payloads()

    def fast():
        return [crc16(p) for p in payloads]

    def bitwise():
        return [crc16_bitwise(p) for p in payloads]

    assert fast() == bitwise()     # identical checksums, always
    t_fast = _best_of(fast)
    t_bitwise = _best_of(bitwise)
    speedup = t_bitwise / t_fast
    once(benchmark, fast)
    total_kb = sum(len(p) for p in payloads) / 1024.0
    print_table("crc16: binascii.crc_hqx vs bit-loop",
                ["variant", "ms / %.0f KB" % total_kb, "speedup"],
                [["bit-loop (reference)", f"{t_bitwise * 1000:.2f}", "1.00x"],
                 ["binascii.crc_hqx", f"{t_fast * 1000:.2f}",
                  f"{speedup:.2f}x"]])
    assert speedup >= 3.0, f"crc16 only {speedup:.2f}x vs bit-loop"


def test_frame_checksum_cache(benchmark):
    """Re-validating a frame must not recompute the payload CRC."""
    frames = [Frame(kind=FrameKind.DATA, src_node=1, dst_node=2,
                    payload=("msg", i, "x" * 64), size_bytes=128)
              for i in range(500)]

    def validate_warm():
        return sum(1 for f in frames if f.checksum_ok())

    def validate_cold():
        total = 0
        for f in frames:
            f._payload_crc = None
            total += 1 if f.checksum_ok() else 0
        return total

    assert validate_warm() == validate_cold() == len(frames)
    t_warm = _best_of(validate_warm)
    t_cold = _best_of(validate_cold)
    once(benchmark, validate_warm)
    print_table("Frame.checksum_ok: cached payload CRC vs recompute",
                ["variant", "ms / 500 frames", "speedup"],
                [["recompute", f"{t_cold * 1000:.3f}", "1.00x"],
                 ["cached", f"{t_warm * 1000:.3f}",
                  f"{t_cold / t_warm:.2f}x"]])
    assert t_warm < t_cold


def test_capacity_sweep_model_reuse(benchmark):
    """The capacity bisection reuses one model per probe; it must beat
    (and agree exactly with) rebuilding the model for every probe."""

    def reuse_sweep():
        return [(name, capacity_in_users(p))
                for name, p in sorted(OPERATING_POINTS.items())]

    def rebuild_sweep():
        out = []
        for name, point in sorted(OPERATING_POINTS.items()):
            def stable(users):
                adjusted = replace(point, users_per_node=users)
                return OpenQueueingModel(point=adjusted, nodes=1).stable()

            lo, hi = 0, 1
            while hi < 2000 and stable(hi):
                lo, hi = hi, hi * 2
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if stable(mid):
                    lo = mid
                else:
                    hi = mid
            out.append((name, lo))
        return out

    assert reuse_sweep() == rebuild_sweep()
    t_reuse = _best_of(reuse_sweep)
    t_rebuild = _best_of(rebuild_sweep)
    rows = once(benchmark, reuse_sweep)
    print_table("capacity sweep: one reused model vs rebuild per probe",
                ["variant", "ms / 4-point sweep", "speedup"],
                [["rebuild per probe", f"{t_rebuild * 1000:.3f}", "1.00x"],
                 ["reused model", f"{t_reuse * 1000:.3f}",
                  f"{t_rebuild / t_reuse:.2f}x"]])
    assert dict(rows)["mean"] >= 110
    assert t_reuse < t_rebuild
