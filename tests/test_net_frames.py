"""Unit tests for frames, checksums, and fault injection."""

import random

import pytest

from conftest import (
    expected_totals,
    register_test_programs,
    run_counter_scenario,
)
from repro.net.frames import (
    BROADCAST,
    Frame,
    FrameKind,
    canonical_bytes,
    crc16,
)
from repro.net.faults import FaultPlan
from repro.sim.rng import RngStreams
from repro.system import System, SystemConfig


def crc16_bitwise(data: bytes) -> int:
    """CRC-16/CCITT-FALSE over ``data``, one bit at a time: the
    reference the frame checksum is pinned to."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def make_frame(payload="hello", dst=2):
    return Frame(kind=FrameKind.DATA, src_node=1, dst_node=dst,
                 payload=payload, size_bytes=128)


class TestCrc:
    def test_known_stability(self):
        assert crc16(b"123456789") == crc16(b"123456789")

    def test_different_data_different_crc(self):
        assert crc16(b"abc") != crc16(b"abd")

    def test_empty_input(self):
        assert crc16(b"") == 0xFFFF

    def test_matches_bitwise_reference(self):
        """``crc16`` must agree with the bit-at-a-time reference on fixed
        and random payloads, so published-frame checksums never depend
        on how the CRC is computed."""
        rng = random.Random(1983)
        payloads = [b"", b"\x00", b"\xff" * 64, b"123456789"]
        payloads += [bytes(rng.randrange(256)
                           for _ in range(rng.randrange(1, 512)))
                     for _ in range(200)]
        payloads += [rng.randbytes(rng.randrange(0, 801))
                     for _ in range(300)]
        for payload in payloads:
            assert crc16(payload) == crc16_bitwise(payload), payload

    def test_crc16_ccitt_check_value(self):
        # CRC-16/CCITT-FALSE check value for "123456789"
        assert crc16(b"123456789") == 0x29B1


class TestFrame:
    def test_checksum_computed_and_valid(self):
        frame = make_frame()
        assert frame.checksum == crc16(canonical_bytes("hello"))
        assert frame.checksum_ok()

    def test_corrupt_invalidates(self):
        frame = make_frame()
        frame.corrupt()
        assert not frame.checksum_ok()

    def test_double_corrupt_restores(self):
        frame = make_frame()
        frame.corrupt()
        frame.corrupt()
        assert frame.checksum_ok()

    def test_frame_ids_unique(self):
        assert make_frame().frame_id != make_frame().frame_id

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Frame(kind=FrameKind.DATA, src_node=1, dst_node=2,
                  payload="x", size_bytes=0)

    def test_clone_for_retargets_but_keeps_payload(self):
        frame = make_frame()
        clone = frame.clone_for(7)
        assert clone.dst_node == 7
        assert clone.payload == frame.payload
        assert clone.checksum == frame.checksum
        assert clone.checksum_ok()

    def test_slots_no_instance_dict(self):
        with pytest.raises(AttributeError):
            make_frame().not_a_field = 1


class TestChecksumCache:
    """The per-frame CRC cache must never mask injected bit rot."""

    def test_corrupt_after_validation_still_detected(self):
        frame = make_frame()
        assert frame.checksum_ok()          # warm the cache
        frame.corrupt()
        assert not frame.checksum_ok()      # cache invalidated
        frame.corrupt()
        assert frame.checksum_ok()          # double-flip restores

    def test_fault_injected_copy_fails_check_with_warm_caches(self):
        plan = FaultPlan()
        plan.corrupt_next(lambda f, node: True)
        frame = make_frame()
        assert frame.checksum_ok()          # original cache warm
        seen = plan.apply(frame, 2)
        assert seen is not frame
        assert not seen.checksum_ok()       # corruption flips the check
        assert not seen.checksum_ok()       # ... and stays flipped
        assert frame.checksum_ok()          # original untouched

    def test_clone_shares_cache_and_still_validates(self):
        frame = make_frame()
        assert frame.checksum_ok()
        clone = frame.clone_for(9)
        assert clone.checksum_ok()
        clone.corrupt()
        assert not clone.checksum_ok()
        assert frame.checksum_ok()

    def test_repeated_checks_computed_once(self):
        frame = make_frame()
        assert frame.payload_crc() == crc16(canonical_bytes(frame.payload))
        cached = frame._payload_crc
        assert cached is not None
        frame.checksum_ok()
        assert frame._payload_crc is cached


class TestFaultPlan:
    def test_default_plan_is_transparent(self):
        plan = FaultPlan()
        frame = make_frame()
        assert plan.apply(frame, 2) is frame

    def test_targeted_loss_hits_matching_frames_only(self):
        plan = FaultPlan()
        plan.lose_next(lambda f, node: node == 2, count=1)
        frame = make_frame()
        assert plan.apply(frame, 3) is frame        # wrong receiver
        assert plan.apply(frame, 2) is None         # lost
        assert plan.apply(frame, 2) is frame        # budget spent
        assert plan.losses == 1

    def test_targeted_corruption_returns_bad_copy(self):
        plan = FaultPlan()
        plan.corrupt_next(lambda f, node: True)
        frame = make_frame()
        seen = plan.apply(frame, 2)
        assert seen is not frame
        assert not seen.checksum_ok()
        assert frame.checksum_ok()                  # original untouched

    def test_zero_rates_create_no_stream(self):
        rng = RngStreams(1)
        plan = FaultPlan(rng=rng)
        frame = make_frame()
        assert all(plan.apply(frame, node) is frame for node in (1, 2, 99))
        assert not any(name.startswith("faults/") for name in rng._streams)

    def test_fault_free_run_creates_no_fault_stream(self):
        system = System(SystemConfig(nodes=2, master_seed=7))
        register_test_programs(system)
        system.boot()
        run_counter_scenario(system, n=30)
        system.run(20000)
        assert system.faults.losses == system.faults.corruptions == 0
        assert system.engine.events_fired == 522
        assert not any(name.startswith("faults/")
                       for name in system.rng._streams)

    @pytest.mark.parametrize("medium,corruption_rate,expected", [
        ("broadcast", 0.0, (64, 0, 815)),
        ("broadcast", 0.05, (80, 26, 979)),
        ("csma_ethernet", 0.05, (105, 38, 3510)),
    ])
    def test_seeded_lossy_run_keeps_its_fault_counts(
            self, medium, corruption_rate, expected):
        # (losses, corruptions, events) pinned from the plan that looked
        # up its receiver's stream on every delivery
        system = System(SystemConfig(nodes=2, master_seed=7, medium=medium,
                                     loss_rate=0.1,
                                     corruption_rate=corruption_rate))
        register_test_programs(system)
        system.boot()
        _, sender = run_counter_scenario(system, n=30)
        system.run(20000)
        assert (system.faults.losses, system.faults.corruptions,
                system.engine.events_fired) == expected
        replies = system.nodes[1].kernel.processes[sender].program.replies
        assert replies == expected_totals(30)

    def test_probabilistic_loss_rate(self):
        plan = FaultPlan(rng=RngStreams(1), loss_rate=0.5)
        outcomes = [plan.apply(make_frame(), 2) for _ in range(400)]
        lost = sum(1 for o in outcomes if o is None)
        assert 120 < lost < 280

    def test_probabilistic_corruption(self):
        plan = FaultPlan(rng=RngStreams(1), corruption_rate=1.0)
        seen = plan.apply(make_frame(), 2)
        assert seen is not None and not seen.checksum_ok()
