"""The message-path value records: ``Message``, ``DeliveredMessage``,
``Link``, transport ``Segment`` and obs ``Event``.

They are tuple-backed records. Every frame checksum is a CRC of a
payload's ``repr``, and every stored record checksum a CRC of a tuple's
``repr``, so the strings, checksums and hashes below are golden values:
they were computed when these records were frozen dataclasses, and a
change to any of them changes wire bytes and committed digests.
"""

import copy
import pickle

import pytest

from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link
from repro.demos.messages import (
    MAX_BODY_BYTES,
    Control,
    DeliveredMessage,
    Message,
)
from repro.net.frames import Frame, FrameKind, canonical_bytes, crc16
from repro.net.transport import Segment
from repro.obs.events import Event
from repro.publishing.store import payload_digest

SRC = ProcessId(1, 3)
DST = ProcessId(2, 5)
LINK = Link(ProcessId(4, 7), channel=2, code=9, deliver_to_kernel=True)


def nested_message(**changes):
    fields = dict(msg_id=MessageId(SRC, 17), src=SRC, dst=DST, channel=1,
                  code=6, body=("add", 3, "xé", 2.5, None, {"k": [1, 2]}),
                  passed_link=LINK, size_bytes=256)
    fields.update(changes)
    return Message(**fields)


def nested_segment():
    return Segment(uid=(SRC, 17), src_node=1, dst_node=2,
                   body=nested_message(), stream_seq=4)


GOLDEN_SEGMENT_REPR = (
    "Segment(uid=(ProcessId(node=1, local=3), 17), src_node=1, dst_node=2, "
    "body=Message(msg_id=MessageId(sender=ProcessId(node=1, local=3), "
    "seq=17), src=ProcessId(node=1, local=3), dst=ProcessId(node=2, "
    "local=5), channel=1, code=6, body=('add', 3, 'xé', 2.5, None, "
    "{'k': [1, 2]}), passed_link=Link(dst=ProcessId(node=4, local=7), "
    "channel=2, code=9, deliver_to_kernel=True), size_bytes=256, "
    "deliver_to_kernel=False, recovery_marker=False), guaranteed=True, "
    "stream_seq=4)")


def every_record():
    """One instance of each record, with nested and mutable fields."""
    return [
        nested_message(),
        DeliveredMessage(code=1, channel=2, body=("x", 1), src=SRC,
                         passed_link_id=3),
        Link(ProcessId(4, 7), channel=2, code=9, deliver_to_kernel=True),
        nested_segment(),
        Event(12.5, "transport.1", "retransmit", "node1",
              {"dst": 2, "attempt": 3}),
    ]


class TestWireEncoding:
    def test_nested_segment_repr_is_golden(self):
        assert repr(nested_segment()) == GOLDEN_SEGMENT_REPR

    def test_canonical_bytes_and_crc_are_golden(self):
        data = canonical_bytes(nested_segment())
        assert data == GOLDEN_SEGMENT_REPR.encode("utf-8")
        assert crc16(data) == 17620
        frame = Frame(FrameKind.DATA, 1, 2, nested_segment(), 300)
        assert frame.checksum == 17620 and frame.checksum_ok()

    def test_short_reprs_are_golden(self):
        assert repr(Segment(uid=(SRC, 2), src_node=1, dst_node=2,
                            body="b")) == (
            "Segment(uid=(ProcessId(node=1, local=3), 2), src_node=1, "
            "dst_node=2, body='b', guaranteed=True, stream_seq=None)")
        assert repr(DeliveredMessage(code=1, channel=2, body=("x", 1),
                                     src=SRC)) == (
            "DeliveredMessage(code=1, channel=2, body=('x', 1), "
            "src=ProcessId(node=1, local=3), passed_link_id=None)")

    def test_event_repr_is_golden(self):
        event = Event(12.5, "transport.1", "retransmit", "node1",
                      {"dst": 2, "attempt": 3})
        assert repr(event) == (
            "Event(time=12.5, scope='transport.1', category='retransmit', "
            "subject='node1', detail={'dst': 2, 'attempt': 3})")
        assert repr(Event(0.0, "sim", "tick", "x")) == (
            "Event(time=0.0, scope='sim', category='tick', subject='x', "
            "detail={})")

    def test_payload_digest_is_golden(self):
        plain = Message(msg_id=MessageId(SRC, 1), src=SRC, dst=DST,
                        channel=0, code=0, body=("total", 41))
        assert payload_digest(plain) == 660948522
        assert payload_digest(nested_message()) == 4236419785
        # passed_link is not part of the digest
        assert payload_digest(nested_message(passed_link=None)) == 4236419785


class TestEqualityAndHash:
    def test_hashes_are_golden(self):
        assert hash(Link(ProcessId(4, 7), 2, 9, True)) == 6067212240408033695
        assert hash(Segment((SRC, 17), 1, 2, 5, True, 4)) == \
            -1092395706170304286
        assert hash(Message(MessageId(SRC, 1), SRC, DST, 0, 0, 7, LINK, 64,
                            True, True)) == -1013041815564528754

    @pytest.mark.parametrize("index", range(5))
    def test_equal_records_compare_equal(self, index):
        record, twin = every_record()[index], every_record()[index]
        assert record == twin and record is not twin

    @pytest.mark.parametrize("index", [1, 2])
    def test_hash_is_the_hash_of_the_field_values(self, index):
        # how a frozen dataclass defines its hash
        record = every_record()[index]
        fields = tuple(getattr(record, name) for name in record._fields)
        assert hash(record) == hash(every_record()[index]) == hash(fields)

    @pytest.mark.parametrize("index", [0, 3, 4])
    def test_records_holding_a_dict_are_unhashable(self, index):
        with pytest.raises(TypeError):
            hash(every_record()[index])

    def test_a_changed_field_breaks_equality(self):
        assert nested_message() != nested_message(code=7)
        assert LINK != LINK.with_code(1)
        assert LINK.with_code(1) == Link(ProcessId(4, 7), 2, 1, True)

    @pytest.mark.parametrize("index", range(5))
    def test_assignment_raises(self, index):
        record = every_record()[index]
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_records_are_tuples(self):
        # documented: code must not dispatch on isinstance(x, tuple) or
        # record[0] to tell a record from a plain tuple body
        assert all(isinstance(r, tuple) for r in every_record())
        assert not isinstance(Control("ping"), tuple)


class TestMessageSizeChecks:
    @pytest.mark.parametrize("size", [0, -1, MAX_BODY_BYTES + 1])
    def test_construction_rejects_bad_sizes(self, size):
        with pytest.raises(ValueError):
            nested_message(size_bytes=size)

    @pytest.mark.parametrize("size", [1, MAX_BODY_BYTES])
    def test_construction_accepts_the_bounds(self, size):
        assert nested_message(size_bytes=size).size_bytes == size

    @pytest.mark.parametrize("size", [0, MAX_BODY_BYTES + 1])
    def test_replace_rejects_bad_sizes(self, size):
        with pytest.raises(ValueError):
            nested_message()._replace(size_bytes=size)

    def test_replace_keeps_the_type_and_other_fields(self):
        changed = nested_message()._replace(body=("bitrot",))
        assert type(changed) is Message
        assert changed == nested_message(body=("bitrot",))

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            nested_message()._replace(colour="red")


class TestCopies:
    """Checkpoints deep-copy queued messages."""

    @pytest.mark.parametrize("index", range(5))
    def test_pickle_round_trip(self, index):
        record = every_record()[index]
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == repr(record)

    @pytest.mark.parametrize("index", range(5))
    def test_deepcopy_round_trip(self, index):
        record = every_record()[index]
        clone = copy.deepcopy(record)
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == repr(record)

    def test_deepcopy_does_not_share_mutable_fields(self):
        message = nested_message()
        clone = copy.deepcopy(message)
        assert clone.body[5] is not message.body[5]

    def test_event_detail_default_is_not_shared(self):
        first, second = Event(0.0, "a", "b", "c"), Event(0.0, "a", "b", "c")
        first.detail["k"] = 1
        assert second.detail == {}
