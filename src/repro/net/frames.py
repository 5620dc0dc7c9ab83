"""Frames and checksums.

The DEMOS/MP link layer "wraps all messages with a rotating checksum and
checks the message type for validity. Any messages with an incorrect
checksum are discarded" (§4.3.3). We model that literally: every frame
carries a CRC computed over a canonical encoding of its payload, and the
receiving link layer recomputes and compares it. Fault injection corrupts
the stored CRC, which is indistinguishable from bit rot on the wire.

The CRC is CRC-16/CCITT-FALSE (polynomial 0x1021, initial value
0xFFFF), computed by :func:`binascii.crc_hqx`. It runs on every frame
send *and* every receive, so it is one of the hottest per-frame code
paths in the simulator, and the C routine is much faster than any
Python loop. ``tests/test_net_frames.py`` keeps a bit-at-a-time
reference and pins :func:`crc16` to it, so published-frame checksums do
not depend on how the CRC is computed.
"""

from __future__ import annotations

import itertools
from binascii import crc_hqx
from enum import Enum
from typing import Any, NamedTuple, Optional

#: Destination id meaning "every attached interface".
BROADCAST = -1

_frame_counter = itertools.count(1)


class DeadLetter(NamedTuple):
    """One guaranteed item its carrier finally gave up on.

    ``origin`` is the node id whose transport exhausted its retries, or
    the gateway id that lost custody; ``payload`` is the transport
    :class:`~repro.net.transport.Segment` (node/recorder transports) or
    the :class:`Frame` (gateway custody loss). Tuple-shaped so existing
    ``(origin, payload, attempts)`` unpacking keeps working.
    """

    origin: int
    payload: Any
    attempts: int


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE over ``data`` — the frame checksum.

    A real rotating checksum rather than Python's ``hash`` so that the
    value is stable across runs and processes.
    """
    return crc_hqx(data, 0xFFFF)


def canonical_bytes(payload: Any) -> bytes:
    """A deterministic byte encoding of a payload object.

    ``repr`` of the payload is stable for the record payloads used by
    the transport and DEMOS layers (no ids or addresses appear in them).
    """
    return repr(payload).encode("utf-8", errors="replace")


class FrameKind(Enum):
    """Frame types recognised by the link layer (§4.3.3 "message type")."""

    DATA = "data"
    ACK = "ack"             # end-to-end transport acknowledgement
    RECORDER_ACK = "recorder_ack"  # medium-level recorder acknowledgement
    CONTROL = "control"     # watchdog pings, state queries, etc.


class Frame:
    """One transmission on the medium.

    ``recorder_acked`` is set by the medium when the recorder successfully
    stored the frame; link layers at receivers that require publishing drop
    data frames without it (§6.1).

    Frames are allocated per transmission attempt and checksummed at both
    ends, so the class is slotted and the payload's canonical encoding /
    CRC is computed once and cached (``_payload_crc``). The cache belongs
    to the *payload*, not the stored ``checksum``: :meth:`corrupt` models
    bit rot by flipping the stored checksum **and** drops the cache, so a
    corrupted frame always fails :meth:`checksum_ok` by recomputation —
    the cache can never mask injected rot.
    """

    __slots__ = ("kind", "src_node", "dst_node", "payload", "size_bytes",
                 "frame_id", "checksum", "recorder_acked", "_payload_crc")

    def __init__(self, kind: FrameKind, src_node: int, dst_node: int,
                 payload: Any, size_bytes: int,
                 frame_id: Optional[int] = None,
                 checksum: Optional[int] = None,
                 recorder_acked: bool = False):
        if size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {size_bytes}")
        self.kind = kind
        self.src_node = src_node
        self.dst_node = dst_node
        self.payload = payload
        self.size_bytes = size_bytes
        self.frame_id = (next(_frame_counter) if frame_id is None
                         else frame_id)
        self.recorder_acked = recorder_acked
        self._payload_crc: Optional[int] = None
        if checksum is None:
            checksum = self.payload_crc()
        self.checksum = checksum

    def payload_crc(self) -> int:
        """The CRC of the payload's canonical encoding, computed once."""
        crc = self._payload_crc
        if crc is None:
            crc = self._payload_crc = crc16(canonical_bytes(self.payload))
        return crc

    def checksum_ok(self) -> bool:
        """Compare the payload's CRC with the stored one."""
        return self.checksum == self.payload_crc()

    def corrupt(self) -> None:
        """Simulate bit rot: flip a checksum bit so validation fails."""
        self.checksum ^= 0x0001
        self._payload_crc = None

    def clone_for(self, dst_node: int) -> "Frame":
        """A copy of this frame addressed to ``dst_node`` (hub forwarding)."""
        clone = Frame(
            kind=self.kind,
            src_node=self.src_node,
            dst_node=dst_node,
            payload=self.payload,
            size_bytes=self.size_bytes,
            checksum=self.checksum,
            recorder_acked=self.recorder_acked,
        )
        clone._payload_crc = self._payload_crc
        return clone

    def _fields(self):
        return (self.kind, self.src_node, self.dst_node, self.payload,
                self.size_bytes, self.frame_id, self.checksum,
                self.recorder_acked)

    def __eq__(self, other):
        if other.__class__ is not Frame:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"Frame(kind={self.kind!r}, src_node={self.src_node!r}, "
                f"dst_node={self.dst_node!r}, payload={self.payload!r}, "
                f"size_bytes={self.size_bytes!r}, "
                f"frame_id={self.frame_id!r}, checksum={self.checksum!r}, "
                f"recorder_acked={self.recorder_acked!r})")
