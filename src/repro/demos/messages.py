"""Messages and kernel-level control payloads.

"Messages consist of three parts: a header, a passed link, and a body.
The header contains the code and channel of the message in addition to
information needed to route the message to the correct process. These
fields are obtained from the link over which the message is sent"
(§4.2.2.3).

A :class:`Control` is not a DEMOS message: it is kernel↔kernel /
kernel↔recorder protocol (watchdog pings, creation notices, checkpoints,
recreate and replay traffic). Controls ride the same transport but are
handled below the process level and — except where noted — are not
published.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional

from repro.demos.ids import MessageId, ProcessId
from repro.demos.links import Link

#: Default and maximum body sizes, matching the queuing model's short
#: (128-byte) and long (1024-byte) message classes (§5.1).
DEFAULT_BODY_BYTES = 128
MAX_BODY_BYTES = 1024

_tuple_new = tuple.__new__


# Messages are the highest-volume allocation in a busy simulation, so
# they are tuple-backed records: cheaper to build than a frozen
# dataclass, with the same repr (from which every frame checksum is
# computed), equality, hash and immutability.
class _MessageFields(NamedTuple):
    msg_id: MessageId            # (sender pid, sender's send sequence)
    src: ProcessId
    dst: ProcessId
    channel: int
    code: int
    body: Any
    passed_link: Optional[Link]
    size_bytes: int
    deliver_to_kernel: bool
    #: Set on the marker the recovery process uses to hand a recovering
    #: process back to live traffic (see publishing.recovery_manager).
    recovery_marker: bool


class Message(_MessageFields):
    """One DEMOS message in flight or in a queue."""

    __slots__ = ()

    def __new__(cls, msg_id: MessageId, src: ProcessId, dst: ProcessId,
                channel: int, code: int, body: Any,
                passed_link: Optional[Link] = None,
                size_bytes: int = DEFAULT_BODY_BYTES,
                deliver_to_kernel: bool = False,
                recovery_marker: bool = False) -> "Message":
        if not 0 < size_bytes <= MAX_BODY_BYTES:
            raise ValueError(
                f"message body must be 1..{MAX_BODY_BYTES} bytes, "
                f"got {size_bytes}")
        return _tuple_new(cls, (msg_id, src, dst, channel, code, body,
                                passed_link, size_bytes, deliver_to_kernel,
                                recovery_marker))

    def _replace(self, **changes: Any) -> "Message":
        # namedtuple's _replace builds through _make, which skips
        # __new__ and with it the size check
        return self.__class__(*super()._replace(**changes))


class DeliveredMessage(NamedTuple):
    """What a program's ``on_message`` handler sees.

    The kernel has already moved any passed link into the receiver's
    link table; ``passed_link_id`` is its id there ("the receiver is
    told the link id of the link").
    """

    code: int
    channel: int
    body: Any
    src: ProcessId
    passed_link_id: Optional[int] = None


_control_counter = itertools.count(1)


@dataclass(frozen=True)
class Control:
    """A kernel-level protocol datagram.

    ``kind`` values used across the system:

    * ``are_you_alive`` / ``alive_reply`` — watchdog protocol (§4.6);
    * ``process_created`` / ``process_destroyed`` — recorder notices (§4.5);
    * ``process_crashed`` — trap report to the recovery manager (§3.3.2);
    * ``checkpoint`` — a process checkpoint bound for the recorder;
    * ``read_order`` — out-of-order channel-read advisory (§4.4.2);
    * ``recreate`` / ``recreate_ok`` — recovery restart request (§4.7);
    * ``replay`` — one published message re-sent to a recovering process;
    * ``recovery_done`` — recovery process signing off;
    * ``state_query`` / ``state_reply`` — recorder restart protocol (§3.3.4),
      stamped with the restart number so stale replies are ignored (§3.4);
    * ``recover_offer`` / ``recover_answer`` — multi-recorder coordination
      (§6.3).
    """

    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=lambda: next(_control_counter))

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)
