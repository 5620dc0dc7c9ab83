"""Pre-optimization reference implementations, kept as benchmark
baselines.

:class:`BaselineEngine` is the discrete-event engine exactly as it
stood before the hot-path pass (one :class:`BaselineEventHandle` object
per heap entry, Python-level ``__lt__`` comparisons during sifting, no
handle reuse, O(n) ``pending()``). The ``engine_churn`` workload drives
the same seeded operation sequence through this engine and the live
:class:`repro.sim.engine.Engine`, records both throughputs, and reports
the speedup — so ``BENCH_publishing.json`` always carries its own
before/after evidence, and a silent behavioural divergence between the
two engines fails the run.

:class:`FlatProcessLog` is the same idea for the recorder store: the
naive flat-list shape the log-structured engine replaced — one
ever-growing arrivals list, full-rescan ``messages_to_replay``, and
``consumed_ids`` that re-simulates the queue from process creation on
every call. The ``recorder_scaling`` workload and the store-equivalence
property test drive identical operation sequences through this and
:class:`repro.publishing.database.ProcessRecord` and require identical
answers.

Do not optimize this module: its slowness is the point.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Set, Tuple

from repro.errors import RecorderError, SimulationError

NEGATIVE_DELAY_EPSILON_MS = 1e-9


class BaselineEventHandle:
    """A cancellable reference to a scheduled event (pre-optimization)."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "BaselineEventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class BaselineEngine:
    """The naive heap-of-handles engine (pre-optimization reference)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: List[BaselineEventHandle] = []
        self._running = False
        self._events_fired = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any) -> BaselineEventHandle:
        if delay < 0:
            if delay >= -NEGATIVE_DELAY_EPSILON_MS:
                delay = 0.0
            else:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        handle = BaselineEventHandle(self._now + delay, self._seq, fn, args)
        heapq.heappush(self._heap, handle)
        return handle

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> BaselineEventHandle:
        return self.schedule(0.0, fn, *args)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._heap:
                head = self._heap[0]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and head.time > until:
                    break
                heapq.heappop(self._heap)
                self._now = head.time
                head.fn(*head.args)
                self._events_fired += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def pending(self) -> int:
        return sum(1 for h in self._heap if not h.cancelled)


class FlatLogged:
    """One logged message in the naive store: a plain mutable record."""

    __slots__ = ("message", "arrival_index", "invalid")

    def __init__(self, message: Any, arrival_index: int):
        self.message = message
        self.arrival_index = arrival_index
        self.invalid = False


class FlatProcessLog:
    """The naive flat-list process log (pre-optimization reference).

    Semantics are byte-identical to
    :class:`repro.publishing.database.ProcessRecord` — consumption
    order, the advisory-mismatch error, the cumulative-checkpoint
    invalidation rule and its jump-ahead quirk — but every query pays
    the naive price: ``consumed_ids`` re-simulates the queue from
    process creation, ``messages_to_replay`` rescans the whole arrivals
    list, and nothing is ever reclaimed.
    """

    def __init__(self) -> None:
        self.arrivals: List[FlatLogged] = []
        self.advisories: List[Tuple[Any, Any]] = []
        self._ckpt_consumed_done = 0
        self._ckpt_ctrl_done = 0

    def record_message(self, message: Any, arrival_index: int) -> FlatLogged:
        lm = FlatLogged(message, arrival_index)
        self.arrivals.append(lm)
        return lm

    def add_advisory(self, read_id: Any, head_id: Any) -> None:
        self.advisories.append((read_id, head_id))

    # ------------------------------------------------------------------
    def _simulate(self, target: int) -> List[FlatLogged]:
        """Re-run the queue simulation from scratch up to ``target``
        consumptions (or queue exhaustion); returns the consumed
        records in consumption order."""
        queue = [lm for lm in self.arrivals
                 if not lm.message.deliver_to_kernel
                 and not lm.message.recovery_marker]
        consumed: List[FlatLogged] = []
        cursor = 0
        while len(consumed) < target and queue:
            if (cursor < len(self.advisories)
                    and self.advisories[cursor][1] == queue[0].message.msg_id):
                read_id = self.advisories[cursor][0]
                for index, lm in enumerate(queue):
                    if lm.message.msg_id == read_id:
                        del queue[index]
                        break
                else:
                    raise RecorderError(
                        f"advisory for {read_id} does not match the log")
                cursor += 1
            else:
                lm = queue.pop(0)
            consumed.append(lm)
        return consumed

    def consumed_ids(self, consumed_count: int) -> Set[Any]:
        return {lm.message.msg_id for lm in self._simulate(consumed_count)}

    def apply_checkpoint(self, consumed: int, dtk_processed: int = 0) -> int:
        """Invalidate the messages a checkpoint's state already covers;
        counts are cumulative, and ordinals first covered by an earlier
        checkpoint are never revisited (the jump-ahead quirk)."""
        order = self._simulate(consumed)
        invalidated = 0
        start = self._ckpt_consumed_done
        for ordinal, lm in enumerate(order):
            if ordinal < start:
                continue
            if not lm.invalid:
                lm.invalid = True
                invalidated += 1
        self._ckpt_consumed_done = max(start, consumed)
        start = self._ckpt_ctrl_done
        controls = [lm for lm in self.arrivals if lm.message.deliver_to_kernel]
        for ordinal, lm in enumerate(controls):
            if ordinal >= dtk_processed:
                break
            if ordinal < start:
                continue
            if not lm.invalid:
                lm.invalid = True
                invalidated += 1
        self._ckpt_ctrl_done = max(start, dtk_processed)
        return invalidated

    def messages_to_replay(self) -> List[FlatLogged]:
        """Full rescan: every valid record, in arrival order."""
        return [lm for lm in self.arrivals if not lm.invalid]

    def first_valid_id(self) -> Optional[Any]:
        for lm in self.arrivals:
            if not lm.invalid and not lm.message.recovery_marker:
                return lm.message.msg_id
        return None

    def valid_message_bytes(self) -> int:
        return sum(lm.message.size_bytes for lm in self.arrivals
                   if not lm.invalid)
