"""The transport's pump must start messages in exactly the order of the
one-pass queue scan it replaced.

``ScanPumpModel`` keeps that scan as a reference: one global FIFO, and on
every pump a walk over the whole queue that starts each message whose
destination still has a free window slot. The real ``Transport`` keeps one
FIFO per destination instead and visits only the destination whose state
changed. Hypothesis drives both with the same sends, acks, give-ups and
crashes and compares the transmitted uids and ``queue_depth`` after every
step.
"""

from collections import Counter, deque
from itertools import count

from hypothesis import given, settings, strategies as st

from repro.net.frames import Frame, FrameKind
from repro.net.media import Medium
from repro.net.transport import Transport, TransportConfig
from repro.sim import Engine

TIMEOUT_MS = 10.0
DESTINATIONS = (2, 3, 4, 5)


class RecordingMedium(Medium):
    """A medium that delivers nothing and remembers the uid of every
    data frame handed to it."""

    kind = "recording"

    def __init__(self, engine):
        super().__init__(engine)
        self.sent = []

    def transmit(self, iface, frame):
        if frame.kind is FrameKind.DATA:
            self.sent.append(frame.payload.uid)


class ScanPumpModel:
    """The reference: a global FIFO rescanned on every pump. With
    ``max_retries=1`` a message gives up at its first retry deadline."""

    def __init__(self, window, per_destination):
        self.window = window
        self.per_destination = per_destination
        self.queue = deque()        # (uid, dst) in enqueue order
        self.in_flight = {}         # uid -> (dst, deadline, transmit order)
        self.sent = []
        self.gave_up = []
        self.now = 0.0
        self._order = count()

    @property
    def queue_depth(self):
        return len(self.queue) + len(self.in_flight)

    def send(self, uid, dst):
        self.queue.append((uid, dst))
        self.pump()

    def ack(self, uid):
        if self.in_flight.pop(uid, None) is not None:
            self.pump()

    def advance(self, until):
        while True:
            due = [(deadline, order, uid)
                   for uid, (_, deadline, order) in self.in_flight.items()
                   if deadline <= until]
            if not due:
                break
            deadline, _, uid = min(due)
            self.now = deadline
            del self.in_flight[uid]
            self.gave_up.append(uid)
            self.pump()
        self.now = until

    def crash(self):
        self.queue.clear()
        self.in_flight.clear()

    def _start(self, uid, dst):
        self.in_flight[uid] = (dst, self.now + TIMEOUT_MS, next(self._order))
        self.sent.append(uid)

    def pump(self):
        if not self.per_destination:
            while self.queue and len(self.in_flight) < self.window:
                self._start(*self.queue.popleft())
            return
        busy = Counter(dst for dst, _, _ in self.in_flight.values())
        started = []
        remaining = deque()
        for uid, dst in self.queue:
            if busy[dst] >= self.window:
                remaining.append((uid, dst))
                continue
            busy[dst] += 1
            started.append((uid, dst))
        self.queue = remaining
        for item in started:
            self._start(*item)


steps = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(DESTINATIONS)),
        st.tuples(st.just("ack"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("tick"), st.integers(min_value=1, max_value=12)),
        st.tuples(st.just("crash"), st.just(0)),
    ),
    max_size=80)


@settings(max_examples=150, deadline=None)
@given(window=st.sampled_from([1, 2]),
       per_destination=st.sampled_from([True, True, False]),
       script=steps)
def test_pump_matches_one_pass_scan(window, per_destination, script):
    engine = Engine()
    medium = RecordingMedium(engine)
    cfg = TransportConfig(window=window, per_destination=per_destination,
                          retransmit_timeout_ms=TIMEOUT_MS, max_retries=1)
    transport = Transport(engine, medium, 1, lambda segment: None, cfg)
    gave_up = []
    transport.on_gave_up = lambda segment, attempts: gave_up.append(
        segment.uid)
    model = ScanPumpModel(window, per_destination)
    uids = count()

    for op, arg in script:
        if op == "send":
            uid = ("p", next(uids))
            transport.send(arg, None, 16, uid=uid)
            model.send(uid, arg)
        elif op == "ack":
            # Ack an in-flight message or, now and then, a queued one
            # (which the transport must ignore).
            candidates = sorted(model.in_flight) + [u for u, _ in model.queue]
            if not candidates:
                continue
            uid = candidates[arg % len(candidates)]
            src = (model.in_flight[uid][0] if uid in model.in_flight
                   else dict(model.queue)[uid])
            transport.iface.on_frame(Frame(
                kind=FrameKind.ACK, src_node=src, dst_node=1,
                payload=("e2e-ack", uid), size_bytes=32))
            model.ack(uid)
        elif op == "tick":
            until = model.now + arg
            engine.run(until=until)
            model.advance(until)
        else:
            transport.crash()
            transport.restart()
            model.crash()
        assert medium.sent == model.sent
        assert gave_up == model.gave_up
        assert transport.queue_depth == model.queue_depth
