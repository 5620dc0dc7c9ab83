"""Per-layer spans recorded from outside the program.

:class:`Tracer.install` wraps public functions of each layer — the
engine's ``schedule`` family (so every dispatched callback is charged to
the layer that owns it) and the cross-layer entry points listed in
``ENTRY_POINTS`` — and :meth:`Tracer.uninstall` puts the originals back.
It must be installed before a ``System`` is built: layers bind bound
methods at construction.

A span is (layer, name, start, end, parent). The parent of a callback
span is its cause, the span that scheduled it; the parent of a wrapped
call is the span it was called from. A layer's self time is its spans'
time minus the part of it covered by the spans that ran inside them (a
callback runs inside the ``EngineCore.run`` span that dispatched it).
Spans stay in memory and are written out by :meth:`Tracer.write`. An
entry point that is not found is listed in :attr:`Tracer.missing`, so a
refactor that renames one is reported instead of silently reading 0.
"""

from __future__ import annotations

import gzip
import importlib
import time
import types
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: the layers reported, named after the repo's modules
LAYERS = (
    "sim", "net.frames", "net.media", "net.transport", "demos.kernel",
    "publishing.recorder", "publishing.store", "publishing.recovery_manager",
    "publishing.gossip", "cluster.gateways", "obs", "other",
)

#: module prefix -> layer; the longest matching prefix wins
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.net": "net.media",
    "repro.net.frames": "net.frames",
    "repro.net.transport": "net.transport",
    "repro.demos": "demos.kernel",
    "repro.publishing": "publishing.recorder",
    "repro.publishing.store": "publishing.store",
    "repro.publishing.database": "publishing.store",
    "repro.publishing.disk": "publishing.store",
    "repro.publishing.recovery_manager": "publishing.recovery_manager",
    "repro.publishing.watchdog": "publishing.recovery_manager",
    "repro.publishing.node_recovery": "publishing.recovery_manager",
    "repro.publishing.gossip": "publishing.gossip",
    "repro.cluster": "cluster.gateways",
    "repro.obs": "obs",
}

#: (module, class or None, attribute, layer): the cross-layer entry
#: points wrapped as spans. A class entry also wraps every subclass
#: that overrides the method.
ENTRY_POINTS = (
    ("repro.sim.engine", "EngineCore", "run", "sim"),
    ("repro.net.frames", None, "crc16", "net.frames"),
    ("repro.net.frames", None, "canonical_bytes", "net.frames"),
    ("repro.net.media", "Medium", "transmit", "net.media"),
    ("repro.net.transport", "Transport", "send", "net.transport"),
    ("repro.demos.kernel", "MessageKernel", "send_message", "demos.kernel"),
    ("repro.demos.kernel", "MessageKernel", "deliver_local", "demos.kernel"),
    ("repro.demos.kernel", "MessageKernel", "inject_replay", "demos.kernel"),
    ("repro.publishing.recorder", "Recorder", "observe_delivery",
     "publishing.recorder"),
    ("repro.publishing.store", "SegmentedLog", "append", "publishing.store"),
    ("repro.publishing.store", "ReplayCursor", "next", "publishing.store"),
    ("repro.publishing.recovery_manager", "RecoveryManager",
     "start_recovery", "publishing.recovery_manager"),
    ("repro.cluster.gateways", "GatewayForwarder", "accept",
     "cluster.gateways"),
    ("repro.obs.events", "Scope", "emit", "obs"),
)

#: wrapped entry point -> the count of its calls kept in Tracer.counts
#: (``crc16`` also counts bytes, ``ReplayCursor.next`` only records read)
CALL_COUNTS = {
    "canonical_bytes": "net.frames.canonical_calls",
    "MessageKernel.inject_replay": "demos.kernel.replays_injected",
    "SegmentedLog.append": "publishing.store.appends",
    "Scope.emit": "obs.emit_calls",
}

#: engine methods whose callbacks are attributed to their owning layer
SCHEDULERS = ("schedule", "schedule_at", "call_soon")


def layer_of_module(module: str) -> str:
    best, best_len = "other", -1
    for prefix, layer in MODULE_LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


class Tracer:
    """Spans and counts for one traced repetition."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        #: counts made at the wrapped boundaries
        self.counts: Dict[str, int] = dict.fromkeys(
            ("net.frames.crc_calls", "net.frames.crc_bytes",
             "publishing.store.replay_reads", *CALL_COUNTS.values()), 0)
        # spans as parallel arrays: (name id, start ns, end ns, parent)
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        #: open spans, innermost last
        self._stack: List[list] = []
        self._layer_cache: Dict[object, Tuple[int, int]] = {}
        self._restore: List[Tuple[object, str, object]] = []
        #: ``module:Class.attr`` of the entry points and schedulers that
        #: :meth:`install` did not find
        self.missing: List[str] = []

    # -- spans ------------------------------------------------------------
    def _name_id(self, layer: int, name: str) -> int:
        key = f"{LAYERS[layer]}:{name}"
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _span(self, layer: int, name_id: int, parent: Optional[int],
              fn: Callable, args, kwargs):
        """Run ``fn`` as a span; ``parent`` None means the enclosing span."""
        stack = self._stack
        if parent is None:
            parent = stack[-1][1] if stack else -1
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_start.append(0)
        self.span_end.append(0)
        frame = [0, sid]          # [ns covered by child spans, span id]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            self.self_ns[layer] += duration - frame[0]
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += duration
            self.span_start[sid] = start
            self.span_end[sid] = end

    def _callback_ids(self, fn, args) -> Tuple[int, int]:
        """(layer, span name id) of an engine callback, cached per code
        object so closures made per event do not grow the cache."""
        target = getattr(fn, "__func__", fn)
        if args and isinstance(args[0], types.GeneratorType):
            # Engine._resume(gen, value): the activity owns the event
            target = args[0]
        code = getattr(target, "gi_code", None) or getattr(target, "__code__", target)
        ids = self._layer_cache.get(code)
        if ids is None:
            if isinstance(code, types.CodeType):
                module = _module_of_code(code)
                name = code.co_qualname if hasattr(code, "co_qualname") else code.co_name
            else:
                module = getattr(target, "__module__", None) or ""
                name = getattr(target, "__qualname__", "callback")
            layer = self.index[layer_of_module(module)]
            ids = self._layer_cache[code] = (layer, self._name_id(layer, name))
        return ids

    def _wrap_callback(self, fn: Callable, args) -> Callable:
        layer, name_id = self._callback_ids(fn, args)
        cause = self._stack[-1][1] if self._stack else -1
        span = self._span

        def callback(*a):
            return span(layer, name_id, cause, fn, a, {})
        callback._perfbench = True
        return callback

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        from repro.sim.engine import EngineCore
        for method in SCHEDULERS:
            original = EngineCore.__dict__.get(method)
            if original is None:
                self.missing.append(f"repro.sim.engine:EngineCore.{method}")
                continue
            self._patch(EngineCore, method, self._scheduler(original, method))
        for module_name, class_name, attr, layer in ENTRY_POINTS:
            qualified = f"{class_name}.{attr}" if class_name else attr
            where = f"{module_name}:{qualified}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(where)
                continue
            if class_name is None:
                if callable(getattr(module, attr, None)):
                    self._patch(module, attr,
                                self._entry(getattr(module, attr), layer, attr))
                else:
                    self.missing.append(where)
                continue
            cls = getattr(module, class_name, None)
            owners = [owner for owner in _with_subclasses(cls)
                      if callable(owner.__dict__.get(attr))] if cls else []
            if not owners:
                self.missing.append(where)
            for owner in owners:
                self._patch(owner, attr, self._entry(
                    owner.__dict__[attr], layer, f"{owner.__name__}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _scheduler(self, original, method: str):
        wrap = self._wrap_callback
        if method == "call_soon":
            def call_soon(engine, fn, *args):
                if not hasattr(fn, "_perfbench"):
                    fn = wrap(fn, args)
                return original(engine, fn, *args)
            return call_soon

        def schedule(engine, when, fn, *args):
            if not hasattr(fn, "_perfbench"):
                fn = wrap(fn, args)
            return original(engine, when, fn, *args)
        schedule.__name__ = method
        return schedule

    def _entry(self, original, layer_name: str, name: str):
        layer = self.index[layer_name]
        name_id = self._name_id(layer, name)
        span = self._span
        counts = self.counts
        key = CALL_COUNTS.get(name)
        if name == "crc16":
            def entry(data):
                counts["net.frames.crc_calls"] += 1
                counts["net.frames.crc_bytes"] += len(data)
                return span(layer, name_id, None, original, (data,), {})
        elif name == "ReplayCursor.next":
            def entry(*args, **kwargs):
                record = span(layer, name_id, None, original, args, kwargs)
                if record is not None:
                    counts["publishing.store.replay_reads"] += 1
                return record
        else:
            def entry(*args, **kwargs):
                if key is not None:
                    counts[key] += 1
                return span(layer, name_id, None, original, args, kwargs)
        entry.__name__ = getattr(original, "__name__", name)
        entry.__doc__ = getattr(original, "__doc__", None)
        return entry

    # -- results ------------------------------------------------------------
    def write(self, path: str) -> int:
        """Write every span as a gzipped CSV; returns the span count."""
        count = len(self.span_name)
        base = self.span_start[0] if count else 0
        with gzip.open(path, "wt", compresslevel=1) as fp:
            fp.write("id,name,start_us,dur_us,parent\n")
            names = self.names
            for i in range(count):
                start = self.span_start[i]
                fp.write(f"{i},{names[self.span_name[i]]},"
                         f"{(start - base) / 1e3:.3f},"
                         f"{(self.span_end[i] - start) / 1e3:.3f},"
                         f"{self.span_parent[i]}\n")
        return count


def _module_of_code(code: types.CodeType) -> str:
    filename = code.co_filename.replace("\\", "/")
    if "/repro/" in filename:
        tail = filename.rsplit("/repro/", 1)[1]
        return "repro." + tail[:-3].replace("/", ".").replace(".__init__", "")
    return ""


def _with_subclasses(cls) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen
