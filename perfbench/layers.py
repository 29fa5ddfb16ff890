"""Outside-in per-layer tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module. :class:`LayerTracer`
replaces a fixed list of layer-boundary functions with timing wrappers
before a deployment is built, so every instance (and every bound-method
hook captured at construction) goes through them. Layers are named after
the repository's modules (see ``LAYER_OF_MODULE``).

Each wrapper records one span: name, start, end, parent span and the id
of the simulator event that caused it. Spans stay in memory (five flat
arrays, about 34 bytes a span) and are written out once, after the run.
A layer's *self time* is the summed duration of its spans minus the part
of each covered by child spans (:func:`self_times`).

Every simulator event is wrapped too: ``Simulator.schedule_at`` hands the
kernel a trampoline that opens an ``<layer>.event`` span, where the layer
is the module of the scheduled callback. ``Simulator.run`` is the root
span, so its self time is the kernel's own cost (heap operations and the
dispatch loop) plus the trampolines themselves.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

#: Module prefix -> layer. Longest prefix wins.
LAYER_OF_MODULE: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.openflow": "openflow",
    "repro.controllers": "controllers",
    "repro.datastore": "datastore",
    "repro.core.replicator": "replicator",
    "repro.core.module": "module",
    "repro.core.selection": "module",
    "repro.core.validator": "validator",
    "repro.core.pipeline": "validator",
    "repro.core.consensus": "validator",
    "repro.policy": "policy",
    "repro.workloads": "workloads",
}

LAYERS: Tuple[str, ...] = ("sim", "net", "openflow", "controllers",
                           "datastore", "replicator", "module",
                           "validator", "policy", "workloads", "other")

#: (module, attribute path, span name). The span's layer is the prefix of
#: its name. Instance hooks bind at construction, so these must be patched
#: before ``Jury.experiment`` runs.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.simulator", "Simulator.run", "sim.run"),
    ("repro.net.channel", "ControlChannel.send", "net.channel_send"),
    ("repro.net.links", "Link.transmit", "net.link_transmit"),
    ("repro.net.switch", "SoftSwitch.receive_packet", "net.switch_packet"),
    ("repro.net.switch", "SoftSwitch.handle_control_message",
     "net.switch_control"),
    ("repro.net.ovs", "ReplicatingProxy.handle_control_message",
     "net.proxy_control"),
    ("repro.net.hosts", "Host.receive_packet", "net.host_packet"),
    ("repro.openflow.match", "Match.canonical", "openflow.match_canonical"),
    ("repro.openflow.encap", "decapsulate_packet_in", "openflow.decap"),
    ("repro.openflow.encap", "encapsulate_packet_in", "openflow.encap"),
    ("repro.controllers.base", "Controller.handle_control_message",
     "controllers.control"),
    ("repro.controllers.base", "Controller.ingress_packet_in",
     "controllers.packet_in"),
    ("repro.controllers.base", "Controller._pipeline_packet_in",
     "controllers.pipeline"),
    ("repro.controllers.base", "Controller._pipeline_rest",
     "controllers.pipeline_rest"),
    ("repro.controllers.base", "Controller._egress_send",
     "controllers.egress"),
    ("repro.controllers.base", "Controller._on_store_event",
     "controllers.store_event"),
    ("repro.datastore.store", "DatastoreNode.put", "datastore.put"),
    ("repro.datastore.store", "DatastoreNode.delete", "datastore.delete"),
    ("repro.datastore.store", "DatastoreNode.apply_remote",
     "datastore.apply_remote"),
    ("repro.datastore.hazelcast", "HazelcastCluster.propagate",
     "datastore.propagate"),
    ("repro.datastore.infinispan", "InfinispanCluster.propagate",
     "datastore.propagate"),
    ("repro.datastore.events", "CacheEvent.canonical",
     "datastore.canonical"),
    ("repro.core.replicator", "Replicator._on_switch_trigger",
     "replicator.intercept"),
    ("repro.core.replicator", "Replicator.intercept_rest",
     "replicator.intercept_rest"),
    ("repro.core.module", "JuryModule.on_replicated_trigger",
     "module.replicated_trigger"),
    ("repro.core.module", "JuryModule._on_trigger_done",
     "module.trigger_done"),
    ("repro.core.module", "JuryModule._on_cache_event", "module.cache_event"),
    ("repro.core.module", "JuryModule._on_network_message",
     "module.network_message"),
    ("repro.core.module", "JuryModule._send", "module.send"),
    ("repro.core.module", "designated_secondaries", "module.selection"),
    ("repro.core.validator", "Validator.handle_control_message",
     "validator.response"),
    ("repro.core.validator", "evaluate_consensus", "validator.consensus"),
    ("repro.policy.engine", "PolicyEngine.check_decision", "policy.check"),
)

#: Per-layer metrics as named in BENCHMARK.json (besides ``<layer>.self_s``).
COUNT_SPANS: Dict[str, str] = {
    "net.channel_sends": "net.channel_send",
    "net.link_transmits": "net.link_transmit",
    "openflow.match_canonical_calls": "openflow.match_canonical",
    "openflow.decaps": "openflow.decap",
    "datastore.canonical_calls": "datastore.canonical",
    "module.cache_events": "module.cache_event",
    "module.selection_calls": "module.selection",
    "validator.responses": "validator.response",
    "policy.checks": "policy.check",
}


def layer_of_module(module: Optional[str]) -> str:
    """The layer owning ``module`` (a dotted name), ``other`` if none."""
    best = ""
    for prefix in LAYER_OF_MODULE:
        if module and (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYER_OF_MODULE[best] if best else "other"


class SpanStore:
    """Spans as flat arrays: name id, start, end, parent index, event id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.event = array("l")

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def add(self, name: str, start: float, end: float, parent: int = -1,
            event: int = -1) -> int:
        """Append one finished span; returns its index."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.event.append(event)
        return len(self.start) - 1

    def __len__(self) -> int:
        return len(self.start)

    def counts(self) -> Dict[str, int]:
        tally = [0] * len(self.names)
        for ident in self.name:
            tally[ident] += 1
        return {name: tally[i] for i, name in enumerate(self.names)}

    def write(self, directory: str) -> None:
        """Dump the spans: one raw file per array plus a JSON header."""
        os.makedirs(directory, exist_ok=True)
        for field in ("name", "start", "end", "parent", "event"):
            with open(os.path.join(directory, field + ".bin"), "wb") as out:
                getattr(self, field).tofile(out)
        header = {"spans": len(self), "names": self.names,
                  "arrays": {f: getattr(self, f).typecode
                             for f in ("name", "start", "end", "parent",
                                       "event")}}
        with open(os.path.join(directory, "spans.json"), "w",
                  encoding="utf-8") as out:
            json.dump(header, out, indent=1)


def self_times(spans: SpanStore) -> Dict[str, float]:
    """Self time per span name: duration minus time covered by children.

    Children of one span never overlap (calls nest), so the covered part
    is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    start, end, parent = spans.start, spans.end, spans.parent
    for i in range(len(spans)):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    totals = [0.0] * len(spans.names)
    for i, ident in enumerate(spans.name):
        totals[ident] += (end[i] - start[i]) - covered[i]
    return {name: totals[i] for i, name in enumerate(spans.names)}


def inclusive_times(spans: SpanStore) -> Dict[str, float]:
    """Summed span duration per name, children included.

    Recursive calls of one name (a span nested in a span of the same
    name) are counted once, at the outermost span.
    """
    totals = [0.0] * len(spans.names)
    names, parent = spans.name, spans.parent
    for i, ident in enumerate(names):
        p = parent[i]
        while p >= 0 and names[p] != ident:
            p = parent[p]
        if p < 0:
            totals[ident] += spans.end[i] - spans.start[i]
    return {name: totals[i] for i, name in enumerate(spans.names)}


def layer_self_times(spans: SpanStore) -> Dict[str, float]:
    """:func:`self_times` summed per layer (the prefix of a span name)."""
    layers = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_times(spans).items():
        layer = name.split(".", 1)[0]
        layers[layer if layer in layers else "other"] += seconds
    return layers


class LayerTracer:
    """Installs the span wrappers and owns the spans they record."""

    def __init__(self) -> None:
        self.spans = SpanStore()
        #: [current span index, current event id, next event id]
        self._cursor = [-1, -1, 0]
        #: Callback module -> name id of its layer's event span.
        self._layer_cache: Dict[str, int] = {}
        #: Validator channels; events delivering a response are counted
        #: while pending so in-flight responses are known at the end.
        self.validator_channels: set = set()
        self.validator_pending = 0

    # ------------------------------------------------------------------
    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span named ``name``."""
        spans = self.spans
        ident = spans.name_id(name)
        cursor = self._cursor
        names, starts, ends = spans.name, spans.start, spans.end
        parents, events = spans.parent, spans.event

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = cursor[0]
            index = len(starts)
            names.append(ident)
            parents.append(parent)
            events.append(cursor[1])
            ends.append(0.0)
            cursor[0] = index
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                cursor[0] = parent
        return wrapper

    def _trampoline(self, counted: bool):
        """Kernel trampoline: one ``<layer>.event`` span per event.

        ``counted`` trampolines carry responses to the validator and
        decrement :attr:`validator_pending` when they fire.
        """
        spans = self.spans
        cursor = self._cursor
        layer_cache = self._layer_cache
        names, starts, ends = spans.name, spans.start, spans.end
        parents, events = spans.parent, spans.event
        tracer = self

        def fire(callback, *args):
            module = getattr(callback, "__module__", None) or ""
            ident = layer_cache.get(module)
            if ident is None:
                ident = layer_cache[module] = spans.name_id(
                    layer_of_module(module) + ".event")
            if counted:
                tracer.validator_pending -= 1
            parent, previous_event = cursor[0], cursor[1]
            index = len(starts)
            names.append(ident)
            parents.append(parent)
            events.append(cursor[2])
            ends.append(0.0)
            cursor[0], cursor[1] = index, cursor[2]
            cursor[2] += 1
            starts.append(perf_counter())
            try:
                return callback(*args)
            finally:
                ends[index] = perf_counter()
                cursor[0], cursor[1] = parent, previous_event
        return fire

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target in ``SPAN_TARGETS`` and the kernel."""
        import importlib

        for module_name, path, name in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapped = self.span(name, original)
            setattr(owner, attr, wrapped)
            if not owner_name:
                # Functions imported by name elsewhere keep the original
                # binding; rebind it in every loaded repro module.
                self._rebind(original, wrapped)

        from repro.sim.simulator import Simulator
        original_schedule_at = Simulator.schedule_at
        fire = self._trampoline(counted=False)
        fire_counted = self._trampoline(counted=True)
        tracer = self

        def schedule_at(sim, time, callback, *args):
            if getattr(callback, "__self__", None) in \
                    tracer.validator_channels:
                tracer.validator_pending += 1
                return original_schedule_at(sim, time, fire_counted,
                                            callback, *args)
            return original_schedule_at(sim, time, fire, callback, *args)
        Simulator.schedule_at = schedule_at

    @staticmethod
    def _rebind(original, wrapped) -> None:
        import sys
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    def reset(self) -> None:
        """Drop the spans recorded so far (call outside any span)."""
        spans = self.spans
        for field in (spans.name, spans.start, spans.end, spans.parent,
                      spans.event):
            del field[:]
        self._cursor[0] = -1

    def watch_validator(self, channels: Iterable) -> None:
        """Count pending events that deliver a response to the validator."""
        self.validator_channels = set(channels)
