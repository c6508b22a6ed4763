"""Layer-attributed wall time, measured from outside the program.

:class:`LayerClock` wraps the public functions of each layer of the
simulator (the :data:`LAYERS` map) and rolls wall time up into
per-layer *self* time: a span's duration minus the part of it that
wrapped calls nested inside it cover.  Nothing under ``src/`` is
changed; wrappers are installed on the classes and modules at run
time, before the platform is built.

Rules the rollup follows:

* Every call is its own span, recursive ones included.  A span's
  self time excludes its direct children, so nested and recursive
  spans never count the same interval twice: the self times of a
  call tree add up to the outermost span's duration.
* Self time is booked to the phase (``setup``, ``window`` or
  ``teardown``) current when the span ends; the phase switches only
  at calls no wrapped span encloses, so no span straddles two phases.
* Time inside ``Simulator.run`` that no nested wrapped call covers is
  ``sim`` self time: event dispatch plus every unwrapped callback.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LayerClock", "Target", "resolve"]

#: Layer -> public callables timed for it, as ``module:qualname``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "repro.sim.kernel:Simulator.run",
        "repro.sim.kernel:Simulator.schedule",
        "repro.sim.kernel:Simulator.schedule_at",
    ),
    "packet": (
        "repro.packet.base:Packet.encode",
        "repro.packet.base:Packet.decode",
        "repro.packet.base:Packet.copy",
        "repro.packet.base:Packet.__len__",
        "repro.packet.checksum:internet_checksum",
    ),
    "dataplane": (
        "repro.dataplane.switch:Datapath.inject",
        "repro.dataplane.switch:Datapath.send_packet_out",
        "repro.dataplane.switch:Datapath.install_flow",
        "repro.dataplane.switch:Datapath.remove_flows",
        "repro.dataplane.switch:Datapath.invalidate_fast_path",
        "repro.dataplane.flowtable:FlowTable.lookup",
        "repro.dataplane.flowtable:FlowTable.insert",
        "repro.dataplane.flowtable:FlowTable.delete",
    ),
    "netem": (
        "repro.netem.link:Link.send_from",
        "repro.netem.host:Host.send_frame",
        "repro.netem.host:Host.receive",
    ),
    "southbound": (
        "repro.southbound.messages:encode_message",
        "repro.southbound.messages:decode_message",
        "repro.southbound.channel:ChannelEndpoint.send",
        "repro.southbound.channel:ChannelEndpoint.request",
    ),
    "controller": (
        "repro.controller.core:Controller.publish",
        "repro.controller.discovery:TopologyDiscovery.graph",
        "repro.controller.discovery:TopologyDiscovery.observe_link",
        "repro.controller.hosttracker:HostTracker.on_packet_in",
        "repro.graphutil:canonical_tree_edges",
    ),
    "apps": (
        "repro.apps.proactive_router:ProactiveRouter.on_packet_in",
        "repro.apps.proactive_router:ProactiveRouter.flood_ports",
        "repro.apps.proactive_router:ProactiveRouter.schedule_rebuild",
        "repro.apps.arp_proxy:ArpProxy.on_packet_in",
    ),
    "networkx": (
        "networkx:Graph.add_edge",
        "networkx:Graph.add_node",
        "networkx:single_source_shortest_path",
    ),
    "telemetry": (
        "repro.telemetry.trace:Tracer.record",
        "repro.obs.scraper:MetricsScraper.scrape_now",
        "repro.obs:ObsPlane.finish",
    ),
    "workload": (
        "repro.workload.generators:arm_traffic",
    ),
    "shard": (
        "repro.sim.shard.partition:partition_topology",
        "repro.sim.shard.program:build_routes",
        "repro.sim.shard.program:build_program",
    ),
}

#: Optional ``hook(clock, args, result)`` run after a counted call.
Hook = Callable[["LayerClock", tuple, object], None]


class Target:
    """One resolved callable: where it lives and how to replace it."""

    __slots__ = ("owner", "attr", "raw", "func", "module")

    def __init__(self, owner, attr: str, raw, func, module) -> None:
        self.owner = owner    # class or module holding ``attr``
        self.attr = attr
        self.raw = raw        # as stored (classmethod/staticmethod/...)
        self.func = func      # the plain function inside ``raw``
        self.module = module  # defining module (for by-name rebinding)


def resolve(spec: str) -> Target:
    """Find ``module:qualname`` (``Class.method`` or ``function``)."""
    module_name, qualname = spec.split(":")
    __import__(module_name)
    module = sys.modules[module_name]
    parts = qualname.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        else:
            raise AttributeError(f"{spec}: no attribute {attr!r}")
    else:
        raw = getattr(owner, attr)
    func = raw.__func__ if isinstance(raw, (classmethod,
                                            staticmethod)) else raw
    if not callable(func):
        raise TypeError(f"{spec} is not callable")
    return Target(owner, attr, raw, func, module)


class LayerClock:
    """Per-layer self time and per-callable call counts, by phase."""

    PHASES = ("setup", "window", "teardown")

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.phase = "setup"
        #: (phase, layer) -> self seconds
        self.self_s: Dict[Tuple[str, str], float] = {}
        #: (phase, ``module:qualname``) -> calls
        self.calls: Dict[Tuple[str, str], int] = {}
        #: (phase, counter name) -> value, fed by hooks
        self.counters: Dict[Tuple[str, str], float] = {}
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, layer: str, key: str, fn: Callable,
             hook: Optional[Hook] = None) -> Callable:
        """A timed stand-in for ``fn`` that books to ``layer``."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def timed(*args, **kwargs):
            slot = (self.phase, key)
            calls[slot] = calls.get(slot, 0) + 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                booked = (self.phase, layer)
                self_s[booked] = self_s.get(booked, 0.0) + elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return functools.update_wrapper(timed, fn)

    def count(self, name: str, amount: float = 1) -> None:
        slot = (self.phase, name)
        self.counters[slot] = self.counters.get(slot, 0) + amount

    def install(self, layers: Dict[str, Tuple[str, ...]] = LAYERS,
                hooks: Optional[Dict[str, Hook]] = None) -> None:
        """Replace every callable in ``layers`` by its timed wrapper.

        Functions imported by name elsewhere (``from m import f``) are
        rebound in every loaded ``repro`` module that holds them, so
        the wrapper sits where the call looks the name up.
        """
        hooks = hooks or {}
        for layer, specs in layers.items():
            for spec in specs:
                target = resolve(spec)
                timed = self.wrap(layer, spec, target.func, hooks.get(spec))
                if isinstance(target.raw, classmethod):
                    replacement = classmethod(timed)
                elif isinstance(target.raw, staticmethod):
                    replacement = staticmethod(timed)
                else:
                    replacement = timed
                if isinstance(target.owner, type):
                    self._replace(target.owner, target.attr, replacement)
                    continue
                for module in list(sys.modules.values()):
                    if module is target.module or getattr(
                            module, "__name__", "").startswith("repro"):
                        for name, value in list(vars(module).items()):
                            if value is target.func:
                                self._replace(module, name, replacement)

    def _replace(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner)[name] if had else None))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every replaced attribute back (tests)."""
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is None:
                delattr(owner, name)
            else:
                setattr(owner, name, old)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def layer_self(self, layer: str, phase: str = "window") -> float:
        return self.self_s.get((phase, layer), 0.0)

    def layer_calls(self, layer: str, phase: str = "window") -> int:
        return sum(self.calls.get((phase, spec), 0)
                   for spec in LAYERS[layer])

    def calls_of(self, spec: str, phase: str = "window") -> int:
        return self.calls.get((phase, spec), 0)

    def counter(self, name: str, phase: Optional[str] = "window") -> float:
        if phase is None:
            return sum(self.counters.get((p, name), 0)
                       for p in self.PHASES)
        return self.counters.get((phase, name), 0)
