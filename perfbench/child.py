"""Run one benchmark workload once, in this process, and report it.

Usage::

    python3 perfbench/child.py WORKLOAD_FILE --seed N [--trace]

Prints one JSON object: set-up and traffic-window wall times, kernel
events in the window, peak RSS, the run's digest and flow counts, and
with ``--trace`` the per-layer breakdown from :mod:`layers`.  The
parent (``run.py``) starts one fresh interpreter per run so that no
run inherits another's warm state.

Set-up (``setup_s``) runs from the call into
``repro.workload.run_workload`` to the start of the traffic window;
imports happen before it.  The traffic window (``run_s``) is the
``ZenPlatform.run`` call on the classic path and the
``ShardWorker.advance`` calls on the static-forwarding path.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import struct
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Controller events that change what ``TopologyDiscovery.graph``
#: returns (its switch set or its link set).
TOPOLOGY_EVENTS = frozenset({"SwitchEnter", "SwitchLeave",
                             "LinkDiscovered", "LinkVanished"})

#: Public counters read off live objects at the window edges.
DATAPATH_FIELDS = ("packets_received", "packets_to_controller",
                   "fast_path_hits", "fast_path_misses")

#: Simulated seconds between two host-speed probes in the window.
PROBE_EVERY_SIM_S = 0.05

_PROBE_FMT = struct.Struct("!HHHH")


class _ProbeHeader:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        self.a = a
        self.b = b
        self.c = c

    def encode(self, tail: bytes) -> bytes:
        return _PROBE_FMT.pack(self.a & 0xFFFF, self.b & 0xFFFF,
                               self.c & 0xFFFF, len(tail) & 0xFFFF) + tail


def probe_kernel(n: int = 150) -> int:
    """A fixed slice of pure-Python work that uses nothing under ``src/``.

    The same mix the simulator leans on (small slotted objects, struct
    packing, bytes, dicts, a heap), about 0.15 ms on an undisturbed
    host, so its time tracks how fast the host runs Python right now.
    """
    heap = []
    table = {}
    total = 0
    for i in range(n):
        header = _ProbeHeader(i, i * 7, i * 13)
        wire = header.encode(b"x" * (i & 63))
        table[i & 255] = wire
        heapq.heappush(heap, (i * 31 % 1009, i, header))
        if len(heap) > 32:
            total += heapq.heappop(heap)[1]
        total += len(wire)
    return total


def load_workload(path: str, seed=None):
    """The workload document, with its spec re-seeded when asked."""
    with open(path) as fh:
        doc = json.load(fh)
    if seed is not None:
        doc["spec"]["seed"] = seed
    return doc


class Window:
    """Times set-up and the traffic window around one run.

    With ``probe`` set, a kernel observer runs :func:`probe_kernel`
    every :data:`PROBE_EVERY_SIM_S` simulated seconds inside the window
    and records how long it took; that time is left out of ``run_s``.
    Observers never perturb the run (the digest pin checks it).
    """

    def __init__(self, clock=None, registry=None, probe=False) -> None:
        self.started = None
        self.setup_s = None
        self.run_s = 0.0
        self.events = 0
        self.probes = []
        self.layer_clock = clock
        self.registry = registry
        self.probe = probe
        self._observed = []

    def _tick(self) -> None:
        start = time.perf_counter()
        probe_kernel()
        elapsed = time.perf_counter() - start
        self.probes.append(elapsed)
        self.run_s -= elapsed

    def _open(self, sim) -> float:
        if self.probe and sim not in self._observed:
            self._observed.append(sim)
            sim.observe_every(PROBE_EVERY_SIM_S, self._tick)
        now = time.perf_counter()
        if self.setup_s is None:
            self.setup_s = now - self.started
            if self.registry is not None:
                self.registry.at_open = self.registry.snapshot()
        if self.layer_clock is not None:
            self.layer_clock.phase = "window"
        return now

    def _close(self, opened: float) -> None:
        self.run_s += time.perf_counter() - opened
        if self.layer_clock is not None:
            self.layer_clock.phase = "teardown"
        if self.registry is not None:
            self.registry.at_close = self.registry.snapshot()

    def install(self) -> None:
        from repro.core import ZenPlatform
        from repro.sim.shard.worker import ShardWorker

        window = self
        platform_run = ZenPlatform.run
        advance = ShardWorker.advance

        def timed_platform_run(platform, duration):
            before = platform.sim.events_processed
            opened = window._open(platform.sim)
            try:
                return platform_run(platform, duration)
            finally:
                window._close(opened)
                window.events += platform.sim.events_processed - before

        def timed_advance(worker, grant, messages, final):
            opened = window._open(worker.sim)
            try:
                result = advance(worker, grant, messages, final)
            finally:
                window._close(opened)
            window.events += result[2]
            return result

        ZenPlatform.run = timed_platform_run
        ShardWorker.advance = timed_advance


class Registry:
    """Live objects whose public counters are read at window edges."""

    def __init__(self) -> None:
        self.datapaths = []
        self.routers = []
        self.at_open = {}
        self.at_close = {}

    def install(self) -> None:
        from repro.apps.proactive_router import ProactiveRouter
        from repro.dataplane.switch import Datapath

        for cls, bucket in ((Datapath, self.datapaths),
                            (ProactiveRouter, self.routers)):
            init = cls.__init__

            def registering(obj, *args, _init=init, _bucket=bucket,
                            **kwargs):
                _init(obj, *args, **kwargs)
                _bucket.append(obj)

            cls.__init__ = registering

    def snapshot(self) -> dict:
        totals = {f: sum(getattr(dp, f) for dp in self.datapaths)
                  for f in DATAPATH_FIELDS}
        totals["rebuild_count"] = sum(r.rebuild_count for r in self.routers)
        return totals

    def delta(self, field: str) -> int:
        return self.at_close.get(field, 0) - self.at_open.get(field, 0)


def _hooks():
    def publish(clock, args, _result):
        if type(args[1]).__name__ in TOPOLOGY_EVENTS:
            clock.count("controller.topology_changes")

    return {
        "repro.sim.kernel:Simulator.run":
            lambda clock, _args, result: clock.count("sim.events", result),
        "repro.southbound.messages:encode_message":
            lambda clock, _args, result: clock.count("southbound.bytes",
                                                     len(result)),
        "repro.controller.core:Controller.publish": publish,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(clock, registry: Registry, window: Window) -> dict:
    """Per-layer self time, shares, calls and the layer counters."""
    from layers import LAYERS

    out = {}
    for layer in LAYERS:
        self_s = clock.layer_self(layer)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = _ratio(self_s, window.run_s)
        out[f"{layer}.calls"] = clock.layer_calls(layer)
        out[f"{layer}.setup_self_s"] = clock.layer_self(layer, "setup")
        out[f"{layer}.setup_calls"] = clock.layer_calls(layer, "setup")

    calls = clock.calls_of
    rx = calls("repro.dataplane.switch:Datapath.inject")
    hits = registry.delta("fast_path_hits")
    misses = registry.delta("fast_path_misses")
    graph_builds = calls("repro.controller.discovery:TopologyDiscovery.graph")
    graph_builds_all = sum(
        calls("repro.controller.discovery:TopologyDiscovery.graph", phase)
        for phase in clock.PHASES)
    out.update({
        "sim.events": clock.counter("sim.events"),
        "sim.scheduled": calls("repro.sim.kernel:Simulator.schedule_at"),
        "packet.encodes": calls("repro.packet.base:Packet.encode"),
        "packet.decodes": calls("repro.packet.base:Packet.decode"),
        "packet.copies": calls("repro.packet.base:Packet.copy"),
        "packet.len_calls": calls("repro.packet.base:Packet.__len__"),
        "packet.checksums": calls("repro.packet.checksum:internet_checksum"),
        "packet.encodes_per_rx": _ratio(
            calls("repro.packet.base:Packet.encode"), rx),
        "dataplane.rx": rx,
        "dataplane.fastpath_hit_ratio": _ratio(hits, hits + misses),
        "dataplane.punt_ratio": _ratio(
            registry.delta("packets_to_controller"),
            registry.delta("packets_received")),
        "dataplane.table_writes": (
            calls("repro.dataplane.flowtable:FlowTable.insert")
            + calls("repro.dataplane.flowtable:FlowTable.delete")),
        "dataplane.invalidations": calls(
            "repro.dataplane.switch:Datapath.invalidate_fast_path"),
        "netem.link_sends": calls("repro.netem.link:Link.send_from"),
        "southbound.messages": calls(
            "repro.southbound.channel:ChannelEndpoint.send"),
        "southbound.bytes": clock.counter("southbound.bytes"),
        "controller.packet_ins": calls(
            "repro.controller.hosttracker:HostTracker.on_packet_in"),
        "controller.graph_builds": graph_builds,
        "controller.graph_builds_per_change": _ratio(
            graph_builds_all,
            clock.counter("controller.topology_changes", None)),
        "apps.floods": calls(
            "repro.apps.proactive_router:ProactiveRouter.flood_ports"),
        "apps.route_rebuilds": registry.delta("rebuild_count"),
        "networkx.add_edge_calls": calls("networkx:Graph.add_edge"),
        "telemetry.spans": calls("repro.telemetry.trace:Tracer.record"),
        "telemetry.scrapes": calls(
            "repro.obs.scraper:MetricsScraper.scrape_now"),
    })
    return out


def run_once(path: str, seed=None, trace: bool = False) -> dict:
    """One run of the workload in ``path``; returns the report dict."""
    doc = load_workload(path, seed)
    # Import every layer up front: imports stay out of set-up time and
    # by-name imports exist before the wrappers rebind them.
    import repro.apps  # noqa: F401
    import repro.core  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.sim.shard  # noqa: F401
    from repro.workload import WorkloadSpec, run_workload

    spec = WorkloadSpec.from_dict(doc["spec"])
    static = doc["execution"] == "static"

    clock = registry = None
    if trace:
        from layers import LayerClock

        clock = LayerClock()
        clock.install(hooks=_hooks())
        registry = Registry()
        registry.install()
    window = Window(clock, registry, probe=not trace)
    window.install()

    window.started = time.perf_counter()
    if static:
        result = run_workload(spec, shards=1, shard_processes=False)
    else:
        result = run_workload(spec)
    if window.setup_s is None:
        raise RuntimeError("the run never opened a traffic window")

    report = {
        "workload": doc["name"],
        "seed": spec.seed,
        "setup_s": window.setup_s,
        "run_s": window.run_s,
        "probe_s": (sum(window.probes) / len(window.probes)
                    if window.probes else None),
        "events": window.events,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": result.digest,
        "flows_started": result.summary["flows_started"],
        "flows_completed": result.summary["flows_completed"],
    }
    if trace:
        report["layers"] = layer_metrics(clock, registry, window)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload_file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    report = run_once(args.workload_file, args.seed, args.trace)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
