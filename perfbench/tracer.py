"""Span tracer for the benchmark's traced run.

The tracer measures each layer of ``src/repro`` from outside: it replaces
public entry points (and the few timer callbacks the event loop calls
directly) with wrappers that time the call, and restores them on exit.
Nothing under ``src/`` is edited.

Spans are aggregated in memory as they close. A span's *self time* is
its duration minus the time covered by spans it called, so the self
times of every layer add up to the time spent inside root spans, and
``traced wall - sum(self times)`` is the time no layer claims
(``unattributed_s``). Coarse spans (operation, job, partition build,
epoch, finalize step) are also kept as ``(name, start, end, parent)``
records and written out at the end of the run.

Patches must be installed before the topology is built: components bind
some methods (link handlers, time-window port hooks) at construction.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Optional


def _count_cross_exports(counts: Counter, args: tuple, batches) -> None:
    """``ShardRuntime.run_epoch`` post-hook: count the packets bound for
    *other* partitions. Boundary links export to their own partition at
    one shard too, and those crossings never leave the process."""
    own = args[0].partition_id
    counts["shard.exported"] += sum(
        len(batch) for dest, batch in enumerate(batches) if dest != own
    )


#: (layer, module, attribute path, options). The module is the namespace
#: the caller looks the name up in: ``repro.harness.fabric`` imports
#: ``build_fattree`` and the spec helpers by name, so they are patched
#: there. Options: ``count`` renames the call counter, ``falsy`` counts
#: calls that returned ``False`` under that name, ``keep`` records each
#: call as a coarse span, ``post(counts, args, result)`` runs after it.
SPANS = [
    ("engine", "repro.sim.engine", "Simulator.run", {}),
    ("net", "repro.net.link", "Transmitter.offer", {}),
    ("net", "repro.net.link", "Transmitter._finish", {}),
    ("net", "repro.net.link", "Transmitter._resume", {}),
    ("net", "repro.net.link", "Link.deliver", {}),
    ("net", "repro.net.link", "Link.deliver_now", {}),
    ("net", "repro.net.link", "BoundaryLink.deliver", {}),
    ("net", "repro.net.switch", "Switch.receive", {"count": "net.packets"}),
    ("net", "repro.net.host", "Host.send", {}),
    ("net", "repro.net.host", "Host.receive", {"count": "net.packets"}),
    ("queues", "repro.queues.fifo", "PhysicalFifoQueue.enqueue",
     {"count": "queues.enqueues", "falsy": "queues.drops"}),
    ("queues", "repro.queues.fifo", "PhysicalFifoQueue.dequeue", {}),
    ("queues", "repro.queues.perflow", "PerFlowQueue.enqueue",
     {"count": "queues.enqueues", "falsy": "queues.drops"}),
    ("queues", "repro.queues.perflow", "PerFlowQueue.dequeue", {}),
    ("queues", "repro.queues.multiqueue", "MultiQueuePort.enqueue",
     {"count": "queues.enqueues", "falsy": "queues.drops"}),
    ("queues", "repro.queues.multiqueue", "MultiQueuePort.dequeue", {}),
    ("core", "repro.core.aq", "AugmentedQueue.process",
     {"count": "core.aq_packets", "falsy": "core.aq_drops"}),
    ("core", "repro.core.aq", "AugmentedQueue.set_rate", {"count": "core.grant_ops"}),
    ("core", "repro.core.agap", "AGapTracker.on_arrival", {}),
    ("core", "repro.core.pipeline", "AqPipeline.deploy", {"count": "core.grant_ops"}),
    ("core", "repro.core.pipeline", "AqPipeline.withdraw", {"count": "core.grant_ops"}),
    ("core", "repro.core.controller", "AqController.request", {}),
    ("core", "repro.core.controller", "AqController.withdraw", {}),
    ("ratelimit", "repro.ratelimit.token_bucket", "TokenBucketShaper.submit", {}),
    ("ratelimit", "repro.ratelimit.token_bucket", "TokenBucketShaper.set_rate", {}),
    ("ratelimit", "repro.ratelimit.token_bucket", "TokenBucketShaper._release", {}),
    ("ratelimit", "repro.ratelimit.elasticswitch", "ElasticSwitch._tick", {}),
    ("ratelimit", "repro.ratelimit.elasticswitch", "_PairShaper.submit", {}),
    ("ratelimit", "repro.ratelimit.dynamic", "DynamicVmAllocator._tick", {}),
    ("transport", "repro.transport.tcp", "TcpSender._start", {}),
    ("transport", "repro.transport.tcp", "TcpSender.on_packet", {}),
    ("transport", "repro.transport.tcp", "TcpSender._send_segment",
     {"count": "transport.segments"}),
    ("transport", "repro.transport.tcp", "TcpSender._on_rto", {}),
    ("transport", "repro.transport.tcp", "TcpReceiver.on_packet", {}),
    ("transport", "repro.transport.tcp", "TcpReceiver._send_ack", {}),
    ("transport", "repro.transport.udp", "UdpSender._send_next", {}),
    ("transport", "repro.transport.udp", "UdpSink.on_packet", {}),
    ("obs", "repro.obs.tracebus", "TraceBus.emit_fields", {"count": "obs.trace_events"}),
    ("obs", "repro.obs.tracebus", "TraceBus.emit", {"count": "obs.trace_events"}),
    ("obs", "repro.obs.timewin", "PortHandle.on_enqueue", {"count": "obs.timewin_records"}),
    ("obs", "repro.obs.timewin", "PortHandle.on_depth", {}),
    ("obs", "repro.obs.timewin", "PortHandle.on_drop", {}),
    ("obs", "repro.obs.timewin", "TimeWindowRecorder.on_enqueue",
     {"count": "obs.timewin_records"}),
    ("obs", "repro.obs.timewin", "TimeWindowRecorder.on_depth", {}),
    ("obs", "repro.obs.timewin", "TimeWindowRecorder.on_drop", {}),
    ("obs", "repro.sim.shard", "HeartbeatTracker.frame", {}),
    ("obs.finalize", "repro.obs.telemetry", "Telemetry.close", {"keep": True}),
    ("obs.finalize", "repro.obs.metrics", "MetricsRegistry.snapshot", {"keep": True}),
    ("obs.finalize", "repro.obs.timewin", "TimeWindowRecorder.dump_jsonl", {"keep": True}),
    ("obs.finalize", "repro.obs.timewin", "stitch_window_dumps", {"keep": True}),
    ("obs.finalize", "repro.obs.metrics", "merge_metrics_snapshots", {"keep": True}),
    ("obs.finalize", "repro.obs.runledger", "RunLedger.write_json", {"keep": True}),
    ("obs.finalize", "repro.obs.runledger", "RunLedger.finalize", {"keep": True}),
    ("shard", "repro.sim.shard", "ShardRuntime.run_epoch",
     {"keep": True, "post": _count_cross_exports}),
    ("shard", "repro.sim.shard", "ShardRuntime.apply_inbound", {}),
    ("shard", "repro.sim.shard", "ShardRuntime._capture", {}),
    ("shard", "repro.sim.shard", "ShardRuntime._inject", {}),
    ("shard.encode", "repro.sim.shard", "BoundaryBatch.append", {}),
    ("shard.decode", "repro.sim.shard", "BoundaryBatch.rows", {}),
    ("shard.decode", "repro.sim.shard", "packet_from_row", {}),
    ("topology", "repro.harness.fabric", "build_fattree", {"keep": True}),
    ("topology", "repro.topology.dumbbell", "Dumbbell.__init__", {"keep": True}),
    ("topology", "repro.topology.star", "Star.__init__", {"keep": True}),
    ("workloads", "repro.harness.fabric", "fabric_mixed_spec", {"keep": True}),
    ("workloads", "repro.harness.fabric", "fabric_flows", {"keep": True}),
    ("stats", "repro.harness.fabric", "fabric_fct_summary", {"keep": True}),
]

#: Calls recorded as coarse spans only: they take no part in self time.
COARSE = [
    ("partition", "repro.harness.fabric", "build_fabric_partition"),
]

#: Classes whose instances are collected so their end-of-run counters
#: can be read once the entry point returns.
INSTANCES = [
    ("repro.sim.engine", "Simulator"),
    ("repro.core.aq", "AugmentedQueue"),
    ("repro.transport.tcp", "TcpSender"),
    ("repro.transport.tcp", "TcpReceiver"),
]

#: Every layer that owns self time, with the metric its self time is
#: reported under.
LAYER_METRICS = {
    "engine": "engine.self_s",
    "net": "net.self_s",
    "queues": "queues.self_s",
    "core": "core.self_s",
    "ratelimit": "ratelimit.self_s",
    "transport": "transport.self_s",
    "cc": "cc.self_s",
    "obs": "obs.self_s",
    "obs.finalize": "obs.finalize_s",
    "shard": "shard.self_s",
    "shard.encode": "shard.encode_s",
    "shard.decode": "shard.decode_s",
    "topology": "topology.build_s",
    "workloads": "workloads.spec_s",
    "stats": "stats.self_s",
}

_CC_HOOKS = ("on_ack", "on_packet_loss", "on_rto")


def _resolve(module_name: str, path: str):
    """Return ``(owner, attribute name)`` for ``Class.attr`` or ``func``."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Self-time and call-count aggregation over patched entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYER_METRICS}
        self.counts: Counter = Counter()
        self.root_s = 0.0
        #: Coarse spans: ``[name, start, end, parent index or None]``.
        self.kept: List[list] = []
        self.instances: Dict[str, list] = {name: [] for _, name in INSTANCES}
        self._stack: List[float] = []
        self._kept_stack: List[int] = []
        self._patches: List[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open_kept(self, name: str, start: float) -> int:
        parent = self._kept_stack[-1] if self._kept_stack else None
        self.kept.append([name, start, None, parent])
        self._kept_stack.append(len(self.kept) - 1)
        return len(self.kept) - 1

    def _close_kept(self, index: int, end: float) -> None:
        self.kept[index][2] = end
        self._kept_stack.pop()

    @contextlib.contextmanager
    def coarse(self, name: str):
        """A coarse span around a block; it owns no self time."""
        index = self._open_kept(name, time.perf_counter())
        try:
            yield
        finally:
            self._close_kept(index, time.perf_counter())

    def span(
        self,
        layer: str,
        name: str,
        fn: Callable,
        count: Optional[str] = None,
        falsy: Optional[str] = None,
        keep: bool = False,
        post: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call is a span of ``layer``."""
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        count = count or name
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            kept = tracer._open_kept(name, clock()) if keep else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                self_s[layer] += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    tracer.root_s += duration
                if kept is not None:
                    tracer._close_kept(kept, clock())
            counts[count] += 1
            if falsy is not None and result is False:
                counts[falsy] += 1
            if post is not None:
                post(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _coarse_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.coarse(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every entry point in :data:`SPANS`, :data:`COARSE`, the
        congestion-control hooks, the instance registries and
        ``Event.cancel``."""
        for layer, module_name, path, options in SPANS:
            owner, attr = _resolve(module_name, path)
            self._set(owner, attr, self.span(
                layer, path, owner.__dict__[attr], **options
            ))
        for name, module_name, path in COARSE:
            owner, attr = _resolve(module_name, path)
            self._set(owner, attr, self._coarse_wrapper(name, owner.__dict__[attr]))
        self._install_cc()
        self._install_instances()
        self._install_cancel()

    def _install_cc(self) -> None:
        importlib.import_module("repro.cc.registry")
        base = importlib.import_module("repro.cc.base").CongestionControl
        pending = [base]
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for hook in _CC_HOOKS:
                fn = cls.__dict__.get(hook)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._set(cls, hook, self.span("cc", f"{cls.__name__}.{hook}", fn))

    def _install_instances(self) -> None:
        def collecting(init: Callable, registry: list) -> Callable:
            def __init__(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                registry.append(obj)

            return __init__

        for module_name, class_name in INSTANCES:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._set(cls, "__init__", collecting(
                cls.__dict__["__init__"], self.instances[class_name]
            ))

    def _install_cancel(self) -> None:
        event_cls = importlib.import_module("repro.sim.engine").Event
        cancel = event_cls.__dict__["cancel"]
        counts = self.counts

        def counted_cancel(event):
            if event.fn is not None and not event.cancelled:
                counts["engine.cancelled"] += 1
            cancel(event)

        self._set(event_cls, "cancel", counted_cancel)

    def restore(self) -> None:
        """Undo every patch, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- end-of-run counters ---------------------------------------------------

    def harvest(self) -> None:
        """Fold the collected instances' counters into :attr:`counts`
        and drop the instances, so finished scenarios can be freed."""
        counts = self.counts
        for sim in self.instances["Simulator"]:
            counts["engine.events"] += sim.events_processed
            counts["engine.compactions"] += sim.compactions
        for aq in self.instances["AugmentedQueue"]:
            counts["core.aq_marks"] += aq.stats.marked_packets
        for sender in self.instances["TcpSender"]:
            counts["transport.retransmits"] += sender.stats.retransmissions
            counts["transport.timeouts"] += sender.stats.timeouts
            counts["transport.sent_bytes"] += sender.stats.bytes_sent
        for receiver in self.instances["TcpReceiver"]:
            counts["transport.delivered_bytes"] += receiver.delivered_bytes
        for registry in self.instances.values():
            registry.clear()

    def layer_report(self, wall_s: float) -> dict:
        """Per-layer self times, ``unattributed_s``, and the closure
        residual ``|sum(self) - sum(root spans)|``."""
        report = {LAYER_METRICS[layer]: value for layer, value in self.self_s.items()}
        attributed = sum(self.self_s.values())
        report["unattributed_s"] = wall_s - attributed
        report["closure_residual_s"] = abs(attributed - self.root_s)
        return report
