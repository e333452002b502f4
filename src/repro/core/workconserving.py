"""Work-conservation extension (paper Section 6, first mechanism).

Strict AQ guarantees are intentionally non-work-conserving: an entity whose
allocation is 5 Gbps stays at 5 Gbps even when the fabric is idle. The
paper sketches a bypass: *"invoke AQ only when the physical queue starts to
build up; when the physical queue is empty, the switch can bypass AQ"*.

:class:`WorkConservingGate` wraps an :class:`~repro.core.pipeline.AqPipeline`
ingress position with that bypass: while the guarded physical queue's
backlog is at or below ``bypass_threshold_bytes``, packets skip AQ
processing entirely (no drops, no marks, no A-Gap accounting — the gap
keeps draining, so enforcement re-engages gently when backlog appears).

The threshold defaults to half the watched queue's limit. "Empty" cannot
be taken literally: a loss-based CC keeps some backlog by design even when
the entity is alone on the fabric, so a zero threshold would degenerate to
strict enforcement. Half the buffer separates "self-inflicted transient
backlog" from "sustained contention".
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..net.packet import NO_AQ, Packet
from ..net.switch import Switch
from ..obs.events import EV_GATE
from .pipeline import AqPipeline


class WorkConservingGate:
    """Bypasses ingress AQ enforcement while the watched queue is shallow."""

    def __init__(
        self,
        switch: Switch,
        pipeline: AqPipeline,
        watched_port: str,
        bypass_threshold_bytes: Optional[int] = None,
    ) -> None:
        port = switch.ports.get(watched_port)
        if port is None:
            raise ConfigurationError(
                f"switch {switch.name} has no port {watched_port!r}"
            )
        self.pipeline = pipeline
        self.queue = port.queue
        if bypass_threshold_bytes is None:
            bypass_threshold_bytes = self.queue.limit_bytes // 2
        if bypass_threshold_bytes < 0:
            raise ConfigurationError(
                f"bypass threshold must be >= 0, got {bypass_threshold_bytes}"
            )
        self.bypass_threshold_bytes = bypass_threshold_bytes
        self.bypassed_packets = 0
        self.enforced_packets = 0
        self._gate_name = f"{switch.name}.{watched_port}.wc-gate"
        self._last_decision: Optional[str] = None
        tele = switch.sim.telemetry
        self._tele = tele if tele is not None and tele.enabled else None
        if self._tele is not None:
            tele.metrics.add_collector(self._collect_metrics)
        # Replace the pipeline's ingress hook with the gated version.
        hooks = switch.ingress_hooks
        for index, hook in enumerate(hooks):
            if hook == pipeline._ingress_hook:
                hooks[index] = self._gated_ingress
                break
        else:
            raise ConfigurationError(
                "pipeline ingress hook not installed on this switch"
            )

    def _collect_metrics(self, registry) -> None:
        registry.counter("wc_bypassed_packets", gate=self._gate_name).set(
            self.bypassed_packets
        )
        registry.counter("wc_enforced_packets", gate=self._gate_name).set(
            self.enforced_packets
        )

    def _gated_ingress(self, packet: Packet, now: float) -> bool:
        if packet.aq_ingress_id == NO_AQ:
            return True
        backlog = self.queue.bytes_queued
        if backlog <= self.bypass_threshold_bytes:
            # Fabric is (effectively) idle: bypass AQ entirely, exactly as
            # Section 6 describes. The A-Gap keeps draining in the
            # background, so enforcement resumes from a clean slate.
            self.bypassed_packets += 1
            if self._tele is not None and self._last_decision != "bypass":
                self._emit_decision("bypass", now, backlog)
            return True
        self.enforced_packets += 1
        if self._tele is not None and self._last_decision != "enforce":
            self._emit_decision("enforce", now, backlog)
        return self.pipeline._ingress_hook(packet, now)

    def _emit_decision(self, decision: str, now: float, backlog: int) -> None:
        # Transition-only gate events: the auditor cross-checks the
        # work-conservation contract (enforce only above the threshold).
        self._last_decision = decision
        self._tele.trace.emit_fields(
            EV_GATE, now, node=self._gate_name,
            size=self.bypass_threshold_bytes, value=float(backlog),
            reason=decision,
        )
