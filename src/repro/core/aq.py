"""The Augmented Queue itself: A-Gap state + the traffic-control framework.

One :class:`AugmentedQueue` is the deployed form of one granted AQ request
(the right-hand column of Table 1): an ID, an allocated rate, a limit, the
A-Gap registers, and the CC feedback policy. :meth:`process` implements
Algorithm 2 (``Generate_NFB``) on top of Algorithm 1's streaming A-Gap.
"""

from __future__ import annotations

from typing import Optional

from ..cc.base import DELAY_BASED, ECN_BASED
from ..errors import ConfigurationError
from ..net.packet import Packet
from ..obs.events import EV_AGAP_UPDATE, EV_AQ_RATE, EV_ECN_MARK, EV_RATE_LIMIT
from .agap import AGapTracker
from .feedback import FeedbackPolicy, drop_policy


class AqStats:
    """Per-AQ counters (used by meters and the weighted allocator)."""

    __slots__ = (
        "arrived_packets",
        "arrived_bytes",
        "dropped_packets",
        "dropped_bytes",
        "marked_packets",
        "max_gap",
        "delay_samples",
    )

    def __init__(self) -> None:
        self.arrived_packets = 0
        self.arrived_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.marked_packets = 0
        self.max_gap = 0.0
        #: Per-packet virtual queuing delays, populated when the owning AQ
        #: was created with ``record_delays=True`` (Table 4's comparison).
        self.delay_samples: list = []

    @property
    def accepted_bytes(self) -> int:
        return self.arrived_bytes - self.dropped_bytes


class AugmentedQueue:
    """A deployed AQ (Table 1 configuration + runtime state).

    Parameters
    ----------
    aq_id:
        The unique ID tenants tag into packet headers (4 bytes on the wire).
    rate_bps:
        The allocated rate ``R``.
    limit_bytes:
        Maximum A-Gap; packets pushing the gap beyond it are dropped
        (rate limiting, Section 3.2.2). Plays the role a buffer limit plays
        for a physical queue.
    policy:
        The CC feedback policy (drop / ECN / delay), see
        :mod:`repro.core.feedback`.
    entity / telemetry:
        Observability identity and handle. With enabled telemetry the AQ
        emits ``agap_update`` / ``rate_limit`` / ``ecn_mark`` trace
        events and publishes its counters into the metrics registry.
    """

    def __init__(
        self,
        aq_id: int,
        rate_bps: float,
        limit_bytes: float,
        policy: Optional[FeedbackPolicy] = None,
        start_time: float = 0.0,
        record_delays: bool = False,
        entity: str = "",
        telemetry=None,
    ) -> None:
        if aq_id <= 0:
            raise ConfigurationError(f"AQ id must be positive, got {aq_id}")
        if limit_bytes <= 0:
            raise ConfigurationError(f"AQ limit must be positive, got {limit_bytes}")
        self.aq_id = aq_id
        self.limit_bytes = limit_bytes
        self.policy = policy or drop_policy()
        self.tracker = AGapTracker(rate_bps, start_time=start_time)
        self.stats = AqStats()
        self.record_delays = record_delays
        self.entity = entity
        #: Deployment position ("ingress"/"egress"), stamped by
        #: :meth:`repro.core.pipeline.AqPipeline.deploy` for drop attribution.
        self.position = ""
        self._tele = telemetry if telemetry is not None and telemetry.enabled else None
        self._flight = self._tele.flightrec if self._tele is not None else None
        tw = self._tele.timewin if self._tele is not None else None
        #: Window-recorder node label: the virtual queue is attributed like
        #: a port, with the A-Gap standing in for physical backlog. The
        #: handle binds the label once so the admit path skips the lookup.
        self._timewin_node = f"aq{aq_id}" if not entity else f"aq{aq_id}:{entity}"
        self._timewin = (
            tw.port_handle(self._timewin_node) if tw is not None else None
        )
        #: Last rate announced on the trace (``aq_rate`` events let the run
        #: auditor replay the Theorem 3.2 recurrence with the right R).
        self._traced_rate: Optional[float] = None
        if self._tele is not None:
            self._tele.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        stats = self.stats
        labels = {"aq_id": self.aq_id}
        if self.entity:
            labels["entity"] = self.entity
        registry.counter("aq_arrived_packets", **labels).set(stats.arrived_packets)
        registry.counter("aq_arrived_bytes", **labels).set(stats.arrived_bytes)
        registry.counter("aq_dropped_packets", **labels).set(stats.dropped_packets)
        registry.counter("aq_marked_packets", **labels).set(stats.marked_packets)
        registry.gauge("aq_rate_bps", **labels).set(self.rate_bps)
        registry.gauge("aq_gap_bytes", **labels).set(self.gap_bytes)
        registry.gauge("aq_max_gap_bytes", **labels).set(stats.max_gap)
        if stats.delay_samples:
            hist = registry.histogram("aq_virtual_delay_s", **labels)
            hist.observe_many(stats.delay_samples[hist.count :])

    # -- configuration ------------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        return self.tracker.rate_bps

    def set_rate(self, now: float, rate_bps: float) -> None:
        """Weighted-mode rate update from the controller."""
        self.tracker.set_rate(now, rate_bps)
        tele = self._tele
        if tele is not None and tele.enabled:
            tele.trace.emit_fields(EV_AQ_RATE, now, aq_id=self.aq_id, value=rate_bps)
            self._traced_rate = rate_bps

    @property
    def gap_bytes(self) -> float:
        return self.tracker.gap

    def current_gap(self, now: float) -> float:
        return self.tracker.peek(now)

    # -- data path (Algorithms 1 + 2) ------------------------------------------------

    def process(self, packet: Packet, now: float) -> bool:
        """Run the packet through this AQ. Returns ``False`` if dropped.

        Mirrors Algorithm 2: update the A-Gap for the arrival; drop beyond
        the limit (removing the packet's contribution); otherwise generate
        the entity's CC feedback.
        """
        stats = self.stats
        stats.arrived_packets += 1
        stats.arrived_bytes += packet.size
        gap = self.tracker.on_arrival(now, packet.size)
        if gap > stats.max_gap:
            stats.max_gap = gap
        tele = self._tele
        trace = tele.trace if tele is not None and tele.enabled else None
        if trace is not None:
            if self._traced_rate != self.tracker.rate_bps:
                # Announce R lazily so the auditor's Theorem 3.2 replay
                # always knows the drain rate in force for the next interval.
                self._traced_rate = self.tracker.rate_bps
                trace.emit_fields(
                    EV_AQ_RATE, now, aq_id=self.aq_id, value=self._traced_rate
                )
            trace.emit_fields(
                EV_AGAP_UPDATE, now, aq_id=self.aq_id,
                flow_id=packet.flow_id, size=packet.size, value=gap,
            )
        if gap > self.limit_bytes:
            self.tracker.undo_arrival(packet.size)
            stats.dropped_packets += 1
            stats.dropped_bytes += packet.size
            if trace is not None:
                trace.emit_fields(
                    EV_RATE_LIMIT, now, aq_id=self.aq_id,
                    flow_id=packet.flow_id, size=packet.size, value=gap,
                    reason="rate_limit",
                )
            fr = self._flight
            if fr is not None and packet.flight is not None:
                fr.aq_hop(
                    packet, self.entity, now, self.aq_id, self.position,
                    agap=gap, limit=self.limit_bytes, ecn=False, dropped=True,
                )
            tw = self._timewin
            if tw is not None:
                tw.on_drop(packet.flow_id, self.aq_id, packet.size, now)
            return False
        tw = self._timewin
        if tw is not None:
            # Who is building this *virtual* queue: the accepted packet's
            # flow, with the post-arrival A-Gap as the depth sample.
            tw.on_enqueue(packet.flow_id, self.aq_id, packet.size, gap, now)
        if self.record_delays:
            stats.delay_samples.append(self.tracker.virtual_queuing_delay())
        kind = self.policy.kind
        if kind == ECN_BASED:
            threshold = self.policy.ecn_threshold_bytes
            if threshold is not None and gap > threshold and packet.ect:
                packet.mark_ce()
                stats.marked_packets += 1
                if trace is not None:
                    trace.emit_fields(
                        EV_ECN_MARK, now, aq_id=self.aq_id,
                        flow_id=packet.flow_id, size=packet.size, value=gap,
                    )
        elif kind == DELAY_BASED:
            packet.virtual_delay += self.tracker.virtual_queuing_delay()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AQ id={self.aq_id} rate={self.rate_bps:.3g}bps "
            f"gap={self.gap_bytes:.0f}B limit={self.limit_bytes:.0f}B "
            f"policy={self.policy.kind}>"
        )
