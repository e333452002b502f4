"""Per-site event probes: the data path's one observation hook.

Every data-path event site (queue, host, link, switch, transmitter, AQ,
each end of a shard cut link) binds one probe at construction and makes
one call per event. The probe decides which consumer sees the event:

* the trace bus gets a :class:`~repro.obs.events.TraceEvent` only while
  a sink is attached, tested per event against the bus's live sink list:
  a sink attached after the build sees every later event, and a bus
  without sinks builds nothing;
* the flight recorder gets the packet's in-band hop records;
* the time-window recorder gets a queue's attribution via its port handle.

Build probes with the :class:`~repro.obs.telemetry.Telemetry` factories,
which return ``None`` when telemetry is disabled. The flight and window
recorders are bound at build time, so install them before the build.
"""

from __future__ import annotations

from typing import Optional

from .events import (
    EV_AGAP_UPDATE,
    EV_AQ_RATE,
    EV_DELIVER,
    EV_DEQUEUE,
    EV_DROP,
    EV_ECN_MARK,
    EV_ENQUEUE,
    EV_HOST_SEND,
    EV_RATE_LIMIT,
)


class Probe:
    """One node's fan-out to the enabled consumers. ``depth`` arguments
    are the node's backlog in bytes after the event, as a float."""

    __slots__ = ("node", "_bus", "_sinks", "_flight", "_window")

    def __init__(self, telemetry, node: str, window=None) -> None:
        self.node = node
        self._bus = telemetry.trace
        self._sinks = telemetry.trace._sinks  # live list, never copied
        self._flight = telemetry.flightrec
        self._window = window

    def enqueue(self, packet, now: float, depth: float) -> None:
        if self._sinks:
            self._bus.emit_fields(
                EV_ENQUEUE, now, self.node, packet.flow_id, None, packet.size, depth
            )
        fr = self._flight
        if fr is not None and packet.flight is not None:
            fr.queue_hop(packet, self.node, now, depth)
        # Same post-enqueue backlog the flight hop carries, so window
        # high-waters and flight ground truth agree exactly.
        if self._window is not None:
            self._window.on_enqueue(
                packet.flow_id, packet.aq_ingress_id, packet.size, depth, now
            )

    def dequeue(self, packet, now: float, depth: float) -> None:
        if self._sinks:
            self._bus.emit_fields(
                EV_DEQUEUE, now, self.node, packet.flow_id, None, packet.size, depth
            )
        fr = self._flight
        if fr is not None and packet.flight is not None:
            fr.queue_exit(packet, self.node, now)

    def drop(self, packet, now: float, reason: str, depth: Optional[float] = None) -> None:
        """The node discarded ``packet``; its flight ends here."""
        if self._sinks:
            self._bus.emit_fields(
                EV_DROP, now, self.node, packet.flow_id, None, packet.size, depth, reason
            )
        fr = self._flight
        if fr is not None and packet.flight is not None:
            fr.drop_hop(packet, self.node, now, reason, depth=depth)
            fr.complete(packet, now, "dropped", node=self.node)
        if self._window is not None:
            self._window.on_drop(packet.flow_id, packet.aq_ingress_id, packet.size, now)

    def mark(self, packet, now: float, depth: float) -> None:
        if self._sinks:
            self._bus.emit_fields(
                EV_ECN_MARK, now, self.node, packet.flow_id, None, packet.size, depth
            )

    def depth(self, depth: float, now: float) -> None:
        """A depth sample without flow attribution (a multi-queue port's
        summed backlog, which its per-class windows only bound)."""
        if self._window is not None:
            self._window.on_depth(depth, now)

    def send(self, packet, now: float) -> None:
        """A host injected ``packet``; its flight starts here."""
        if self._sinks:
            self._bus.emit_fields(
                EV_HOST_SEND, now, self.node, packet.flow_id, None, packet.size
            )
        if self._flight is not None:
            self._flight.start(packet, now)

    def deliver(self, packet, now: float) -> None:
        """A host received ``packet``. Its flight stays open so the
        endpoint can read the in-band header; the host seals it after."""
        if self._sinks:
            self._bus.emit_fields(
                EV_DELIVER, now, self.node, packet.flow_id, None, packet.size
            )

    def export(self, packet, now: float, link_id: int, seq: int) -> None:
        """``packet`` left this partition as departure ``seq`` of the cut
        link ``link_id`` this probe names. A synthetic ``deliver`` closes
        the local ledger, and the flight segment ends under the
        ``link_id:seq`` key that the boundary batch also carries."""
        if self._sinks:
            self._bus.emit_fields(
                EV_DELIVER, now, self.node, packet.flow_id, None, packet.size
            )
        fr = self._flight
        if fr is not None and packet.flight is not None:
            fr.end_segment(packet, now, self.node, f"{link_id}:{seq}")

    def import_(self, packet, now: float, link_id: int, seq: int) -> None:
        """``packet`` arrived as departure ``seq`` of cut link ``link_id``.
        A synthetic ``host_send`` opens the local ledger where the
        exporter's closed (same node name), and a new flight segment
        continues under the exporter's key."""
        if self._sinks:
            self._bus.emit_fields(
                EV_HOST_SEND, now, self.node, packet.flow_id, None, packet.size
            )
        if self._flight is not None:
            self._flight.begin_segment(packet, now, self.node, f"{link_id}:{seq}")

    def seal(self, packet, now: float, status: str = "dropped") -> None:
        """``packet``'s flight ends at this node (a pipeline hook that
        discarded it recorded why)."""
        fr = self._flight
        if fr is not None and packet.flight is not None:
            fr.complete(packet, now, status, node=self.node)


class AqProbe(Probe):
    """The probe of one Augmented Queue. Its trace events carry the AQ id
    instead of a node, its flight hops name the AQ's entity, and its
    window port is the virtual queue, with the A-Gap as the backlog."""

    __slots__ = ("_aq", "_announced")

    def __init__(self, telemetry, node: str, window, aq) -> None:
        super().__init__(telemetry, node, window)
        self._aq = aq
        #: Last drain rate put on the trace. Announcing it lazily lets the
        #: auditor's Theorem 3.2 replay know the rate for the next interval.
        self._announced: Optional[float] = None

    def rate(self, now: float, rate_bps: float) -> None:
        if self._sinks:
            self._bus.emit_fields(EV_AQ_RATE, now, None, None, self._aq.aq_id, None, rate_bps)
            self._announced = rate_bps

    def _gap_update(self, packet, now: float, gap: float) -> None:
        aq = self._aq
        if self._announced != aq.tracker.rate_bps:
            self._announced = aq.tracker.rate_bps
            self._bus.emit_fields(EV_AQ_RATE, now, None, None, aq.aq_id, None, self._announced)
        self._bus.emit_fields(
            EV_AGAP_UPDATE, now, None, packet.flow_id, aq.aq_id, packet.size, gap
        )

    def admit(self, packet, now: float, gap: float) -> None:
        """``packet`` passed the limit; ``gap`` is the post-arrival A-Gap."""
        if self._sinks:
            self._gap_update(packet, now, gap)
        if self._window is not None:
            self._window.on_enqueue(packet.flow_id, self._aq.aq_id, packet.size, gap, now)

    def limit_drop(self, packet, now: float, gap: float) -> None:
        """``packet`` pushed the A-Gap beyond the limit and was dropped."""
        aq = self._aq
        if self._sinks:
            self._gap_update(packet, now, gap)
            self._bus.emit_fields(
                EV_RATE_LIMIT, now, None, packet.flow_id, aq.aq_id, packet.size, gap,
                "rate_limit",
            )
        fr = self._flight
        if fr is not None and packet.flight is not None:
            fr.aq_hop(
                packet, aq.entity, now, aq.aq_id, aq.position,
                agap=gap, limit=aq.limit_bytes, ecn=False, dropped=True,
            )
        if self._window is not None:
            self._window.on_drop(packet.flow_id, aq.aq_id, packet.size, now)

    def mark(self, packet, now: float, depth: float) -> None:
        if self._sinks:
            self._bus.emit_fields(
                EV_ECN_MARK, now, None, packet.flow_id, self._aq.aq_id, packet.size, depth
            )
