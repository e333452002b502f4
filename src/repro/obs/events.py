"""Typed trace events — the vocabulary of the TraceBus.

Every event is a :class:`TraceEvent` with a small fixed field set so
sinks can serialize without per-type schemas. The ``type`` strings below
are the core vocabulary; components may emit additional types, but the
seven in :data:`CORE_EVENT_TYPES` are what the CI smoke test and
``repro telemetry summarize`` treat as first-class. The four in
:data:`AUDIT_EVENT_TYPES` exist so the conservation-law auditor
(:mod:`repro.obs.audit`) can close its books: they mark where packets
enter and leave the network and carry the side-band state (AQ drain
rate, gate decisions) the replayed invariants need.

Field semantics (``None`` means "not applicable", dropped from JSON):

========== ===================================================================
``type``   one of the ``EV_*`` constants (or a custom string)
``time``   simulation time in seconds
``node``   emitting component, e.g. ``"s0.p0"`` (switch port queue),
           ``"h1.nic"`` (host NIC queue), ``"tcp"`` (a transport)
``flow_id`` transport flow id carried by the packet, if any
``aq_id``  Augmented Queue id for AQ-originated events
``size``   packet size in bytes, where a packet is involved (for ``gate``
           events: the bypass threshold in bytes)
``value``  type-specific scalar: the A-Gap in bytes for ``agap_update``,
           the congestion window in bytes for ``cwnd_change``, the
           backlog in bytes for queue events, the drain rate in bit/s
           for ``aq_rate``
``reason`` short cause label on discard/decision events: ``"buffer"``
           (tail drop), ``"red"`` (probabilistic RED drop), ``"no_queue"``
           (per-flow queue table exhausted), ``"rate_limit"`` (AQ limit
           drop), ``"shaper"`` (token-bucket backlog cap),
           ``"bypass"``/``"enforce"`` on ``gate`` events, and the
           fault-attributed discard labels ``"link_down"``,
           ``"switch_restart"`` (queue drained by a restart), and
           ``"corrupt"`` (packet corrupted on a faulty link)
========== ===================================================================
"""

from __future__ import annotations

from typing import Optional

#: A packet was accepted into a physical queue.
EV_ENQUEUE = "enqueue"
#: A packet left a physical queue for transmission.
EV_DEQUEUE = "dequeue"
#: A packet was discarded by a physical queue (tail/RED drop).
EV_DROP = "drop"
#: A packet got its CE bit set (physical ECN or AQ virtual ECN).
EV_ECN_MARK = "ecn_mark"
#: An Augmented Queue recomputed its A-Gap on arrival.
EV_AGAP_UPDATE = "agap_update"
#: A rate limiter discarded a packet (AQ limit-drop or shaper backlog cap).
EV_RATE_LIMIT = "rate_limit"
#: A congestion-control algorithm changed its window.
EV_CWND_CHANGE = "cwnd_change"
#: A host handed a packet to its NIC — the packet is now "injected".
EV_HOST_SEND = "host_send"
#: A host received a packet off the wire — the packet is now "delivered".
EV_DELIVER = "deliver"
#: An Augmented Queue's drain rate was (re)announced; ``value`` is bit/s.
EV_AQ_RATE = "aq_rate"
#: The work-conserving gate flipped between bypass and enforce.
EV_GATE = "gate"
#: An injected fault fired or a recovery step ran (``reason`` names the
#: fault kind/step, ``node`` the affected component, ``aq_id`` the wiped
#: or redeployed Augmented Queue where applicable).
EV_FAULT = "fault"

#: The canonical event vocabulary, in emission-likelihood order.
CORE_EVENT_TYPES = (
    EV_ENQUEUE,
    EV_DEQUEUE,
    EV_DROP,
    EV_ECN_MARK,
    EV_AGAP_UPDATE,
    EV_RATE_LIMIT,
    EV_CWND_CHANGE,
)

#: Auxiliary events emitted for the conservation-law auditor and the
#: flight recorder; always on when telemetry is enabled, but not part of
#: the core seven the smoke test requires in every trace.
AUDIT_EVENT_TYPES = (
    EV_HOST_SEND,
    EV_DELIVER,
    EV_AQ_RATE,
    EV_GATE,
)

#: Fault-injection events; only present in traces of runs driven by a
#: :class:`~repro.faults.FaultPlan`. The auditor uses them to attribute
#: fault-window losses and to reset per-AQ recurrence replay after a
#: switch restart wipes register state.
FAULT_EVENT_TYPES = (EV_FAULT,)

#: Every event type the simulator itself emits.
ALL_EVENT_TYPES = CORE_EVENT_TYPES + AUDIT_EVENT_TYPES + FAULT_EVENT_TYPES

_FIELDS = ("type", "time", "node", "flow_id", "aq_id", "size", "value", "reason")


class TraceEvent:
    """One structured observation; cheap to construct, trivially JSON-able."""

    __slots__ = _FIELDS

    def __init__(
        self,
        type: str,
        time: float,
        node: Optional[str] = None,
        flow_id: Optional[int] = None,
        aq_id: Optional[int] = None,
        size: Optional[int] = None,
        value: Optional[float] = None,
        reason: Optional[str] = None,
    ) -> None:
        self.type = type
        self.time = time
        self.node = node
        self.flow_id = flow_id
        self.aq_id = aq_id
        self.size = size
        self.value = value
        self.reason = reason

    def to_dict(self) -> dict:
        """Compact dict: ``None`` fields are omitted entirely."""
        out = {"type": self.type, "time": self.time}
        for field in _FIELDS[2:]:
            val = getattr(self, field)
            if val is not None:
                out[field] = val
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(
            type=data["type"],
            time=data["time"],
            node=data.get("node"),
            flow_id=data.get("flow_id"),
            aq_id=data.get("aq_id"),
            size=data.get("size"),
            value=data.get("value"),
            reason=data.get("reason"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{f}={getattr(self, f)!r}"
            for f in _FIELDS
            if getattr(self, f) is not None
        )
        return f"TraceEvent({parts})"
