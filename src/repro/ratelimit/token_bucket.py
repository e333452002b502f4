"""Token-bucket shaper — the PRL (pre-determined rate limiter) baseline.

Models an HTB-style egress limiter at the end host: packets are released
at the configured rate; bursts up to ``bucket_bytes`` pass through
unshaped; excess is buffered (and dropped beyond the backlog cap). The
configuration is fixed for the lifetime of the entity, which is exactly
the property the paper's Figures 6-7 and Table 3 exercise: a fixed split
cannot track an arbitrary, shifting traffic pattern.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from ..errors import ConfigurationError
from ..net.packet import ACK, Packet
from ..obs.events import EV_RATE_LIMIT
from ..units import MTU_BYTES

#: Tolerance for float round-off in token accounting. Without it, a
#: deficit of ~1e-10 bytes schedules a ~1e-18 s release delay, which is
#: below the double-precision ulp of the clock — time freezes and the
#: release event re-fires forever.
_EPSILON_BYTES = 1e-6
#: Floor on the release delay (50 ns ~= a few bytes at 1 Gbps) so release
#: events always advance simulation time.
_MIN_RELEASE_DELAY = 50e-9


class TokenBucketShaper:
    """Shapes a packet stream to ``rate_bps`` with bounded burst."""

    def __init__(
        self,
        sim,
        rate_bps: float,
        forward: Callable[[Packet], None],
        bucket_bytes: int = 10 * MTU_BYTES,
        backlog_limit_bytes: int = 2 * 1024 * 1024,
        shape_acks: bool = False,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"shaper rate must be positive, got {rate_bps}")
        if bucket_bytes < MTU_BYTES:
            raise ConfigurationError(
                f"bucket must hold at least one MTU, got {bucket_bytes}"
            )
        self.sim = sim
        self.rate_bps = rate_bps
        self.forward = forward
        self.bucket_bytes = bucket_bytes
        self.backlog_limit_bytes = backlog_limit_bytes
        self.shape_acks = shape_acks
        self.submitted_bytes = 0
        self._tokens = float(bucket_bytes)
        self._last_refill = sim.now
        self._backlog: Deque[Packet] = deque()
        self._backlog_bytes = 0
        self._release_event = None
        self.shaped_packets = 0
        self.dropped_packets = 0
        tele = sim.telemetry
        self._tele = tele if tele is not None and tele.enabled else None
        if self._tele is not None:
            self._tele.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        labels = {"shaper": f"tb@{id(self):x}"}
        registry.counter("shaper_shaped_packets", **labels).set(self.shaped_packets)
        registry.counter("shaper_dropped_packets", **labels).set(
            self.dropped_packets
        )
        registry.gauge("shaper_rate_bps", **labels).set(self.rate_bps)
        registry.gauge("shaper_backlog_bytes", **labels).set(self._backlog_bytes)

    # -- configuration ------------------------------------------------------------

    def set_rate(self, rate_bps: float) -> None:
        """Retarget the shaper (used by the DRL baseline's adjuster)."""
        if rate_bps <= 0:
            raise ConfigurationError(f"shaper rate must be positive, got {rate_bps}")
        self._refill()
        self.rate_bps = rate_bps
        # A pending release was computed at the old rate; redo it.
        if self._release_event is not None:
            self._release_event.cancel()
            self._release_event = None
            self._schedule_release()

    # -- shaping -------------------------------------------------------------------

    def submit(self, packet: Packet) -> None:
        """Entry point: forward now if tokens allow, else buffer.

        Pure ACKs bypass shaping by default (like real deployments, which
        would otherwise strangle the reverse path's feedback loop).
        """
        if packet.kind == ACK and not self.shape_acks:
            self.forward(packet)
            return
        self.submitted_bytes += packet.size
        self._refill()
        if not self._backlog and self._tokens + _EPSILON_BYTES >= packet.size:
            self._tokens -= packet.size
            self.forward(packet)
            return
        if self._backlog_bytes + packet.size > self.backlog_limit_bytes:
            self.dropped_packets += 1
            tele = self._tele
            if tele is not None:
                # No aq_id: the auditor uses its absence to tell shaper
                # discards (pre-injection) from in-fabric AQ limit drops.
                tele.trace.emit_fields(
                    EV_RATE_LIMIT, self.sim.now, node="shaper",
                    flow_id=packet.flow_id, size=packet.size,
                    value=float(self._backlog_bytes), reason="shaper",
                )
            return
        self._backlog.append(packet)
        self._backlog_bytes += packet.size
        self.shaped_packets += 1
        self._schedule_release()

    @property
    def backlog_bytes(self) -> int:
        return self._backlog_bytes

    def _refill(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                float(self.bucket_bytes),
                self._tokens + elapsed * self.rate_bps / 8.0,
            )
            self._last_refill = now

    def _schedule_release(self) -> None:
        if self._release_event is not None or not self._backlog:
            return
        head = self._backlog[0]
        deficit = head.size - self._tokens
        if deficit <= _EPSILON_BYTES:
            delay = 0.0
        else:
            delay = max(deficit * 8.0 / self.rate_bps, _MIN_RELEASE_DELAY)
        self._release_event = self.sim.schedule(delay, self._release)

    def _release(self) -> None:
        self._release_event = None
        self._refill()
        while self._backlog and self._tokens + _EPSILON_BYTES >= self._backlog[0].size:
            packet = self._backlog.popleft()
            self._backlog_bytes -= packet.size
            self._tokens -= packet.size
            self.forward(packet)
        self._schedule_release()
