"""Constant-bit-rate UDP sender and counting sink.

The paper uses UDP entities as the worst-case aggressor: they blast at the
line rate with no feedback loop, starving TCP in shared physical queues
(Figure 9a) unless an AQ rate-limits them in the fabric (Figure 9b).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import TransportError
from ..net.host import Host
from ..net.packet import Packet, make_udp
from ..units import MTU_BYTES, transmission_time


class UdpSender:
    """Sends fixed-size datagrams at a fixed application rate."""

    def __init__(
        self,
        sim,
        host: Host,
        dst: str,
        flow_id: int,
        rate_bps: float,
        packet_size: int = MTU_BYTES,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        total_bytes: Optional[int] = None,
        aq_ingress_id: int = 0,
        aq_egress_id: int = 0,
    ) -> None:
        if rate_bps <= 0:
            raise TransportError(f"UDP rate must be positive, got {rate_bps}")
        self.sim = sim
        self.host = host
        self.dst = dst
        self.flow_id = flow_id
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.stop_time = stop_time
        self.total_bytes = total_bytes
        self.aq_ingress_id = aq_ingress_id
        self.aq_egress_id = aq_egress_id
        self.bytes_sent = 0
        self.packets_sent = 0
        self.start_time = start_time
        self._interval = transmission_time(packet_size, rate_bps)
        self._stopped = False
        tele = sim.telemetry
        if tele is not None and tele.enabled:
            tele.metrics.add_collector(self._collect_metrics)
        self._pending = sim.schedule_at(start_time, self._send_next)

    def _collect_metrics(self, registry) -> None:
        labels = {"flow_id": self.flow_id, "transport": "udp"}
        registry.counter("udp_packets_sent", **labels).set(self.packets_sent)
        registry.counter("udp_bytes_sent", **labels).set(self.bytes_sent)
        registry.gauge("udp_rate_bps", **labels).set(self.rate_bps)

    def stop(self) -> None:
        self._stopped = True

    def _send_next(self) -> None:
        now = self.sim.now
        self._pending = None
        if self._stopped:
            return
        if self.stop_time is not None and now >= self.stop_time:
            return
        if self.total_bytes is not None and self.bytes_sent >= self.total_bytes:
            return
        packet = make_udp(self.host.name, self.dst, self.flow_id, self.packet_size)
        packet.aq_ingress_id = self.aq_ingress_id
        packet.aq_egress_id = self.aq_egress_id
        packet.sent_time = now
        self.host.send(packet)
        self.bytes_sent += self.packet_size
        self.packets_sent += 1
        self._pending = self.sim.schedule(self._interval, self._send_next)


class UdpSink:
    """Counts delivered UDP bytes; the receiving endpoint of a UDP flow."""

    def __init__(
        self,
        host: Host,
        flow_id: int,
        on_deliver: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        self.flow_id = flow_id
        self.delivered_bytes = 0
        self.delivered_packets = 0
        self.on_deliver = on_deliver
        host.register_flow(flow_id, self)

    def on_packet(self, packet: Packet, now: float) -> None:
        self.delivered_bytes += packet.size
        self.delivered_packets += 1
        if self.on_deliver is not None:
            self.on_deliver(packet.size, now)


class UdpFlow:
    """Sender + sink pair; mirrors :class:`~repro.transport.tcp.TcpConnection`."""

    def __init__(
        self,
        network,
        src: str,
        dst: str,
        rate_bps: float,
        packet_size: int = MTU_BYTES,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        total_bytes: Optional[int] = None,
        flow_id: Optional[int] = None,
        aq_ingress_id: int = 0,
        aq_egress_id: int = 0,
        on_deliver: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        self.flow_id = network.allocate_flow_id() if flow_id is None else flow_id
        self.sink = UdpSink(network.hosts[dst], self.flow_id, on_deliver=on_deliver)
        self.sender = UdpSender(
            network.sim,
            network.hosts[src],
            dst,
            self.flow_id,
            rate_bps,
            packet_size=packet_size,
            start_time=start_time,
            stop_time=stop_time,
            total_bytes=total_bytes,
            aq_ingress_id=aq_ingress_id,
            aq_egress_id=aq_egress_id,
        )
