"""Single-threaded deterministic network: virtual clock, NATs, proxy, clients.

Everything runs off one event queue (ties broken by insertion order).  TCP
signaling is modeled as an ordered reliable message channel whose NAT
binding is created at connect time; UDP signaling and all media are
per-datagram, so every hop consults the NAT filter and can be silently
dropped.  No real time or real sockets are involved.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from .media_controller import RelaySend
from .nat import TCP, UDP, NatBox
from .net import TransportAddress
from .proxy import SipProxy
from .rtp import RtpParseError, build_rtp, parse_rtp
from .sdp import MediaDesc, SdpSession, parse_sdp, serialize_sdp
from .sip_message import (
    Method,
    SipMessage,
    SipParseError,
    ViaHeader,
    build_response,
    parse_message,
    serialize_message,
    uri_of,
)

LATENCY = 0.001  # one-way hop delay, virtual seconds


@dataclass
class LogEntry:
    time: float
    actor: str
    event: str
    detail: str

    def to_dict(self) -> dict:
        return {"time": self.time, "actor": self.actor, "event": self.event, "detail": self.detail}


def describe(msg: SipMessage) -> str:
    if msg.is_request:
        return f"{msg.method.value} {msg.request_uri} ({msg.call_id})"
    return f"{msg.status_code} {msg.reason} ({msg.call_id})"


class SimNetwork:
    """Event queue plus the public-internet routing fabric."""

    def __init__(self, proxy: SipProxy, sip_transport: str = TCP):
        self.proxy = proxy
        self.proxy_ip = proxy.config.public_ip
        self.sip_addr = TransportAddress(self.proxy_ip, proxy.config.sip_tcp_port)
        self.sip_transport = sip_transport
        self.now = 0.0
        self.events: list[LogEntry] = []
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._nats: dict[str, NatBox] = {}
        self._nat_labels: dict[str, str] = {}
        self._udp_sockets: dict[tuple[str, TransportAddress], Callable] = {}
        self._channels: dict[int, "SignalingChannel"] = {}
        self._next_conn = 1
        proxy.set_event_hook(lambda event, detail: self.log("proxy", event, detail))

    # -- clock and queue -------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, fn)

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (when, self._seq, fn))
        self._seq += 1

    def run(self) -> None:
        """Drain the queue, advancing the virtual clock event by event."""
        while self._queue:
            when, _, fn = heapq.heappop(self._queue)
            self.now = max(self.now, when)
            fn()

    def settle_to(self, when: float) -> None:
        self.run()
        self.now = max(self.now, when)

    def log(self, actor: str, event: str, detail: str = "") -> None:
        self.events.append(LogEntry(round(self.now, 6), actor, event, detail))

    # -- topology ----------------------------------------------------------

    def add_nat(self, label: str, nat: NatBox) -> None:
        self._nats[nat.config.public_ip] = nat
        self._nat_labels[nat.config.public_ip] = label

    def bind_udp(self, nat: NatBox, internal: TransportAddress, handler: Callable) -> None:
        """Register a private UDP socket so NAT-delivered datagrams reach it."""
        self._udp_sockets[(nat.config.public_ip, internal)] = handler

    def new_connection_id(self) -> int:
        conn = self._next_conn
        self._next_conn += 1
        return conn

    def register_channel(self, channel: "SignalingChannel") -> None:
        self._channels[channel.conn_id] = channel

    # -- proxy-side transmission -------------------------------------------

    def dispatch_proxy_out(self, outbound: list[tuple[int, bytes]]) -> None:
        for conn, raw in outbound:
            channel = self._channels.get(conn)
            if channel is None:
                self.log("proxy", "no_such_connection", str(conn))
                continue
            channel.proxy_send(raw)

    # -- datagram routing ----------------------------------------------------

    def send_from_client(
        self, nat: NatBox, src_internal: TransportAddress, dst: TransportAddress, data: bytes
    ) -> None:
        """UDP datagram leaving a private network: translate, then route."""
        external = nat.outbound(src_internal, dst, self.now, transport=UDP)
        self.schedule(LATENCY, lambda: self._route_public(external, dst, data))

    def _route_public(self, src: TransportAddress, dst: TransportAddress, data: bytes) -> None:
        if dst.ip == self.proxy_ip:
            sends = self.proxy.handle_media(dst.port, src, data, self.now)
            for send in sends:
                self._send_from_proxy(send)
            return
        nat = self._nats.get(dst.ip)
        if nat is None:
            self.log("net", "unroutable", f"{src} -> {dst}")
            return
        internal = nat.inbound(src, dst, self.now, transport=UDP)
        if internal is None:
            self.log(self._nat_labels[dst.ip], "media_blocked", f"{src} -> {dst}")
            return
        handler = self._udp_sockets.get((nat.config.public_ip, internal))
        if handler is None:
            self.log(self._nat_labels[dst.ip], "no_socket", str(internal))
            return
        handler(src, data)

    def _send_from_proxy(self, send: RelaySend) -> None:
        src = TransportAddress(self.proxy_ip, send.from_port)
        self.schedule(LATENCY, lambda: self._route_public(src, send.to, send.payload))


class SignalingChannel:
    """Client <-> proxy signaling path (one registration-time NAT binding)."""

    def __init__(self, net: SimNetwork, client: "SimClient"):
        self.net = net
        self.client = client
        self.nat = client.nat
        self.conn_id = net.new_connection_id()
        self.transport = net.sip_transport  # "tcp" or "udp"
        self.external: TransportAddress | None = None
        self.announced: TransportAddress | None = None  # what the proxy knows
        net.register_channel(self)

    @property
    def via_transport(self) -> str:
        return "TCP" if self.transport == TCP else "UDP"

    def client_send(self, msg: SipMessage) -> None:
        # Sending creates or refreshes the NAT binding in either transport; the
        # proxy hears of the external address when it does not hold it.
        external = self.nat.outbound(
            self.client.sip_addr, self.net.sip_addr, self.net.now, transport=self.transport
        )
        if external != self.announced:
            self.net.proxy.connection_opened(self.conn_id, external)
            self.announced = external
        if self.external is None:
            self.net.log(self.client.name, "connected", f"{self.transport} via {external}")
        self.external = external
        raw = serialize_message(msg)
        self.net.log(self.client.name, "sip_sent", describe(msg))
        self.net.schedule(LATENCY, lambda: self._deliver_to_proxy(raw))

    def _deliver_to_proxy(self, raw: bytes) -> None:
        outbound = self.net.proxy.handle_message(self.conn_id, raw, self.net.now)
        self.net.dispatch_proxy_out(outbound)

    def proxy_send(self, raw: bytes) -> None:
        self.net.schedule(LATENCY, lambda: self._deliver_to_client(raw))

    def _deliver_to_client(self, raw: bytes) -> None:
        internal = self.nat.inbound(
            self.net.sip_addr, self.external, self.net.now, transport=self.transport
        )
        if internal is None:
            label = "sig_blocked"
            self.net.log(self.client.nat_label, label, f"to {self.client.name} at {self.external}")
            self.announced = None  # the proxy closes the connection
            outbound = self.net.proxy.delivery_failed(self.conn_id, raw, self.net.now)
            self.net.dispatch_proxy_out(outbound)
            return
        try:
            msg = parse_message(raw)
        except SipParseError as exc:
            self.net.log(self.client.name, "sip_unparseable", str(exc))
            return
        self.net.log(self.client.name, "sip_received", describe(msg))
        self.client.raw_received.append(raw)
        self.client.on_sip(msg)


@dataclass
class MediaRecord:
    sent: list[tuple[int, bytes]] = field(default_factory=list)
    received: list[tuple[int, bytes]] = field(default_factory=list)
    invalid: int = 0
    rtcp_sent: int = 0
    rtcp_received: int = 0


class SimClient:
    """Scripted user agent: registers, answers calls, talks where it is told.

    Uses one UDP socket for sending and receiving RTP (and one for RTCP), so
    a relay can learn its public address from its first outbound packet.
    """

    def __init__(
        self,
        net: SimNetwork,
        name: str,
        user: str,
        domain: str,
        nat: NatBox,
        nat_label: str,
        private_ip: str,
        rtp_port: int,
        sip_port: int = 5060,
        answer_calls: bool = True,
    ):
        self.net = net
        self.name = name
        self.user = user
        self.domain = domain
        self.nat = nat
        self.nat_label = nat_label
        self.aor = f"sip:{user}@{domain}"
        self.name_addr = f"{user} <sip:{user}@{domain}>"
        self.sip_addr = TransportAddress(private_ip, sip_port)
        self.rtp_addr = TransportAddress(private_ip, rtp_port)
        self.rtcp_addr = TransportAddress(private_ip, rtp_port + 1)
        self.answer_calls = answer_calls
        self.channel = SignalingChannel(net, self)
        self.ssrc = sum(ord(c) for c in name) * 65537 % 0xFFFFFFFF
        self.media = MediaRecord()

        self.registered = False
        self.established = False
        self.ever_established = False  # sticky: survives hangup
        self.call_id: str | None = None
        self.remote_media: TransportAddress | None = None
        self.remote_name_addr: str | None = None
        self.last_failure: int | None = None
        self.received_bodies: list[bytes] = []
        self.raw_received: list[bytes] = []
        self._cseq = 0
        self._call_count = 0

        net.bind_udp(nat, self.rtp_addr, self._on_rtp_datagram)
        net.bind_udp(nat, self.rtcp_addr, self._on_rtcp_datagram)

    # -- SIP building -------------------------------------------------------

    def _via(self, branch: str | None = None) -> ViaHeader:
        return ViaHeader(
            transport=self.channel.via_transport, sent_by=self.sip_addr.ip, branch=branch
        )

    def _next_cseq(self) -> int:
        self._cseq += 1
        return self._cseq

    def build_sdp(self) -> SdpSession:
        """Offer/answer naming this client's private media address."""
        return SdpSession(
            version=0,
            origin=f"{self.user} 2890844526 2890844527 IN IP4 {self.domain}",
            session_name="Session SDP",
            connection_ip=self.rtp_addr.ip,
            timing="0 0",
            media=[MediaDesc("audio", self.rtp_addr.port, "RTP/AVP", [0])],
            attributes=["rtpmap:0 PCMU/8000"],
            extra_lines=[],
        )

    def register(self) -> None:
        msg = SipMessage(
            via=self._via(),
            from_=self.name_addr,
            to_=self.name_addr,
            call_id=f"reg-{self.user}@{self.domain}",
            cseq_num=self._next_cseq(),
            cseq_method=Method.REGISTER,
            method=Method.REGISTER,
            request_uri=f"sip:{self.domain}",
            contact=f"sip:{self.user}@{self.sip_addr.ip}",
        )
        self.channel.client_send(msg)

    def invite(self, callee: "SimClient") -> str:
        self._call_count += 1
        call_id = f"call-{self._call_count}-{self.user.lower()}@{self.domain}"
        self.call_id = call_id
        self.remote_name_addr = callee.name_addr
        body = serialize_sdp(self.build_sdp())
        msg = SipMessage(
            via=self._via(branch=f"z9hG4bK{self.user}{self._call_count}"),
            from_=self.name_addr,
            to_=callee.name_addr,
            call_id=call_id,
            cseq_num=self._next_cseq(),
            cseq_method=Method.INVITE,
            method=Method.INVITE,
            request_uri=callee.aor,
            contact=f"sip:{self.user}@{self.sip_addr.ip}",
            content_type="application/sdp",
            body=body,
        )
        self.channel.client_send(msg)
        return call_id

    def hangup(self) -> None:
        if self.call_id is None:
            return
        msg = SipMessage(
            via=self._via(),
            from_=self.name_addr,
            to_=self.remote_name_addr or self.name_addr,
            call_id=self.call_id,
            cseq_num=self._next_cseq(),
            cseq_method=Method.BYE,
            method=Method.BYE,
            request_uri=uri_of(self.remote_name_addr) if self.remote_name_addr else self.aor,
        )
        self.established = False
        self.channel.client_send(msg)

    # -- SIP handling --------------------------------------------------------

    def on_sip(self, msg: SipMessage) -> None:
        if msg.body:
            self.received_bodies.append(msg.body)
        if msg.is_request:
            self._on_request(msg)
        else:
            self._on_response(msg)

    def _on_request(self, msg: SipMessage) -> None:
        if msg.method is Method.INVITE:
            if not self.answer_calls:
                self.net.log(self.name, "invite_ignored", msg.call_id)
                return
            self.call_id = msg.call_id
            self.remote_name_addr = msg.from_
            self._learn_media(msg.body)
            answer = build_response(
                msg,
                200,
                "OK",
                body=serialize_sdp(self.build_sdp()),
                content_type="application/sdp",
                contact=f"sip:{self.user}@{self.sip_addr.ip}",
            )
            self.channel.client_send(answer)
        elif msg.method is Method.ACK:
            self.established = True
            self.ever_established = True
        elif msg.method is Method.BYE:
            self.established = False
            self.channel.client_send(build_response(msg, 200, "OK"))

    def _on_response(self, msg: SipMessage) -> None:
        if msg.cseq_method is Method.REGISTER and msg.status_code == 200:
            self.registered = True
        elif msg.cseq_method is Method.INVITE:
            if msg.status_code == 200:
                self._learn_media(msg.body)
                ack = SipMessage(
                    via=self._via(),
                    from_=msg.from_,
                    to_=msg.to_,
                    call_id=msg.call_id,
                    cseq_num=msg.cseq_num,
                    cseq_method=Method.ACK,
                    method=Method.ACK,
                    request_uri=uri_of(msg.to_),
                )
                self.established = True
                self.ever_established = True
                self.channel.client_send(ack)
            elif msg.status_code >= 300:
                self.last_failure = msg.status_code
                self.call_id = None

    def _learn_media(self, body: bytes) -> None:
        session = parse_sdp(body)
        self.remote_media = TransportAddress(session.connection_ip, session.media[0].port)

    # -- media ----------------------------------------------------------------

    def send_rtp(self, seq: int) -> None:
        if self.remote_media is None:
            self.net.log(self.name, "rtp_skipped", "no media destination")
            return
        payload = f"{self.user}-voice-{seq:04d}".encode()
        data = build_rtp(0, seq, seq * 160, self.ssrc, payload)
        self.media.sent.append((seq, payload))
        self.net.log(self.name, "rtp_sent", f"seq={seq} to {self.remote_media}")
        self.net.send_from_client(self.nat, self.rtp_addr, self.remote_media, data)

    def send_rtcp(self) -> None:
        if self.remote_media is None:
            return
        destination = TransportAddress(self.remote_media.ip, self.remote_media.port + 1)
        data = b"\x81\xc8\x00\x06" + self.ssrc.to_bytes(4, "big") + b"\x00" * 20
        self.media.rtcp_sent += 1
        self.net.log(self.name, "rtcp_sent", f"to {destination}")
        self.net.send_from_client(self.nat, self.rtcp_addr, destination, data)

    def _on_rtp_datagram(self, src: TransportAddress, data: bytes) -> None:
        try:
            packet = parse_rtp(data)
        except RtpParseError:
            self.media.invalid += 1
            return
        self.media.received.append((packet.sequence, packet.payload))
        self.net.log(self.name, "rtp_received", f"seq={packet.sequence} from {src}")

    def _on_rtcp_datagram(self, src: TransportAddress, data: bytes) -> None:
        self.media.rtcp_received += 1
        self.net.log(self.name, "rtcp_received", f"from {src}")
