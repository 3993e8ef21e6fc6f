"""End-to-end exercise of the real-socket adapter on loopback."""

import socket
import time
from dataclasses import dataclass, replace

import pytest

import samples
from sipnat.proxy import ProxyConfig
from sipnat.rtp import build_rtp, parse_rtp
from sipnat.sdp import parse_sdp
from sipnat.service import ProxyService
from sipnat.sip_message import (
    MessageFramer,
    Method,
    SipMessage,
    build_response,
    parse_message,
    serialize_message,
)

HOST = "127.0.0.1"


def find_media_range(size: int = 4, start: int = 47600) -> tuple[int, int]:
    for base in range(start, start + 4000, size * 4):
        socks = []
        try:
            for port in range(base, base + size):
                s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                s.bind((HOST, port))
                socks.append(s)
            return base, base + size - 1
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise RuntimeError("no free UDP port range found")


class TcpClient:
    def __init__(self, port: int, rcvbuf: int | None = None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            # Set before connecting, so the advertised window is small from the start.
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(5)
        self.sock.connect((HOST, port))
        self.framer = MessageFramer()
        self.pending = []

    def send(self, raw: bytes) -> None:
        self.sock.sendall(raw)

    def recv_message(self, timeout: float = 5.0):
        deadline = time.monotonic() + timeout
        while not self.pending:
            self.sock.settimeout(max(0.05, deadline - time.monotonic()))
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed")
            self.pending.extend(self.framer.feed(chunk))
        return parse_message(self.pending.pop(0))

    def close(self):
        self.sock.close()


def wait_until(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)


def running_service(**config):
    lo, hi = find_media_range()
    config = ProxyConfig(public_ip=HOST, sip_tcp_port=0, media_port_range=(lo, hi), **config)
    svc = ProxyService(config, host=HOST)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def service():
    yield from running_service()


@pytest.fixture
def signaling_service():
    """No media relay, so the small relay pool never limits how many calls are placed."""
    yield from running_service(media_relay=False)


def test_register_over_real_tcp(service):
    client = TcpClient(service.sip_port)
    client.send(samples.make_register("ClientA", "local1.com", HOST))
    response = client.recv_message()
    assert response.status_code == 200
    assert service.proxy.registrar.route_to("sip:ClientA@local1.com") == 1
    client.close()


def test_a_digit_field_too_long_for_int_gets_400_and_the_service_keeps_serving(service):
    register = samples.make_register("ClientA", "local1.com", HOST)
    first = TcpClient(service.sip_port)
    first.send(register.replace(b"CSeq: 1 ", b"CSeq: " + b"9" * 5000 + b" "))
    assert first.recv_message(timeout=2.0).status_code == 400
    second = TcpClient(service.sip_port)
    second.send(register)
    assert second.recv_message(timeout=2.0).status_code == 200
    first.close()
    second.close()


def test_crlf_before_a_register_and_keepalives_get_no_reply(service):
    register = samples.make_register("ClientA", "local1.com", HOST)
    call_id = parse_message(register).call_id
    client = TcpClient(service.sip_port)
    client.send(b"\r\n" + register)
    response = client.recv_message()
    assert (response.status_code, response.call_id) == (200, call_id)
    # A double-CRLF keepalive gets no reply and leaves the registration alone.
    client.send(b"\r\n\r\n")
    with pytest.raises(TimeoutError):
        client.recv_message(timeout=0.3)
    assert service.proxy.registrar.route_to("sip:ClientA@local1.com") == 1
    client.send(register)
    response = client.recv_message()
    assert (response.status_code, response.call_id) == (200, call_id)
    client.close()


def test_signaling_sockets_disable_nagle(service):
    client = TcpClient(service.sip_port)
    client.send(samples.make_register("ClientA", "local1.com", HOST))
    assert client.recv_message().status_code == 200
    (connection,) = service._conns.values()
    assert connection.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
    client.close()


@dataclass
class MediaCall:
    """An established call: both parties' signaling and media sockets, and
    the relay address each party sends its media to."""

    client_a: TcpClient
    client_b: TcpClient
    media_a: socket.socket
    media_b: socket.socket
    a_target: tuple[str, int]
    b_target: tuple[str, int]
    ack: SipMessage

    def close(self):
        for sock in (self.media_a, self.media_b):
            sock.close()
        self.client_a.close()
        self.client_b.close()


def establish_call(service) -> MediaCall:
    """ClientB calls ClientA through the service, each with its own media socket."""
    client_a = TcpClient(service.sip_port)
    client_b = TcpClient(service.sip_port)
    lo, hi = service.config.media_port_range

    client_a.send(samples.make_register("ClientA", "local1.com", HOST))
    assert client_a.recv_message().status_code == 200
    client_b.send(samples.make_register("ClientB", "local2.com", HOST))
    assert client_b.recv_message().status_code == 200

    # Media sockets: one each, used for both sending and receiving.
    media_a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    media_a.bind((HOST, 0))
    media_a.settimeout(5)
    media_b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    media_b.bind((HOST, 0))
    media_b.settimeout(5)

    offer_body = samples.crlf_body(
        [
            "v=0",
            "o=ClientB 1 2 IN IP4 local2.com",
            "s=Session SDP",
            f"c=IN IP4 {HOST}",
            "t=0 0",
            f"m=audio {media_b.getsockname()[1]} RTP/AVP 0",
            "a=rtpmap:0 PCMU/8000",
        ]
    )
    client_b.send(
        samples.make_invite(
            caller="ClientB", caller_domain="local2.com", caller_host=HOST,
            callee="ClientA", callee_domain="local1.com", body=offer_body,
        )
    )

    invite = client_a.recv_message()
    assert invite.method is Method.INVITE
    offer = parse_sdp(invite.body)
    assert offer.connection_ip == HOST
    assert lo <= offer.media[0].port <= hi
    a_target = (offer.connection_ip, offer.media[0].port)

    answer_body = samples.crlf_body(
        [
            "v=0",
            "o=ClientA 3 4 IN IP4 local1.com",
            "s=Session SDP",
            f"c=IN IP4 {HOST}",
            "t=0 0",
            f"m=audio {media_a.getsockname()[1]} RTP/AVP 0",
            "a=rtpmap:0 PCMU/8000",
        ]
    )
    client_a.send(
        serialize_message(
            build_response(invite, 200, "OK", body=answer_body, content_type="application/sdp")
        )
    )
    answer = client_b.recv_message()
    assert answer.status_code == 200
    rewritten = parse_sdp(answer.body)
    assert lo <= rewritten.media[0].port <= hi
    b_target = (rewritten.connection_ip, rewritten.media[0].port)
    assert a_target != b_target

    ack = replace(
        invite, method=Method.ACK, cseq_method=Method.ACK, body=b"",
        content_type=None, contact=None,
    )
    client_b.send(serialize_message(ack))
    client_a.recv_message()  # forwarded ACK
    return MediaCall(client_a, client_b, media_a, media_b, a_target, b_target, ack)


def test_full_call_with_real_media_relay(service):
    call = establish_call(service)
    client_a, client_b, media_a, media_b = call.client_a, call.client_b, call.media_a, call.media_b
    a_target, b_target = call.a_target, call.b_target

    # Each side talks to its own relay port; payloads must cross unchanged.
    packet_a = build_rtp(0, 1, 160, 0xA, b"from-a")
    packet_b = build_rtp(0, 1, 160, 0xB, b"from-b")
    media_a.sendto(packet_a, a_target)
    time.sleep(0.1)
    media_b.sendto(packet_b, b_target)

    got_b = parse_rtp(media_b.recvfrom(2048)[0])
    got_a = parse_rtp(media_a.recvfrom(2048)[0])
    assert got_b.payload == b"from-a"
    assert got_a.payload == b"from-b"

    # Both legs have latched: established media crosses unchanged, from the
    # receiver's own relay port, and counts on the sending leg.
    relay_ports = service.proxy.media.ports
    assert len(relay_ports) == 4  # one call
    a_counters, b_counters = relay_ports[a_target[1]], relay_ports[b_target[1]]
    before = [(c.received, c.forwarded) for c in (a_counters, b_counters)]
    sent_a = [build_rtp(0, seq, 160 * seq, 0xA, b"a-%d" % seq) for seq in range(2, 102)]
    sent_b = [build_rtp(0, seq, 160 * seq, 0xB, b"b-%d" % seq) for seq in range(2, 102)]
    for packet, reply in zip(sent_a, sent_b):
        media_a.sendto(packet, a_target)
        media_b.sendto(reply, b_target)
    assert [media_b.recvfrom(2048) for _ in sent_a] == [(p, b_target) for p in sent_a]
    assert [media_a.recvfrom(2048) for _ in sent_b] == [(p, a_target) for p in sent_b]
    after = [(c.received, c.forwarded) for c in (a_counters, b_counters)]
    assert [(r - r0, f - f0) for (r, f), (r0, f0) in zip(after, before)] == [(100, 100)] * 2

    # A third party sending to a latched relay port is dropped, not relayed:
    # the next datagram B sees is A's own.
    impostor = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    impostor.bind((HOST, 0))
    dropped = a_counters.dropped
    impostor.sendto(b"hijack", a_target)
    wait_until(lambda: a_counters.dropped == dropped + 1)
    assert a_counters.dropped == dropped + 1
    media_a.sendto(b"after-impostor", a_target)
    assert media_b.recvfrom(2048) == (b"after-impostor", b_target)
    impostor.close()

    bye = replace(call.ack, method=Method.BYE, cseq_method=Method.BYE, cseq_num=2)
    client_b.send(serialize_message(bye))
    forwarded_bye = client_a.recv_message()
    assert forwarded_bye.method is Method.BYE
    client_a.send(serialize_message(build_response(forwarded_bye, 200, "OK")))
    assert client_b.recv_message().status_code == 200

    wait_until(lambda: service.proxy.media.pool.allocated_count == 0)
    assert service.proxy.media.pool.allocated_count == 0
    assert service.proxy.calls == {}
    call.close()


def test_every_media_datagram_goes_through_handle_media(service, monkeypatch):
    call = establish_call(service)
    seen = []
    handle_media = service.proxy.handle_media

    def counted(relay_port, src, datagram):
        seen.append((relay_port, src, datagram))
        return handle_media(relay_port, src, datagram)

    monkeypatch.setattr(service.proxy, "handle_media", counted)
    impostor = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    impostor.bind((HOST, 0))
    a_src, b_src = call.media_a.getsockname(), call.media_b.getsockname()
    a_port, b_port = call.a_target[1], call.b_target[1]

    # Latch both legs, then run established media both ways.
    call.media_a.sendto(b"a-0", call.a_target)
    time.sleep(0.1)
    call.media_b.sendto(b"b-0", call.b_target)
    assert call.media_b.recvfrom(2048)[0] == b"a-0"
    assert call.media_a.recvfrom(2048)[0] == b"b-0"
    sent = [(a_port, a_src, b"a-0"), (b_port, b_src, b"b-0")]
    for seq in range(1, 21):
        call.media_a.sendto(b"a-%d" % seq, call.a_target)
        call.media_b.sendto(b"b-%d" % seq, call.b_target)
        sent += [(a_port, a_src, b"a-%d" % seq), (b_port, b_src, b"b-%d" % seq)]
    impostor.sendto(b"hijack", call.a_target)
    sent.append((a_port, impostor.getsockname(), b"hijack"))

    wait_until(lambda: len(seen) == len(sent))
    assert sorted(seen) == sorted(sent)
    assert [call.media_b.recvfrom(2048)[0] for _ in range(20)] == [b"a-%d" % seq for seq in range(1, 21)]
    assert [call.media_a.recvfrom(2048)[0] for _ in range(20)] == [b"b-%d" % seq for seq in range(1, 21)]
    impostor.close()
    call.close()


def test_closing_connection_unregisters(service):
    client = TcpClient(service.sip_port)
    client.send(samples.make_register("ClientA", "local1.com", HOST))
    assert client.recv_message().status_code == 200
    client.close()
    wait_until(lambda: not service.proxy.registrar.live_aors())
    assert service.proxy.registrar.live_aors() == []


def test_send_error_reports_each_unsent_message_in_order(signaling_service):
    service = signaling_service
    callee = TcpClient(service.sip_port)
    callee.send(samples.make_register("ClientA", "local1.com", HOST))
    assert callee.recv_message().status_code == 200
    caller = TcpClient(service.sip_port)
    caller.send(samples.make_register("ClientB", "local2.com", HOST))
    assert caller.recv_message().status_code == 200

    # Writes to the callee now fail with EPIPE inside the service.
    service._conns[1].sock.shutdown(socket.SHUT_WR)
    call_ids = ["first@local2.com", "second@local2.com"]
    caller.send(b"".join(samples.make_invite(call_id=call_id) for call_id in call_ids))
    replies = [caller.recv_message() for _ in call_ids]
    assert [(msg.status_code, msg.call_id) for msg in replies] == [(404, c) for c in call_ids]
    wait_until(lambda: 1 not in service._conns)
    assert service.proxy.registrar.live_aors() == ["sip:ClientB@local2.com"]
    callee.close()
    caller.close()


SLOW_READER_INVITES = 16000  # about 5.5 MB, more than Linux's default 4 MB TCP send buffer limit


def test_slow_reader_keeps_connection_and_gets_every_message(signaling_service):
    service = signaling_service
    slow = TcpClient(service.sip_port, rcvbuf=4096)
    slow.send(samples.make_register("ClientA", "local1.com", HOST))
    assert slow.recv_message().status_code == 200
    caller = TcpClient(service.sip_port)
    caller.send(samples.make_register("ClientB", "local2.com", HOST))
    assert caller.recv_message().status_code == 200

    # The slow client reads nothing while every INVITE is forwarded to it.
    call_ids = [f"slow-{i}@local2.com" for i in range(SLOW_READER_INVITES)]
    caller.send(b"".join(samples.make_invite(call_id=call_id) for call_id in call_ids))
    wait_until(lambda: len(service.proxy.calls) == SLOW_READER_INVITES, timeout=20)
    assert len(service.proxy.calls) == SLOW_READER_INVITES
    assert service.proxy.registrar.route_to("sip:ClientA@local1.com") == 1

    received = [slow.recv_message() for _ in call_ids]
    assert [msg.method for msg in received] == [Method.INVITE] * len(call_ids)
    assert [msg.call_id for msg in received] == call_ids
    assert service.proxy.registrar.route_to("sip:ClientA@local1.com") == 1
    slow.close()
    caller.close()
