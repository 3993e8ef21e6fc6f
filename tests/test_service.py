"""End-to-end exercise of the real-socket adapter on loopback."""

import functools
import gc
import logging
import os
import socket
import threading
import time
import warnings
from dataclasses import dataclass, replace

import pytest

import samples
from sipnat import protocol as protocol_module
from sipnat import service as service_module
from sipnat.proxy import Phase, ProxyConfig
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
    # Leak guard: once every client has closed, no call may hold relay ports
    # and no registration may outlive its connection.
    proxy = svc.proxy
    pool = proxy.media.pool

    def leftovers():
        return proxy.media.sessions, proxy.registrar.live_aors(), pool.pairs - len(pool.free_pairs())

    try:
        wait_until(lambda: leftovers() == ({}, [], 0), timeout=3.0)
        assert leftovers() == ({}, [], 0)
    finally:
        svc.stop()


@pytest.fixture
def service():
    yield from running_service()


@pytest.fixture
def signaling_service():
    """No media relay, so the small relay pool never limits how many calls are placed."""
    yield from running_service(media_relay=False)


def _open_fds() -> int | None:
    fd_dir = "/proc/self/fd"
    return len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None


def test_a_taken_relay_port_fails_construction_without_leaking_sockets():
    lo, hi = find_media_range()
    taken = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        taken.bind((HOST, hi))  # the last port: the listener and the ports below it are open by then
        config = ProxyConfig(public_ip=HOST, sip_tcp_port=0, media_port_range=(lo, hi))
        before = _open_fds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                ProxyService(config, host=HOST)
            gc.collect()
        assert _open_fds() == before
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    finally:
        taken.close()


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


def test_an_unframeable_stream_is_closed_and_the_service_keeps_serving(service, caplog):
    first = TcpClient(service.sip_port)
    # A REGISTER, then more header bytes than the framer holds, with no blank line.
    first.send(samples.make_register("ClientA", "local1.com", HOST) + b"X-Filler: " + b"x" * 70000)
    assert first.recv_message().status_code == 200
    with pytest.raises(ConnectionError):
        first.recv_message(timeout=2.0)
    wait_until(lambda: not service.proxy.registrar.live_aors())
    assert service.proxy.registrar.live_aors() == []
    second = TcpClient(service.sip_port)
    second.send(samples.make_register("ClientB", "local2.com", HOST))
    assert second.recv_message().status_code == 200
    logged = [(r.levelno, r.getMessage()) for r in caplog.records if r.levelno >= logging.WARNING]
    assert logged == [(logging.WARNING, "unframeable stream on connection 1, closing")]
    first.close()
    second.close()


def test_signaling_sockets_disable_nagle(service):
    client = TcpClient(service.sip_port)
    client.send(samples.make_register("ClientA", "local1.com", HOST))
    assert client.recv_message().status_code == 200
    (sock,) = service._socks.values()
    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
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


def test_a_party_bye_with_an_empty_request_uri_gets_400_and_the_service_keeps_serving(service):
    call = establish_call(service)
    bye = serialize_message(replace(call.ack, method=Method.BYE, cseq_method=Method.BYE, cseq_num=2))
    call.client_b.send(bye.replace(f"BYE {call.ack.request_uri} ".encode(), b"BYE  ", 1))
    assert call.client_b.recv_message(timeout=2.0).status_code == 400
    other = TcpClient(service.sip_port)
    other.send(samples.make_register("ClientC", "local3.com", HOST))
    assert other.recv_message(timeout=2.0).status_code == 200
    assert service.proxy.calls[call.ack.call_id].phase is Phase.ESTABLISHED
    other.close()
    call.close()


def fail_once(monkeypatch, proxy, name, when=lambda *args: True) -> list:
    """Make the proxy input ``name`` raise once: on the first call ``when``
    accepts, it runs and then raises, so its output is lost.  The returned
    list gets that call's arguments."""
    real = getattr(proxy, name)
    failed = []

    @functools.wraps(real)
    def run_then_raise(*args):
        output = real(*args)
        if not failed and when(*args):
            failed.append(args)
            raise RuntimeError("proxy bug")
        return output

    monkeypatch.setattr(proxy, name, run_then_raise)
    return failed


def message_raises(service, monkeypatch) -> list:
    """A REGISTER raises: its connection closes, with the REGISTER read behind it."""
    failed = fail_once(
        monkeypatch, service.proxy, "handle_message",
        lambda conn, raw, now: parse_message(raw).call_id == "reg-ClientA@local1.com",
    )
    client = TcpClient(service.sip_port)
    client.send(
        samples.make_register("ClientA", "local1.com", HOST)
        + samples.make_register("ClientC", "local3.com", HOST)
    )
    with pytest.raises(ConnectionError):  # no 200 for either
        client.recv_message(timeout=2.0)
    assert failed[0][0] == 1
    wait_until(lambda: not service.proxy.registrar.live_aors())
    assert service.proxy.registrar.live_aors() == []
    client.close()
    return failed


def close_raises(service, monkeypatch) -> list:
    """A ringing callee's connection closes and the proxy raises: the caller's 404 is lost."""
    callee = TcpClient(service.sip_port)
    callee.send(samples.make_register("ClientA", "local1.com", HOST))
    assert callee.recv_message().status_code == 200
    caller = TcpClient(service.sip_port)
    caller.send(samples.make_register("ClientB", "local2.com", HOST))
    assert caller.recv_message().status_code == 200
    caller.send(samples.make_invite(call_id="ringing@local2.com"))
    assert callee.recv_message().method is Method.INVITE

    failed = fail_once(monkeypatch, service.proxy, "connection_closed")
    callee.close()
    wait_until(lambda: failed)
    with pytest.raises(TimeoutError):
        caller.recv_message(timeout=0.3)
    assert failed[0][0] == 1
    assert service.proxy.calls["ringing@local2.com"].phase is Phase.TERMINATED
    assert service.proxy.registrar.live_aors() == ["sip:ClientB@local2.com"]
    caller.close()
    return failed


def datagram_raises(service, monkeypatch) -> list:
    """A relayed datagram raises: it is not sent on, and the next one is."""
    call = establish_call(service)
    call.media_a.sendto(b"a-0", call.a_target)
    time.sleep(0.1)
    call.media_b.sendto(b"b-0", call.b_target)
    assert call.media_b.recvfrom(2048)[0] == b"a-0"
    assert call.media_a.recvfrom(2048)[0] == b"b-0"

    failed = fail_once(monkeypatch, service.proxy, "handle_media")
    call.media_a.sendto(b"a-1", call.a_target)
    wait_until(lambda: failed)
    call.media_a.sendto(b"a-2", call.a_target)
    assert call.media_b.recvfrom(2048) == (b"a-2", call.b_target)
    assert failed[0][0] == call.a_target[1]
    call.close()
    return failed


def tick_raises(service, monkeypatch) -> list:
    """A tick raises: it is skipped, and the loop ticks again."""
    monkeypatch.setattr(service_module, "TICK_INTERVAL", 0.0)
    failed = fail_once(monkeypatch, service.proxy, "tick")
    wait_until(lambda: failed)
    (failed_at,) = failed[0]
    wait_until(lambda: service._last_tick > failed_at)
    assert service._last_tick > failed_at
    return failed


@pytest.mark.parametrize(
    "name, raises",
    [
        ("handle_message", message_raises),
        ("connection_closed", close_raises),
        ("handle_media", datagram_raises),
        ("tick", tick_raises),
    ],
    ids=["message", "close", "datagram", "tick"],
)
def test_a_raising_proxy_input_is_logged_once_and_costs_only_itself(
    service, service_errors, monkeypatch, name, raises
):
    failed = raises(service, monkeypatch)
    client = TcpClient(service.sip_port)
    client.send(samples.make_register("ClientD", "local4.com", HOST))
    assert client.recv_message(timeout=2.0).status_code == 200
    assert service._thread.is_alive()
    # One ERROR record, in the one format, with the traceback of what raised.
    (record,) = service_errors
    assert record.getMessage() == f"proxy {name} failed on {failed[0][0]}"
    assert record.exc_info[0] is RuntimeError and record.exc_info[2] is not None
    service_errors.clear()
    client.close()


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


def test_the_caller_gets_a_404_at_once_when_a_ringing_callees_connection_closes(service):
    callee = TcpClient(service.sip_port)
    callee.send(samples.make_register("ClientA", "local1.com", HOST))
    assert callee.recv_message().status_code == 200
    caller = TcpClient(service.sip_port)
    caller.send(samples.make_register("ClientB", "local2.com", HOST))
    assert caller.recv_message().status_code == 200
    caller.send(samples.make_invite(call_id="ringing@local2.com"))
    assert callee.recv_message().method is Method.INVITE

    callee.close()
    reply = caller.recv_message(timeout=2.0)
    assert (reply.status_code, reply.cseq_method, reply.call_id) == (404, Method.INVITE, "ringing@local2.com")
    assert service.proxy.calls["ringing@local2.com"].phase is Phase.TERMINATED
    caller.close()


def test_send_error_ends_each_ringing_call_with_a_404_in_order(signaling_service):
    service = signaling_service
    callee = TcpClient(service.sip_port)
    callee.send(samples.make_register("ClientA", "local1.com", HOST))
    assert callee.recv_message().status_code == 200
    caller = TcpClient(service.sip_port)
    caller.send(samples.make_register("ClientB", "local2.com", HOST))
    assert caller.recv_message().status_code == 200

    # Writes to the callee now fail with EPIPE inside the service.
    service._socks[1].shutdown(socket.SHUT_WR)
    call_ids = ["first@local2.com", "second@local2.com"]
    caller.send(b"".join(samples.make_invite(call_id=call_id) for call_id in call_ids))
    replies = [caller.recv_message() for _ in call_ids]
    assert [(msg.status_code, msg.call_id) for msg in replies] == [(404, c) for c in call_ids]
    wait_until(lambda: 1 not in service._socks)
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


def test_a_slow_reader_over_the_outbox_cap_is_closed_and_its_calls_end(
    signaling_service, monkeypatch, caplog
):
    service = signaling_service
    monkeypatch.setattr(protocol_module, "MAX_OUTBOX_BYTES", 64 * 1024)
    slow = TcpClient(service.sip_port, rcvbuf=4096)
    slow.send(samples.make_register("ClientA", "local1.com", HOST))
    assert slow.recv_message().status_code == 200
    caller = TcpClient(service.sip_port)
    caller.send(samples.make_register("ClientB", "local2.com", HOST))
    assert caller.recv_message().status_code == 200

    # The caller reads its replies while a thread sends the INVITEs on a
    # duplicate of its socket: they start coming back before the last is sent.
    call_ids = [f"slow-{i}@local2.com" for i in range(SLOW_READER_INVITES)]
    sender = caller.sock.dup()
    invites = b"".join(samples.make_invite(call_id=call_id) for call_id in call_ids)
    thread = threading.Thread(target=sender.sendall, args=(invites,))
    thread.start()
    replies = [caller.recv_message(timeout=20) for _ in call_ids]
    thread.join()
    sender.close()
    assert [(msg.status_code, msg.call_id) for msg in replies] == [(404, c) for c in call_ids]
    assert service.proxy.registrar.live_aors() == ["sip:ClientB@local2.com"]
    assert {call.phase for call in service.proxy.calls.values()} <= {Phase.TERMINATED}
    assert "connection 1 holds" in caplog.text
    slow.close()
    caller.close()


PIPELINED_REGISTERS = 30000


def test_a_client_pipelining_without_reading_is_closed_at_the_outbox_cap(
    service, monkeypatch, caplog
):
    monkeypatch.setattr(protocol_module, "MAX_OUTBOX_BYTES", 64 * 1024)
    client = TcpClient(service.sip_port, rcvbuf=4096)
    register = samples.make_register("ClientA", "local1.com", HOST)
    try:
        client.send(register * PIPELINED_REGISTERS)
    except OSError:
        pass  # the service closed the connection with requests still unread
    wait_until(lambda: not service.proxy.registrar.live_aors())
    assert service.proxy.registrar.live_aors() == []
    assert service._socks == {}
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and warnings[0].startswith("connection 1 holds")
    client.close()
