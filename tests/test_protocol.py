"""The sans-IO layer driven directly, with no sockets: framing, outboxes,
the outbox cap and the exception boundary."""

import functools
import logging
from collections import Counter, defaultdict
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import samples
from sipnat import protocol as protocol_module
from sipnat import sip_message
from sipnat.net import TransportAddress
from sipnat.protocol import ProxyProtocol
from sipnat.proxy import INVITE_GUARD, Phase, ProxyConfig, SipProxy
from sipnat.sip_message import (
    MAX_HEADER_BYTES,
    MessageFramer,
    Method,
    build_response,
    parse_message,
    serialize_message,
)

A, B = 1, 2
REMOTES = {A: TransportAddress("68.92.25.44", 4325), B: TransportAddress("77.224.10.9", 6001)}
REGISTER_A = samples.make_register("ClientA", "local1.com", "192.168.1.11")
REGISTER_B = samples.make_register("ClientB", "local2.com", "10.0.0.4")
UNFRAMEABLE = b"X-Filler: " + b"x" * MAX_HEADER_BYTES  # a header section with no end in sight


def invite_from_b(call_id="call-1@local2.com") -> bytes:
    return samples.make_invite(
        caller="ClientB", caller_domain="local2.com", caller_host="10.0.0.4",
        callee="ClientA", callee_domain="local1.com", call_id=call_id,
    )


class Driver:
    """A transport that takes every ready outbox whole, except a stalled
    connection's, of which it takes nothing."""

    def __init__(self):
        self.layer = ProxyProtocol(SipProxy(ProxyConfig(public_ip="200.1.1.1")))
        self.written: dict[int, bytearray] = defaultdict(bytearray)
        self.dropped: list[int] = []
        self.stalled: set[int] = set()
        for conn, remote in REMOTES.items():
            self.layer.opened(conn, remote)

    def received(self, conn: int, data: bytes, now: float = 1.0) -> None:
        """Feed what ``conn`` sends while its transport is open."""
        if conn in self.layer.outboxes and not self.layer.received(conn, data, now):
            self.dropped.append(conn)
        self.flush(now)

    def flush(self, now: float = 1.0) -> None:
        layer = self.layer
        while ready := layer.take_ready():
            for conn in ready:
                outbox = layer.outboxes[conn]
                n = 0 if conn in self.stalled else len(outbox)
                self.written[conn] += outbox[:n]
                if not layer.sent(conn, n, now):
                    self.dropped.append(conn)

    def messages(self, conn: int):
        return messages(self.written[conn])


def messages(stream: bytes):
    return [parse_message(raw, head) for raw, head in MessageFramer().feed(stream)]


def call_script() -> list[tuple[int, bytes]]:
    """Each (connection, bytes) a register, call and hangup sends, then a
    second INVITE left ringing and a stream from its callee that cannot be
    framed; found by running it whole once, since the answers echo what the
    proxy forwarded."""
    driver = Driver()
    steps = []

    def send(conn, data):
        steps.append((conn, data))
        driver.received(conn, data)

    send(A, REGISTER_A)
    send(B, REGISTER_B)
    send(B, invite_from_b())
    fwd_invite = driver.messages(A)[-1]
    answer = build_response(
        fwd_invite, 200, "OK", body=samples.sample_invite_body(), content_type="application/sdp"
    )
    send(A, serialize_message(answer))
    ack = replace(
        fwd_invite, method=Method.ACK, cseq_method=Method.ACK, body=b"", content_type=None, contact=None
    )
    send(B, serialize_message(ack))
    send(B, serialize_message(replace(ack, method=Method.BYE, cseq_method=Method.BYE, cseq_num=2)))
    send(A, serialize_message(build_response(driver.messages(A)[-1], 200, "OK")))
    send(B, invite_from_b("call-2@local2.com"))
    send(A, UNFRAMEABLE)
    return steps


CALL_SCRIPT = call_script()


def whole_run() -> tuple[dict[int, bytes], list[int]]:
    """The bytes written to each connection and the connections closed, fed
    whole messages; only these are kept, not the proxy that made them."""
    driver = Driver()
    for conn, data in CALL_SCRIPT:
        driver.received(conn, data)
    return {conn: bytes(raw) for conn, raw in driver.written.items()}, driver.dropped


WHOLE_WRITTEN, WHOLE_DROPPED = whole_run()


def test_the_call_script_runs_and_ends_with_a_dropped_callee():
    assert [m.status_code or m.method.value for m in messages(WHOLE_WRITTEN[A])] == [
        200, "INVITE", "ACK", "BYE", "INVITE",
    ]
    assert [m.status_code for m in messages(WHOLE_WRITTEN[B])] == [200, 200, 200, 404]
    assert WHOLE_DROPPED == [A]


def stream_runs() -> list[tuple[int, bytes]]:
    """The script as runs of consecutive steps on one connection, each run's
    bytes joined: what a peer may send back to back, before any other's step."""
    runs = []
    for conn, data in CALL_SCRIPT:
        if runs and runs[-1][0] == conn:
            runs[-1] = (conn, runs[-1][1] + data)
        else:
            runs.append((conn, data))
    return runs


@given(st.data())
def test_any_cut_of_the_streams_writes_the_same_bytes_and_closes_as_whole_messages(data):
    driver = Driver()
    for conn, stream in stream_runs():
        cuts = sorted(set(data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=12))))
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            driver.received(conn, stream[start:end])
    assert {conn: bytes(raw) for conn, raw in driver.written.items()} == WHOLE_WRITTEN
    assert driver.dropped == WHOLE_DROPPED


def test_a_reader_that_takes_no_bytes_is_closed_at_the_cap_and_its_ringing_caller_gets_404s(
    monkeypatch, caplog
):
    monkeypatch.setattr(protocol_module, "MAX_OUTBOX_BYTES", 4096)
    driver = Driver()
    driver.received(A, REGISTER_A)
    driver.received(B, REGISTER_B)
    driver.stalled.add(A)
    proxy = driver.layer.proxy
    call_ids = []
    for i in range(20):  # about 700 bytes each: the cap falls within the first ten
        call_ids.append(f"call-{i}@local2.com")
        driver.received(B, invite_from_b(call_ids[-1]))
        if driver.dropped:
            break
    assert driver.dropped == [A]
    assert len(call_ids) > 1  # the ones before the cap were queued for A
    assert [(m.status_code, m.call_id) for m in driver.messages(B)[1:]] == [(404, c) for c in call_ids]
    assert {call.phase for call in proxy.calls.values()} == {Phase.TERMINATED}
    assert proxy.media.ports == {} and proxy.registrar.live_aors() == ["sip:ClientB@local2.com"]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and warnings[0].startswith("connection 1 holds ")


def test_an_unframeable_stream_is_closed_after_the_messages_framed_ahead_of_it(caplog):
    driver = Driver()
    driver.received(A, REGISTER_A + UNFRAMEABLE[:100])
    driver.received(A, UNFRAMEABLE[100:])
    assert [m.status_code for m in driver.messages(A)] == [200]
    assert driver.dropped == [A]
    assert A not in driver.layer.outboxes
    assert driver.layer.proxy.registrar.live_aors() == []
    logged = [(r.levelno, r.getMessage()) for r in caplog.records if r.levelno >= logging.WARNING]
    assert logged == [(logging.WARNING, "unframeable stream on connection 1, closing")]
    assert driver.layer.received(A, REGISTER_A, 2.0) is False  # a closed connection reads nothing more
    assert driver.layer.take_ready() == {}


# 83 body bytes that read as the start of a message: a stream that kept them
# after their head was handled would answer them as one.
BODY_83 = samples.sample_invite_body()[:83]


def register_b_with(head: bytes) -> bytes:
    """ClientB's REGISTER with ``head`` for its Content-Length line and BODY_83 for its body."""
    return REGISTER_B.replace(b"Content-Length: 0\r\n\r\n", head + b"\r\n\r\n" + BODY_83)


@pytest.mark.parametrize(
    "head", [b"Content-Length: abc", b"Content-Length: +83", b"Content-Length: 3\r\nContent-Length: 83"]
)
def test_a_content_length_that_cannot_be_read_closes_the_stream_and_nothing_after_it_is_answered(
    head, caplog
):
    driver = Driver()
    driver.received(B, register_b_with(head) + REGISTER_B)
    assert driver.dropped == [B]
    assert B not in driver.layer.outboxes and driver.written[B] == b""  # no 400 for BODY_83
    assert driver.layer.proxy.registrar.live_aors() == []
    # A valid message ahead of it in the same read is handled first; then that
    # read closes the stream, and the 200 queued for it goes with it.
    events = []
    driver.layer.proxy.set_event_hook(lambda event, detail: events.append((event, detail)))
    driver.received(A, REGISTER_A + register_b_with(head) + REGISTER_B)
    assert events == [
        ("registered", "sip:ClientA@local1.com on connection 1"),
        ("registration_dropped", "sip:ClientA@local1.com"),
    ]
    assert driver.dropped == [B, A]
    assert A not in driver.layer.outboxes and driver.written[A] == b""
    assert driver.layer.proxy.registrar.live_aors() == []
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        "unframeable stream on connection 2, closing",
        "unframeable stream on connection 1, closing",
    ]


@pytest.mark.parametrize("head", [b"l: 83", b"\xa0Content-Length: 83"])
def test_a_content_length_read_by_the_parsers_rule_frames_its_body(head):
    driver = Driver()
    driver.received(B, register_b_with(head) + REGISTER_B)
    assert driver.dropped == []
    assert [m.status_code for m in driver.messages(B)] == [200, 200]
    assert driver.layer.proxy.registrar.live_aors() == ["sip:ClientB@local2.com"]


def count_header_reads(monkeypatch) -> Counter:
    """Count each call, from here on, of the blank-line search and of the header-section pass."""
    calls = Counter()

    def count(name):
        real = getattr(sip_message, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(sip_message, name, counted)

    count("_header_end")
    count("_read_head")
    return calls


def test_each_header_section_is_read_once_from_stream_to_proxy(monkeypatch):
    # N whole messages in one read: N blank lines found, one search that finds
    # none, and one pass over each header section, which the parser is handed.
    apart = Driver()
    for _ in range(4):
        apart.received(A, REGISTER_A)
    calls = count_header_reads(monkeypatch)
    together = Driver()
    together.received(A, REGISTER_A * 4)
    assert calls == {"_header_end": 4 + 1, "_read_head": 4}
    assert together.written == apart.written
    assert [m.status_code for m in together.messages(A)] == [200] * 4


def test_a_message_whose_body_arrives_in_a_later_read_is_read_once(monkeypatch):
    invite = invite_from_b()
    cut = len(invite) - 10
    assert invite.index(b"\r\n\r\n") + 4 < cut  # inside the body
    whole = ringing_driver()
    split = Driver()
    split.received(A, REGISTER_A)
    split.received(B, REGISTER_B)
    registered = {conn: bytes(raw) for conn, raw in split.written.items()}
    calls = count_header_reads(monkeypatch)
    split.received(B, invite[:cut])
    assert split.written == registered
    split.received(B, invite[cut:])
    assert calls["_read_head"] == 1
    assert split.written == whole.written


def test_a_register_in_compact_forms_is_registered():
    driver = Driver()
    driver.received(A, samples.compact_register())
    (ok,) = driver.messages(A)
    assert (ok.status_code, ok.call_id, ok.contact) == (200, "reg-ClientA@local1.com", "<sip:ClientA@192.168.1.11>")
    assert driver.layer.proxy.registrar.live_aors() == ["sip:ClientA@local1.com"]


def test_sent_reports_a_connection_the_layer_closed():
    driver = Driver()
    driver.received(A, UNFRAMEABLE)
    assert driver.dropped == [A]
    assert driver.layer.sent(A, 0, 1.0) is False


def ringing_driver() -> Driver:
    """Both clients registered and ClientB's INVITE forwarded at 1.0, every outbox written."""
    driver = Driver()
    driver.received(A, REGISTER_A)
    driver.received(B, REGISTER_B)
    driver.received(B, invite_from_b())
    return driver


def test_a_tick_that_times_out_a_ringing_call_queues_the_408_for_its_caller():
    driver = ringing_driver()
    layer = driver.layer
    layer.tick(1.0 + INVITE_GUARD)
    assert layer.take_ready() == {B: None}
    assert [(m.status_code, m.reason, m.call_id) for m in messages(layer.outboxes[B])] == [
        (408, "Request Timeout", "call-1@local2.com")
    ]
    assert not layer.outboxes[A]


def test_a_tick_after_the_ringing_caller_closed_queues_nothing():
    driver = ringing_driver()
    layer = driver.layer
    layer.closed(B, 2.0)
    for now in (1.0 + INVITE_GUARD, 2.0 + INVITE_GUARD):  # the INVITE's deadline, then the end's
        layer.tick(now)
        assert layer.take_ready() == {}
        assert [bytes(outbox) for outbox in layer.outboxes.values()] == [b""]
    assert layer.proxy.calls == {}


def raise_once(monkeypatch, proxy, name, after):
    """Make the proxy input ``name`` run and then raise, once, on the call
    that follows ``after`` calls that return."""
    real = getattr(proxy, name)
    calls = []

    @functools.wraps(real)
    def run_then_raise(*args):
        output = real(*args)
        calls.append(args)
        if len(calls) > after:
            monkeypatch.setattr(proxy, name, real)
            raise RuntimeError("proxy bug")
        return output

    monkeypatch.setattr(proxy, name, run_then_raise)


def opened_raises(driver):
    driver.layer.opened(3, TransportAddress("6.6.6.6", 5060))
    driver.received(3, samples.make_register("ClientC", "local3.com", "172.16.0.1"))
    assert [m.status_code for m in driver.messages(3)] == [200]  # the connection stays open
    return 3


def message_raises(driver):
    """The second of three REGISTERs in one read raises, after the first one's 200 was queued."""
    driver.received(A, REGISTER_A * 3)
    assert driver.dropped == [A]
    # The queued 200 goes with the connection, and the third REGISTER with the rest of the read.
    assert [m.status_code for m in driver.messages(A)] == [200]
    return A


def close_raises(driver):
    driver.received(B, invite_from_b())
    driver.layer.closed(A, 2.0)
    driver.flush()
    assert [m.status_code for m in driver.messages(B)] == [200]  # its 404 is lost
    assert driver.layer.proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED
    return A


def datagram_raises(driver):
    assert driver.layer.datagram(40000, ("1.2.3.4", 5000), b"rtp") == []
    return 40000


def tick_raises(driver):
    driver.layer.tick(5.0)
    return 5.0


@pytest.mark.parametrize(
    "name, after, raises",
    [
        ("connection_opened", 0, opened_raises),
        ("handle_message", 1, message_raises),
        ("connection_closed", 0, close_raises),
        ("handle_media", 0, datagram_raises),
        ("tick", 0, tick_raises),
    ],
    ids=["opened", "message", "close", "datagram", "tick"],
)
def test_a_raising_proxy_input_is_logged_once_in_the_one_format(
    monkeypatch, service_errors, name, after, raises
):
    driver = Driver()
    driver.received(A, REGISTER_A)
    driver.received(B, REGISTER_B)
    raise_once(monkeypatch, driver.layer.proxy, name, after)
    first_argument = raises(driver)
    (record,) = service_errors
    assert record.name == "sipnat.protocol"
    assert record.getMessage() == f"proxy {name} failed on {first_argument}"
    assert record.exc_info[0] is RuntimeError and record.exc_info[2] is not None
    service_errors.clear()
    driver.received(B, REGISTER_B)  # the layer keeps serving
    assert driver.messages(B)[-1].status_code == 200
