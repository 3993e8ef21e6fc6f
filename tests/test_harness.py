import gc
import hashlib
import json
import tracemalloc
from dataclasses import replace

import pytest

import samples
from sipnat.harness import (
    MODES,
    InvalidScenario,
    Outcome,
    Scenario,
    ScriptMismatch,
    ScriptEvent,
    build_simulation,
    count_savings,
    default_script,
    execute_script,
    run_matrix,
    run_scenario,
)
from sipnat.nat import UDP, NatBox, NatConfig, NatType
from sipnat.net import TransportAddress
from sipnat.proxy import ProxyConfig, SipProxy
from sipnat.rtp import build_rtp, parse_rtp
from sipnat.simnet import DirectionStats, SimClient, SimNetwork, voice_payload
from sipnat.sip_message import Method, SipParseError, parse_message

SYM = NatType.SYMMETRIC
PRC = NatType.PORT_RESTRICTED_CONE


def scenario(nat_a=SYM, nat_b=SYM, script=None, **kwargs):
    return Scenario(nat_a=nat_a, nat_b=nat_b, script=script or default_script(20), **kwargs)


def test_adapted_symmetric_pair_full_delivery():
    report = run_scenario(scenario(seed=7))
    assert report.outcome is Outcome.MEDIA_OK
    for direction in report.rtp.values():
        assert direction.sent == 20
        assert direction.delivered == 20
        assert direction.payload_mismatches == 0
    for direction in report.rtcp.values():
        assert direction.delivered == direction.sent == 1


def test_naive_symmetric_pair_blocked():
    report = run_scenario(scenario(seed=7, mode="naive"))
    assert report.outcome is Outcome.MEDIA_BLOCKED
    for direction in report.rtp.values():
        assert direction.sent == 20
        assert direction.delivered == 0
    assert any(e["event"] == "unroutable" for e in report.events)


def run_keeping_session(s):
    """Run the scenario; return its context and the call's relay session,
    taken from the call before the script's final hangup releases it."""
    ctx = build_simulation(s)
    execute_script(ctx, replace(s, script=s.script[:-1]))
    session = ctx.proxy.calls[ctx.client_a.call_id].media
    execute_script(ctx, replace(s, script=s.script[-1:]))
    assert ctx.proxy.media.sessions == {}
    return ctx, session


def test_latched_addresses_equal_nat_mappings():
    ctx, session = run_keeping_session(scenario(seed=3))
    leg_a, leg_b = session.a, session.b
    proxy_ip = ctx.proxy.config.public_ip
    a_expected = ctx.client_a.nat.external_for(
        ctx.client_a.rtp_addr, TransportAddress(proxy_ip, leg_a.rtp.port)
    )
    b_expected = ctx.client_b.nat.external_for(
        ctx.client_b.rtp_addr, TransportAddress(proxy_ip, leg_b.rtp.port)
    )
    assert leg_a.rtp.latched == a_expected
    assert leg_b.rtp.latched == b_expected


def test_forwarding_from_wrong_proxy_port_is_blocked():
    ctx, session = run_keeping_session(scenario(seed=3))
    leg_b = session.b
    latched_b = leg_b.rtp.latched
    proxy_ip = ctx.proxy.config.public_ip
    now = ctx.net.now
    right_port = TransportAddress(proxy_ip, leg_b.rtp.port)
    wrong_port = TransportAddress(proxy_ip, leg_b.rtp.port + 10)
    assert ctx.client_b.nat.inbound(right_port, latched_b, now) == ctx.client_b.rtp_addr
    assert ctx.client_b.nat.inbound(wrong_port, latched_b, now) is None


def test_received_stamp_matches_nat_oracle():
    s = scenario(seed=3)
    ctx = build_simulation(s)
    execute_script(ctx, s)
    from sipnat.nat import TCP
    from sipnat.sip_message import Method, parse_message

    # The INVITE the callee saw carries the caller's NAT-translated source.
    invites = [
        parse_message(raw)
        for raw in ctx.client_b.raw_received
        if raw.startswith(b"INVITE")
    ]
    assert invites
    expected = ctx.client_a.nat.external_for(ctx.client_a.sip_addr, ctx.net.sip_addr, transport=TCP)
    assert invites[0].via.received == expected


def test_proxy_hears_of_a_signaling_address_only_when_it_changes():
    # The UDP bindings expire while idle, so the last REGISTERs leave from new ports.
    script = [
        ScriptEvent("register"),
        ScriptEvent("call"),
        ScriptEvent("hangup"),
        ScriptEvent("idle", seconds=120.0),
        ScriptEvent("register"),
    ]
    s = scenario(NatType.FULL_CONE, NatType.FULL_CONE, script=script, signaling="udp")
    ctx = build_simulation(s)
    opened = []
    connection_opened = ctx.proxy.connection_opened

    def record(conn, remote):
        opened.append((conn, remote))
        connection_opened(conn, remote)

    ctx.proxy.connection_opened = record
    execute_script(ctx, s)
    for client in (ctx.client_a, ctx.client_b):
        remotes = [remote for conn, remote in opened if conn == client.conn_id]
        assert len(remotes) == 2 and remotes[0] != remotes[1] == client.external
    assert sorted(e.actor for e in ctx.net.events if e.event == "connected") == ["client_a", "client_b"]


def test_latches_are_set_and_not_the_private_addresses():
    ctx, session = run_keeping_session(scenario(seed=3))
    for leg, client in ((session.a, ctx.client_a), (session.b, ctx.client_b)):
        latched = leg.rtp.latched
        assert latched is not None
        assert latched != client.rtp_addr


def test_relayed_media_to_an_expired_binding_is_blocked_at_the_nat():
    script = [ScriptEvent("register"), ScriptEvent("call"), ScriptEvent("talk", packets=3)]
    s = scenario(PRC, SYM, script=script, seed=1)
    ctx = build_simulation(s)
    ctx.client_b.nat.config.udp_binding_ttl = 30.0  # B's media binding expires while A is silent
    execute_script(ctx, s)
    assert ctx.client_a.rtp_out.delivered == 3
    ctx.net.schedule_at(40.0, lambda: ctx.client_a.send_rtp(3))
    ctx.net.run()
    blocked = [(e.actor, e.detail) for e in ctx.net.events if e.event == "media_blocked"]
    assert blocked == [("nat_b", "200.1.1.1:40002 -> 77.224.10.9:6003")]
    assert ctx.client_a.rtp_out.delivered == 3


def test_relayed_descriptions_only_name_proxy_ports():
    s = scenario(seed=3)
    ctx = build_simulation(s)
    execute_script(ctx, s)
    from sipnat.sdp import parse_sdp

    lo, hi = ctx.proxy.config.media_port_range
    received = ctx.client_a.raw_received + ctx.client_b.raw_received
    bodies = [msg.body for msg in map(parse_message, received) if msg.body]
    assert bodies
    for body in bodies:
        session = parse_sdp(body)
        assert session.connection_ip == ctx.proxy.config.public_ip
        assert lo <= session.media[0].port <= hi


def test_call_completes_after_120s_idle_on_tcp():
    script = [
        ScriptEvent("register"),
        ScriptEvent("idle", seconds=120),
        ScriptEvent("call", caller="a"),
        ScriptEvent("talk", packets=5, interval=0.02),
        ScriptEvent("hangup", caller="a"),
    ]
    report = run_scenario(scenario(script=script, seed=5))
    assert report.outcome is Outcome.MEDIA_OK
    assert report.rtp["a_to_b"].delivered == 5


def test_udp_signaling_blocked_after_idle():
    script = [
        ScriptEvent("register"),
        ScriptEvent("idle", seconds=120),
        ScriptEvent("call", caller="a"),
        ScriptEvent("talk", packets=5, interval=0.02),
        ScriptEvent("hangup", caller="a"),
    ]
    report = run_scenario(scenario(script=script, seed=5, signaling="udp"))
    assert report.outcome is Outcome.SIGNALING_BLOCKED
    assert any(e["event"] == "sig_blocked" for e in report.events)
    assert report.rtp["a_to_b"].delivered == 0


def test_a_message_the_proxy_raises_on_closes_its_connection_and_the_next_send_opens_it(
    monkeypatch, service_errors
):
    # The simulator's signaling runs behind the socket service's boundary: client a's
    # REGISTER raises, its connection closes, and its INVITE opens it again.
    handle_message = SipProxy.handle_message
    failed = []

    def raise_once(proxy, conn, raw, now, head=None):
        outbound = handle_message(proxy, conn, raw, now, head)
        if not failed:
            failed.append(conn)
            raise RuntimeError("proxy bug")
        return outbound

    raise_once.__name__ = "handle_message"
    monkeypatch.setattr(SipProxy, "handle_message", raise_once)
    report = run_scenario(scenario(script=default_script(5)))
    (record,) = service_errors
    assert record.getMessage() == "proxy handle_message failed on 1"
    service_errors.clear()
    assert ("proxy", "registration_dropped", "sip:ClientA@local1.com") in [
        (e["actor"], e["event"], e["detail"]) for e in report.events
    ]
    assert report.outcome is Outcome.MEDIA_OK


def test_signaling_address_rebound_to_the_same_port_is_announced_again():
    # A two-port NAT whose other port goes to a second host hands the expired
    # binding's port straight back on the next allocation.  The proxy
    # dropped the connection when a delivery to the old binding failed, so it
    # must hear of the address again to stamp 'received' on what follows.
    proxy = SipProxy(ProxyConfig(public_ip="203.0.113.1"))
    net = SimNetwork(proxy, sip_transport=UDP)
    nat = NatBox(NatConfig(SYM, "198.51.100.1", udp_binding_ttl=30.0, port_range=(5000, 5001)))
    client = SimClient(net, "a", "ClientA", "local1.com", nat, "192.168.1.11", 8000)
    client.register()
    net.run()
    first = TransportAddress("198.51.100.1", 5000)
    assert parse_message(client.raw_received[-1]).via.received == first
    nat.outbound(TransportAddress("192.168.1.12", 5060), net.sip_addr, net.now, transport=UDP)
    net.run(60.0)
    nat.expire(net.now)
    client.proxy_send(client.raw_received[-1])
    net.run()
    assert ("proxy", "registration_dropped", "sip:ClientA@local1.com") in [
        (e.actor, e.event, e.detail) for e in net.events
    ]
    client.register()
    net.run()
    reply = parse_message(client.raw_received[-1])
    assert reply.status_code == 200
    assert reply.via.received == first


def test_an_unparseable_delivery_is_logged_and_a_later_call_completes():
    s = scenario(script=default_script(5))
    ctx = build_simulation(s)
    execute_script(ctx, replace(s, script=s.script[:1]))  # register
    a, b = ctx.client_a, ctx.client_b
    garbage = b"NOT SIP AT ALL\r\n\r\n"
    with pytest.raises(SipParseError) as parsed:
        parse_message(garbage)
    counted, received = b.sip_messages, list(b.raw_received)
    b.proxy_send(garbage)
    ctx.net.run()
    last = ctx.net.events[-1]
    assert (last.actor, last.event, last.detail) == ("client_b", "sip_unparseable", str(parsed.value))
    assert (b.sip_messages, b.raw_received) == (counted, received)
    execute_script(ctx, replace(s, script=s.script[1:]))  # call, talk, hangup
    assert a.ever_established and b.ever_established
    assert [a.rtp_out, b.rtp_out] == [DirectionStats(sent=5, delivered=5)] * 2


def test_a_client_frames_a_delivery_that_carries_two_messages():
    """The proxy sends a client all it queued in one flush as one delivery:
    two replies queued together reach the client as two messages."""
    ctx = build_simulation(scenario())
    net, a = ctx.net, ctx.client_a
    a.register()
    net.run()
    counted, received = a.sip_messages, len(a.raw_received)
    net.protocol.received(a.conn_id, samples.make_register() * 2, net.now)
    net.flush_proxy()
    net.run()
    replies = [parse_message(raw) for raw in a.raw_received[received:]]
    assert [(r.status_code, r.cseq_method) for r in replies] == [(200, Method.REGISTER)] * 2
    assert a.sip_messages == counted + 2
    assert "sip_unparseable" not in [e.event for e in net.events]


def test_a_datagram_for_a_host_with_no_client_socket_is_logged_as_no_socket():
    # Second hosts behind nat_a, not clients: the full cone NAT delivers to
    # them, and the network has no socket there to hand a datagram to.  Two
    # listen on a's RTP and RTCP port numbers, so a's sockets are told apart
    # by host as well as by port.
    ctx = build_simulation(scenario(NatType.FULL_CONE, NatType.FULL_CONE))
    net, a, b = ctx.net, ctx.client_a, ctx.client_b
    ports = (5060, a.rtp_addr.port, a.rtcp_addr.port)
    hosts = [TransportAddress("192.168.1.12", port) for port in ports]
    for host in hosts:
        external = a.nat.outbound(host, net.sip_addr, net.now)
        net.send_from_client(b.nat, b.rtp_addr, external, b"stray")
    net.run()
    assert [(e.actor, e.event, e.detail) for e in net.events] == [
        ("nat_a", "no_socket", str(host)) for host in hosts
    ]
    assert [a.rtp_out, a.rtcp_out, b.rtp_out, b.rtcp_out] == [DirectionStats()] * 4


def test_idle_expires_every_clients_nat_bindings():
    # The extras' UDP signaling bindings go at the sweep, like a's and b's,
    # not only when a datagram next tries them.
    s = scenario(script=[ScriptEvent("register"), ScriptEvent("idle", seconds=61.0)],
                 signaling="udp", extra_clients=2)
    ctx = build_simulation(s)
    execute_script(ctx, s)
    assert [client.nat.bindings for client in ctx.clients] == [[]] * 4


def test_a_second_client_behind_one_nat_is_refused():
    ctx = build_simulation(scenario())
    with pytest.raises(ValueError, match="68.92.25.44"):
        SimClient(ctx.net, "c", "ClientC", "local3.com", ctx.client_a.nat, "192.168.1.12", 8000)


def test_udp_signaling_works_without_idle():
    report = run_scenario(scenario(seed=5, signaling="udp", script=default_script(5)))
    assert report.outcome is Outcome.MEDIA_OK


def test_signaling_ladder_survives_long_idle_even_without_relay():
    # TCP persistence is a signaling property; it must hold with the media
    # controller disabled too.
    script = [
        ScriptEvent("register"),
        ScriptEvent("idle", seconds=90),
        ScriptEvent("call", caller="b"),
        ScriptEvent("hangup", caller="b"),
    ]
    report = run_scenario(scenario(script=script, seed=8, mode="naive"))
    assert any(e["event"] == "call_established" for e in report.events)
    assert not any(e["event"] == "sig_blocked" for e in report.events)


def test_reports_are_deterministic():
    s = scenario(seed=11)
    first = run_scenario(s).to_json()
    second = run_scenario(s).to_json()
    assert first == second
    different_seed = run_scenario(replace(s, seed=12)).to_json()
    assert json.loads(different_seed)["outcome"] == "media_ok"


# sha256 over the JSON reports of every signaling transport x mode x NAT
# pairing, default_script(20), seed 3.  Any change to what a report says, or
# to the order of its events, changes it; a change that means to alter the
# reports must update it and say why.
PINNED_REPORTS_SHA256 = "9ed7c8823e9dd1e6d4d9c92ec7681d0dd6b7878e7a23044bdeff3473b4e163bf"


def test_reports_match_the_pinned_bytes():
    digest = hashlib.sha256()
    for signaling in ("tcp", "udp"):
        for mode in MODES:
            for nat_a in NatType:
                for nat_b in NatType:
                    s = scenario(nat_a, nat_b, default_script(20), seed=3, mode=mode, signaling=signaling)
                    digest.update(run_scenario(s).to_json().encode())
    assert digest.hexdigest() == PINNED_REPORTS_SHA256


# sha256 over the JSON reports of seeds 0-7 x mode x NAT pairing,
# default_script(60), in that loop order: the matrix the benchmark runs, over
# more seeds and longer talks than the pin above.
PINNED_SEED_MATRIX_SHA256 = "9843adb90739a6e792702427c0fd02914d3b67d8276b3195573c0ad58bff301c"


def test_seed_matrix_reports_match_the_pinned_bytes():
    digest = hashlib.sha256()
    for seed in range(8):
        for mode in MODES:
            for nat_a in NatType:
                for nat_b in NatType:
                    s = Scenario(nat_a, nat_b, default_script(60), seed=seed, mode=mode)
                    digest.update(run_scenario(s).to_json().encode())
    assert digest.hexdigest() == PINNED_SEED_MATRIX_SHA256


# The pins above run no idle step and meet no expired binding.  This set
# does: every talk is (interval in seconds, packets) from _EXPIRY_TALKS, the
# 61 s idle outlives every UDP binding and, at 45 s, the TCP ones, and
# scenarios cycle through UDP TTLs, TCP idle TTLs and an extra client.
_EXPIRY_TALKS = ((0.001, 0), (0.002, 1), (0.003, 7), (0.020, 2))
_EXPIRY_PAIRINGS = (
    (NatType.FULL_CONE, NatType.SYMMETRIC),
    (NatType.SYMMETRIC, NatType.SYMMETRIC),
    (NatType.PORT_RESTRICTED_CONE, NatType.RESTRICTED_CONE),
    (NatType.RESTRICTED_CONE, NatType.FULL_CONE),
)
# sha256 over the JSON reports of _expiry_scenarios(), in order.
PINNED_EXPIRY_REPORTS_SHA256 = "7e8b89506ba4a3c6f8bdb21a1c3b4149b1d606aa8c947f07082e5b8b73548862"


def _expiry_script(interval, packets):
    def talk(n):
        return ScriptEvent("talk", packets=n, interval=interval)

    return [
        ScriptEvent("register"),
        ScriptEvent("idle", seconds=2.5),
        ScriptEvent("call", caller="b"),
        talk(packets),
        ScriptEvent("idle", seconds=61.0),
        talk(packets),
        ScriptEvent("hangup", caller="b"),
        ScriptEvent("idle", seconds=40.0),
        ScriptEvent("register"),
        ScriptEvent("call", caller="a"),
        talk(3),
    ]


def _expiry_scenarios():
    i = 0
    for signaling in ("tcp", "udp"):
        for mode in MODES:
            for nat_a, nat_b in _EXPIRY_PAIRINGS:
                for interval, packets in _EXPIRY_TALKS:
                    yield Scenario(
                        nat_a,
                        nat_b,
                        _expiry_script(interval, packets),
                        seed=i,
                        mode=mode,
                        signaling=signaling,
                        udp_binding_ttl=(30.0, 60.0)[i % 2],
                        tcp_idle_ttl=(45.0, None)[i // 2 % 2],
                        extra_clients=i // 3 % 2,
                    )
                    i += 1


def test_expiry_reports_match_the_pinned_bytes():
    digest = hashlib.sha256()
    seen = set()
    for s in _expiry_scenarios():
        report = run_scenario(s)
        digest.update(report.to_json().encode())
        seen.update(e["event"] for e in report.events)
    # The paths the first pin misses; the set must keep reaching them.
    assert {"sig_blocked", "registration_dropped", "media_dropped"} <= seen
    assert digest.hexdigest() == PINNED_EXPIRY_REPORTS_SHA256


# Talks whose steps fall at the same virtual times as relayed packets, so the
# order of a step against a datagram due at its own time matters.  The report
# logs no delivered packet, so the test records its own trace of every RTP
# send and receipt, (clock, client, "send" or "recv", sequence number), and
# hashes it after each report.  The 1e-19 s interval is below the clock's
# resolution after setup: every step of a talk falls at one time, and both
# RTCP reports follow all of them.  sha256 over the JSON reports and traces
# of the intervals x mode x NAT pairing, seed 3.
@pytest.mark.parametrize(
    "intervals, pinned",
    [
        pytest.param(
            (0.0005, 0.001, 0.002, 0.003, 0.02),
            "6efa3b614b21d4bbaf9a4a4da9362ef7d175123d66486ffd84582b0f32249332",
            id="mixed",
        ),
        pytest.param(
            (1e-19,),
            "9d4799b4c988de0d64a6b78756aee950fcdae6cb5a8f9aaa9240479cc5975ad6",
            id="one_instant",
        ),
    ],
)
def test_short_interval_reports_match_the_pinned_bytes(intervals, pinned, monkeypatch):
    trace = []
    send_rtp, on_rtp_datagram = SimClient.send_rtp, SimClient._on_rtp_datagram

    def traced_send_rtp(client, seq):
        trace.append((client.net.now, client.name, "send", seq))
        send_rtp(client, seq)

    def traced_on_rtp_datagram(client, src, data):
        trace.append((client.net.now, client.name, "recv", parse_rtp(data).sequence))
        on_rtp_datagram(client, src, data)

    monkeypatch.setattr(SimClient, "send_rtp", traced_send_rtp)
    monkeypatch.setattr(SimClient, "_on_rtp_datagram", traced_on_rtp_datagram)
    digest = hashlib.sha256()
    for interval in intervals:
        script = [
            ScriptEvent("register"),
            ScriptEvent("call", caller="a"),
            ScriptEvent("talk", packets=40, interval=interval),
            ScriptEvent("idle", seconds=2.0),
            ScriptEvent("talk", packets=7, interval=interval),
            ScriptEvent("hangup", caller="a"),
        ]
        for mode in MODES:
            for nat_a in NatType:
                for nat_b in NatType:
                    s = Scenario(nat_a, nat_b, script, seed=3, mode=mode)
                    digest.update(run_scenario(s).to_json().encode())
                    digest.update(json.dumps(trace).encode())
                    trace.clear()
    assert digest.hexdigest() == pinned


# The report pins log only each message's method, URI and Call-ID; this one
# pins every byte the clients send.  Two calls, one placed and hung up by
# each side, so each client sends every request it can build, under every
# signaling transport x mode x NAT pairing with 0 or 3 extra clients, seed
# 5, then one scenario with the most extra clients.  sha256 over each
# (connection, clock, bytes) SipProxy.handle_message received and each
# (connection, bytes) it returned, in order.
PINNED_WIRE_SHA256 = "9c07c1cf1dd10095de280035e23b929a34839764184e52f8e10e6d22339f0ee9"


def _wire_scenarios():
    script = [
        ScriptEvent("register"),
        ScriptEvent("call", caller="a"),
        ScriptEvent("talk", packets=1),
        ScriptEvent("hangup", caller="a"),
        ScriptEvent("call", caller="b"),
        ScriptEvent("hangup", caller="a"),
        ScriptEvent("register"),
    ]
    for signaling in ("tcp", "udp"):
        for mode in MODES:
            for nat_a in NatType:
                for nat_b in NatType:
                    for extra_clients in (0, 3):
                        yield Scenario(
                            nat_a,
                            nat_b,
                            script,
                            seed=5,
                            mode=mode,
                            signaling=signaling,
                            extra_clients=extra_clients,
                        )
    yield Scenario(SYM, PRC, script, seed=6, extra_clients=255)


def test_wire_bytes_match_the_pinned_bytes(monkeypatch):
    digest = hashlib.sha256()
    handle_message = SipProxy.handle_message

    def hashed_handle_message(proxy, conn, raw, now, head=None):
        digest.update(repr((conn, now, raw)).encode())
        outbound = handle_message(proxy, conn, raw, now, head)
        digest.update(repr(outbound).encode())
        return outbound

    monkeypatch.setattr(SipProxy, "handle_message", hashed_handle_message)
    for s in _wire_scenarios():
        run_scenario(s)
    assert digest.hexdigest() == PINNED_WIRE_SHA256


def run_recording_queue_high_water(s):
    """Run the scenario; return its context and the longest the queue grew,
    read after every ``schedule_at``."""
    ctx = build_simulation(s)
    net = ctx.net
    high = 0
    schedule_at = net.schedule_at

    def recording_schedule_at(when, fn):
        nonlocal high
        schedule_at(when, fn)
        high = max(high, len(net._queue))

    net.schedule_at = recording_schedule_at
    execute_script(ctx, s)
    return ctx, high


def test_talk_queue_does_not_grow_with_talk_length():
    ctx, high = run_recording_queue_high_water(scenario(script=default_script(2000)))
    assert ctx.client_a.rtp_out.delivered == 2000
    assert high <= 8


def test_idle_queue_does_not_grow_with_idle_length():
    script = [ScriptEvent("register"), ScriptEvent("idle", seconds=5000.0)]
    ctx, high = run_recording_queue_high_water(scenario(script=script))
    # The sweeps ran: both registrations expired while the clients were idle.
    assert sum(e.event == "registration_expired" for e in ctx.net.events) == 2
    assert high <= 8


def test_a_delivered_packet_adds_no_log_entry():
    short, long = (run_scenario(scenario(script=default_script(n))) for n in (1, 2000))
    assert short.outcome is long.outcome is Outcome.MEDIA_OK
    assert long.rtp["a_to_b"].delivered == 2000
    assert len(long.log) == len(short.log)


def test_addresses_built_do_not_grow_with_talk_length(monkeypatch):
    # Counted as the benchmark's tracer counts them: by wrapping the validator.
    built = 0
    validate = TransportAddress.__dict__["__post_init__"]

    def counted(address):
        nonlocal built
        built += 1
        validate(address)

    monkeypatch.setattr(TransportAddress, "__post_init__", counted)
    counts = []
    for packets in (20, 2000):
        built = 0
        assert run_scenario(scenario(script=default_script(packets))).outcome is Outcome.MEDIA_OK
        counts.append(built)
    assert counts[0] == counts[1] > 0


def traced_peak_bytes(s):
    """The most memory Python held at once while ``run_scenario(s)`` ran."""
    tracemalloc.start()
    try:
        run_scenario(s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_talk_memory_does_not_grow_with_talk_length():
    # Every packet only adds to its direction's counts: nothing is kept per packet.
    short = traced_peak_bytes(scenario(script=default_script(256)))
    long = traced_peak_bytes(scenario(script=default_script(4096)))
    assert long < short + 32 * 1024


def test_a_payload_the_peer_did_not_build_counts_one_mismatch_and_one_delivery():
    ctx = build_simulation(scenario())
    a, b = ctx.client_a, ctx.client_b
    relay = TransportAddress("200.1.1.1", 40002)

    def arrive_at_b(seq, payload):
        b._on_rtp_datagram(relay, build_rtp(0, seq, seq * 160, a.ssrc, payload))
        return a.rtp_out.delivered, a.rtp_out.payload_mismatches

    assert arrive_at_b(7, voice_payload(a.voice_name, 7)) == (1, 0)
    assert arrive_at_b(7, b"not a voice payload") == (2, 1)
    assert arrive_at_b(7, voice_payload(b.voice_name, 7)) == (3, 2)  # b's own packet, reflected
    assert arrive_at_b(8, voice_payload(a.voice_name, 7)) == (4, 3)  # a's payload, wrong sequence
    b._on_rtp_datagram(relay, b"\x80\x00 short")  # not RTP: counted neither way
    assert (a.rtp_out.delivered, a.rtp_out.payload_mismatches) == (4, 3)
    assert a.rtp_out.sent == 0 and b.rtp_out == DirectionStats()


def test_the_clock_refuses_a_time_before_it_and_keeps_its_queue():
    net = SimNetwork(SipProxy(ProxyConfig(public_ip="203.0.113.1")))
    ran = []
    net.schedule_at(5.0, lambda: ran.append(net.now))
    net.run(3.0)
    with pytest.raises(ValueError, match="before the clock"):
        net.schedule_at(2.0, lambda: ran.append("late"))
    with pytest.raises(ValueError, match="before the clock"):
        net.run(2.0)
    with pytest.raises(ValueError, match="before the clock"):
        net.run(float("nan"))  # no comparison with a NaN is true: it would never end
    assert net.now == 3.0 and ran == []
    net.run()
    assert ran == [5.0]


def recording_sweeps(net):
    """Make ``net``'s sweeps append ("sweep", time) to the list returned."""
    order = []
    net.protocol.tick = lambda now: order.append(("sweep", now))
    return order


def test_the_clock_sweeps_at_every_whole_second_before_until_even_with_an_empty_queue():
    net = SimNetwork(SipProxy(ProxyConfig(public_ip="203.0.113.1")))
    order = recording_sweeps(net)
    net.run(3.5)
    assert order == [("sweep", 1.0), ("sweep", 2.0), ("sweep", 3.0)] and net.now == 3.5
    net.run(4.0)  # a sweep due at until waits for the next call
    assert len(order) == 3 and net.now == 4.0
    net.run(4.5)
    assert order[3:] == [("sweep", 4.0)] and net.now == 4.5


def test_an_event_queued_for_a_sweeps_second_runs_after_that_sweep():
    net = SimNetwork(SipProxy(ProxyConfig(public_ip="203.0.113.1")))
    order = recording_sweeps(net)
    net.schedule_at(2.0, lambda: order.append(("event", net.now)))
    net.schedule_at(1.5, lambda: order.append(("event", net.now)))
    net.run()  # a drain sweeps while events remain and stops at the last one
    assert order == [("sweep", 1.0), ("event", 1.5), ("sweep", 2.0), ("event", 2.0)]
    assert net.now == 2.0


def test_a_drain_with_an_empty_queue_neither_sweeps_nor_moves_the_clock():
    net = SimNetwork(SipProxy(ProxyConfig(public_ip="203.0.113.1")))
    order = recording_sweeps(net)
    net.run()
    assert order == [] and net.now == 0.0
    net.run(2.5)
    net.run()
    assert order == [("sweep", 1.0), ("sweep", 2.0)] and net.now == 2.5


def test_the_proxys_timers_run_during_a_talk():
    # An hour's talk outlives both registrations (3600 s, made at 0.002 s):
    # the clock's sweep at 3601 drops them mid-talk, and the media, relayed
    # on ports the call holds, still gets through.
    script = [
        ScriptEvent("register"),
        ScriptEvent("call", caller="a"),
        ScriptEvent("talk", packets=37_000, interval=0.1),
        ScriptEvent("hangup", caller="a"),
    ]
    report = run_scenario(scenario(NatType.FULL_CONE, SYM, script=script))
    expired = [(e["time"], e["detail"]) for e in report.events if e["event"] == "registration_expired"]
    assert expired == [(3601.0, "sip:ClientA@local1.com"), (3601.0, "sip:ClientB@local2.com")]
    assert report.outcome is Outcome.MEDIA_OK


def test_a_finished_scenario_is_freed_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        report = run_scenario(scenario(script=default_script(200)))
        assert report.outcome is Outcome.MEDIA_OK
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_delivered_never_exceeds_sent():
    for mode in ("adapted", "naive"):
        report = run_scenario(scenario(seed=2, mode=mode, script=default_script(8)))
        for direction in report.rtp.values():
            assert direction.delivered <= direction.sent


def test_sip_message_count_for_default_script():
    report = run_scenario(scenario(seed=1, script=default_script(3)))
    # REGISTER+200 for each client, INVITE/200/ACK and BYE/200 each crossing
    # twice (client->proxy, proxy->client): 4 + 6 + 4 = 14 client messages.
    assert report.sip_messages == 14


def test_pool_returns_to_initial_state_after_hangup():
    s = scenario(seed=4, script=default_script(4))
    ctx = build_simulation(s)
    initial = ctx.proxy.media.pool.free_pairs()
    execute_script(ctx, s)
    assert ctx.proxy.media.pool.free_pairs() == initial


def test_media_conservation_per_leg():
    _, session = run_keeping_session(scenario(seed=4, script=default_script(6)))
    for leg in (session.a, session.b):
        port = leg.rtp
        assert port.received == port.forwarded + port.flushed + port.dropped
        assert not port.buffer


# -- allocation accounting -----------------------------------------------------


def test_no_client_visible_allocation_exchange():
    report = run_scenario(scenario(seed=1))
    client_events = [
        e for e in report.events if e["actor"].startswith("client_")
        and e["event"] in ("sip_sent", "sip_received")
    ]
    assert client_events
    for entry in client_events:
        assert "alloc" not in entry["detail"].lower()
        assert entry["detail"].split(" ")[0] in ("REGISTER", "INVITE", "ACK", "BYE", "200", "404", "481", "400", "503")
    assert report.allocation_transactions == 0


def test_a_report_reads_mode_seed_and_digest_from_its_scenario():
    s = scenario(seed=3, mode="baseline", script=default_script(5))
    report = run_scenario(s)
    assert report.scenario is s
    assert "script_digest" not in vars(report)  # not computed until read
    expected = (s.mode, s.seed, s.script_digest())
    assert (report.mode, report.seed, report.script_digest) == expected
    data = report.to_dict()
    assert (data["mode"], data["seed"], data["script_digest"]) == expected


def test_count_savings_two_client_call():
    s = scenario(seed=1)
    adapted = run_scenario(s)
    baseline = run_scenario(replace(s, mode="baseline"))
    assert adapted.allocation_transactions == 0
    assert baseline.allocation_transactions == 4
    assert count_savings(adapted, baseline) == 4


def test_count_savings_self_difference_zero():
    s = scenario(seed=1)
    assert count_savings(run_scenario(s), run_scenario(s)) == 0


def test_count_savings_script_mismatch():
    adapted = run_scenario(scenario(seed=1, script=default_script(5)))
    baseline = run_scenario(scenario(seed=1, script=default_script(6), mode="baseline"))
    with pytest.raises(ScriptMismatch):
        count_savings(adapted, baseline)


def test_count_savings_scales_with_client_count():
    for extra in (1, 2):
        n = 2 + extra
        s = scenario(seed=1, extra_clients=extra)
        adapted = run_scenario(s)
        baseline = run_scenario(replace(s, mode="baseline"))
        assert count_savings(adapted, baseline) == 2 * n
        accounted = [
            e for e in baseline.events if e["event"] == "baseline_allocations_assumed"
        ]
        assert len(accounted) == n


# -- matrix ----------------------------------------------------------------------


def test_matrix_adapted_all_ok_naive_restrictive_blocked():
    summary, failures = run_matrix(["adapted", "naive"], seed=0, packets=4)
    assert failures == []
    assert len(summary["adapted"]) == 16
    for result in summary["adapted"].values():
        assert result["outcome"] == "media_ok"
    restrictive = {"symmetric", "port_restricted_cone"}
    for key, result in summary["naive"].items():
        a, b = key.split("+")
        if a in restrictive and b in restrictive:
            assert result["outcome"] == "media_blocked"


# -- scenario validation -----------------------------------------------------------


def test_scenario_json_round_trip():
    s = scenario(seed=9, script=default_script(5), extra_clients=1)
    again = Scenario.from_json(json.dumps(s.to_dict()))
    assert again.to_dict() == s.to_dict()
    assert again.script_digest() == s.script_digest()


@pytest.mark.parametrize(
    "data",
    [
        {"nat_a": "carton", "nat_b": "symmetric", "script": [{"event": "register"}]},
        {"nat_a": "symmetric", "nat_b": "symmetric", "script": []},
        {"nat_a": "symmetric", "nat_b": "symmetric", "script": [{"event": "warp"}]},
        {"nat_a": "symmetric", "nat_b": "symmetric", "script": [{"event": "idle"}]},
        {"nat_a": "symmetric", "nat_b": "symmetric", "script": [{"event": "register"}], "mode": "x"},
        {"nat_a": "symmetric", "nat_b": "symmetric", "script": [{"event": "register"}], "udp_binding_ttl": 0},
    ],
)
def test_invalid_scenarios_rejected(data):
    with pytest.raises(InvalidScenario):
        Scenario.from_dict(data)


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "idle", "seconds": float("inf")},
        {"kind": "idle", "seconds": float("nan")},
        {"kind": "idle", "seconds": True},
        {"kind": "idle", "seconds": 86400.5},
        {"kind": "idle", "seconds": 1e12},
        {"kind": "talk", "packets": 65537},
        {"kind": "talk", "packets": True},
        {"kind": "talk", "interval": float("nan")},
        {"kind": "talk", "interval": float("inf")},
        {"kind": "talk", "packets": 2, "interval": 43_200.5},  # a day and a second
        {"kind": "call", "caller": "c"},
        {"kind": "warp"},
    ],
)
def test_script_events_are_checked_however_they_are_built(fields):
    with pytest.raises(InvalidScenario):
        ScriptEvent(**fields)


def test_script_event_limits_are_inclusive():
    assert ScriptEvent("talk", packets=65536).packets == 65536
    assert ScriptEvent("talk", packets=0).packets == 0
    assert ScriptEvent("idle", seconds=0).seconds == 0.0
    assert ScriptEvent("idle", seconds=86400).seconds == 86400.0
    assert ScriptEvent("talk", packets=2, interval=43_200.0).interval == 43_200.0


@pytest.mark.parametrize(
    "fields",
    [
        {"udp_binding_ttl": float("nan")},
        {"udp_binding_ttl": float("inf")},
        {"udp_binding_ttl": True},
        {"tcp_idle_ttl": float("nan")},
        {"tcp_idle_ttl": float("inf")},
        {"tcp_idle_ttl": False},
        {"seed": True},
    ],
)
def test_scenario_fields_are_checked_however_they_are_built(fields):
    with pytest.raises(InvalidScenario):
        scenario(**fields)


def test_invalid_json_rejected():
    with pytest.raises(InvalidScenario):
        Scenario.from_json("{nope")
