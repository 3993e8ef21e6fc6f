"""Acceptance gate: every shipped guarantee, checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
from dataclasses import replace

import samples
from sipnat.harness import (
    Outcome,
    Scenario,
    ScriptEvent,
    build_simulation,
    count_savings,
    default_script,
    execute_script,
    run_matrix,
    run_scenario,
)
from sipnat.nat import NatBox, NatConfig, NatType
from sipnat.net import TransportAddress
from sipnat.proxy import ProxyConfig, SipProxy
from sipnat.rtp import RtpParseError, build_rtp, parse_rtp
from sipnat.sdp import SdpParseError, parse_sdp, rewrite_media, serialize_sdp
from sipnat.sip_message import (
    SipParseError,
    build_response,
    parse_message,
    serialize_message,
)

LOCAL = TransportAddress("192.168.1.11", 5600)
NEIGHBOR = TransportAddress("222.212.69.5", 5600)
NEIGHBOR_OTHER_PORT = TransportAddress("222.212.69.5", 3560)
STRANGER = TransportAddress("222.250.16.2", 4000)


def make_nat(nat_type, **kwargs):
    return NatBox(
        NatConfig(
            nat_type=nat_type, public_ip="68.92.25.44", port_range=(4325, 4424), **kwargs
        ),
        seed=0,
    )


def rule_oracle(nat_type, history, source, binding_dest):
    if nat_type is NatType.FULL_CONE:
        return True
    if nat_type is NatType.RESTRICTED_CONE:
        return source.ip in {d.ip for d in history}
    if nat_type is NatType.PORT_RESTRICTED_CONE:
        return source in set(history)
    return source == binding_dest


def test_criterion_1_nat_semantics_matrix():
    started = time.perf_counter()
    ips = ["222.212.69.5", "222.250.16.2"] + [f"10.7.{i}.{i + 1}" for i in range(18)]
    ports = [5600, 3560, 9999] + list(range(2100, 2117))
    grid = [TransportAddress(ip, port) for ip in ips for port in ports]
    assert len(grid) >= 400
    histories = [
        [NEIGHBOR],
        [NEIGHBOR, NEIGHBOR_OTHER_PORT],
        [NEIGHBOR, TransportAddress("130.1.1.1", 700)],
    ]
    checked = 0
    for history in histories:
        for nat_type in NatType:
            nat = make_nat(nat_type)
            external = nat.outbound(LOCAL, history[0], now=0.0)
            for dest in history[1:]:
                nat.outbound(LOCAL, dest, now=0.0)
            for source in grid:
                got = nat.inbound(source, external, now=1.0)
                expected = LOCAL if rule_oracle(nat_type, history, source, history[0]) else None
                assert got == expected, (nat_type, history, source)
                checked += 1
    assert checked == len(grid) * len(histories) * 4

    # Concrete examples: mapping to 68.92.25.44:4325 delivers from anywhere;
    # unknown-source IP is blocked by the restricted cone; known IP but
    # different port is blocked by the port restricted cone.
    full = make_nat(NatType.FULL_CONE)
    mapped = full.outbound(LOCAL, NEIGHBOR, now=0.0)
    assert mapped == TransportAddress("68.92.25.44", 4325)
    assert full.inbound(STRANGER, mapped, now=1.0) == LOCAL

    restricted = make_nat(NatType.RESTRICTED_CONE)
    mapped = restricted.outbound(LOCAL, NEIGHBOR, now=0.0)
    assert restricted.inbound(STRANGER, mapped, now=1.0) is None
    assert restricted.inbound(TransportAddress("222.212.69.5", 9999), mapped, now=1.0) == LOCAL

    port_restricted = make_nat(NatType.PORT_RESTRICTED_CONE)
    mapped = port_restricted.outbound(LOCAL, NEIGHBOR, now=0.0)
    assert port_restricted.inbound(NEIGHBOR_OTHER_PORT, mapped, now=1.0) is None
    assert port_restricted.inbound(NEIGHBOR, mapped, now=1.0) == LOCAL

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"matrix took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 PASS - NAT semantics matrix ({checked} grid checks, {elapsed:.3f}s)")


def test_criterion_2_expiry_boundaries():
    nat = make_nat(NatType.PORT_RESTRICTED_CONE)
    mapped = nat.outbound(LOCAL, NEIGHBOR, now=0.0)
    assert nat.inbound(NEIGHBOR, mapped, now=59.0) == LOCAL  # idle 59 s: alive

    nat = make_nat(NatType.PORT_RESTRICTED_CONE)
    mapped = nat.outbound(LOCAL, NEIGHBOR, now=0.0)
    assert nat.inbound(NEIGHBOR, mapped, now=60.0) is None  # idle exactly 60 s: gone

    nat = make_nat(NatType.PORT_RESTRICTED_CONE)
    mapped = nat.outbound(LOCAL, NEIGHBOR, now=0.0)
    nat.expire(now=61.0)
    assert nat.inbound(NEIGHBOR, mapped, now=61.0) is None  # idle 61 s: gone

    # A 59 s keepalive sustains the binding through 10 cycles.
    nat = make_nat(NatType.PORT_RESTRICTED_CONE)
    mapped = nat.outbound(LOCAL, NEIGHBOR, now=0.0)
    now = 0.0
    for _ in range(10):
        now += 59.0
        assert nat.outbound(LOCAL, NEIGHBOR, now=now) == mapped
    assert nat.inbound(NEIGHBOR, mapped, now=now + 59.9) == LOCAL
    print("ACCEPTANCE 2 PASS - UDP binding expiry at the exact 60 s boundary")


def test_criterion_3_signaling_persistence():
    script = [
        ScriptEvent("register"),
        ScriptEvent("idle", seconds=120),
        ScriptEvent("call", caller="b"),
        ScriptEvent("talk", packets=5, interval=0.02),
        ScriptEvent("hangup", caller="b"),
    ]
    base = Scenario(nat_a=NatType.SYMMETRIC, nat_b=NatType.SYMMETRIC, script=script, seed=2)

    adapted = run_scenario(base)
    assert adapted.outcome is Outcome.MEDIA_OK
    assert any(e["event"] == "call_established" for e in adapted.events)

    udp = run_scenario(replace(base, signaling="udp"))
    assert udp.outcome is Outcome.SIGNALING_BLOCKED
    assert any(e["event"] == "sig_blocked" for e in udp.events)
    print("ACCEPTANCE 3 PASS - INVITE delivered 120 s after registration over TCP;"
          " UDP-modeled signaling is blocked")


def test_criterion_4_media_traversal_matrix():
    started = time.perf_counter()
    summary, failures = run_matrix(["adapted"], seed=0, packets=50)
    assert failures == []
    for key, result in summary["adapted"].items():
        assert result["outcome"] == "media_ok", key
        for direction in result["rtp"].values():
            assert direction["sent"] == 50
            assert direction["delivered"] == 50
            assert direction["payload_mismatches"] == 0

    naive = run_scenario(
        Scenario(
            nat_a=NatType.SYMMETRIC, nat_b=NatType.SYMMETRIC,
            script=default_script(50), seed=0, mode="naive",
        )
    )
    assert naive.outcome is Outcome.MEDIA_BLOCKED
    assert naive.rtp["a_to_b"].delivered == 0
    assert naive.rtp["b_to_a"].delivered == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"matrix took {elapsed:.3f}s"
    print(f"ACCEPTANCE 4 PASS - media relayed for all 16 pairings at 100% ({elapsed:.2f}s)")


def test_criterion_5_allocation_elimination():
    base = Scenario(
        nat_a=NatType.SYMMETRIC, nat_b=NatType.SYMMETRIC, script=default_script(10), seed=1
    )
    adapted = run_scenario(base)
    baseline = run_scenario(replace(base, mode="baseline"))
    assert adapted.allocation_transactions == 0
    assert baseline.allocation_transactions == 4  # two per client
    assert count_savings(adapted, baseline) == 4
    client_signaling = [
        e["detail"] for e in adapted.events
        if e["actor"].startswith("client_") and e["event"] in ("sip_sent", "sip_received")
    ]
    assert client_signaling and all("alloc" not in d.lower() for d in client_signaling)
    print("ACCEPTANCE 5 PASS - 4 allocation transactions eliminated per two-client call")


def test_criterion_6_rewrite_fidelity():
    proxy = SipProxy(ProxyConfig(public_ip="200.1.1.1", media_port_range=(40000, 40099)))
    a_conn, b_conn = 1, 2
    proxy.connection_opened(a_conn, TransportAddress("68.92.25.44", 4325))
    proxy.connection_opened(b_conn, TransportAddress("77.224.10.9", 6001))
    proxy.handle_message(a_conn, samples.make_register("ClientA", "local1.com", "192.168.1.11"), 0.0)
    proxy.handle_message(b_conn, samples.make_register("ClientB", "local2.com", "10.0.0.4"), 0.0)

    outbound = proxy.handle_message(a_conn, samples.sample_invite(), 1.0)
    (conn, raw), = outbound
    assert conn == b_conn
    forwarded_offer = parse_message(raw).body
    _assert_only_connection_and_media_lines_changed(
        samples.sample_invite_body(), forwarded_offer, proxy
    )

    answer = build_response(
        parse_message(raw), 200, "OK",
        body=samples.sample_answer_body(), content_type="application/sdp",
        contact="sip:ClientB@10.0.0.4",
    )
    (conn, raw2), = proxy.handle_message(b_conn, serialize_message(answer), 1.1)
    assert conn == a_conn
    forwarded_answer = parse_message(raw2).body
    _assert_only_connection_and_media_lines_changed(
        samples.sample_answer_body(), forwarded_answer, proxy
    )
    print("ACCEPTANCE 6 PASS - rewrites touch exactly the c= and m= lines,"
          " pointing at proxy pool ports")


def _assert_only_connection_and_media_lines_changed(original, emitted, proxy):
    written = original.decode().splitlines(keepends=True)
    rewritten = emitted.decode().splitlines(keepends=True)
    assert len(written) == len(rewritten)
    changed = [(b, a) for b, a in zip(written, rewritten) if b != a]
    assert len(changed) == 2
    assert changed[0][0].startswith("c=") and changed[0][1].startswith("c=")
    assert changed[1][0].startswith("m=") and changed[1][1].startswith("m=")
    session = parse_sdp(emitted)
    lo, hi = proxy.config.media_port_range
    assert session.connection_ip == proxy.config.public_ip
    assert lo <= session.media_port <= hi


def test_criterion_7_codec_round_trips_and_fuzz():
    # Fixture messages: canonical form is a byte-level fixed point.
    for raw in (samples.sample_invite(), samples.sample_answer()):
        canonical = serialize_message(parse_message(raw))
        assert serialize_message(parse_message(canonical)) == canonical
        assert parse_message(canonical) == parse_message(raw)

    rng = random.Random(0xACCE97)
    for _ in range(1000):
        msg = samples.random_sip_message(rng)
        assert parse_message(serialize_message(msg)) == msg
    for _ in range(1000):
        body = samples.random_sdp_body(rng)
        session = parse_sdp(body)
        assert serialize_sdp(session) == body
        own = TransportAddress(session.connection_ip, session.media_port)
        assert serialize_sdp(rewrite_media(session, own)) == body
    for _ in range(1000):
        fields = samples.random_rtp_fields(rng)
        packet = parse_rtp(build_rtp(**fields))
        assert (packet.payload_type, packet.sequence, packet.timestamp, packet.ssrc,
                packet.payload) == tuple(fields.values())

    def fuzz_corpus(base_inputs, count):
        for i in range(count):
            if i % 2 == 0:
                yield bytes(rng.randrange(256) for _ in range(rng.randint(0, 300)))
            else:
                yield samples.mutate(rng, rng.choice(base_inputs))

    sip_bases = [samples.sample_invite(), samples.sample_answer(), samples.make_register()]
    for data in fuzz_corpus(sip_bases, 10_000):
        try:
            parse_message(data)
        except SipParseError:
            pass
    sdp_bases = [samples.sample_invite_body(), samples.sample_answer_body()]
    for data in fuzz_corpus(sdp_bases, 10_000):
        try:
            parse_sdp(data)
        except SdpParseError:
            pass
    rtp_bases = [build_rtp(0, 1, 2, 3, b"payload"), build_rtp(96, 65535, 2**32 - 1, 7, b"x" * 40)]
    for data in fuzz_corpus(rtp_bases, 10_000):
        try:
            parse_rtp(data)
        except RtpParseError:
            pass
    print("ACCEPTANCE 7 PASS - 3000 generated round-trips, 30000 fuzz inputs, no crashes")


def test_criterion_8_resource_accounting():
    scripts = [
        default_script(10),
        [
            ScriptEvent("register"),
            ScriptEvent("call", caller="b"),
            ScriptEvent("talk", packets=3, interval=0.02),
            ScriptEvent("idle", seconds=5),
            ScriptEvent("hangup", caller="b"),
        ],
        [ScriptEvent("register"), ScriptEvent("call", caller="a"), ScriptEvent("hangup", caller="a")],
    ]
    for i, script in enumerate(scripts):
        scenario = Scenario(
            nat_a=NatType.PORT_RESTRICTED_CONE, nat_b=NatType.SYMMETRIC,
            script=script, seed=i,
        )
        ctx = build_simulation(scenario)
        initial = ctx.proxy.media.pool.free_pairs()
        execute_script(ctx, scenario)
        assert ctx.proxy.media.pool.free_pairs() == initial, f"script {i} leaked ports"

    # Exhaustion: INVITE must fail with a 5xx and leak nothing.
    proxy = SipProxy(ProxyConfig(public_ip="200.1.1.1", media_port_range=(40000, 40003)))
    proxy.connection_opened(1, TransportAddress("68.92.25.44", 4325))
    proxy.connection_opened(2, TransportAddress("77.224.10.9", 6001))
    proxy.handle_message(1, samples.make_register("ClientA", "local1.com", "192.168.1.11"), 0.0)
    proxy.handle_message(2, samples.make_register("ClientB", "local2.com", "10.0.0.4"), 0.0)
    proxy.media.allocate_session("hog", "68.92.25.44", "77.224.10.9")
    before = proxy.media.pool.free_pairs()
    (conn, raw), = proxy.handle_message(2, samples.make_invite(), 1.0)
    response = parse_message(raw)
    assert conn == 2
    assert 500 <= response.status_code <= 599
    assert proxy.media.pool.free_pairs() == before
    print("ACCEPTANCE 8 PASS - pool returns to its initial state; exhaustion yields 5xx, no leaks")
