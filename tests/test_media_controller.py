import gc
import hashlib
import random

import pytest

import samples
from sipnat import media_controller
from sipnat.media_controller import (
    DuplicateCall,
    MediaController,
    PoolExhausted,
    PortPool,
    RelayPort,
    UnknownCall,
)
from sipnat.sdp import MultipleMediaUnsupported, parse_sdp

PROXY_IP = "200.1.1.1"
A_PUB = ("68.92.25.44", 62001)
B_PUB = ("77.224.10.9", 6100)


def controller(lo=40000, hi=40100):
    return MediaController(PROXY_IP, (lo, hi))


# -- port pool -------------------------------------------------------------------


def test_pool_allocates_sequential_even_odd_pairs():
    pool = PortPool(40000, 40100)
    expected = [(40000, 40001), (40002, 40003), (40004, 40005)]
    got = [pool.allocate_pair() for _ in range(3)]
    assert got == expected  # matches the sequential allocator oracle
    assert pool.allocated_count == 6


def test_pool_reuses_released_pairs_lowest_first():
    pool = PortPool(40000, 40100)
    pool.allocate_pair()
    pool.allocate_pair()
    pool.release_pair(40000)
    assert pool.allocate_pair() == (40000, 40001)


def test_pool_release_is_idempotent_and_keeps_lowest_first():
    pool = PortPool(40000, 40009)
    for _ in range(5):
        pool.allocate_pair()
    for port in (40006, 40002, 40006, 40008, 40002):
        pool.release_pair(port)
    assert pool.free_pairs() == {40002, 40006, 40008}
    assert pool.allocated_count == 4
    got = [pool.allocate_pair()[0] for _ in range(3)]
    assert got == [40002, 40006, 40008]
    with pytest.raises(PoolExhausted):
        pool.allocate_pair()


@pytest.mark.parametrize("lo, hi", [(1, 4), (65532, 65535), (1, 65535)])
def test_pool_accepts_a_range_reaching_either_end_of_the_port_space(lo, hi):
    assert PortPool(lo, hi).range == (lo, hi)


@pytest.mark.parametrize("lo, hi", [(0, 4), (65532, 65536), (40000, 40000)])
def test_pool_refuses_port_zero_a_port_past_65535_and_an_empty_range(lo, hi):
    with pytest.raises(ValueError, match="bad port range"):
        PortPool(lo, hi)


def test_pool_odd_lower_bound_starts_on_even_port():
    pool = PortPool(40001, 40010)
    assert pool.allocate_pair() == (40002, 40003)


# -- session allocation ------------------------------------------------------------


def test_allocate_session_reserves_both_leg_pairs():
    ctl = controller()
    session = ctl.allocate_session("call-1")
    a, b = session.a, session.b
    assert (a.rtp.port, a.rtcp.port, b.rtp.port, b.rtcp.port) == (40000, 40001, 40002, 40003)
    assert ctl.sessions == {"call-1": session}
    assert ctl.ports == {40000: a.rtp, 40001: a.rtcp, 40002: b.rtp, 40003: b.rtcp}
    # Each port's peer is the same kind's port on the other leg.
    assert (a.rtp.peer, b.rtp.peer, a.rtcp.peer, b.rtcp.peer) == (b.rtp, a.rtp, b.rtcp, a.rtcp)
    assert [p.latched for p in ctl.ports.values()] == [None] * 4


def test_duplicate_call_rejected():
    ctl = controller()
    ctl.allocate_session("call-1")
    with pytest.raises(DuplicateCall):
        ctl.allocate_session("call-1")


def test_pool_exhaustion_and_rollback():
    # Room for exactly one call (two pairs).
    ctl = controller(40000, 40003)
    ctl.allocate_session("call-1")
    with pytest.raises(PoolExhausted):
        ctl.allocate_session("call-2")
    # Room for only one pair: allocation must fail AND leak nothing.
    half = controller(40000, 40001)
    before = half.pool.free_pairs()
    with pytest.raises(PoolExhausted):
        half.allocate_session("call-1")
    assert half.pool.free_pairs() == before


def test_exhaustion_recovery_after_release():
    ctl = controller(40000, 40003)
    ctl.allocate_session("call-1")
    with pytest.raises(PoolExhausted):
        ctl.allocate_session("call-2")
    assert ctl.release_session("call-1") == 4
    ctl.allocate_session("call-2")


def test_release_twice_is_unknown_call():
    ctl = controller()
    ctl.allocate_session("call-1")
    ctl.release_session("call-1")
    with pytest.raises(UnknownCall):
        ctl.release_session("call-1")


def test_released_sessions_are_freed_without_the_cycle_collector():
    # Two peers point at each other; a session left in such a cycle waits for
    # the cyclic collector, and call churn pays for that in memory and CPU.
    ctl = controller(40000, 40007)
    gc.collect()
    gc.disable()
    try:
        for i in range(100):
            leg_a = ctl.allocate_session(f"call-{i}").a
            ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"a0")
            ctl.release_session(f"call-{i}")
        alive = [o for o in gc.get_objects() if type(o) is RelayPort]
    finally:
        gc.enable()
    # Only the last call's leg A ports, which this test still holds, are alive.
    assert sorted(map(id, alive)) == sorted(map(id, (leg_a.rtp, leg_a.rtcp)))


# -- session description rewriting ---------------------------------------------------


def test_offer_rewritten_toward_answerer_leg():
    ctl = controller()
    session = ctl.allocate_session("call-1")
    rewritten = parse_sdp(ctl.relay_description(session.b, samples.sample_invite_body()))
    # The answerer must send its media to its own (leg B) relay port.
    assert rewritten.connection_ip == PROXY_IP
    assert rewritten.media[0].port == session.b.rtp.port


def test_answer_rewritten_toward_offerer_leg():
    ctl = controller()
    session = ctl.allocate_session("call-1")
    rewritten = parse_sdp(ctl.relay_description(session.a, samples.sample_answer_body()))
    assert rewritten.connection_ip == PROXY_IP
    assert rewritten.media[0].port == session.a.rtp.port


def test_multi_media_offer_rejected():
    ctl = controller()
    session = ctl.allocate_session("call-1")
    body = samples.crlf_body(samples.INVITE_BODY_LINES + ["m=video 50000 RTP/AVP 96"])
    with pytest.raises(MultipleMediaUnsupported):
        ctl.relay_description(session.b, body)


# -- relay forwarding -------------------------------------------------------------


def start_session(ctl):
    session = ctl.allocate_session("call-1")
    return session, session.a, session.b


def test_unknown_port_dropped():
    ctl = controller()
    start_session(ctl)
    decision = ctl.on_media_packet(45000, A_PUB, b"x" * 20)
    assert (decision.action, decision.reason) == ("drop", "unknown_port")


def test_first_packet_latches_then_buffers():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    decision = ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"pkt-0")
    assert decision.action == "buffer"
    assert decision.sends == []
    assert leg_a.rtp.latched == A_PUB
    assert (leg_b.rtp.latched, leg_b.rtcp.latched) == (None, None)


def test_peer_latch_flushes_buffer_in_order_then_relays():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"pkt-0")
    ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"pkt-1")

    decision = ctl.on_media_packet(leg_b.rtp.port, B_PUB, b"from-b")
    assert leg_b.rtp.latched == B_PUB
    assert decision.action == "forward"
    # A's buffered packets flush to B, emitted from B's relay port, in order;
    # then B's packet forwards to A's latched address from A's relay port.
    assert [(s.from_port, s.to, s.payload) for s in decision.sends] == [
        (leg_b.rtp.port, B_PUB, b"pkt-0"),
        (leg_b.rtp.port, B_PUB, b"pkt-1"),
        (leg_a.rtp.port, A_PUB, b"from-b"),
    ]


def test_forward_sends_from_destination_leg_port():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"a0")
    ctl.on_media_packet(leg_b.rtp.port, B_PUB, b"b0")
    decision = ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"a1")
    assert [(s.from_port, s.to, s.payload) for s in decision.sends] == [(leg_b.rtp.port, B_PUB, b"a1")]


def test_source_mismatch_dropped_by_default():
    ctl = controller()
    session, leg_a, _ = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"a0")
    impostor = ("6.6.6.6", 666)
    decision = ctl.on_media_packet(leg_a.rtp.port, impostor, b"evil")
    assert (decision.action, decision.reason) == ("drop", "source_mismatch")
    assert leg_a.rtp.latched == A_PUB
    assert leg_a.rtp.dropped == 1


def test_buffer_cap_drops_oldest(monkeypatch):
    monkeypatch.setattr(media_controller, "BUFFER_CAP", 3)
    ctl = controller()
    session, leg_a, _ = start_session(ctl)
    for i in range(5):
        ctl.on_media_packet(leg_a.rtp.port, A_PUB, f"pkt-{i}".encode())
    assert list(leg_a.rtp.buffer) == [b"pkt-2", b"pkt-3", b"pkt-4"]
    assert leg_a.rtp.dropped == 2


def test_rtp_and_rtcp_latch_independently():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"rtp")
    rtcp_a = (A_PUB[0], A_PUB[1] + 1)
    ctl.on_media_packet(leg_a.rtcp.port, rtcp_a, b"rtcp")
    assert leg_a.rtp.latched == A_PUB
    assert leg_a.rtcp.latched == rtcp_a
    # RTCP forwarding needs the peer's RTCP latch, not its RTP latch.
    ctl.on_media_packet(leg_b.rtp.port, B_PUB, b"rtp-b")
    decision = ctl.on_media_packet(leg_a.rtcp.port, rtcp_a, b"rtcp-2")
    assert decision.action == "buffer"


def test_conservation_per_leg(monkeypatch):
    monkeypatch.setattr(media_controller, "BUFFER_CAP", 2)
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    for i in range(5):
        ctl.on_media_packet(leg_a.rtp.port, A_PUB, f"a-{i}".encode())
    ctl.on_media_packet(leg_b.rtp.port, B_PUB, b"b-0")
    for i in range(3):
        ctl.on_media_packet(leg_a.rtp.port, A_PUB, f"a2-{i}".encode())
    port = leg_a.rtp
    assert port.received == port.forwarded + port.flushed + port.dropped + len(port.buffer)


def test_release_returns_ports_and_keeps_counters():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"a0")
    before = ctl.pool.allocated_count
    assert before == 4
    freed = ctl.release_session("call-1")
    assert freed == 4
    assert ctl.pool.allocated_count == 0
    assert ctl.ports == {} and ctl.sessions == {}
    assert leg_a.rtp.received == 1
    # The buffered packet was never deliverable; it counts as dropped.
    assert leg_a.rtp.dropped == 1 and not leg_a.rtp.buffer


# -- the relay port table ------------------------------------------------------------


def relay(ctl, port, src, payload):
    """Datagrams emitted for one packet, as (from_port, (ip, port), payload)."""
    decision = ctl.on_media_packet(port, src, payload)
    return [(s.from_port, s.to, s.payload) for s in decision.sends]


def ports_from_sessions(ctl):
    """The relay port table as the live sessions define it."""
    return {
        relay_port.port: relay_port
        for session in ctl.sessions.values()
        for leg in (session.a, session.b)
        for relay_port in (leg.rtp, leg.rtcp)
    }


def all_counters(ctl, released):
    """Counters of the released and then the live sessions, as plain tuples."""
    return [
        (call_id, name, kind, p.received, p.received_bytes, p.forwarded, p.flushed, p.dropped)
        for call_id, session in [*released.items(), *ctl.sessions.items()]
        for name, leg in (("A", session.a), ("B", session.b))
        for kind, p in (("rtp", leg.rtp), ("rtcp", leg.rtcp))
    ]


# sha256 of each seed's stream of decisions and counters in the test below,
# recorded from the controller that kept its latches, buffers and counters per
# leg and kind, and its established routes in a table of their own.
DECISION_STREAM_SHA256 = {
    0: "07d4af094255fd369796666d281a983c5b245c90ef6c58a5ffe5840788617857",
    1: "355033fc0aa1494d20eb296d1428705b36a59c3e0604a91208ebbeb7e091111e",
    2: "8748c56406af6c1395f29371eb476be43089a4d20461d4830996c2cdbec6fe05",
    3: "fc290e403a769e9bb30eeb7dc301070fbf18c882dd1e5e86ebb5bdc8ffbde671",
    4: "78abf69d7c16f1eeeb15123e1c7b917ca3cc3cb3393741b7a8322ad9ccdc88eb",
    5: "94fa1fe3ea0c270aa501f67905feaa4628b8db3682941a625a5a758ddf9ffae2",
}


@pytest.mark.parametrize("seed", range(6))
def test_route_table_relays_exactly_like_the_relay_decision(seed, monkeypatch):
    """The port table relays a random mix of calls, hangups and packets
    exactly as pinned, and keeps its invariants after every step."""
    rng = random.Random(seed)
    # Three sessions fill the pool, so released ports are soon handed out again.
    monkeypatch.setattr(media_controller, "BUFFER_CAP", 3)
    ctl = controller(40000, 40011)
    # Released sessions, oldest first, the last pool.pairs of them: their counters
    # stay in the hashed stream after the controller has let them go.
    released = {}
    # Few addresses, shared by all calls: an earlier call's client, an
    # impostor and a moved client all send to reused ports.
    hosts = [(f"10.0.0.{i}", 5000 + 2 * j) for i in (1, 2) for j in range(3)]
    stream = hashlib.sha256()
    calls = established = 0
    for step in range(600):
        roll = rng.random()
        outcome = None
        if roll < 0.05 and len(ctl.sessions) < 3:
            ctl.allocate_session(f"call-{calls}")
            calls += 1
        elif roll < 0.09 and ctl.sessions:
            call_id = rng.choice(sorted(ctl.sessions))
            released[call_id] = ctl.sessions[call_id]
            ctl.release_session(call_id)
            if len(released) > ctl.pool.pairs:
                del released[next(iter(released))]
        else:
            port = rng.randrange(39999, 40013)  # one port either side of the pool
            ip, src_port = rng.choice(hosts)
            src = (ip, src_port + 1) if rng.random() < 0.5 else (ip, src_port)  # RTCP's usual source
            here = ctl.ports.get(port)
            if here is not None and rng.random() < 0.8:
                # Mostly the port's own client, once it has latched.
                src = here.latched or src
            established += here is not None and here.latched == src and here.peer.latched is not None
            decision = ctl.on_media_packet(port, src, f"pkt-{step}".encode())
            sends = [(s.from_port, s.to, s.payload) for s in decision.sends]
            outcome = (decision.action, decision.reason, sends)
        stream.update(repr((outcome, all_counters(ctl, released))).encode())
        assert ctl.ports == ports_from_sessions(ctl)
        assert len(ctl.pool.free_pairs()) + 2 * len(ctl.sessions) == ctl.pool.pairs
        for p in ctl.ports.values():
            assert p.received == p.forwarded + p.flushed + p.dropped + len(p.buffer)
    assert calls > 3 and established > 50  # ports were reused, and many packets were established
    assert stream.hexdigest() == DECISION_STREAM_SHA256[seed]


def test_forward_established_needs_both_latches_and_the_latched_source():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    assert relay(ctl, leg_a.rtp.port, A_PUB, b"a0") == []  # peer not latched: buffered
    assert relay(ctl, leg_b.rtp.port, B_PUB, b"b0") == [
        (leg_b.rtp.port, B_PUB, b"a0"),
        (leg_a.rtp.port, A_PUB, b"b0"),
    ]
    assert (leg_a.rtcp.latched, leg_b.rtcp.latched) == (None, None)  # RTCP latches on its own

    port = leg_a.rtp
    before = (port.received, port.forwarded, port.dropped)
    impostor = ctl.on_media_packet(leg_a.rtp.port, ("6.6.6.6", 666), b"evil")
    assert (impostor.action, impostor.reason, impostor.sends) == ("drop", "source_mismatch", [])
    decision = ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"a1-pkt")
    assert (decision.action, decision.reason) == ("forward", None)
    assert [(s.from_port, s.to, s.payload) for s in decision.sends] == [(leg_b.rtp.port, B_PUB, b"a1-pkt")]
    assert (port.received, port.forwarded, port.dropped) == (before[0] + 2, before[1] + 1, before[2] + 1)
    assert port.received_bytes == 2 + 4 + 6


def test_released_call_routes_nothing_on_its_reused_ports():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp.port, A_PUB, b"a0")
    ctl.on_media_packet(leg_b.rtp.port, B_PUB, b"b0")
    ctl.release_session("call-1")
    assert ctl.ports == {}

    reused = ctl.allocate_session("call-2").a
    assert reused.rtp.port == leg_a.rtp.port and reused.rtp is not leg_a.rtp
    # The old caller's late packet must not reach the old callee: it latches
    # the new call's leg and waits for that call's peer.
    decision = ctl.on_media_packet(reused.rtp.port, A_PUB, b"late")
    assert decision.action == "buffer"
    assert decision.sends == []
    assert reused.rtp.peer.latched is None
    assert leg_a.rtp.received == 1  # the old call's counters are untouched
