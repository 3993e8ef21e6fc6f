import random

import pytest

import samples
from sipnat.media_controller import (
    DuplicateCall,
    LEG_A,
    LEG_B,
    MediaController,
    MediaSession,
    PoolExhausted,
    PortPool,
    RTCP,
    RTP,
    Route,
    SdpRewriteError,
    UnknownCall,
)
from sipnat.net import TransportAddress
from sipnat.sdp import parse_sdp

PROXY_IP = "200.1.1.1"
A_PUB = ("68.92.25.44", 62001)
B_PUB = ("77.224.10.9", 6100)


def controller(lo=40000, hi=40100, **kwargs):
    return MediaController(PROXY_IP, (lo, hi), **kwargs)


# -- port pool -------------------------------------------------------------------


def test_pool_allocates_sequential_even_odd_pairs():
    pool = PortPool(40000, 40100)
    expected = [(40000, 40001), (40002, 40003), (40004, 40005)]
    got = [pool.allocate_pair(f"c{i}", LEG_A) for i in range(3)]
    assert got == expected  # matches the sequential allocator oracle
    assert pool.owner_of(40002) == ("c1", LEG_A, RTP)
    assert pool.owner_of(40003) == ("c1", LEG_A, RTCP)


def test_pool_reuses_released_pairs_lowest_first():
    pool = PortPool(40000, 40100)
    pool.allocate_pair("c0", LEG_A)
    pool.allocate_pair("c1", LEG_A)
    pool.release_pair(40000)
    assert pool.allocate_pair("c2", LEG_A) == (40000, 40001)


def test_pool_release_is_idempotent_and_keeps_lowest_first():
    pool = PortPool(40000, 40009)
    for i in range(5):
        pool.allocate_pair(f"c{i}", LEG_A)
    for port in (40006, 40002, 40006, 40008, 40002):
        pool.release_pair(port)
    assert pool.free_pairs() == {40002, 40006, 40008}
    got = [pool.allocate_pair(f"d{i}", LEG_A)[0] for i in range(3)]
    assert got == [40002, 40006, 40008]
    with pytest.raises(PoolExhausted):
        pool.allocate_pair("e", LEG_A)


def test_pool_odd_lower_bound_starts_on_even_port():
    pool = PortPool(40001, 40010)
    assert pool.allocate_pair("c", LEG_A) == (40002, 40003)


# -- session allocation ------------------------------------------------------------


def test_allocate_session_reserves_both_leg_pairs():
    ctl = controller()
    session = ctl.allocate_session("call-1")
    assert (session.legs[LEG_A].rtp_port, session.legs[LEG_A].rtcp_port) == (40000, 40001)
    assert (session.legs[LEG_B].rtp_port, session.legs[LEG_B].rtcp_port) == (40002, 40003)
    assert ctl.sessions == {"call-1": session}
    assert [leg.latched for leg in session.legs.values()] == [{}, {}]


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


# -- session description rewriting ---------------------------------------------------


def test_offer_rewritten_toward_answerer_leg():
    ctl = controller()
    session = ctl.allocate_session("call-1")
    offer = parse_sdp(samples.sample_invite_body())
    rewritten = ctl.process_offer(session, offer)
    # The answerer must send its media to its own (leg B) relay port.
    assert rewritten.connection_ip == PROXY_IP
    assert rewritten.media[0].port == session.legs[LEG_B].rtp_port
    assert session.legs[LEG_A].declared == TransportAddress("192.168.1.11", 49570)


def test_answer_rewritten_toward_offerer_leg():
    ctl = controller()
    session = ctl.allocate_session("call-1")
    answer = parse_sdp(samples.sample_answer_body())
    rewritten = ctl.process_answer(session, answer)
    assert rewritten.connection_ip == PROXY_IP
    assert rewritten.media[0].port == session.legs[LEG_A].rtp_port
    assert session.legs[LEG_B].declared == TransportAddress("10.0.0.4", 6580)


def test_multi_media_offer_rejected():
    ctl = controller()
    session = ctl.allocate_session("call-1")
    body = samples.crlf_body(samples.INVITE_BODY_LINES + ["m=video 50000 RTP/AVP 96"])
    with pytest.raises(SdpRewriteError):
        ctl.process_offer(session, parse_sdp(body))


# -- relay forwarding -------------------------------------------------------------


def start_session(ctl):
    session = ctl.allocate_session("call-1")
    return session, session.legs[LEG_A], session.legs[LEG_B]


def test_unknown_port_dropped():
    ctl = controller()
    start_session(ctl)
    decision = ctl.on_media_packet(45000, A_PUB, b"x" * 20)
    assert (decision.action, decision.reason) == ("drop", "unknown_port")


def test_first_packet_latches_then_buffers():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    decision = ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"pkt-0")
    assert decision.action == "buffer"
    assert decision.sends == []
    assert leg_a.latched[RTP] == A_PUB
    assert leg_b.latched == {}


def test_peer_latch_flushes_buffer_in_order_then_relays():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"pkt-0")
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"pkt-1")

    decision = ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"from-b")
    assert leg_b.latched[RTP] == B_PUB
    assert decision.action == "forward"
    # A's buffered packets flush to B, emitted from B's relay port, in order;
    # then B's packet forwards to A's latched address from A's relay port.
    assert [(s.from_port, s.to, s.payload) for s in decision.sends] == [
        (leg_b.rtp_port, B_PUB, b"pkt-0"),
        (leg_b.rtp_port, B_PUB, b"pkt-1"),
        (leg_a.rtp_port, A_PUB, b"from-b"),
    ]


def test_forward_sends_from_destination_leg_port():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0")
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"b0")
    decision = ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a1")
    assert [(s.from_port, s.to, s.payload) for s in decision.sends] == [(leg_b.rtp_port, B_PUB, b"a1")]


def test_source_mismatch_dropped_by_default():
    ctl = controller()
    session, leg_a, _ = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0")
    impostor = ("6.6.6.6", 666)
    decision = ctl.on_media_packet(leg_a.rtp_port, impostor, b"evil")
    assert (decision.action, decision.reason) == ("drop", "source_mismatch")
    assert leg_a.latched[RTP] == A_PUB
    assert leg_a.counters[RTP].dropped == 1


def test_buffer_cap_drops_oldest():
    ctl = controller(buffer_cap=3)
    session, leg_a, _ = start_session(ctl)
    for i in range(5):
        ctl.on_media_packet(leg_a.rtp_port, A_PUB, f"pkt-{i}".encode())
    assert list(leg_a.buffers[RTP]) == [b"pkt-2", b"pkt-3", b"pkt-4"]
    assert leg_a.counters[RTP].dropped == 2


def test_rtp_and_rtcp_latch_independently():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"rtp")
    rtcp_a = (A_PUB[0], A_PUB[1] + 1)
    ctl.on_media_packet(leg_a.rtcp_port, rtcp_a, b"rtcp")
    assert leg_a.latched[RTP] == A_PUB
    assert leg_a.latched[RTCP] == rtcp_a
    # RTCP forwarding needs the peer's RTCP latch, not its RTP latch.
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"rtp-b")
    decision = ctl.on_media_packet(leg_a.rtcp_port, rtcp_a, b"rtcp-2")
    assert decision.action == "buffer"


def test_conservation_per_leg():
    ctl = controller(buffer_cap=2)
    session, leg_a, leg_b = start_session(ctl)
    for i in range(5):
        ctl.on_media_packet(leg_a.rtp_port, A_PUB, f"a-{i}".encode())
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"b-0")
    for i in range(3):
        ctl.on_media_packet(leg_a.rtp_port, A_PUB, f"a2-{i}".encode())
    counters = leg_a.counters[RTP]
    buffered = len(leg_a.buffers[RTP])
    assert counters.received == counters.forwarded + counters.flushed + counters.dropped + buffered


def test_release_returns_ports_and_keeps_counters():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0")
    before = ctl.pool.allocated_count
    assert before == 4
    freed = ctl.release_session("call-1")
    assert freed == 4
    assert ctl.pool.allocated_count == 0
    finished = ctl.session_for("call-1")
    assert "call-1" not in ctl.sessions and ctl.finished["call-1"] is finished
    assert finished.legs[LEG_A].counters[RTP].received == 1
    # The buffered packet was never deliverable; it counts as dropped.
    assert finished.legs[LEG_A].counters[RTP].dropped == 1


def test_finished_keeps_at_most_one_session_per_pool_pair():
    ctl = controller(40000, 40007)  # 4 pairs: two live sessions at most
    for i in range(10):
        ctl.allocate_session(f"call-{i}")
        ctl.release_session(f"call-{i}")
        assert len(ctl.finished) <= ctl.pool.pairs == 4
    assert list(ctl.finished) == ["call-6", "call-7", "call-8", "call-9"]
    assert "call-9" not in ctl.sessions and ctl.session_for("call-9") is ctl.finished["call-9"]
    assert ctl.session_for("call-0") is None


# -- established-media routes ---------------------------------------------------------


def relay(ctl, port, src, payload):
    """Datagrams emitted for one packet, as (from_port, (ip, port), payload)."""
    decision = ctl.on_media_packet(port, src, payload)
    return [(s.from_port, s.to, s.payload) for s in decision.sends]


def routes_from_latches(ctl):
    """The route table as the live sessions' latches define it."""
    routes = {}
    for session in ctl.sessions.values():
        for name, leg in session.legs.items():
            peer = session.legs[MediaSession.peer_of(name)]
            for kind in (RTP, RTCP):
                if kind in leg.latched and kind in peer.latched:
                    routes[leg.port_for(kind)] = (
                        leg.latched[kind], peer.port_for(kind), peer.latched[kind], id(leg.counters[kind])
                    )
    return routes


def route_table(ctl):
    return {port: (r.source, r.from_port, r.to, id(r.counters)) for port, r in ctl.routes.items()}


def all_counters(ctl):
    return {
        call_id: {(leg, kind): c for leg, state in s.legs.items() for kind, c in state.counters.items()}
        for call_id, s in [*ctl.finished.items(), *ctl.sessions.items()]
    }


@pytest.mark.parametrize("seed", range(6))
def test_route_table_relays_exactly_like_the_relay_decision(seed):
    rng = random.Random(seed)
    # Three sessions fill the pool, so released ports are soon handed out again.
    # The reference controller's routes are emptied before each packet, so
    # every packet it sees takes the latch decision.
    reference = controller(40000, 40011, buffer_cap=3)
    routed = controller(40000, 40011, buffer_cap=3)
    # Few addresses, shared by all calls: an earlier call's client, an
    # impostor and a moved client all send to reused ports.
    hosts = [(f"10.0.0.{i}", 5000 + 2 * j) for i in (1, 2) for j in range(3)]
    calls = hits = 0
    for step in range(600):
        roll = rng.random()
        if roll < 0.05 and len(reference.sessions) < 3:
            call_id = f"call-{calls}"
            calls += 1
            for ctl in (reference, routed):
                ctl.allocate_session(call_id)
        elif roll < 0.09 and reference.sessions:
            call_id = rng.choice(sorted(reference.sessions))
            for ctl in (reference, routed):
                ctl.release_session(call_id)
        else:
            port = rng.randrange(39999, 40013)  # one port either side of the pool
            ip, src_port = rng.choice(hosts)
            src = (ip, src_port + 1) if rng.random() < 0.5 else (ip, src_port)  # RTCP's usual source
            owner = reference.pool.owner_of(port)
            if owner is not None and rng.random() < 0.8:
                # Mostly the leg's own client, once it has latched.
                call_id, leg, kind = owner
                src = reference.sessions[call_id].legs[leg].latched.get(kind, src)
            payload = f"pkt-{step}".encode()
            route = routed.routes.get(port)
            hits += route is not None and route.source == src
            reference.routes.clear()
            assert relay(routed, port, src, payload) == relay(reference, port, src, payload)
        assert all_counters(routed) == all_counters(reference)
        assert route_table(routed) == routes_from_latches(routed)
    assert calls > 3 and hits > 50  # ports were reused, and many packets took a route


def test_forward_established_needs_both_latches_and_the_latched_source():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0")
    assert ctl.routes == {}  # peer not latched
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"b0")
    assert ctl.routes[leg_a.rtp_port] == Route(A_PUB, leg_b.rtp_port, B_PUB, leg_a.counters[RTP])
    assert ctl.routes[leg_b.rtp_port] == Route(B_PUB, leg_a.rtp_port, A_PUB, leg_b.counters[RTP])
    assert leg_a.rtcp_port not in ctl.routes  # RTCP has latched on neither leg

    counters = leg_a.counters[RTP]
    before = (counters.received, counters.forwarded, counters.dropped)
    impostor = ctl.on_media_packet(leg_a.rtp_port, ("6.6.6.6", 666), b"evil")
    assert (impostor.action, impostor.reason, impostor.sends) == ("drop", "source_mismatch", [])
    decision = ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a1-pkt")
    assert (decision.action, decision.reason) == ("forward", None)
    assert [(s.from_port, s.to, s.payload) for s in decision.sends] == [(leg_b.rtp_port, B_PUB, b"a1-pkt")]
    assert (counters.received, counters.forwarded, counters.dropped) == (
        before[0] + 2, before[1] + 1, before[2] + 1
    )
    assert counters.received_bytes == 2 + 4 + 6


def test_released_call_routes_nothing_on_its_reused_ports():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0")
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"b0")
    ctl.release_session("call-1")
    assert ctl.routes == {}

    reused = ctl.allocate_session("call-2").legs[LEG_A]
    assert reused.rtp_port == leg_a.rtp_port
    # The old caller's late packet must not reach the old callee: it latches
    # the new call's leg and waits for that call's peer.
    decision = ctl.on_media_packet(reused.rtp_port, A_PUB, b"late")
    assert decision.action == "buffer"
    assert decision.sends == []
    assert ctl.routes == {}
    assert leg_a.counters[RTP].received == 1  # the old call's counters are untouched
