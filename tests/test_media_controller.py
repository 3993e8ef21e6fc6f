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
A_PUB = TransportAddress("68.92.25.44", 62001)
B_PUB = TransportAddress("77.224.10.9", 6100)


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
    decision = ctl.on_media_packet(45000, A_PUB, b"x" * 20, now=0.0)
    assert (decision.action, decision.reason) == ("drop", "unknown_port")


def test_first_packet_latches_then_buffers():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    decision = ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"pkt-0", now=0.0)
    assert decision.action == "buffer"
    assert decision.sends == []
    assert leg_a.latched[RTP] == A_PUB
    assert leg_b.latched == {}


def test_peer_latch_flushes_buffer_in_order_then_relays():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"pkt-0", now=0.0)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"pkt-1", now=0.01)

    decision = ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"from-b", now=0.02)
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
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0", now=0.0)
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"b0", now=0.01)
    decision = ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a1", now=0.02)
    assert [(s.from_port, s.to, s.payload) for s in decision.sends] == [(leg_b.rtp_port, B_PUB, b"a1")]


def test_source_mismatch_dropped_by_default():
    ctl = controller()
    session, leg_a, _ = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0", now=0.0)
    impostor = TransportAddress("6.6.6.6", 666)
    decision = ctl.on_media_packet(leg_a.rtp_port, impostor, b"evil", now=0.01)
    assert (decision.action, decision.reason) == ("drop", "source_mismatch")
    assert leg_a.latched[RTP] == A_PUB
    assert leg_a.counters[RTP].dropped == 1


def test_source_mismatch_relatches_when_configured():
    ctl = controller(relatch=True)
    session, leg_a, _ = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0", now=0.0)
    moved = TransportAddress("68.92.25.44", 62002)
    decision = ctl.on_media_packet(leg_a.rtp_port, moved, b"a1", now=0.01)
    assert decision.action == "buffer"
    assert leg_a.latched[RTP] == moved


def test_buffer_cap_drops_oldest():
    ctl = controller(buffer_cap=3)
    session, leg_a, _ = start_session(ctl)
    for i in range(5):
        ctl.on_media_packet(leg_a.rtp_port, A_PUB, f"pkt-{i}".encode(), now=i * 0.01)
    assert list(leg_a.buffers[RTP]) == [b"pkt-2", b"pkt-3", b"pkt-4"]
    assert leg_a.counters[RTP].dropped == 2


def test_rtp_and_rtcp_latch_independently():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"rtp", now=0.0)
    rtcp_a = TransportAddress(A_PUB.ip, A_PUB.port + 1)
    ctl.on_media_packet(leg_a.rtcp_port, rtcp_a, b"rtcp", now=0.0)
    assert leg_a.latched[RTP] == A_PUB
    assert leg_a.latched[RTCP] == rtcp_a
    # RTCP forwarding needs the peer's RTCP latch, not its RTP latch.
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"rtp-b", now=0.01)
    decision = ctl.on_media_packet(leg_a.rtcp_port, rtcp_a, b"rtcp-2", now=0.02)
    assert decision.action == "buffer"


def test_conservation_per_leg():
    ctl = controller(buffer_cap=2)
    session, leg_a, leg_b = start_session(ctl)
    for i in range(5):
        ctl.on_media_packet(leg_a.rtp_port, A_PUB, f"a-{i}".encode(), now=i * 0.01)
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"b-0", now=0.06)
    for i in range(3):
        ctl.on_media_packet(leg_a.rtp_port, A_PUB, f"a2-{i}".encode(), now=0.07 + i * 0.01)
    counters = leg_a.counters[RTP]
    buffered = len(leg_a.buffers[RTP])
    assert counters.received == counters.forwarded + counters.flushed + counters.dropped + buffered


def test_release_returns_ports_and_keeps_counters():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0", now=0.0)
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


def relay(ctl, port, src, payload, fast):
    """Datagrams emitted for one packet, as (from_port, (ip, port), payload).

    ``fast`` takes the service's two steps: the route table first, the relay
    decision only on a miss.
    """
    if fast:
        route = ctl.forward_established(port, (src.ip, src.port), len(payload))
        if route is not None:
            return [(route.from_port, route.to, payload)]
    decision = ctl.on_media_packet(port, src, payload, now=0.0)
    return [(s.from_port, (s.to.ip, s.to.port), s.payload) for s in decision.sends]


def routes_from_latches(ctl):
    """The route table as the live sessions' latches define it."""
    routes = {}
    for session in ctl.sessions.values():
        for name, leg in session.legs.items():
            peer = session.legs[MediaSession.peer_of(name)]
            for kind in (RTP, RTCP):
                if kind in leg.latched and kind in peer.latched:
                    src, dst = leg.latched[kind], peer.latched[kind]
                    routes[leg.port_for(kind)] = (
                        (src.ip, src.port), peer.port_for(kind), (dst.ip, dst.port), id(leg.counters[kind])
                    )
    return routes


def route_table(ctl):
    return {port: (r.source, r.from_port, r.to, id(r.counters)) for port, r in ctl.routes.items()}


def all_counters(ctl):
    return {
        call_id: {(leg, kind): c for leg, state in s.legs.items() for kind, c in state.counters.items()}
        for call_id, s in [*ctl.finished.items(), *ctl.sessions.items()]
    }


@pytest.mark.parametrize("relatch", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_route_table_relays_exactly_like_the_relay_decision(seed, relatch):
    rng = random.Random(seed)
    # Three sessions fill the pool, so released ports are soon handed out again.
    slow = controller(40000, 40011, buffer_cap=3, relatch=relatch)
    fast = controller(40000, 40011, buffer_cap=3, relatch=relatch)
    # Few addresses, shared by all calls: an earlier call's client, an
    # impostor and a moved client all send to reused ports.
    hosts = [TransportAddress(f"10.0.0.{i}", 5000 + 2 * j) for i in (1, 2) for j in range(3)]
    calls = hits = 0
    for step in range(600):
        roll = rng.random()
        if roll < 0.05 and len(slow.sessions) < 3:
            call_id = f"call-{calls}"
            calls += 1
            for ctl in (slow, fast):
                ctl.allocate_session(call_id)
        elif roll < 0.09 and slow.sessions:
            call_id = rng.choice(sorted(slow.sessions))
            for ctl in (slow, fast):
                ctl.release_session(call_id)
        else:
            port = rng.randrange(39999, 40013)  # one port either side of the pool
            src = rng.choice(hosts)
            if rng.random() < 0.5:
                src = TransportAddress(src.ip, src.port + 1)  # RTCP's usual source
            owner = slow.pool.owner_of(port)
            if owner is not None and rng.random() < 0.8:
                # Mostly the leg's own client, once it has latched.
                call_id, leg, kind = owner
                src = slow.sessions[call_id].legs[leg].latched.get(kind, src)
            payload = f"pkt-{step}".encode()
            route = fast.routes.get(port)
            hits += route is not None and route.source == (src.ip, src.port)
            assert relay(fast, port, src, payload, fast=True) == relay(slow, port, src, payload, fast=False)
        assert all_counters(fast) == all_counters(slow)
        assert route_table(fast) == routes_from_latches(fast)
        assert route_table(slow) == routes_from_latches(slow)
    assert calls > 3 and hits > 50  # ports were reused, and many packets took a route


def test_forward_established_needs_both_latches_and_the_latched_source():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    a_src, b_src = (A_PUB.ip, A_PUB.port), (B_PUB.ip, B_PUB.port)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0", now=0.0)
    assert ctl.forward_established(leg_a.rtp_port, a_src, 2) is None  # peer not latched
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"b0", now=0.01)
    assert ctl.routes[leg_a.rtp_port] == Route(a_src, leg_b.rtp_port, b_src, leg_a.counters[RTP])
    assert ctl.routes[leg_b.rtp_port] == Route(b_src, leg_a.rtp_port, a_src, leg_b.counters[RTP])
    assert leg_a.rtcp_port not in ctl.routes  # RTCP has latched on neither leg

    before = (leg_a.counters[RTP].received, leg_a.counters[RTP].forwarded)
    assert ctl.forward_established(leg_a.rtp_port, ("6.6.6.6", 666), 4) is None
    assert ctl.forward_established(leg_a.rtp_port, a_src, 7) is ctl.routes[leg_a.rtp_port]
    counters = leg_a.counters[RTP]
    assert (counters.received, counters.forwarded) == (before[0] + 1, before[1] + 1)
    assert counters.received_bytes == 2 + 7


def test_relatch_moves_both_routes():
    ctl = controller(relatch=True)
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0", now=0.0)
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"b0", now=0.01)
    moved = TransportAddress(A_PUB.ip, A_PUB.port + 10)
    assert ctl.on_media_packet(leg_a.rtp_port, moved, b"a1", now=0.02).action == "forward"
    assert ctl.routes[leg_a.rtp_port].source == (moved.ip, moved.port)
    assert ctl.routes[leg_b.rtp_port].to == (moved.ip, moved.port)
    assert ctl.forward_established(leg_a.rtp_port, (A_PUB.ip, A_PUB.port), 2) is None


def test_released_call_routes_nothing_on_its_reused_ports():
    ctl = controller()
    session, leg_a, leg_b = start_session(ctl)
    ctl.on_media_packet(leg_a.rtp_port, A_PUB, b"a0", now=0.0)
    ctl.on_media_packet(leg_b.rtp_port, B_PUB, b"b0", now=0.01)
    ctl.release_session("call-1")
    assert ctl.routes == {}

    reused = ctl.allocate_session("call-2").legs[LEG_A]
    assert reused.rtp_port == leg_a.rtp_port
    # The old caller's late packet must not reach the old callee.
    assert ctl.forward_established(reused.rtp_port, (A_PUB.ip, A_PUB.port), 4) is None
    decision = ctl.on_media_packet(reused.rtp_port, A_PUB, b"late", now=0.02)
    assert decision.action == "buffer"
    assert decision.sends == []
    assert leg_a.counters[RTP].received == 1  # the old call's counters are untouched
