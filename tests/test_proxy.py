from dataclasses import dataclass, replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import samples
from sipnat.connection_manager import REGISTRATION_TTL
from sipnat.media_controller import LEG_A, LEG_B
from sipnat.net import TransportAddress
from sipnat.proxy import INVITE_GUARD, Phase, ProxyConfig, SipProxy
from sipnat.sdp import parse_sdp
from sipnat.sip_message import Method, SipMessage, build_response, parse_message, serialize_message

A_CONN, B_CONN = 1, 2
A_REMOTE = TransportAddress("68.92.25.44", 4325)
B_REMOTE = TransportAddress("77.224.10.9", 6001)


def make_proxy(**overrides) -> SipProxy:
    config = ProxyConfig(
        public_ip="200.1.1.1", media_port_range=overrides.pop("media_port_range", (40000, 40099)),
        **overrides,
    )
    proxy = SipProxy(config)
    proxy.connection_opened(A_CONN, A_REMOTE)
    proxy.connection_opened(B_CONN, B_REMOTE)
    return proxy


def register_both(proxy, now=0.0):
    out_a = proxy.handle_message(
        A_CONN, samples.make_register("ClientA", "local1.com", "192.168.1.11"), now
    )
    out_b = proxy.handle_message(
        B_CONN, samples.make_register("ClientB", "local2.com", "10.0.0.4"), now
    )
    return out_a, out_b


def invite_from_b(call_id="call-1@local2.com"):
    """The callee-facing example flow: ClientB places the call to ClientA."""
    return samples.make_invite(
        caller="ClientB", caller_domain="local2.com", caller_host="10.0.0.4",
        callee="ClientA", callee_domain="local1.com", call_id=call_id,
    )


def establish_call(proxy, call_id="call-1@local2.com"):
    """INVITE from ClientB, 200 from ClientA, ACK; returns the ACK as sent."""
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(call_id), 1.0))
    answer = build_response(
        fwd_invite, 200, "OK",
        body=samples.sample_invite_body(), content_type="application/sdp",
    )
    proxy.handle_message(A_CONN, serialize_message(answer), 1.1)
    ack = replace(
        fwd_invite, method=Method.ACK, cseq_method=Method.ACK, body=b"", content_type=None,
        contact=None,
    )
    proxy.handle_message(B_CONN, serialize_message(ack), 1.2)
    assert proxy.calls[call_id].phase is Phase.ESTABLISHED
    return ack


def as_bye(ack):
    return replace(ack, method=Method.BYE, cseq_method=Method.BYE, cseq_num=2)


def only_message(outbound):
    assert len(outbound) == 1
    return outbound[0][0], parse_message(outbound[0][1])


@pytest.mark.parametrize(
    "fields",
    [
        {"public_ip": "200.1.1.1", "sip_tcp_port": 40050},
        {"public_ip": "200.1.1.1", "sip_tcp_port": 40000},
        {"public_ip": "200.1.1.1", "sip_tcp_port": 40099},
        # A host name binds, but no relay address can be written from it.
        {"public_ip": "localhost"},
    ],
    ids=[
        "sip_port_in_media_range", "sip_port_at_range_low_end", "sip_port_at_range_high_end",
        "public_ip_not_ipv4",
    ],
)
def test_config_rejects_a_field_the_proxy_cannot_serve(fields):
    with pytest.raises(ValueError):
        ProxyConfig(media_port_range=(40000, 40099), **fields)


def test_register_gets_200_on_same_connection():
    proxy = make_proxy()
    out_a, out_b = register_both(proxy)
    conn, msg = only_message(out_a)
    assert conn == A_CONN
    assert msg.status_code == 200
    conn, msg = only_message(out_b)
    assert conn == B_CONN
    assert proxy.registrar.route_to("sip:ClientA@local1.com") == A_CONN


def test_full_call_ladder_phases_and_teardown():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()

    conn, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    assert conn == A_CONN
    call = proxy.calls["call-1@local2.com"]
    assert call.phase is Phase.INVITING

    # Callee answers: 200 with its own (private) description, rewritten on the way back.
    answer = build_response(
        fwd_invite, 200, "OK",
        body=samples.sample_invite_body(), content_type="application/sdp",
        contact="sip:ClientA@192.168.1.11",
    )
    conn, fwd_answer = only_message(proxy.handle_message(A_CONN, serialize_message(answer), 1.1))
    assert conn == B_CONN
    assert call.phase is Phase.INVITING

    ack = fwd_invite  # reuse identity headers to build the ACK
    ack = replace(
        ack, method=Method.ACK, cseq_method=Method.ACK, body=b"", content_type=None,
        contact=None,
    )
    conn, _ = only_message(proxy.handle_message(B_CONN, serialize_message(ack), 1.2))
    assert conn == A_CONN
    assert call.phase is Phase.ESTABLISHED

    bye = replace(ack, method=Method.BYE, cseq_method=Method.BYE, cseq_num=2)
    conn, _ = only_message(proxy.handle_message(B_CONN, serialize_message(bye), 2.0))
    assert conn == A_CONN
    assert call.phase is Phase.TERMINATED
    assert proxy.media.pool.free_pairs() == pool_at_rest  # all ports back
    # The BYE is never answered: the call is kept for the guard time, then dropped.
    proxy.tick(33.9)
    assert "call-1@local2.com" in proxy.calls
    proxy.tick(34.0)
    assert proxy.calls == {}


def test_answered_bye_retires_call_and_late_bye_gets_481():
    proxy = make_proxy()
    register_both(proxy)
    bye = as_bye(establish_call(proxy))
    _, fwd_bye = only_message(proxy.handle_message(B_CONN, serialize_message(bye), 2.0))
    ok = build_response(fwd_bye, 200, "OK")
    conn, msg = only_message(proxy.handle_message(A_CONN, serialize_message(ok), 2.1))
    assert (conn, msg.status_code, msg.cseq_method) == (B_CONN, 200, Method.BYE)
    assert proxy.calls == {}
    assert proxy.media.sessions == {}

    conn, msg = only_message(proxy.handle_message(B_CONN, serialize_message(bye), 2.2))
    assert (conn, msg.status_code) == (B_CONN, 481)


def test_a_provisional_response_to_a_bye_is_relayed_and_only_the_final_one_retires_the_call():
    proxy = make_proxy()
    register_both(proxy)
    bye = as_bye(establish_call(proxy))
    _, fwd_bye = only_message(proxy.handle_message(B_CONN, serialize_message(bye), 2.0))
    ringing = serialize_message(build_response(fwd_bye, 180, "Ringing"))
    conn, msg = only_message(proxy.handle_message(A_CONN, ringing, 2.1))
    assert (conn, msg.status_code, msg.cseq_method) == (B_CONN, 180, Method.BYE)
    assert "call-1@local2.com" in proxy.calls
    ok = serialize_message(build_response(fwd_bye, 200, "OK"))
    conn, msg = only_message(proxy.handle_message(A_CONN, ok, 2.2))
    assert (conn, msg.status_code) == (B_CONN, 200)
    assert proxy.calls == {}


def test_bye_response_without_hangup_keeps_call_and_its_ports():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()
    bye = as_bye(establish_call(proxy))
    unsolicited = serialize_message(build_response(bye, 200, "OK"))
    for conn in (A_CONN, B_CONN, 3):
        proxy.handle_message(conn, unsolicited, 1.5)
    call = proxy.calls["call-1@local2.com"]
    assert call.phase is Phase.ESTABLISHED
    assert "call-1@local2.com" in proxy.media.sessions

    _, fwd_bye = only_message(proxy.handle_message(B_CONN, serialize_message(bye), 2.0))
    # Only the callee's answer to this BYE retires the call, not the hanging-up side's.
    proxy.handle_message(B_CONN, serialize_message(build_response(fwd_bye, 200, "OK")), 2.1)
    assert "call-1@local2.com" in proxy.calls
    stale = replace(fwd_bye, cseq_num=fwd_bye.cseq_num - 1)
    proxy.handle_message(A_CONN, serialize_message(build_response(stale, 200, "OK")), 2.2)
    assert "call-1@local2.com" in proxy.calls
    proxy.handle_message(A_CONN, serialize_message(build_response(fwd_bye, 200, "OK")), 2.3)
    assert proxy.calls == {}
    assert proxy.media.sessions == {}
    assert proxy.media.pool.free_pairs() == pool_at_rest


def test_bye_while_inviting_still_relays_the_487():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    bye = replace(
        fwd_invite, method=Method.BYE, cseq_method=Method.BYE, cseq_num=2, body=b"",
        content_type=None, contact=None,
    )
    _, fwd_bye = only_message(proxy.handle_message(B_CONN, serialize_message(bye), 1.1))
    conn, msg = only_message(
        proxy.handle_message(A_CONN, serialize_message(build_response(fwd_bye, 200, "OK")), 1.2)
    )
    assert (conn, msg.status_code, msg.cseq_method) == (B_CONN, 200, Method.BYE)
    terminated = build_response(fwd_invite, 487, "Request Terminated")
    conn, msg = only_message(proxy.handle_message(A_CONN, serialize_message(terminated), 1.3))
    assert (conn, msg.status_code, msg.cseq_method) == (B_CONN, 487, Method.INVITE)
    assert proxy.media.pool.free_pairs() == pool_at_rest
    proxy.tick(1.1 + INVITE_GUARD)
    assert proxy.calls == {}


def test_crossed_byes_relay_both_answers():
    proxy = make_proxy()
    register_both(proxy)
    bye_b = as_bye(establish_call(proxy))
    bye_a = replace(bye_b, cseq_num=7)
    _, fwd_bye_b = only_message(proxy.handle_message(B_CONN, serialize_message(bye_b), 2.0))
    _, fwd_bye_a = only_message(proxy.handle_message(A_CONN, serialize_message(bye_a), 2.0))
    for conn, fwd, dest in ((A_CONN, fwd_bye_b, B_CONN), (B_CONN, fwd_bye_a, A_CONN)):
        ok = serialize_message(build_response(fwd, 200, "OK"))
        out_conn, msg = only_message(proxy.handle_message(conn, ok, 2.1))
        assert (out_conn, msg.status_code, msg.cseq_num) == (dest, 200, fwd.cseq_num)
    proxy.tick(2.0 + INVITE_GUARD)
    assert proxy.calls == {}


def test_late_bye_answer_leaves_reused_call_id_alone():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()
    bye = as_bye(establish_call(proxy))
    _, fwd_bye = only_message(proxy.handle_message(B_CONN, serialize_message(bye), 2.0))
    proxy.handle_message(B_CONN, invite_from_b(), 3.0)  # same Call-ID, old call TERMINATED
    late_ok = serialize_message(build_response(fwd_bye, 200, "OK"))
    conn, msg = only_message(proxy.handle_message(A_CONN, late_ok, 3.1))
    assert (conn, msg.status_code) == (B_CONN, 200)
    assert proxy.calls["call-1@local2.com"].phase is Phase.INVITING
    assert "call-1@local2.com" in proxy.media.sessions
    proxy.tick(3.0 + INVITE_GUARD)
    assert proxy.media.pool.free_pairs() == pool_at_rest


@pytest.mark.parametrize("ended_by", ["bye", "invite_timeout", "connection_closed"])
def test_late_answer_for_an_ended_call_is_relayed_unrewritten(ended_by):
    proxy = make_proxy()
    register_both(proxy)
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b("old@x"), 1.0))
    if ended_by == "bye":
        bye = replace(
            fwd_invite, method=Method.BYE, cseq_method=Method.BYE, cseq_num=2, body=b"",
            content_type=None, contact=None,
        )
        proxy.handle_message(B_CONN, serialize_message(bye), 1.1)
    elif ended_by == "invite_timeout":
        proxy.tick(1.0 + INVITE_GUARD)
    else:
        proxy.connection_closed(A_CONN, 1.1)
        register_both(proxy, 1.1)
    old = proxy.calls["old@x"]
    assert old.phase is Phase.TERMINATED
    proxy.handle_message(B_CONN, invite_from_b("new@x"), 40.0)
    # The ended call's ports went back to the pool, and the new call holds them.
    assert proxy.calls["new@x"].media.legs[LEG_A].rtp.port == old.media.legs[LEG_A].rtp.port

    answer = build_response(
        fwd_invite, 200, "OK", body=samples.sample_invite_body(), content_type="application/sdp",
    )
    conn, msg = only_message(proxy.handle_message(A_CONN, serialize_message(answer), 40.1))
    # Rewritten, the answer would send the old caller's media to the new call's port.
    assert (conn, msg.status_code, msg.body) == (B_CONN, 200, answer.body)


def test_forwarded_descriptions_use_proxy_pool_ports():
    proxy = make_proxy()
    register_both(proxy)
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    offer = parse_sdp(fwd_invite.body)
    assert offer.connection_ip == "200.1.1.1"
    lo, hi = proxy.config.media_port_range
    assert lo <= offer.media[0].port <= hi
    session = proxy.calls["call-1@local2.com"].media
    assert offer.media[0].port == session.legs[LEG_B].rtp.port

    answer = build_response(
        fwd_invite, 200, "OK",
        body=samples.sample_invite_body(), content_type="application/sdp",
    )
    _, fwd_answer = only_message(proxy.handle_message(A_CONN, serialize_message(answer), 1.1))
    answered = parse_sdp(fwd_answer.body)
    assert answered.connection_ip == "200.1.1.1"
    assert answered.media[0].port == session.legs[LEG_A].rtp.port


def test_invite_request_is_stamped_with_source():
    proxy = make_proxy()
    register_both(proxy)
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    assert fwd_invite.via.received == B_REMOTE


def test_invite_for_unregistered_callee_404():
    proxy = make_proxy()
    conn, msg = only_message(proxy.handle_message(B_CONN, invite_from_b(), 0.0))
    assert conn == B_CONN
    assert msg.status_code == 404


def test_invite_with_pool_exhausted_503_no_leak():
    proxy = make_proxy(media_port_range=(40000, 40003))
    register_both(proxy)
    proxy.media.allocate_session("hog")  # consume the only two pairs
    before = proxy.media.pool.free_pairs()
    conn, msg = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    assert (conn, msg.status_code) == (B_CONN, 503)
    assert proxy.media.pool.free_pairs() == before
    assert "call-1@local2.com" not in proxy.calls


def test_invite_with_multi_media_offer_400_releases_ports():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()
    body = samples.crlf_body(samples.INVITE_BODY_LINES + ["m=video 50000 RTP/AVP 96"])
    raw = samples.make_invite(call_id="call-mm@local2.com", body=body)
    conn, msg = only_message(proxy.handle_message(B_CONN, raw, 1.0))
    assert (conn, msg.status_code) == (B_CONN, 400)
    assert proxy.media.pool.free_pairs() == pool_at_rest


def test_digit_fields_too_long_for_int_get_400_and_leak_no_ports():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()
    long_port = "m=audio " + "9" * 5000 + " RTP/AVP 0"
    body = samples.crlf_body([long_port if l.startswith("m=") else l for l in samples.INVITE_BODY_LINES])
    raw = samples.make_invite(call_id="call-long@local2.com", body=body)
    conn, msg = only_message(proxy.handle_message(B_CONN, raw, 1.0))
    assert (conn, msg.status_code) == (B_CONN, 400)
    assert proxy.media.pool.free_pairs() == pool_at_rest
    assert proxy.media.sessions == {} and "call-long@local2.com" not in proxy.calls

    long_cseq = samples.make_register().replace(b"CSeq: 1 ", b"CSeq: " + b"9" * 5000 + b" ")
    conn, msg = only_message(proxy.handle_message(A_CONN, long_cseq, 2.0))
    assert (conn, msg.status_code) == (A_CONN, 400)


def test_duplicate_invite_400():
    proxy = make_proxy()
    register_both(proxy)
    proxy.handle_message(B_CONN, invite_from_b(), 1.0)
    conn, msg = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.1))
    assert (conn, msg.status_code) == (B_CONN, 400)


def test_register_without_contact_400():
    proxy = make_proxy()
    conn, msg = only_message(
        proxy.handle_message(A_CONN, samples.make_register(contact=False), 0.0)
    )
    assert (conn, msg.status_code) == (A_CONN, 400)


def test_garbage_bytes_get_400_never_silence():
    proxy = make_proxy()
    conn, msg = only_message(proxy.handle_message(A_CONN, b"\x00\xffnot sip\r\n\r\n", 0.0))
    assert (conn, msg.status_code) == (A_CONN, 400)


def test_bye_for_unknown_call_481():
    proxy = make_proxy()
    register_both(proxy)
    raw = samples.make_invite(call_id="ghost@local2.com").replace(b"INVITE", b"BYE", 1)
    raw = raw.replace(b"CSeq: 1 INVITE", b"CSeq: 1 BYE")
    conn, msg = only_message(proxy.handle_message(B_CONN, raw, 0.0))
    assert (conn, msg.status_code) == (B_CONN, 481)


C_CONN = 3  # a third registered connection, party to no call


def record_events(proxy):
    events = []
    proxy.set_event_hook(lambda event, detail: events.append((event, detail)))
    return events


def with_third_party(proxy):
    proxy.connection_opened(C_CONN, TransportAddress("6.6.6.6", 5060))
    proxy.handle_message(C_CONN, samples.make_register("ClientC", "local3.com", "172.16.0.1"), 0.0)
    return record_events(proxy)


def test_bye_from_a_non_party_connection_gets_481_and_leaves_the_call():
    proxy = make_proxy()
    register_both(proxy)
    ack = establish_call(proxy)
    events = with_third_party(proxy)
    free = proxy.media.pool.free_pairs()
    conn, msg = only_message(proxy.handle_message(C_CONN, serialize_message(as_bye(ack)), 2.0))
    assert (conn, msg.status_code) == (C_CONN, 481)
    call = proxy.calls["call-1@local2.com"]
    assert call.phase is Phase.ESTABLISHED
    assert call.media is not None and call.call_id in proxy.media.sessions
    assert proxy.media.pool.free_pairs() == free
    assert [event for event, _ in events] == ["error_response"]
    # The parties can still hang up.
    conn, _ = only_message(proxy.handle_message(B_CONN, serialize_message(as_bye(ack)), 3.0))
    assert conn == A_CONN
    assert call.phase is Phase.TERMINATED


def test_a_party_bye_with_an_empty_request_uri_gets_400_and_leaves_the_call():
    proxy = make_proxy()
    register_both(proxy)
    ack = establish_call(proxy)
    free = proxy.media.pool.free_pairs()
    raw = serialize_message(as_bye(ack)).replace(f"BYE {ack.request_uri} ".encode(), b"BYE  ", 1)
    conn, msg = only_message(proxy.handle_message(B_CONN, raw, 2.0))
    assert (conn, msg.status_code) == (B_CONN, 400)
    call = proxy.calls["call-1@local2.com"]
    assert call.phase is Phase.ESTABLISHED
    assert call.media is not None and call.call_id in proxy.media.sessions
    assert proxy.media.pool.free_pairs() == free


def test_ack_from_a_non_party_connection_is_dropped():
    proxy = make_proxy()
    register_both(proxy)
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    events = with_third_party(proxy)
    ack = replace(
        fwd_invite, method=Method.ACK, cseq_method=Method.ACK, body=b"", content_type=None,
        contact=None,
    )
    assert proxy.handle_message(C_CONN, serialize_message(ack), 1.2) == []
    assert proxy.calls["call-1@local2.com"].phase is Phase.INVITING
    assert events == [("non_party_message", "ACK from connection 3 for call-1@local2.com")]


def test_response_from_a_non_party_connection_is_dropped():
    proxy = make_proxy()
    register_both(proxy)
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    events = with_third_party(proxy)
    free = proxy.media.pool.free_pairs()
    for status, reason in ((200, "OK"), (486, "Busy Here")):
        body = samples.sample_invite_body() if status == 200 else b""
        response = build_response(
            fwd_invite, status, reason, body=body,
            content_type="application/sdp" if body else None,
        )
        assert proxy.handle_message(C_CONN, serialize_message(response), 1.1) == []
    call = proxy.calls["call-1@local2.com"]
    assert call.phase is Phase.INVITING
    assert proxy.media.pool.free_pairs() == free
    assert events == [
        ("non_party_message", "200 from connection 3 for call-1@local2.com"),
        ("non_party_message", "486 from connection 3 for call-1@local2.com"),
    ]


def test_both_parties_on_one_connection_complete_a_call():
    # A trunk carries both users, so the caller's and callee's connection are one.
    proxy = make_proxy()
    proxy.handle_message(A_CONN, samples.make_register("ClientA", "local1.com", "192.168.1.11"), 0.0)
    proxy.handle_message(A_CONN, samples.make_register("ClientB", "local2.com", "10.0.0.4"), 0.0)
    pool_at_rest = proxy.media.pool.free_pairs()
    conn, fwd_invite = only_message(proxy.handle_message(A_CONN, invite_from_b(), 1.0))
    assert conn == A_CONN
    answer = build_response(
        fwd_invite, 200, "OK", body=samples.sample_invite_body(), content_type="application/sdp",
    )
    conn, _ = only_message(proxy.handle_message(A_CONN, serialize_message(answer), 1.1))
    assert conn == A_CONN
    ack = replace(
        fwd_invite, method=Method.ACK, cseq_method=Method.ACK, body=b"", content_type=None,
        contact=None,
    )
    conn, _ = only_message(proxy.handle_message(A_CONN, serialize_message(ack), 1.2))
    assert conn == A_CONN
    assert proxy.calls["call-1@local2.com"].phase is Phase.ESTABLISHED
    conn, fwd_bye = only_message(proxy.handle_message(A_CONN, serialize_message(as_bye(ack)), 2.0))
    assert conn == A_CONN
    assert proxy.media.pool.free_pairs() == pool_at_rest
    bye_ok = build_response(fwd_bye, 200, "OK")
    conn, _ = only_message(proxy.handle_message(A_CONN, serialize_message(bye_ok), 2.1))
    assert conn == A_CONN
    assert proxy.calls == {}


def test_error_response_to_invite_terminates_and_forwards():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    busy = build_response(fwd_invite, 486, "Busy Here")
    conn, msg = only_message(proxy.handle_message(A_CONN, serialize_message(busy), 1.1))
    assert (conn, msg.status_code) == (B_CONN, 486)
    assert proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED
    assert proxy.media.pool.free_pairs() == pool_at_rest
    proxy.tick(1.1 + INVITE_GUARD)
    assert proxy.calls == {}


def test_a_300_to_a_ringing_invite_ends_the_call_and_frees_its_four_ports():
    proxy = make_proxy()
    register_both(proxy)
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    assert len(proxy.media.ports) == 4
    redirect = serialize_message(build_response(fwd_invite, 300, "Multiple Choices"))
    conn, msg = only_message(proxy.handle_message(A_CONN, redirect, 1.1))
    assert (conn, msg.status_code) == (B_CONN, 300)
    assert proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED
    assert proxy.media.ports == {} and proxy.media.pool.allocated_count == 0


def test_an_answer_whose_description_will_not_parse_gets_the_caller_a_500():
    proxy = make_proxy()
    register_both(proxy)
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    events = []
    proxy.set_event_hook(lambda event, detail: events.append(event))
    answer = build_response(fwd_invite, 200, "OK", body=b"garbage", content_type="application/sdp")
    conn, msg = only_message(proxy.handle_message(A_CONN, serialize_message(answer), 1.1))
    assert (conn, msg.status_code, msg.reason) == (B_CONN, 500, "Server Internal Error")
    assert proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED
    assert len(proxy.media.pool.free_pairs()) == proxy.media.pool.pairs == 50
    assert events == ["media_released", "bad_answer"]


def test_a_late_error_response_to_an_established_calls_invite_is_relayed_and_keeps_the_call():
    proxy = make_proxy()
    register_both(proxy)
    ack = establish_call(proxy)
    call = proxy.calls["call-1@local2.com"]
    ports = proxy.media.ports.copy()
    invite = replace(ack, method=Method.INVITE, cseq_method=Method.INVITE)
    busy = build_response(invite, 486, "Busy Here")
    conn, msg = only_message(proxy.handle_message(A_CONN, serialize_message(busy), 2.0))
    assert (conn, msg.status_code) == (B_CONN, 486)
    assert call.phase is Phase.ESTABLISHED
    assert proxy.media.ports == ports


def test_a_resent_answer_whose_description_will_not_parse_is_dropped_and_keeps_the_call():
    proxy = make_proxy()
    register_both(proxy)
    ack = establish_call(proxy)
    call = proxy.calls["call-1@local2.com"]
    ports = proxy.media.ports.copy()
    events = record_events(proxy)
    invite = replace(ack, method=Method.INVITE, cseq_method=Method.INVITE)
    answer = build_response(invite, 200, "OK", body=b"garbage", content_type="application/sdp")
    assert proxy.handle_message(A_CONN, serialize_message(answer), 2.0) == []
    assert [event for event, _ in events] == ["bad_answer"]
    assert call.phase is Phase.ESTABLISHED
    assert proxy.media.ports == ports
    # A re-sent 200 that does parse is still rewritten to the same relay port.
    answer = replace(answer, body=samples.sample_invite_body())
    conn, msg = only_message(proxy.handle_message(A_CONN, serialize_message(answer), 2.1))
    assert conn == B_CONN
    assert parse_sdp(msg.body).media[0].port == call.media.legs[LEG_A].rtp.port


def tick_events(proxy, now):
    """The events one ``tick`` sends to the event hook, as (event, detail)."""
    events = record_events(proxy)
    assert proxy.tick(now) is None
    return events


def test_unanswered_invite_times_out_and_frees_ports():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()
    proxy.handle_message(B_CONN, invite_from_b(), 10.0)
    assert tick_events(proxy, 41.9) == []
    events = tick_events(proxy, 42.0)  # guard is 32 s
    assert [event for event, _ in events] == ["media_released", "invite_timeout"]
    assert events[-1] == ("invite_timeout", "call-1@local2.com")
    assert proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED
    assert proxy.media.pool.free_pairs() == pool_at_rest
    assert tick_events(proxy, 73.9) == []
    assert "call-1@local2.com" in proxy.calls
    proxy.tick(42.0 + INVITE_GUARD)
    assert proxy.calls == {}


def test_tick_expires_registrations():
    proxy = make_proxy()
    register_both(proxy, now=0.0)
    assert tick_events(proxy, REGISTRATION_TTL - 1.0) == []
    events = tick_events(proxy, REGISTRATION_TTL)
    assert sorted(detail for event, detail in events if event == "registration_expired") == [
        "sip:ClientA@local1.com",
        "sip:ClientB@local2.com",
    ]


def test_tick_noop_returns_empty():
    proxy = make_proxy()
    register_both(proxy)
    assert tick_events(proxy, 1.0) == []


def test_delivery_failure_of_invite_yields_404_to_caller():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()
    outbound = proxy.handle_message(B_CONN, invite_from_b(), 1.0)
    (conn, raw), = outbound
    assert conn == A_CONN
    followup = proxy.connection_closed(A_CONN, 1.1)
    (fail_conn, fail_raw), = followup
    assert fail_conn == B_CONN
    # The 404 answers the INVITE as it was forwarded, byte for byte.
    assert fail_raw == serialize_message(build_response(parse_message(raw), 404, "Not Found"))
    assert proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED
    assert proxy.media.pool.free_pairs() == pool_at_rest
    with pytest.raises(Exception):
        proxy.registrar.route_to("sip:ClientA@local1.com")
    proxy.tick(1.1 + INVITE_GUARD)
    assert proxy.calls == {}


def test_connection_close_invalidates_registrations():
    proxy = make_proxy()
    register_both(proxy)
    assert proxy.connection_closed(A_CONN, 0.5) == []
    assert proxy.registrar.live_aors() == ["sip:ClientB@local2.com"]
    conn, msg = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    assert (conn, msg.status_code) == (B_CONN, 404)


def test_closed_connections_end_their_calls_and_free_the_whole_pool():
    proxy = make_proxy()  # 100 ports: 50 pairs, two per call
    register_both(proxy)
    for n in range(25):
        establish_call(proxy, f"call-{n}@local2.com")
    assert proxy.media.pool.free_pairs() == frozenset()
    now = 10000.0
    # Both parties are gone; no BYE ever comes.
    assert proxy.connection_closed(A_CONN, now) == []
    assert proxy.connection_closed(B_CONN, now) == []
    proxy.tick(now + INVITE_GUARD)
    assert proxy.calls == {}
    assert proxy.media.sessions == {}
    assert proxy.media.ports == {}
    assert len(proxy.media.pool.free_pairs()) == proxy.media.pool.pairs == 50


def test_a_bye_to_a_peer_whose_connection_closed_gets_481_and_is_not_forwarded():
    proxy = make_proxy()
    register_both(proxy)
    ack = establish_call(proxy)
    assert proxy.connection_closed(A_CONN, 5.0) == []
    conn, msg = only_message(proxy.handle_message(B_CONN, serialize_message(as_bye(ack)), 6.0))
    assert (conn, msg.status_code, msg.cseq_method) == (B_CONN, 481, Method.BYE)
    assert proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED
    proxy.tick(5.0 + INVITE_GUARD)
    assert proxy.calls == {}


def test_an_answer_for_a_caller_whose_connection_closed_is_dropped():
    proxy = make_proxy()
    register_both(proxy)
    pool_at_rest = proxy.media.pool.free_pairs()
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    assert proxy.connection_closed(B_CONN, 1.1) == []
    events = record_events(proxy)
    answer = build_response(
        fwd_invite, 200, "OK", body=samples.sample_invite_body(), content_type="application/sdp",
    )
    assert proxy.handle_message(A_CONN, serialize_message(answer), 1.2) == []
    assert events == [("peer_gone", "200 for call-1@local2.com")]
    assert proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED
    assert proxy.media.pool.free_pairs() == pool_at_rest


def test_an_ack_for_a_callee_whose_connection_closed_is_dropped():
    proxy = make_proxy()
    register_both(proxy)
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    answer = build_response(
        fwd_invite, 200, "OK", body=samples.sample_invite_body(), content_type="application/sdp",
    )
    only_message(proxy.handle_message(A_CONN, serialize_message(answer), 1.1))
    conn, msg = only_message(proxy.connection_closed(A_CONN, 1.2))
    assert (conn, msg.status_code) == (B_CONN, 404)
    events = record_events(proxy)
    ack = replace(
        fwd_invite, method=Method.ACK, cseq_method=Method.ACK, body=b"", content_type=None,
        contact=None,
    )
    assert proxy.handle_message(B_CONN, serialize_message(ack), 1.3) == []
    assert events == [("peer_gone", "ACK for call-1@local2.com")]
    assert proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED


def test_a_closing_trunk_gets_no_404_for_its_own_ringing_caller():
    # Caller and callee share the trunk, so the 404 would go to the connection that is closing.
    proxy = make_proxy()
    proxy.handle_message(A_CONN, samples.make_register("ClientA", "local1.com", "192.168.1.11"), 0.0)
    proxy.handle_message(A_CONN, samples.make_register("ClientB", "local2.com", "10.0.0.4"), 0.0)
    pool_at_rest = proxy.media.pool.free_pairs()
    conn, _ = only_message(proxy.handle_message(A_CONN, invite_from_b(), 1.0))
    assert conn == A_CONN
    events = record_events(proxy)
    assert proxy.connection_closed(A_CONN, 1.1) == []
    assert events == [
        ("registration_dropped", "sip:ClientA@local1.com"),
        ("registration_dropped", "sip:ClientB@local2.com"),
        ("peer_gone", "404 for call-1@local2.com"),
        ("media_released", "call-1@local2.com: 4 ports freed"),
    ]
    assert proxy.calls["call-1@local2.com"].phase is Phase.TERMINATED
    assert proxy.media.pool.free_pairs() == pool_at_rest


def test_relay_disabled_forwards_bodies_untouched():
    proxy = make_proxy(media_relay=False)
    register_both(proxy)
    raw = invite_from_b()
    original_body = parse_message(raw).body
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, raw, 1.0))
    assert fwd_invite.body == original_body
    assert proxy.media.pool.allocated_count == 0


def test_media_datagram_path_through_proxy():
    proxy = make_proxy()
    register_both(proxy)
    _, fwd_invite = only_message(proxy.handle_message(B_CONN, invite_from_b(), 1.0))
    answer = build_response(
        fwd_invite, 200, "OK", body=samples.sample_invite_body(),
        content_type="application/sdp",
    )
    proxy.handle_message(A_CONN, serialize_message(answer), 1.1)
    session = proxy.calls["call-1@local2.com"].media
    b_port = session.legs[LEG_B].rtp.port
    a_port = session.legs[LEG_A].rtp.port
    b_media = ("77.224.10.9", 6200)
    a_media = ("68.92.25.44", 62001)

    assert proxy.handle_media(b_port, b_media, b"from-b") == []  # buffered
    sends = proxy.handle_media(a_port, a_media, b"from-a")
    assert [(s.from_port, s.to, s.payload) for s in sends] == [
        (a_port, a_media, b"from-b"),
        (b_port, b_media, b"from-a"),
    ]


def wire(*lines, body=b""):
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


def test_call_exchange_wire_output_is_pinned():
    """Exact bytes the proxy sends for one INVITE/200/ACK/BYE/200 exchange."""
    proxy = make_proxy()
    register_both(proxy)
    b_sdp = samples.sample_answer_body()
    a_sdp = samples.sample_invite_body()
    from_b = 'From: "Client B" <sip:ClientB@local2.com>;tag=b1'
    to_a = "To: <sip:ClientA@local1.com>;tag=a1"
    call_id = "Call-ID: call-1@local2.com"
    received = ";received=77.224.10.9:6001"
    exchange = [
        (B_CONN, wire(
            "INVITE sip:ClientA@local1.com SIP/2.0",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKinv1;rport", "Max-Forwards: 70",
            from_b, "To: <sip:ClientA@local1.com>", call_id, "CSeq: 1 INVITE",
            "Contact: <sip:ClientB@10.0.0.4:6580;transport=tcp>", "Content-Type: application/sdp",
            f"Content-Length: {len(b_sdp)}", body=b_sdp,
        )),
        (A_CONN, wire(
            "SIP/2.0 200 OK",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKinv1;rport" + received,
            from_b, to_a, call_id, "CSeq: 1 INVITE", "Contact: <sip:ClientA@192.168.1.11:49570>",
            "Content-Type: application/sdp", f"Content-Length: {len(a_sdp)}", body=a_sdp,
        )),
        (B_CONN, wire(
            "ACK sip:ClientA@192.168.1.11:49570 SIP/2.0",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKack1;rport", "Max-Forwards: 70",
            from_b, to_a, call_id, "CSeq: 1 ACK", "Content-Length: 0",
        )),
        (B_CONN, wire(
            "BYE sip:ClientA@192.168.1.11:49570 SIP/2.0",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKbye1;rport", "Max-Forwards: 70",
            from_b, to_a, call_id, "CSeq: 2 BYE", "Content-Length: 0",
        )),
        (A_CONN, wire(
            "SIP/2.0 200 OK",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKbye1;rport" + received,
            from_b, to_a, call_id, "CSeq: 2 BYE", "Content-Length: 0",
        )),
    ]
    sent = []
    for step, (conn, raw) in enumerate(exchange):
        sent += proxy.handle_message(conn, raw, 1.0 + step / 10)

    assert sent == [
        (A_CONN, wire(
            "INVITE sip:ClientA@local1.com SIP/2.0",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKinv1;received=77.224.10.9:6001;rport",
            'From: "Client B" <sip:ClientB@local2.com>;tag=b1',
            "To: <sip:ClientA@local1.com>",
            "Call-ID: call-1@local2.com",
            "CSeq: 1 INVITE",
            "Contact: <sip:ClientB@10.0.0.4:6580;transport=tcp>",
            "Max-Forwards: 70",
            "Content-Type: application/sdp",
            "Content-Length: 142",
            body=b"v=0\r\no=ClientB 284586526 28922265 IN IP4 local2.com\r\ns=Session SDP\r\n"
            b"c=IN IP4 200.1.1.1\r\nt=0 0\r\nm=audio 40002 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n",
        )),
        (B_CONN, wire(
            "SIP/2.0 200 OK",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKinv1;received=77.224.10.9:6001;rport",
            'From: "Client B" <sip:ClientB@local2.com>;tag=b1',
            "To: <sip:ClientA@local1.com>;tag=a1",
            "Call-ID: call-1@local2.com",
            "CSeq: 1 INVITE",
            "Contact: <sip:ClientA@192.168.1.11:49570>",
            "Content-Type: application/sdp",
            "Content-Length: 149",
            body=b"v=0\r\no=ClientA 2890844526 28902245844526 IN IP4 local1.com\r\n"
            b"s=Session SDP\r\nc=IN IP4 200.1.1.1\r\nt=0 0\r\nm=audio 40000 RTP/AVP 0\r\n"
            b"a=rtpmap:0 PCMU/8000\r\n",
        )),
        (A_CONN, wire(
            "ACK sip:ClientA@192.168.1.11:49570 SIP/2.0",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKack1;received=77.224.10.9:6001;rport",
            'From: "Client B" <sip:ClientB@local2.com>;tag=b1',
            "To: <sip:ClientA@local1.com>;tag=a1",
            "Call-ID: call-1@local2.com",
            "CSeq: 1 ACK",
            "Max-Forwards: 70",
            "Content-Length: 0",
        )),
        (A_CONN, wire(
            "BYE sip:ClientA@192.168.1.11:49570 SIP/2.0",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKbye1;received=77.224.10.9:6001;rport",
            'From: "Client B" <sip:ClientB@local2.com>;tag=b1',
            "To: <sip:ClientA@local1.com>;tag=a1",
            "Call-ID: call-1@local2.com",
            "CSeq: 2 BYE",
            "Max-Forwards: 70",
            "Content-Length: 0",
        )),
        (B_CONN, wire(
            "SIP/2.0 200 OK",
            "Via: SIP/2.0/TCP 10.0.0.4:6580;branch=z9hG4bKbye1;received=77.224.10.9:6001;rport",
            'From: "Client B" <sip:ClientB@local2.com>;tag=b1',
            "To: <sip:ClientA@local1.com>;tag=a1",
            "Call-ID: call-1@local2.com",
            "CSeq: 2 BYE",
            "Content-Length: 0",
        )),
    ]
    assert proxy.calls == {}
    assert proxy.media.pool.allocated_count == 0


# -- leak invariants under random interleavings ---------------------------------

MACHINE_CONNS = (1, 2, 3, 4)
STRANGER = ("6.6.6.6", 666)
# The callee's answers: accept, refuse, or accept with a description that will not parse.
ACCEPT = (200, "OK", samples.sample_invite_body())
MACHINE_ANSWERS = (ACCEPT, (486, "Busy Here", b""), (200, "OK", b"garbage"))
# Who sends a media packet to a leg: mostly its own party.
MEDIA_SENDERS = ("party", "party", "party", "peer", "stranger")


@dataclass
class PlacedCall:
    """A call the proxy forwarded: who placed it, where it went, and the INVITE as forwarded."""

    caller: int
    callee: int
    invite: SipMessage


class LeakFreeLifecycle(RuleBasedStateMachine):
    """Random calls, hangups, closes, ticks and media over one ``SipProxy``.

    After every step no relay pair is lost or held by an ended call, and once
    every connection closes and the guard time passes nothing is left.  A
    closed connection never sends again, as in the service, and no message
    the proxy returns is addressed to one.
    """

    def __init__(self):
        super().__init__()
        self.proxy = SipProxy(ProxyConfig(public_ip="200.1.1.1", media_port_range=(40000, 40009)))
        self.now = 0.0
        self.open = list(MACHINE_CONNS)
        for conn in MACHINE_CONNS:
            self.proxy.connection_opened(conn, TransportAddress(f"10.9.0.{conn}", 5060))
            self.register_on(conn)
        self.placed: list[PlacedCall] = []
        self.byes: list[tuple[int, SipMessage]] = []  # forwarded BYEs and who received them

    def delivered(self, outbound: list) -> list:
        """Check that every message in ``outbound`` is addressed to an open connection; return it."""
        for dest, _ in outbound:
            assert dest in self.open
        return outbound

    def send(self, conn, msg) -> list:
        raw = msg if isinstance(msg, bytes) else serialize_message(msg)
        return self.delivered(self.proxy.handle_message(conn, raw, self.now))

    def close_conn(self, conn):
        self.open.remove(conn)
        self.delivered(self.proxy.connection_closed(conn, self.now))

    def recent_call(self, data) -> PlacedCall:
        """A call the proxy still holds live, when there is one, so that answers,
        ACKs and BYEs reach the calls they can still change; else one of the
        last three calls placed."""
        calls = self.proxy.calls
        live = [
            call for call in self.placed
            if call.invite.call_id in calls and calls[call.invite.call_id].phase is not Phase.TERMINATED
        ]
        return data.draw(st.sampled_from(live or self.placed[-3:]))

    def register_on(self, conn):
        self.send(conn, samples.make_register(f"U{conn}", "sm.test", f"192.168.0.{conn}"))

    @rule(data=st.data())
    def register(self, data):
        self.register_on(data.draw(st.sampled_from(self.open)))

    def place(self, caller, callee) -> PlacedCall | None:
        invite = samples.make_invite(
            caller=f"U{caller}", caller_domain="sm.test", caller_host=f"192.168.0.{caller}",
            callee=f"U{callee}", callee_domain="sm.test", call_id=f"sm-{len(self.placed)}",
        )
        ((dest, raw),) = self.send(caller, invite)  # forwarded, or refused
        msg = parse_message(raw)
        if not msg.is_request:
            return None
        self.placed.append(PlacedCall(caller, dest, msg))
        return self.placed[-1]

    def answer_call(self, call, answer):
        code, reason, body = answer
        if call.callee in self.open:
            self.send(
                call.callee,
                build_response(call.invite, code, reason, body=body, content_type="application/sdp"),
            )

    def ack_call(self, call):
        if call.caller in self.open:
            self.send(call.caller, replace(
                call.invite, method=Method.ACK, cseq_method=Method.ACK, body=b"", content_type=None,
                contact=None,
            ))

    @rule(data=st.data(), callee=st.sampled_from(MACHINE_CONNS))
    def invite(self, data, callee):
        self.place(data.draw(st.sampled_from(self.open)), callee)

    @rule(data=st.data(), callee=st.sampled_from(MACHINE_CONNS))
    def accepted_call(self, data, callee):
        """INVITE, 200 and ACK in one step, so that many calls reach ESTABLISHED."""
        call = self.place(data.draw(st.sampled_from(self.open)), callee)
        if call is not None:
            self.answer_call(call, ACCEPT)
            self.ack_call(call)

    @precondition(lambda self: self.placed)
    @rule(data=st.data(), answer=st.sampled_from(MACHINE_ANSWERS))
    def answer(self, data, answer):
        call = self.recent_call(data)
        state = self.proxy.calls.get(call.invite.call_id)
        established = state is not None and state.phase is Phase.ESTABLISHED
        self.answer_call(call, answer)
        if established:  # a late answer, of any kind, does not end the call
            assert state.phase is Phase.ESTABLISHED

    @precondition(lambda self: self.placed)
    @rule(data=st.data())
    def ack(self, data):
        self.ack_call(self.recent_call(data))

    @precondition(lambda self: self.placed)
    @rule(data=st.data())
    def bye(self, data):
        call = self.recent_call(data)
        senders = [party for party in (call.caller, call.callee) if party in self.open]
        if senders:
            sender = data.draw(st.sampled_from(senders))
            bye = replace(
                call.invite, method=Method.BYE, cseq_method=Method.BYE, cseq_num=2, body=b"",
                content_type=None, contact=None,
            )
            for dest, raw in self.send(sender, bye):
                msg = parse_message(raw)
                if msg.is_request:
                    assert dest in self.open  # a closed peer gets no BYE: the sender gets 481
                    self.byes.append((dest, msg))

    @precondition(lambda self: self.byes)
    @rule(data=st.data())
    def bye_answer(self, data):
        receiver, bye = data.draw(st.sampled_from(self.byes[-3:]))
        if receiver in self.open:
            self.send(receiver, build_response(bye, 200, "OK"))

    @precondition(lambda self: len(self.open) > 1)
    @rule(data=st.data())
    def close(self, data):
        self.close_conn(data.draw(st.sampled_from(self.open)))

    @rule(seconds=st.sampled_from([1.0, INVITE_GUARD]))
    def tick(self, seconds):
        self.now += seconds
        self.proxy.tick(self.now)

    @precondition(lambda self: self.proxy.media.sessions)
    @rule(
        data=st.data(), first=st.sampled_from((LEG_A, LEG_B)), rtcp=st.booleans(),
        senders=st.tuples(st.sampled_from(MEDIA_SENDERS), st.sampled_from(MEDIA_SENDERS)),
    )
    def media(self, data, first, rtcp, senders):
        """A packet to each leg of a call that holds a session, ``first`` leg
        first, each mostly from that leg's party, so that both legs latch and
        the relay forwards.  Every datagram the relay emits leaves one of the
        call's live ports for that port's latched address."""
        call_id = data.draw(st.sampled_from(list(self.proxy.media.sessions)))
        call = self.proxy.calls[call_id]
        legs = self.proxy.media.sessions[call_id].legs
        call_ports = {
            relay_port.port: relay_port for leg in legs.values() for relay_port in (leg.rtp, leg.rtcp)
        }
        for leg, sender in zip((first, LEG_B if first == LEG_A else LEG_A), senders):
            party = call.caller_conn if leg == LEG_A else call.callee_conn
            if sender == "stranger":
                src = STRANGER
            else:
                src = (f"10.9.0.{party if sender == 'party' else call.peer_conn(party)}", 7000)
            relay_port = legs[leg].rtcp if rtcp else legs[leg].rtp
            for send in self.proxy.handle_media(relay_port.port, src, b"rtp"):
                from_port = call_ports.get(send.from_port)  # handle_media releases no port
                assert from_port is not None and send.to == from_port.latched

    @invariant()
    def every_pair_is_free_or_held_by_a_live_call(self):
        media = self.proxy.media
        assert len(media.pool.free_pairs()) + 2 * len(media.sessions) == media.pool.pairs
        for call in self.proxy.calls.values():
            if call.phase is Phase.TERMINATED:
                assert call.call_id not in media.sessions  # every placed call has its own Call-ID
        live_ports = {
            relay_port.port: relay_port
            for session in media.sessions.values()
            for leg in session.legs.values()
            for relay_port in (leg.rtp, leg.rtcp)
        }
        assert media.ports == live_ports

    def teardown(self):
        for conn in list(self.open):
            self.close_conn(conn)
        self.proxy.tick(self.now + INVITE_GUARD)
        media = self.proxy.media
        assert (self.proxy.calls, media.sessions, media.ports) == ({}, {}, {})
        assert self.proxy.registrar.live_aors() == []
        assert len(media.pool.free_pairs()) == media.pool.pairs


TestLeakFreeLifecycle = LeakFreeLifecycle.TestCase
TestLeakFreeLifecycle.settings = settings(max_examples=50, stateful_step_count=40, deadline=None)
