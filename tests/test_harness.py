import hashlib
import json
from dataclasses import replace

import pytest

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
from sipnat.media_controller import LEG_A, LEG_B
from sipnat.nat import UDP, NatBox, NatConfig, NatType
from sipnat.net import TransportAddress
from sipnat.proxy import ProxyConfig, SipProxy
from sipnat.simnet import SimClient, SimNetwork
from sipnat.sip_message import parse_message

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


def test_latched_addresses_equal_nat_mappings():
    s = scenario(seed=3)
    ctx = build_simulation(s)
    execute_script(ctx, s)
    session = ctx.proxy.media.session_for(ctx.client_a.call_id)
    leg_a, leg_b = session.legs[LEG_A], session.legs[LEG_B]
    proxy_ip = ctx.proxy.config.public_ip
    a_expected = ctx.nat_a.external_for(
        ctx.client_a.rtp_addr, TransportAddress(proxy_ip, leg_a.rtp.port)
    )
    b_expected = ctx.nat_b.external_for(
        ctx.client_b.rtp_addr, TransportAddress(proxy_ip, leg_b.rtp.port)
    )
    assert leg_a.rtp.latched == (a_expected.ip, a_expected.port)
    assert leg_b.rtp.latched == (b_expected.ip, b_expected.port)


def test_forwarding_from_wrong_proxy_port_is_blocked():
    s = scenario(seed=3)
    ctx = build_simulation(s)
    execute_script(ctx, s)
    session = ctx.proxy.media.session_for(ctx.client_a.call_id)
    leg_b = session.legs[LEG_B]
    latched_b = TransportAddress(*leg_b.rtp.latched)
    proxy_ip = ctx.proxy.config.public_ip
    now = ctx.net.now
    right_port = TransportAddress(proxy_ip, leg_b.rtp.port)
    wrong_port = TransportAddress(proxy_ip, leg_b.rtp.port + 10)
    assert ctx.nat_b.inbound(right_port, latched_b, now) == ctx.client_b.rtp_addr
    assert ctx.nat_b.inbound(wrong_port, latched_b, now) is None


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
    expected = ctx.nat_a.external_for(ctx.client_a.sip_addr, ctx.net.sip_addr, transport=TCP)
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
        remotes = [remote for conn, remote in opened if conn == client.channel.conn_id]
        assert len(remotes) == 2 and remotes[0] != remotes[1] == client.channel.external
    assert sorted(e.actor for e in ctx.net.events if e.event == "connected") == ["client_a", "client_b"]


def test_declared_addresses_recorded_but_not_used():
    s = scenario(seed=3)
    ctx = build_simulation(s)
    execute_script(ctx, s)
    session = ctx.proxy.media.session_for(ctx.client_a.call_id)
    assert session.legs[LEG_A].declared == TransportAddress("192.168.1.11", 49570)
    assert session.legs[LEG_B].declared == TransportAddress("10.0.0.4", 6580)
    declared = session.legs[LEG_A].declared
    assert session.legs[LEG_A].rtp.latched != (declared.ip, declared.port)


def test_relayed_descriptions_only_name_proxy_ports():
    s = scenario(seed=3)
    ctx = build_simulation(s)
    execute_script(ctx, s)
    from sipnat.sdp import parse_sdp

    lo, hi = ctx.proxy.config.media_port_range
    bodies = ctx.client_a.received_bodies + ctx.client_b.received_bodies
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


def test_signaling_address_rebound_to_the_same_port_is_announced_again():
    # A two-port NAT whose other port goes to a second host hands the expired
    # binding's port straight back on the next allocation.  The proxy
    # dropped the connection when a delivery to the old binding failed, so it
    # must hear of the address again to stamp 'received' on what follows.
    proxy = SipProxy(ProxyConfig(public_ip="203.0.113.1"))
    net = SimNetwork(proxy, sip_transport=UDP)
    nat = NatBox(NatConfig(SYM, "198.51.100.1", udp_binding_ttl=30.0, port_range=(5000, 5001)))
    net.add_nat("nat_a", nat)
    client = SimClient(net, "client_a", "ClientA", "local1.com", nat, "nat_a", "192.168.1.11", 8000)
    client.register()
    net.run()
    first = TransportAddress("198.51.100.1", 5000)
    assert parse_message(client.raw_received[-1]).via.received == first
    nat.outbound(TransportAddress("192.168.1.12", 5060), net.sip_addr, net.now, transport=UDP)
    net.settle_to(60.0)
    nat.expire(net.now)
    client.channel.proxy_send(client.raw_received[-1])
    net.run()
    assert any(e.event == "delivery_failed" for e in net.events)
    client.register()
    net.run()
    reply = parse_message(client.raw_received[-1])
    assert reply.status_code == 200
    assert reply.via.received == first


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
PINNED_REPORTS_SHA256 = "2f8f840f04af8f4ad338efd757db50f796630e0aa23ba110b5956a7f3c363a29"


def test_reports_match_the_pinned_bytes():
    digest = hashlib.sha256()
    for signaling in ("tcp", "udp"):
        for mode in MODES:
            for nat_a in NatType:
                for nat_b in NatType:
                    s = scenario(nat_a, nat_b, default_script(20), seed=3, mode=mode, signaling=signaling)
                    digest.update(run_scenario(s).to_json().encode())
    assert digest.hexdigest() == PINNED_REPORTS_SHA256


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
    s = scenario(seed=4, script=default_script(6))
    ctx = build_simulation(s)
    execute_script(ctx, s)
    session = ctx.proxy.media.session_for(ctx.client_a.call_id)
    for leg in session.legs.values():
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
        {"kind": "talk", "packets": 65537},
        {"kind": "talk", "packets": True},
        {"kind": "talk", "interval": float("nan")},
        {"kind": "talk", "interval": float("inf")},
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
