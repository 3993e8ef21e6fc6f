import pytest

from sipnat.nat import TCP, UDP, NatBox, NatConfig, NatType, PortPoolExhausted
from sipnat.net import TransportAddress

LOCAL = TransportAddress("192.168.1.11", 5600)
DEST = TransportAddress("222.212.69.5", 5600)
OTHER_DEST = TransportAddress("222.212.69.5", 3560)
STRANGER = TransportAddress("222.250.16.2", 4000)


def make_nat(nat_type, ttl=60.0, tcp_ttl=None, first_port=4325, seed=0):
    return NatBox(
        NatConfig(
            nat_type=nat_type,
            public_ip="68.92.25.44",
            udp_binding_ttl=ttl,
            tcp_idle_ttl=tcp_ttl,
            port_range=(first_port, first_port + 99),
        ),
        seed=seed,
    )


def accepts_oracle(nat_type, history, source, binding_dest):
    """Filtering rules written out independently of the implementation."""
    if nat_type is NatType.FULL_CONE:
        return True
    if nat_type is NatType.RESTRICTED_CONE:
        return source.ip in {d.ip for d in history}
    if nat_type is NatType.PORT_RESTRICTED_CONE:
        return source in set(history)
    return source == binding_dest


# -- mapping behavior ----------------------------------------------------------


def test_full_cone_maps_and_reuses_external_port():
    nat = make_nat(NatType.FULL_CONE)
    first = nat.outbound(LOCAL, DEST, now=0.0)
    assert first == TransportAddress("68.92.25.44", 4325)
    second = nat.outbound(LOCAL, STRANGER, now=1.0)
    assert second == first  # one mapping per internal source, any destination


def test_full_cone_inbound_from_anyone():
    nat = make_nat(NatType.FULL_CONE)
    external = nat.outbound(LOCAL, DEST, now=0.0)
    for source in (DEST, STRANGER, TransportAddress("1.2.3.4", 9)):
        assert nat.inbound(source, external, now=1.0) == LOCAL


def test_restricted_cone_filters_by_ip_only():
    nat = make_nat(NatType.RESTRICTED_CONE)
    external = nat.outbound(LOCAL, DEST, now=0.0)
    assert nat.inbound(STRANGER, external, now=1.0) is None
    same_ip_other_port = TransportAddress("222.212.69.5", 9999)
    assert nat.inbound(same_ip_other_port, external, now=1.0) == LOCAL


def test_port_restricted_cone_requires_exact_pair():
    nat = make_nat(NatType.PORT_RESTRICTED_CONE)
    external = nat.outbound(LOCAL, DEST, now=0.0)
    assert nat.inbound(OTHER_DEST, external, now=1.0) is None
    assert nat.inbound(DEST, external, now=1.0) == LOCAL


def test_symmetric_new_mapping_per_destination():
    nat = make_nat(NatType.SYMMETRIC)
    first = nat.outbound(LOCAL, DEST, now=0.0)
    second = nat.outbound(LOCAL, STRANGER, now=0.0)
    assert first.port != second.port
    # inbound only from the exact destination that created the mapping
    assert nat.inbound(DEST, first, now=1.0) == LOCAL
    assert nat.inbound(STRANGER, first, now=1.0) is None
    assert nat.inbound(STRANGER, second, now=1.0) == LOCAL


def test_repeat_send_same_mapping_and_refresh():
    nat = make_nat(NatType.PORT_RESTRICTED_CONE, ttl=60.0)
    first = nat.outbound(LOCAL, DEST, now=0.0)
    again = nat.outbound(LOCAL, DEST, now=59.0)
    assert again == first
    # refreshed at 59, so still alive at 118.9
    assert nat.inbound(DEST, first, now=118.9) == LOCAL


def test_external_ports_unique_among_live_bindings():
    nat = make_nat(NatType.SYMMETRIC)
    seen = set()
    for port in range(1000, 1020):
        ext = nat.outbound(LOCAL, TransportAddress("9.9.9.9", port), now=0.0)
        assert ext.port not in seen
        seen.add(ext.port)


def test_seeded_offset_and_exhaustion():
    nat = make_nat(NatType.SYMMETRIC, seed=5)
    ext = nat.outbound(LOCAL, DEST, now=0.0)
    assert ext.port == 4330  # 4325 + 5
    tiny = NatBox(
        NatConfig(nat_type=NatType.SYMMETRIC, public_ip="68.92.25.44", port_range=(4325, 4326)),
        seed=0,
    )
    tiny.outbound(LOCAL, DEST, now=0.0)
    tiny.outbound(LOCAL, STRANGER, now=0.0)
    with pytest.raises(PortPoolExhausted):
        tiny.outbound(LOCAL, TransportAddress("4.4.4.4", 4), now=0.0)


# -- expiry ---------------------------------------------------------------------


def test_udp_binding_expires_at_exactly_60():
    nat = make_nat(NatType.FULL_CONE)
    external = nat.outbound(LOCAL, DEST, now=0.0)
    assert nat.expire(now=59.0) == 0
    assert nat.inbound(DEST, external, now=59.0) == LOCAL  # also refreshes
    assert nat.expire(now=119.0) == 1
    assert nat.inbound(DEST, external, now=119.0) is None


def test_idle_61_seconds_blocks_inbound():
    nat = make_nat(NatType.FULL_CONE)
    external = nat.outbound(LOCAL, DEST, now=0.0)
    assert nat.expire(now=61.0) == 1
    assert nat.inbound(DEST, external, now=61.0) is None


def test_staleness_checked_lazily_without_expire():
    nat = make_nat(NatType.FULL_CONE)
    external = nat.outbound(LOCAL, DEST, now=0.0)
    assert nat.inbound(DEST, external, now=60.0) is None  # no expire() sweep ran


@pytest.mark.parametrize("nat_type", [NatType.FULL_CONE, NatType.SYMMETRIC])
def test_outbound_on_a_stale_binding_maps_a_fresh_port(nat_type):
    nat = make_nat(nat_type)
    first = nat.outbound(LOCAL, DEST, now=0.0)
    assert nat.outbound(LOCAL, DEST, now=59.5) == first  # idle just under the TTL: kept
    fresh = nat.outbound(LOCAL, DEST, now=119.5)  # idle exactly the TTL: dropped, remapped
    assert fresh.port != first.port
    assert [b.external for b in nat.bindings] == [fresh]
    assert nat.inbound(DEST, first, now=119.5) is None
    assert nat.inbound(DEST, fresh, now=119.5) == LOCAL


def test_keepalive_every_59_seconds_sustains_binding():
    nat = make_nat(NatType.PORT_RESTRICTED_CONE)
    external = nat.outbound(LOCAL, DEST, now=0.0)
    now = 0.0
    for _ in range(10):
        now += 59.0
        assert nat.inbound(DEST, external, now=now) == LOCAL
        assert nat.outbound(LOCAL, DEST, now=now) == external
    assert nat.inbound(DEST, external, now=now + 60.0) is None


def test_tcp_binding_survives_long_idle_by_default():
    nat = make_nat(NatType.SYMMETRIC)
    proxy = TransportAddress("200.1.1.1", 5060)
    external = nat.outbound(LOCAL, proxy, now=0.0, transport=TCP)
    assert nat.expire(now=10_000.0) == 0
    assert nat.inbound(proxy, external, now=10_000.0, transport=TCP) == LOCAL


def test_tcp_binding_with_finite_idle_ttl_expires():
    nat = make_nat(NatType.SYMMETRIC, tcp_ttl=100.0)
    proxy = TransportAddress("200.1.1.1", 5060)
    external = nat.outbound(LOCAL, proxy, now=0.0, transport=TCP)
    assert nat.inbound(proxy, external, now=99.0, transport=TCP) == LOCAL
    assert nat.inbound(proxy, external, now=200.0, transport=TCP) is None


@pytest.mark.parametrize(
    "ttls",
    [
        {"ttl": float("nan")},
        {"ttl": float("inf")},
        {"ttl": 0.0},
        {"ttl": -1.0},
        {"tcp_ttl": float("nan")},
        {"tcp_ttl": float("inf")},
        {"tcp_ttl": 0.0},
        {"tcp_ttl": -5.0},
    ],
)
def test_config_rejects_a_ttl_that_is_not_finite_and_positive(ttls):
    # A NaN TTL never expires a binding (no comparison with NaN is true),
    # and a negative one makes every binding stale at once.
    with pytest.raises(ValueError):
        make_nat(NatType.SYMMETRIC, **ttls)


def test_transport_spaces_do_not_cross():
    nat = make_nat(NatType.FULL_CONE)
    external = nat.outbound(LOCAL, DEST, now=0.0, transport=TCP)
    assert nat.inbound(DEST, external, now=1.0, transport=UDP) is None


# -- properties -------------------------------------------------------------------


def grid_sources():
    ips = ["222.212.69.5", "222.250.16.2"] + [f"10.1.{i}.{i}" for i in range(18)]
    ports = [5600, 3560, 9999] + list(range(2000, 2017))
    return [TransportAddress(ip, port) for ip in ips for port in ports]


HISTORIES = [
    [DEST],
    [DEST, OTHER_DEST],  # same IP, different port
    [DEST, TransportAddress("130.1.1.1", 700)],  # different IPs
]


def accepted_set(nat_type, history):
    nat = make_nat(nat_type)
    external = None
    for dest in history:
        mapped = nat.outbound(LOCAL, dest, now=0.0)
        external = external or mapped  # probe the first mapping
    return {src for src in grid_sources() if nat.inbound(src, external, now=1.0) == LOCAL}


def test_filtering_matches_rule_oracle_on_grid():
    for history in HISTORIES:
        for nat_type in NatType:
            got = accepted_set(nat_type, history)
            expected = {
                src
                for src in grid_sources()
                if accepts_oracle(nat_type, history, src, history[0])
            }
            assert got == expected, f"{nat_type} with history {history}"


def test_filtering_monotonicity():
    for history in HISTORIES:
        full = accepted_set(NatType.FULL_CONE, history)
        restricted = accepted_set(NatType.RESTRICTED_CONE, history)
        port_restricted = accepted_set(NatType.PORT_RESTRICTED_CONE, history)
        assert full >= restricted >= port_restricted


def test_symmetric_subset_of_port_restricted_for_single_destination():
    symmetric = accepted_set(NatType.SYMMETRIC, [DEST])
    port_restricted = accepted_set(NatType.PORT_RESTRICTED_CONE, [DEST])
    assert symmetric <= port_restricted


def test_no_inbound_without_prior_outbound():
    for nat_type in NatType:
        nat = make_nat(nat_type)
        for port in range(4325, 4345):
            target = TransportAddress("68.92.25.44", port)
            assert nat.inbound(DEST, target, now=0.0) is None


def test_inbound_requires_this_nat_public_ip():
    nat = make_nat(NatType.FULL_CONE)
    with pytest.raises(ValueError):
        nat.inbound(DEST, TransportAddress("9.9.9.9", 4325), now=0.0)


def test_determinism_identical_event_sequences():
    def run():
        nat = make_nat(NatType.SYMMETRIC, seed=3)
        events = []
        for i in range(30):
            dest = TransportAddress(f"50.0.0.{i % 5 + 1}", 1000 + i % 7)
            events.append(nat.outbound(LOCAL, dest, now=float(i)))
        nat.expire(now=100.0)
        return events, sorted(b.external.port for b in nat.bindings)

    assert run() == run()


def test_external_for_lookup():
    nat = make_nat(NatType.SYMMETRIC)
    mapped = nat.outbound(LOCAL, DEST, now=0.0)
    assert nat.external_for(LOCAL, DEST) == mapped
    assert nat.external_for(LOCAL, STRANGER) is None
    cone = make_nat(NatType.FULL_CONE)
    mapped = cone.outbound(LOCAL, DEST, now=0.0)
    assert cone.external_for(LOCAL) == mapped
