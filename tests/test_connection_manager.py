import gc
import tracemalloc

import pytest

import samples
from sipnat.connection_manager import (
    REGISTRATION_TTL,
    ConnectionManager,
    MalformedRegister,
    NotRegistered,
    aor_of,
)
from sipnat.sip_message import parse_message, uri_of

C1, C2 = 1, 2


def register(manager, conn, user="ClientA", domain="local1.com", now=0.0):
    msg = parse_message(samples.make_register(user=user, domain=domain))
    return manager.register(conn, msg, now)


def test_register_creates_binding():
    manager = ConnectionManager()
    registration = register(manager, C1)
    assert registration.aor == "sip:ClientA@local1.com"
    assert registration.connection == C1
    assert manager.route_to("sip:ClientA@local1.com") == C1


def test_latest_register_wins():
    manager = ConnectionManager()
    register(manager, C1)
    register(manager, C2, now=5.0)
    assert manager.route_to("sip:ClientA@local1.com") == C2


def test_register_without_contact_is_malformed():
    manager = ConnectionManager()
    msg = parse_message(samples.make_register(contact=False))
    with pytest.raises(MalformedRegister):
        manager.register(C1, msg, 0.0)


def test_route_to_unregistered_aor():
    manager = ConnectionManager()
    with pytest.raises(NotRegistered):
        manager.route_to("sip:Nobody@local9.com")


def test_route_to_after_connection_closed():
    manager = ConnectionManager()
    register(manager, C1)
    assert manager.on_connection_closed(C1) == ["sip:ClientA@local1.com"]
    with pytest.raises(NotRegistered):
        manager.route_to("sip:ClientA@local1.com")


def test_close_unknown_connection_is_noop():
    manager = ConnectionManager()
    assert manager.on_connection_closed(99) == []
    assert manager.on_connection_closed(99) == []


def test_close_connection_holding_two_aors():
    manager = ConnectionManager()
    register(manager, C1, user="ClientA", domain="local1.com")
    register(manager, C1, user="ClientC", domain="local1.com")
    removed = manager.on_connection_closed(C1)
    assert sorted(removed) == ["sip:ClientA@local1.com", "sip:ClientC@local1.com"]


def test_registration_expiry():
    manager = ConnectionManager()
    register(manager, C1, now=0.0)
    assert manager.expire(now=REGISTRATION_TTL - 1.0) == []
    assert manager.expire(now=REGISTRATION_TTL) == ["sip:ClientA@local1.com"]
    with pytest.raises(NotRegistered):
        manager.route_to("sip:ClientA@local1.com")


def test_reregister_refreshes_expiry():
    manager = ConnectionManager()
    register(manager, C1, now=0.0)
    register(manager, C1, now=90.0)
    assert manager.expire(now=REGISTRATION_TTL + 50.0) == []
    assert manager.route_to("sip:ClientA@local1.com") == C1


REGISTRATION_BUDGET_BYTES = 224  # retained per registration, its address-of-record included


def retained_bytes_per_registration(count: int) -> float:
    """Traced memory a registration keeps, averaged over ``count`` REGISTERs
    for distinct AORs after one warm-up REGISTER."""
    manager = ConnectionManager()
    registers = [parse_message(samples.make_register(user=f"User{n}")) for n in range(count + 1)]
    tracemalloc.start()
    try:
        manager.register(C1, registers[0], 0.0)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for msg in registers[1:]:
            manager.register(C1, msg, 0.0)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(manager.live_aors()) == count + 1
    return (after - before) / count


def test_a_registration_keeps_under_224_bytes():
    # A slotted Registration: 168-187 B on Python 3.10 to 3.13, against
    # 200-283 B with a per-instance __dict__.
    assert retained_bytes_per_registration(1024) <= REGISTRATION_BUDGET_BYTES


RFC5626_CONTACT = (
    '<sip:alice@192.0.2.1;transport=tcp>;reg-id=1;'
    '+sip.instance="<urn:uuid:00000000-0000-1000-8000-000A95A0E128>"'
)


def test_aor_normalization():
    assert aor_of("ClientA <sip:ClientA@LOCAL1.com>") == "sip:ClientA@local1.com"
    assert aor_of("<sip:bob@Example.COM:5060;transport=tcp>") == "sip:bob@example.com"
    assert aor_of("sip:carol@Host.net") == "sip:carol@host.net"
    assert aor_of("sip:local1.com") == "sip:local1.com"
    # A quoted display name may hold '<' or '>'; the URI holds neither.
    assert aor_of('"x>y" <sip:bob@h.com>') == "sip:bob@h.com"
    assert aor_of('"a<b" <sip:bob@H.com:5060;transport=tcp>;tag=9') == "sip:bob@h.com"
    assert aor_of("Bob < sip:bob@h >") == "sip:bob@h"
    assert aor_of(r'"say \"<x>\"" <sip:bob@h.com>') == "sip:bob@h.com"
    # Header parameters may hold a quoted '<' too; the first '<uri>' counts.
    assert aor_of('<sip:b@H>;x="<"') == "sip:b@h"
    assert uri_of(RFC5626_CONTACT) == "sip:alice@192.0.2.1;transport=tcp"
    # A bare URI's parameters (a From/To tag) are not part of it.
    assert uri_of("sip:bob@h.com;tag=9") == "sip:bob@h.com"
    assert uri_of('"x>y" <sip:bob@h.com;transport=tcp>;tag=9') == "sip:bob@h.com;transport=tcp"


def test_aor_derived_from_to_header():
    manager = ConnectionManager()
    raw = samples.make_register().replace(
        b"To: ClientA <sip:ClientA@local1.com>",
        b"To: ClientA <sip:ClientA@LOCAL1.COM>",
    )
    registration = manager.register(C1, parse_message(raw), 0.0)
    assert registration.aor == "sip:ClientA@local1.com"


def test_instance_id_contact_keeps_its_sip_uri():
    raw = samples.make_register().replace(
        b"Contact: <sip:ClientA@192.168.1.11>", f"Contact: {RFC5626_CONTACT}".encode()
    )
    assert parse_message(raw).contact == "sip:alice@192.0.2.1;transport=tcp"


def test_quoted_display_names_register_their_own_aors():
    manager = ConnectionManager()
    for conn, user in ((C1, "ClientA"), (C2, "ClientB")):
        raw = samples.make_register(user=user).replace(
            f"To: {user} <".encode(), f'To: "{user} <{user}>" <'.encode()
        )
        manager.register(conn, parse_message(raw), 0.0)
    assert manager.route_to("sip:ClientA@local1.com") == C1
    assert manager.route_to("sip:ClientB@local1.com") == C2
