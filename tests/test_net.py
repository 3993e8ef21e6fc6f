import ipaddress

import pytest

from sipnat.nat import NatConfig, NatType
from sipnat.net import TransportAddress, is_ipv4

ACCEPTED = ["0.0.0.0", "255.255.255.255", "1.2.3.4", "10.0.0.4", "192.168.1.0"]
REJECTED = [
    "",
    "01.2.3.4",  # leading zero
    "1.2.3.00",
    "1.2.3",  # three octets
    "1.2.3.4.5",  # five octets
    "127.1",
    "1..2.3",
    "1.2.3.4.",
    ".1.2.3.4",
    "256.1.1.1",
    "1.2.3.-4",
    "+1.2.3.4",
    "0x1.2.3.4",
    "1_0.2.3.4",
    " 1.2.3.4",  # whitespace
    "1.2.3.4 ",
    "1.2.3.4\t",
    "1.2.3.4\n",  # trailing newline
    "1.2.3.4\r",
    "1.2.3\x00.4",  # NUL
    "1.2.3.٤",  # non-ASCII digits
    "１.2.3.4",
    "1.2.3.4/32",
    "::1",
    "\udc80",
    "localhost",
]


@pytest.mark.parametrize("text", ACCEPTED + REJECTED)
def test_is_ipv4_agrees_with_ipaddress(text):
    try:
        ipaddress.IPv4Address(text)
        expected = True
    except ValueError:
        expected = False
    assert is_ipv4(text) is expected
    assert expected is (text in ACCEPTED)


@pytest.mark.parametrize("value", [16909060, b"\x01\x02\x03\x04", None, ipaddress.IPv4Address("1.2.3.4")])
def test_is_ipv4_takes_only_str(value):
    assert is_ipv4(value) is False


def test_transport_address_rejects_non_str_ip():
    # ipaddress.IPv4Address(16909060) is 1.2.3.4; an address must be written out.
    with pytest.raises(ValueError):
        TransportAddress(16909060, 5060)
    with pytest.raises(ValueError):
        TransportAddress("01.2.3.4", 5060)
    assert str(TransportAddress("0.0.0.0", 1)) == "0.0.0.0:1"


@pytest.mark.parametrize("port", [1, 65535])
def test_transport_address_accepts_either_end_of_the_port_range(port):
    address = TransportAddress("1.2.3.4", port)
    assert (address.ip, address.port) == ("1.2.3.4", port)


@pytest.mark.parametrize("port", [0, 65536])
def test_transport_address_rejects_a_port_past_either_end(port):
    with pytest.raises(ValueError, match="port out of range"):
        TransportAddress("1.2.3.4", port)
    with pytest.raises(ValueError, match="port out of range"):
        TransportAddress("1.2.3.4", 5)._replace(port=port)


def test_transport_address_is_its_plain_tuple():
    address = TransportAddress("1.2.3.4", 5)
    assert address == ("1.2.3.4", 5)
    assert hash(address) == hash(("1.2.3.4", 5))
    assert {("1.2.3.4", 5): "found"}[address] == "found"
    assert str(address) == "1.2.3.4:5"
    assert repr(address) == "TransportAddress(ip='1.2.3.4', port=5)"


@pytest.mark.parametrize("ip", ["01.2.3.4", "1.2.3", "", 16909060])
def test_nat_config_rejects_bad_public_ip(ip):
    with pytest.raises(ValueError):
        NatConfig(NatType.FULL_CONE, ip)
