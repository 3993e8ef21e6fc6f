"""NAT traversal for SIP calls without client-side relay allocation.

A proxy keeps every client's registration bound to the persistent TCP
connection it arrived on, rewrites session descriptions so all media flows
through its own UDP port pool, and relays RTP/RTCP between the latched
public addresses of the endpoints.  A deterministic simulator of the four
classic NAT behaviors makes the failure modes and the fix reproducible.

Each exported name loads its submodule on first use (PEP 562): the socket
service and the proxy (``sipnat.service``, ``sipnat.proxy``) load neither
the simulator (``harness``, ``simnet``, ``nat``, ``rtp``) nor OpenSSL, and
the simulator loads OpenSSL only to compute a report's script digest, which
``run_matrix`` never does.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ConnectionManager": "connection_manager",
    "Registration": "connection_manager",
    "aor_of": "connection_manager",
    "Outcome": "harness",
    "Report": "harness",
    "Scenario": "harness",
    "ScriptEvent": "harness",
    "count_savings": "harness",
    "default_script": "harness",
    "run_matrix": "harness",
    "run_scenario": "harness",
    "MediaController": "media_controller",
    "MediaSession": "media_controller",
    "PortPool": "media_controller",
    "RelaySend": "media_controller",
    "NatBox": "nat",
    "NatConfig": "nat",
    "NatType": "nat",
    "TransportAddress": "net",
    "CallState": "proxy",
    "Phase": "proxy",
    "ProxyConfig": "proxy",
    "SipProxy": "proxy",
    "RtpPacket": "rtp",
    "build_rtp": "rtp",
    "parse_rtp": "rtp",
    "SdpSession": "sdp",
    "parse_sdp": "sdp",
    "rewrite_media": "sdp",
    "serialize_sdp": "sdp",
    "MessageFramer": "sip_message",
    "Method": "sip_message",
    "SipMessage": "sip_message",
    "ViaHeader": "sip_message",
    "build_response": "sip_message",
    "parse_message": "sip_message",
    "serialize_message": "sip_message",
}
# Reachable as attributes of a bare ``import sipnat``, as when every module
# above was imported eagerly (``simnet`` through ``harness``).
_SUBMODULES = {*_EXPORTS.values(), "simnet"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
