"""NAT traversal for SIP calls without client-side relay allocation.

A proxy keeps every client's registration bound to the persistent TCP
connection it arrived on, rewrites session descriptions so all media flows
through its own UDP port pool, and relays RTP/RTCP between the latched
public addresses of the endpoints.  A deterministic simulator of the four
classic NAT behaviors makes the failure modes and the fix reproducible.
"""

from .connection_manager import ConnectionManager, Registration, aor_of
from .harness import (
    Outcome,
    Report,
    Scenario,
    ScriptEvent,
    count_savings,
    default_script,
    run_matrix,
    run_scenario,
)
from .media_controller import MediaController, MediaSession, PortPool, RelaySend
from .nat import NatBox, NatConfig, NatType
from .net import TransportAddress
from .proxy import CallState, Phase, ProxyConfig, SipProxy
from .rtp import RtpPacket, build_rtp, parse_rtp
from .sdp import MediaDesc, SdpSession, parse_sdp, rewrite_media, serialize_sdp
from .sip_message import (
    MessageFramer,
    Method,
    SipMessage,
    ViaHeader,
    build_response,
    parse_message,
    serialize_message,
)

__version__ = "0.1.0"

__all__ = [
    "ConnectionManager",
    "Registration",
    "aor_of",
    "Outcome",
    "Report",
    "Scenario",
    "ScriptEvent",
    "count_savings",
    "default_script",
    "run_matrix",
    "run_scenario",
    "MediaController",
    "MediaSession",
    "PortPool",
    "RelaySend",
    "NatBox",
    "NatConfig",
    "NatType",
    "TransportAddress",
    "CallState",
    "Phase",
    "ProxyConfig",
    "SipProxy",
    "RtpPacket",
    "build_rtp",
    "parse_rtp",
    "MediaDesc",
    "SdpSession",
    "parse_sdp",
    "rewrite_media",
    "serialize_sdp",
    "MessageFramer",
    "Method",
    "SipMessage",
    "ViaHeader",
    "build_response",
    "parse_message",
    "serialize_message",
    "__version__",
]
