"""Media relay: UDP port pool, session description rewriting and forwarding.

Each call gets two even/odd port pairs on the relay's public address, one
pair per leg.  A client sends all of its media to its own leg's relay
ports; the first packet received there latches the client's public source
address for good, and packets from any other source are dropped.
Forwarded packets are always emitted from the destination leg's relay port,
which is exactly the address that leg is already sending to, so restrictive
NATs accept them.

``MediaController.ports`` maps every allocated relay port to its
``RelayPort``: the port's latch, its buffer, its counters and its peer, the
same kind's port on the other leg.  ``on_media_packet`` is the one relay
decision; the simulator and the socket service both reach it through
``ProxyProtocol.datagram`` and ``SipProxy.handle_media``.  It looks the
port up once and applies one forward rule.  A client address is an
``(ip, port)`` tuple, as sockets report it and as a ``TransportAddress`` is,
so a latch compares with ``==`` and a relayed packet builds no address.

``relay_description`` aims each offer and answer the proxy forwards at
the receiving party's relay port, so relay addresses are handed out inside
the signaling exchange and no client-visible allocation transaction exists.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .net import TransportAddress
from .sdp import parse_sdp, rewrite_media, serialize_sdp

BUFFER_CAP = 16  # packets a relay port holds while its peer has not latched


class MediaError(Exception):
    pass


class PoolExhausted(MediaError):
    pass


class DuplicateCall(MediaError):
    pass


class UnknownCall(MediaError):
    pass


class PortPool:
    """Even/odd UDP port pairs on the relay's public address.

    RTP uses the even port, RTCP the odd one; pairs are allocated lowest
    first and reusable after release.
    """

    def __init__(self, lo: int, hi: int):
        if not (1 <= lo < hi <= 65535):
            raise ValueError(f"bad port range: ({lo}, {hi})")
        first_even = lo if lo % 2 == 0 else lo + 1
        self.range = (lo, hi)
        self._free: list[int] = list(range(first_even, hi, 2))  # a heap: sorted from the start
        self.pairs = len(self._free)
        self._allocated: set[int] = set()  # RTP ports of the allocated pairs

    def allocate_pair(self) -> tuple[int, int]:
        if not self._free:
            raise PoolExhausted(f"no free port pair in {self.range}")
        rtp_port = heapq.heappop(self._free)
        self._allocated.add(rtp_port)
        return rtp_port, rtp_port + 1

    def release_pair(self, rtp_port: int) -> None:
        """Return an allocated pair to the pool; releasing a free pair does nothing."""
        if rtp_port in self._allocated:
            self._allocated.remove(rtp_port)
            heapq.heappush(self._free, rtp_port)

    def free_pairs(self) -> frozenset[int]:
        return frozenset(self._free)

    @property
    def allocated_count(self) -> int:
        """Allocated ports, two per pair."""
        return 2 * len(self._allocated)


@dataclass(slots=True, eq=False)
class RelayPort:
    """One allocated relay port: its latch, buffer, counters and peer.

    Every packet received here counts in ``received`` and then in exactly
    one of ``forwarded``, ``flushed`` (sent on when the peer latched) or
    ``dropped``, or still waits in ``buffer``.
    """

    port: int
    peer: RelayPort | None = field(default=None, repr=False)  # same kind, other leg; None once released
    latched: tuple[str, int] | None = None  # the client's public source address
    buffer: tuple[bytes, ...] = ()  # waiting for the peer to latch, oldest first; empty: the shared ()
    received: int = 0
    received_bytes: int = 0
    forwarded: int = 0
    flushed: int = 0
    dropped: int = 0


@dataclass(slots=True)
class LegState:
    rtp: RelayPort
    rtcp: RelayPort


@dataclass(slots=True)
class MediaSession:
    """Relay state for one call: two legs, their ports, latches and counters."""

    a: LegState  # the caller's: the answer it gets names this leg's RTP port
    b: LegState  # the callee's: the offer it gets names this leg's RTP port


@dataclass(slots=True)
class RelaySend:
    """One datagram to emit: from a relay port to a latched client address."""

    from_port: int
    to: tuple[str, int]
    payload: bytes


@dataclass(slots=True)
class RelayDecision:
    """Outcome for one received datagram and every datagram it emits."""

    action: str  # "forward" | "buffer" | "drop"
    reason: str | None = None  # why a packet was dropped
    sends: list[RelaySend] = field(default_factory=list)  # released buffer first, then the forward


class MediaController:
    """Owns the relay port pool and every live media session.

    One logical owner must drive all calls; pool and session mutations are
    not internally locked.
    """

    def __init__(self, public_ip: str, port_range: tuple[int, int]):
        self.public_ip = public_ip
        self.pool = PortPool(*port_range)
        self.sessions: dict[str, MediaSession] = {}
        # Every allocated relay port, of every live session.
        self.ports: dict[int, RelayPort] = {}

    def allocate_session(self, call_id: str) -> MediaSession:
        """Reserve both legs' port pairs; nothing is signaled to any client."""
        if call_id in self.sessions:
            raise DuplicateCall(call_id)
        a_ports = self.pool.allocate_pair()
        try:
            b_ports = self.pool.allocate_pair()
        except PoolExhausted:
            self.pool.release_pair(a_ports[0])
            raise
        a = LegState(*map(RelayPort, a_ports))
        b = LegState(*map(RelayPort, b_ports))
        for ours, theirs in ((a.rtp, b.rtp), (a.rtcp, b.rtcp)):
            ours.peer, theirs.peer = theirs, ours
            self.ports[ours.port] = ours
            self.ports[theirs.port] = theirs
        session = MediaSession(a, b)
        self.sessions[call_id] = session
        return session

    def relay_description(self, leg: LegState, body: bytes) -> bytes:
        """``body`` aimed at the relay RTP port of ``leg``, the receiving party's
        (``MediaSession.b`` for an offer, ``.a`` for its answer); raises ``SdpError``."""
        relay = TransportAddress(self.public_ip, leg.rtp.port)
        return serialize_sdp(rewrite_media(parse_sdp(body), relay))

    def on_media_packet(
        self, relay_port: int, src: tuple[str, int], datagram: bytes
    ) -> RelayDecision:
        """Latch, then forward, buffer or drop one packet on a relay port.

        The first packet on a relay port latches ``src`` as that leg's
        public address for that kind (RTP and RTCP latch independently), and
        a packet from any other source is dropped.  A packet from the latched
        source forwards once the peer port has latched too, and waits in the
        port's buffer until then.  Forwarded packets are emitted from the
        peer leg's relay port.
        """
        here = self.ports.get(relay_port)
        if here is None:
            return RelayDecision("drop", "unknown_port")
        here.received += 1
        here.received_bytes += len(datagram)
        peer = here.peer
        latched = here.latched
        if latched == src:
            sends: list[RelaySend] = []
        elif latched is None:
            here.latched = src
            # The peer's queued packets were waiting for this address.
            sends = [RelaySend(here.port, src, queued) for queued in peer.buffer]
            peer.flushed += len(sends)
            peer.buffer = ()
        else:
            here.dropped += 1
            return RelayDecision("drop", "source_mismatch")

        to = peer.latched
        if to is not None:
            here.forwarded += 1
            sends.append(RelaySend(peer.port, to, datagram))
            return RelayDecision("forward", None, sends)
        buffer = here.buffer
        if len(buffer) >= BUFFER_CAP:
            buffer = buffer[1:]
            here.dropped += 1
        here.buffer = (*buffer, datagram)  # at most BUFFER_CAP copies
        return RelayDecision("buffer", sends=sends)

    def release_session(self, call_id: str) -> int:
        """Return all four ports to the pool.

        The counters stay readable on the ``MediaSession`` the caller holds;
        the controller keeps nothing of a released session.
        """
        session = self.sessions.pop(call_id, None)
        if session is None:
            raise UnknownCall(call_id)
        for leg in (session.a, session.b):
            for relay_port in (leg.rtp, leg.rtcp):
                relay_port.dropped += len(relay_port.buffer)
                relay_port.buffer = ()
                relay_port.peer = None  # break the peer cycle, so refcounting frees the session
                del self.ports[relay_port.port]
            self.pool.release_pair(leg.rtp.port)
        return 4
