"""Media relay: UDP port pool, session description rewriting and forwarding.

Each call gets two even/odd port pairs on the relay's public address, one
pair per leg.  A client sends all of its media to its own leg's relay
ports; the first packet received there latches the client's public source
address for good, and packets from any other source are dropped.
Forwarded packets are always emitted from the destination leg's relay port,
which is exactly the address that leg is already sending to, so restrictive
NATs accept them.

``MediaController.on_media_packet`` is the one relay decision; the simulator
and the socket service both reach it through ``SipProxy.handle_media``.
Once both legs of a kind have latched, ``routes`` holds the fixed answer
for each of their relay ports, and the decision looks there first.  Client
addresses are ``(ip, port)`` tuples, as sockets report and take them, so
relaying a packet builds no address object.

Because relay addresses are handed out inside the signaling exchange, no
client-visible allocation transaction exists at all.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from .net import TransportAddress
from .sdp import MultipleMediaUnsupported, SdpSession, rewrite_media

RTP = "rtp"
RTCP = "rtcp"
LEG_A = "A"  # offerer (caller) leg
LEG_B = "B"  # answerer (callee) leg

DEFAULT_BUFFER_CAP = 16


class MediaError(Exception):
    pass


class PoolExhausted(MediaError):
    pass


class DuplicateCall(MediaError):
    pass


class UnknownCall(MediaError):
    pass


class SdpRewriteError(MediaError):
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
        self._allocated: dict[int, tuple[str, str, str]] = {}  # port -> (call, leg, kind)

    def allocate_pair(self, call_id: str, leg: str) -> tuple[int, int]:
        if not self._free:
            raise PoolExhausted(f"no free port pair in {self.range}")
        rtp_port = heapq.heappop(self._free)
        self._allocated[rtp_port] = (call_id, leg, RTP)
        self._allocated[rtp_port + 1] = (call_id, leg, RTCP)
        return rtp_port, rtp_port + 1

    def release_pair(self, rtp_port: int) -> None:
        """Return an allocated pair to the pool; releasing a free pair does nothing."""
        if self._allocated.pop(rtp_port, None) is None:
            return
        self._allocated.pop(rtp_port + 1, None)
        heapq.heappush(self._free, rtp_port)

    def owner_of(self, port: int) -> tuple[str, str, str] | None:
        return self._allocated.get(port)

    def free_pairs(self) -> frozenset[int]:
        return frozenset(self._free)

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)


@dataclass
class KindCounters:
    received: int = 0
    received_bytes: int = 0
    forwarded: int = 0
    flushed: int = 0
    dropped: int = 0


@dataclass(slots=True)
class Route:
    """How an established leg's packets leave the relay.

    A packet on the route's relay port that comes from ``source`` goes out
    of ``from_port`` to ``to`` and counts in ``counters``.  Addresses are
    plain ``(ip, port)`` tuples, as sockets report and take them.
    """

    source: tuple[str, int]  # the sending leg's latched address
    from_port: int  # the peer leg's relay port
    to: tuple[str, int]  # the peer leg's latched address
    counters: KindCounters  # the sending leg's counters for this kind


@dataclass
class LegState:
    rtp_port: int
    rtcp_port: int
    declared: TransportAddress | None = None
    latched: dict[str, tuple[str, int]] = field(default_factory=dict)
    buffers: dict[str, deque] = field(default_factory=lambda: {RTP: deque(), RTCP: deque()})
    counters: dict[str, KindCounters] = field(
        default_factory=lambda: {RTP: KindCounters(), RTCP: KindCounters()}
    )

    def port_for(self, kind: str) -> int:
        return self.rtp_port if kind == RTP else self.rtcp_port


@dataclass
class MediaSession:
    """Relay state for one call: two legs, their ports, latches and counters."""

    call_id: str
    legs: dict[str, LegState]

    @staticmethod
    def peer_of(leg: str) -> str:
        return LEG_B if leg == LEG_A else LEG_A


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

    def __init__(
        self,
        public_ip: str,
        port_range: tuple[int, int],
        buffer_cap: int = DEFAULT_BUFFER_CAP,
    ):
        self.public_ip = public_ip
        self.pool = PortPool(*port_range)
        self.buffer_cap = buffer_cap
        self.sessions: dict[str, MediaSession] = {}
        # relay port -> route, for each kind whose two legs have both latched.
        self.routes: dict[int, Route] = {}
        # The most recently released sessions, oldest first; at most one per pool pair.
        self.finished: dict[str, MediaSession] = {}

    def allocate_session(self, call_id: str) -> MediaSession:
        """Reserve both legs' port pairs; nothing is signaled to any client."""
        if call_id in self.sessions:
            raise DuplicateCall(call_id)
        a_rtp, a_rtcp = self.pool.allocate_pair(call_id, LEG_A)
        try:
            b_rtp, b_rtcp = self.pool.allocate_pair(call_id, LEG_B)
        except PoolExhausted:
            self.pool.release_pair(a_rtp)
            raise
        session = MediaSession(
            call_id=call_id,
            legs={
                LEG_A: LegState(a_rtp, a_rtcp),
                LEG_B: LegState(b_rtp, b_rtcp),
            },
        )
        self.sessions[call_id] = session
        return session

    def _rewrite(self, session: MediaSession, sdp: SdpSession, from_leg: str) -> SdpSession:
        to_leg = MediaSession.peer_of(from_leg)
        relay = TransportAddress(self.public_ip, session.legs[to_leg].rtp_port)
        try:
            rewritten, original = rewrite_media(sdp, relay)
        except MultipleMediaUnsupported as exc:
            raise SdpRewriteError(str(exc)) from exc
        session.legs[from_leg].declared = original
        return rewritten

    def process_offer(self, session: MediaSession, sdp: SdpSession) -> SdpSession:
        """Record the offerer's declared address; aim the offer at its peer's
        relay port so the answerer sends media to the relay."""
        return self._rewrite(session, sdp, LEG_A)

    def process_answer(self, session: MediaSession, sdp: SdpSession) -> SdpSession:
        """Same as process_offer, for the answering leg."""
        return self._rewrite(session, sdp, LEG_B)

    def on_media_packet(
        self, relay_port: int, src: tuple[str, int], datagram: bytes
    ) -> RelayDecision:
        """Forward by the port's route, or latch, then forward or buffer.

        A packet from the latched source of an established port follows its
        route.  Otherwise the first packet on a leg's relay port latches
        ``src`` as that leg's public address for that kind (RTP and RTCP
        latch independently), and a packet from any other source is dropped.
        Forwarded packets are emitted from the peer leg's relay port.
        """
        route = self.routes.get(relay_port)
        if route is not None and route.source == src:
            counters = route.counters
            counters.received += 1
            counters.received_bytes += len(datagram)
            counters.forwarded += 1
            return RelayDecision("forward", None, [RelaySend(route.from_port, route.to, datagram)])
        owner = self.pool.owner_of(relay_port)
        if owner is None:
            return RelayDecision(action="drop", reason="unknown_port")
        call_id, leg_name, kind = owner
        session = self.sessions.get(call_id)
        if session is None:
            return RelayDecision(action="drop", reason="unknown_port")
        leg = session.legs[leg_name]
        peer = session.legs[MediaSession.peer_of(leg_name)]
        counters = leg.counters[kind]
        counters.received += 1
        counters.received_bytes += len(datagram)

        sends: list[RelaySend] = []
        latched = leg.latched.get(kind)
        if latched is None:
            leg.latched[kind] = src
            # The peer's queued packets were waiting for this address.
            peer_buffer = peer.buffers[kind]
            while peer_buffer:
                queued = peer_buffer.popleft()
                peer.counters[kind].flushed += 1
                sends.append(RelaySend(leg.port_for(kind), src, queued))
        elif src != latched:
            counters.dropped += 1
            return RelayDecision(action="drop", reason="source_mismatch")

        peer_latched = peer.latched.get(kind)
        if peer_latched is not None:
            if latched is None:
                # This latch completed the pair: later packets take the route.
                self._install_routes(leg, peer, kind)
            counters.forwarded += 1
            sends.append(RelaySend(peer.port_for(kind), peer_latched, datagram))
            return RelayDecision(action="forward", sends=sends)
        buffer = leg.buffers[kind]
        if len(buffer) >= self.buffer_cap:
            buffer.popleft()
            counters.dropped += 1
        buffer.append(datagram)
        return RelayDecision(action="buffer", sends=sends)

    def _install_routes(self, leg: LegState, peer: LegState, kind: str) -> None:
        """Route ``kind`` both ways between two legs that have both latched it."""
        ours, theirs = leg.latched[kind], peer.latched[kind]
        leg_port, peer_port = leg.port_for(kind), peer.port_for(kind)
        self.routes[leg_port] = Route(ours, peer_port, theirs, leg.counters[kind])
        self.routes[peer_port] = Route(theirs, leg_port, ours, peer.counters[kind])

    def release_session(self, call_id: str) -> int:
        """Return all four ports to the pool; counters stay readable."""
        session = self.sessions.pop(call_id, None)
        if session is None:
            raise UnknownCall(call_id)
        freed = 0
        for leg in session.legs.values():
            for kind in (RTP, RTCP):
                dropped = len(leg.buffers[kind])
                leg.counters[kind].dropped += dropped
                leg.buffers[kind].clear()
                self.routes.pop(leg.port_for(kind), None)
            self.pool.release_pair(leg.rtp_port)
            freed += 2
        self.finished.pop(call_id, None)
        self.finished[call_id] = session
        if len(self.finished) > self.pool.pairs:
            del self.finished[next(iter(self.finished))]
        return freed

    def session_for(self, call_id: str) -> MediaSession | None:
        return self.sessions.get(call_id) or self.finished.get(call_id)
