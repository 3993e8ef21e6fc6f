"""Deterministic state machines for the four classic NAT behaviors.

Mapping rule: full cone, restricted cone and port restricted cone reuse one
external port per internal source; a symmetric NAT allocates a fresh
external port per (internal source, destination) pair.

Filtering rule, applied to inbound packets addressed to a live binding:

    full cone            deliver from anyone
    restricted cone      deliver iff the source IP was previously contacted
    port restricted cone deliver iff the source (IP, port) was contacted
    symmetric            deliver iff the source is the binding's single
                         destination (the one peer it has contacted)

UDP bindings expire after ``udp_binding_ttl`` idle seconds (any delivered
or sent packet refreshes the window); TCP bindings persist for the life of
the connection unless ``tcp_idle_ttl`` is set.  Everything is driven by an
external virtual clock, and port allocation is sequential from a seeded
offset, so identical event sequences produce identical binding tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .net import TransportAddress, is_ipv4

UDP = "udp"
TCP = "tcp"


class NatType(Enum):
    FULL_CONE = "full_cone"
    RESTRICTED_CONE = "restricted_cone"
    PORT_RESTRICTED_CONE = "port_restricted_cone"
    SYMMETRIC = "symmetric"


class PortPoolExhausted(Exception):
    pass


@dataclass
class NatConfig:
    nat_type: NatType
    public_ip: str
    udp_binding_ttl: float = 60.0
    tcp_idle_ttl: float | None = None  # None: TCP bindings never expire
    port_range: tuple[int, int] = (30000, 39999)

    def __post_init__(self) -> None:
        if not is_ipv4(self.public_ip):
            raise ValueError(f"invalid IPv4 address: {self.public_ip!r}")
        lo, hi = self.port_range
        if not (1 <= lo < hi <= 65535):
            raise ValueError(f"bad port range: {self.port_range}")
        if not (math.isfinite(self.udp_binding_ttl) and self.udp_binding_ttl > 0):
            raise ValueError("udp_binding_ttl must be finite and positive")
        ttl = self.tcp_idle_ttl
        if ttl is not None and not (math.isfinite(ttl) and ttl > 0):
            raise ValueError("tcp_idle_ttl must be finite and positive, or None")


@dataclass(slots=True)
class NatBinding:
    internal: TransportAddress
    external: TransportAddress
    transport: str
    last_activity: float
    ttl: float  # idle seconds before expiry; inf: never
    key: tuple  # this binding's key in NatBox._bindings
    # A symmetric binding's key holds its destination, the only peer.
    peers_contacted: set[TransportAddress] = field(default_factory=set)


class NatBox:
    """One NAT instance: binding table plus the type's mapping/filtering rules.

    Bindings are keyed by ``(internal, [destination,] transport)`` tuples of
    addresses, which are tuples too and hash in C.
    """

    def __init__(self, config: NatConfig, seed: int = 0):
        self.config = config
        self._bindings: dict[tuple, NatBinding] = {}
        self._by_port: dict[int, NatBinding] = {}
        self._symmetric = config.nat_type is NatType.SYMMETRIC
        lo, hi = config.port_range
        self._span = hi - lo + 1
        self._next = lo + seed % self._span

    @property
    def bindings(self) -> list[NatBinding]:
        return list(self._bindings.values())

    def _key(self, internal: TransportAddress, dst: TransportAddress | None, transport: str) -> tuple:
        if self._symmetric:
            return (internal, dst, transport)
        return (internal, transport)

    def _ttl(self, transport: str) -> float:
        if transport == UDP:
            return self.config.udp_binding_ttl
        ttl = self.config.tcp_idle_ttl
        return math.inf if ttl is None else ttl

    def _drop(self, binding: NatBinding) -> None:
        del self._bindings[binding.key]
        del self._by_port[binding.external.port]

    def _allocate_port(self) -> int:
        lo, hi = self.config.port_range
        for _ in range(self._span):
            port = lo + (self._next - lo) % self._span
            self._next = port + 1
            if port not in self._by_port:
                return port
        raise PortPoolExhausted(f"no free external port in {self.config.port_range}")

    def outbound(
        self,
        internal_src: TransportAddress,
        external_dst: TransportAddress,
        now: float,
        transport: str = UDP,
    ) -> TransportAddress:
        """Translate an outbound packet; create or refresh its binding.

        Returns the external (mapped) source address.
        """
        key = self._key(internal_src, external_dst, transport)
        binding = self._bindings.get(key)
        if binding is not None and now - binding.last_activity >= binding.ttl:
            self._drop(binding)
            binding = None
        if binding is None:
            external = TransportAddress(self.config.public_ip, self._allocate_port())
            binding = NatBinding(
                internal=internal_src,
                external=external,
                transport=transport,
                last_activity=now,
                ttl=self._ttl(transport),
                key=key,
            )
            self._bindings[key] = binding
            self._by_port[external.port] = binding
        binding.peers_contacted.add(external_dst)
        binding.last_activity = now
        return binding.external

    def inbound(
        self,
        external_src: tuple[str, int],
        external_dst: TransportAddress,
        now: float,
        transport: str = UDP,
    ) -> TransportAddress | None:
        """Filter an inbound packet addressed to this NAT's public side.

        Returns the internal destination when the packet is delivered, or
        None when the NAT silently drops it (no live binding, or the type's
        filtering rule rejects the source).  Delivery refreshes the binding.
        """
        if external_dst.ip != self.config.public_ip:
            raise ValueError(f"{external_dst} is not on this NAT's public address")
        binding = self._by_port.get(external_dst.port)
        if binding is None or binding.transport != transport:
            return None
        if now - binding.last_activity >= binding.ttl:
            self._drop(binding)
            return None
        if not self._accepts(binding, external_src):
            return None
        binding.last_activity = now
        return binding.internal

    def _accepts(self, binding: NatBinding, source: tuple[str, int]) -> bool:
        nat_type = self.config.nat_type
        if nat_type is NatType.FULL_CONE:
            return True
        if nat_type is NatType.RESTRICTED_CONE:
            return any(ip == source[0] for ip, _ in binding.peers_contacted)
        return source in binding.peers_contacted  # port restricted, or symmetric

    def expire(self, now: float) -> int:
        """Remove every stale binding; return how many were dropped."""
        stale = [b for b in self._bindings.values() if now - b.last_activity >= b.ttl]
        for binding in stale:
            self._drop(binding)
        return len(stale)

    def external_for(
        self,
        internal_src: TransportAddress,
        external_dst: TransportAddress | None = None,
        transport: str = UDP,
    ) -> TransportAddress | None:
        """Read-only lookup of the current mapping (no refresh); None if absent.

        For a symmetric NAT the destination must be given, since mappings
        are per destination.
        """
        if external_dst is None and self._symmetric:
            raise ValueError("symmetric lookup requires the destination")
        binding = self._bindings.get(self._key(internal_src, external_dst, transport))
        return binding.external if binding else None
