"""Socket adapter running the deterministic proxy core on real transports.

Thin by design: one selector loop accepts TCP signaling connections, frames
them by Content-Length, binds a UDP socket per media pool port, and feeds
everything into the same SipProxy the simulator drives.

Signaling sockets run with TCP_NODELAY, so a message forwarded right behind
another on the same connection is not held back waiting for the peer's
delayed ACK.  Outbound messages are queued per connection and written once
per loop pass; what the kernel does not take stays queued and goes out when
the socket reports writable, so a slow reader never loses its connection.

Every media datagram goes to ``SipProxy.handle_media`` with the ``(ip,
port)`` source that ``recvfrom`` returned, and each datagram it answers with
goes out of its relay port's socket, so the service builds no address object
per packet and the relay rules are the simulator's.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from .net import TransportAddress
from .proxy import ProxyConfig, SipProxy
from .sip_message import FramingError, MessageFramer

logger = logging.getLogger(__name__)

TICK_INTERVAL = 1.0
READ = selectors.EVENT_READ
READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE
MAX_IOVECS = 1024  # buffers per sendmsg; IOV_MAX on Linux and macOS


@dataclass
class _Connection:
    """One accepted signaling socket with its inbound framer and outbound queue."""

    sock: socket.socket
    framer: MessageFramer = field(default_factory=MessageFramer)
    outbox: deque[bytes] = field(default_factory=deque)
    head_sent: int = 0  # bytes of outbox[0] already written


class ProxyService:
    """Serve a SipProxy on real sockets; start()/stop() manage a daemon thread."""

    def __init__(self, config: ProxyConfig, host: str | None = None):
        self.config = config
        self.host = host or config.public_ip
        self.proxy = SipProxy(config)
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, config.sip_tcp_port))
        self._listener.listen(16)
        self._listener.setblocking(False)
        self.sip_port = self._listener.getsockname()[1]
        self._selector.register(self._listener, selectors.EVENT_READ, ("accept", None))

        self._udp_socks: dict[int, socket.socket] = {}
        lo, hi = config.media_port_range
        for port in range(lo, hi + 1):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((self.host, port))
            sock.setblocking(False)
            self._udp_socks[port] = sock
            self._selector.register(sock, selectors.EVENT_READ, ("media", port))

        self._conns: dict[int, _Connection] = {}
        # Connections with queued bytes the socket can take now (dict as ordered set).
        self._ready: dict[int, None] = {}
        self._next_conn = 1
        self._running = False
        self._thread: threading.Thread | None = None
        self._last_tick = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._running = True
        self._thread = threading.Thread(target=self._loop, name="sipnat-service", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=5)
        conn_socks = [c.sock for c in self._conns.values()]
        for sock in [self._listener, *self._udp_socks.values(), *conn_socks]:
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()

    def _loop(self) -> None:
        while self._running:
            for key, events in self._selector.select(timeout=0.05):
                kind, arg = key.data
                if kind == "accept":
                    self._accept()
                elif kind == "media":
                    self._read_media(key.fileobj, arg)
                else:
                    if events & selectors.EVENT_WRITE:
                        self._ready[arg] = None
                    if events & selectors.EVENT_READ:
                        self._read_tcp(arg)
            self._flush()
            now = time.monotonic()
            if now - self._last_tick >= TICK_INTERVAL:
                self._last_tick = now
                self.proxy.tick(now)

    # -- TCP signaling -------------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, peer = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = self._next_conn
        self._next_conn += 1
        self._conns[conn] = _Connection(sock)
        self.proxy.connection_opened(conn, TransportAddress(peer[0], peer[1]))
        self._selector.register(sock, READ, ("tcp", conn))
        logger.debug("accepted connection %d from %s:%d", conn, peer[0], peer[1])

    def _read_tcp(self, conn: int) -> None:
        connection = self._conns.get(conn)
        if connection is None:
            return
        try:
            data = connection.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._close_conn(conn)
            return
        try:
            messages = connection.framer.feed(data)
        except FramingError:
            logger.warning("unframeable stream on connection %d, closing", conn)
            self._close_conn(conn)
            return
        for raw in messages:
            outbound = self.proxy.handle_message(conn, raw, time.monotonic())
            self._transmit(outbound)

    def _transmit(self, outbound: list[tuple[int, bytes]]) -> None:
        """Queue each message on its connection; ``_flush`` writes the queues."""
        for conn, raw in outbound:
            connection = self._conns.get(conn)
            if connection is None:
                self._transmit(self.proxy.delivery_failed(conn, raw, time.monotonic()))
                continue
            if not connection.outbox:
                # A non-empty queue is already ready or waiting for EVENT_WRITE.
                self._ready[conn] = None
            connection.outbox.append(raw)

    def _flush(self) -> None:
        """Write each ready queue with one sendmsg; keep what the kernel refuses.

        A send error closes the connection, which reports its unsent
        messages as delivery failures; the replies that produces (a 404 to a
        caller) are queued and written in this same pass.
        """
        while self._ready:
            ready, self._ready = self._ready, {}
            for conn in ready:
                connection = self._conns.get(conn)
                if connection is not None:
                    self._send_queued(conn, connection)

    def _send_queued(self, conn: int, connection: _Connection) -> None:
        outbox = connection.outbox
        buffers = [memoryview(outbox[0])[connection.head_sent :], *islice(outbox, 1, MAX_IOVECS)]
        try:
            sent = connection.head_sent + connection.sock.sendmsg(buffers)
        except (BlockingIOError, InterruptedError):
            sent = connection.head_sent
        except OSError:
            self._close_conn(conn)
            return
        while outbox and sent >= len(outbox[0]):
            sent -= len(outbox.popleft())
        connection.head_sent = sent
        events = READ_WRITE if outbox else READ
        if self._selector.get_key(connection.sock).events != events:
            self._selector.modify(connection.sock, events, ("tcp", conn))

    def _close_conn(self, conn: int) -> None:
        """Close a connection and report each message still queued on it as undeliverable."""
        connection = self._conns.pop(conn)
        self._selector.unregister(connection.sock)
        connection.sock.close()
        self.proxy.connection_closed(conn)
        for raw in connection.outbox:
            self._transmit(self.proxy.delivery_failed(conn, raw, time.monotonic()))

    # -- UDP media -------------------------------------------------------------

    def _read_media(self, sock: socket.socket, port: int) -> None:
        """Relay one datagram through the proxy."""
        try:
            data, peer = sock.recvfrom(65536)
        except (BlockingIOError, InterruptedError, OSError):
            return
        for send in self.proxy.handle_media(port, peer, data):
            try:
                self._udp_socks[send.from_port].sendto(send.payload, send.to)
            except OSError:
                logger.debug("media send to %s:%d failed", *send.to)
