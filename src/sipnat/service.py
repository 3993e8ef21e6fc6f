"""Socket adapter running the deterministic proxy core on real transports.

One selector loop accepts TCP signaling connections (with TCP_NODELAY),
binds a UDP socket per media pool port, and makes the system calls that its
``ProxyProtocol`` asks for: the framing, the outboxes, their cap and the
exception boundary live in that layer (``sipnat.protocol``), which the
simulator's signaling runs through too.  What stays here is accept, recv,
send and sendto, and the selector's READ/READ_WRITE bookkeeping.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time

from .net import TransportAddress
from .protocol import ProxyProtocol
from .proxy import ProxyConfig, SipProxy

logger = logging.getLogger(__name__)

TICK_INTERVAL = 1.0
READ = selectors.EVENT_READ
READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE


class ProxyService:
    """Serve a SipProxy on real sockets; start()/stop() manage a daemon thread."""

    def __init__(self, config: ProxyConfig, host: str | None = None):
        self.config = config
        self.host = host or config.public_ip
        self.proxy = SipProxy(config)
        self.protocol = ProxyProtocol(self.proxy)
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._udp_socks: dict[int, socket.socket] = {}
        self._socks: dict[int, socket.socket] = {}  # signaling sockets by connection id
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((self.host, config.sip_tcp_port))
            self._listener.listen(16)
            self._listener.setblocking(False)
            self.sip_port = self._listener.getsockname()[1]
            self._selector.register(self._listener, selectors.EVENT_READ, ("accept", None))
            lo, hi = config.media_port_range
            for port in range(lo, hi + 1):
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                self._udp_socks[port] = sock
                sock.bind((self.host, port))
                sock.setblocking(False)
                self._selector.register(sock, selectors.EVENT_READ, ("media", port))
        except OSError:  # a port already taken: close what is open, then let the caller retry
            self._close_sockets()
            raise

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
        self._close_sockets()

    def _close_sockets(self) -> None:
        for sock in [self._listener, *self._udp_socks.values(), *self._socks.values()]:
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
                        self._send(arg)
                    if events & selectors.EVENT_READ:
                        self._read_tcp(arg)
            now = time.monotonic()
            if now - self._last_tick >= TICK_INTERVAL:
                self._last_tick = now
                self.protocol.tick(now)
            self._flush()

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
        self._socks[conn] = sock
        self._selector.register(sock, READ, ("tcp", conn))
        self.protocol.opened(conn, TransportAddress(*peer))
        logger.debug("accepted connection %d from %s:%d", conn, peer[0], peer[1])

    def _read_tcp(self, conn: int) -> None:
        sock = self._socks.get(conn)
        if sock is None:
            return
        try:
            data = sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not (data and self.protocol.received(conn, data, time.monotonic())):
            self._close(conn)

    def _flush(self) -> None:
        """Send each ready outbox once, until none is ready: a connection closed
        here queues its replies (a 404 to a caller), written in this pass."""
        while ready := self.protocol.take_ready():
            for conn in ready:
                self._send(conn)

    def _send(self, conn: int) -> None:
        """Send the outbox once and tell the layer what the kernel took."""
        outbox = self.protocol.outboxes[conn]
        sock = self._socks[conn]
        try:
            sent = sock.send(outbox)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._close(conn)
            return
        if not self.protocol.sent(conn, sent, time.monotonic()):
            self._close(conn)
            return
        events = READ_WRITE if outbox else READ
        if self._selector.get_key(sock).events != events:
            self._selector.modify(sock, events, ("tcp", conn))

    def _close(self, conn: int) -> None:
        """Close the socket and tell the layer, which ignores a connection it closed itself."""
        sock = self._socks.pop(conn)
        self._selector.unregister(sock)
        sock.close()
        self.protocol.closed(conn, time.monotonic())

    # -- UDP media -------------------------------------------------------------

    def _read_media(self, sock: socket.socket, port: int) -> None:
        """Relay one datagram through the proxy."""
        try:
            data, peer = sock.recvfrom(65536)
        except OSError:
            return
        for send in self.protocol.datagram(port, peer, data):
            try:
                self._udp_socks[send.from_port].sendto(send.payload, send.to)
            except OSError:
                logger.debug("media send to %s:%d failed", *send.to)
