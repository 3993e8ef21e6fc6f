"""Socket adapter running the deterministic proxy core on real transports.

Thin by design: one selector loop accepts TCP signaling connections, frames
them by Content-Length, binds a UDP socket per media pool port, and feeds
everything into the same SipProxy the simulator drives.

Signaling sockets run with TCP_NODELAY, so a message forwarded right behind
another on the same connection is not held back waiting for the peer's
delayed ACK.  Each connection's outbound bytes share one buffer, written
with one send per loop pass; what the kernel does not take stays queued
and goes out when the socket reports writable.  A reader slow enough to
leave more than ``MAX_OUTBOX_BYTES`` unsent is cut off, and its calls end.

Every media datagram goes to ``SipProxy.handle_media`` with the ``(ip,
port)`` source that ``recvfrom`` returned, and each datagram it answers with
goes out of its relay port's socket, so the service builds no address object
per packet and the relay rules are the simulator's.

Each of the proxy's five inputs goes through ``_input``, the one exception
boundary.  What escapes the proxy is logged with its traceback as ``proxy
<input> failed on <connection id, relay port or tick time>`` and costs only
what raised it: a message's connection is closed, the rest of its read
dropped, a datagram dropped, a tick skipped, a closing connection's replies
lost.  The loop keeps serving everyone else.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .net import TransportAddress
from .proxy import ProxyConfig, SipProxy
from .sip_message import FramingError, MessageFramer

logger = logging.getLogger(__name__)

TICK_INTERVAL = 1.0
MAX_OUTBOX_BYTES = 8 * 1024 * 1024  # unsent bytes a connection may hold after a send
READ = selectors.EVENT_READ
READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE


@dataclass
class _Connection:
    """One accepted signaling socket and its byte buffers: the framer's in, ``outbox`` out."""

    sock: socket.socket
    framer: MessageFramer = field(default_factory=MessageFramer)
    outbox: bytearray = field(default_factory=bytearray)


class ProxyService:
    """Serve a SipProxy on real sockets; start()/stop() manage a daemon thread."""

    def __init__(self, config: ProxyConfig, host: str | None = None):
        self.config = config
        self.host = host or config.public_ip
        self.proxy = SipProxy(config)
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._udp_socks: dict[int, socket.socket] = {}
        self._conns: dict[int, _Connection] = {}
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
        self._close_sockets()

    def _close_sockets(self) -> None:
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
                self._input(self.proxy.tick, now)

    def _input(self, proxy_input: Callable, *args):
        """``proxy_input(*args)``, or None if it raised; the caller decides what None costs."""
        try:
            return proxy_input(*args)
        except Exception:
            logger.exception("proxy %s failed on %s", proxy_input.__name__, args[0])
            return None

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
        self._input(self.proxy.connection_opened, conn, TransportAddress(peer[0], peer[1]))
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
            outbound = self._input(self.proxy.handle_message, conn, raw, time.monotonic())
            if outbound is None:
                self._close_conn(conn)
                return
            self._transmit(outbound)

    def _transmit(self, outbound: list[tuple[int, bytes]]) -> None:
        """Append each message to its connection's outbox; ``_flush`` writes them.

        An outbox over ``MAX_OUTBOX_BYTES`` is made ready, so this loop pass
        decides whether to close its connection; closing it here would leave
        a batch being read from it still to be handled.
        """
        for conn, raw in outbound:
            connection = self._conns.get(conn)
            if connection is None:
                continue  # closed: the proxy ended its calls when it closed
            outbox = connection.outbox
            # A non-empty outbox under the cap is already ready or waiting for EVENT_WRITE.
            if not outbox or len(outbox) + len(raw) > MAX_OUTBOX_BYTES:
                self._ready[conn] = None
            outbox += raw

    def _flush(self) -> None:
        """Write each ready outbox with one send; keep what the kernel refuses.

        A send error, or an outbox still over ``MAX_OUTBOX_BYTES`` after its
        send, closes the connection, dropping its unsent bytes; the replies its
        closing makes (a 404 to a caller) are queued and written in this pass.
        """
        while self._ready:
            ready, self._ready = self._ready, {}
            for conn in ready:
                connection = self._conns.get(conn)
                if connection is not None:
                    self._send_queued(conn, connection)

    def _send_queued(self, conn: int, connection: _Connection) -> None:
        """Send the outbox once; close the connection on a send error, or if
        more than ``MAX_OUTBOX_BYTES`` are still unsent after the send."""
        outbox = connection.outbox
        try:
            sent = connection.sock.send(outbox)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._close_conn(conn)
            return
        del outbox[:sent]  # CPython advances a bytearray's start: no backlog copy per send
        if len(outbox) > MAX_OUTBOX_BYTES:
            logger.warning("connection %d holds %d unsent bytes, closing", conn, len(outbox))
            self._close_conn(conn)
            return
        events = READ_WRITE if outbox else READ
        if self._selector.get_key(connection.sock).events != events:
            self._selector.modify(connection.sock, events, ("tcp", conn))

    def _close_conn(self, conn: int) -> None:
        """Close a connection, drop its outbox, and queue the proxy's replies as its calls end."""
        connection = self._conns.pop(conn)
        self._selector.unregister(connection.sock)
        connection.sock.close()
        self._transmit(self._input(self.proxy.connection_closed, conn, time.monotonic()) or ())

    # -- UDP media -------------------------------------------------------------

    def _read_media(self, sock: socket.socket, port: int) -> None:
        """Relay one datagram through the proxy."""
        try:
            data, peer = sock.recvfrom(65536)
        except OSError:
            return
        for send in self._input(self.proxy.handle_media, port, peer, data) or ():
            try:
                self._udp_socks[send.from_port].sendto(send.payload, send.to)
            except OSError:
                logger.debug("media send to %s:%d failed", *send.to)
