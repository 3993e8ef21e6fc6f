"""Sans-IO layer between the proxy core and whatever moves its bytes.

``ProxyProtocol`` does all that the socket service and the simulator share
and that is not I/O: it frames each signaling connection's stream by
Content-Length, queues what each connection is to be sent in ``outboxes``,
cuts off a reader whose outbox is still over ``MAX_OUTBOX_BYTES`` after a
send, closes a stream that cannot be framed, and holds the one exception
boundary, ``_input``.  A driver tries once to write each outbox that
``take_ready`` names and reports through ``sent`` what its transport took,
even nothing; when ``received`` or ``sent`` returns False the layer has
closed the connection, and the driver closes its transport.

What escapes the proxy is logged with its traceback as ``proxy <input>
failed on <connection id, relay port or tick time>`` and costs only what
raised it: a message's connection is closed, with the rest of its read, a
datagram is dropped, a tick skipped, a closing connection's replies lost.
"""

from __future__ import annotations

import logging
from typing import Callable

from .connection_manager import ConnectionId
from .media_controller import RelaySend
from .net import TransportAddress
from .proxy import Outbound, SipProxy
from .sip_message import FramingError, MessageFramer

logger = logging.getLogger(__name__)

MAX_OUTBOX_BYTES = 8 * 1024 * 1024  # unsent bytes a connection may hold after a send


class ProxyProtocol:
    """Drive ``proxy`` from transport events; see the module docstring."""

    def __init__(self, proxy: SipProxy):
        self.proxy = proxy
        self.outboxes: dict[ConnectionId, bytearray] = {}  # one per open connection
        self._framers: dict[ConnectionId, MessageFramer] = {}
        self._ready: dict[ConnectionId, None] = {}  # an ordered set

    def take_ready(self) -> dict[ConnectionId, None]:
        """Open connections whose outbox went from empty to not, or past the cap, since the last call."""
        ready, self._ready = self._ready, {}
        return ready

    def opened(self, conn: ConnectionId, remote: TransportAddress) -> None:
        """``conn`` is up; opening it again (from a new address) starts it afresh."""
        self._framers[conn] = MessageFramer()
        self.outboxes[conn] = bytearray()
        self._input(self.proxy.connection_opened, conn, remote)

    def received(self, conn: ConnectionId, data: bytes, now: float) -> bool:
        """Hand each message ``data`` completes to the proxy; False if ``conn`` is closed."""
        framer = self._framers.get(conn)
        if framer is None:
            return False
        try:
            messages = framer.feed(data)
        except FramingError:
            logger.warning("unframeable stream on connection %d, closing", conn)
            return self._drop(conn, now)
        for raw in messages:
            outbound = self._input(self.proxy.handle_message, conn, raw, now)
            if outbound is None:
                return self._drop(conn, now)
            self._queue(outbound)
        return True

    def sent(self, conn: ConnectionId, n: int, now: float) -> bool:
        """The transport took the first ``n`` bytes of the outbox; False if ``conn`` is closed."""
        outbox = self.outboxes.get(conn)
        if outbox is None:
            return False
        del outbox[:n]  # CPython advances a bytearray's start: no backlog copy per send
        if len(outbox) > MAX_OUTBOX_BYTES:
            logger.warning("connection %d holds %d unsent bytes, closing", conn, len(outbox))
            return self._drop(conn, now)
        return True

    def closed(self, conn: ConnectionId, now: float) -> None:
        """``conn`` is gone: drop its unsent bytes, and queue the replies the
        proxy makes as its calls end (a 404 to a ringing caller)."""
        if self._framers.pop(conn, None) is None:
            return
        del self.outboxes[conn]
        self._ready.pop(conn, None)
        self._queue(self._input(self.proxy.connection_closed, conn, now) or ())

    def datagram(self, port: int, src: tuple[str, int], data: bytes) -> list[RelaySend]:
        """Relay one media datagram; returns the datagrams to emit."""
        return self._input(self.proxy.handle_media, port, src, data) or []

    def tick(self, now: float) -> None:
        self._input(self.proxy.tick, now)

    def _input(self, proxy_input: Callable, *args):
        """``proxy_input(*args)``, or None if it raised; the caller decides what None costs."""
        try:
            return proxy_input(*args)
        except Exception:
            logger.exception("proxy %s failed on %s", proxy_input.__name__, args[0])
            return None

    def _queue(self, outbound: list[Outbound]) -> None:
        """Append each message to its connection's outbox.  One pushed past
        the cap is made ready, so that the driver's next send decides."""
        for conn, raw in outbound:
            outbox = self.outboxes.get(conn)
            if outbox is None:
                continue  # closed: the proxy ended its calls when it closed
            # A non-empty outbox under the cap is already ready or being written.
            if not outbox or len(outbox) + len(raw) > MAX_OUTBOX_BYTES:
                self._ready[conn] = None
            outbox += raw

    def _drop(self, conn: ConnectionId, now: float) -> bool:
        self.closed(conn, now)
        return False
