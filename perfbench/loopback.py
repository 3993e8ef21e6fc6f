"""Loopback workloads: a ProxyService child process driven over 127.0.0.1.

The load comes from this single-threaded process through at most two TCP
connections ("trunks", each registering many addresses-of-record) and two
UDP sockets (one per call side; a relay leg latches per relay port, so one
socket can serve every call on its side).

loopback_churn  closed loop, a fixed number of calls in flight, each
                INVITE (SDP) -> 200 (SDP) -> ACK -> BYE -> 200, no media
loopback_media  open loop, calls set up before timing, 172-byte RTP
                packets at 20 ms pacing per stream, each timed from the
                moment it was due
"""

from __future__ import annotations

import bisect
import json
import os
import random
import re
import select
import selectors
import socket
import statistics
import struct
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from stats import rss_mb, summarize, timed_setups, windowed

HOST = "127.0.0.1"
HERE = Path(__file__).resolve().parent
CALL_TIMEOUT = 5.0
WINDOW_S = 1.0  # churn's call rate is taken per window, then the median
CHILD_TIMEOUT = 30.0

CHURN_CONCURRENCY = 32
CHURN_POOL_PAIRS = 100  # the default ProxyConfig pool: 200 ports, 50 sessions
MEDIA_CALLS = 160
MEDIA_STREAM_PPS = 50  # one packet per 20 ms per stream
MEDIA_REFERENCE_PPS = MEDIA_CALLS * 2 * MEDIA_STREAM_PPS
MEDIA_POOL_PAIRS = 2 * MEDIA_CALLS
PACKET_BYTES = 172
SEARCH_FACTORS = (1.5, 2.0, 2.5, 3.0, 4.0)
SEARCH_TRIAL_S = 0.5
LATE_LIMIT_MS = 2.0  # a trial counts only if the sender's p99 lateness stays below this
AORS_PER_TRUNK = 64

_CONTENT_LENGTH = re.compile(rb"\r\nContent-Length:\s*(\d+)", re.I)
_PAYLOAD = struct.Struct("!IIIdd")  # call, direction, sequence, due time, send time
_TIMESPEC = struct.Struct("qq")
SO_TIMESTAMPNS = 35  # Linux: kernel receive time (CLOCK_REALTIME) as ancillary data


class BenchFailure(Exception):
    """The program under test broke an output check."""


# -- the service child ---------------------------------------------------------


class ServiceChild:
    """One ProxyService process; stats and stop go over its stdin/stdout."""

    def __init__(self, src: Path, pool_pairs: int, trace: bool = False, spans: Path | None = None):
        cmd = [
            sys.executable,
            str(HERE / "service_child.py"),
            "--src", str(src),
            "--pool-pairs", str(pool_pairs),
            "--trace", "1" if trace else "0",
            "--spans", str(spans or ""),
        ]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.sip_port = ready["sip_port"]
        self.media_range = tuple(ready["media_range"])

    def _read(self) -> dict:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(CHILD_TIMEOUT):
                raise BenchFailure("service child did not answer in time")
        finally:
            selector.close()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchFailure(f"service child exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def cpu_seconds(self) -> float:
        """On-CPU time of every thread of the child, to the nanosecond."""
        total = 0
        for task in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(f"/proc/{self.proc.pid}/task/{task}/schedstat") as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:
                pass  # the thread ended between listing and reading
        return total / 1e9

    def rss_mb(self) -> float:
        return rss_mb(self.proc.pid)

    def stop(self) -> dict:
        try:
            reply = self.request("stop")
            self.proc.wait(timeout=CHILD_TIMEOUT)
            return reply
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


def udp_rcvbuf_errors() -> int:
    """Host-wide ``Udp: RcvbufErrors`` counter (read only)."""
    with open("/proc/net/snmp") as f:
        rows = [line.split() for line in f if line.startswith("Udp:")]
    return int(rows[1][rows[0].index("RcvbufErrors")])


# -- SIP user agents -------------------------------------------------------------


def build_message(start: str, headers: list[tuple[str, str]], body: bytes = b"") -> bytes:
    """Wire bytes of one SIP message; Content-Length is appended."""
    lines = [start, *(f"{name}: {value}" for name, value in headers), f"Content-Length: {len(body)}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def sdp_body(user: str, port: int) -> bytes:
    """A one-audio-stream session description naming 127.0.0.1:``port``."""
    return (
        f"v=0\r\no={user} 1 1 IN IP4 {HOST}\r\ns=-\r\nc=IN IP4 {HOST}\r\nt=0 0\r\n"
        f"m=audio {port} RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n"
    ).encode()


def split_message(raw: bytes) -> tuple[str, dict[str, str], bytes]:
    """(start line, {lower-case header name: value}, body) of a framed message."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers, body


def sdp_target(body: bytes) -> tuple[str | None, int | None]:
    """The connection address and media port a session description names."""
    ip = port = None
    for line in body.decode("latin-1").split("\r\n"):
        if line.startswith("c=IN IP4 "):
            ip = line[9:].strip()
        elif line.startswith("m="):
            parts = line.split()
            port = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else None
    return ip, port


class Trunk:
    """One TCP signaling connection carrying many registered AORs."""

    def __init__(self, index: int, sip_port: int):
        self.index = index
        self.domain = f"trunk{index}.bench"
        self.sock = socket.create_connection((HOST, sip_port), timeout=CALL_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def aor(self, user: str) -> str:
        return f"sip:{user}@{self.domain}"

    def send(self, raw: bytes) -> None:
        self.sock.sendall(raw)

    def receive(self) -> list[bytes]:
        """Read once; return the complete messages now buffered."""
        data = self.sock.recv(262144)
        if not data:
            raise ConnectionResetError(f"trunk {self.index}: proxy closed the connection")
        self._buffer += data
        messages = []
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end < 0:
                return messages
            m = _CONTENT_LENGTH.search(self._buffer, 0, end + 2)
            total = end + 4 + (int(m.group(1)) if m else 0)
            if len(self._buffer) < total:
                return messages
            messages.append(bytes(self._buffer[:total]))
            del self._buffer[:total]

    def register_all(self, users: list[str]) -> None:
        for user in users:
            aor = self.aor(user)
            self.send(
                build_message(
                    f"REGISTER sip:{self.domain} SIP/2.0",
                    [
                        ("Via", f"SIP/2.0/TCP {HOST};branch=z9hG4bKreg{user}"),
                        ("From", f"<{aor}>"),
                        ("To", f"<{aor}>"),
                        ("Call-ID", f"reg-{user}@{self.domain}"),
                        ("CSeq", "1 REGISTER"),
                        ("Contact", f"<sip:{user}@{HOST}>"),
                    ],
                )
            )
        pending = len(users)
        deadline = time.monotonic() + CALL_TIMEOUT
        while pending:
            self.sock.settimeout(max(0.01, deadline - time.monotonic()))
            for raw in self.receive():
                start, _, _ = split_message(raw)
                if not start.startswith("SIP/2.0 200"):
                    raise BenchFailure(f"REGISTER answered {start!r}")
                pending -= 1
        self.sock.settimeout(CALL_TIMEOUT)

    def close(self) -> None:
        self.sock.close()


@dataclass
class Call:
    call_id: str
    caller: Trunk
    callee: Trunk
    caller_user: str
    callee_user: str
    caller_media_port: int
    callee_media_port: int
    auto_bye: bool
    invited_at: float = 0.0
    deadline: float = 0.0
    answered_at: float = 0.0
    done_at: float = 0.0
    a_relay_port: int = 0  # the caller sends its media here
    b_relay_port: int = 0  # the callee sends its media here
    to_with_tag: str = ""


@dataclass
class CallAgents:
    """Plays both user agents of every call, on the calls' trunks."""

    media_range: tuple[int, int]
    completed: list[Call] = field(default_factory=list)
    established: list[Call] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    live: dict[str, Call] = field(default_factory=dict)
    _deadlines: deque = field(default_factory=deque)

    def _track(self, call: Call) -> None:
        call.deadline = time.perf_counter() + CALL_TIMEOUT
        self.live[call.call_id] = call
        self._deadlines.append(call)

    def invite(self, call: Call) -> None:
        call.invited_at = time.perf_counter()
        self._track(call)
        caller_aor = call.caller.aor(call.caller_user)
        call.caller.send(
            build_message(
                f"INVITE {call.callee.aor(call.callee_user)} SIP/2.0",
                [
                    ("Via", f"SIP/2.0/TCP {HOST};branch=z9hG4bK{call.call_id}"),
                    ("From", f"<{caller_aor}>;tag=a"),
                    ("To", f"<{call.callee.aor(call.callee_user)}>"),
                    ("Call-ID", call.call_id),
                    ("CSeq", "1 INVITE"),
                    ("Contact", f"<sip:{call.caller_user}@{HOST}>"),
                    ("Content-Type", "application/sdp"),
                ],
                sdp_body(call.caller_user, call.caller_media_port),
            )
        )

    def hang_up(self, call: Call) -> None:
        """BYE for a call set up with ``auto_bye`` off."""
        self._track(call)
        self.bye(call)

    def bye(self, call: Call) -> None:
        """The caller hangs up."""
        call.caller.send(
            build_message(
                f"BYE {call.callee.aor(call.callee_user)} SIP/2.0",
                [
                    ("Via", f"SIP/2.0/TCP {HOST};branch=z9hG4bK{call.call_id}bye"),
                    ("From", f"<{call.caller.aor(call.caller_user)}>;tag=a"),
                    ("To", call.to_with_tag),
                    ("Call-ID", call.call_id),
                    ("CSeq", "2 BYE"),
                    ("Contact", f"<{call.caller.aor(call.caller_user)}>"),
                ],
            )
        )

    def _fail(self, call: Call, why: str) -> None:
        self.live.pop(call.call_id, None)
        self.failures.append(f"{call.call_id}: {why}")

    def _check_sdp(self, call: Call, body: bytes, what: str) -> int:
        ip, port = sdp_target(body)
        lo, hi = self.media_range
        if ip != HOST or port is None or not lo <= port <= hi:
            raise BenchFailure(f"{call.call_id}: {what} SDP points at {ip}:{port}, not the relay pool {lo}-{hi}")
        return port

    def on_message(self, trunk: Trunk, raw: bytes) -> None:
        start, headers, body = split_message(raw)
        call = self.live.get(headers.get("call-id", ""))
        if call is None:
            return  # a late message for a call already counted as failed
        method = headers.get("cseq", " ").split()[-1]
        if start.startswith("SIP/2.0 "):
            status = int(start.split()[1])
            if method == "INVITE" and trunk is call.caller:
                if status != 200:
                    self._fail(call, f"INVITE answered {status}")
                    return
                call.answered_at = time.perf_counter()
                call.a_relay_port = self._check_sdp(call, body, "answer")
                call.to_with_tag = headers["to"]
                trunk.send(
                    build_message(
                        f"ACK {call.callee.aor(call.callee_user)} SIP/2.0",
                        [
                            ("Via", f"SIP/2.0/TCP {HOST};branch=z9hG4bK{call.call_id}ack"),
                            ("From", headers["from"]),
                            ("To", headers["to"]),
                            ("Call-ID", call.call_id),
                            ("CSeq", "1 ACK"),
                        ],
                    )
                )
                if call.auto_bye:
                    self.bye(call)
                else:
                    del self.live[call.call_id]
                    self.established.append(call)
            elif method == "BYE":
                if status != 200:
                    self._fail(call, f"BYE answered {status}")
                    return
                call.done_at = time.perf_counter()
                del self.live[call.call_id]
                self.completed.append(call)
            return
        if method == "INVITE":
            call.b_relay_port = self._check_sdp(call, body, "offer")
            trunk.send(
                build_message(
                    "SIP/2.0 200 OK",
                    [
                        ("Via", headers["via"]),
                        ("From", headers["from"]),
                        ("To", headers["to"] + ";tag=b"),
                        ("Call-ID", call.call_id),
                        ("CSeq", headers["cseq"]),
                        ("Contact", f"<sip:{call.callee_user}@{HOST}>"),
                        ("Content-Type", "application/sdp"),
                    ],
                    sdp_body(call.callee_user, call.callee_media_port),
                )
            )
        elif method == "BYE":
            trunk.send(
                build_message(
                    "SIP/2.0 200 OK",
                    [
                        ("Via", headers["via"]),
                        ("From", headers["from"]),
                        ("To", headers["to"]),
                        ("Call-ID", call.call_id),
                        ("CSeq", headers["cseq"]),
                    ],
                )
            )

    def expire(self, now: float) -> None:
        while self._deadlines and self._deadlines[0].deadline <= now:
            call = self._deadlines.popleft()
            if self.live.get(call.call_id) is call and call.deadline <= now:
                self._fail(call, "timed out")

    def pump(self, selector: selectors.BaseSelector, timeout: float) -> None:
        for key, _ in selector.select(timeout):
            trunk = key.data
            for raw in trunk.receive():
                self.on_message(trunk, raw)

    def fail_all(self, why: str) -> None:
        for call in list(self.live.values()):
            self._fail(call, why)


class Loopback:
    """A service child plus the two trunks registered on it."""

    def __init__(self, src: Path, pool_pairs: int, trace: bool = False, spans: Path | None = None):
        self.child = ServiceChild(src, pool_pairs, trace, spans)
        self.trunks: list[Trunk] = []
        try:
            for i in range(2):
                trunk = Trunk(i, self.child.sip_port)
                self.trunks.append(trunk)
                trunk.register_all([f"u{i}x{k}" for k in range(AORS_PER_TRUNK)])
        except BaseException:
            self.close()
            raise
        self.selector = selectors.DefaultSelector()
        for trunk in self.trunks:
            self.selector.register(trunk.sock, selectors.EVENT_READ, trunk)
        self.agents = CallAgents(self.child.media_range)

    def new_call(self, rng: random.Random, serial: int, auto_bye: bool, media_ports=(4000, 4002)) -> Call:
        caller = rng.randrange(2)
        return Call(
            call_id=f"c{serial}-{rng.getrandbits(32):08x}@bench",
            caller=self.trunks[caller],
            callee=self.trunks[1 - caller],
            caller_user=f"u{caller}x{rng.randrange(AORS_PER_TRUNK)}",
            callee_user=f"u{1 - caller}x{rng.randrange(AORS_PER_TRUNK)}",
            caller_media_port=media_ports[0],
            callee_media_port=media_ports[1],
            auto_bye=auto_bye,
        )

    def check_pool_full(self) -> dict:
        stats = self.child.request("stats")
        if stats["pool_free_pairs"] != stats["pool_pairs"] or stats["sessions"]:
            raise BenchFailure(
                f"after hangup the pool has {stats['pool_free_pairs']}/{stats['pool_pairs']} "
                f"free pairs and {stats['sessions']} live sessions"
            )
        return stats

    def close(self) -> dict:
        for trunk in self.trunks:
            trunk.close()
        if hasattr(self, "selector"):
            self.selector.close()
        return self.child.stop()


# -- loopback_churn ----------------------------------------------------------------


def churn_phase(lb: Loopback, rng: random.Random, seconds: float) -> dict:
    """Closed loop at CHURN_CONCURRENCY calls in flight for ``seconds``."""
    agents = lb.agents
    serial = 0
    cpu0 = lb.child.cpu_seconds()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    try:
        while True:
            now = time.perf_counter()
            if now < deadline:
                while len(agents.live) < CHURN_CONCURRENCY:
                    serial += 1
                    agents.invite(lb.new_call(rng, serial, auto_bye=True))
            elif not agents.live:
                break
            elif now > deadline + CALL_TIMEOUT:
                agents.fail_all("still in flight at the end of the run")
                break
            agents.pump(lb.selector, 0.05)
            agents.expire(time.perf_counter())
    except (ConnectionError, socket.timeout) as exc:
        agents.fail_all(f"signaling connection failed: {exc}")
    elapsed = time.perf_counter() - t0
    cpu = lb.child.cpu_seconds() - cpu0
    done = agents.completed
    in_window = sum(1 for c in done if c.done_at <= deadline)
    finished = sorted(c.done_at for c in done)
    edges = [t0 + k * WINDOW_S for k in range(int(seconds / WINDOW_S) + 1)]
    rates = [
        (bisect.bisect_left(finished, end) - bisect.bisect_left(finished, start)) / WINDOW_S
        for start, end in zip(edges, edges[1:])
    ]
    return {
        "attempted": serial,
        "failed": len(agents.failures),
        "failures": agents.failures[:5],
        "completed": len(done),
        "calls_per_s": in_window / seconds,
        "calls_per_s_windowed": statistics.median(rates) if rates else in_window / seconds,
        "setup_ms": summarize([(c.answered_at - c.invited_at) * 1e3 for c in done]),
        "call_ms": summarize([(c.done_at - c.invited_at) * 1e3 for c in done]),
        "calls": done,
        "child_cpu_s": cpu,
        "cpu_busy": cpu / elapsed,
        "messages": 5 * len(done),
    }


def run_churn(src: Path, seed: int, seconds: float, setups: int) -> dict:
    rng = random.Random(seed)
    setup = timed_setups(lambda: Loopback(src, CHURN_POOL_PAIRS), setups)
    lb = setup.pop("kept")
    try:
        result = churn_phase(lb, rng, seconds)
        lb.check_pool_full()
        result["rss_mb"] = lb.child.rss_mb()
    finally:
        lb.close()
    result["setup_s"] = setup["setup_s"]
    return result


def trace_churn(src: Path, seed: int, seconds: float, spans: Path) -> dict:
    """Untraced then traced halves; per-call split of time inside the proxy."""
    halves = []
    for trace in (False, True):
        lb = Loopback(src, CHURN_POOL_PAIRS, trace=trace, spans=spans if trace else None)
        try:
            before = lb.child.request("stats")
            result = churn_phase(lb, random.Random(seed), seconds / 2)
            result["spans"] = _span_delta(before, lb.check_pool_full())
        finally:
            reply = lb.close()
        halves.append((result, reply))
    (plain, _), (traced, reply) = halves
    messages, span_cpu_ms = traced["spans"]["proxy.handle_message"]
    span_cpu_ms += traced["spans"]["sip_message.framer_feed"][1]
    layers = reply["layers"]
    # Per call (by Call-ID): time inside proxy.handle_message spans, and the
    # part of it the proxy itself spent outside the codec and relay spans.
    per_call = [reply["per_call"].get(c.call_id, (0.0, 0.0)) for c in traced["calls"]]
    in_proxy = statistics.median(total for total, _ in per_call)
    call_ms = traced["call_ms"]["p50"]
    layers.update(
        {
            "churn.call_p50_traced_ms": call_ms,
            "churn.call_in_proxy_ms": in_proxy,
            "churn.call_proxy_self_ms": statistics.median(own for _, own in per_call),
            "churn.call_outside_proxy_ms": call_ms - in_proxy,
            "service.cpu_busy": plain["cpu_busy"],
            # Service CPU outside the proxy and framer spans, per message,
            # both from the traced half so that tracing cost cancels.
            "service.self_us_per_msg": (traced["child_cpu_s"] * 1e3 - span_cpu_ms) * 1e3 / max(1, messages),
            # Child CPU per message, traced over untraced.
            "bench.trace_overhead_pct": (
                traced["child_cpu_s"] / max(1, traced["messages"]) / (plain["child_cpu_s"] / max(1, plain["messages"]))
                - 1
            )
            * 100,
        }
    )
    return {"layers": layers, "failed": plain["failed"] + traced["failed"],
            "attempted": plain["attempted"] + traced["attempted"]}


# -- loopback_media ------------------------------------------------------------------


class MediaSetup:
    """A loopback service with MEDIA_CALLS calls set up and both legs latched.

    Side A (every caller) and side B (every callee) each use one UDP socket.
    """

    def __init__(self, src: Path, rng: random.Random, trace: bool = False, spans: Path | None = None):
        self.lb = Loopback(src, MEDIA_POOL_PAIRS, trace, spans)
        self.socks: list[socket.socket] = []
        try:
            for _ in range(2):
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                self.socks.append(sock)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
                sock.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
                sock.bind((HOST, 0))
                sock.setblocking(False)
            ports = tuple(s.getsockname()[1] for s in self.socks)
            agents = self.lb.agents
            for serial in range(MEDIA_CALLS):
                agents.invite(self.lb.new_call(rng, serial, auto_bye=False, media_ports=ports))
            self._pump_until(lambda: len(agents.established) == MEDIA_CALLS, "call setup")
            self.calls = list(agents.established)
            self.filler = rng.randbytes(PACKET_BYTES - 12 - _PAYLOAD.size)
            self.seq = 0
            self._latch()
        except BaseException:
            self.close()
            raise

    def _pump_until(self, done, what: str) -> None:
        agents = self.lb.agents
        deadline = time.perf_counter() + 2 * CALL_TIMEOUT
        while not done():
            if agents.failures:
                raise BenchFailure(f"{what}: {agents.failures[0]}")
            if time.perf_counter() > deadline:
                raise BenchFailure(f"{what} did not finish in time")
            agents.pump(self.lb.selector, 0.05)
            agents.expire(time.perf_counter())

    def _latch(self) -> None:
        """One packet per leg: side A first (buffered by the relay), then B."""
        streams = [(c, 0) for c in range(MEDIA_CALLS)] + [(c, 1) for c in range(MEDIA_CALLS)]
        result = self.send_schedule(streams, [0.0] * len(streams), 1, 1.0)
        if result["lost"] or result["mismatches"]:
            raise BenchFailure(f"latching: {result['lost']} lost, {result['mismatches']} mismatched")

    def send_schedule(self, streams, offsets, periods: int, interval: float) -> dict:
        """Send ``periods`` rounds; stream k's packet of round p is due at
        start + p * interval + offsets[k].  Checks every relayed packet."""
        socks = self.socks
        a_ports = [c.a_relay_port for c in self.calls]
        b_ports = [c.b_relay_port for c in self.calls]
        # Stream k: (socket, relay address, call, direction, RTP SSRC)
        plan = [
            (socks[d], (HOST, a_ports[c] if d == 0 else b_ports[c]), c, d, 2 * c + d) for c, d in streams
        ]
        head = struct.Struct("!BBHII" + _PAYLOAD.format[1:])
        filler = self.filler
        inflight: dict[tuple, bytes] = {}
        latencies: list[float] = []  # from the due time
        relay_latencies: list[float] = []  # from the send time: the relay's own share
        last_arrival = [0.0]
        stale = [0]  # relayed after an earlier trial ended; counted lost there
        lates: list[float] = []
        bad: list[str] = []
        send_errors = 0
        n = len(streams)
        total = n * periods
        seq0 = self.seq
        self.seq += periods
        perf = time.perf_counter
        # Arrival is the kernel's receive time, so a late wake-up of this
        # loop does not count as relay latency; convert it to perf_counter.
        realtime_offset = time.time() - perf()

        def drain(side: int) -> None:
            sock = socks[side]
            while True:
                try:
                    data, ancillary, _, peer = sock.recvmsg(4096, 64)
                except BlockingIOError:
                    return
                arrived = None
                for level, kind, cdata in ancillary:
                    if level == socket.SOL_SOCKET and kind == SO_TIMESTAMPNS:
                        sec, nsec = _TIMESPEC.unpack(cdata)
                        arrived = sec + nsec * 1e-9 - realtime_offset
                if arrived is None:
                    arrived = perf()
                try:
                    call, direction, seq, due, sent_at = _PAYLOAD.unpack_from(data, 12)
                except struct.error:
                    bad.append(f"short datagram of {len(data)} bytes")
                    continue
                if seq < seq0:
                    stale[0] += 1
                    continue
                if inflight.pop((call, direction, seq), None) != data:
                    bad.append(f"payload of call {call} dir {direction} seq {seq} differs from any sent")
                    continue
                relay_port = b_ports[call] if direction == 0 else a_ports[call]
                if side != 1 - direction or peer != (HOST, relay_port):
                    bad.append(f"call {call} dir {direction} arrived on side {side} from {peer}")
                else:
                    latencies.append(arrived - due)
                    relay_latencies.append(arrived - sent_at)
                    last_arrival[0] = arrived

        cpu0 = time.process_time()
        child_cpu0 = self.lb.child.cpu_seconds()
        rcvbuf0 = udp_rcvbuf_errors()
        start = perf() + 0.005
        i = 0
        while True:
            now = perf()
            while i < total:
                period, k = divmod(i, n)
                due = start + period * interval + offsets[k]
                if due > now:
                    break
                sock, dest, call, direction, ssrc = plan[k]
                seq = seq0 + period
                now = perf()
                data = head.pack(0x80, 0, seq & 0xFFFF, (seq * 160) & 0xFFFFFFFF, ssrc, call, direction, seq, due, now)
                data += filler
                try:
                    sock.sendto(data, dest)
                except BlockingIOError:
                    send_errors += 1
                else:
                    inflight[(call, direction, seq)] = data
                lates.append(now - due)
                i += 1
            drain(0)
            drain(1)
            if i >= total:
                last_due = start + (periods - 1) * interval + max(offsets)
                if not inflight or now > last_due + 0.5:
                    break
                wait = 0.005
            else:
                period, k = divmod(i, n)
                wait = start + period * interval + offsets[k] - perf()
            if wait > 0:
                # select(2) sleeps to the microsecond; epoll rounds up to 1 ms.
                select.select(socks, [], [], wait)
        elapsed = perf() - start
        span = max(elapsed, periods * interval)
        lates.sort()

        return {
            "sent": total - send_errors,
            "delivered": len(latencies),
            "lost": len(inflight),
            "stale": stale[0],
            "send_errors": send_errors,
            "mismatches": len(bad),
            "mismatch_examples": bad[:3],
            "latency_us": windowed([x * 1e6 for x in latencies], round(periods * interval)),
            "relay_latency_us": windowed([x * 1e6 for x in relay_latencies], round(periods * interval)),
            "late_p99_ms": lates[min(len(lates) - 1, int(0.99 * len(lates)))] * 1e3,
            "gen_cpu_busy": (time.process_time() - cpu0) / span,
            "child_cpu_s": self.lb.child.cpu_seconds() - child_cpu0,
            "rcvbuf_errors": udp_rcvbuf_errors() - rcvbuf0,
            "elapsed_s": periods * interval,
            # from the first packet's due time to the last arrival
            "delivered_pps": len(latencies) / max(1e-6, last_arrival[0] - start - offsets[0]),
        }

    def trial(self, rng: random.Random, rate_pps: float, seconds: float) -> dict:
        """Every stream paced at rate_pps / streams, phases spread by ``rng``."""
        streams = [(c, d) for c in range(MEDIA_CALLS) for d in (0, 1)]
        rng.shuffle(streams)
        interval = len(streams) / rate_pps
        offsets = sorted(rng.random() * interval for _ in streams)
        return self.send_schedule(streams, offsets, max(1, round(seconds / interval)), interval)

    def hang_up_all(self) -> None:
        agents = self.lb.agents
        for call in self.calls:
            agents.hang_up(call)
        self._pump_until(lambda: len(agents.completed) == MEDIA_CALLS, "hangup")

    def close(self) -> dict:
        for sock in self.socks:
            sock.close()
        return self.lb.close()


def _relay_result(trial: dict) -> dict:
    relayed = trial["delivered"] or 1
    return {
        "delivered_pps": trial["delivered_pps"],
        "cpu_us_per_pkt": trial["child_cpu_s"] * 1e6 / relayed,
        "cpu_busy": trial["child_cpu_s"] / trial["elapsed_s"],
    }


def zero_loss_search(setup: MediaSetup, rng: random.Random, reference: dict) -> tuple[float, list[dict]]:
    """Highest offered rate with zero loss, confirmed by a repeat trial and
    counting only trials where the sender kept its schedule."""

    def clean(t: dict) -> bool:
        return not t["lost"] and not t["send_errors"] and t["late_p99_ms"] < LATE_LIMIT_MS

    best = float(MEDIA_REFERENCE_PPS) if clean(reference) else 0.0
    trials = []
    for factor in SEARCH_FACTORS:
        rate = MEDIA_REFERENCE_PPS * factor
        first = setup.trial(rng, rate, SEARCH_TRIAL_S)
        trials.append({"rate_pps": rate, "lost": first["lost"], "late_p99_ms": first["late_p99_ms"]})
        if first["mismatches"]:
            raise BenchFailure(f"relay corrupted packets: {first['mismatch_examples']}")
        if not clean(first):
            break
        again = setup.trial(rng, rate, SEARCH_TRIAL_S)
        trials.append({"rate_pps": rate, "lost": again["lost"], "late_p99_ms": again["late_p99_ms"]})
        if again["mismatches"]:
            raise BenchFailure(f"relay corrupted packets: {again['mismatch_examples']}")
        if not clean(again):
            break
        best = rate
    return best, trials


def _span_delta(before: dict, after: dict) -> dict:
    """Calls and thread CPU of the service's outermost spans between two
    stats replies of a traced child ({} for an untraced one)."""
    if "spans" not in after:
        return {}
    return {
        name: [calls - before["spans"][name][0], cpu_ms - before["spans"][name][1]]
        for name, (calls, cpu_ms) in after["spans"].items()
    }


def _check_relay(trial: dict) -> None:
    if trial["mismatches"]:
        raise BenchFailure(f"relay broke {trial['mismatches']} packets: {trial['mismatch_examples']}")


def run_media(src: Path, seed: int, seconds: float, setups: int) -> dict:
    rng = random.Random(seed)
    timing = timed_setups(lambda: MediaSetup(src, rng), setups)
    setup = timing.pop("kept")
    try:
        reference = setup.trial(rng, MEDIA_REFERENCE_PPS, seconds)
        _check_relay(reference)
        zero_loss_pps, trials = zero_loss_search(setup, rng, reference)
        setup.hang_up_all()
        setup.lb.check_pool_full()
        rss = setup.lb.child.rss_mb()
    finally:
        setup.close()
    result = {
        "setup_s": timing["setup_s"],
        "rss_mb": rss,
        "reference": reference,
        "zero_loss_pps": zero_loss_pps,
        "search": trials,
        "attempted": reference["sent"] + reference["send_errors"],
        "failed": reference["lost"] + reference["send_errors"],
    }
    result.update(_relay_result(reference))
    return result


def trace_media(src: Path, seed: int, seconds: float, spans: Path) -> dict:
    """Untraced then traced reference-rate halves, each on a fresh service."""
    halves = []
    for trace in (False, True):
        rng = random.Random(seed)
        setup = MediaSetup(src, rng, trace=trace, spans=spans if trace else None)
        try:
            before = setup.lb.child.request("stats")
            trial = setup.trial(rng, MEDIA_REFERENCE_PPS, seconds / 2)
            trial["spans"] = _span_delta(before, setup.lb.child.request("stats"))
            _check_relay(trial)
            setup.hang_up_all()
            setup.lb.check_pool_full()
        finally:
            reply = setup.close()
        trial.update(_relay_result(trial))
        halves.append(trial)
    plain, traced = halves
    layers = reply["layers"]
    handled, span_cpu_ms = traced["spans"]["proxy.handle_media"]
    layers.update(
        {
            "service.cpu_busy": plain["cpu_busy"],
            # Service CPU outside proxy.handle_media, per datagram handled.
            "service.self_us_per_pkt": (traced["child_cpu_s"] * 1e3 - span_cpu_ms) * 1e3 / max(1, handled),
            "bench.gen_late_ms": plain["late_p99_ms"],
            "bench.gen_cpu_busy": plain["gen_cpu_busy"],
            "udp.rcvbuf_errors": plain["rcvbuf_errors"],
            "bench.trace_overhead_pct": (traced["cpu_us_per_pkt"] / plain["cpu_us_per_pkt"] - 1) * 100,
        }
    )
    return {
        "layers": layers,
        "attempted": plain["sent"] + traced["sent"],
        "failed": plain["lost"] + traced["lost"],
    }
