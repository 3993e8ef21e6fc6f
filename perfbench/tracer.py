"""Span tracing wrapped around sipnat's public entry points, from outside.

``instrument()`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, Call-ID or relay port)
and counts outcomes at the same boundary.  Nothing under ``src/`` changes:
module-level functions are rebound in every ``sipnat`` module that imported
them, methods are rebound on their class, and ``restore()`` undoes both.

A span's self time is its duration minus the time its child spans cover.
Spans are kept in memory (the first ``keep`` of them verbatim, every one in
the per-name totals) and written out as JSON lines by ``write()``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span frame slots: [span id, name, key, child ns, parent frame, thread CPU ns at start]
_ID, _NAME, _KEY, _CHILD, _PARENT, _CPU = range(6)

# Spans whose Call-ID is only known once the message inside them is parsed.
_KEYED_BY_PARSE = frozenset({"proxy.handle_message", "proxy.delivery_failed"})

ERROR_STATUSES = (400, 404, 481, 500, 503)
DROP_REASONS = ("unknown_port", "source_mismatch")


class Tracer:
    """In-memory span recorder for one single-threaded event loop."""

    def __init__(self, keep: int = 100_000, key_totals_for: tuple[str, ...] = ()):
        self.keep = keep
        self.records: list[tuple] = []
        self.not_kept = 0
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # count, ns, self ns
        self.counts: Counter = Counter()
        self.gauge_max: dict[str, float] = {}
        self.gauge_min: dict[str, float] = {}
        self.key_totals_for = frozenset(key_totals_for)
        self.key_totals: dict[object, list[int]] = defaultdict(lambda: [0, 0])  # ns, self ns
        # Thread CPU inside outermost spans: unlike their wall time, it stays
        # comparable with the process's CPU when the thread is preempted.
        self.root_cpu_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, key_of=None, on_result=None):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, name, key_of(args) if key_of else None, 0, parent, 0]
            if parent is None:
                frame[_CPU] = time.thread_time_ns()
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                self._close(frame, start, end)
                raise
            end = clock()
            stack.pop()
            if on_result is not None:
                on_result(frame, args, result)
            self._close(frame, start, end)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: list, start: int, end: int) -> None:
        duration = end - start
        parent = frame[_PARENT]
        if parent is not None:
            parent[_CHILD] += duration
            if frame[_KEY] is None:
                frame[_KEY] = parent[_KEY]
        else:
            self.root_cpu_ns[frame[_NAME]] += time.thread_time_ns() - frame[_CPU]
        name = frame[_NAME]
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[_CHILD]
        if name in self.key_totals_for and frame[_KEY] is not None:
            per_key = self.key_totals[frame[_KEY]]
            per_key[0] += duration
            per_key[1] += duration - frame[_CHILD]
        if len(self.records) < self.keep:
            self.records.append(
                (frame[_ID], parent[_ID] if parent else 0, name, start, end, frame[_KEY])
            )
        else:
            self.not_kept += 1

    def set_parse_key(self, frame: list, call_id: str) -> None:
        frame[_KEY] = call_id
        parent = frame[_PARENT]
        if parent is not None and parent[_KEY] is None and parent[_NAME] in _KEYED_BY_PARSE:
            parent[_KEY] = call_id

    def gauge(self, name: str, value: float) -> None:
        if value > self.gauge_max.get(name, -1):
            self.gauge_max[name] = value
        if value < self.gauge_min.get(name, float("inf")):
            self.gauge_min[name] = value

    # -- patching ------------------------------------------------------------

    def patch_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def patch_function(self, module, attr: str, replacement) -> None:
        """Rebind a module-level function everywhere sipnat imported it."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "sipnat" and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, replacement)

    def trace_function(self, module, attr: str, name: str, **kw) -> None:
        self.patch_function(module, attr, self.wrap(getattr(module, attr), name, **kw))

    def trace_method(self, cls, attr: str, name: str, **kw) -> None:
        self.patch_method(cls, attr, self.wrap(cls.__dict__[attr], name, **kw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def mean_us(self, name: str, self_time: bool = False) -> float:
        count, total, self_ns = self.totals.get(name, (0, 0, 0))
        if not count:
            return 0.0
        return (self_ns if self_time else total) / count / 1000.0

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0,))[0]

    def write(self, path: Path) -> None:
        """Write every kept span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"spans_kept": len(self.records), "spans_not_kept": self.not_kept}) + "\n")
            for span_id, parent_id, name, start, end, key in self.records:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start_us": start / 1000.0,
                            "end_us": end / 1000.0,
                            "key": key,
                        }
                    )
                    + "\n"
                )


def instrument(tracer: Tracer) -> None:
    """Wrap each sipnat layer's public entry points with ``tracer``."""
    from sipnat import connection_manager, harness, media_controller, nat, net, proxy, rtp, sdp, simnet
    from sipnat import sip_message

    t = tracer
    counts = t.counts

    def parse_done(frame, args, msg):
        t.set_parse_key(frame, msg.call_id)

    t.trace_function(sip_message, "parse_message", "sip_message.parse", on_result=parse_done)
    t.trace_function(
        sip_message, "serialize_message", "sip_message.serialize", key_of=lambda a: a[0].call_id
    )
    t.trace_method(sip_message.MessageFramer, "feed", "sip_message.framer_feed")

    t.trace_function(sdp, "parse_sdp", "sdp.parse")
    t.trace_function(sdp, "rewrite_media", "sdp.rewrite")
    t.trace_function(sdp, "serialize_sdp", "sdp.serialize")

    t.trace_function(rtp, "parse_rtp", "rtp.parse")
    t.trace_function(rtp, "build_rtp", "rtp.build")

    post_init = net.TransportAddress.__dict__["__post_init__"]

    def counted_post_init(self):
        counts["net.addresses_built"] += 1
        post_init(self)

    t.patch_method(net.TransportAddress, "__post_init__", counted_post_init)

    def registered(frame, args, registration):
        t.gauge("connection_manager.live_registrations", len(args[0].live_aors()))

    t.trace_method(
        connection_manager.ConnectionManager,
        "register",
        "connection_manager.register",
        key_of=lambda a: a[2].call_id,
        on_result=registered,
    )
    t.trace_method(connection_manager.ConnectionManager, "route_to", "connection_manager.route_to")

    def pool_gauge(frame, args, result):
        pool = args[0].pool
        lo, hi = pool.range
        pairs = len(range(lo if lo % 2 == 0 else lo + 1, hi, 2))
        t.gauge("media_controller.pool_free", pairs - pool.allocated_count // 2)

    def relay_decided(frame, args, decision):
        counts[f"media_controller.{decision.action}"] += 1
        if decision.reason:
            counts[f"media_controller.drop.{decision.reason}"] += 1

    mc = media_controller.MediaController
    t.trace_method(
        mc, "allocate_session", "media_controller.allocate", key_of=lambda a: a[1], on_result=pool_gauge
    )
    t.trace_method(
        mc, "release_session", "media_controller.release", key_of=lambda a: a[1], on_result=pool_gauge
    )
    t.trace_method(
        mc, "on_media_packet", "media_controller.on_media_packet",
        key_of=lambda a: a[1], on_result=relay_decided,
    )

    def calls_gauge(frame, args, result):
        t.gauge("proxy.calls_held", len(args[0].calls))

    sp = proxy.SipProxy
    t.trace_method(sp, "handle_message", "proxy.handle_message", on_result=calls_gauge)
    t.trace_method(sp, "handle_media", "proxy.handle_media", key_of=lambda a: a[1])
    t.trace_method(sp, "delivery_failed", "proxy.delivery_failed")
    t.trace_method(sp, "tick", "proxy.tick", on_result=calls_gauge)

    set_hook = sp.__dict__["set_event_hook"]

    def counting_set_hook(self, hook):
        def counted(event, detail):
            if event == "error_response":
                counts[f"proxy.error_responses.{detail.split(' ', 1)[0]}"] += 1
            elif event == "bad_answer":
                counts["proxy.error_responses.500"] += 1
            hook(event, detail)

        set_hook(self, counted)

    t.patch_method(sp, "set_event_hook", counting_set_hook)

    def nat_out(frame, args, external):
        t.gauge("nat.bindings", len(args[0].bindings))

    def nat_in(frame, args, internal):
        if internal is None:
            counts["nat.blocked"] += 1

    t.trace_method(nat.NatBox, "outbound", "nat.outbound", on_result=nat_out)
    t.trace_method(nat.NatBox, "inbound", "nat.inbound", on_result=nat_in)

    schedule_at = simnet.SimNetwork.__dict__["schedule_at"]
    pending = [0]

    def counted_schedule_at(self, when, fn):
        def run_event():
            pending[0] -= 1
            fn()

        counts["simnet.events"] += 1
        pending[0] += 1
        t.gauge("simnet.queue", pending[0])
        schedule_at(self, when, run_event)

    t.patch_method(simnet.SimNetwork, "schedule_at", counted_schedule_at)
    t.trace_method(simnet.SimNetwork, "run", "simnet.run")

    def scenario_done(frame, args, report):
        counts["simnet.log_entries"] += len(report.events)
        counts["harness.scenarios"] += 1
        counts["harness.rtp_sent"] += sum(d.sent for d in report.rtp.values())

    t.trace_function(harness, "run_scenario", "harness.run_scenario", on_result=scenario_done)


def layer_metrics(t: Tracer, packets: int, messages: int) -> dict[str, float]:
    """Per-layer figures from one traced run.

    ``packets`` is the number of RTP packets the run moved (simulated client
    sends, or datagrams the relay received) and ``messages`` the number of
    SIP messages the proxy handled; per-packet ratios use whichever the
    workload has.
    """
    c = t.counts
    received = c["media_controller.forward"] + c["media_controller.buffer"] + c["media_controller.drop"]
    scenarios = c["harness.scenarios"]
    events = c["simnet.events"]
    per_unit = packets or messages
    out = {
        "sip_message.parse_us": t.mean_us("sip_message.parse"),
        "sip_message.serialize_us": t.mean_us("sip_message.serialize"),
        "sip_message.framer_feed_us": t.mean_us("sip_message.framer_feed"),
        "sip_message.parse_calls": t.calls("sip_message.parse"),
        "sdp.parse_us": t.mean_us("sdp.parse"),
        "sdp.rewrite_us": t.mean_us("sdp.rewrite"),
        "sdp.serialize_us": t.mean_us("sdp.serialize"),
        "rtp.parse_us": t.mean_us("rtp.parse"),
        "rtp.build_us": t.mean_us("rtp.build"),
        "net.addresses_built_per_pkt": c["net.addresses_built"] / per_unit if per_unit else 0.0,
        "connection_manager.register_us": t.mean_us("connection_manager.register"),
        "connection_manager.route_to_us": t.mean_us("connection_manager.route_to"),
        "connection_manager.live_registrations": t.gauge_max.get("connection_manager.live_registrations", 0),
        "media_controller.on_media_packet_us": t.mean_us("media_controller.on_media_packet"),
        "media_controller.allocate_us": t.mean_us("media_controller.allocate"),
        "media_controller.release_us": t.mean_us("media_controller.release"),
        "media_controller.forward": c["media_controller.forward"],
        "media_controller.buffer": c["media_controller.buffer"],
        "media_controller.drop": c["media_controller.drop"],
        "media_controller.forward_ratio": c["media_controller.forward"] / received if received else 0.0,
        "media_controller.pool_free_min": t.gauge_min.get("media_controller.pool_free", 0),
        "proxy.handle_message_self_us": t.mean_us("proxy.handle_message", self_time=True),
        "proxy.handle_media_self_us": t.mean_us("proxy.handle_media", self_time=True),
        "proxy.tick_us": t.mean_us("proxy.tick"),
        "proxy.calls_held": t.gauge_max.get("proxy.calls_held", 0),
        "proxy.error_responses": sum(c[f"proxy.error_responses.{s}"] for s in ERROR_STATUSES),
        "nat.outbound_us": t.mean_us("nat.outbound"),
        "nat.inbound_us": t.mean_us("nat.inbound"),
        "nat.blocked": c["nat.blocked"],
        "nat.bindings_max": t.gauge_max.get("nat.bindings", 0),
        "simnet.events": events / scenarios if scenarios else 0.0,
        "simnet.run_self_us_per_event": (
            t.totals["simnet.run"][2] / 1000.0 / events if events else 0.0
        ),
        "simnet.queue_max": t.gauge_max.get("simnet.queue", 0),
        "simnet.log_entries": c["simnet.log_entries"] / scenarios if scenarios else 0.0,
        "harness.run_scenario_self_us": t.mean_us("harness.run_scenario", self_time=True),
    }
    for reason in DROP_REASONS:
        out[f"media_controller.drop.{reason}"] = c[f"media_controller.drop.{reason}"]
    for status in ERROR_STATUSES:
        out[f"proxy.error_responses.{status}"] = c[f"proxy.error_responses.{status}"]
    return out
