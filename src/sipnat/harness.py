"""Scenario runner: scripted calls through simulated NATs, with reports.

Modes:

    adapted   persistent-TCP signaling, relay ports injected into every
              session description, media forwarded by the proxy
    naive     signaling identical, but bodies are forwarded untouched, so
              clients send media straight to each other's declared
              (private) addresses
    baseline  adapted behavior plus synthetic accounting of the two
              relay-allocation transactions per client that a standalone
              relay-allocation protocol would have required

Reports are plain JSON and byte-stable for a fixed (scenario, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property

from .nat import TCP, UDP, NatBox, NatConfig, NatType
from .proxy import ProxyConfig, SipProxy
from .simnet import DirectionStats, LogEntry, SimClient, SimNetwork

MODE_ADAPTED = "adapted"
MODE_NAIVE = "naive"
MODE_BASELINE = "baseline"
MODES = (MODE_ADAPTED, MODE_NAIVE, MODE_BASELINE)

PROXY_IP = "200.1.1.1"
# Each client's row: (label, NAT public IP, NAT's lowest port, user, domain,
# private IP, RTP port).  Client and NAT are named client_<label>, nat_<label>.
CLIENT_A = ("a", "68.92.25.44", 4325, "ClientA", "local1.com", "192.168.1.11", 49570)
CLIENT_B = ("b", "77.224.10.9", 6000, "ClientB", "local2.com", "10.0.0.4", 6580)

ALLOCATIONS_PER_CLIENT = 2  # one for signaling, one for media reception


class Outcome(str, Enum):
    MEDIA_OK = "media_ok"
    MEDIA_BLOCKED = "media_blocked"
    SIGNALING_BLOCKED = "signaling_blocked"


class InvalidScenario(Exception):
    pass


class ScriptMismatch(Exception):
    pass


SCRIPT_EVENTS = ("register", "idle", "call", "talk", "hangup")
MAX_TALK_PACKETS = 65_536  # one RTP sequence number (16 bits) per packet
MAX_STEP_SECONDS = 86_400.0  # an idle or a talk lasts at most a day: the clock sweeps every second
MAX_EXTRA_CLIENTS = 255  # each sits behind its own NAT at 99.0.0.{1..255}


def _is_number(value: object) -> bool:
    """An int or a float; a bool is an int subclass but not a number here."""
    return type(value) in (int, float)


def _is_finite_positive(value: object) -> bool:
    return _is_number(value) and math.isfinite(value) and value > 0


@dataclass
class ScriptEvent:
    """One scripted step: register | idle | call | talk | hangup.

    Every field is checked on construction, however the event was made, so
    a script that runs is one the simulator can finish.
    """

    kind: str
    seconds: float = 0.0  # idle
    packets: int = 0  # talk
    interval: float = 0.02  # talk, seconds between packets
    caller: str = "a"  # call/hangup: which client acts

    def __post_init__(self) -> None:
        if self.kind not in SCRIPT_EVENTS:
            raise InvalidScenario(f"unknown script event: {self.kind!r}")
        if not _is_number(self.seconds) or not 0 <= self.seconds <= MAX_STEP_SECONDS:
            raise InvalidScenario(
                f"idle needs 'seconds' in 0..{MAX_STEP_SECONDS:g}, got {self.seconds!r}"
            )
        if type(self.packets) is not int or not 0 <= self.packets <= MAX_TALK_PACKETS:
            raise InvalidScenario(
                f"talk needs integer 'packets' in 0..{MAX_TALK_PACKETS}, got {self.packets!r}"
            )
        if not _is_finite_positive(self.interval):
            raise InvalidScenario(f"talk needs a finite positive interval, got {self.interval!r} s")
        if self.packets * self.interval > MAX_STEP_SECONDS:
            raise InvalidScenario(f"talk lasts more than {MAX_STEP_SECONDS:g} s")
        if self.caller not in ("a", "b"):
            raise InvalidScenario(f"{self.kind} 'caller' must be 'a' or 'b', got {self.caller!r}")
        self.seconds = float(self.seconds)
        self.interval = float(self.interval)

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptEvent":
        if not isinstance(data, dict) or "event" not in data:
            raise InvalidScenario(f"script entry must be an object with 'event': {data!r}")
        rest = dict(data)  # each key read is taken out; one left over is a typo
        kind = rest.pop("event")
        fields: dict = {}
        if kind == "idle":
            fields["seconds"] = rest.pop("seconds", None)
        elif kind == "talk":
            interval_ms = rest.pop("interval_ms", 20)
            fields["packets"] = rest.pop("packets", 50)
            # Only a number converts to seconds; anything else reaches the check as it is.
            fields["interval"] = interval_ms / 1000.0 if _is_number(interval_ms) else interval_ms
        elif kind in ("call", "hangup"):
            fields["caller"] = str(rest.pop("caller", "a")).lower()
        if rest:
            raise InvalidScenario(f"unknown key in a {kind!r} step: {next(iter(rest))!r}")
        return cls(kind, **fields)

    def to_dict(self) -> dict:
        if self.kind == "idle":
            return {"event": "idle", "seconds": self.seconds}
        if self.kind == "talk":
            return {"event": "talk", "packets": self.packets, "interval_ms": self.interval * 1000.0}
        if self.kind in ("call", "hangup"):
            return {"event": self.kind, "caller": self.caller}
        return {"event": self.kind}


def default_script(packets: int = 50) -> list[ScriptEvent]:
    return [
        ScriptEvent("register"),
        ScriptEvent("call", caller="a"),
        ScriptEvent("talk", packets=packets, interval=0.02),
        ScriptEvent("hangup", caller="a"),
    ]


_NAT_TYPE_NAMES = {t.value: t for t in NatType}


@dataclass
class Scenario:
    """Two clients behind two NATs plus the script they follow."""

    nat_a: NatType
    nat_b: NatType
    script: list[ScriptEvent]
    seed: int = 0
    mode: str = MODE_ADAPTED
    signaling: str = TCP
    udp_binding_ttl: float = 60.0
    tcp_idle_ttl: float | None = None
    extra_clients: int = 0
    expect: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidScenario(f"unknown mode: {self.mode!r}")
        if self.signaling not in (TCP, UDP):
            raise InvalidScenario(f"unknown signaling transport: {self.signaling!r}")
        for name in ("seed", "extra_clients"):
            if type(getattr(self, name)) is not int:  # bool is an int subclass
                raise InvalidScenario(f"{name} must be an integer")
        if not 0 <= self.extra_clients <= MAX_EXTRA_CLIENTS:
            raise InvalidScenario(f"extra_clients must be in 0..{MAX_EXTRA_CLIENTS}")
        if not _is_finite_positive(self.udp_binding_ttl):
            raise InvalidScenario("udp_binding_ttl must be a finite positive number")
        if self.tcp_idle_ttl is not None and not _is_finite_positive(self.tcp_idle_ttl):
            raise InvalidScenario("tcp_idle_ttl must be a finite positive number or null")
        # A list, not a set: membership must not hash an unhashable ``expect``.
        if self.expect is not None and self.expect not in [o.value for o in Outcome]:
            raise InvalidScenario(f"unknown expected outcome: {self.expect!r}")
        self.udp_binding_ttl = float(self.udp_binding_ttl)
        if self.tcp_idle_ttl is not None:
            self.tcp_idle_ttl = float(self.tcp_idle_ttl)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        unknown = [key for key in data if key not in cls.__dataclass_fields__]
        if unknown:
            raise InvalidScenario(f"unknown key in the scenario: {unknown[0]!r}")
        try:
            nat_a = _NAT_TYPE_NAMES[data["nat_a"]]
            nat_b = _NAT_TYPE_NAMES[data["nat_b"]]
        except (KeyError, TypeError) as exc:  # TypeError: an unhashable value
            raise InvalidScenario(f"nat_a/nat_b must be one of {sorted(_NAT_TYPE_NAMES)}") from exc
        script_data = data.get("script")
        if not isinstance(script_data, list) or not script_data:
            raise InvalidScenario("scenario needs a non-empty 'script' array")
        # Every key is a field by now, and a key left out takes the field's default.
        script = [ScriptEvent.from_dict(e) for e in script_data]
        return cls(**{**data, "nat_a": nat_a, "nat_b": nat_b, "script": script})

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidScenario(f"scenario file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidScenario("scenario file must contain a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        data = {
            "nat_a": self.nat_a.value,
            "nat_b": self.nat_b.value,
            "seed": self.seed,
            "mode": self.mode,
            "signaling": self.signaling,
            "udp_binding_ttl": self.udp_binding_ttl,
            "tcp_idle_ttl": self.tcp_idle_ttl,
            "extra_clients": self.extra_clients,
            "script": [e.to_dict() for e in self.script],
        }
        if self.expect is not None:
            data["expect"] = self.expect
        return data

    def script_digest(self) -> str:
        """Fingerprint of everything but mode/seed/expect, for cross-mode comparison."""
        import hashlib  # loads OpenSSL, so only a process that needs a digest pays for it

        payload = {k: v for k, v in self.to_dict().items() if k not in ("mode", "seed", "expect")}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class Report:
    """Machine-readable outcome of one scenario run.

    It holds the scenario object it ran and reads its mode, seed and script
    digest from it (the digest once, on first read), so it describes that
    object: to run a variant, derive a new scenario with
    ``dataclasses.replace`` rather than changing this one.
    """

    scenario: Scenario
    outcome: Outcome
    rtp: dict[str, DirectionStats]
    rtcp: dict[str, DirectionStats]
    sip_messages: int
    allocation_transactions: int
    clients: int
    log: list[LogEntry]

    @property
    def mode(self) -> str:
        return self.scenario.mode

    @property
    def seed(self) -> int:
        return self.scenario.seed

    @cached_property
    def script_digest(self) -> str:
        """Computed on first read: a run that needs only the counts never hashes."""
        return self.scenario.script_digest()

    @cached_property
    def events(self) -> list[dict]:
        """The log as JSON objects, built on first read: most runs never read it."""
        return [
            {"time": round(e.time, 6), "actor": e.actor, "event": e.event, "detail": e.detail}
            for e in self.log
        ]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "script_digest": self.script_digest,
            "outcome": self.outcome.value,
            "rtp": {k: asdict(v) for k, v in self.rtp.items()},
            "rtcp": {k: asdict(v) for k, v in self.rtcp.items()},
            "sip_messages": self.sip_messages,
            "allocation_transactions": self.allocation_transactions,
            "clients": self.clients,
            "events": self.events,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class SimContext:
    """Everything a scenario run builds; kept for white-box assertions.
    ``clients`` holds a, b, then the extras, each behind its own ``nat``."""

    net: SimNetwork
    proxy: SipProxy
    client_a: SimClient
    client_b: SimClient
    clients: list[SimClient]


def build_simulation(scenario: Scenario) -> SimContext:
    proxy = SipProxy(
        ProxyConfig(
            public_ip=PROXY_IP,
            media_port_range=(40000, 40099),
            media_relay=scenario.mode != MODE_NAIVE,
        )
    )
    net = SimNetwork(proxy, sip_transport=scenario.signaling)
    # a and b behind the scenario's NATs, then each extra behind a full cone.
    rows = [(scenario.nat_a, *CLIENT_A), (scenario.nat_b, *CLIENT_B)]
    for i in range(1, scenario.extra_clients + 1):
        rows.append(
            (
                NatType.FULL_CONE,
                f"x{i}",
                f"99.0.0.{i}",
                20000,
                f"Client{i + 2}",
                f"local{i + 2}.com",
                f"172.16.0.{i}",
                50000,
            )
        )
    clients = []
    for index, row in enumerate(rows):
        nat_type, label, public_ip, lo, user, domain, private_ip, rtp_port = row
        nat_config = NatConfig(
            nat_type=nat_type,
            public_ip=public_ip,
            udp_binding_ttl=scenario.udp_binding_ttl,
            tcp_idle_ttl=scenario.tcp_idle_ttl,
            port_range=(lo, lo + 999),
        )
        nat = NatBox(nat_config, seed=scenario.seed + index)
        clients.append(SimClient(net, label, user, domain, nat, private_ip, rtp_port))
    client_a, client_b = clients[:2]
    client_a.hear(client_b)
    client_b.hear(client_a)
    return SimContext(net, proxy, client_a, client_b, clients)


def execute_script(ctx: SimContext, scenario: Scenario) -> None:
    """Run the script sequentially, draining the event queue between steps."""
    net = ctx.net
    for event in scenario.script:
        if event.kind == "register":
            for client in ctx.clients:
                client.register()
            net.run()
        elif event.kind == "idle":
            net.run(net.now + event.seconds)
        elif event.kind == "call":
            caller, callee = (
                (ctx.client_a, ctx.client_b) if event.caller == "a" else (ctx.client_b, ctx.client_a)
            )
            caller.invite(callee)
            net.run()
        elif event.kind == "talk":
            # Each step runs once everything due before it has, and before
            # anything already queued for its own time, as if it had been
            # queued when the talk began; so the queue holds only datagrams
            # in flight.  Both RTCP reports follow every send due at the time
            # of the middle one.
            a, b = ctx.client_a, ctx.client_b
            start, interval = net.now, event.interval
            mid = start + (event.packets // 2) * interval
            rtcp_due = event.packets > 0
            for k in range(event.packets):
                when = start + k * interval
                if rtcp_due and when > mid:
                    a.send_rtcp()
                    b.send_rtcp()
                    rtcp_due = False
                net.run(when)
                a.send_rtp(k)
                b.send_rtp(k)
            if rtcp_due:
                a.send_rtcp()
                b.send_rtcp()
            net.run()
        elif event.kind == "hangup":
            actor = ctx.client_a if event.caller == "a" else ctx.client_b
            actor.hangup()
            net.run()


def run_scenario(scenario: Scenario) -> Report:
    """Execute one scenario deterministically and summarize it."""
    ctx = build_simulation(scenario)
    execute_script(ctx, scenario)
    net = ctx.net
    rtp = {"a_to_b": ctx.client_a.rtp_out, "b_to_a": ctx.client_b.rtp_out}
    rtcp = {"a_to_b": ctx.client_a.rtcp_out, "b_to_a": ctx.client_b.rtcp_out}
    clients = ctx.clients

    # Both ends must have seen the call complete (caller: 200, callee: ACK).
    established = ctx.client_a.ever_established and ctx.client_b.ever_established
    if not established:
        outcome = Outcome.SIGNALING_BLOCKED
    else:
        media_ok = all(
            s.delivered == s.sent and s.payload_mismatches == 0 for s in rtp.values()
        )
        outcome = Outcome.MEDIA_OK if media_ok else Outcome.MEDIA_BLOCKED

    allocation_transactions = (
        ALLOCATIONS_PER_CLIENT * len(clients) if scenario.mode == MODE_BASELINE else 0
    )
    if scenario.mode == MODE_BASELINE:
        for client in clients:
            net.log(
                "accounting",
                "baseline_allocations_assumed",
                f"{client.name}: {ALLOCATIONS_PER_CLIENT} transactions",
            )

    net.close()
    return Report(
        scenario=scenario,
        outcome=outcome,
        rtp=rtp,
        rtcp=rtcp,
        sip_messages=sum(c.sip_messages for c in clients),
        allocation_transactions=allocation_transactions,
        clients=len(clients),
        log=net.events,
    )


def count_savings(adapted: Report, baseline: Report) -> int:
    """Allocation transactions eliminated relative to the baseline accounting."""
    if adapted.script_digest != baseline.script_digest:
        raise ScriptMismatch("reports were produced from different scripts")
    return baseline.allocation_transactions - adapted.allocation_transactions


def matrix_expected_outcome(nat_a: NatType, nat_b: NatType, mode: str) -> Outcome | None:
    """Outcome asserted by the pairing matrix, or None when only recorded."""
    if mode in (MODE_ADAPTED, MODE_BASELINE):
        return Outcome.MEDIA_OK
    restrictive = (NatType.SYMMETRIC, NatType.PORT_RESTRICTED_CONE)
    if nat_a in restrictive and nat_b in restrictive:
        return Outcome.MEDIA_BLOCKED
    return None


def run_matrix(
    modes: list[str], seed: int = 0, packets: int = 50
) -> tuple[dict, list[str]]:
    """Run every NAT pairing in each mode; returns (summary, assertion failures)."""
    if type(packets) is not int or packets < 1:  # a silent talk is media_ok, naive or not
        raise InvalidScenario(f"matrix talks need integer 'packets' of at least 1, got {packets!r}")
    if not modes or len(set(modes)) < len(modes):  # the summary keeps one entry per mode
        raise InvalidScenario(f"matrix needs one or more distinct modes, got {modes!r}")
    for mode in modes:
        if mode not in MODES:
            raise InvalidScenario(f"unknown mode: {mode!r}")
    summary: dict = {}
    failures: list[str] = []
    for mode in modes:
        mode_summary = {}
        for nat_a in NatType:
            for nat_b in NatType:
                scenario = Scenario(
                    nat_a=nat_a,
                    nat_b=nat_b,
                    script=default_script(packets),
                    seed=seed,
                    mode=mode,
                )
                report = run_scenario(scenario)
                key = f"{nat_a.value}+{nat_b.value}"
                mode_summary[key] = {
                    "outcome": report.outcome.value,
                    "rtp": {k: asdict(v) for k, v in report.rtp.items()},
                    "sip_messages": report.sip_messages,
                    "allocation_transactions": report.allocation_transactions,
                }
                expected = matrix_expected_outcome(nat_a, nat_b, mode)
                if expected is not None and report.outcome is not expected:
                    failures.append(
                        f"{mode} {key}: expected {expected.value}, got {report.outcome.value}"
                    )
        summary[mode] = mode_summary
    return summary, failures
