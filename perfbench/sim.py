"""sim_matrix: the in-process simulator, closed loop, one matrix after another.

Each matrix is ``run_matrix(["adapted", "naive"], seed=s, packets=200)``:
all 16 NAT pairings in both modes.  Seeds are consecutive from one derived
from the workload seed.

The run is pure CPU in one thread, and a shared VM's speed drifts by up to
2x over minutes.  A fixed reference loop (the load generator's own SIP
message building and parsing, no sipnat code) is timed before every matrix
and drifts with the host; the gated figures are medians over the matrices,
scaled by the reference loop's median to the speed at which it takes
REFERENCE_LOOP_MS.  The detail line keeps the raw figures.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from loopback import build_message, sdp_body, sdp_target, split_message
from stats import rss_mb, summarize, timed_setups

MODES = ["adapted", "naive"]
PACKETS = 200
REFERENCE_LOOP_MS = 0.75  # about reference_loop()'s median on the 2-vCPU VM the bounds were set on
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from sipnat.harness import Scenario, build_simulation, default_script
from sipnat.nat import NatType
build_simulation(Scenario(NatType.SYMMETRIC, NatType.SYMMETRIC, default_script(200)))
"""


def setup_once(src: Path) -> None:
    """Fresh interpreter: import the simulator and build one scenario's world."""
    # Popen.wait(timeout=...) polls with sleeps of up to 50 ms, which would
    # round the time taken up to the next poll; a blocking wait does not.
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, str(src)])
    timer = threading.Timer(60, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code:
        raise subprocess.CalledProcessError(code, proc.args)


def reference_loop() -> float:
    """Build and parse 60 INVITEs with the load generator's SIP helpers;
    seconds taken.  Plain Python string and dict work, like the simulator's,
    so its speed follows the host's the same way."""
    start = time.perf_counter()
    for i in range(60):
        raw = build_message(
            f"INVITE sip:u{i}@trunk1.bench SIP/2.0",
            [
                ("Via", "SIP/2.0/TCP 127.0.0.1;branch=z9hG4bKref"),
                ("From", f"<sip:a{i}@trunk0.bench>;tag=a"),
                ("To", f"<sip:u{i}@trunk1.bench>"),
                ("Call-ID", f"ref{i}@bench"),
                ("CSeq", "1 INVITE"),
                ("Content-Type", "application/sdp"),
            ],
            sdp_body(f"a{i}", 4000 + i),
        )
        sdp_target(split_message(raw)[2])
    return time.perf_counter() - start


def check_matrix(summary: dict, failures: list[str]) -> tuple[int, int, list[str]]:
    """(scenarios, RTP packets sent, one problem per failing scenario)."""
    # run_matrix words each failure as "<mode> <pairing>: expected ..., got ...".
    problems = {failure.split(":", 1)[0]: failure for failure in failures}
    scenarios = packets = 0
    for mode, pairings in summary.items():
        for key, result in pairings.items():
            scenarios += 1
            for direction, stats in result["rtp"].items():
                packets += stats["sent"]
                if stats["payload_mismatches"]:
                    problems.setdefault(
                        f"{mode} {key}", f"{mode} {key} {direction}: {stats['payload_mismatches']} payload mismatches"
                    )
    return scenarios, packets, list(problems.values())


def sim_phase(seed: int, seconds: float) -> dict:
    from sipnat.harness import run_matrix

    scenarios = packets = matrices = 0
    problems: list[str] = []
    matrix_ms: list[float] = []
    matrix_cpu_ms: list[float] = []
    loop_ms: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        loop_ms.append(reference_loop() * 1e3)
        t, c = time.perf_counter(), time.process_time()
        summary, failures = run_matrix(MODES, seed=seed * 100_000 + matrices, packets=PACKETS)
        matrix_ms.append((time.perf_counter() - t) * 1e3)
        matrix_cpu_ms.append((time.process_time() - c) * 1e3)
        matrices += 1
        n, p, bad = check_matrix(summary, failures)
        scenarios += n
        packets += p
        problems.extend(bad)
    elapsed = time.perf_counter() - start
    per_matrix = scenarios / matrices
    speed = REFERENCE_LOOP_MS / statistics.median(loop_ms)  # below 1 on a slower host
    return {
        "host_speed": speed,
        "scenarios_per_s_median": per_matrix / statistics.median(matrix_ms) * 1e3,
        "scenarios_per_s_scaled": per_matrix / (statistics.median(matrix_ms) * speed) * 1e3,
        "cpu_us_per_scenario_scaled": statistics.median(matrix_cpu_ms) * speed * 1e3 / per_matrix,
        "matrices": matrices,
        "scenarios": scenarios,
        "packets": packets,
        "problems": problems,
        "scenarios_per_s": scenarios / elapsed,
        "matrix_ms": summarize(matrix_ms),
    }


def run_sim(src: Path, seed: int, seconds: float, setups: int) -> dict:
    setup = timed_setups(lambda: setup_once(src), setups)
    result = sim_phase(seed, seconds)
    result["rss_mb"] = rss_mb()
    result["setup_s"] = setup["setup_s"]
    return result


def trace_sim(seed: int, seconds: float, spans: Path) -> dict:
    """Untraced then traced halves; per-layer figures from the traced one."""
    from tracer import Tracer, instrument, layer_metrics

    plain = sim_phase(seed, seconds / 2)
    tracer = Tracer()
    instrument(tracer)
    try:
        traced = sim_phase(seed, seconds / 2)
    finally:
        tracer.restore()
    tracer.write(spans)
    layers = layer_metrics(tracer, packets=traced["packets"], messages=tracer.calls("proxy.handle_message"))
    # Each half is scaled by its own reference loop, so host drift between them cancels.
    layers["bench.trace_overhead_pct"] = (plain["scenarios_per_s_scaled"] / traced["scenarios_per_s_scaled"] - 1) * 100
    return {
        "layers": layers,
        "problems": plain["problems"] + traced["problems"],
        "attempted": plain["scenarios"] + traced["scenarios"],
    }
