"""The benchmark's own tests: helpers, tracer, and every workload at tiny length.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stats
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_summarize_reports_median_p99_and_supported_tail():
    values = [float(v) for v in range(1, 1001)]
    s = stats.summarize(values)
    assert s["n"] == 1000
    assert s["p50"] == 500.5
    assert s["p99"] == 990.0
    assert s["tail_pct"] == 99.0  # exactly ten samples lie beyond it


@pytest.mark.parametrize(
    "count, pct", [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (39, None)]
)
def test_tail_percentile_needs_ten_samples_beyond(count, pct):
    assert stats.tail_percentile(count) == pct


def test_summarize_without_supported_tail():
    s = stats.summarize([3.0, 1.0, 2.0])
    assert (s["n"], s["p50"], s["tail_pct"]) == (3, 2.0, None)
    assert stats.summarize([])["n"] == 0


def test_windowed_takes_median_across_windows():
    # Three windows of 1000; one has a slow tail that must not move the result.
    calm = [1.0] * 990 + [2.0] * 10
    hiccup = [1.0] * 980 + [50.0] * 20
    w = stats.windowed(calm + hiccup + calm, 3)
    assert (w["windows"], w["min_window_n"]) == (3, 1000)
    assert w["p99"] == 1.0 and w["p50"] == 1.0


def test_tracer_self_time_is_duration_minus_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap(leaf, "leaf", key_of=lambda a: "call-1")

    def outer():
        traced_leaf()
        time.sleep(0.005)

    tracer.wrap(outer, "outer")()
    count, total, own = tracer.totals["outer"]
    leaf_total = tracer.totals["leaf"][1]
    assert count == 1
    assert own == total - leaf_total
    assert own >= 4_000_000  # the 5 ms sleep outside the child
    records = {r[2]: r for r in tracer.records}
    assert records["leaf"][1] == records["outer"][0]  # parent link
    assert records["leaf"][5] == "call-1"


def test_tracer_restores_patched_functions():
    from sipnat import proxy, sip_message
    from tracer import instrument

    original = sip_message.parse_message
    tracer = Tracer()
    instrument(tracer)
    assert proxy.parse_message is not original
    tracer.restore()
    assert proxy.parse_message is original and sip_message.parse_message is original


def run_bench(workload: str, trace: int, seconds: float = 1.0) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_its_checks_at_tiny_length(workload, trace):
    code, lines = run_bench(workload, trace)
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_matrix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
