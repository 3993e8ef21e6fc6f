"""sipnat benchmark: one workload per run, results as one JSON line.

    python3 perfbench/run.py --workload sim_matrix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures with tracing off and reports the end-to-end metrics
named in BENCHMARK.json; ``--trace 1`` runs an untraced half and a traced
half and reports the per-layer metrics, including the tracing overhead.
The last line of standard output is always

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it give the same run in more detail ("detail" and "env").
``--workload all`` runs every workload in turn and reports the metrics by
their per-workload names (sim_*, churn_*, relay_*).  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sim_matrix", "loopback_churn", "loopback_media")
SETUPS = 9  # set-up is repeated this often per run and its median reported

# Per-workload names of the end-to-end figures, with their units.
DETAIL_UNITS = {
    "setup_s": "s",
    "rss_mb": "MB",
    "fail_ratio": "ratio",
    "sim_scenarios_per_s": "1/s",
    "sim_packets_per_s": "1/s",
    "churn_calls_per_s": "1/s",
    "churn_setup_p50_ms": "ms",
    "churn_setup_p99_ms": "ms",
    "churn_call_p50_ms": "ms",
    "churn_call_p99_ms": "ms",
    "relay_zero_loss_pps": "1/s",
    "relay_latency_p50_us": "us",
    "relay_latency_p99_us": "us",
    "relay_cpu_us_per_pkt": "us",
}


def environment(workload: str) -> dict:
    return {
        "python": platform.python_version(),
        "cores": len(os.sched_getaffinity(0)),
        "network": "loopback" if workload.startswith("loopback") else "none (in-process simulator)",
    }


def _timing(prefix: str, unit: str, summary: dict) -> dict:
    return {
        f"{prefix}_p50_{unit}": summary["p50"],
        f"{prefix}_p99_{unit}": summary["p99"],
        f"{prefix}_n": summary["n"],
        f"{prefix}_tail_supported_pct": summary["tail_pct"],
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: per-workload detail plus the shared end-to-end set."""
    if workload == "sim_matrix":
        from sim import run_sim

        r = run_sim(SRC, seed, seconds, SETUPS)
        detail = {
            "sim_scenarios_per_s": r["scenarios_per_s_scaled"],
            "sim_packets_per_s": r["scenarios_per_s_scaled"] * r["packets"] / r["scenarios"],
            "sim_host_speed": r["host_speed"],
            "sim_scenarios_per_s_raw": r["scenarios_per_s_median"],
            "sim_scenarios_per_s_overall": r["scenarios_per_s"],
            **_timing("sim_matrix", "ms", r["matrix_ms"]),
            "sim_matrices": r["matrices"],
        }
        throughput, cpu = r["scenarios_per_s_scaled"], r["cpu_us_per_scenario_scaled"]
        attempted, failed, problems = r["scenarios"], len(r["problems"]), r["problems"]
    elif workload == "loopback_churn":
        from loopback import run_churn

        r = run_churn(SRC, seed, seconds, SETUPS)
        detail = {
            "churn_calls_per_s": r["calls_per_s_windowed"],
            "churn_calls_per_s_overall": r["calls_per_s"],
            **_timing("churn_setup", "ms", r["setup_ms"]),
            **_timing("churn_call", "ms", r["call_ms"]),
            "churn_failures": r["failures"],
        }
        throughput = r["calls_per_s_windowed"]
        cpu = r["child_cpu_s"] * 1e6 / max(1, r["completed"])
        attempted, failed, problems = r["attempted"], r["failed"], []
    else:
        from loopback import run_media

        r = run_media(SRC, seed, seconds, SETUPS)
        ref = r["reference"]
        detail = {
            "relay_zero_loss_pps": r["zero_loss_pps"],
            **_timing("relay_latency", "us", ref["latency_us"]),
            # The sender's own lateness is the harness's, not the relay's.
            **_timing("relay_latency_from_send", "us", ref["relay_latency_us"]),
            "relay_cpu_us_per_pkt": r["cpu_us_per_pkt"],
            "relay_offered_pps": ref["sent"] / ref["elapsed_s"],
            "relay_lost": ref["lost"],
            "relay_gen_late_p99_ms": ref["late_p99_ms"],
            "relay_search": r["search"],
        }
        throughput = r["delivered_pps"]
        cpu = r["cpu_us_per_pkt"]
        attempted, failed, problems = r["attempted"], r["failed"], []
    setup_s = r["setup_s"]
    detail.update({"setup_s": setup_s, "rss_mb": r["rss_mb"], "fail_ratio": failed / max(1, attempted)})
    return {
        "detail": detail,
        "end_to_end": {
            "setup_s": setup_s,
            "rss_mb": r["rss_mb"],
            "throughput_per_s": throughput,
            "cpu_us_per_op": cpu,
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Untraced half, then traced half; spans go to perfbench/out/."""
    spans = OUT / f"spans_{workload}.jsonl"
    if workload == "sim_matrix":
        from sim import trace_sim

        r = trace_sim(seed, seconds, spans)
        return {"layers": r["layers"], "attempted": r["attempted"], "failed": len(r["problems"]),
                "problems": r["problems"]}
    from loopback import trace_churn, trace_media

    r = (trace_churn if workload == "loopback_churn" else trace_media)(SRC, seed, seconds, spans)
    return {"layers": r["layers"], "attempted": r["attempted"], "failed": r["failed"], "problems": []}


def run_one(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    """Measure one workload; returns the result line's fields plus detail."""
    from loopback import BenchFailure

    try:
        r = trace(workload, seed, seconds) if traced else measure(workload, seed, seconds)
    except BenchFailure as exc:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "problems": [str(exc)], "detail": {}}
    if traced:
        values, listed = r["layers"], spec["per_layer"]
    else:
        values, listed = r["end_to_end"], spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in listed}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    return {
        "correct": not r["problems"],
        "attempted": max(1, r["attempted"]),
        "failed": r["failed"],
        "metrics": metrics,
        "problems": r["problems"],
        "detail": r.get("detail", {}),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sipnat" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no sipnat sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result = run_one(workload, args.seed, args.seconds, bool(args.trace), spec)
        results[workload] = result
        print(json.dumps({"workload": workload, "env": environment(workload), "detail": result["detail"],
                          "problems": result["problems"]}))

    if args.workload == "all":
        metrics = {}
        for workload, result in results.items():
            if args.trace:
                metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
                continue
            for name, value in result["detail"].items():
                if name in DETAIL_UNITS:
                    shared = name in ("setup_s", "rss_mb", "fail_ratio")
                    metrics[f"{workload}.{name}" if shared else name] = {"value": value, "unit": DETAIL_UNITS[name]}
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics,
        }
    else:
        result = results[args.workload]
        line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
