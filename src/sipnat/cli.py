"""Command line front end for the scenario simulator.

    sipnat run --scenario call.json --mode adapted --seed 1 --report out.json
    sipnat matrix --modes adapted,naive --report matrix.json

Exit code 0 only when every asserted outcome holds, 1 when one fails, and 2
when an input cannot be read or is invalid, or the report cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    MODES,
    InvalidScenario,
    Scenario,
    run_matrix,
    run_scenario,
)


def _write_report(path: str, text: str) -> bool:
    """Write ``text`` and a newline to ``path``; False, with an error printed, if it cannot."""
    try:
        Path(path).write_text(text + "\n")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = Scenario.from_json(Path(args.scenario).read_text())
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except InvalidScenario as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 2
    if args.mode:
        scenario = replace(scenario, mode=args.mode)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)

    report = run_scenario(scenario)
    text = report.to_json()
    if not args.report:
        print(text)
    elif not _write_report(args.report, text):
        return 2

    ok = scenario.expect is None or report.outcome.value == scenario.expect
    summary = f"outcome={report.outcome.value}"
    if scenario.expect is not None:
        summary += f" expected={scenario.expect} [{'PASS' if ok else 'FAIL'}]"
    print(summary, file=sys.stderr)
    return 0 if ok else 1


def _cmd_matrix(args: argparse.Namespace) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    try:
        summary, failures = run_matrix(modes, seed=args.seed, packets=args.packets)
    except InvalidScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report and not _write_report(args.report, json.dumps(summary, indent=2)):
        return 2

    for mode, pairings in summary.items():
        print(f"mode: {mode}")
        for key, result in pairings.items():
            rtp = result["rtp"]
            print(
                f"  {key:45s} {result['outcome']:18s}"
                f" a->b {rtp['a_to_b']['delivered']}/{rtp['a_to_b']['sent']}"
                f" b->a {rtp['b_to_a']['delivered']}/{rtp['b_to_a']['sent']}"
            )
    for failure in failures:
        print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sipnat", description="Deterministic NAT traversal scenario simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario file")
    run_parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run_parser.add_argument("--mode", choices=MODES, help="override the scenario's mode")
    run_parser.add_argument("--seed", type=int, help="override the scenario's seed")
    run_parser.add_argument("--report", help="write the JSON report here (default: stdout)")
    run_parser.set_defaults(func=_cmd_run)

    matrix_parser = sub.add_parser("matrix", help="run all 16 NAT pairings")
    matrix_parser.add_argument(
        "--modes", default="adapted,naive", help="comma separated modes to run"
    )
    matrix_parser.add_argument("--seed", type=int, default=0)
    matrix_parser.add_argument("--packets", type=int, default=50, help="RTP packets per direction")
    matrix_parser.add_argument("--report", help="write the JSON summary here")
    matrix_parser.set_defaults(func=_cmd_matrix)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
