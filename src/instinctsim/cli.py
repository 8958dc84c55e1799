"""Command-line runner: load a scenario, simulate, write trace and metrics."""

from __future__ import annotations

import argparse
import sys

from .config import BACKENDS
from .runner import run_live, run_sim
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .trace import write_metrics, write_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instinctsim",
        description="Deterministic layered robot-control simulator",
    )
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--ticks", type=int, default=None,
                        help="override the run length in ticks")
    parser.add_argument("--agent", choices=BACKENDS,
                        default=None, help="override the planner backend")
    parser.add_argument("--hallucination-prob", type=float, default=None,
                        help="override the hallucination probability")
    parser.add_argument("--trace-out", default=None,
                        help="write the JSONL trace here")
    parser.add_argument("--metrics-out", default=None,
                        help="write the metrics JSON here")
    parser.add_argument("--live", action="store_true",
                        help="wall-clock mode with separate layer threads")
    return parser


def _with_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """The scenario with the command-line overrides, validated like the
    file's own values (errors name the scenario field)."""
    raw = scenario.to_dict()
    for section, key, value in (
        (raw, "seed", args.seed),
        (raw, "ticks", args.ticks),
        (raw["agent"], "backend", args.agent),
        (raw["agent"], "hallucination_probability", args.hallucination_prob),
    ):
        if value is not None:
            section[key] = value
    return parse_scenario(raw)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _with_overrides(load_scenario(args.scenario), args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    run = run_live if args.live else run_sim
    trace, metrics = run(scenario, store_trace=args.trace_out is not None)
    if args.trace_out is not None:
        try:
            write_trace(trace, args.trace_out)
        except OSError as exc:
            print(f"cannot write trace {args.trace_out}: {exc}",
                  file=sys.stderr)
            return 1
    if args.metrics_out is not None:
        try:
            write_metrics(metrics, args.metrics_out)
        except OSError as exc:
            print(f"cannot write metrics {args.metrics_out}: {exc}",
                  file=sys.stderr)
            return 1
    m = metrics.to_dict()
    print(
        f"{scenario.name}: ticks={m['ticks']} collisions={m['collisions']} "
        f"refusals={m['refusals']} hallucinated={m['hallucinated_commands']} "
        f"completed={m['tasks_completed']} blocked={m['tasks_blocked']} "
        f"min_clearance={m['min_ground_truth_clearance']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
