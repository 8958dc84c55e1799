"""Compare a parent commit and a change from one paired sweep.

    python3 perfbench/compare.py DIR

DIR is written by ``sweep.py --out DIR --parent PARENT_ROOT``, which runs
the two sides in pairs, alternating which runs first; ``DIR/parent`` and
``DIR/change`` hold ``<workload>.jsonl`` files, one run per line. Runs that
are not correct are left out of the figures. For every workload and
end-to-end metric in BENCHMARK.json this prints each side's median and
quartiles, the share of seed-matched pairs the change won, and a verdict:

* improved: the change won at least 9/10 of all pairs (ties count for
  neither), the medians differ, in the better direction, by more than the
  parent's own spread (q3 - q1), and no more operations failed than at
  the parent;
* unresolved: the parent's spread, as a share of its median, is wider than
  the metric's bound, and not every change run beats every parent run;
* worse: the change's median is worse than the parent's by more than the
  bound, as a share of the parent's median;
* unchanged: otherwise.

It also prints each side's failed operations, and whether the outcome
digests of matching seeds are identical, which shows that every simulated
statistic stayed the same. The exit code is 1 if any verdict is "worse" or
more operations failed on the change than on the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Runs per workload, in the order they were made."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            runs[path.stem] = [json.loads(line) for line in fh if line.strip()]
    return runs


def metric_values(runs: list[dict], name: str) -> list[tuple[int, float]]:
    return [(run["seed"], run["result"]["metrics"][name]["value"])
            for run in runs if run.get("result", {}).get("correct")]


def failed_ops(runs: list[dict]) -> int:
    """Failed operations; a run that is not correct counts at least one."""
    total = 0
    for run in runs:
        result = run.get("result", {})
        total += max(result.get("failed", 0), not result.get("correct"))
    return total


def _pairs(parent, change):
    """Seed-matched pairs; repeated seeds pair in run order."""
    pending = defaultdict(list)
    for seed, value in parent:
        pending[seed].append(value)
    out = []
    for seed, value in change:
        if pending[seed]:
            out.append((pending[seed].pop(0), value))
    return out


def verdict(parent: list[float], change: list[float],
            pairs: list[tuple[float, float]], higher: bool,
            bound: float, more_failures: bool = False) -> tuple[str, float]:
    """The verdict and the share of pairs the change won. A change with
    more failed operations than the parent is never improved."""
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if not more_failures and won >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "improved", won
    all_better = (min(change) > max(parent) if higher
                  else max(change) < min(parent))
    if (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", won
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", won
    return "unchanged", won


def compare(parent_dir: Path, change_dir: Path) -> bool:
    """Print the comparison; returns False if any metric got worse or more
    operations failed on the change."""
    config = load_config()
    parent_runs = load_runs(parent_dir)
    change_runs = load_runs(change_dir)
    ok = True
    print(f"{'workload':<12} {'metric':<16} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'won':>5}  verdict")
    for wl in (w["name"] for w in config["workloads"]):
        if wl not in parent_runs or wl not in change_runs:
            continue
        parent_failed = failed_ops(parent_runs[wl])
        change_failed = failed_ops(change_runs[wl])
        more_failures = change_failed > parent_failed
        ok &= not more_failures
        for metric in config["end_to_end"]:
            name = metric["name"]
            parent = metric_values(parent_runs[wl], name)
            change = metric_values(change_runs[wl], name)
            if not parent or not change:
                continue
            pv = [v for _, v in parent]
            cv = [v for _, v in change]
            result, won = verdict(pv, cv, _pairs(parent, change),
                                  metric["better"] == "higher",
                                  metric["bound"], more_failures)
            ok &= result != "worse"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{wl:<12} {name:<16} "
                  f"{pm:>12.5g} [{p1:.5g}, {p3:.5g}]".ljust(62)
                  + f"{cm:>12.5g} [{c1:.5g}, {c3:.5g}]".ljust(33)
                  + f"{won:>5.2f}  {result}")
        print(f"{wl:<12} failed operations: parent {parent_failed}, change "
              f"{change_failed}" + (" (more on the change)"
                                    if more_failures else ""))
        digests = _pairs(
            [(r["seed"], r["report"]["digest"]) for r in parent_runs[wl]
             if r.get("report")],
            [(r["seed"], r["report"]["digest"]) for r in change_runs[wl]
             if r.get("report")])
        same = sum(p == c for p, c in digests)
        print(f"{wl:<12} outcome digests identical on {same}/{len(digests)} "
              f"matching seeds")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path,
                        help="output of sweep.py --out DIR --parent ROOT")
    args = parser.parse_args(argv)
    return 0 if compare(args.dir / "parent", args.dir / "change") else 1


if __name__ == "__main__":
    sys.exit(main())
