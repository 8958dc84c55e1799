"""Write a BENCH file from one paired benchmark sweep.

    python3 tools/bench_file.py SWEEP_DIR SLUG --parent-commit REV \
        --change-commit REV [--out PATH]

SWEEP_DIR is written by ``perfbench/sweep.py --out SWEEP_DIR --parent
PARENT_ROOT``. The figures and verdicts come from ``perfbench/compare.py``,
loaded read-only, so the file says what compare.py prints: for every
workload and end-to-end metric in BENCHMARK.json, each side's median and
quartiles over correct runs, the share of seed-matched pairs the change won
and the verdict; per workload, the failed operations on each side and how
many seed-matched outcome digests are identical. It also records the number
of processors this machine offers and both commits as given. The output goes
to ``BENCH_<SLUG>.json`` at the repository root unless ``--out`` names
another path.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARE = ROOT / "perfbench" / "compare.py"


def load_compare():
    spec = importlib.util.spec_from_file_location("perfbench_compare", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_entry(cmp, config: dict, parent_runs: list[dict],
                   change_runs: list[dict]) -> dict:
    """compare.py's (``cmp``) figures for one workload, as data."""

    def side(values: list[float]) -> dict:
        q1, median, q3 = cmp.quartiles(values)
        return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}

    parent_failed = cmp.failed_ops(parent_runs)
    change_failed = cmp.failed_ops(change_runs)
    metrics = {}
    for metric in config["end_to_end"]:
        name = metric["name"]
        parent = cmp.metric_values(parent_runs, name)
        change = cmp.metric_values(change_runs, name)
        if not parent or not change:
            continue
        pv = [v for _, v in parent]
        cv = [v for _, v in change]
        result, won = cmp.verdict(pv, cv, cmp._pairs(parent, change),
                                  metric["better"] == "higher",
                                  metric["bound"],
                                  change_failed > parent_failed)
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": side(pv),
            "change": side(cv), "won": won, "verdict": result,
        }
    digests = cmp._pairs(
        [(r["seed"], r["report"]["digest"]) for r in parent_runs
         if r.get("report")],
        [(r["seed"], r["report"]["digest"]) for r in change_runs
         if r.get("report")])
    return {
        "failed_ops": {"parent": parent_failed, "change": change_failed},
        "digests_identical": sum(p == c for p, c in digests),
        "digest_pairs": len(digests),
        "metrics": metrics,
    }


def bench_file(sweep_dir: Path, slug: str, parent_commit: str,
               change_commit: str) -> dict:
    cmp = load_compare()
    config = cmp.load_config()
    parent_runs = cmp.load_runs(sweep_dir / "parent")
    change_runs = cmp.load_runs(sweep_dir / "change")
    workloads = {
        wl: workload_entry(cmp, config, parent_runs[wl], change_runs[wl])
        for wl in (w["name"] for w in config["workloads"])
        if wl in parent_runs and wl in change_runs
    }
    if not workloads:
        raise ValueError(f"{sweep_dir} holds no workload run on both sides")
    return {
        "slug": slug,
        "commits": {"parent": parent_commit, "change": change_commit},
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": config["run_seconds"],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep_dir", type=Path,
                        help="output of perfbench/sweep.py --out DIR --parent")
    parser.add_argument("slug")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    try:
        data = bench_file(args.sweep_dir, args.slug, args.parent_commit,
                          args.change_commit)
    except (OSError, ValueError) as exc:
        print(f"bench_file: {exc}", file=sys.stderr)
        return 2
    out = args.out or ROOT / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
