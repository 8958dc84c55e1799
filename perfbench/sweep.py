"""Run the benchmark over seeds 0..N-1 and report spreads or a comparison.

    python3 perfbench/sweep.py --out DIR [--runs 10] [--trace 0|1]
    python3 perfbench/sweep.py --out DIR [--runs 10] --parent PARENT_ROOT

Runs the command in BENCHMARK.json once per seed and workload, one process
at a time, every workload in BENCHMARK.json and for its ``run_seconds``.

Without ``--parent`` it runs this checkout, writes each run to
``DIR/<workload>.jsonl`` and prints, for each workload and metric, the
median, the quartiles and the spread (q3 - q1) / median against the
metric's bound, followed by one row of readable figures per workload. The
exit code is 1 if a run failed or, with ``--trace 0``, a spread exceeds its
bound.

With ``--parent`` it runs the same command in PARENT_ROOT (a checkout of
the parent commit that holds the same benchmark) and in this checkout, in
pairs: for each seed both sides run back to back, the parent first on even
seeds and the change first on odd ones, so a drift in the machine's speed
falls on both sides alike. It writes ``DIR/parent/`` and ``DIR/change/`` and
prints compare.py's verdicts; the exit code is compare.py's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import ROOT, compare, load_config, load_runs, quartiles


def run_once(config: dict, root: Path, workload: str, seed: int,
             trace: int) -> dict:
    cmd = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    record = {"seed": seed, "returncode": proc.returncode,
              "wall_s": time.perf_counter() - t0}
    try:
        record["report"] = json.loads(lines[-2])
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["output"] = (proc.stdout + proc.stderr)[-2000:]
    return record


def summarize(config: dict, runs: dict[str, list[dict]], trace: int) -> bool:
    """Print spreads; returns False if a run failed or a bound is broken."""
    ok = True
    metrics = config["per_layer"] if trace else config["end_to_end"]
    for wl, records in runs.items():
        good = [r for r in records if r.get("result", {}).get("correct")]
        if len(good) != len(records):
            ok = False
            print(f"{wl}: {len(records) - len(good)} of {len(records)} runs "
                  f"failed")
        if not good:
            continue
        for metric in metrics:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in good]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = metric.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "over bound/3"
            print(f"{wl:<12} {name:<48} median {median:<12.6g} "
                  f"[{q1:.6g}, {q3:.6g}] spread {spread:6.2%}"
                  + (f" bound {bound:.0%} {flag}" if bound is not None else ""))
        row = good[-1]["report"]["metrics"]
        print(f"{wl:<12} last run: " + ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row.items()))
    return ok


def sweep(config: dict, sides: dict[str, Path], out: dict[str, Path],
          runs: int, trace: int) -> None:
    """Run every workload and seed on each side, writing one JSONL per
    side and workload; with two sides, alternate which runs first."""
    for directory in out.values():
        directory.mkdir(parents=True, exist_ok=True)
    names = list(sides)
    for wl in (w["name"] for w in config["workloads"]):
        files = {side: open(out[side] / f"{wl}.jsonl", "w", encoding="utf-8")
                 for side in names}
        try:
            for seed in range(runs):
                order = names if seed % 2 == 0 else names[::-1]
                for side in order:
                    record = run_once(config, sides[side], wl, seed, trace)
                    files[side].write(json.dumps(record) + "\n")
                    files[side].flush()
                    status = ("ok" if record.get("result", {}).get("correct")
                              else "FAILED")
                    print(f"{wl} seed {seed} {side}: {status} in "
                          f"{record['wall_s']:.1f} s", flush=True)
        finally:
            for fh in files.values():
                fh.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", type=Path, default=None,
                        help="checkout of the parent commit to pair with")
    args = parser.parse_args(argv)
    config = load_config()
    if args.parent is None:
        sweep(config, {"change": ROOT}, {"change": args.out}, args.runs,
              args.trace)
        return 0 if summarize(config, load_runs(args.out), args.trace) else 1
    if args.trace:
        parser.error("--parent compares end-to-end metrics; use --trace 0")
    out = {"parent": args.out / "parent", "change": args.out / "change"}
    sweep(config, {"parent": args.parent.resolve(), "change": ROOT}, out,
          args.runs, 0)
    return 0 if compare(out["parent"], out["change"]) else 1


if __name__ == "__main__":
    sys.exit(main())
