"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload hallucinate --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped but the
instinct tick timer. ``--trace 1`` spends half the time untraced and half
with every layer wrapped (see spans.py), and reports the per-layer metrics
and the tracing overhead. The last line of standard output is the result
object; the lines before it are a readable row and a full JSON report.
The exit code is 1 if any operation failed or any output check failed.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import instinctsim  # noqa: E402

if Path(instinctsim.__file__).resolve().parent != SRC / "instinctsim":
    sys.exit(f"instinctsim imported from {instinctsim.__file__}, not {SRC}")

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

_IMPORTED = time.perf_counter()

SETUP_REPEATS = 5
IMPORT_PROBES = 8


@dataclass
class Phase:
    """What one measured loop of whole passes did."""

    ops: int          # operations attempted
    units: int        # simulated ticks, or cases on verify
    elapsed_ns: int
    passes: int
    failed: int       # operations with at least one failed check
    failures: list    # messages for failed checks
    problems: list    # pass-level check failures
    first: list       # outcomes of the first pass

    @property
    def rate(self) -> float:
        return self.units / (self.elapsed_ns / 1e9)

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            "".join(o.digest for o in self.first).encode()).hexdigest()


def measure(wl, inputs, seconds: float, begin_op=lambda: None,
            latency=None) -> Phase:
    """Run whole passes for about ``seconds`` (at least one pass), ending
    at the pass boundary nearest to it.

    Every pass after the first must reproduce its outcome digests.
    """
    phase = Phase(0, 0, 0, 0, 0, [], [], [])
    t0 = perf_counter_ns()
    while True:
        outcomes, problems = wl.run_pass(inputs, begin_op, latency)
        phase.problems += problems
        if not phase.first:
            phase.first = outcomes
        for outcome, reference in zip(outcomes, phase.first):
            failures = list(outcome.failures)
            if outcome.digest != reference.digest:
                failures.append("outcome differs from the first pass")
            phase.failed += bool(failures)
            phase.failures += failures
        phase.ops += len(outcomes)
        phase.units += (sum(o.ticks for o in outcomes)
                        if wl.op_unit == "tick" else len(outcomes))
        phase.passes += 1
        phase.elapsed_ns = perf_counter_ns() - t0
        half_pass = phase.elapsed_ns / phase.passes / 2
        if phase.elapsed_ns + half_pass >= seconds * 1e9:
            return phase


def import_seconds() -> float:
    """Median time this module takes to import, over this process and
    IMPORT_PROBES fresh interpreters that import it the same way.

    One import is a single sample of a ~0.25 s step, and on a shared
    machine it moves by a quarter from one process to the next.
    """
    probe = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
             "print(run._IMPORTED - run._START)")
    samples = [_IMPORTED - _START]
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def set_up(wl, seed: int) -> tuple[list, float]:
    """Generate the inputs and warm up, several times; returns the inputs
    and the set-up time: the median import plus the median generation +
    warm-up. Each round starts from a collected heap with the previous
    round's inputs freed, so rounds do not pay for each other's garbage."""
    times = []
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.inputs(seed)
        wl.warm_up(inputs)
        times.append(time.perf_counter() - t0)
    return inputs, import_seconds() + statistics.median(times)


def _pct_ms(samples: list[int], q: float) -> float:
    return float(np.percentile(samples, q)) / 1e6


def end_to_end(wl, inputs, seconds: float, setup_s: float):
    latency: list[int] = []
    phase = measure(wl, inputs, seconds, latency=latency)
    quality = wl.quality(phase.first)
    metrics = {
        "ops_per_s": (phase.rate, "1/s"),
        "latency_p99_ms": (_pct_ms(latency, 99), "ms"),
        "min_clearance_m": (quality["min_clearance_m"], "m"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    # The same figures under the names the workload's users know them by,
    # plus the median latency, which is reported but not gated: on a shared
    # machine it moved by more than any allowed bound between repeats of
    # the same seeds, while p99 held steady (see README.md).
    p50 = (_pct_ms(latency, 50), "ms")
    if wl.op_unit == "tick":
        named = {"ticks_per_s": (phase.rate, "ticks/s"),
                 "instinct_tick_p50_ms": p50,
                 "instinct_tick_p99_ms": metrics["latency_p99_ms"]}
    else:
        named = {"cases_per_s": (phase.rate, "cases/s"),
                 "safety_check_p50_ms": p50,
                 "safety_check_p99_ms": metrics["latency_p99_ms"]}
    named["latency_samples"] = (len(latency), "count")
    for name, value in quality.items():
        if name != "min_clearance_m":
            named[name] = (value, "s(sim)" if name.endswith("_s_p50")
                           else "share")
    named.update(metrics)
    named["failed_share"] = (phase.failed / phase.ops, "share")
    return phase, metrics, named, {"digest": phase.digest,
                                   "passes": phase.passes}


def per_layer(wl, inputs, seconds: float, seed: int):
    untraced = measure(wl, inputs, seconds / 2)
    recorder = spans.SpanRecorder()
    with recorder.installed():
        t0 = perf_counter_ns()
        traced = measure(wl, wl.inputs(seed), seconds / 2,
                         begin_op=recorder.begin_op)
        wall_ns = perf_counter_ns() - t0
    ticks = traced.units if wl.op_unit == "tick" else 0
    metrics = recorder.metrics(traced.units, ticks, wall_ns)
    metrics["traced.ops_per_s"] = traced.rate
    metrics["traced.speed_ratio"] = traced.rate / untraced.rate
    units = dict((name, unit) for name, unit, _ in spans.per_layer_catalogue())
    metrics = {name: (value, units[name]) for name, value in metrics.items()}
    extra = {"digest": untraced.digest, "traced_digest": traced.digest,
             "spans": len(recorder.fn), "untraced_ops_per_s": untraced.rate}
    problems = []
    if traced.digest != untraced.digest:
        problems.append("traced outcome digest differs from untraced")
    phase = Phase(untraced.ops + traced.ops, untraced.units + traced.units,
                  untraced.elapsed_ns + traced.elapsed_ns,
                  untraced.passes + traced.passes,
                  untraced.failed + traced.failed,
                  untraced.failures + traced.failures,
                  untraced.problems + traced.problems + problems,
                  untraced.first)
    return phase, metrics, extra


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_dir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        wl = workloads.make(args.workload, work_dir)
        inputs, setup_s = set_up(wl, args.seed)
        if args.trace:
            phase, metrics, extra = per_layer(wl, inputs, args.seconds,
                                              args.seed)
            shown = metrics
        else:
            phase, metrics, shown, extra = end_to_end(wl, inputs,
                                                      args.seconds, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = not phase.problems and phase.failed == 0
    for message in (phase.problems + phase.failures)[:20]:
        print(f"FAILED {args.workload}: {message}")
    row = " | ".join(f"{name}={_fmt(value)} {unit}"
                     for name, (value, unit) in shown.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"digest={extra['digest'][:16]}: {row}")
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "ops": phase.ops, "units": phase.units,
              "metrics": {k: v for k, (v, _) in shown.items()}, **extra}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": phase.ops,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
