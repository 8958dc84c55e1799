"""The benchmark's per-layer tracer wraps program functions by name
(``perfbench/spans.py``, ``TARGETS``) and its workloads call the program
(``perfbench/workloads.py``); a rename, a deletion or a signature change
must fail here, not only in the benchmark's own suite."""

import importlib.util
import inspect
import sys
from pathlib import Path

from instinctsim import instinct, trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load(SPANS, "perfbench_spans")


def test_every_traced_name_exists():
    targets = load_spans().TARGETS
    assert targets
    # the tracer patches ``vars(owner)[attr]`` in place
    missing = [name for name, owner, attr in targets
               if attr not in vars(owner)]
    assert missing == []


def test_hooked_arguments_keep_their_names():
    # the count hooks read these arguments by position or else by name
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(instinct.safety_check)[0] == "low"
    assert params(trace.write_trace)[1] == "path"


def test_one_traced_operation_of_each_workload_passes(tmp_path):
    # one input per workload, seed 0, every TARGETS name wrapped: a call
    # the wrapped program no longer accepts is a failed check here
    workloads = load(WORKLOADS, "perfbench_workloads")
    failed = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, str(tmp_path))
        wl.size = 1
        inputs = wl.inputs(0)
        with load_spans().SpanRecorder().installed() as recorder:
            outcomes, problems = wl.run_pass(inputs, recorder.begin_op)
        assert len(outcomes) == 1
        failed[name] = problems + outcomes[0].failures
    assert failed == {name: [] for name in workloads.WORKLOADS}


def test_every_tick_child_measures_the_tick(tmp_path):
    # the seed-0 input of each simulating workload, traced: a tick child
    # that no tick calls reads 0 in every metric named after it
    workloads = load(WORKLOADS, "perfbench_workloads")
    spans = load_spans()
    called = set()
    for name in ("hallucinate", "dropout"):
        wl = workloads.make(name, str(tmp_path))
        wl.size = 1
        with spans.SpanRecorder().installed() as recorder:
            (outcome,), _ = wl.run_pass(wl.inputs(0), recorder.begin_op)
        called.update(recorder.names[i] for i in set(recorder.fn))
        summaries = recorder.metrics(1, outcome.ticks, 1)[
            "instinct.summarize.calls_per_tick"]
        assert summaries == 1.0, name  # one summary per tick
    assert [n for n in spans.TICK_CHILDREN if n not in called] == []
