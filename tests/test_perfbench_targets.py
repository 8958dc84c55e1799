"""The benchmark's per-layer tracer wraps program functions by name
(``perfbench/spans.py``, ``TARGETS``); a rename or deletion must fail here,
not only in the benchmark's own suite."""

import importlib.util
import inspect
from pathlib import Path

from instinctsim import instinct, trace

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
