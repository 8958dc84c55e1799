"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import tempfile
from pathlib import Path

import pytest

import run  # puts src/ on sys.path before the modules below import instinctsim
import compare
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_self_times_subtract_children_once():
    # root [0, 100] has children [10, 30] and [40, 70]; the latter has a
    # child [50, 60]. A second root [200, 300] has overlapping children
    # [210, 250] and [230, 260], which cover 50 together.
    start = [0, 10, 40, 50, 200, 210, 230]
    end = [100, 30, 70, 60, 300, 250, 260]
    parent = [-1, 0, 0, 2, -1, 4, 4]
    assert spans.self_times(start, end, parent) == [50, 20, 20, 10, 50, 40, 30]


def test_install_then_restore_is_identity():
    before = [vars(owner)[attr] for _, owner, attr in spans.TARGETS]
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.installed():
            during = [vars(owner)[attr] for _, owner, attr in spans.TARGETS]
            assert all(d is not b for d, b in zip(during, before))
            raise RuntimeError("restore must survive an exception")
    after = [vars(owner)[attr] for _, owner, attr in spans.TARGETS]
    assert all(a is b for a, b in zip(after, before))


def test_metric_names_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["per_layer"]] == \
        [name for name, _, _ in spans.per_layer_catalogue()]
    assert [w["name"] for w in config["workloads"]] == \
        list(workloads.WORKLOADS)


def _tiny(name: str, work_dir: str):
    wl = workloads.make(name, work_dir)
    wl.size = 20 if name == "verify" else 2
    return wl, wl.inputs(7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_is_clean_and_repeatable(name):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as work_dir:
        wl, inputs = _tiny(name, work_dir)
        first, metrics, named, extra = run.end_to_end(wl, inputs, 0, 0.1)
        again = run.end_to_end(wl, inputs, 0, 0.1)[3]
        traced, _, traced_extra = run.per_layer(wl, inputs, 0, 7)
    assert first.failed == 0 and not first.problems
    assert named["failed_share"][0] == 0.0
    assert traced.failed == 0 and not traced.problems
    assert extra["digest"] == again["digest"] == traced_extra["digest"] \
        == traced_extra["traced_digest"]
    assert list(metrics) == [m["name"] for m in config["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())


def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    faster = [120.0, 121.0, 119.0, 120.5, 119.5]
    assert compare.verdict(parent, faster, pairs(faster), True, 0.1)[0] \
        == "improved"
    slower = [80.0, 81.0, 79.0, 80.5, 79.5]
    assert compare.verdict(parent, slower, pairs(slower), True, 0.1)[0] \
        == "worse"
    same = [100.2, 100.8, 99.1, 100.4, 99.6]
    assert compare.verdict(parent, same, pairs(same), True, 0.1)[0] \
        == "unchanged"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, same, pairs(same), True, 0.1)[0] \
        == "unresolved"
    assert compare.verdict(parent, faster, pairs(faster), True, 0.1,
                           more_failures=True)[0] == "unchanged"


def test_failed_runs_are_counted_and_left_out():
    def result(correct, failed, value):
        return {"correct": correct, "failed": failed,
                "metrics": {"m": {"value": value}}}
    runs = [{"seed": 0, "result": result(True, 0, 1.0)},
            {"seed": 1, "result": result(False, 3, 2.0)},
            {"seed": 2, "result": result(False, 0, 3.0)},
            {"seed": 3, "output": "Traceback ..."}]
    assert compare.metric_values(runs, "m") == [(0, 1.0)]
    assert compare.failed_ops(runs) == 5
