"""``tools/bench_file.py`` turns a paired sweep directory into a BENCH file
whose figures and verdicts are compare.py's."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_record(seed, ops_per_s, digest, correct=True, failed=0):
    metrics = {"ops_per_s": ops_per_s, "latency_p99_ms": 0.2,
               "min_clearance_m": 0.25, "peak_rss_mb": 44.0, "setup_s": 0.5}
    return {"seed": seed, "returncode": 0 if correct else 1, "wall_s": 30.0,
            "report": {"digest": digest},
            "result": {"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "-"}
                                   for k, v in metrics.items()}}}


def write_side(directory, records):
    directory.mkdir(parents=True)
    with open(directory / "verify.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


@pytest.fixture
def sweep_dir(tmp_path):
    # the change runs twice as fast on every seed; seed 3 fails one check
    # on the parent, and seed 9's outcome digest differs
    write_side(tmp_path / "parent", [
        run_record(s, 100.0 + s, f"d{s}", correct=s != 3, failed=int(s == 3))
        for s in range(10)])
    write_side(tmp_path / "change", [
        run_record(s, 200.0 + s, f"d{s}" if s != 9 else "other")
        for s in range(10)])
    return tmp_path


def test_writes_compare_figures(sweep_dir, tmp_path):
    out = tmp_path / "BENCH_test.json"
    assert load_tool().main([str(sweep_dir), "test", "--parent-commit", "aaa",
                             "--change-commit", "bbb", "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["slug"] == "test"
    assert data["commits"] == {"parent": "aaa", "change": "bbb"}
    assert data["nproc"] >= 1
    assert list(data["workloads"]) == ["verify"]
    verify = data["workloads"]["verify"]
    assert verify["failed_ops"] == {"parent": 1, "change": 0}
    assert (verify["digests_identical"], verify["digest_pairs"]) == (9, 10)
    ops = verify["metrics"]["ops_per_s"]
    assert ops["verdict"] == "improved" and ops["won"] == 1.0
    # seed 3 is not correct on the parent, so only nine parent runs count
    assert ops["parent"]["runs"] == 9 and ops["change"]["runs"] == 10
    assert ops["parent"]["median"] == 105.0
    assert ops["change"]["q1"] <= ops["change"]["median"] <= ops["change"]["q3"]
    latency = verify["metrics"]["latency_p99_ms"]
    assert latency["verdict"] == "unchanged" and latency["won"] == 0.0
    assert set(verify["metrics"]) == {"ops_per_s", "latency_p99_ms",
                                      "min_clearance_m", "peak_rss_mb",
                                      "setup_s"}


def test_empty_directory_is_an_error(tmp_path, capsys):
    assert load_tool().main([str(tmp_path), "x", "--parent-commit", "a",
                             "--change-commit", "b",
                             "--out", str(tmp_path / "out.json")]) == 2
    assert "no workload" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
