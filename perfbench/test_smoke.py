"""Smoke tests for the benchmark, at scale 1 and one-second loops.

    python3 -m pytest perfbench/test_smoke.py -q

Run from the root of the source checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: Claims are verified on this seed; tuning never uses it.
HELD_OUT_SEED = 9001


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def benchmark_json():
    return load(os.path.join(ROOT, "BENCHMARK.json"))


def bench(workload, seed=3, trace=0, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace), "--scale", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(completed):
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_catalog_matches_benchmark_json():
    spec = benchmark_json()
    catalog = load(os.path.join(HERE, "catalog.json"))
    kept = [name for name, entry in catalog["workloads"].items()
            if entry.get("in_benchmark_json", True)]
    assert [w["name"] for w in spec["workloads"]] == kept
    for name, entry in catalog["workloads"].items():
        assert name in kept or entry["dropped_because"]
    for section in ("end_to_end", "per_layer"):
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            name: entry["unit"] for name, entry in catalog[section].items()
        }


@pytest.mark.parametrize("workload", ["xmodel_b", "oltp_ac", "remote_ac", "cluster_b"])
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_checks(workload, trace):
    spec = benchmark_json()
    section = spec["per_layer" if trace else "end_to_end"]
    out = result(bench(workload, trace=trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in out["metrics"].values())


def test_child_spans_nest_inside_parents():
    out = result(bench("oltp_ac", trace=1))
    assert out["correct"]
    spans = load(os.path.join(ROOT, ".perfbench_work", "trace-oltp_ac-seed3.json"))["spans"]
    by_id = {span["id"]: span for span in spans}
    children = [span for span in spans if span["parent"] is not None]
    assert children, "the traced run recorded no child spans"
    names = {span["name"] for span in spans}
    assert {"op.read", "op.txn", "query.executor.execute", "txn.commit"} <= names
    for span in children:
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        assert span["root"] == parent["root"]


def test_tracer_self_time_subtracts_children():
    from tracer import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    self_times = tracer.self_times()
    assert inner.parent == outer.id and inner.root == outer.id
    assert self_times[outer.id] == pytest.approx(outer.duration - inner.duration)


def test_held_out_seed_is_accepted():
    out = result(bench("xmodel_b", seed=HELD_OUT_SEED))
    assert out["correct"] is True


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("xmodel_b", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
