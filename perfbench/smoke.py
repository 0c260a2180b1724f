"""Smoke check of the benchmark harness at tiny sizes (about 40 s).

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

It checks the harness, not the program's speed: every workload runs traced
and untraced, reports each metric named in BENCHMARK.json with its unit,
repeats its per-layer counts for a seed, accounts for the traced wall time,
counts a failing text without stopping, fails a run whose output check
fails, and refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from report import END_TO_END, compare, save_result  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    ExtractLong,
    ExtractShort,
    OracleDeep,
    Tally,
    TrainNerre,
    measure,
    timed_extract,
)

OUT = os.path.join(HERE, "out", "smoke")


def tiny_workloads():
    return [
        TrainNerre(sentences=6, heldout_texts=20),
        ExtractShort(train_sentences=6, heldout=20, f1_floor=0.0),
        ExtractLong(texts=4, words=20,
                    model=dict(d=16, d_head=8, layers=1, heads=2)),
        OracleDeep(coqe_texts=6, aspect_texts=2),
    ]


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "ms"}


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] \
        == [w.name for w in tiny_workloads()]


def test_workloads_report_checked_metrics():
    for workload in tiny_workloads():
        plain = measure(workload, 5, 0.0, False, OUT)
        assert plain["correct"], (workload.name, plain["detail"])
        assert plain["failed"] == 0 and plain["attempted"] > 0
        assert [(k, v["unit"]) for k, v in plain["metrics"].items()] \
            == [(n, u) for n, u, _ in END_TO_END]
        assert all(v["value"] > 0 for v in plain["metrics"].values()), \
            (workload.name, plain["metrics"])

        first = measure(workload, 5, 0.0, True, OUT)
        again = measure(workload, 5, 0.0, True, OUT)
        assert first["correct"] and again["correct"]
        assert [(k, v["unit"]) for k, v in first["metrics"].items()] \
            == [(n, u) for n, u, _ in PER_LAYER]
        assert _counts(first["metrics"]) == _counts(again["metrics"]), \
            workload.name
        values = {k: v["value"] for k, v in first["metrics"].items()}
        self_ms = sum(v for k, v in values.items()
                      if k.endswith((".ms", ".self_ms"))
                      and k != "engine.self_eval.ms")
        total = self_ms + values["trace.other_ms"]
        assert abs(total - values["trace.wall_ms"]) < 1e-6 * values["trace.wall_ms"]

        spans = os.path.join(OUT, f"spans-{workload.name}-seed5.jsonl")
        with open(spans, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == values["trace.spans"]
        assert {"name", "start_us", "end_us", "parent", "text"} <= set(records[0])


def test_failed_check_fails_the_run():
    result = measure(ExtractShort(train_sentences=6, heldout=20, f1_floor=1.01),
                     5, 0.0, False, OUT)
    assert not result["correct"]
    assert any("below floor" in line for line in result["report"])


def test_failing_text_is_counted_not_fatal():
    workload = OracleDeep(coqe_texts=4, aspect_texts=1)
    workload.setup(5, OUT)
    schema, examples, cfg = workload.parts[0][0]
    cramped = dataclasses.replace(cfg, max_len=40)
    tally = Tally()
    preds = timed_extract(schema, workload.vocab, workload.score_by_text,
                          examples, cramped, tally)
    assert tally.attempted == len(examples) == tally.failed
    assert tally.failures == {"query.TextOverflow": len(examples)}
    assert preds == [None] * len(examples)


def test_compare_prints_ratios():
    result = measure(OracleDeep(coqe_texts=4, aspect_texts=1), 5, 0.0, False,
                     OUT)
    env = {"trace": 0}
    old, new = os.path.join(OUT, "old.json"), os.path.join(OUT, "new.json")
    for path in (old, new):
        if os.path.exists(path):
            os.remove(path)
        save_result(path, "oracle-deep", env, result)
    assert compare(old, new) == 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
