#!/usr/bin/env python3
"""The benchmark's own check, at tiny scale.

    python3 servebench/check.py

Validates BENCHMARK.json and servebench/layer_map.json, then runs every
workload with --trace 0 and --trace 1 on a 300-paper corpus for 2 s and
checks each result line: its schema, that the run was correct, and that
it reports exactly the metrics BENCHMARK.json lists for that mode, with
their units. Every metric the benchmark was specified with must be
listed in BENCHMARK.json or marked dropped, with a reason, in
layer_map.json. Exits non-zero on the first problem.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The metrics the benchmark was specified with.
SPECIFIED = [
    "setup_s", "query_p50_ms", "query_p99_ms", "query_rps", "query_fail_ratio",
    "ingest_ack_p50_ms", "ingest_ack_p90_ms", "ingest_fail_ratio",
    "quality_map", "exact_overlap_at_10", "peak_rss_mb", "cpu_ms_per_query",
    "serve.queue_wait_ms", "serve.batch_size", "serve.overhead_ms",
    "core.batch_ms", "core.batch_ms.shards2", "core.batch_ms.shards4",
    "embed.encode_ms", "ann.search_ms", "ann.sq8_dists", "ann.fp32_dists",
    "ann.hops", "ann.recall_at_m", "ann.exact_search_ms", "ranking.lists_ms",
    "ranking.ta_ms", "ranking.fullscan_ms", "ranking.entries",
    "ranking.ta_early_stop_ratio", "ingest.apply_ms", "ingest.wal_append_ms",
    "ingest.index_insert_ms", "ingest.merges", "ingest.pending_delta_edges",
    "ingest.generations", "build.pretrain_s", "build.sampling_s",
    "build.train_s", "build.embed_s", "build.index_s", "build.triples",
    "build.index_edges", "setup.load_s",
]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"check: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec(bench, layer_map):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        fail(f"BENCHMARK.json keys {sorted(bench)}")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("2 to 8 workloads")
    if not 1 <= len(bench["end_to_end"]) <= 16:
        fail("1 to 16 end-to-end metrics")
    if not 1 <= len(bench["per_layer"]) <= 128:
        fail("1 to 128 per-layer metrics")
    if not (isinstance(bench["run_seconds"], int)
            and 1 <= bench["run_seconds"] <= 60):
        fail("run_seconds must be a whole number from 1 to 60")
    names = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]):
            fail(f"workload {w}")
        if len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"why of {w['name']} must be one line of at most 200 chars")
        names.add(w["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            fail(f"metric {m}")
        if m["better"] not in ("lower", "higher"):
            fail(f"better of {m['name']}")
        if m["name"] in names:
            fail(f"name {m['name']} used twice")
        names.add(m["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            fail(f"end-to-end metric keys {m}")
        if not 0 < m["bound"] <= 0.25:
            fail(f"bound of {m['name']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (unit s, better lower) is required")
    if setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must have the largest bound")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer metric keys {m}")

    dropped = {d["name"]: d["reason"] for d in layer_map["dropped"]}
    for name in SPECIFIED:
        if name not in names and not dropped.get(name):
            fail(f"{name} is neither measured nor dropped with a reason")
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for p in layer_map["predictions"]:
        for name in p["layer_metrics"]:
            if name not in per_layer:
                fail(f"layer_map names unknown layer metric {name}")
        for move in p["moves"] + p.get("no_change", []):
            if move["metric"] not in e2e or move["workload"] not in names:
                fail(f"layer_map names unknown pairing {move}")
    mapped = {n for p in layer_map["predictions"] for n in p["layer_metrics"]}
    for name in per_layer - mapped - set(layer_map["tracing"]):
        fail(f"per-layer metric {name} has no prediction in layer_map.json")


def check_run(bench, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--scale", "0.1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload} trace={trace} was not correct: {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    expected = bench["per_layer" if trace else "end_to_end"]
    if [m["name"] for m in expected] != list(result["metrics"]):
        fail(f"{workload} trace={trace} metrics {list(result['metrics'])}")
    for m in expected:
        got = result["metrics"][m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            fail(f"{m['name']}: {got}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail(f"{m['name']} value {got['value']}")
    if trace and workload == "query_light":
        # The traced split must cover the steps that block a request.
        v = {k: result["metrics"][k]["value"] for k in result["metrics"]}
        parts = (v["serve.queue_wait_ms"] + v["serve.engine_ms"] +
                 v["serve.overhead_ms"])
        round_trip = v["serve.round_trip_ms"]
        if abs(parts - round_trip) > 0.1 * round_trip:
            fail(f"queue + engine + overhead = {parts:.3f} ms against a "
                 f"{round_trip:.3f} ms round trip")
    print(f"check: {workload} trace={trace} ok "
          f"({result['attempted']} operations)")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    check_spec(bench, layer_map)
    print("check: BENCHMARK.json and layer_map.json ok")
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    print("check: all ok")


if __name__ == "__main__":
    main()
