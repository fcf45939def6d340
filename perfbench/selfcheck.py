"""Self-check of the benchmark at tiny shapes.

    python3 perfbench/selfcheck.py

Runs every workload in ``BENCHMARK.json`` at tiny shapes, untraced twice and
traced once, each in its own process, and fails unless every run

- prints a last line with exactly the keys correct, attempted, failed, metrics;
- is correct with no failed tick;
- emits exactly the metrics ``BENCHMARK.json`` names, each with its unit;
- gives each per-layer metric a non-zero value on the workloads where its
  layer runs (``LAYER_RUNS_ON``);

and unless the two untraced runs of a workload release the same digest.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEED = 3

MOMENT = ("moment-tick", "moment-bulk")
SKETCHED = MOMENT + ("f2-wide",)
WINDOW = ("window-distinct",)
ALL = SKETCHED + WINDOW

LAYER_RUNS_ON = {
    "summing.tree_reads": MOMENT,
    "summing.tree_read_s": MOMENT,
    "summing.group_feeds": WINDOW,
    "summing.group_feed_s": WINDOW,
    "randomness.node_draws": SKETCHED,
    "randomness.node_draw_s": SKETCHED,
    "randomness.laplace_draws": WINDOW,
    "randomness.laplace_draw_s": WINDOW,
    "randomness.ctx_built": WINDOW,
    "randomness.ctx_s": WINDOW,
    "randomness.hash_evals": SKETCHED,
    "randomness.hash_s": SKETCHED,
    "randomness.median_s": SKETCHED,
    "countsketch.f2_calls": ("f2-wide",),
    "countsketch.f2_s": ("f2-wide",),
    "countsketch.bucket_reads": SKETCHED,
    "countsketch.point_queries": SKETCHED,
    "countsketch.point_query_s": SKETCHED,
    "countsketch.sketches_built": MOMENT,
    "countsketch.construct_s": MOMENT,
    "heavy_hitters.ingest_s": MOMENT,
    "heavy_hitters.report_s": MOMENT,
    "heavy_hitters.self_s": MOMENT,
    "heavy_hitters.candidacy_tests": MOMENT,
    "heavy_hitters.admit_ratio": (),  # no candidate survives at these shapes
    "low_freq.ingest_s": MOMENT,
    "low_freq.current_s": MOMENT,
    "low_freq.self_s": MOMENT,
    "moment.ingest_self_s": MOMENT,
    "moment.current_self_s": MOMENT,
    "distinct.feed_s": WINDOW,
    "distinct.combine_s": MOMENT,
    "sliding.feed_self_s": WINDOW,
    "sliding.instances_built": WINDOW,
    "sliding.construct_s": WINDOW,
    "sliding.live_mean": WINDOW,
    "sliding.live_peak": WINDOW,
    "streamio.parse_s": ALL,
    "estimator.construct_s": ALL,
    "bench.driver_self_s": ALL,
    "trace.overhead": ALL,
    "summing.alloc_mb": MOMENT,
    "countsketch.alloc_mb": SKETCHED,
    "heavy_hitters.alloc_mb": MOMENT,
    "low_freq.alloc_mb": MOMENT,
    "moment.alloc_mb": MOMENT,
    "randomness.alloc_mb": ALL,
}


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    digest = re.search(r"digest=(\S+)", out.stdout)
    return json.loads(lines[-1]), digest.group(1) if digest else ""


def check_result(result: dict, expected: list[dict], label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []
    if per_layer_names != set(LAYER_RUNS_ON):
        problems.append(f"LAYER_RUNS_ON covers {sorted(set(LAYER_RUNS_ON) ^ per_layer_names)} wrongly")
    for workload in (w["name"] for w in spec["workloads"]):
        first, digest_a = run(workload, 0)
        second, digest_b = run(workload, 0)
        traced, digest_c = run(workload, 1)
        problems += check_result(first, spec["end_to_end"], f"{workload} untraced")
        problems += check_result(second, spec["end_to_end"], f"{workload} untraced again")
        problems += check_result(traced, spec["per_layer"], f"{workload} traced")
        if not digest_a or len({digest_a, digest_b, digest_c}) != 1:
            problems.append(f"{workload}: release digests {digest_a} {digest_b} {digest_c} differ")
        for name, runs_on in LAYER_RUNS_ON.items():
            value = traced["metrics"].get(name, {}).get("value", 0)
            if workload in runs_on and not value > 0:
                problems.append(f"{workload}: {name} is {value} where its layer runs")
        print(f"{workload}: checked", file=sys.stderr)
    for problem in problems:
        print(problem)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
