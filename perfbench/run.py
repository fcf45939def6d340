"""Continual-release benchmark for dpsketch.

Usage, from the repository root:

    python3 perfbench/run.py --workload moment-tick --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One invocation runs one workload in this process, single-threaded, through
the library's public API (``--workload all`` runs each workload in a fresh
child process in turn).  The stream is generated from ``--seed``, written with
``write_stream_file`` and read back with ``parse_stream_file`` as the CLI does.
Noise always comes from ``NoiseContext(7)``.

With ``--trace 0`` epochs (parse, build, one pass over the stream) repeat
until ``--seconds`` of tick time and at least MIN_EPOCHS epochs have run, and
the end-to-end metrics are printed; times are corrected for the machine's
speed (see ``speed.py``).  With ``--trace 1`` one untraced epoch gives the
reference throughput, one epoch runs with timing wrappers on the library's
public callables (``spans.py``), and a prefix of a third runs under
``tracemalloc``; the per-layer metrics are printed.  Per-layer counts and
times are totals over the traced epoch, so counts repeat exactly for a seed.

Every run also replays the stream on a noise-off twin of the estimator and
checks it against exact oracles.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# a run that grows past this stops at the next tick and reports what it has
HARD_LIMIT_S = 120.0
# set-up repeats at least this often and for at least this long
MIN_SETUP_REPS = 5
SETUP_BUDGET_S = 0.5
# at least three epochs: the segment medians can then outvote one disturbed
# epoch, and later epochs reuse freed memory, so peak RSS settles
MIN_EPOCHS = 3
# ticks per timing segment; at least 1000, so a segment's p99 has 10 samples beyond it
SEGMENT_TICKS = 8192
# tracemalloc slows allocation-heavy ticks about tenfold, so it runs over the
# first 1/ALLOC_SHARE of the stream only
ALLOC_SHARE = 8

END_TO_END = [
    ("events_per_s", "events/s"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "passed/attempted"),
]

MODULE_FILES = ("summing", "countsketch", "heavy_hitters", "low_freq", "moment", "randomness")

PER_LAYER = [
    ("summing.tree_reads", "count"),
    ("summing.tree_read_s", "s"),
    ("summing.group_feeds", "count"),
    ("summing.group_feed_s", "s"),
    ("randomness.node_draws", "count"),
    ("randomness.node_draw_s", "s"),
    ("randomness.laplace_draws", "count"),
    ("randomness.laplace_draw_s", "s"),
    ("randomness.ctx_built", "count"),
    ("randomness.ctx_s", "s"),
    ("randomness.hash_evals", "count"),
    ("randomness.hash_s", "s"),
    ("randomness.median_s", "s"),
    ("countsketch.f2_calls", "count"),
    ("countsketch.f2_s", "s"),
    ("countsketch.bucket_reads", "count"),
    ("countsketch.point_queries", "count"),
    ("countsketch.point_query_s", "s"),
    ("countsketch.sketches_built", "count"),
    ("countsketch.construct_s", "s"),
    ("heavy_hitters.ingest_s", "s"),
    ("heavy_hitters.report_s", "s"),
    ("heavy_hitters.self_s", "s"),
    ("heavy_hitters.candidacy_tests", "count"),
    ("heavy_hitters.admit_ratio", "held/test"),
    ("low_freq.ingest_s", "s"),
    ("low_freq.current_s", "s"),
    ("low_freq.self_s", "s"),
    ("moment.ingest_self_s", "s"),
    ("moment.current_self_s", "s"),
    ("distinct.feed_s", "s"),
    ("distinct.combine_s", "s"),
    ("sliding.feed_self_s", "s"),
    ("sliding.instances_built", "count"),
    ("sliding.construct_s", "s"),
    ("sliding.live_mean", "count"),
    ("sliding.live_peak", "count"),
    ("streamio.parse_s", "s"),
    ("estimator.construct_s", "s"),
    ("bench.driver_self_s", "s"),
    ("trace.overhead", "ratio"),
] + [(f"{m}.alloc_mb", "MiB") for m in MODULE_FILES]


def _import_library():
    """Import dpsketch from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dpsketch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dpsketch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpsketch

    if Path(dpsketch.__file__).resolve().parent != SRC / "dpsketch":
        sys.exit(f"perfbench: imported dpsketch from {dpsketch.__file__}, not {SRC}")


# --------------------------------------------------------------------------
# inputs and set-up
# --------------------------------------------------------------------------


def make_stream_file(wl, T: int, seed: int, workdir: Path) -> tuple[Path, bool]:
    """Write the seeded stream; returns (path, round trip lossless)."""
    from dpsketch import StreamConfig, generate_stream
    from dpsketch.streamio import parse_stream_file, write_stream_file
    from workloads import ZIPF_S

    cfg = StreamConfig(T=T, n=wl.n)
    events = generate_stream("zipf", cfg, seed, s=ZIPF_S)
    path = workdir / f"{wl.name}-{seed}.stream"
    write_stream_file(path, events, cfg)
    parsed, header = parse_stream_file(path)
    return path, parsed == events and header == cfg


class Setup:
    """Parse plus estimator build; every call is timed and speed-corrected."""

    def __init__(self, wl, T: int, path: Path) -> None:
        self.wl, self.T, self.path = wl, T, path
        self.parse_s: list[float] = []
        self.construct_s: list[float] = []

    def __call__(self, instrument=None):
        from dpsketch import NoiseContext, streamio
        from workloads import NOISE_SEED

        clock = time.perf_counter
        before = speed.kernel_ns()
        t0 = clock()
        events, _ = streamio.parse_stream_file(self.path)
        t1 = clock()
        if instrument is None:
            est = self.wl.build(self.T, NoiseContext(NOISE_SEED))
        else:
            est = self.wl.build(self.T, NoiseContext(NOISE_SEED), instrument)
        t2 = clock()
        factor = speed.scale(before, speed.kernel_ns())
        self.parse_s.append((t1 - t0) * factor)
        self.construct_s.append((t2 - t1) * factor)
        return events, est

    def warm(self) -> None:
        start = time.perf_counter()
        while len(self.parse_s) < MIN_SETUP_REPS or time.perf_counter() - start < SETUP_BUDGET_S:
            self()

    def median_s(self) -> float:
        return statistics.median(p + c for p, c in zip(self.parse_s, self.construct_s))


# --------------------------------------------------------------------------
# the tick loop
# --------------------------------------------------------------------------


class Loop:
    """Accumulates ticks, latencies and release digests over epochs.

    Latencies are stored as measured; ``marks`` holds (tick index, kernel
    time) pairs taken between stretches of ticks, for the speed correction.
    """

    def __init__(self, wl, deadline: float) -> None:
        self.wl = wl
        self.deadline_ns = int(deadline * 1e9)
        self.latency_ns = array("q")
        self.marks: list[tuple[int, int]] = []
        self.loop_ns = 0
        self.ticks = 0
        self.failed = 0
        self.epoch_rates: list[float] = []
        self.truncated = False
        self.digests: set[str] = set()

    def epoch(self, events, est) -> int:
        """One pass over the stream; returns the loop's wall time in ns,
        kernel timings excluded."""
        tick = self.wl.tick
        clock = time.perf_counter_ns
        latency = self.latency_ns
        marks = self.marks
        deadline = self.deadline_ns
        releases = array("d")
        failed = 0
        ticks = 0
        stretch = 0
        paused = 0  # time spent timing the kernel inside the loop
        marks.append((len(latency), speed.kernel_ns()))
        start = clock()
        for t, e in enumerate(events, start=1):
            t0 = clock()
            try:
                ok = tick(est, t, e, releases)
            except Exception:  # a raising tick is a failed tick; keep going
                ok = False
            t1 = clock()
            latency.append(t1 - t0)
            ticks += 1
            if not ok:
                failed += 1
            if t1 > deadline:
                self.truncated = True
                break
            stretch += t1 - t0
            if stretch >= speed.STRETCH_NS:
                stretch = 0
                marks.append((len(latency), speed.kernel_ns()))
                paused += clock() - t1
        wall = clock() - start - paused
        marks.append((len(latency), speed.kernel_ns()))
        self.loop_ns += wall
        self.ticks += ticks
        self.failed += failed
        self.epoch_rates.append(ticks / (wall / 1e9))
        if not self.truncated:
            self.digests.add(hashlib.blake2b(releases.tobytes(), digest_size=16).hexdigest())
        return wall

    def corrected_us(self):
        """Tick latencies in microseconds at the reference speed."""
        import numpy as np

        lat = np.frombuffer(self.latency_ns, dtype=np.int64) / 1e3
        factor = np.empty_like(lat)
        for (a, before), (b, after) in zip(self.marks, self.marks[1:]):
            factor[a:b] = speed.scale(before, after)
        return lat * factor

    def median_factor(self) -> float:
        kernels = sorted(k for _, k in self.marks)
        return speed.scale(kernels[len(kernels) // 2], kernels[len(kernels) // 2])

    def events_per_s(self) -> float:
        """Ticks per second of tick time at the reference speed."""
        return self.ticks / self.corrected_us().sum() * 1e6

    def segment_medians(self, T: int) -> dict[str, float]:
        """Throughput, p50 and p99 per segment of SEGMENT_TICKS, median over segments.

        Epochs hold T ticks, so every run cuts the same segments out of each
        epoch; the median keeps a burst of load from other processes on the
        machine out of the figures.
        """
        import numpy as np

        size = min(T, SEGMENT_TICKS)
        lat = self.corrected_us()
        segments = lat[: len(lat) // size * size].reshape(-1, size)
        p50, p99 = np.percentile(segments, [50, 99], axis=1)
        return {
            "events_per_s": float(np.median(size / segments.sum(axis=1))) * 1e6,
            "tick_p50_us": float(np.median(p50)),
            "tick_p99_us": float(np.median(p99)),
        }


# --------------------------------------------------------------------------
# end-to-end run
# --------------------------------------------------------------------------


def run_untraced(wl, setup: Setup, seconds: float, deadline: float) -> tuple[dict, list]:
    setup.warm()
    loop = Loop(wl, deadline)
    while (loop.loop_ns < seconds * 1e9 or len(loop.epoch_rates) < MIN_EPOCHS) and not loop.truncated:
        gc.collect()
        loop.epoch(*setup())
    metrics = loop.segment_medians(setup.T)
    metrics.update({
        "setup_s": setup.median_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(
        f"{loop.ticks} ticks ({len(loop.latency_ns)} latency samples) over "
        f"{loop.loop_ns / 1e9:.2f}s; measured events/s by epoch "
        + " ".join(f"{r:.6g}" for r in loop.epoch_rates)
        + f"; speed factor median {loop.median_factor():.3f}; {len(setup.parse_s)} set-ups"
    )
    return metrics, [loop]


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------


def _trace_targets(live: dict) -> list:
    from dpsketch import countsketch, distinct, low_freq, moment, summing
    from dpsketch.countsketch import CountSketchState, L2Estimator
    from dpsketch.distinct import BoostedEstimator, SmallUniverseDistinct
    from dpsketch.heavy_hitters import HHSketch
    from dpsketch.low_freq import LowFreqSmall
    from dpsketch.moment import MomentState
    from dpsketch.randomness import NoiseContext, PolyHashFamily
    from dpsketch.sliding import SmoothHistogram
    from dpsketch.summing import BinaryTreeMechanism, GroupingMechanism

    def held(args) -> None:
        live["held"] += len(args[0].candidates)

    def window(args) -> None:
        live["live_sum"] += args[0].live_instances
        live["live_ticks"] += 1
        live["live_peak"] = args[0].peak_live

    leaf, span = True, False
    return [
        # estimator boundary
        ("distinct.boosted_ingest", [(BoostedEstimator, "ingest")], span, None),
        ("distinct.boosted_current", [(BoostedEstimator, "current")], span, None),
        ("countsketch.l2_feed", [(L2Estimator, "feed")], span, None),
        ("countsketch.l2_f2", [(L2Estimator, "f2")], span, None),
        ("countsketch.l2_point_query", [(L2Estimator, "point_query")], span, None),
        ("sliding.feed", [(SmoothHistogram, "feed")], span, window),
        # public methods below the boundary
        ("moment.ingest", [(MomentState, "ingest")], span, None),
        ("moment.current", [(MomentState, "current")], span, None),
        ("heavy_hitters.ingest", [(HHSketch, "ingest")], span, held),
        ("heavy_hitters.report", [(HHSketch, "report")], span, None),
        ("low_freq.ingest", [(LowFreqSmall, "ingest")], span, None),
        ("low_freq.current", [(LowFreqSmall, "current")], span, None),
        ("countsketch.f2", [(CountSketchState, "f2")], span, None),
        ("countsketch.point_query", [(CountSketchState, "point_query")], span, None),
        ("countsketch.construct", [(CountSketchState, "__init__")], span, None),
        ("distinct.feed", [(SmallUniverseDistinct, "feed")], span, None),
        # hot leaves
        ("countsketch.bucket_read", [(CountSketchState, "bucket_output")], leaf, None),
        ("summing.tree_read", [(BinaryTreeMechanism, "current")], leaf, None),
        ("summing.group_feed", [(GroupingMechanism, "feed")], leaf, None),
        (
            "randomness.node_draw",
            [(summing, "node_laplace"), (countsketch, "node_laplace")],
            leaf,
            None,
        ),
        ("randomness.laplace_draw", [(NoiseContext, "laplace")], leaf, None),
        ("randomness.ctx", [(NoiseContext, "child")], leaf, None),
        ("randomness.hash", [(PolyHashFamily, "__call__")], leaf, None),
        (
            "randomness.median",
            [(m, "median_boost") for m in (distinct, countsketch, moment, low_freq)],
            leaf,
            None,
        ),
    ]


def _alloc_by_module(wl, setup: Setup, deadline: float) -> tuple[dict, Loop]:
    """Live memory per library source file after the first T/ALLOC_SHARE ticks."""
    import tracemalloc

    loop = Loop(wl, deadline)
    gc.collect()
    tracemalloc.start()
    try:
        events, est = setup()
        loop.epoch(events[: max(1, len(events) // ALLOC_SHARE)], est)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    loop.digests.clear()  # a prefix releases a digest of its own
    out = {m: 0.0 for m in MODULE_FILES}
    for stat in snapshot.statistics("filename"):
        path = Path(stat.traceback[0].filename)
        if path.parent == SRC / "dpsketch" and path.stem in out:
            out[path.stem] = stat.size / 2**20
    return out, loop


def run_traced(wl, setup: Setup, deadline: float) -> tuple[dict, list, bool]:
    from spans import Tracer

    setup.warm()
    reference = Loop(wl, deadline)
    gc.collect()
    reference.epoch(*setup())

    live = {"held": 0, "live_sum": 0, "live_ticks": 0, "live_peak": 0}
    tracer = Tracer()
    traced = Loop(wl, deadline)
    tracer.install(_trace_targets(live))
    try:
        gc.collect()
        events, est = setup(tracer.wrap)
        if hasattr(est, "combiner"):
            est.combiner = tracer.wrap("distinct.combine", est.combiner)
        tracer.reset()
        wall = traced.epoch(events, est) / 1e9
    finally:
        tracer.uninstall()
    del events, est

    alloc, alloc_loop = _alloc_by_module(wl, setup, deadline)

    stat = tracer.stat
    by_module = tracer.self_time_by_module()
    loop_self = wall - tracer.root_time()
    layers_self = sum(by_module.values())
    # every wrapped call nests inside one estimator-boundary span, so the
    # layers' self times and the loop's own time tile the loop
    sums_ok = abs(layers_self + loop_self - wall) <= 1e-6 * wall
    tests = tracer.calls_under("heavy_hitters.ingest", "countsketch.point_query")
    metrics = {
        "summing.tree_reads": stat("summing.tree_read").count,
        "summing.tree_read_s": stat("summing.tree_read").total,
        "summing.group_feeds": stat("summing.group_feed").count,
        "summing.group_feed_s": stat("summing.group_feed").total,
        "randomness.node_draws": stat("randomness.node_draw").count,
        "randomness.node_draw_s": stat("randomness.node_draw").total,
        "randomness.laplace_draws": stat("randomness.laplace_draw").count,
        "randomness.laplace_draw_s": stat("randomness.laplace_draw").total,
        "randomness.ctx_built": stat("randomness.ctx").count,
        "randomness.ctx_s": stat("randomness.ctx").total,
        "randomness.hash_evals": stat("randomness.hash").count,
        "randomness.hash_s": stat("randomness.hash").total,
        "randomness.median_s": stat("randomness.median").total,
        "countsketch.f2_calls": stat("countsketch.f2").count,
        "countsketch.f2_s": stat("countsketch.f2").total,
        "countsketch.bucket_reads": stat("countsketch.bucket_read").count,
        "countsketch.point_queries": stat("countsketch.point_query").count,
        "countsketch.point_query_s": stat("countsketch.point_query").total,
        "countsketch.sketches_built": stat("countsketch.construct").count,
        "countsketch.construct_s": stat("countsketch.construct").total,
        "heavy_hitters.ingest_s": stat("heavy_hitters.ingest").total,
        "heavy_hitters.report_s": stat("heavy_hitters.report").total,
        "heavy_hitters.self_s": by_module.get("heavy_hitters", 0.0),
        "heavy_hitters.candidacy_tests": tests,
        "heavy_hitters.admit_ratio": live["held"] / tests if tests else 0.0,
        "low_freq.ingest_s": stat("low_freq.ingest").total,
        "low_freq.current_s": stat("low_freq.current").total,
        "low_freq.self_s": by_module.get("low_freq", 0.0),
        "moment.ingest_self_s": stat("moment.ingest").own,
        "moment.current_self_s": stat("moment.current").own,
        "distinct.feed_s": stat("distinct.feed").total,
        "distinct.combine_s": stat("distinct.combine").total,
        "sliding.feed_self_s": stat("sliding.feed").own,
        "sliding.instances_built": stat("sliding.construct").count,
        "sliding.construct_s": stat("sliding.construct").total,
        "sliding.live_mean": live["live_sum"] / max(1, live["live_ticks"]),
        "sliding.live_peak": live["live_peak"],
        "streamio.parse_s": statistics.median(setup.parse_s),
        "estimator.construct_s": statistics.median(setup.construct_s),
        "bench.driver_self_s": loop_self,
        "trace.overhead": traced.events_per_s() / reference.events_per_s(),
    }
    metrics.update({f"{m}.alloc_mb": mb for m, mb in alloc.items()})
    print(
        f"traced epoch {wall:.4f}s = layers' self {layers_self:.4f}s + tick loop "
        f"{loop_self:.4f}s ({'ok' if sums_ok else 'MISMATCH'}); "
        f"{len(tracer.span_name)} spans kept"
    )
    shares = sorted(by_module.items(), key=lambda kv: -kv[1])
    print("self-time share: " + ", ".join(f"{m} {s / wall:.1%}" for m, s in shares))
    return metrics, [reference, traced, alloc_loop], sums_ok


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def run_one(args, wl) -> dict:
    from dpsketch.streamio import parse_stream_file

    T = wl.tiny_T if args.tiny else wl.T
    deadline = time.perf_counter() + HARD_LIMIT_S
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        path, lossless = make_stream_file(wl, T, args.seed, workdir)
        setup = Setup(wl, T, path)
        if args.trace:
            values, loops, sums_ok = run_traced(wl, setup, deadline)
            names = PER_LAYER
        else:
            values, loops = run_untraced(wl, setup, args.seconds, deadline)
            sums_ok = True
            names = END_TO_END
        events, _ = parse_stream_file(path)
        checked, check_failed = wl.check(events, T)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.ticks for loop in loops) + checked
    failed = sum(loop.failed for loop in loops) + check_failed
    digests = set().union(*(loop.digests for loop in loops))
    truncated = any(loop.truncated for loop in loops)
    values.setdefault("pass_ratio", (attempted - failed) / attempted)
    print(
        f"workload={wl.name} seed={args.seed} T={T} noise-off ticks checked={checked} "
        f"failed={check_failed}; releases digest={','.join(sorted(digests))}"
        + ("; TRUNCATED at the hard time limit" if truncated else "")
    )
    if not lossless:
        print("stream file round trip is lossy")
    correct = lossless and failed == 0 and len(digests) == 1 and sums_ok
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def run_all(args, names) -> dict:
    """Each workload in a fresh child process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
            print(f"  {name:16s} {metric:32s} {value['value']:>14.6g} {value['unit']}")
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny shapes, for the self-check")
    args = p.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args, list(WORKLOADS))
    elif args.workload in WORKLOADS:
        result = run_one(args, WORKLOADS[args.workload])
    else:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
