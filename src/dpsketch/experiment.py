"""Experiment runner and the sensitivity-check driver.

The runner replays generated streams through the CLI's streaming
subcommands (their builders and continual-release loop) and keeps the rows.

A sensitivity check maps a stream to the derived streams a mechanism's
counters or sub-estimators receive, runs that mapping through the brute-force
oracle over every neighboring pair and a fixed set of hash seeds, and compares
the worst total distance with the claimed bound.  The derived streams come
from the mechanism's own code, not from a copy kept for the check:

- counter streams (``distinct-indicator``, ``lowfreq-counters``,
  ``countsketch-buckets``) run the real mechanism with noise off, where every
  counter output is its exact running sum, and take each tick's first
  difference;
- routed element streams (``hh-substreams``, ``subsample-levels``) send each
  element to the stream the estimator's own ``_route`` picks.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import countsketch, distinct, heavy_hitters, low_freq
from .countsketch import CountSketchState
from .distinct import SmallUniverseDistinct, SubsampleParams, SubsampledDistinct
from .heavy_hitters import HHConfig, HHSketch
from .low_freq import LowFreqSmall
from .randomness import NoiseContext
from .streams import (
    EMPTY_EVENT,
    StreamConfig,
    StreamEvent,
    element,
    generate_stream,
    integer,
    mapping_sensitivity,
)
from .summing import BinaryTreeMechanism, Clock

DEFAULT_SENSITIVITY_SEEDS = tuple(range(101, 109))


# ---------------------------------------------------------------------------
# sensitivity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensitivityReport:
    mapping: str
    claimed: int
    observed: int
    aggregate: str
    seeds: tuple[int, ...]
    passed: bool

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.mapping}: observed={self.observed} claimed<={self.claimed} "
            f"({self.aggregate} over seeds {list(self.seeds)}) {verdict}"
        )


def _counter_streams(feed, read, events: Sequence[StreamEvent]) -> tuple:
    """The integer streams a bank of counters sums, one per counter.

    With noise off every counter output is its exact running sum, so the
    stream at each tick is the first difference of ``read()`` after
    ``feed(e)``.
    """
    rows, prev = [], 0.0
    for e in events:
        feed(e)
        out = np.atleast_1d(read())
        rows.append(out - prev)
        prev = out
    return tuple([integer(int(x)) for x in col] for col in zip(*rows))


def _routed_streams(route, targets, events: Sequence[StreamEvent]) -> tuple:
    """One element stream per target: ``route(id)`` names the target and the
    event it receives; every other target receives the empty symbol."""
    streams = {i: [] for i in targets}
    for e in events:
        target, sent = route(e.value) if e.is_element() else (None, None)
        for i, stream in streams.items():
            stream.append(sent if i == target else EMPTY_EVENT)
    return tuple(streams.values())


def _indicator_mapping(n: int, T: int, seed: int):
    def mapping(events: Sequence[StreamEvent]):
        ctx = NoiseContext(seed, noise_off=True)
        d = SmallUniverseDistinct(n, BinaryTreeMechanism(T, 1.0, ctx))
        return _counter_streams(d.feed, d.current, events)

    return mapping


def _counter_mapping(n: int, T: int, k: int, seed: int):
    def mapping(events: Sequence[StreamEvent]):
        lfs = LowFreqSmall(n, k, T, 1.0, NoiseContext(seed, noise_off=True))
        return _counter_streams(lfs.ingest, lfs.current, events)

    return mapping


def _bucket_mapping(n: int, T: int, k: int, seed: int):
    def mapping(events: Sequence[StreamEvent]):
        cs = CountSketchState(k, T, 1.0, NoiseContext(seed, noise_off=True))
        return _counter_streams(cs.feed, cs.outputs, events)

    return mapping


def _substream_mapping(n: int, T: int, k: int, m: int, seed: int):
    def mapping(events: Sequence[StreamEvent]):
        cfg = HHConfig(
            p=2.0, k=k, eta=0.2, epsilon=1.0, xi=0.1, T=T, n=n, copies=1, m_override=m
        )
        sketch = HHSketch(cfg, NoiseContext(seed, noise_off=True), 1.0, Clock(T))
        return _routed_streams(lambda a: (sketch._route(a), element(a)), range(m), events)

    return mapping


def _level_mapping(n: int, T: int, L: int, seed: int):
    params = SubsampleParams(L=L, lam=4, m=64, alpha=1.0, gamma=0.0, threshold=1.0)

    def mapping(events: Sequence[StreamEvent]):
        ctx = NoiseContext(seed, noise_off=True)
        sub = SubsampledDistinct(
            params, ctx, lambda key: BinaryTreeMechanism(T, 1.0, ctx.child(*key))
        )

        def route(ident: int):
            level, hashed = sub._route(ident)
            return level, element(hashed)

        return _routed_streams(route, range(1, L + 1), events)

    return mapping


def _identity_mapping(seed: int):
    def mapping(events: Sequence[StreamEvent]):
        return (list(events),)

    return mapping


@dataclass(frozen=True)
class _SensitivitySpec:
    factory: Callable
    claimed: Callable[[dict], int]
    aggregate: str


# each claim is the constant its mechanism divides epsilon by, read at check time
_SENSITIVITY_REGISTRY: dict[str, _SensitivitySpec] = {
    "identity": _SensitivitySpec(
        lambda n, T, p, seed: _identity_mapping(seed), lambda p: 1, "sum"
    ),
    "distinct-indicator": _SensitivitySpec(
        lambda n, T, p, seed: _indicator_mapping(n, T, seed),
        lambda p: distinct.INDICATOR_SENSITIVITY,
        "sum",
    ),
    "lowfreq-counters": _SensitivitySpec(
        lambda n, T, p, seed: _counter_mapping(n, T, p.get("k", 2), seed),
        lambda p: low_freq.COUNTER_SENSITIVITY_PER_K * p.get("k", 2),
        "sum",
    ),
    "countsketch-buckets": _SensitivitySpec(
        lambda n, T, p, seed: _bucket_mapping(n, T, p.get("k", 2), seed),
        lambda p: countsketch.BUCKET_SENSITIVITY,
        "sum",
    ),
    "hh-substreams": _SensitivitySpec(
        lambda n, T, p, seed: _substream_mapping(
            n, T, p.get("k", 2), p.get("m", 2), seed
        ),
        lambda p: heavy_hitters.SUBSTREAM_SENSITIVITY,
        "sum",
    ),
    "subsample-levels": _SensitivitySpec(
        lambda n, T, p, seed: _level_mapping(n, T, p.get("L", 2), seed),
        lambda p: 1,
        "joint",
    ),
}


def sensitivity_mappings() -> list[str]:
    return sorted(_SENSITIVITY_REGISTRY)


def sensitivity_check(
    mapping_id: str,
    n: int,
    T: int,
    budget: int = 10_000_000,
    seeds: Sequence[int] = DEFAULT_SENSITIVITY_SEEDS,
    **params: int,
) -> SensitivityReport:
    """Exhaustively measure one mapping's sensitivity against its claim."""
    if mapping_id not in _SENSITIVITY_REGISTRY:
        raise ValueError(
            f"unknown mapping {mapping_id!r}; known: {sensitivity_mappings()}"
        )
    spec = _SENSITIVITY_REGISTRY[mapping_id]
    observed = 0
    for seed in seeds:
        mapping = spec.factory(n, T, params, seed)
        observed = max(
            observed,
            mapping_sensitivity(mapping, n, T, budget=budget, aggregate=spec.aggregate),
        )
    claimed = spec.claimed(params)
    return SensitivityReport(
        mapping=mapping_id,
        claimed=claimed,
        observed=observed,
        aggregate=spec.aggregate,
        seeds=tuple(seeds),
        passed=observed <= claimed,
    )


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


# spec mechanism -> (streaming CLI subcommand, parameters the name fixes)
EXPERIMENT_MECHANISMS: dict[str, tuple[str, dict]] = {
    "sum": ("sum", {}),
    "distinct": ("distinct", {}),
    "f2": ("f2", {}),
    "moment": ("moment", {}),
    "sum-tree": ("sum", {"mechanism": "tree"}),
    "sum-group": ("sum", {"mechanism": "group"}),
    "distinct-small": ("distinct", {"universe": "small", "variant": "group"}),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One mechanism swept over a parameter grid and repeated trials.

    ``mechanism`` is a streaming CLI subcommand whose rows are (t, estimate,
    exact, error): ``sum``, ``distinct``, ``f2`` or ``moment`` (its error is
    relative), or ``sum-tree``, ``sum-group``, ``distinct-small``, which fix
    ``--mechanism`` or ``--universe small --variant group``.  Grid keys are
    that subcommand's flag names (``epsilon`` defaults to 1); ``T`` and ``n``
    also shape the generated stream.  Any other grid key is refused.
    """

    mechanism: str
    grid: dict[str, list]
    generator: dict
    trials: int = 1
    seed_base: int = 0
    noise_off: bool = False
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mechanism not in EXPERIMENT_MECHANISMS:
            raise ValueError(
                f"unknown experiment mechanism {self.mechanism!r}; "
                f"known: {sorted(EXPERIMENT_MECHANISMS)}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.grid:
            raise ValueError("parameter grid must be non-empty")
        from .cli import STREAMING  # cli imports this module

        name = EXPERIMENT_MECHANISMS[self.mechanism][0]
        known = {"T", "n"} | {f.lstrip("-").replace("-", "_") for f, _ in STREAMING[name].params}
        if not known.issuperset(self.grid):
            raise ValueError(f"grid keys {sorted(set(self.grid) - known)} are no flags of {name}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentSpec":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        try:
            return cls(**data)
        except TypeError as exc:  # a missing or unknown key
            raise ValueError(f"experiment spec {path}: {exc}") from None


@dataclass
class RunRecord:
    mechanism: str
    grid_point: dict
    trial: int
    rows: list[tuple[int, float, float, float]]
    summary: dict = field(default_factory=dict)

    def summarize(self, wall_time: float) -> None:
        errors = np.array([r[3] for r in self.rows]) if self.rows else np.zeros(1)
        self.summary = {
            "max_error": float(errors.max()),
            "q50_error": float(np.quantile(errors, 0.5)),
            "q90_error": float(np.quantile(errors, 0.9)),
            "q99_error": float(np.quantile(errors, 0.99)),
            "wall_time_s": wall_time,
            "rows": len(self.rows),
        }


def _run_one(spec: ExperimentSpec, grid_point: dict, trial: int) -> RunRecord:
    from .cli import command_params, drive  # cli imports this module

    gen = dict(spec.generator)
    kind = gen.pop("kind")
    cfg = StreamConfig(
        T=int(grid_point.get("T", gen.pop("T", 1024))),
        n=int(grid_point.get("n", gen.pop("n", 64))),
    )
    seed = NoiseContext(spec.seed_base).child_seed("trial", trial)
    stream = generate_stream(kind, cfg, seed, **gen)
    name, fixed = EXPERIMENT_MECHANISMS[spec.mechanism]
    params = command_params(
        name, **{"epsilon": 1.0, **grid_point, **fixed, "T": cfg.T, "n": cfg.n}
    )

    start = time.perf_counter()
    _, rows = drive(name, params, stream, NoiseContext(seed, noise_off=spec.noise_off))
    record = RunRecord(spec.mechanism, grid_point, trial, rows)
    record.summarize(time.perf_counter() - start)
    return record


def _grid_points(grid: dict[str, list]) -> list[dict]:
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[RunRecord]:
    """Run every (grid point, trial) pair; deterministic for a fixed seed base."""
    tasks = [(gp, trial) for gp in _grid_points(spec.grid) for trial in range(spec.trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_one_star, [(spec, gp, t) for gp, t in tasks]))
    else:
        records = [_run_one(spec, gp, t) for gp, t in tasks]
    if spec.output_dir:
        _write_records(spec, records)
    return records


def _run_one_star(args: tuple) -> RunRecord:
    return _run_one(*args)


def _point_slug(grid_point: dict) -> str:
    return "_".join(f"{k}={grid_point[k]}" for k in sorted(grid_point)) or "default"


def _write_records(spec: ExperimentSpec, records: list[RunRecord]) -> None:
    from .cli import STREAMING, _csv_line

    header = "trial," + STREAMING[EXPERIMENT_MECHANISMS[spec.mechanism][0]].header
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_point: dict[str, list[RunRecord]] = {}
    for rec in records:
        by_point.setdefault(_point_slug(rec.grid_point), []).append(rec)
    for slug, recs in by_point.items():
        path = out / f"{spec.mechanism}__{slug}.csv"
        lines = [header]
        for rec in sorted(recs, key=lambda r: r.trial):
            lines += [_csv_line((rec.trial, *row)) for row in rec.rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        summary_path = out / f"{spec.mechanism}__{slug}__summary.json"
        # wall time is kept in memory only so written artifacts are
        # byte-reproducible across runs
        stable = {
            str(r.trial): {k: v for k, v in r.summary.items() if k != "wall_time_s"}
            for r in sorted(recs, key=lambda r: r.trial)
        }
        summary_path.write_text(
            json.dumps(stable, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
