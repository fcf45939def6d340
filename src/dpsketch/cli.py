"""Command-line front door.

Each streaming subcommand is one row of :data:`STREAMING`; the parsers are
generated from the rows and :func:`drive` is the one continual-release loop.
The experiment runner (:class:`ExperimentSpec`, :func:`run_experiment`)
drives it too, over a parameter grid of one subcommand's flags; the
sensitivity checker lives in :mod:`dpsketch.sensitivity`.

Exit codes: 0 success, 2 configuration error, 3 IO error, 4 enumeration
budget exceeded, 5 a sensitivity check observed more than its claim.  All
randomness derives from --seed (or DPSKETCH_SEED); identical invocations
produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import struct
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .countsketch import L2Config, L2Estimator
from .distinct import INDICATOR_SENSITIVITY, DistinctConfig, SmallUniverseDistinct
from .distinct import distinct_estimator
from .heavy_hitters import HHConfig, hh_estimator
from .low_freq import LowFreqConfig, lowfreq_estimator
from .moment import MomentConfig, moment_estimator
from .randomness import NoiseContext
from .sensitivity import sensitivity_check, sensitivity_mappings
from .sliding import SlidingBudget, SmoothnessParams, default_max_live, window_estimator
from .streamio import StreamParseError, parse_stream_file
from .streams import (
    IncrementalOracle,
    ResourceBudgetError,
    StreamConfig,
    StreamEvent,
    event_count,
    generate_stream,
)
from .summing import GROUP, TREE, make_summing_backend, summing_guarantee

SNAPSHOT_MAGIC = b"DPCS1"
# an L2Estimator's state: magic, u16 version, u32 header length, a JSON header
# {config, seed, noise_off, t}, then its bucket counts as little-endian float64.
# Version 1 predates the splitmix64 hashes; version 2 held each copy's keys
SNAPSHOT_VERSION = 3


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _csv_line(row: tuple) -> str:
    return ",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row)


def _write_csv(path: str | None, header: str, rows: list[str]) -> None:
    text = "\n".join([header] + rows) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_events(args) -> list[StreamEvent]:
    mode = getattr(args, "mode", None)
    events, header = parse_stream_file(args.input, mode=mode)
    T = getattr(args, "T", None)
    if T is not None and len(events) > T:
        raise ConfigError(f"stream has {len(events)} events but --T is {T}")
    n = getattr(args, "n", None)
    if n is not None:
        for e in events:
            if e.is_element() and e.value >= n:
                raise ConfigError(f"element id {e.value} outside --n {n}")
    if header is not None:
        if T is not None and header.T != T:
            raise ConfigError(f"header T={header.T} disagrees with --T {T}")
        if n is not None and header.n != n:
            raise ConfigError(f"header n={header.n} disagrees with --n {n}")
        if mode is not None and header.mode != mode:
            raise ConfigError(f"header mode={header.mode} disagrees with --mode {mode}")
    return events


# ---------------------------------------------------------------------------
# streaming subcommands: estimator builders and CSV rows
# ---------------------------------------------------------------------------


class _Released:
    """Event-fed view of an estimator whose own feed does not return its
    release ``current()`` (summing mechanisms take event counts; L2 only
    ingests)."""

    def __init__(self, est, counts: bool = False) -> None:
        self.est = est
        self._counts = counts

    def feed(self, e: StreamEvent) -> float:
        self.est.feed(event_count(e) if self._counts else e)
        return self.est.current()


def _config(cls, a):
    """A config dataclass filled from the parameters named like its fields."""
    return cls(**{f.name: getattr(a, f.name) for f in fields(cls) if hasattr(a, f.name)})


def _build_sum(a, ctx):
    mech = make_summing_backend(a.mechanism, a.T, a.epsilon, a.eta, a.xi, ctx)
    return _Released(mech, counts=True)


def _build_distinct(a, ctx):
    if a.universe == "small":
        eps_sum = a.epsilon / INDICATOR_SENSITIVITY
        inner = make_summing_backend(a.variant, a.T, eps_sum, a.eta, a.xi, ctx)
        return SmallUniverseDistinct(a.n, inner)
    return distinct_estimator(_config(DistinctConfig, a), ctx)


def _build_f2(a, ctx):
    return _Released(L2Estimator(_config(L2Config, a), ctx))


def _build_heavy_hitters(a, ctx):
    return hh_estimator(_config(HHConfig, a), ctx)


def _build_low_freq(a, ctx):
    return lowfreq_estimator(_config(LowFreqConfig, a), ctx)


def _build_moment(a, ctx):
    return moment_estimator(_config(MomentConfig, a), ctx)


def _build_sliding(a, ctx):
    """Smooth histogram over single-copy instances of the --stat subcommand,
    each built at its per-instance epsilon over the remaining horizon.

    The shift takes its (alpha, gamma) from the grouping guarantee over the
    full horizon: of the backend an instance of sum runs, at the per-instance
    epsilon, or of distinct, over a small universe at that epsilon/5.  The
    other stats read it at unit epsilon."""
    inner = STREAMING[a.stat]
    shared = dict(eta=a.eta, xi=a.xi, n=a.n, p=a.p, tau=a.tau, copies=1)
    smoothness = SmoothnessParams.for_moment(inner.p(a), a.eta)

    def inner_factory(start_t: int, eps_instance: float):
        params = command_params(
            a.stat, **shared, T=a.T - start_t + 1, epsilon=eps_instance
        )
        return inner.build(params, ctx.child("sliding", start_t))

    max_live = default_max_live(a.T, smoothness.beta)
    eps_instance = SlidingBudget(a.epsilon, max_live).per_instance_epsilon
    # distinct: small universe, as sliding has no --universe flag.  f2, moment:
    # unit epsilon, a known bug open in ROADMAP.md ("Shift for --stat f2|moment")
    eps_inner = {"sum": eps_instance, "distinct": eps_instance / INDICATOR_SENSITIVITY}
    alpha, gamma = summing_guarantee(
        GROUP, a.T, eps_inner.get(a.stat, 1.0), a.eta, a.xi, ctx.noise_off
    )
    hist, _ = window_estimator(
        inner_factory, smoothness, a.W, a.T, a.epsilon, inner_alpha=alpha, inner_gamma=gamma
    )
    return hist


def _abs_error_row(t, value, exact, a):
    x = exact.lp()
    return [(t, value, x, abs(value - x))]


def _rel_error_row(t, value, exact, a):
    x = exact.lp()
    return [(t, value, x, abs(value - x) / x if x > 0 else 0.0)]


def _heavy_hitter_rows(t, report, exact, a):
    moment = exact.lp()
    rows = []
    for ident in sorted(report):
        f = exact.table[ident]
        in_exact = f**a.p >= moment / a.k if moment > 0 else False
        rows.append((t, ident, report[ident], float(f), int(in_exact)))
    return rows


def _low_freq_rows(t, values, exact, a):
    return [
        (t, j, values[j - 1], exact.at_frequency.get(j, 0)) for j in range(1, a.k + 1)
    ]


def _window_row(t, value, exact, a):
    return [(t, value, exact.lp())]


@dataclass(frozen=True)
class Streaming:
    """One continual-release subcommand.

    ``build(params, ctx)`` returns an estimator whose ``feed(event)`` returns
    the tick's release.  ``rows(t, release, exact, params)`` turns it and the
    exact oracle into CSV rows: ints print as they are, floats with 10
    significant digits.  ``p(params)`` is the moment order the oracle tracks.
    """

    help: str
    params: tuple[tuple[str, dict], ...]
    build: Callable
    header: str
    rows: Callable
    p: Callable = lambda a: 2.0


_EPSILON = ("--epsilon", dict(type=float, required=True))
_XI = ("--xi", dict(type=float, default=0.1))
_T = ("--T", dict(type=int, required=True))
_N = ("--n", dict(type=int, required=True))
_COPIES = ("--copies", dict(type=int, default=None))
_TAU = ("--tau", dict(type=float, default=None))


def _eta(default: float) -> tuple[str, dict]:
    return ("--eta", dict(type=float, default=default))


STREAMING: dict[str, Streaming] = {
    "sum": Streaming(
        "continual-release summing",
        (
            ("--mechanism", dict(choices=[TREE, GROUP], default=GROUP)),
            _EPSILON, _eta(0.1), _XI, _T,
            ("--mode", dict(choices=["elements", "integers"], default=None)),
        ),
        _build_sum,
        "t,estimate,exact,abs_error",
        _abs_error_row,
        lambda a: 1.0,
    ),
    "distinct": Streaming(
        "continual-release distinct elements",
        (
            _EPSILON, _eta(0.1), _XI, _T, _N,
            ("--variant", dict(choices=[TREE, GROUP], default=GROUP)),
            ("--universe", dict(choices=["small", "general"], default="small")),
            _COPIES,
        ),
        _build_distinct,
        "t,estimate,exact,abs_error",
        _abs_error_row,
        lambda a: 0.0,
    ),
    "f2": Streaming(
        "continual-release l2 frequency moment",
        (
            _EPSILON, _eta(0.2), _XI, _T, _N, _COPIES,
            ("--buckets", dict(type=int, default=None)),
            ("--snapshot-out", dict(default=None)),
        ),
        _build_f2,
        "t,estimate,exact,abs_error",
        _abs_error_row,
    ),
    "heavy-hitters": Streaming(
        "continual-release lp heavy hitters",
        (
            ("--p", dict(type=float, required=True)),
            ("--k", dict(type=int, required=True)),
            _EPSILON, _eta(0.2), _XI, _T, _N, _COPIES,
        ),
        _build_heavy_hitters,
        "t,element,f_hat,exact_f,in_exact_hh",
        _heavy_hitter_rows,
        lambda a: a.p,
    ),
    "low-freq": Streaming(
        "counts of elements at each frequency 1..k",
        (("--k", dict(type=int, required=True)), _EPSILON, _eta(0.25), _XI, _T, _N, _COPIES),
        _build_low_freq,
        "t,j,s_hat_j,exact_j",
        _low_freq_rows,
    ),
    "moment": Streaming(
        "lp frequency moment estimation",
        (
            ("--p", dict(type=float, required=True)),
            _EPSILON, _eta(0.25), _XI, _T, _N, _COPIES, _TAU,
        ),
        _build_moment,
        "t,F_hat_p,exact_F_p,rel_error",
        _rel_error_row,
        lambda a: a.p,
    ),
    "sliding": Streaming(
        "sliding-window statistics via smooth histogram",
        (
            ("--stat", dict(choices=["sum", "distinct", "f2", "moment"], required=True)),
            ("--W", dict(type=int, required=True)),
            _EPSILON, _eta(0.1), _XI, _T, _N,
            ("--p", dict(type=float, default=2.0)),
            _TAU,
        ),
        _build_sliding,
        "t,window_estimate,exact_window_value",
        _window_row,
        lambda a: STREAMING[a.stat].p(a),
    ),
}


def command_params(name: str, **values) -> argparse.Namespace:
    """Parameters of a streaming subcommand: each flag's entry in ``values``,
    else its default; keys that are no flag of it are ignored."""
    params = {}
    for flag, kw in STREAMING[name].params:
        dest = flag.lstrip("-").replace("-", "_")
        if dest not in values and kw.get("required"):
            raise ValueError(f"{name} needs a value for {dest}")
        params[dest] = values.get(dest, kw.get("default"))
    return argparse.Namespace(**params)


def drive(name: str, params, events, ctx: NoiseContext):
    """The continual-release loop: feed each event, read the release, and
    record the subcommand's rows against the incremental exact oracle.
    Returns the estimator and the rows."""
    cmd = STREAMING[name]
    exact = IncrementalOracle(cmd.p(params), getattr(params, "W", None))
    est = cmd.build(params, ctx)
    rows = []
    for t, e in enumerate(events, start=1):
        exact.add(e)
        rows.extend(cmd.rows(t, est.feed(e), exact, params))
    return est, rows


# ---------------------------------------------------------------------------
# experiment runner: drive over a parameter grid and repeated trials
# ---------------------------------------------------------------------------


# the streaming subcommands whose rows are (t, estimate, exact, error)
EXPERIMENT_MECHANISMS = ("sum", "distinct", "f2", "moment")


def _takes(kw: dict, value) -> bool:
    """Whether a flag takes a grid value as it is: one of its choices, else an
    instance of its type (an int passes for a float), or None where that is
    the default of a flag that is not required.  A bool is never taken, and
    nothing is coerced: int(2.5) would silently truncate T."""
    if value is None:
        return kw.get("default") is None and not kw.get("required")
    if isinstance(value, bool):
        return False
    if "choices" in kw:
        return value in kw["choices"]
    kind = kw.get("type", str)
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class ExperimentSpec:
    """One mechanism swept over a parameter grid and repeated trials.

    ``mechanism`` is one of :data:`EXPERIMENT_MECHANISMS` (``moment``'s error
    is relative).  Grid keys are that subcommand's flag names (``epsilon``
    defaults to 1), each with a non-empty list of values; ``T`` and ``n``
    also shape the generated stream.  Any other grid key is refused.
    ``generator`` names a :func:`~dpsketch.streams.generate_stream` ``kind``
    and its parameters, with the stream's ``T`` and ``n`` when the grid
    leaves them out.
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
                f"known: {list(EXPERIMENT_MECHANISMS)}"
            )
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed_base, int):
            raise ValueError(f"seed_base must be an integer, got {self.seed_base!r}")
        if not isinstance(self.grid, dict) or not self.grid:
            raise ValueError("parameter grid must be a non-empty object")
        flags = {f.lstrip("-").replace("-", "_"): kw for f, kw in STREAMING[self.mechanism].params}
        flags = {"T": _T[1], "n": _N[1], **flags}
        unknown = set(self.grid) - set(flags)
        if unknown:
            raise ValueError(f"grid keys {sorted(unknown)} are no flags of {self.mechanism}")
        not_lists = [k for k, v in self.grid.items() if not isinstance(v, list) or not v]
        if not_lists:
            raise ValueError(f"grid values of {not_lists} must be non-empty lists")
        misfits = [f"{k}={v!r}" for k, vs in self.grid.items() for v in vs
                   if not _takes(flags[k], v)]
        if misfits:
            raise ValueError(f"grid values {', '.join(misfits)} do not fit the choices or "
                             f"types of their {self.mechanism} flags")
        if not isinstance(self.generator, dict) or "kind" not in self.generator:
            raise ValueError(f"generator must be an object with a 'kind', got {self.generator!r}")
        misfits = [f"{k}={self.generator[k]!r}" for k in ("T", "n")
                   if k in self.generator and not _takes(flags[k], self.generator[k])]
        if misfits:
            raise ValueError(f"generator values {', '.join(misfits)} must be integers")
        if not isinstance(self.output_dir, (str, type(None))):
            raise ValueError(f"output_dir must be a path string, got {self.output_dir!r}")

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
    gen = dict(spec.generator)
    kind = gen.pop("kind")
    cfg = StreamConfig(
        T=grid_point.get("T", gen.pop("T", 1024)),
        n=grid_point.get("n", gen.pop("n", 64)),
    )
    seed = NoiseContext(spec.seed_base).child_seed("trial", trial)
    stream = generate_stream(kind, cfg, seed, **gen)
    params = command_params(
        spec.mechanism, **{"epsilon": 1.0, **grid_point, "T": cfg.T, "n": cfg.n}
    )

    start = time.perf_counter()
    _, rows = drive(spec.mechanism, params, stream, NoiseContext(seed, noise_off=spec.noise_off))
    record = RunRecord(spec.mechanism, grid_point, trial, rows)
    record.summarize(time.perf_counter() - start)
    return record


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[RunRecord]:
    """Run every (grid point, trial) pair; deterministic for a fixed seed base."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    keys = sorted(spec.grid)
    combos = itertools.product(*(spec.grid[k] for k in keys))
    tasks = [(spec, dict(zip(keys, c)), trial) for c in combos for trial in range(spec.trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_one, *zip(*tasks)))
    else:
        records = [_run_one(*task) for task in tasks]
    if spec.output_dir:
        _write_records(spec, records)
    return records


def _write_records(spec: ExperimentSpec, records: list[RunRecord]) -> None:
    """One CSV and one summary per grid point, its trials in order."""
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_point: dict[str, list[RunRecord]] = {}
    for rec in records:
        slug = "_".join(f"{k}={rec.grid_point[k]}" for k in sorted(rec.grid_point))
        by_point.setdefault(slug, []).append(rec)
    header = "trial," + STREAMING[spec.mechanism].header
    for slug, recs in by_point.items():
        stem = f"{spec.mechanism}__{slug}"
        lines = [header] + [_csv_line((rec.trial, *row)) for rec in recs for row in rec.rows]
        (out / f"{stem}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        # wall time is kept in memory only so written artifacts are
        # byte-reproducible across runs
        stable = {
            str(r.trial): {k: v for k, v in r.summary.items() if k != "wall_time_s"} for r in recs
        }
        (out / f"{stem}__summary.json").write_text(
            json.dumps(stable, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _cmd_stream(args) -> int:
    events = _load_events(args)
    ctx = NoiseContext(args.seed, noise_off=(args.noise == "off"))
    est, rows = drive(args.command, args, events, ctx)
    _write_csv(args.output, STREAMING[args.command].header, [_csv_line(r) for r in rows])
    if getattr(args, "snapshot_out", None):
        _snapshot_save(args.snapshot_out, est.est)
    return 0


# ---------------------------------------------------------------------------
# snapshot, sensitivity and experiment subcommands
# ---------------------------------------------------------------------------


def _snapshot_save(path: str, est: L2Estimator) -> None:
    state = {"seed": est.ctx.master_seed, "noise_off": est.ctx.noise_off, "t": est.t}
    head = json.dumps({"config": asdict(est.cfg), **state}).encode()
    blob = SNAPSHOT_MAGIC + struct.pack("<HI", SNAPSHOT_VERSION, len(head)) + head
    Path(path).write_bytes(blob + est.running.astype("<f8").tobytes())


def _snapshot_load(path: str) -> L2Estimator:
    blob = Path(path).read_bytes()
    if blob[:5] != SNAPSHOT_MAGIC:
        raise ConfigError(f"{path} is not a {SNAPSHOT_MAGIC.decode()} snapshot")
    version = int.from_bytes(blob[5:7], "little")
    if version != SNAPSHOT_VERSION:
        raise ConfigError(f"{path} is snapshot version {version}, not {SNAPSHOT_VERSION} "
                          "(re-run f2 --snapshot-out to rewrite it)")
    try:  # a truncated file, a header that does not parse, counts of another length
        (size,) = struct.unpack_from("<I", blob, 7)
        head = json.loads(blob[11 : 11 + size])
        est = L2Estimator(L2Config(**head["config"]), NoiseContext(head["seed"], head["noise_off"]))
        est.restore(head["t"], np.frombuffer(blob, "<f8", offset=11 + size))
    except (struct.error, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} is a damaged snapshot: {exc}") from None
    return est


def _cmd_point_query(args) -> int:
    est = _snapshot_load(args.snapshot)
    if not 0 <= args.element < est.cfg.n:
        raise ConfigError(f"element {args.element} outside the snapshot's [0, n={est.cfg.n})")
    estimate = est.point_query(args.element)
    _write_csv(args.output, "element,f_hat", [f"{args.element},{_fmt(estimate)}"])
    return 0


def _cmd_sensitivity_check(args) -> int:
    report = sensitivity_check(
        args.mapping,
        args.n,
        args.T,
        budget=args.budget,
        k=args.k,
        m=args.m,
        L=args.L,
    )
    line = report.line()
    if args.output and args.output != "-":
        Path(args.output).write_text(line + "\n", encoding="utf-8")
    sys.stdout.write(line + "\n")
    return 0 if report.passed else 5


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec.from_json(args.spec)
    records = run_experiment(spec, jobs=args.jobs)
    for rec in records:
        sys.stdout.write(
            f"{rec.mechanism} {rec.grid_point} trial={rec.trial} "
            f"max_error={rec.summary['max_error']:.6g}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# non-streaming subcommands: help, flags, handler
_TOOLS: dict[str, tuple[str, tuple[tuple[str, dict], ...], Callable]] = {
    "point-query": (
        "query a serialized sketch snapshot",
        (
            ("--element", dict(type=int, required=True)),
            ("--snapshot", dict(required=True)),
        ),
        _cmd_point_query,
    ),
    "sensitivity-check": (
        "brute-force sensitivity vs claims",
        (
            ("--mapping", dict(choices=sensitivity_mappings(), required=True)),
            ("--n", dict(type=int, default=2)),
            ("--T", dict(type=int, default=4)),
            ("--k", dict(type=int, default=2)),
            ("--m", dict(type=int, default=2)),
            ("--L", dict(type=int, default=2)),
            ("--budget", dict(type=int, default=10_000_000)),
        ),
        _cmd_sensitivity_check,
    ),
    "experiment": (
        "run an experiment spec",
        (
            ("--spec", dict(required=True, help="JSON ExperimentSpec")),
            ("--jobs", dict(type=int, default=1)),
        ),
        _cmd_experiment,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsketch",
        description="Differentially private continual-release streaming estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(name, c.help, c.params, _cmd_stream) for name, c in STREAMING.items()]
    commands += [(name, *tool) for name, tool in _TOOLS.items()]
    for name, help_text, params, func in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=int(os.environ.get("DPSKETCH_SEED", "0")))
        p.add_argument("--noise", choices=["on", "off"], default="on")
        p.add_argument("--output", default=None, help="CSV path (default stdout)")
        if name in STREAMING:
            p.add_argument("--input", required=True, help="stream file")
        for flag, kw in params:
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 4
    except StreamParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
