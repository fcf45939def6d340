"""lp frequency-moment estimation via randomized-boundary level sets.

Frequencies up to a cutoff k are counted exactly-by-frequency (low-frequency
block); higher frequencies are covered by geometric intervals
I_q = (beta(1+eta)^q, beta(1+eta)^(q+1)] whose populations are estimated from
per-level heavy-hitter reports, taking the deepest subsampling level with
enough reported mass.  The randomized base beta keeps true frequencies away
from interval boundaries.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .budget import BoostedConfig, check_p
from .heavy_hitters import HHConfig, HHSketch, noise_floor, tree_epsilon
from .low_freq import dhat_xi, low_freq_block
from .summing import BinaryTreeMechanism
from .randomness import LevelRouter, NoiseContext, even_independence, median_boost
from .streams import FrequencyTable, StreamEvent
from .distinct import BoostedEstimator

BELOW = "below"
ABOVE = "above"

# larger noise-floor factor than the standalone heavy hitters: interval
# populations are count-weighted by boundary^p, so one noise-inflated
# candidate is far costlier here than a spurious report there
GAMMA2_FACTOR = 0.2

# tau's cap, so the low-frequency block keeps at most about this many counters
MAX_LOW_FREQ_K = 64

# the exponent C of beta's (eta/T)^C grid
BETA_GRID_EXPONENT = 3

# budget units of the level-stream tuple (S0, S1..SL): one universe change
# touches S0 plus at most one level per stream version
LEVEL_TUPLE_UNITS = 3


def beta_sample(ctx: NoiseContext, eta: float, T: int) -> float:
    """Randomized interval base: uniform on a ((eta/T)^C)-grid of [1/2, 1],
    C = ``BETA_GRID_EXPONENT``.

    Deterministic convention 3/4 under noise-off.
    """
    if ctx.noise_off:
        return 0.75
    step = (eta / T) ** BETA_GRID_EXPONENT
    raw = 0.5 + 0.5 * ctx.uniform()
    beta = 0.5 + round((raw - 0.5) / step) * step
    return min(max(beta, 0.5), 1.0)


@dataclass(frozen=True, kw_only=True)
class MomentConfig(BoostedConfig):
    """Parameter block of the level-set estimator.

    ``tau`` is the heavy-hitter recall threshold splitting low from high
    frequencies; None derives it from the heavy-hitter backend's candidacy
    floor, raised to 1 if below; a given one must be >= 1.  Either is capped
    at ``MAX_LOW_FREQ_K``.
    """

    EVENTS_PER_TICK = 3  # as its low-frequency head's
    p: float
    tau: float | None = None

    def __post_init__(self) -> None:
        check_p(self.p)
        super().__post_init__()
        if self.tau is not None and not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.tau is not None and self.tau < 1:  # no frequency lies in (0, 1)
            raise ValueError(f"tau must be >= 1, got {self.tau}")


@dataclass(frozen=True)
class LevelSetShape:
    """Derived interval structure for one estimator copy."""

    beta: float
    tau: float
    q1: int
    q2: int
    k: int
    L: int
    lam: int
    B: float
    qualify_floor: float  # 8*lam/eta^2
    boundaries: tuple[float, ...]  # beta(1+eta)^q for q = q1 .. max(q1, q2+1)


def _geometric_boundary(beta: float, eta: float, q: int) -> float:
    return beta * (1.0 + eta) ** q


def build_shape(cfg: MomentConfig, beta: float, tau: float) -> LevelSetShape:
    eta, T = cfg.eta, cfg.T
    tau = max(1.0, min(tau, float(MAX_LOW_FREQ_K)))
    # smallest q with beta(1+eta)^q > tau; floating start, then exact fix-up
    q1 = math.floor(math.log(tau / beta) / math.log1p(eta)) + 1
    while _geometric_boundary(beta, eta, q1) <= tau:
        q1 += 1
    while _geometric_boundary(beta, eta, q1 - 1) > tau:
        q1 -= 1
    # smallest q with beta(1+eta)^(q+1) >= T
    q2 = math.ceil(math.log(T / beta) / math.log1p(eta)) - 1
    while _geometric_boundary(beta, eta, q2 + 1) < T:
        q2 += 1
    while q2 > q1 and _geometric_boundary(beta, eta, q2) >= T:
        q2 -= 1
    k = int(math.floor(_geometric_boundary(beta, eta, q1)))
    L = max(1, math.ceil(math.log2(cfg.n)))
    lam = even_independence(2 * math.log2(1000 * (L + 1) * math.log2(4 * T) / eta))
    B = (math.log2(4 * T) / eta) * 100 * (L + 1) * (32 * lam / eta**3) * (1 + eta) ** cfg.p
    return LevelSetShape(
        beta=beta,
        tau=tau,
        q1=q1,
        q2=q2,
        k=k,
        L=L,
        lam=lam,
        B=B,
        qualify_floor=8 * lam / eta**2,
        boundaries=tuple(
            _geometric_boundary(beta, eta, q) for q in range(q1, max(q1, q2 + 1) + 1)
        ),
    )


def interval_index(shape: LevelSetShape, f_hat: float):
    """The q with f_hat in (beta(1+eta)^q, beta(1+eta)^(q+1)], or below/above."""
    if f_hat < 0:
        raise ValueError(f"frequency estimate must be >= 0, got {f_hat}")
    # the number of boundaries below f_hat
    i = bisect_left(shape.boundaries, f_hat)
    if i == 0:
        return BELOW
    if i == len(shape.boundaries):
        return ABOVE
    return shape.q1 + i - 1


def contributing_intervals(
    table: FrequencyTable, shape: LevelSetShape, eta: float, p: float
) -> list[tuple[float, float]]:
    """Test oracle: intervals carrying an eta/(#intervals) moment share.

    Singleton intervals {1..k} are contributing by definition; a geometric
    interval contributes when its exact member mass reaches
    eta*||S||_p^p / (q2-q1+1).  Returns (lo, hi] bounds.
    """
    total = sum(c**p for c in table.counts.values())
    spans: list[tuple[float, float]] = []
    for l in range(1, shape.k + 1):
        spans.append((l - 0.5, l + 0.5))
    cut = eta * total / (shape.q2 - shape.q1 + 1)
    for q in range(shape.q1, shape.q2 + 1):
        lo = _geometric_boundary(shape.beta, eta, q)
        hi = _geometric_boundary(shape.beta, eta, q + 1)
        mass = sum(c**p for c in table.counts.values() if lo < c <= hi)
        if mass >= cut:
            spans.append((lo, hi))
    return spans


class MomentState:
    """One copy of the level-set moment estimator.

    Holds one heavy-hitter sketch per subsampling level (level 0 sees the
    full stream), plus a per-frequency counter block for the head.  Interval
    populations take, per interval, the best qualifying level's report count
    rescaled by 2^i.  The levels and the head run on the clock of ``bank``,
    whose owner ticks it, and the head's counters are windows of it.
    """

    def __init__(
        self,
        cfg: MomentConfig,
        ctx: NoiseContext,
        epsilon_unit: float,
        bank: BinaryTreeMechanism,
    ) -> None:
        self.cfg = cfg
        beta = beta_sample(ctx, cfg.eta, cfg.T)
        epsilon_tree = tree_epsilon(epsilon_unit)  # the levels' trees: one unit
        tau = cfg.tau
        if tau is None:  # from the candidacy floor of the levels' sketches
            _, floor = noise_floor(cfg.T, epsilon_tree, cfg.eta, GAMMA2_FACTOR, ctx.noise_off)
            tau = 4.0 * math.sqrt(floor)
        self.shape = build_shape(cfg, beta, tau)
        shape = self.shape
        # heavy-hitter instances: heaviness parameter B
        hh_cfg = HHConfig(
            p=cfg.p,
            k=max(1, math.ceil(shape.B)),
            eta=cfg.eta,
            epsilon=epsilon_unit,
            xi=cfg.xi,
            T=cfg.T,
            n=cfg.n,
            copies=1,
            gamma2_factor=GAMMA2_FACTOR,
        )
        # one clock for every level: a level given bins retests only the
        # arriving substream's candidates and counts its candidates per interval
        self.hh = [
            HHSketch(
                hh_cfg, ctx.child("moment-hh", i), epsilon_tree, bank.clock, key=(i,),
                bins=self._interval_slot,
            )
            for i in range(shape.L + 1)
        ]
        # the level hash, seeded "moment-g"; its id hash (range 1) goes unread
        self._route = LevelRouter(shape.L, shape.lam, 1, ctx, "moment")
        # the head block: one lowfreq_estimator copy at this copy's budget unit
        self.low_freq = low_freq_block(
            cfg.n, shape.k, cfg.T, cfg.eta, epsilon_unit,
            dhat_xi(cfg.xi, cfg.n_copies()), ctx.child("moment-lf"), bank,
        )
        # the weights current() applies every tick: boundary^p per interval
        # q = q1 .. q2 and l^p per low frequency
        self._interval_weights = [b**cfg.p for b in shape.boundaries[:-1]]
        self._low_freq_weights = [l**cfg.p for l in range(1, shape.k + 1)]

    def _interval_slot(self, f_hat: float) -> int | None:
        """q - q1 for the interval q holding a reported estimate, None below
        or above every interval; a noisy estimate below zero is below."""
        q = interval_index(self.shape, max(0.0, f_hat))
        return q - self.shape.q1 if isinstance(q, int) else None

    def ingest(self, e: StreamEvent) -> None:
        """Take the current timestamp's event without computing the estimate."""
        self.hh[0].ingest(e)
        if e.is_element():
            level = self._route(e.value)[0]
            if level is not None:
                self.hh[level].ingest(e)
        self.low_freq.ingest(e)

    def current(self) -> float:
        floor = self.shape.qualify_floor
        total = 0.0
        reports = [sketch.report() for sketch in self.hh]
        if any(reports):  # most ticks no level reports, and every z would be 0
            # interval populations from the levels' reports, counted per slot q - q1
            z_hat = [0.0] * len(self._interval_weights)
            for i, report in enumerate(reports):
                for slot, cnt in report.items():
                    if i == 0 or cnt >= floor:
                        z_hat[slot] = max(z_hat[slot], cnt * 2.0**i)
            for z, w in zip(z_hat, self._interval_weights):
                if z:
                    total += z * w
        # the clamped head max(0, s) * w, left to right after the intervals
        for s_hat, w in zip(self.low_freq.current(), self._low_freq_weights):
            if s_hat > 0:
                total += s_hat * w
        return total


def moment_estimator(cfg: MomentConfig, ctx: NoiseContext) -> BoostedEstimator:
    """Boosted moment estimator; per copy the budget splits into equal units,
    ``LEVEL_TUPLE_UNITS`` for the level-stream tuple and one for the
    low-frequency block.  Every copy runs on one clock, and the head counters
    of all copies are windows of one bank, each at its copy's epsilon."""

    def build(c: int, copy_ctx: NoiseContext, eps: float, bank: BinaryTreeMechanism):
        return MomentState(cfg, copy_ctx, eps / (LEVEL_TUPLE_UNITS + 1), bank)

    return BoostedEstimator(cfg, ctx, "moment-copy", build, median_boost)
