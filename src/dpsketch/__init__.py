"""Differentially private continual-release streaming estimators.

Estimators for sums, distinct elements, frequencies/F2, lp heavy hitters,
per-frequency counts, and lp moments, all under continual release, plus a
smooth-histogram adapter for sliding windows, exact oracles, and brute-force
sensitivity checkers.
"""

from .budget import BudgetEntry, MechanismBudget
from .countsketch import CountSketchState, F2Estimate, L2Config, L2Estimator
from .distinct import (
    BoostedEstimator,
    DistinctConfig,
    SmallUniverseDistinct,
    SubsampledDistinct,
    distinct_estimator,
)
from .heavy_hitters import HHConfig, HHSketch, hh_estimator, recall_threshold
from .low_freq import LowFreqConfig, LowFreqGeneral, LowFreqSmall, lowfreq_estimator
from .moment import (
    MomentConfig,
    MomentState,
    beta_sample,
    contributing_intervals,
    interval_index,
    moment_estimator,
)
from .randomness import (
    GeometricLevelHash,
    NoiseContext,
    PolyHashFamily,
    SignHash,
    median_boost,
)
from .sliding import SlidingBudget, SmoothHistogram, SmoothnessParams, window_estimator
from .streams import (
    EMPTY_EVENT,
    FrequencyTable,
    IncrementalOracle,
    StreamConfig,
    StreamEvent,
    WindowSpec,
    element,
    exact_frequencies,
    exact_heavy_hitters,
    exact_lp_moment,
    generate_stream,
    integer,
    mapping_sensitivity,
    stream_distance,
    window_view,
)
from .summing import BinaryTreeMechanism, GroupingMechanism, StateError

__version__ = "0.1.0"
