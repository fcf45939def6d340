import numpy as np
import pytest

from dpsketch.randomness import NoiseContext
from dpsketch.sliding import (
    SmoothHistogram,
    SmoothnessParams,
    default_max_live,
    relative_shift,
    window_estimator,
)
from dpsketch.streams import (
    EMPTY_EVENT,
    StreamConfig,
    WindowSpec,
    element,
    generate_stream,
    window_view,
)
from dpsketch.summing import GroupingMechanism, StateError


class ExactCount:
    """Exact non-empty counter standing in for a noise-off summing inner."""

    def __init__(self):
        self.total = 0.0

    def feed(self, e):
        if e is not None and e.is_element():
            self.total += 1.0
        return self.total


class TestSmoothnessParams:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            SmoothnessParams(zeta=0.1, beta=0.2)
        with pytest.raises(ValueError):
            SmoothnessParams(zeta=1.0, beta=0.5)

    def test_moment_constants(self):
        p2 = SmoothnessParams.for_moment(2.0, 0.2)
        assert p2.zeta == 0.2 and p2.beta == pytest.approx(0.01)
        p_small = SmoothnessParams.for_moment(0.5, 0.2)
        assert p_small.zeta == p_small.beta == 0.2
        p0 = SmoothnessParams.for_moment(0.0, 0.2)
        assert p0.zeta == p0.beta == 0.2


class TestShift:
    def test_boundary_case(self):
        shift = relative_shift(2.0, 5.0)
        assert shift == 10.0
        # worst-case pair g=10, g'=0: shifted ratio is exactly alpha
        assert (10.0 + shift) / (0.0 + shift) == 2.0

    def test_gamma_zero_identity(self):
        assert relative_shift(1.5, 0.0) == 0.0

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            relative_shift(1.0, 5.0)
        with pytest.raises(ValueError):
            relative_shift(0.5, 5.0)

    def test_property_scan(self):
        # any (alpha, gamma)-consistent pair becomes alpha-consistent after
        # the shift
        rng = np.random.default_rng(0)
        n = 100_000
        g = rng.uniform(0, 1e6, size=n)
        alpha = rng.uniform(1.01, 10.0, size=n)
        gamma = rng.uniform(0.0, 1e4, size=n)
        lo = g / alpha - gamma
        hi = alpha * g + gamma
        g_prime = lo + (hi - lo) * rng.random(n)
        z = alpha * gamma / (alpha - 1.0)
        shifted_ok = ((g + z) / alpha <= g_prime + z + 1e-9) & (
            g_prime + z <= alpha * (g + z) + 1e-9
        )
        assert shifted_ok.all()


def feed_stream(hist, stream):
    outs = []
    for e in stream:
        outs.append(hist.feed(e))
    return outs


class TestSmoothHistogram:
    def _count_hist(self, W, T, params=None, max_live=None):
        params = params or SmoothnessParams(zeta=0.1, beta=0.1)
        return SmoothHistogram(
            lambda start_t: ExactCount(), params, W, T, max_live=max_live
        )

    def test_window_factor_bound_binary_stream(self):
        eta = zeta = 0.1
        T, W = 512, 8
        rng = np.random.default_rng(7)
        stream = [
            element(0) if rng.random() < 0.6 else EMPTY_EVENT for _ in range(T)
        ]
        hist = self._count_hist(W, T, SmoothnessParams(zeta, 0.1))
        factor = 1.0 / (1.0 - eta - zeta)
        for t, e in enumerate(stream, start=1):
            est = hist.feed(e)
            exact = sum(1 for x in window_view(stream, t, WindowSpec(W)) if x.is_element())
            assert exact / factor - 1e-9 <= est <= factor * exact + 1e-9

    def test_full_window_equals_stream(self):
        T = 64
        stream = generate_stream("uniform", StreamConfig(T=T, n=8), seed=1)
        hist = self._count_hist(W=T, T=T)
        outs = feed_stream(hist, stream)
        exact = 0
        for out, e in zip(outs, stream):
            exact += 1 if e.is_element() else 0
            assert out == exact

    def test_bracketing_invariant(self):
        # the reported value never exceeds the oldest retained in-window
        # suffix's exact value and never drops below (1 - zeta) x window value
        T, W = 256, 16
        zeta = 0.15
        stream = generate_stream("bursty", StreamConfig(T=T, n=4), seed=3)
        hist = self._count_hist(W, T, SmoothnessParams(zeta, zeta))
        for t, e in enumerate(stream, start=1):
            est = hist.feed(e)
            window_exact = sum(
                1 for x in window_view(stream, t, WindowSpec(W)) if x.is_element()
            )
            assert est <= window_exact + 1e-9
            assert est >= (1 - zeta) * window_exact - 1e-9

    def test_instance_count_bounded(self):
        T = 2**12
        stream = generate_stream("uniform", StreamConfig(T=T, n=16), seed=5)
        hist = self._count_hist(W=64, T=T)
        bound = default_max_live(T, 0.1)
        for e in stream:
            hist.feed(e)
            assert hist.live_instances <= bound
        assert hist.peak_live <= bound

    def test_live_cap_enforced(self):
        hist = self._count_hist(W=8, T=64, max_live=2)
        hist.feed(element(0))
        hist.feed(element(0))
        with pytest.raises(StateError):
            hist.feed(element(0))

    def test_horizon_enforced(self):
        hist = self._count_hist(W=2, T=2)
        hist.feed(element(0))
        hist.feed(element(0))
        with pytest.raises(StateError):
            hist.feed(element(0))

    def test_shift_applied_and_removed(self):
        params = SmoothnessParams(zeta=0.2, beta=0.2)
        hist = SmoothHistogram(
            lambda start_t: ExactCount(), params, W=4, T=16, shift=100.0
        )
        out = hist.feed(element(0))
        assert out == 1.0  # shift subtracted from the report

    def test_shift_cap(self):
        params = SmoothnessParams(zeta=0.2, beta=0.2)
        with pytest.raises(ValueError):
            SmoothHistogram(lambda s: ExactCount(), params, W=4, T=4, shift=4.0**3 + 1)


class TestWindowEstimator:
    def test_ledger_exact(self):
        params = SmoothnessParams(zeta=0.1, beta=0.1)
        hist, budget = window_estimator(
            lambda start_t, eps: ExactCount(), params, W=8, T=256, epsilon=2.0
        )
        assert budget.composed_epsilon == 2.0
        assert budget.per_instance_epsilon == 2.0 / budget.max_live

    def test_feeds_bounded_by_budget(self):
        params = SmoothnessParams(zeta=0.1, beta=0.1)
        hist, budget = window_estimator(
            lambda start_t, eps: ExactCount(), params, W=16, T=512, epsilon=1.0
        )
        stream = generate_stream("uniform", StreamConfig(T=512, n=8), seed=2)
        for e in stream:
            hist.feed(e)
        assert hist.peak_live <= budget.max_live

    def test_dp_inner_window_estimate(self):
        # grouping-backed sliding sum at modest scale stays near the window
        # count within the inner mechanism envelope
        T, W, eta = 256, 32, 0.2

        def factory(start_t, eps):
            mech = GroupingMechanism(
                T, eps, eta, 0.2, NoiseContext(9000 + start_t)
            )

            class Adapter:
                def feed(self, e):
                    mech.feed(1 if e.is_element() else 0)
                    return mech.current()

            return Adapter()

        params = SmoothnessParams(zeta=eta, beta=eta)
        hist, budget = window_estimator(
            factory,
            params,
            W,
            T,
            epsilon=50.0,
            inner_alpha=1 + eta,
            inner_gamma=GroupingMechanism(
                T, budget_probe_eps(T, eta), eta, 0.2, NoiseContext(0)
            ).error_bound(),
        )
        stream = [element(0)] * T
        for e in stream:
            out = hist.feed(e)
        assert out >= 0.0


def budget_probe_eps(T: int, eta: float) -> float:
    return 50.0 / default_max_live(T, eta)
