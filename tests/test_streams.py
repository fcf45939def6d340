import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsketch.streams import (
    EMPTY_EVENT,
    FrequencyTable,
    IncrementalOracle,
    ResourceBudgetError,
    StreamConfig,
    WindowSpec,
    element,
    exact_frequencies,
    exact_heavy_hitters,
    exact_lp_moment,
    generate_stream,
    integer,
    mapping_sensitivity,
    neighboring_streams,
    stream_distance,
    window_view,
)


def ev(*ids):
    return [EMPTY_EVENT if i is None else element(i) for i in ids]


class TestExactFrequencies:
    def test_basic_count(self):
        table = exact_frequencies(ev(0, 1, 0, None))
        assert table.counts == {0: 2, 1: 1}
        assert table.total_nonempty == 3

    def test_empty_stream(self):
        table = exact_frequencies([])
        assert table.counts == {}
        assert table.total_nonempty == 0

    def test_zipf_total_matches_nonempty(self):
        cfg = StreamConfig(T=10_000, n=100)
        stream = generate_stream("zipf", cfg, seed=7, s=1.2)
        table = exact_frequencies(stream)
        nonempty = sum(1 for e in stream if e.is_element())
        assert table.total_nonempty == nonempty
        assert sum(table.counts.values()) == nonempty

    def test_integer_mode_rejected(self):
        with pytest.raises(ValueError):
            exact_frequencies([integer(3)])


class TestLpMoment:
    def test_p2(self):
        table = exact_frequencies(ev(0, 0, 1))
        assert exact_lp_moment(table, 2) == 5.0

    def test_p0_distinct(self):
        table = exact_frequencies(ev(0, 0, 1))
        assert exact_lp_moment(table, 0) == 2.0

    def test_p3(self):
        table = exact_frequencies(ev(0, 0, 0, 1, 1, 1, 2))
        assert exact_lp_moment(table, 3) == 55.0

    def test_p1_equals_total(self):
        table = exact_frequencies(ev(0, 1, 1, None, 2))
        assert exact_lp_moment(table, 1) == table.total_nonempty

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            exact_lp_moment(FrequencyTable(), -1)


class TestHeavyHitters:
    def test_single_heavy(self):
        table = exact_frequencies(ev(*([0] * 10 + [1])))
        assert exact_heavy_hitters(table, p=2, k=2) == {0}

    def test_symmetric(self):
        table = exact_frequencies(ev(0, 1))
        assert exact_heavy_hitters(table, p=1, k=2) == {0, 1}

    def test_zipf_against_scan(self):
        cfg = StreamConfig(T=10_000, n=100)
        table = exact_frequencies(generate_stream("zipf", cfg, seed=3, s=1.1))
        moment = sum(c**2 for c in table.counts.values())
        expected = {a for a, c in table.counts.items() if c**2 >= moment / 10}
        assert exact_heavy_hitters(table, p=2, k=10) == expected

    def test_k1_single_support(self):
        # with k=1 only an element carrying the whole moment qualifies
        table = exact_frequencies(ev(0, 0, 0))
        assert exact_heavy_hitters(table, p=2, k=1) == {0}
        assert exact_heavy_hitters(exact_frequencies(ev(0, 0, 1, 1, 2)), 2, 1) == set()

    def test_threshold_ties_included(self):
        table = exact_frequencies(ev(0, 0, 1, 1))
        assert exact_heavy_hitters(table, p=2, k=2) == {0, 1}

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            exact_heavy_hitters(FrequencyTable(), 2, 0)


class TestWindowView:
    def test_plain_window(self):
        stream = ev(0, 1, 2, 3, 4)
        assert window_view(stream, 5, WindowSpec(3)) == stream[2:5]

    def test_clamped_start(self):
        stream = ev(0, 1, 2, 3, 4)
        assert window_view(stream, 2, WindowSpec(10)) == stream[0:2]

    def test_length_identity(self):
        cfg = StreamConfig(T=64, n=8)
        stream = generate_stream("uniform", cfg, seed=1)
        for t in range(1, len(stream) + 1):
            assert len(window_view(stream, t, WindowSpec(7))) == min(t, 7)

    def test_full_window_is_prefix(self):
        stream = ev(0, 1, 2, 3)
        for t in range(1, 5):
            assert window_view(stream, t, WindowSpec(4)) == stream[:t]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            window_view(ev(0), 2, WindowSpec(1))


class TestIncrementalOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=1, max_size=40),
        W=st.one_of(st.none(), st.integers(1, 8)),
        p=st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]),
    )
    def test_matches_recomputed_oracles(self, ids, W, p):
        events = ev(*ids)
        oracle = IncrementalOracle(p, W)
        for t in range(1, len(events) + 1):
            oracle.add(events[t - 1])
            view = window_view(events, t, WindowSpec(W)) if W else events[:t]
            table = exact_frequencies(view)
            assert oracle.table == table
            assert oracle.total == table.total_nonempty
            assert oracle.lp() == pytest.approx(exact_lp_moment(table, p), rel=1e-12)
            for j in range(1, 9):
                with_j = sum(1 for c in table.counts.values() if c == j)
                assert oracle.at_frequency.get(j, 0) == with_j

    def test_integer_events_sum_values(self):
        oracle = IncrementalOracle(1.0, W=2)
        for x in (3, -1, 5):
            oracle.add(integer(x))
        assert oracle.total == 4
        assert oracle.lp() == 4.0
        assert len(oracle.table) == 0


class TestStreamDistance:
    def test_equal(self):
        assert stream_distance(ev(0, 1, 2), ev(0, 1, 2)) == 0

    def test_one_substitution(self):
        assert stream_distance(ev(0, 1, 2), ev(0, 3, 2)) == 1

    def test_integer_steps(self):
        assert stream_distance([integer(3)], [integer(5)]) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stream_distance(ev(0), ev(0, 1))

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_properties(self, a, b, c):
        n = max(len(a), len(b), len(c))
        a, b, c = (x + [0] * (n - len(x)) for x in (a, b, c))
        sa, sb, sc = ev(*a), ev(*b), ev(*c)
        dab = stream_distance(sa, sb)
        assert (dab == 0) == (sa == sb)
        assert dab == stream_distance(sb, sa)
        assert dab <= stream_distance(sa, sc) + stream_distance(sc, sb)


class TestMappingSensitivity:
    def test_identity_is_one(self):
        worst = mapping_sensitivity(lambda s: (list(s),), n=2, T=3)
        assert worst == 1

    def test_neighbors_enumerated(self):
        base = ev(0, 1)
        nbrs = list(neighboring_streams(base, n=2))
        # each position can switch to 2 other symbols (n=2 plus empty)
        assert len(nbrs) == 4
        assert all(stream_distance(base, nb) == 1 for nb in nbrs)

    def test_budget_enforced(self):
        with pytest.raises(ResourceBudgetError):
            mapping_sensitivity(lambda s: (list(s),), n=3, T=5, budget=10)

    def test_joint_aggregate_counts_positions(self):
        def split(stream):
            left = [e if i % 2 == 0 else EMPTY_EVENT for i, e in enumerate(stream)]
            right = [e if i % 2 == 1 else EMPTY_EVENT for i, e in enumerate(stream)]
            return (left, right)

        assert mapping_sensitivity(split, n=2, T=3, aggregate="joint") == 1
        assert mapping_sensitivity(split, n=2, T=3, aggregate="sum") == 1


class TestGenerators:
    def test_all_distinct(self):
        cfg = StreamConfig(T=5, n=8)
        stream = generate_stream("all_distinct", cfg, seed=0)
        assert len({e.value for e in stream}) == 5

    def test_all_distinct_needs_room(self):
        with pytest.raises(ValueError):
            generate_stream("all_distinct", StreamConfig(T=5, n=3), seed=0)

    def test_planted_heavy_frequency(self):
        cfg = StreamConfig(T=100, n=50)
        stream = generate_stream("planted_heavy", cfg, seed=5, frac=0.5)
        table = exact_frequencies(stream)
        assert table[0] == 50

    def test_zipf_rank_order(self):
        cfg = StreamConfig(T=10_000, n=100)
        table = exact_frequencies(generate_stream("zipf", cfg, seed=11, s=1.0))
        assert table[0] >= table[1]

    def test_deterministic_for_seed(self):
        cfg = StreamConfig(T=200, n=16)
        for kind in ("uniform", "zipf", "planted_heavy", "bursty"):
            a = generate_stream(kind, cfg, seed=42)
            b = generate_stream(kind, cfg, seed=42)
            assert a == b

    def test_bursty_has_right_length(self):
        cfg = StreamConfig(T=333, n=10)
        assert len(generate_stream("bursty", cfg, seed=9)) == 333

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_stream("nope", StreamConfig(T=4, n=4), seed=0)
