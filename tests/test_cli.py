import hashlib
import json
import struct

import pytest

from dpsketch import countsketch
from dpsketch.cli import SNAPSHOT_MAGIC, SNAPSHOT_VERSION, STREAMING, command_params, drive, main
from dpsketch.randomness import NoiseContext
from dpsketch.sliding import SmoothnessParams, default_max_live, relative_shift
from dpsketch.streamio import parse_stream_file, write_stream_file
from dpsketch.streams import (
    StreamConfig,
    WindowSpec,
    exact_frequencies,
    exact_lp_moment,
    generate_stream,
    window_view,
)
from dpsketch.summing import GroupingMechanism

# every streaming subcommand, with arguments small enough for a 64-event stream
STREAMING_ARGS = {
    "sum-tree": ["sum", "--mechanism", "tree", "--epsilon", "1", "--T", "64"],
    "sum-group": ["sum", "--epsilon", "64", "--T", "64"],
    "distinct": ["distinct", "--epsilon", "1", "--T", "64", "--n", "16",
                 "--variant", "tree"],
    "distinct-general": ["distinct", "--epsilon", "1", "--T", "64", "--n", "16",
                         "--universe", "general", "--copies", "2"],
    "f2": ["f2", "--epsilon", "1", "--T", "64", "--n", "16", "--copies", "2",
           "--buckets", "16"],
    "heavy-hitters": ["heavy-hitters", "--p", "2", "--k", "2", "--epsilon", "64",
                      "--T", "64", "--n", "16", "--copies", "2"],
    "low-freq": ["low-freq", "--k", "2", "--epsilon", "1", "--T", "64", "--n", "16",
                 "--copies", "2"],
    "moment": ["moment", "--p", "2", "--epsilon", "1", "--T", "64", "--n", "16",
               "--copies", "1"],
}
for _stat in ("sum", "distinct", "f2", "moment"):
    STREAMING_ARGS[f"sliding-{_stat}"] = [
        "sliding", "--stat", _stat, "--W", "8", "--epsilon", "8", "--eta", "0.4",
        "--T", "64", "--n", "16", "--p", "2", "--tau", "4",
    ]

GOLDEN_HEADERS = {
    "sum": "t,estimate,exact,abs_error",
    "distinct": "t,estimate,exact,abs_error",
    "f2": "t,estimate,exact,abs_error",
    "heavy-hitters": "t,element,f_hat,exact_f,in_exact_hh",
    "low-freq": "t,j,s_hat_j,exact_j",
    "moment": "t,F_hat_p,exact_F_p,rel_error",
    "sliding": "t,window_estimate,exact_window_value",
    "point-query": "element,f_hat",
}


@pytest.fixture
def stream_file(tmp_path):
    cfg = StreamConfig(T=64, n=16)
    stream = generate_stream("zipf", cfg, seed=3, s=1.2)
    path = tmp_path / "stream.txt"
    write_stream_file(path, stream, cfg)
    return str(path)


def run(args):
    return main(args)


class TestSubcommands:
    def test_sum_tree_noise_off_exact(self, stream_file, tmp_path):
        out = tmp_path / "out.csv"
        code = run(
            ["sum", "--mechanism", "tree", "--epsilon", "1", "--T", "64",
             "--input", stream_file, "--output", str(out), "--noise", "off"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADERS["sum"]
        for line in lines[1:]:
            t, est, exact, err = line.split(",")
            assert est == exact and err == "0"

    def test_distinct_small_noise_off_exact(self, stream_file, tmp_path):
        out = tmp_path / "out.csv"
        code = run(
            ["distinct", "--epsilon", "1", "--T", "64", "--n", "16",
             "--input", stream_file, "--output", str(out), "--noise", "off",
             "--variant", "tree"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADERS["distinct"]
        assert all(line.split(",")[3] == "0" for line in lines[1:])

    def test_low_freq_noise_off_exact(self, stream_file, tmp_path):
        out = tmp_path / "out.csv"
        code = run(
            ["low-freq", "--k", "2", "--epsilon", "1", "--T", "64", "--n", "16",
             "--copies", "2", "--input", stream_file, "--output", str(out),
             "--noise", "off"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADERS["low-freq"]
        for line in lines[1:]:
            _, _, s_hat, exact = line.split(",")
            assert float(s_hat) == float(exact)

    def test_f2_and_point_query_snapshot(self, stream_file, tmp_path):
        out = tmp_path / "f2.csv"
        snap = tmp_path / "sketch.dpcs"
        code = run(
            ["f2", "--epsilon", "1", "--T", "64", "--n", "16", "--copies", "2",
             "--buckets", "32", "--input", stream_file, "--output", str(out),
             "--snapshot-out", str(snap), "--noise", "off"]
        )
        assert code == 0
        assert snap.read_bytes()[:5] == b"DPCS1"
        pq = tmp_path / "pq.csv"
        code = run(
            ["point-query", "--element", "0", "--snapshot", str(snap),
             "--output", str(pq)]
        )
        assert code == 0
        lines = pq.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADERS["point-query"]

    def test_heavy_hitters_csv(self, stream_file, tmp_path):
        out = tmp_path / "hh.csv"
        code = run(
            ["heavy-hitters", "--p", "2", "--k", "2", "--epsilon", "4",
             "--T", "64", "--n", "16", "--copies", "1", "--input", stream_file,
             "--output", str(out), "--noise", "off"]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == GOLDEN_HEADERS["heavy-hitters"]

    def test_moment_csv(self, stream_file, tmp_path):
        out = tmp_path / "m.csv"
        code = run(
            ["moment", "--p", "2", "--epsilon", "1", "--T", "64", "--n", "16",
             "--copies", "1", "--input", stream_file, "--output", str(out),
             "--noise", "off"]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == GOLDEN_HEADERS["moment"]

    @pytest.mark.parametrize("stat", ["sum", "distinct", "f2", "moment"])
    def test_sliding_csv(self, stat, stream_file, tmp_path):
        out = tmp_path / "w.csv"
        code = run(
            ["sliding", "--stat", stat, "--W", "8", "--epsilon", "8",
             "--T", "64", "--n", "16", "--p", "2", "--tau", "4",
             "--input", stream_file, "--output", str(out), "--noise", "off"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADERS["sliding"]
        assert len(lines) == 65

    def test_sensitivity_check_runs(self, tmp_path, capsys):
        code = run(["sensitivity-check", "--mapping", "identity", "--n", "2", "--T", "3"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_experiment_runs(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "mechanism": "sum",
                    "grid": {"mechanism": ["tree"], "epsilon": [1.0], "T": [16]},
                    "generator": {"kind": "uniform", "n": 4},
                    "trials": 1,
                    "seed_base": 0,
                    "noise_off": True,
                }
            )
        )
        assert run(["experiment", "--spec", str(spec)]) == 0
        assert "max_error=0" in capsys.readouterr().out


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, stream_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(
                ["sum", "--mechanism", "group", "--epsilon", "1", "--T", "64",
                 "--seed", "42", "--input", stream_file, "--output", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_different_seed_differs(self, stream_file, tmp_path):
        outs = []
        for seed, name in (("1", "a.csv"), ("2", "b.csv")):
            out = tmp_path / name
            run(
                ["sum", "--mechanism", "tree", "--epsilon", "1", "--T", "64",
                 "--seed", seed, "--input", stream_file, "--output", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_env_seed_used(self, stream_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DPSKETCH_SEED", "77")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sum", "--mechanism", "group", "--epsilon", "1", "--T", "64",
             "--input", stream_file, "--output", str(out1)])
        run(["sum", "--mechanism", "group", "--epsilon", "1", "--T", "64",
             "--seed", "77", "--input", stream_file, "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


    @pytest.mark.parametrize("name", sorted(STREAMING_ARGS))
    def test_noise_on_repeated_runs_identical(self, name, stream_file, tmp_path):
        outs = []
        for out in (tmp_path / "a.csv", tmp_path / "b.csv"):
            code = run(
                STREAMING_ARGS[name]
                + ["--seed", "42", "--input", stream_file, "--output", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].decode().splitlines()) > 1


class TestSlidingExactColumn:
    @pytest.mark.parametrize(
        "stat,p", [("sum", 1.0), ("distinct", 0.0), ("f2", 2.0), ("moment", 3.0)]
    )
    def test_matches_window_oracle(self, stat, p, tmp_path):
        cfg = StreamConfig(T=96, n=12)
        path = tmp_path / "bursty.txt"
        write_stream_file(path, generate_stream("bursty", cfg, seed=11), cfg)
        events, _ = parse_stream_file(path)
        out = tmp_path / "w.csv"
        W = 10
        code = run(
            ["sliding", "--stat", stat, "--W", str(W), "--epsilon", "8",
             "--eta", "0.4", "--T", "96", "--n", "12", "--p", "3", "--tau", "4",
             "--input", str(path), "--output", str(out), "--noise", "off"]
        )
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == len(events)
        for t, line in enumerate(lines, start=1):
            table = exact_frequencies(window_view(events, t, WindowSpec(W)))
            expected = float(len(table)) if p == 0 else exact_lp_moment(table, p)
            col_t, _, exact = line.split(",")
            assert int(col_t) == t
            assert float(exact) == expected


class TestSnapshotRoundTrip:
    def test_point_query_from_noisy_snapshot_equals_live_sketch(self, stream_file, tmp_path):
        # the restored sketch starts a fresh noise bank at t = T; keyed node
        # noise makes its point query equal the live sketch's final one
        args = ["f2", "--epsilon", "1", "--T", "64", "--n", "16", "--copies", "3",
                "--buckets", "32", "--seed", "5"]
        snap = tmp_path / "sketch.dpcs"
        code = run(args + ["--input", stream_file, "--output", str(tmp_path / "f2.csv"),
                           "--snapshot-out", str(snap)])
        assert code == 0
        params = command_params(
            "f2", epsilon=1.0, T=64, n=16, copies=3, buckets=32
        )
        events, _ = parse_stream_file(stream_file)
        live, _ = drive("f2", params, events, NoiseContext(5))
        for element_id in (0, 3, 15):
            pq = tmp_path / f"pq{element_id}.csv"
            code = run(["point-query", "--element", str(element_id), "--snapshot",
                        str(snap), "--output", str(pq)])
            assert code == 0
            want = f"{element_id},{live.est.point_query(element_id):.10g}"
            assert pq.read_text().splitlines()[1] == want

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_snapshot_version_is_refused(self, version, tmp_path, capsys):
        # version 1 rebuilds h and g from an earlier derivation, version 2 holds
        # each copy's internal keys; neither is read, so neither answers from
        # buckets other than its counts were taken in
        k, key_json = 4, json.dumps(["cs", 0]).encode()
        blob = SNAPSHOT_MAGIC + struct.pack("<HI", version, 1)
        blob += struct.pack("<IQQBdQI", k, 64, 64, 0, 0.5, 5, len(key_json)) + key_json
        blob += struct.pack(f"<{k}d", 3.0, -1.0, 0.0, 2.0)
        snap = tmp_path / f"v{version}.dpcs"
        snap.write_bytes(blob)
        code = run(["point-query", "--element", "0", "--snapshot", str(snap),
                    "--output", str(tmp_path / "pq.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"snapshot version {version}" in err and "re-run f2 --snapshot-out" in err

    @pytest.fixture
    def snapshot(self, stream_file, tmp_path):
        snap = tmp_path / "sketch.dpcs"
        code = run(["f2", "--epsilon", "1", "--T", "64", "--n", "16", "--copies", "3",
                    "--buckets", "32", "--seed", "5", "--input", stream_file,
                    "--output", str(tmp_path / "f2.csv"), "--snapshot-out", str(snap)])
        assert code == 0
        return snap.read_bytes()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob[:40],  # a truncated file, cut inside the header
            lambda blob: blob[:11] + b"{" * (len(blob) - 11),  # a header that does not parse
            lambda blob: blob[:-8],  # one bucket count short
            lambda blob: blob + bytes(8),  # one bucket count over
            lambda blob: blob[:8],  # cut inside the header length
        ],
        ids=["truncated", "unparsable-header", "short-counts", "long-counts", "no-header"],
    )
    def test_damaged_snapshot_is_a_config_error(self, damage, snapshot, tmp_path, capsys):
        snap = tmp_path / "damaged.dpcs"
        snap.write_bytes(damage(snapshot))
        code = run(["point-query", "--element", "0", "--snapshot", str(snap),
                    "--output", str(tmp_path / "pq.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_snapshot_holds_the_estimator_state(self, snapshot):
        # magic, version, header length, header, then copies * buckets counts
        version, size = struct.unpack_from("<HI", snapshot, 5)
        head = json.loads(snapshot[11 : 11 + size])
        assert version == SNAPSHOT_VERSION == 3
        assert head["config"] == dict(epsilon=1.0, eta=0.2, xi=0.1, n=16, T=64, copies=3, buckets=32)
        assert (head["seed"], head["noise_off"], head["t"]) == (5, False, 64)
        assert len(snapshot) == 11 + size + 3 * 32 * 8

    def test_snapshot_bytes_are_pinned(self, snapshot):
        # blake2b-128 of the whole file before the configs shared one parameter
        # block; the header's keys follow L2Config's field order, base class first
        digest = hashlib.blake2b(snapshot, digest_size=16).hexdigest()
        assert digest == "1bf715f9c8f1a585286a7328fbbc6ca5"


class TestSlidingShift:
    @pytest.mark.parametrize("stat,p,sensitivity", [("sum", 1.0, 1), ("distinct", 0.0, 5)])
    def test_shift_comes_from_the_inner_backend(self, stat, p, sensitivity):
        # the inner grouping mechanism runs at epsilon/max_live (then /5 for
        # distinct's indicator stream), so its additive error sizes the shift
        T, eps, eta, xi = 512, 8.0, 0.4, 0.1
        params = command_params(
            "sliding", stat=stat, W=32, epsilon=eps, eta=eta, xi=xi, T=T, n=64,
            p=2.0, tau=4.0,
        )
        hist = STREAMING["sliding"].build(params, NoiseContext(1))
        eps_instance = eps / default_max_live(T, SmoothnessParams.for_moment(p, eta).beta)
        inner = GroupingMechanism(T, eps_instance / sensitivity, eta, xi, NoiseContext(1))
        assert hist.shift == pytest.approx(
            relative_shift(1 + eta, inner.error_bound()), rel=1e-12
        )

    def test_noise_off_shift_is_zero(self):
        params = command_params(
            "sliding", stat="sum", W=8, epsilon=8.0, T=64, n=16, p=2.0, tau=4.0
        )
        hist = STREAMING["sliding"].build(params, NoiseContext(1, noise_off=True))
        assert hist.shift == 0.0


# the element-only estimators that used to skip integer events unchecked:
# heavy hitters at any n, and the level-subsampled paths (n > 2^14)
ELEMENT_ONLY_ARGS = {
    "heavy-hitters": ["heavy-hitters", "--p", "2", "--k", "2", "--epsilon", "1",
                      "--n", "16", "--copies", "1"],
    "distinct-general": ["distinct", "--universe", "general", "--epsilon", "1",
                         "--n", str(1 << 15), "--copies", "1"],
    "low-freq-general": ["low-freq", "--k", "2", "--epsilon", "1", "--n", str(1 << 15),
                         "--copies", "1"],
    "moment-general": ["moment", "--p", "2", "--epsilon", "1", "--n", str(1 << 15),
                       "--copies", "1"],
}


class TestIntegerStreamRefused:
    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("name", sorted(ELEMENT_ONLY_ARGS))
    def test_exits_2(self, name, header, tmp_path, capsys):
        path = tmp_path / "ints.txt"
        args = ELEMENT_ONLY_ARGS[name]
        lines = ["+3", "-1", "+2", "+1"]
        if header:
            lines.insert(0, f"#T=8 n={args[args.index('--n') + 1]} mode=integers")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        code = run(args + ["--T", "8", "--input", str(path), "--output", str(out)])
        assert code == 2
        assert "requires an elements-mode stream" in capsys.readouterr().err


def _with(args, flag, value):
    """``args`` with ``flag`` set to ``value``."""
    args = list(args)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    return args


class TestRefusedValues:
    """Values a subcommand cannot honour exit as a configuration error (2)."""

    @pytest.mark.parametrize("copies", ["0", "-1"])
    @pytest.mark.parametrize(
        "name", ["distinct-general", "f2", "heavy-hitters", "low-freq", "moment"]
    )
    def test_copies_below_one(self, name, copies, stream_file, capsys):
        # --copies 0 once exited 1 with a ZeroDivisionError traceback
        code = run(_with(STREAMING_ARGS[name], "--copies", copies) + ["--input", stream_file])
        assert code == 2
        assert f"copies must be >= 1, got {copies}" in capsys.readouterr().err

    @pytest.mark.parametrize("xi", ["0", "0.5", "0.9"])
    @pytest.mark.parametrize("name", ["heavy-hitters", "moment"])
    def test_xi_outside_the_open_half_unit(self, name, xi, stream_file, capsys):
        # --xi 0 once exited 1 with a ZeroDivisionError traceback, --xi 0.9 ran
        code = run(_with(STREAMING_ARGS[name], "--xi", xi) + ["--input", stream_file])
        assert code == 2
        assert f"xi must be in (0, 0.5), got {float(xi)}" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    @pytest.mark.parametrize(
        "name",
        ["sum-tree", "sum-group", "distinct", "distinct-general", "f2", "heavy-hitters",
         "low-freq", "moment", "sliding-sum", "sliding-distinct"],
    )
    def test_epsilon_not_finite(self, name, epsilon, stream_file, capsys):
        # inf once released exact prefix sums as noisy ones; nan released nan,
        # 0 at every tick, or an empty heavy-hitter report, and exited 0.  The
        # grouping backend once refused them naming no flag
        code = run(_with(STREAMING_ARGS[name], "--epsilon", epsilon) + ["--input", stream_file])
        assert code == 2
        assert f"epsilon must be > 0 and finite, got {float(epsilon)}" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["-5", "0", "nan"])
    @pytest.mark.parametrize("name", ["moment", "sliding-moment"])
    def test_tau_not_above_zero(self, name, tau, stream_file, capsys):
        # once run with tau silently raised to 1
        code = run(_with(STREAMING_ARGS[name], "--tau", tau) + ["--input", stream_file])
        assert code == 2
        assert f"tau must be > 0, got {float(tau)}" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["0.5", "0.999"])
    @pytest.mark.parametrize("name", ["moment", "sliding-moment"])
    def test_tau_below_one(self, name, tau, stream_file, capsys):
        # once run as tau = 1, to which the level-set shape raised it
        code = run(_with(STREAMING_ARGS[name], "--tau", tau) + ["--input", stream_file])
        assert code == 2
        assert f"tau must be >= 1, got {float(tau)}" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("name", ["heavy-hitters", "moment", "sliding-moment"])
    def test_p_negative_or_not_finite(self, name, p, stream_file, capsys):
        # inf once exited 1 with an OverflowError traceback, nan exited 2
        # naming no flag, and sliding-moment at -1 exited 1 with a
        # ZeroDivisionError from the exact oracle
        code = run(_with(STREAMING_ARGS[name], "--p", p) + ["--input", stream_file])
        assert code == 2
        assert f"p must be >= 0 and finite, got {float(p)}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--eta", "0"), ("--eta", "1.5"),
                                             ("--xi", "0"), ("--xi", "1")])
    @pytest.mark.parametrize("variant", ["tree", "group"])
    @pytest.mark.parametrize("name", ["sum", "distinct"])
    def test_summing_eta_or_xi_outside_unit_interval(
        self, name, variant, flag, value, stream_file, capsys
    ):
        # the tree variant once ignored both and exited 0
        args = _with(STREAMING_ARGS[f"sum-{variant}" if name == "sum" else name],
                     "--mechanism" if name == "sum" else "--variant", variant)
        code = run(_with(args, flag, value) + ["--input", stream_file])
        assert code == 2
        assert f"{flag[2:]} must be in (0, 1), got {float(value)}" in capsys.readouterr().err

    @pytest.mark.parametrize("element", ["99", "4", "-1"])
    def test_point_query_outside_the_snapshot_universe(self, element, tmp_path, capsys):
        # an element outside [0, n) once printed an estimate and exited 0
        cfg = StreamConfig(T=8, n=4)
        path, snap = tmp_path / "stream.txt", tmp_path / "sketch.dpcs"
        write_stream_file(path, generate_stream("uniform", cfg, seed=1), cfg)
        code = run(["f2", "--epsilon", "1", "--T", "8", "--n", "4", "--copies", "1",
                    "--buckets", "4", "--input", str(path), "--output", str(tmp_path / "f2.csv"),
                    "--snapshot-out", str(snap)])
        assert code == 0
        assert run(["point-query", "--element", element, "--snapshot", str(snap)]) == 2
        out = capsys.readouterr()
        assert f"element {element} outside" in out.err and out.out == ""
        assert run(["point-query", "--element", "3", "--snapshot", str(snap)]) == 0


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        code = run(
            ["sum", "--mechanism", "tree", "--epsilon", "1", "--T", "8",
             "--input", str(tmp_path / "missing.txt")]
        )
        assert code == 3

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("zap\n")
        code = run(
            ["sum", "--mechanism", "tree", "--epsilon", "1", "--T", "8",
             "--input", str(bad)]
        )
        assert code == 3

    def test_config_error(self, stream_file):
        code = run(
            ["sum", "--mechanism", "tree", "--epsilon", "1", "--T", "2",
             "--input", stream_file]
        )
        assert code == 2

    def test_header_flag_mismatch(self, stream_file):
        code = run(
            ["distinct", "--epsilon", "1", "--T", "64", "--n", "999",
             "--input", stream_file]
        )
        assert code == 2

    def test_mode_header_mismatch(self, tmp_path, capsys):
        # once read as elements, releasing one count per element where the
        # flag asked for integer values summing to 6
        path = tmp_path / "elements.txt"
        path.write_text("#T=3 n=4 mode=elements\n1\n2\n3\n")
        code = run(
            ["sum", "--T", "3", "--mode", "integers", "--epsilon", "1", "--mechanism", "tree",
             "--noise", "off", "--input", str(path)]
        )
        out = capsys.readouterr()
        assert code == 2
        assert "mode=elements disagrees with --mode integers" in out.err and out.out == ""

    def test_resource_error(self, capsys):
        code = run(
            ["sensitivity-check", "--mapping", "identity", "--n", "3", "--T", "6",
             "--budget", "5"]
        )
        assert code == 4

    def test_sensitivity_above_the_claim(self, monkeypatch, capsys):
        # a check that observed more than its claim once printed FAIL and exited 0
        monkeypatch.setattr(countsketch, "BUCKET_SENSITIVITY", 1)
        code = run(["sensitivity-check", "--mapping", "countsketch-buckets", "--n", "3",
                    "--T", "4", "--k", "2"])
        assert code == 5
        assert capsys.readouterr().out.rstrip().endswith("FAIL")
