import json

import numpy as np
import pytest

from dpsketch import countsketch, distinct, heavy_hitters, low_freq
from dpsketch.cli import ExperimentSpec, main, run_experiment
from dpsketch.randomness import NoiseContext
from dpsketch.sensitivity import sensitivity_check, sensitivity_mappings
from dpsketch.streamio import write_stream_file
from dpsketch.streams import StreamConfig, generate_stream
from dpsketch.summing import BinaryTreeMechanism


class TestSensitivityChecks:
    def test_identity(self):
        report = sensitivity_check("identity", n=2, T=3)
        assert report.observed == 1
        assert report.passed

    def test_indicator_bound(self):
        # Algorithm 2-style indicator stream: claimed <= 5
        report = sensitivity_check("distinct-indicator", n=2, T=5)
        assert report.passed
        assert report.observed <= 5

    def test_counter_bound(self):
        report = sensitivity_check("lowfreq-counters", n=2, T=5, k=2)
        assert report.passed
        assert report.observed <= 16

    def test_bucket_bound(self):
        report = sensitivity_check("countsketch-buckets", n=3, T=4, k=2)
        assert report.passed
        assert report.observed <= 2

    def test_substream_bound(self):
        report = sensitivity_check("hh-substreams", n=3, T=4, k=2, m=2)
        assert report.passed
        assert report.observed <= 2

    def test_level_tuple_bound(self):
        report = sensitivity_check("subsample-levels", n=2, T=4, L=2)
        assert report.passed
        assert report.observed <= 1

    def test_checker_reads_what_the_counters_receive(self, monkeypatch):
        # a bank that credits every input twice doubles each counter step;
        # the checker sees it because it reads the counters' own outputs
        def doubled(self, x, lane=0):
            self._running[lane] += 2 * x

        monkeypatch.setattr(BinaryTreeMechanism, "add", doubled)
        lowfreq = sensitivity_check("lowfreq-counters", n=2, T=5, k=2)
        buckets = sensitivity_check("countsketch-buckets", n=3, T=4, k=2)
        assert (lowfreq.observed, buckets.observed) == (24, 4)
        assert not lowfreq.passed and not buckets.passed

    @pytest.mark.parametrize("mapping", sensitivity_mappings())
    @pytest.mark.parametrize("n, T", [(0, 4), (2, 0)])
    def test_refuses_a_shape_without_neighbours(self, capsys, mapping, n, T):
        # n < 1 or T < 1 leaves no neighbouring pair to compare, so a PASS
        # would check nothing
        with pytest.raises(ValueError, match="must be >= 1"):
            sensitivity_check(mapping, n=n, T=T, k=2, m=2, L=2)
        assert main(["sensitivity-check", "--mapping", mapping, "--n", str(n), "--T", str(T)]) == 2
        assert "PASS" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "owner, name, mapping, params",
        [
            (distinct, "INDICATOR_SENSITIVITY", "distinct-indicator", dict(n=2, T=5)),
            (low_freq, "COUNTER_SENSITIVITY_PER_K", "lowfreq-counters", dict(n=2, T=5, k=2)),
            (countsketch, "BUCKET_SENSITIVITY", "countsketch-buckets", dict(n=3, T=4, k=2)),
            (heavy_hitters, "SUBSTREAM_SENSITIVITY", "hh-substreams", dict(n=3, T=4, k=2, m=2)),
        ],
    )
    def test_claim_is_the_divisor_of_its_owner(self, monkeypatch, owner, name, mapping, params):
        # a mechanism that divided epsilon by too little would fail its check
        assert sensitivity_check(mapping, **params).passed
        monkeypatch.setattr(owner, name, 1)
        report = sensitivity_check(mapping, **params)
        assert report.claimed == (params["k"] if name.endswith("_PER_K") else 1)
        assert not report.passed

    def test_unknown_mapping(self):
        with pytest.raises(ValueError):
            sensitivity_check("nope", n=2, T=3)

    def test_no_seeds_is_refused(self):
        # a check over no hash seeds would observe 0 and pass whatever the claim
        with pytest.raises(ValueError, match="seed"):
            sensitivity_check("distinct-indicator", n=2, T=3, seeds=())

    def test_registry_contents(self):
        assert set(sensitivity_mappings()) == {
            "identity",
            "distinct-indicator",
            "lowfreq-counters",
            "countsketch-buckets",
            "hh-substreams",
            "subsample-levels",
        }


class TestRunExperiment:
    def spec(self, tmp_path=None, **over):
        base = dict(
            mechanism="sum",
            grid={"mechanism": ["tree"], "epsilon": [1.0], "T": [64]},
            generator={"kind": "uniform", "n": 8},
            trials=2,
            seed_base=7,
            noise_off=True,
            output_dir=str(tmp_path) if tmp_path else None,
        )
        base.update(over)
        return ExperimentSpec(**base)

    def test_noise_off_tree_errors_zero(self, tmp_path):
        records = run_experiment(self.spec(tmp_path))
        assert len(records) == 2
        for rec in records:
            assert rec.summary["max_error"] == 0.0

    def test_deterministic_output_files(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(self.spec(d1))
        run_experiment(self.spec(d2))
        f1 = sorted(p.name for p in d1.iterdir())
        f2 = sorted(p.name for p in d2.iterdir())
        assert f1 == f2
        for name in f1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_summary_quantiles_match_rows(self, tmp_path):
        spec = self.spec(
            None,
            mechanism="sum",
            noise_off=False,
            trials=10,
            grid={"epsilon": [1.0], "eta": [0.1], "xi": [0.1], "T": [128]},
        )
        records = run_experiment(spec)
        for rec in records:
            errors = np.array([r[3] for r in rec.rows])
            assert rec.summary["max_error"] == pytest.approx(float(errors.max()))
            assert rec.summary["q90_error"] == pytest.approx(
                float(np.quantile(errors, 0.9))
            )

    def test_parallel_matches_serial(self, tmp_path):
        spec = self.spec(None, trials=3)
        serial = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=2)
        assert [r.rows for r in serial] == [r.rows for r in parallel]

    # ``case`` only labels the run: the spec runs the CLI's subcommand, cli_args[0]
    @pytest.mark.parametrize(
        "case,grid,cli_args",
        [
            # the indicator stream runs at epsilon/5, as in the CLI
            ("distinct-small", {"epsilon": [400.0], "eta": [0.4], "xi": [0.4]},
             ["distinct", "--universe", "small", "--variant", "group",
              "--epsilon", "400", "--eta", "0.4", "--xi", "0.4"]),
            ("sum-tree", {"mechanism": ["tree"], "epsilon": [1.0]},
             ["sum", "--mechanism", "tree", "--epsilon", "1"]),
            ("f2", {"epsilon": [1.0], "copies": [2], "buckets": [16]},
             ["f2", "--epsilon", "1", "--copies", "2", "--buckets", "16"]),
            ("moment", {"p": [2.0], "copies": [1]},
             ["moment", "--p", "2", "--epsilon", "1", "--copies", "1"]),
            # a grid value is never overridden by the mechanism's defaults
            ("distinct-tree", {"variant": ["tree"], "epsilon": [1.0]},
             ["distinct", "--variant", "tree", "--epsilon", "1"]),
        ],
    )
    def test_noise_on_rows_match_cli(self, case, grid, cli_args, tmp_path):
        T, n, trial = 96, 24, 1
        spec = ExperimentSpec(
            mechanism=cli_args[0],
            grid={**grid, "T": [T], "n": [n]},
            generator={"kind": "uniform"},
            trials=2,
            seed_base=5,
        )
        record = run_experiment(spec)[trial]
        seed = NoiseContext(spec.seed_base).child_seed("trial", trial)
        cfg = StreamConfig(T=T, n=n)
        stream_path = tmp_path / "stream.txt"
        write_stream_file(stream_path, generate_stream("uniform", cfg, seed), cfg)
        out = tmp_path / "cli.csv"
        shape = ["--T", str(T)] + (["--n", str(n)] if cli_args[0] != "sum" else [])
        code = main(
            cli_args
            + shape
            + ["--seed", str(seed), "--input", str(stream_path), "--output", str(out)]
        )
        assert code == 0
        rows = [
            f"{t},{est:.10g},{exact:.10g},{err:.10g}" for t, est, exact, err in record.rows
        ]
        assert rows == out.read_text().splitlines()[1:]
        assert any(est != 0 for _, est, _, _ in record.rows)

    def test_unknown_mechanism_and_missing_flag(self):
        with pytest.raises(ValueError, match="unknown experiment mechanism"):
            self.spec(mechanism="heavy-hitters")
        with pytest.raises(ValueError, match="p"):
            run_experiment(self.spec(mechanism="moment", grid={"epsilon": [1.0], "T": [64]}))

    def test_spec_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
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
        spec = ExperimentSpec.from_json(path)
        records = run_experiment(spec)
        assert records[0].summary["max_error"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                mechanism="sum", grid={}, generator={"kind": "uniform"}, trials=1
            )
        with pytest.raises(ValueError):
            ExperimentSpec(
                mechanism="sum",
                grid={"T": [4]},
                generator={"kind": "uniform"},
                trials=0,
            )


class TestSpecErrors:
    """A spec the runner cannot honour exits as a configuration error (2)."""

    SPEC = {
        "mechanism": "sum",
        "grid": {"epsilon": [64.0], "T": [32]},
        "generator": {"kind": "uniform", "n": 4},
        "trials": 1,
        "seed_base": 0,
    }
    MECHANISMS = "['sum', 'distinct', 'f2', 'moment']"

    def run(self, tmp_path, capsys, argv=(), **over):
        spec = {k: v for k, v in {**self.SPEC, **over}.items() if v is not None}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["experiment", "--spec", str(path), *argv])
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "over, named",
        [
            ({"trails": 2}, "trails"),
            ({"grid": None}, "grid"),
            ({"generator": None}, "generator"),
            # each below once ran with a default, or exited 1 with a traceback
            ({"grid": {"epsilon": 2.0}}, "epsilon"),
            ({"grid": {"epsilon": []}}, "epsilon"),
            ({"generator": {"n": 4}}, "kind"),
            ({"generator": {"kind": "uniform", "n": 4, "zz": 1}}, "zz"),
            ({"generator": {"kind": "zipf", "n": 4, "ss": 1.2}}, "ss"),
            ({"generator": {"kind": "planted_heavy", "n": 4, "fraq": 0.5}}, "fraq"),
            ({"output_dir": 5}, "output_dir"),
            ({"trials": "2"}, "trials"),
            ({"argv": ["--jobs", "0"]}, "jobs"),
            # sum-tree is sum with grid "mechanism": ["tree"]; sum-group and
            # distinct-small are sum and distinct at their defaults
            ({"mechanism": "sum-tree"}, MECHANISMS),
            ({"mechanism": "sum-group"}, MECHANISMS),
            ({"mechanism": "distinct-small"}, MECHANISMS),
            # a grid value its flag does not take: once run with another value
            # or a crash mid-run (nothing is coerced; int(2.5) truncates T)
            ({"mechanism": "distinct", "grid": {"universe": ["tiny"]}}, "universe='tiny'"),
            ({"grid": {"epsilon": ["x"]}}, "epsilon='x'"),
            ({"grid": {"epsilon": [1.0, True]}}, "epsilon=True"),
            ({"grid": {"epsilon": [None]}}, "epsilon=None"),
            ({"grid": {"T": [32.0]}}, "T=32.0"),
            ({"grid": {"T": [2.5]}}, "T=2.5"),
            ({"grid": {"T": ["32"]}}, "T='32'"),
            ({"grid": {"n": [4.0]}}, "n=4.0"),
            ({"grid": {"mechanism": ["TREE"]}}, "mechanism='TREE'"),
            ({"mechanism": "f2", "grid": {"buckets": [1.5]}}, "buckets=1.5"),
            ({"mechanism": "moment", "grid": {"p": ["2"]}}, "p='2'"),
            # the generator's stream shape, once run at int(T): T = 16.9 ran T = 16
            ({"grid": {"epsilon": [64.0]}, "generator": {"kind": "uniform", "n": 4, "T": 16.9}},
             "T=16.9"),
            ({"generator": {"kind": "uniform", "n": 4, "T": "16"}}, "T='16'"),
            ({"generator": {"kind": "uniform", "n": 4.0}}, "n=4.0"),
            ({"generator": {"kind": "uniform", "n": True}}, "n=True"),
        ],
        ids=["unknown-key", "missing-grid", "missing-generator", "grid-value-not-a-list",
             "grid-value-empty", "generator-without-kind", "unknown-generator-key", "misspelt-s",
             "misspelt-frac", "output-dir-not-a-path", "trials-not-an-int", "no-jobs",
             "old-alias-sum-tree", "old-alias-sum-group", "old-alias-distinct-small",
             "choice-not-a-choice", "float-flag-string", "float-flag-bool", "float-flag-null",
             "int-T-float", "int-T-fraction", "int-T-string", "int-n-float",
             "choice-wrong-case", "int-flag-fraction", "float-flag-numeric-string",
             "generator-T-fraction", "generator-T-string", "generator-n-float",
             "generator-n-bool"],
    )
    def test_unknown_or_missing_spec_key(self, over, named, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys, **over)
        assert code == 2
        assert "config error" in out.err and named in out.err and out.out == ""

    def test_grid_key_that_is_no_flag_is_refused(self, tmp_path, capsys):
        # a misspelt epsilon would otherwise run silently at the default epsilon 1
        code, out = self.run(tmp_path, capsys, grid={"epsilno": [64.0], "T": [32]})
        assert code == 2
        assert "epsilno" in out.err and out.out == ""

    @pytest.mark.parametrize(
        "mechanism, grid",
        [("sum", {"n": [4]}), ("moment", {"p": [2.0]}), ("distinct", {"variant": ["tree"]}),
         ("f2", {"buckets": [4]})],
    )
    def test_flags_and_stream_shape_are_grid_keys(self, mechanism, grid):
        ExperimentSpec(mechanism=mechanism, grid=grid, generator={"kind": "uniform"})
        with pytest.raises(ValueError, match="'k'"):
            ExperimentSpec(mechanism=mechanism, grid={**grid, "k": [2]}, generator={"kind": "uniform"})

    def test_grid_values_of_their_flags_type_are_taken(self):
        # an int passes for a float flag; an int or a choice passes as it is
        grid = {"epsilon": [1, 2.5], "eta": [0.1], "T": [16], "n": [4],
                "variant": ["tree", "group"], "universe": ["general"], "copies": [2]}
        ExperimentSpec(mechanism="distinct", grid=grid, generator={"kind": "uniform"})

    def test_null_sweeps_the_default_of_an_optional_flag(self):
        # None is the default of --copies, --buckets, --tau and sum's --mode
        for mechanism, grid in [("distinct", {"copies": [None, 2]}),
                                ("f2", {"buckets": [None, 4]}),
                                ("moment", {"tau": [None, 2.0], "p": [2.0]}),
                                ("sum", {"mode": [None, "elements"]})]:
            spec = ExperimentSpec(mechanism=mechanism, grid={**grid, "T": [8]},
                                  generator={"kind": "uniform", "n": 4}, noise_off=True)
            assert len(run_experiment(spec)) == 2
