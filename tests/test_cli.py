import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from privauction import cli
from privauction.cli import _emit_json, main
from privauction.predictors import KERNEL_LIMIT


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def hardness_path(instance_file):
    return instance_file(
        {
            "weights": [1, 1, 1, 1],
            "unit_costs": [1, 2, 2, 2],
            "budget": 1.5,
            "interval": {"min": 0, "max": 1},
            "database": [0.5, 1.0, 0.0, 0.25],
        },
        "hardness.json",
    )


class TestRun:
    def test_compare_opt_ratio(self, runner, hardness_path):
        result = runner.invoke(main, ["run", str(hardness_path), "--compare-opt"])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["ratio"] == 2.0
        assert data["O"] == [0]
        assert data["branch"] == "star"
        assert data["k"] == 1
        assert data["p_hat"] == pytest.approx(2 / 3)
        assert data["oracle"]["objective"] == 2.0
        assert data["fractional"]["objective"] == 2.0
        assert data["removed"] == []

    def test_deterministic_bytes(self, runner, hardness_path):
        args = ["run", str(hardness_path), "--compare-opt", "--database", "--seed", "7"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.stdout_bytes == second.stdout_bytes

    def test_seed_changes_estimate_only(self, runner, hardness_path):
        a = json.loads(runner.invoke(main, ["run", str(hardness_path), "--database", "--seed", "1"]).output)
        b = json.loads(runner.invoke(main, ["run", str(hardness_path), "--database", "--seed", "2"]).output)
        assert a["estimate"] != b["estimate"]
        assert a["payments"] == b["payments"]

    def test_malformed_exit_1(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        result = runner.invoke(main, ["run", str(path)])
        assert result.exit_code == 1
        err = json.loads(result.stderr)
        assert err["error"] == "ParseError"

    def test_validation_exit_1(self, runner, instance_file):
        path = instance_file(
            {"weights": [0, 1], "unit_costs": [1, 1], "budget": 1, "interval": {"min": 0, "max": 1}},
            "zero_weight.json",
        )
        result = runner.invoke(main, ["run", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weights", [1, 10**400]),
            ("unit_costs", [10**400, 1]),
            ("database", [0.5, -(10**400)]),
            ("budget", 10**400),
            ("interval", {"min": 0, "max": 10**400}),
        ],
    )
    def test_integer_beyond_double_range_exit_1(self, runner, instance_file, field, value):
        data = {
            "weights": [1, 1],
            "unit_costs": [1, 1],
            "budget": 1,
            "interval": {"min": 0, "max": 1},
            "database": [0.5, 0.5],
        }
        data[field] = value
        result = runner.invoke(main, ["run", str(instance_file(data, "huge.json"))])
        assert result.exit_code == 1
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert set(err) == {"error", "message"}
        assert err["error"] == "ValidationError"
        assert "too large for a double" in err["message"]

    def test_undecodable_file_exit_1(self, runner, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff{}")
        result = runner.invoke(main, ["run", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr)["error"] == "ValidationError"

    def test_empty_after_filter_exit_2(self, runner, instance_file):
        path = instance_file(
            {"weights": [1, 1], "unit_costs": [50, 50], "budget": 1, "interval": {"min": 0, "max": 1}},
            "unaffordable.json",
        )
        result = runner.invoke(main, ["run", str(path)])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == "EmptyInstance"

    def test_removed_reported_with_zero_rows(self, runner, instance_file):
        # one unaffordable individual, the rest run normally
        path = instance_file(
            {
                "weights": [1, 1, 5],
                "unit_costs": [0.1, 0.1, 50],
                "budget": 1,
                "interval": {"min": 0, "max": 1},
            },
            "mixed.json",
        )
        result = runner.invoke(main, ["run", str(path)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["removed"] == [2]
        assert data["payments"][2] == 0.0
        assert data["dclef"]["x"][2] == 0
        assert data["dclef"]["epsilons"][2] == 0.0

    def test_csv_projection(self, runner, hardness_path):
        result = runner.invoke(main, ["run", str(hardness_path), "--output", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "index,weight,unit_cost,x,payment,epsilon"
        assert len(lines) == 5

    def test_database_flag_requires_block(self, runner, instance_file):
        path = instance_file(
            {"weights": [1, 1], "unit_costs": [0.1, 0.1], "budget": 1, "interval": {"min": 0, "max": 1}},
            "nodb.json",
        )
        result = runner.invoke(main, ["run", str(path), "--database"])
        assert result.exit_code == 1

    def test_negative_seed_with_database_exit_1(self, runner, hardness_path):
        result = runner.invoke(main, ["run", str(hardness_path), "--database", "--seed", "-1"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr) == {
            "error": "ValidationError", "message": "seed must be nonnegative"
        }
        # without --database the seed is never used
        plain = runner.invoke(main, ["run", str(hardness_path), "--seed", "-1"])
        assert plain.exit_code == 0
        assert plain.stdout == runner.invoke(main, ["run", str(hardness_path)]).stdout

    @pytest.mark.parametrize("arithmetic", ["float", "rational"])
    def test_dclef_block_is_the_dclef_serializer(self, runner, instance_file, arithmetic):
        from privauction.instances import load_instance, prepare
        from privauction.mechanism import fair_inner_product

        # unsorted costs, and row 2 is unaffordable
        document = {
            "weights": [1, 3, 5, 2, 1],
            "unit_costs": [2, 0.5, 50, 1, 0.25],
            "budget": 1.5,
            "interval": {"min": 0, "max": 1},
        }
        path = instance_file(document)
        result = runner.invoke(main, ["run", str(path), "--arithmetic", arithmetic])
        assert result.exit_code == 0, result.output
        instance = load_instance(path)
        if arithmetic == "rational":
            instance = instance.to_rational()
        canonical, rows, removed = prepare(instance)
        assert removed == [2] and list(rows) != sorted(rows)
        outcome = fair_inner_product(canonical, identity=rows)
        assert json.loads(result.output)["dclef"] == outcome.dclef.to_json(rows, instance.n)

    def test_rational_mode_runs(self, runner, hardness_path):
        result = runner.invoke(main, ["run", str(hardness_path), "--arithmetic", "rational"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["p_hat"] == pytest.approx(2 / 3)


class TestVerify:
    def test_default_config_small(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_range": [2, 5], "instance_count": 8, "rng_seed": 3}))
        result = runner.invoke(main, ["verify", str(cfg)])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["ok"] is True
        assert data["reports"]["truthfulness"]["instances_run"] == 8

    def test_no_config_uses_defaults(self, runner):
        result = runner.invoke(main, ["verify", "--instances", "5", "--seed", "2"])
        assert result.exit_code == 0, result.output

    def test_mutation_exit_3_with_witness(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_range": [2, 6], "instance_count": 20, "rng_seed": 3}))
        result = runner.invoke(main, ["verify", str(cfg), "--mutate", "payment-scale:0.9"])
        assert result.exit_code == 3
        witnesses = json.loads(result.stderr)["witnesses"]
        assert witnesses and witnesses[0]["property"] == "individually_rational"

    @pytest.mark.parametrize("spec", ["bogus", "payment-scale", "payment-scale:x"])
    def test_bad_mutation_exit_1(self, runner, spec):
        result = runner.invoke(main, ["verify", "--instances", "2", "--mutate", spec])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr)["error"] == "ValidationError"

    def test_csv_output(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_range": [2, 5], "instance_count": 6, "rng_seed": 4}))
        result = runner.invoke(main, ["verify", str(cfg), "--output", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "instance_id,ratio,branch"
        assert len(lines) == 7

    def test_oversized_truthfulness_sweep_exit_1(self, runner, tmp_path, monkeypatch):
        from privauction import verify

        def no_instance(config, index):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(verify, "generate_instance", no_instance)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_range": [2, 2000], "instance_count": 1}))
        result = runner.invoke(main, ["verify", str(cfg)])
        assert result.exit_code == 1
        assert result.stdout == ""
        error = json.loads(result.stderr)
        assert error["error"] == "ValidationError"
        assert "n_range" in error["message"]

    def test_bad_config_exit_1(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weight_distribution": "cauchy"}))
        result = runner.invoke(main, ["verify", str(cfg)])
        assert result.exit_code == 1

    def test_fixed_budget_rule_exit_1(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget_rule": "fixed:1", "instance_count": 2}))
        result = runner.invoke(main, ["verify", str(cfg)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr) == {
            "error": "ValidationError", "message": "unknown budget rule 'fixed:1'"
        }

    @pytest.mark.parametrize("rule", ["scaled:1,inf", "scaled:inf,inf"])
    def test_non_finite_budget_rule_exit_1(self, runner, tmp_path, rule):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget_rule": rule, "instance_count": 2}))
        result = runner.invoke(main, ["verify", str(cfg)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr) == {
            "error": "ValidationError", "message": "scaled budget rule needs finite 0 < lo <= hi"
        }

    def test_every_limit_checked_before_any_sweep(self, runner, tmp_path, monkeypatch):
        from privauction import verify

        def no_record(*args, **kwargs):
            raise AssertionError("the truthfulness sweep ran")

        monkeypatch.setattr(verify, "_truthfulness_record", no_record)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_range": [2, 40], "instance_count": 300}))
        result = runner.invoke(main, ["verify", str(cfg)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr) == {
            "error": "ValidationError",
            "message": "approximation sweep needs n_range within the oracle bound 20",
        }
        result = runner.invoke(main, ["verify", str(cfg), "--skip-approximation", "--mutate", "x"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["message"].startswith("unknown mutation 'x'")

    def test_skip_approximation_runs_beyond_oracle_bound(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_range": [21, 24], "instance_count": 2, "rng_seed": 5}))
        result = runner.invoke(main, ["verify", str(cfg), "--skip-approximation"])
        assert result.exit_code == 0, result.output
        reports = json.loads(result.stdout)["reports"]
        assert list(reports) == ["truthfulness"]
        assert reports["truthfulness"]["instances_run"] == 2

    @pytest.mark.parametrize(
        "config",
        [
            {"n_range": "ab"},
            {"n_range": [3]},
            {"n_range": [2, 5.0]},
            {"instance_count": "x"},
            {"instance_count": None},
            {"instance_count": True},
            {"rng_seed": 1.5},
            {"rng_seed": -1},
            {"weight_distribution": 3},
            {"budget_rule": None},
            {"arithmetic_mode": ["float"]},
        ],
    )
    def test_malformed_config_names_field(self, runner, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["verify", str(cfg)])
        assert result.exit_code == 1
        assert result.stdout == ""
        error = json.loads(result.stderr)
        assert error["error"] == "ValidationError"
        assert next(iter(config)) in error["message"]

    @pytest.mark.parametrize("config", [[1], "signed", 3])
    def test_non_object_config_with_override_exit_1(self, runner, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["verify", str(cfg), "--seed", "1", "--instances", "2"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["message"] == "sweep config must be a JSON object"


class TestWeights:
    def test_knn_two_of_three(self, runner, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("0\n1\n2\n")
        result = runner.invoke(
            main, ["weights", str(feats), "--method", "knn", "--k", "2", "--query", "0.9"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["weights"] == [0.5, 0.5]
        assert data["kept"] == [0, 1]
        assert data["dropped"] == [2]

    def test_ridge_scalar(self, runner, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("1\n1\n")
        result = runner.invoke(
            main, ["weights", str(feats), "--method", "ridge", "--lam", "1.0", "--query", "1"]
        )
        data = json.loads(result.output)
        assert data["weights"] == pytest.approx([1 / 3, 1 / 3])

    def test_full_instance_emission_loadable(self, runner, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("0\n1\n2\n")
        result = runner.invoke(
            main,
            [
                "weights", str(feats), "--method", "knn", "--k", "2", "--query", "0.9",
                "--costs", "1,2,3", "--budget", "5",
            ],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["unit_costs"] == [1.0, 2.0]
        out = tmp_path / "inst.json"
        out.write_text(json.dumps(data))
        run = runner.invoke(main, ["run", str(out)])
        assert run.exit_code == 0

    def test_cost_length_mismatch_exit_1(self, runner, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("0\n1\n2\n")
        result = runner.invoke(
            main,
            [
                "weights", str(feats), "--method", "knn", "--k", "2", "--query", "0.9",
                "--costs", "1,2", "--budget", "5",
            ],
        )
        assert result.exit_code == 1

    def test_negative_linear_similarity_exit_1(self, runner, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("1,0\n2,0\n-1,0\n")
        result = runner.invoke(
            main,
            ["weights", str(feats), "--method", "nadaraya-watson", "--kernel", "linear",
             "--query", "1,0"],
        )
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "ValidationError", "message": "kernel similarity is negative at index 2"
        }

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_overflowing_normal_equations_exit_1(self, runner, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("1e200,1\n1,1e200\n1e200,1e200\n")  # the normal equations overflow
        result = runner.invoke(
            main, ["weights", str(feats), "--method", "ridge", "--lam", "1", "--query", "1,1"]
        )
        assert result.exit_code == 1
        assert result.stderr == (
            '{"error": "ValidationError", "message": "array must not contain infs or NaNs"}\n'
        )

    @pytest.mark.parametrize("method", [
        pytest.param(["ridge"], id="ridge"),
        # the kernel system is rejected before np.linalg.cond reads it: LAPACK
        # would write to stdout on the linear kernel and fail on the Gaussian one
        pytest.param(["kernel-regression", "--kernel", "linear"], id="kernel-linear"),
        pytest.param(["kernel-regression", "--kernel", "gaussian"], id="kernel-gaussian"),
    ])
    def test_overflow_leaves_one_json_object_on_stderr(self, tmp_path, method):
        # a subprocess, so that numpy's warnings reach stderr as they do for a user
        feats = tmp_path / "f.csv"
        feats.write_text("1e200,1\n1,1e200\n1e200,1e200\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        completed = subprocess.run(
            [sys.executable, "-m", "privauction.cli", "weights", str(feats),
             "--method", *method, "--lam", "1", "--query", "1,1"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert completed.returncode == 1
        assert completed.stdout == ""
        error, end = json.JSONDecoder().raw_decode(completed.stderr)
        assert completed.stderr[end:] == "\n"
        assert error == {
            "error": "ValidationError", "message": "array must not contain infs or NaNs"
        }

    def test_gaussian_kernel_over_limit_exits_1(self, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("".join(f"{v}\n" for v in range(KERNEL_LIMIT + 1)))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        completed = subprocess.run(
            [sys.executable, "-m", "privauction.cli", "weights", str(feats),
             "--method", "kernel-regression", "--lam", "1", "--query", "0"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert completed.returncode == 1
        assert completed.stdout == ""
        error, end = json.JSONDecoder().raw_decode(completed.stderr)
        assert completed.stderr[end:] == "\n"
        assert error == {
            "error": "InstanceTooLarge",
            "message": f"Gaussian kernel regression limited to n <= {KERNEL_LIMIT}",
        }

    def test_query_csv(self, runner, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("0,0\n1,1\n")
        qcsv = tmp_path / "q.csv"
        qcsv.write_text("0,0\n")
        result = runner.invoke(
            main, ["weights", str(feats), "--method", "nadaraya-watson", "--query-csv", str(qcsv)]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert sum(data["weights"]) == pytest.approx(1.0)

    def test_csv_output(self, runner, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("0\n1\n2\n")
        result = runner.invoke(
            main,
            ["weights", str(feats), "--method", "knn", "--k", "2", "--query", "0.9",
             "--output", "csv"],
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == "index,weight"
        assert len(lines) == 3


class TestOracleAndFractional:
    def test_oracle(self, runner, hardness_path):
        result = runner.invoke(main, ["oracle", str(hardness_path)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["objective"] == 2.0
        assert sum(data["x"]) == 2

    def test_fractional(self, runner, hardness_path):
        result = runner.invoke(main, ["fractional", str(hardness_path)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["objective"] == 2.0
        assert data["ell"] == 2
        assert sum(data["payments"]) == pytest.approx(1.5)

    def test_oracle_too_large_exit_1(self, runner, instance_file):
        path = instance_file(
            {
                "weights": [1] * 21,
                "unit_costs": [0.01] * 21,
                "budget": 10,
                "interval": {"min": 0, "max": 1},
            },
            "big.json",
        )
        result = runner.invoke(main, ["oracle", str(path)])
        assert result.exit_code == 1

    def test_stdout_stderr_separation(self, runner, hardness_path):
        result = runner.invoke(main, ["run", str(hardness_path)])
        assert result.exit_code == 0
        assert result.stderr == ""
        json.loads(result.output)  # stdout is pure JSON


# distinct costs and |weights|, survivors out of cost order, at least one row filtered
EQUIVARIANCE_INSTANCES = [
    # single-winner branch with a threshold individual; row 4 filtered
    ([-28, 4, -22, -16, 23, -10, -19], [1, 31, 10, 16, 25, 3, 6]),
    # prefix branch; rows 2 and 4 filtered
    ([13, -10, 25, 20, 21, 29, -3], [2, 11, 33, 3, 31, 4, 13]),
]
SHUFFLES = [
    [6, 5, 4, 3, 2, 1, 0],
    [3, 0, 6, 1, 5, 2, 4],
    [2, 4, 6, 1, 3, 5, 0],
]
COMMANDS = {
    "run": ["--compare-opt", "--database", "--seed", "3"],
    "oracle": [],
    "fractional": [],
}
PER_ROW_FIELDS = {
    "run": [
        ("payments",), ("dclef", "x"), ("dclef", "epsilons"),
        ("oracle", "x"), ("oracle", "payments"),
        ("fractional", "x_star"), ("fractional", "payments"),
    ],
    "oracle": [("x",), ("payments",)],
    "fractional": [("x_star",), ("payments",)],
}
ROW_INDEX_FIELDS = {"run": ["O", "i_star", "r", "removed"], "oracle": ["removed"], "fractional": ["removed"]}


class TestRowMapEquivariance:
    """Shuffling the input rows permutes every per-row field and relabels every row index."""

    @pytest.mark.parametrize("order", SHUFFLES)
    @pytest.mark.parametrize("weights,costs", EQUIVARIANCE_INSTANCES)
    def test_shuffled_input(self, runner, instance_file, weights, costs, order):
        n = len(weights)
        database = [(i + 1) / (n + 1) for i in range(n)]

        def write(rows, name):
            return instance_file(
                {
                    "weights": [weights[i] for i in rows],
                    "unit_costs": [costs[i] for i in rows],
                    "budget": 5,
                    "interval": {"min": 0, "max": 1},
                    "database": [database[i] for i in rows],
                },
                name,
            )

        # row j of the shuffled file is row order[j] of the base file
        base_path, shuffled_path = write(range(n), "base.json"), write(order, "shuffled.json")
        relabel = {old: new for new, old in enumerate(order)}
        for command, args in COMMANDS.items():
            results = [runner.invoke(main, [command, str(p), *args]) for p in (base_path, shuffled_path)]
            assert [r.exit_code for r in results] == [0, 0], results[0].output
            base, shuffled = (json.loads(r.stdout) for r in results)
            assert base["removed"]
            expected = json.loads(results[0].stdout)
            for path in PER_ROW_FIELDS[command]:
                *parents, leaf = path
                source, target = base, expected
                for key in parents:
                    source, target = source[key], target[key]
                target[leaf] = [source[leaf][old] for old in order]
            for key in ROW_INDEX_FIELDS[command]:
                value = base[key]
                if isinstance(value, list):
                    expected[key] = sorted(relabel[i] for i in value)
                elif value is not None:
                    expected[key] = relabel[value]
            # scalars, the estimate included, are bit-identical
            assert shuffled == expected

    def test_fixtures_reach_both_branches(self, runner, instance_file):
        seen = set()
        for weights, costs in EQUIVARIANCE_INSTANCES:
            path = instance_file(
                {"weights": weights, "unit_costs": costs, "budget": 5, "interval": {"min": 0, "max": 1}}
            )
            data = json.loads(runner.invoke(main, ["run", str(path)]).stdout)
            seen.add((data["branch"], data["r"] is not None))
        assert seen == {("star", True), ("topk", False)}


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]),
    st.text(),
    st.sampled_from(["a, b", ", ", '"quoted"', "back\\slash", "caf\u00e9 \u2603", "\x00\x1f\n\t"]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=6),
    ),
    max_leaves=40,
)


class TestEmitJson:
    @given(value=JSON_VALUES)
    @settings(max_examples=500, deadline=None)
    def test_matches_indented_dumps(self, value):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            _emit_json(value)
        assert buffer.getvalue() == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.fixture
    def instances(self, instance_file):
        base = {"interval": {"min": 0, "max": 1}}
        return {
            # row 2 can never be paid: filtered
            "filtered": instance_file(
                {**base, "weights": [1, -1, 5, 2], "unit_costs": [0.1, 0.2, 50, 0.3],
                 "budget": 1, "database": [0.1, 0.2, 0.3, 0.4]},
                "filtered.json",
            ),
            # free data: everyone fits the budget and the relaxation is degenerate
            "fits": instance_file(
                {**base, "weights": [1, 1, 1], "unit_costs": [0, 0, 0],
                 "budget": 1, "database": [0.5, 0.5, 0.5]},
                "fits.json",
            ),
        }

    @pytest.mark.parametrize(
        "args",
        [["run"], ["run", "--compare-opt", "--database"], ["oracle"], ["fractional"]],
        ids=["run", "run-compare-database", "oracle", "fractional"],
    )
    @pytest.mark.parametrize("arithmetic", ["float", "rational"])
    def test_instance_commands_print_indented_json(self, runner, instances, args, arithmetic):
        for name, path in instances.items():
            if name == "fits" and args[0] == "fractional":
                continue  # the relaxation is degenerate there: an error on stderr
            command = [args[0], str(path), *args[1:], "--arithmetic", arithmetic]
            result = runner.invoke(main, command)
            assert result.exit_code == 0, result.output
            data = json.loads(result.stdout)
            assert result.stdout == json.dumps(data, sort_keys=True, indent=2) + "\n"
            assert bool(data["removed"]) == (name == "filtered")
            if "--compare-opt" in args and name == "fits":
                assert data["fractional"]["error"] == "DegenerateAllOnes"

    def test_weights_and_verify_print_indented_json(self, runner, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("0,1\n1,0\n2,2\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_range": [2, 6], "instance_count": 20, "rng_seed": 3}))
        calls = [
            (["weights", str(feats), "--method", "ridge", "--lam", "0.5", "--query", "1,1",
              "--costs", "1,2,3", "--budget", "5"], 0),
            (["verify", str(cfg)], 0),
            (["verify", str(cfg), "--mutate", "payment-scale:0.9"], 3),
        ]
        for args, code in calls:
            result = runner.invoke(main, args)
            assert result.exit_code == code, result.output
            data = json.loads(result.stdout)
            assert result.stdout == json.dumps(data, sort_keys=True, indent=2) + "\n"


def _strict_json(text: str):
    """``json.loads`` that refuses the non-standard tokens Infinity, -Infinity and NaN."""

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


OVERFLOW = {"budget": 1, "interval": {"min": 0, "max": 1}, "database": [1, 1, 1]}
OVERFLOW_FILES = {
    # every sum of two weights is beyond the double range
    "huge-weights": {**OVERFLOW, "weights": [1e308] * 3, "unit_costs": [0.1, 0.2, 0.3]},
    # as above, and the interval length too: the noise scale overflows in both modes
    "huge-interval": {
        **OVERFLOW, "weights": [1e308] * 3, "unit_costs": [0.1, 0.2, 0.3],
        "interval": {"min": -1e308, "max": 1e308},
    },
    # the released mean overflows, the noise scale does not
    "huge-estimate": {**OVERFLOW, "weights": [1e308, 1e308, 1], "unit_costs": [0, 0, 0.3]},
}


class TestStrictJson:
    """Every number in a report is a finite float or the string "inf", "-inf" or "nan"."""

    @pytest.mark.parametrize("name", sorted(OVERFLOW_FILES))
    @pytest.mark.parametrize("arithmetic", ["float", "rational"])
    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("args", [["run", "--compare-opt"], ["oracle"], ["fractional"]])
    def test_overflowing_instances_exit_0(self, runner, instance_file, name, arithmetic, output, args):
        path = instance_file(OVERFLOW_FILES[name], f"{name}.json")
        command = [args[0], str(path), *args[1:], "--arithmetic", arithmetic, "--output", output]
        result = runner.invoke(main, command)
        assert result.exit_code == 0, (result.output, result.exception)
        if output == "json":
            _strict_json(result.stdout)
        else:
            rows = list(csv.reader(io.StringIO(result.stdout)))
            assert len(rows) == 4 and len(set(map(len, rows))) == 1

    def test_non_finite_values_read_as_strings(self, runner, instance_file):
        path = instance_file(OVERFLOW_FILES["huge-weights"])
        data = _strict_json(runner.invoke(main, ["run", str(path), "--compare-opt"]).stdout)
        assert data["dclef"]["sigma"] == data["dclef"]["distortion"] == "inf"
        assert data["oracle"]["objective"] == data["fractional"]["objective"] == "inf"
        assert data["oracle"]["payments"] == ["nan"] * 3
        assert data["objective"] == 1e308 and data["ratio"] == "inf"

    def test_rational_objective_beyond_doubles_reads_inf(self, runner, instance_file):
        path = instance_file(OVERFLOW_FILES["huge-interval"])
        result = runner.invoke(main, ["run", str(path), "--compare-opt", "--arithmetic", "rational"])
        data = _strict_json(result.stdout)
        assert data["objective"] == data["dclef"]["sigma"] == "inf"
        assert data["oracle"]["payments"] == [0.0, 0.2, 0.3]
        assert data["ratio"] == "nan"  # inf / inf

    @pytest.mark.parametrize("arithmetic", ["float", "rational"])
    def test_overflowing_noise_scale_exit_1(self, runner, instance_file, arithmetic):
        path = instance_file(OVERFLOW_FILES["huge-interval"])
        result = runner.invoke(main, ["run", str(path), "--database", "--arithmetic", arithmetic])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "ValidationError", "message": "noise scale is not finite: inf"
        }

    @pytest.mark.parametrize("arithmetic", ["float", "rational"])
    def test_overflowing_estimate_reads_inf(self, runner, instance_file, arithmetic):
        path = instance_file(OVERFLOW_FILES["huge-estimate"])
        result = runner.invoke(main, ["run", str(path), "--database", "--arithmetic", arithmetic])
        assert result.exit_code == 0, result.output
        assert _strict_json(result.stdout)["estimate"] == "inf"


class TestWeightsOptions:
    @pytest.fixture
    def feats(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0\n1\n2\n")
        return str(path)

    @pytest.mark.parametrize(
        "budget, message", [("0", "budget must be positive"), ("-1", "negative budget")]
    )
    def test_non_positive_budget_exit_1(self, runner, feats, budget, message):
        result = runner.invoke(main, [
            "weights", feats, "--method", "knn", "--k", "2", "--query", "0.9",
            "--costs", "1,2,3", f"--budget={budget}",
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {"error": "ValidationError", "message": message}

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "1", "2.5"])
    def test_drop_tolerance_outside_unit_interval_exit_1(self, runner, feats, tol):
        result = runner.invoke(main, [
            "weights", feats, "--method", "knn", "--k", "2", "--query", "0.9", f"--drop-tol={tol}",
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "ValidationError", "message": "drop tolerance must lie in [0, 1)"
        }

    def test_zero_drop_tolerance_keeps_every_nonzero_weight(self, runner, feats):
        result = runner.invoke(main, [
            "weights", feats, "--method", "knn", "--k", "2", "--query", "0.9", "--drop-tol=0",
        ])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["weights"] == [0.5, 0.5]

    @pytest.mark.parametrize("args, message", [
        (["--method", "knn", "--query", "1"], "knn requires k"),
        (["--method", "ridge", "--query", "1"], "ridge requires a regularization strength"),
        (["--method", "kernel-regression", "--query", "1"],
         "kernel regression requires a regularization strength"),
        (["--method", "nadaraya-watson", "--bandwidth", "0", "--query", "1"],
         "bandwidth must be positive"),
        (["--method", "knn", "--k", "1"], "provide exactly one of --query or --query-csv"),
        (["--method", "knn", "--k", "1", "--query", "1", "--query-csv", "q.csv"],
         "provide exactly one of --query or --query-csv"),
        (["--method", "knn", "--k", "1", "--query", "1", "--costs", "1"],
         "--costs and --budget must be given together"),
        (["--method", "kernel-regression", "--lam", "1", "--query", "1", "--budget", "1"],
         "--costs and --budget must be given together"),
        (["--method", "knn", "--k", "1", "--query", "1,x"], "could not convert string to float: 'x'"),
        (["--method", "knn", "--k", "1", "--query", "1", "--costs", "1,x", "--budget", "1"],
         "could not convert string to float: 'x'"),
        (["--method", "knn", "--k", "1", "--query", "1", "--drop-tol", "2"],
         "drop tolerance must lie in [0, 1)"),
        (["--method", "ridge", "--lam", "-1", "--query", "1,1"],
         "regularization strength must be positive"),
        (["--method", "ridge", "--lam", "nan", "--query", "1"],
         "regularization strength must be positive"),
        (["--method", "kernel-regression", "--lam", "0", "--query", "1"],
         "regularization strength must be positive"),
    ])
    def test_option_error_before_any_file_read(self, runner, monkeypatch, args, message):
        def no_read(*args, **kwargs):
            raise AssertionError("a file was read before the options were checked")

        monkeypatch.setattr(cli, "load_feature_csv", no_read)
        result = runner.invoke(main, ["weights", "missing.csv", *args])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {"error": "ValidationError", "message": message}

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_before_any_file_read(self, runner, monkeypatch, k):
        def no_read(*args, **kwargs):
            raise AssertionError("a file was read before the options were checked")

        monkeypatch.setattr(cli, "load_feature_csv", no_read)
        result = runner.invoke(main, ["weights", "missing.csv", "--method", "knn", "--k", k,
                                      "--query", "1"])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "KOutOfRange", "message": f"k must be at least 1, got {k}"
        }


USAGE_ERRORS = [
    (["run", "x.json", "--output", "xml"], "Invalid value for '--output'"),
    (["run", "--seed", "abc", "x.json"], "Invalid value for '--seed'"),
    (["run"], "Missing argument 'INSTANCE_PATH'"),
    (["run", "x.json", "--bogus"], "No such option '--bogus'"),
    (["verify", "--threads", "x"], "Invalid value for '--threads'"),
    (["verify", "--threads", "0"], "Invalid value for '--threads': 0 is not in the range"),
    (["verify", "--threads", "-3"], "Invalid value for '--threads': -3 is not in the range"),
    (["weights", "f.csv", "--method", "nope"], "Invalid value for '--method'"),
    (["bogus"], "No such command 'bogus'"),
    (["--bogus"], "No such option '--bogus'"),
    ([], "Missing command"),
]


class TestUsageErrors:
    """A malformed command line exits 1 with error JSON, never 2 (an empty instance)."""

    @staticmethod
    def _check(code, stderr, message):
        assert code == 1
        error = json.loads(stderr)
        assert error["error"] == "UsageError"
        assert error["message"].startswith(message)

    @pytest.mark.parametrize("args, message", USAGE_ERRORS)
    def test_standalone(self, runner, args, message):
        result = runner.invoke(main, args)
        self._check(result.exit_code, result.stderr, message)
        assert result.stdout == ""

    @pytest.mark.parametrize("args, message", USAGE_ERRORS)
    def test_embedded(self, args, message):
        # perfbench and tools/report_digest.py call the CLI with standalone_mode=False
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
            main.main(args, prog_name="privauction", standalone_mode=False)
        self._check(exit_info.value.code, err.getvalue(), message)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("args", [["--help"], ["run", "--help"], ["verify", "--help"]])
    def test_help_exits_0(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage: ")


def test_cli_import_loads_no_scipy():
    probe = "import sys, privauction.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    completed = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert completed.stdout == "[]\n"
