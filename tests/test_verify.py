import math

import pytest

from privauction import (
    AuctionInstance,
    ParameterOutOfRange,
    ValidationError,
    brute_force_opt,
    fair_inner_product,
)
from privauction.verify import (
    SweepConfig,
    generate_instance,
    hardness_instance,
    misreport_grid,
    run_approximation_sweep,
    run_truthfulness_sweep,
)


class TestHardnessInstance:
    def test_reference_point(self):
        inst = hardness_instance(1.0, 1.0)
        assert inst.weights == (1.0, 1.0, 1.0, 1.0)
        assert inst.unit_costs == (1.0, 2.0, 2.0, 2.0)
        assert inst.budget == 1.5
        assert brute_force_opt(inst).objective == 2.0

    def test_budget_formula_limit(self):
        assert hardness_instance(1.9999, 1.0).budget == pytest.approx(2.0, abs=1e-4)

    def test_scaled_weights(self):
        inst = hardness_instance(0.5, 3.0)
        assert inst.budget == 1.25
        assert brute_force_opt(inst).objective == 6.0

    def test_parameter_domain(self):
        for a, d in [(0.0, 1.0), (2.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)]:
            with pytest.raises(ParameterOutOfRange):
                hardness_instance(a, d)

    def test_ratio_approaches_two(self):
        # tightness of the lower-bound family as budgets rise toward 2
        for a in (0.5, 1.0, 1.5, 1.9):
            inst = hardness_instance(a, 1.0)
            ratio = brute_force_opt(inst).objective / fair_inner_product(inst).objective
            assert ratio == 2.0


class TestSweepConfig:
    def test_roundtrip(self):
        cfg = SweepConfig(n_range=(3, 7), instance_count=12, rng_seed=5)
        assert SweepConfig.from_json(cfg.to_json()) == cfg

    def test_validation(self):
        with pytest.raises(ValidationError):
            SweepConfig(n_range=(1, 5))
        with pytest.raises(ValidationError):
            SweepConfig(weight_distribution="cauchy")
        with pytest.raises(ValidationError):
            SweepConfig(budget_rule="nope")
        with pytest.raises(ValidationError):
            SweepConfig(arithmetic_mode="rational")  # needs integer grids

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError, match="unknown sweep config"):
            SweepConfig.from_json({"instances": 5})


class TestGenerateInstance:
    def test_deterministic(self):
        cfg = SweepConfig(n_range=(2, 8), instance_count=10, rng_seed=123)
        a = generate_instance(cfg, 3)
        b = generate_instance(cfg, 3)
        assert a == b

    def test_distinct_indices_differ(self):
        cfg = SweepConfig(n_range=(2, 8), instance_count=10, rng_seed=123)
        assert generate_instance(cfg, 0) != generate_instance(cfg, 1)

    def test_always_canonical_and_filtered(self):
        from privauction import canonicalize, filter_assumption1

        cfg = SweepConfig(n_range=(2, 9), instance_count=50, rng_seed=7)
        for idx in range(50):
            inst = generate_instance(cfg, idx)
            assert inst.is_canonical
            assert inst.n >= 2
            refiltered, removed = filter_assumption1(inst)
            assert removed == []

    def test_uniform_distribution_gives_equal_magnitudes(self):
        cfg = SweepConfig(
            n_range=(2, 6), instance_count=5, weight_distribution="uniform", rng_seed=1
        )
        inst = generate_instance(cfg, 0)
        assert inst.has_uniform_weights

    def test_integer_grid_values(self):
        cfg = SweepConfig(
            n_range=(2, 6),
            instance_count=5,
            weight_distribution="integer-grid",
            cost_distribution="integer-grid",
            rng_seed=2,
        )
        inst = generate_instance(cfg, 0)
        assert all(float(w).is_integer() for w in inst.weights)
        assert all(float(v).is_integer() for v in inst.unit_costs)
        assert float(inst.budget).is_integer()


class TestMisreportGrid:
    def test_minimum_size_and_coverage(self):
        costs = (0.5, 1.0, 2.0)
        grid = misreport_grid(costs, 0)
        assert len(grid) >= 21
        for other in (1.0, 2.0):
            # the tie value and strict straddles on both sides are present
            assert other in grid
            assert any(other * (1 - 1e-5) < z < other for z in grid)
            assert any(other < z < other * (1 + 1e-5) for z in grid)

    def test_nonnegative(self):
        grid = misreport_grid((0.0, 1.0), 0)
        assert all(z >= 0 for z in grid)
        assert len(grid) >= 21

    def test_rational_grid_exact(self):
        from fractions import Fraction

        costs = (Fraction(1), Fraction(2))
        grid = misreport_grid(costs, 0, rational=True)
        assert all(isinstance(z, Fraction) for z in grid)
        assert Fraction(2) in grid
        assert len(grid) >= 21


class TestTruthfulnessSweep:
    def test_clean_run(self):
        cfg = SweepConfig(n_range=(2, 7), instance_count=150, rng_seed=11)
        report = run_truthfulness_sweep(cfg)
        assert report.ok
        assert report.instances_run == 150
        assert report.failure_count == 0
        for name in ("budget_feasible", "individually_rational", "truthful"):
            assert report.tallies[name].failed == 0
            assert report.tallies[name].passed == 150

    def test_mutated_payment_rule_caught_with_witness(self):
        cfg = SweepConfig(n_range=(2, 6), instance_count=40, rng_seed=13)
        report = run_truthfulness_sweep(cfg, mutation="payment-scale:0.9")
        assert not report.ok
        assert report.failure_count > 0
        witness = report.failures[0]
        assert witness["property"] == "individually_rational"
        assert witness["rng_seed"] == 13
        # replayable: the witness's (seed, index) regenerates its instance
        regenerated = generate_instance(cfg, witness["instance_index"])
        assert regenerated.to_json() == witness["instance"]

    def test_mutations_each_caught(self):
        cfg = SweepConfig(n_range=(2, 6), instance_count=60, rng_seed=17)
        for mutation in ("payment-scale:0.5", "k-include-last"):
            report = run_truthfulness_sweep(cfg, mutation=mutation)
            assert not report.ok, mutation

    def test_star_nonstrict_caught_on_boundary_instances(self):
        # equality cases need integer grids to arise
        cfg = SweepConfig(
            n_range=(2, 6),
            instance_count=300,
            weight_distribution="integer-grid",
            cost_distribution="integer-grid",
            rng_seed=19,
        )
        report = run_truthfulness_sweep(cfg, mutation="star-nonstrict")
        assert not report.ok

    def test_mutant_runs_through_process_pool(self):
        cfg = SweepConfig(
            n_range=(2, 6),
            instance_count=40,
            weight_distribution="integer-grid",
            cost_distribution="integer-grid",
            rng_seed=19,
        )
        serial = run_truthfulness_sweep(cfg, mutation="star-nonstrict", threads=1)
        pooled = run_truthfulness_sweep(cfg, mutation="star-nonstrict", threads=2)
        assert not serial.ok
        assert pooled.to_json() == serial.to_json()

    def test_threshold_cap_mutation_caught(self):
        cfg = SweepConfig(n_range=(2, 6), instance_count=150, rng_seed=23)
        report = run_truthfulness_sweep(cfg, mutation="no-threshold-cap")
        assert not report.ok
        assert any(w["property"] == "truthful" for w in report.failures)

    def test_rational_matches_float_verdicts(self):
        base = dict(
            n_range=(2, 6),
            instance_count=60,
            weight_distribution="integer-grid",
            cost_distribution="integer-grid",
            rng_seed=29,
        )
        float_report = run_truthfulness_sweep(SweepConfig(**base))
        rational_report = run_truthfulness_sweep(
            SweepConfig(**base, arithmetic_mode="rational")
        )
        assert float_report.ok == rational_report.ok is True
        for name, tally in float_report.tallies.items():
            other = rational_report.tallies[name]
            assert (tally.passed, tally.failed) == (other.passed, other.failed)


class TestApproximationSweep:
    def test_clean_run_and_rows(self):
        cfg = SweepConfig(n_range=(2, 9), instance_count=120, rng_seed=31)
        report = run_approximation_sweep(cfg)
        assert report.ok
        assert report.worst_ratio is not None and report.worst_ratio <= 5
        assert len(report.rows) == 120
        rows = report.csv_rows()
        assert rows[0] == ("instance_id", "ratio", "branch")
        assert all(row[2] in ("star", "topk") for row in rows[1:])

    def test_uniform_ratio_capped_at_two(self):
        cfg = SweepConfig(
            n_range=(2, 9), instance_count=120, weight_distribution="uniform", rng_seed=37
        )
        report = run_approximation_sweep(cfg)
        assert report.ok
        assert report.worst_ratio <= 2 * (1 + 1e-9)

    def test_oracle_bound_enforced(self):
        with pytest.raises(ValidationError, match="oracle bound"):
            run_approximation_sweep(SweepConfig(n_range=(2, 24), instance_count=1))

    def test_worst_ratio_witness_replayable(self):
        cfg = SweepConfig(n_range=(2, 8), instance_count=60, rng_seed=41)
        report = run_approximation_sweep(cfg)
        witness = report.worst_ratio_witness
        inst = generate_instance(cfg, witness["instance_index"])
        ratio = brute_force_opt(inst).objective / fair_inner_product(inst).objective
        assert ratio == pytest.approx(witness["ratio"], rel=1e-12)

    def test_parallel_equals_serial(self):
        cfg = SweepConfig(n_range=(2, 6), instance_count=30, rng_seed=43)
        serial = run_approximation_sweep(cfg, threads=1)
        parallel = run_approximation_sweep(cfg, threads=2)
        assert serial.to_json() == parallel.to_json()

    def test_parallel_truthfulness_equals_serial(self):
        cfg = SweepConfig(n_range=(2, 5), instance_count=16, rng_seed=47)
        serial = run_truthfulness_sweep(cfg, threads=1)
        parallel = run_truthfulness_sweep(cfg, threads=2)
        assert serial.to_json() == parallel.to_json()


class TestReportShape:
    def test_json_fields(self):
        cfg = SweepConfig(n_range=(2, 5), instance_count=10, rng_seed=53)
        report = run_approximation_sweep(cfg)
        data = report.to_json()
        assert data["sweep"] == "approximation"
        assert data["instances_run"] == 10
        assert data["ok"] is True
        assert set(data["properties"]) >= {
            "fractional_dominates",
            "ratio_le_5",
            "ell_ge_k",
            "prefix_weight_bound",
            "kkt_certificate",
            "budget_identity",
        }
