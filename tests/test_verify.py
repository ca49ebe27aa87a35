import math
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privauction import (
    AuctionInstance,
    EmptyInstance,
    ParameterOutOfRange,
    ValidationError,
    ValueInterval,
    brute_force_opt,
    fair_inner_product,
    prepare,
)
from privauction import verify
from privauction.instances import _json_float, filter_survivors
from privauction.verify import (
    MUTATIONS,
    SweepConfig,
    _truthfulness_record,
    deviator_kernel,
    generate_instance,
    hardness_instance,
    mechanism_under,
    misreport_grid,
    run_approximation_sweep,
    run_truthfulness_sweep,
)

from conftest import UNIT


def _deviation_utility(reported_instance, i: int, true_cost, mechanism):
    """Utility of individual ``i`` under the deployed filter-then-run pipeline.

    A report that violates the affordability condition gets the deviator
    filtered out: no payment, no exposure, zero utility. The input rows are
    passed as the identity labels so weight ties break by the pre-report
    labeling. This is the reference that `deviator_kernel` reproduces.
    """
    try:
        canonical, rows, removed = prepare(reported_instance)
    except EmptyInstance:
        return 0
    if i in removed:
        return 0
    outcome = mechanism(canonical, identity=rows)
    position = rows.index(i)
    return outcome.payments[position] - true_cost * outcome.dclef.epsilons()[position]


def reference_truthful_witnesses(config, index, mutation):
    """The truthful witnesses of `_truthfulness_record`, one utility and one comparison per report.

    Each report of the grid is answered by `deviator_kernel`'s per-report
    utility and compared with the honest utility on its own. This is the
    reference for the sweep, which compares once per run of reports on one
    step.
    """
    instance = generate_instance(config, index)
    outcome = mechanism_under(mutation)(instance)
    eps = outcome.dclef.epsilons()
    gain_slack = 0 if instance.exact else verify.TRUTHFUL_SLACK
    witnesses = []
    for i in range(instance.n):
        true_cost = instance.unit_costs[i]
        honest_utility = outcome.payments[i] - true_cost * eps[i]
        deviate = deviator_kernel(instance, i, mutation)
        for z in misreport_grid(instance.unit_costs, i):
            dev_utility = deviate(z, true_cost)
            if not dev_utility <= honest_utility + gain_slack:
                witnesses.append(verify._witness(
                    "truthful", config, index, instance,
                    individual=i, misreport=_json_float(z),
                    honest_utility=_json_float(honest_utility),
                    deviating_utility=_json_float(dev_utility),
                ))
    return witnesses


def reference_misreport_grid(costs, i):
    """The grid built point by point in a set, the reference for `misreport_grid`."""
    rational = all(isinstance(c, Fraction) for c in costs)
    factors, eps = (
        (verify._RATIONAL_FACTORS, Fraction(1, 10**6))
        if rational
        else (verify._FLOAT_FACTORS, 1e-6)
    )
    true_cost = costs[i]
    if true_cost > 0:
        points = {true_cost * f for f in factors}
    else:
        top = max(costs) or 1
        if rational:
            points = {top * f for f in factors} | {Fraction(0)}
        else:
            points = {float(z) for z in np.linspace(0.0, 10.0 * top, 21)}
    below, above = 1 - eps, 1 + eps
    for j, c in enumerate(costs):
        if j != i:
            points.update((c, c * below, c * above))
    grid = [z for z in points if z >= 0]
    if rational:
        common = math.lcm(*(z.denominator for z in grid))
        grid.sort(key=lambda z: z.numerator * (common // z.denominator))
    else:
        grid.sort()
    return tuple(grid)


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
        with pytest.raises(ValidationError, match="unknown budget rule 'fixed:1'"):
            SweepConfig(budget_rule="fixed:1")
        for rule in ("scaled:1,inf", "scaled:inf,inf", "scaled:-inf,1", "scaled:nan,1"):
            with pytest.raises(ValidationError, match="finite 0 < lo <= hi"):
                SweepConfig(budget_rule=rule)
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

    def test_rational_mode_is_the_exact_float_draw(self):
        cfg = SweepConfig(
            n_range=(2, 12),
            instance_count=40,
            weight_distribution="integer-grid",
            cost_distribution="integer-grid",
            arithmetic_mode="rational",
            rng_seed=9,
        )
        floats = replace(cfg, arithmetic_mode="float")
        for idx in range(40):
            inst = generate_instance(cfg, idx)
            assert inst.exact
            assert not generate_instance(floats, idx).exact
            assert inst == generate_instance(floats, idx).to_rational()


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
        costs = (Fraction(1), Fraction(2))
        grid = misreport_grid(costs, 0)
        assert all(isinstance(z, Fraction) for z in grid)
        assert Fraction(2) in grid
        assert len(grid) >= 21

    @staticmethod
    def _straddle(*costs):
        return {v for c in costs for v in (c, c * (1 - 1e-6), c * (1 + 1e-6))}

    def test_float_grid_pinned(self):
        factors = [10.0 ** t for t in np.linspace(-1.0, 1.0, 21)]
        expected = sorted({0.5 * f for f in factors} | self._straddle(2.0, 0.0))
        assert misreport_grid((0.5, 2.0, 0.0), 0) == tuple(expected)
        # a zero cost steps evenly up to ten times the largest cost
        expected = sorted({float(z) for z in np.linspace(0.0, 4.0, 21)} | self._straddle(0.4))
        assert misreport_grid((0.0, 0.4), 0) == tuple(expected)

    def test_rational_grid_pinned(self):
        factors = "1/10 1/5 3/10 2/5 1/2 3/5 7/10 4/5 9/10 1 5/4 3/2 7/4 2 5/2 3 4 5 6 8 10"
        doubled = [2 * Fraction(f) for f in factors.split()]
        others = [Fraction(999_999, 10**6), Fraction(1), Fraction(1_000_001, 10**6)]
        grid = misreport_grid((Fraction(2), Fraction(1)), 0)
        assert grid == tuple(sorted(set(doubled + others)))
        # all costs zero: the factors themselves, plus 0
        grid = misreport_grid((Fraction(0), Fraction(0)), 1)
        assert grid == (0, *(Fraction(f) for f in factors.split()))
        assert all(type(z) is Fraction for z in grid)


    @pytest.mark.parametrize(
        "weights, costs, mode",
        [(w, c, "float") for w in verify.WEIGHT_DISTRIBUTIONS for c in verify.COST_DISTRIBUTIONS]
        + [("integer-grid", "integer-grid", "rational")],
    )
    def test_matches_reference(self, weights, costs, mode):
        config = SweepConfig(n_range=(2, 12), instance_count=60, rng_seed=5, arithmetic_mode=mode,
                             weight_distribution=weights, cost_distribution=costs)
        for index in range(60):
            unit_costs = generate_instance(config, index).unit_costs
            for i in range(len(unit_costs)):
                got = misreport_grid(unit_costs, i)
                expected = reference_misreport_grid(unit_costs, i)
                # element for element, with each point's type and its sign of zero
                assert list(map(repr, got)) == list(map(repr, expected))

    @pytest.mark.parametrize(
        "costs", [(0.0, -0.0, 1.0), (-0.0, 0.0, 2.0), (-0.0, -0.0), [0.5, 0.0, -0.0]]
    )
    def test_signed_zeros_match_reference(self, costs):
        for i in range(len(costs)):
            assert list(map(repr, misreport_grid(costs, i))) == list(
                map(repr, reference_misreport_grid(costs, i))
            )


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

    def test_size_bound_enforced_before_any_instance(self, monkeypatch):
        def no_instance(config, index):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(verify, "generate_instance", no_instance)
        limit = verify.TRUTHFUL_LIMIT
        with pytest.raises(ValidationError, match=f"n_range within {limit}"):
            run_truthfulness_sweep(SweepConfig(n_range=(2, limit + 1), instance_count=1))
        # the bound itself is allowed, so this sweep reaches the generator
        with pytest.raises(AssertionError, match="generated"):
            run_truthfulness_sweep(SweepConfig(n_range=(2, limit), instance_count=1))

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


MUTATION_SPECS = [None] + [
    f"{name}:0.9" if name == "payment-scale" else name for name in MUTATIONS
]


def _bits(value):
    """Bitwise identity for floats (every NaN alike), type and value otherwise."""
    if isinstance(value, float):
        return value.hex()
    return type(value), value


def _outcome(call):
    try:
        return _bits(call())
    except Exception as exc:  # both paths must raise alike
        return type(exc), str(exc)


@st.composite
def deviation_instances(draw):
    """Small instances, filtered or not, in either order, float or Fraction.

    Weights and costs come from short grids so that weight ties, cost ties
    and misreports equal to another's cost are common; low budgets make the
    filter remove deviators and leave sole survivors.
    """
    n = draw(st.integers(2, 6))
    magnitudes = st.sampled_from([1, 1, 2, 3, 0.1, 0.7, 2.5])
    weights = [draw(magnitudes) * draw(st.sampled_from([1, -1])) for _ in range(n)]
    costs = draw(st.lists(st.sampled_from([0, 0.3, 1, 1, 2, 3, 7]), min_size=n, max_size=n))
    budget = draw(st.sampled_from([0.25, 0.5, 1, 2, 5, 40]))
    instance = AuctionInstance(
        tuple(float(w) for w in weights), tuple(float(c) for c in costs), float(budget), UNIT
    )
    rational = draw(st.booleans())
    return (instance.to_rational() if rational else instance), rational


def _fractions(*values):
    return st.sampled_from([Fraction(v) for v in values])


@st.composite
def non_dyadic_instances(draw):
    """Exact instances whose denominators are not powers of two.

    `deviation_instances` takes its fractions from doubles, so its
    denominators are powers of two. Here weights, costs and budget have
    denominators such as 3, 7 and 11, drawn from short lists so that ties
    stay common.
    """
    n = draw(st.integers(2, 6))
    magnitudes = _fractions("1", "1", "2", "1/3", "2/3", "3/7", "5/11", "22/7")
    weights = [draw(magnitudes) * draw(st.sampled_from([1, -1])) for _ in range(n)]
    costs = [draw(_fractions("0", "1/3", "1", "1", "2/7", "5/11", "3", "22/7")) for _ in range(n)]
    budget = draw(_fractions("1/7", "1/3", "5/7", "1", "20/11", "40/3"))
    interval = ValueInterval(Fraction(0), Fraction(1))
    return AuctionInstance(tuple(weights), tuple(costs), budget, interval)


class TestDeviatorKernel:
    @pytest.mark.parametrize("mutation", MUTATION_SPECS)
    @given(case=deviation_instances())
    @settings(max_examples=60, deadline=None)
    def test_equals_pipeline_on_every_grid_report(self, mutation, case):
        instance, _ = case
        mechanism = mechanism_under(mutation)
        for i in range(instance.n):
            true_cost = instance.unit_costs[i]
            kernel = deviator_kernel(instance, i, mutation)
            for z in misreport_grid(instance.unit_costs, i):
                reported = list(instance.unit_costs)
                reported[i] = z
                expected = _outcome(
                    lambda: _deviation_utility(
                        AuctionInstance(
                            instance.weights, reported, instance.budget, instance.interval
                        ),
                        i, true_cost, mechanism,
                    )
                )
                assert _outcome(lambda: kernel(z, true_cost)) == expected, (i, z)

    @pytest.mark.parametrize("mutation", MUTATION_SPECS)
    @given(instance=non_dyadic_instances())
    @settings(max_examples=40, deadline=None)
    def test_exact_path_on_non_dyadic_fractions(self, mutation, instance):
        mechanism = mechanism_under(mutation)
        for i in range(instance.n):
            true_cost = instance.unit_costs[i]
            kernel = deviator_kernel(instance, i, mutation)
            # int reports take the exact path too; a float report takes the other one
            grid = misreport_grid(instance.unit_costs, i)
            for z in (*grid, 0, 1, 3, 0.5):
                reported = list(instance.unit_costs)
                reported[i] = z
                expected = _outcome(
                    lambda: _deviation_utility(
                        AuctionInstance(
                            instance.weights, reported, instance.budget, instance.interval
                        ),
                        i, true_cost, mechanism,
                    )
                )
                assert _outcome(lambda: kernel(z, true_cost)) == expected, (i, z)

    # payment-scale multiplies by a float factor, and k-include-last can select
    # everyone, whose privacy loss is the float inf: neither stays exact
    @pytest.mark.parametrize("mutation", [None, "star-nonstrict", "no-threshold-cap"])
    @given(instance=non_dyadic_instances())
    @settings(max_examples=40, deadline=None)
    def test_exact_path_result_types(self, mutation, instance):
        for i in range(instance.n):
            kernel = deviator_kernel(instance, i, mutation)
            for z in (*misreport_grid(instance.unit_costs, i), 0, 1, 3):
                utility = kernel(z, instance.unit_costs[i])
                assert type(utility) is Fraction or (type(utility) is int and utility == 0), (
                    i, z, utility,
                )

    def test_survival_threshold_matches_filter(self):
        # i = 0 survives iff z <= B (W' - |w_0|) / |w_0| = 2
        inst = AuctionInstance((1.0, 1.0, 1.0), (0.5, 0.5, 0.5), 1.0, UNIT)
        kernel = deviator_kernel(inst, 0)
        mechanism = mechanism_under(None)
        for z, filtered in ((2.0, False), (math.nextafter(2.0, math.inf), True)):
            reported = AuctionInstance(inst.weights, (z, 0.5, 0.5), inst.budget, UNIT)
            assert (0 in prepare(reported)[2]) is filtered
            expected = _deviation_utility(reported, 0, 0.5, mechanism)
            assert _bits(kernel(z, 0.5)) == _bits(expected)

    def test_sole_survivor_gets_zero(self):
        # the costly partner is filtered whatever individual 0 reports, which
        # leaves individual 0 alone, and a sole survivor is filtered too
        inst = AuctionInstance((1.0, 1.0), (0.5, 9.0), 1.0, UNIT)
        kernel = deviator_kernel(inst, 0)
        for z in (0.0, 0.5, 1.0):
            with pytest.raises(EmptyInstance):
                prepare(AuctionInstance(inst.weights, (z, 9.0), inst.budget, UNIT))
            assert kernel(z, 0.5) == 0


def _neighbours(value, exact):
    """``value`` and the nearest reports on either side: a tiny `Fraction` step, or one ulp."""
    if exact:
        step = Fraction(1, 10**9)
        return value - step, value, value + step
    return math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)


def off_grid_reports(instance, i, rng):
    """Nonnegative reports for ``i`` off its grid, in the instance's arithmetic.

    Every other cost and its neighbours, 0, the survival threshold
    ``B (W' - |w_i|) / |w_i|`` and its neighbours, and random values; an
    exact instance also gets float reports, which take the kernel's other
    arithmetic path.
    """
    exact = instance.exact
    costs = instance.unit_costs
    reports = [costs[i] * 0]
    for j, cost in enumerate(costs):
        if j != i:
            reports += _neighbours(cost, exact)
    _, total = filter_survivors(instance, exempt=i)
    w_i = instance.abs_weights[i]
    reports += _neighbours(instance.budget * (total - w_i) / w_i, exact)
    top = 2 * max(costs) + 1
    for _ in range(4):
        if exact:
            reports.append(Fraction(int(rng.integers(0, 1000)), int(rng.integers(1, 60))) * top / 500)
        else:
            reports.append(float(rng.uniform(0.0, 1.0)) * top)
    if exact:
        reports += [float(z) for z in reports[::3]] + [0.5]
    return [z for z in reports if z >= 0]


class TestKernelSteps:
    """The kernel keeps one value per step, so results must not depend on call order."""

    @pytest.mark.parametrize("mutation", MUTATION_SPECS)
    @given(
        instance=st.one_of(deviation_instances().map(lambda case: case[0]), non_dyadic_instances()),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_shuffled_reports_match_pipeline(self, mutation, instance, seed):
        rng = np.random.default_rng(seed)
        mechanism = mechanism_under(mutation)
        for i in range(instance.n):
            true_cost = instance.unit_costs[i]
            kernel = deviator_kernel(instance, i, mutation)
            reports = [*misreport_grid(instance.unit_costs, i), *off_grid_reports(instance, i, rng)]
            # every report twice, under two different true costs
            calls = [(z, cost) for z in reports for cost in (true_cost, 2 * true_cost + 1)]
            for index in rng.permutation(len(calls)):
                z, cost = calls[index]
                reported = list(instance.unit_costs)
                reported[i] = z
                expected = _outcome(
                    lambda: _deviation_utility(
                        AuctionInstance(
                            instance.weights, reported, instance.budget, instance.interval
                        ),
                        i, cost, mechanism,
                    )
                )
                assert _outcome(lambda: kernel(z, cost)) == expected, (i, z, cost)

    @pytest.mark.parametrize("fields", [
        dict(),
        dict(arithmetic_mode="rational", weight_distribution="integer-grid",
             cost_distribution="integer-grid"),
    ])
    def test_at_most_two_mechanism_runs_per_slot(self, monkeypatch, fields):
        config = SweepConfig(n_range=(2, 9), instance_count=40, rng_seed=31, **fields)
        expected = run_truthfulness_sweep(config).to_json()
        kernels = []  # [slots, decide calls, reports] per deviator
        real_decide, real_kernel = verify.decide, verify.deviator_kernel

        def counting_decide(*args):
            kernels[-1][1] += 1
            return real_decide(*args)

        def counting_kernel(instance, i, mutation=None):
            # i's slots: one before each other survivor, and one after them all
            slots = len(filter_survivors(instance, exempt=i)[0])
            kernels.append([slots, 0, len(misreport_grid(instance.unit_costs, i))])
            return real_kernel(instance, i, mutation)

        monkeypatch.setattr(verify, "decide", counting_decide)
        monkeypatch.setattr(verify, "deviator_kernel", counting_kernel)
        assert run_truthfulness_sweep(config).to_json() == expected
        assert len(kernels) > 100
        for slots, calls, reports in kernels:
            assert calls <= 2 * slots, (slots, calls, reports)
        # the grid is larger than the step count: the bound is the steps', not the grid's
        assert sum(k[1] for k in kernels) < sum(k[2] for k in kernels) / 2


WALK_CONFIGS = [
    dict(),
    dict(weight_distribution="integer-grid", cost_distribution="integer-grid"),
    dict(weight_distribution="integer-grid", cost_distribution="integer-grid",
         arithmetic_mode="rational"),
]


def _step_of(instance, i, z):
    """``i``'s step at report ``z`` under the pipeline: None when filtered, else (slot, verdict)."""
    reported = list(instance.unit_costs)
    reported[i] = z
    try:
        canonical, rows, removed = prepare(
            AuctionInstance(instance.weights, reported, instance.budget, instance.interval)
        )
    except EmptyInstance:
        return None
    if i in removed:
        return None
    pos = rows.index(i)
    if pos == canonical.n - 1:  # the last position has no prefix test of its own
        return pos, False
    wabs = canonical.abs_weights
    through = list(accumulate(wabs, initial=wabs[0] * 0))[pos + 1]
    return pos, canonical.budget * (canonical.total_weight - through) >= z * through


class TestKernelWalk:
    """The walk answers a sorted grid in runs of reports on one step."""

    @pytest.mark.parametrize("fields", WALK_CONFIGS)
    def test_runs_are_the_steps(self, fields):
        config = SweepConfig(n_range=(2, 6), instance_count=12, rng_seed=37, **fields)
        split_slots = 0
        for index in range(config.instance_count):
            instance = generate_instance(config, index)
            for i in range(instance.n):
                true_cost = instance.unit_costs[i]
                grid = misreport_grid(instance.unit_costs, i)
                steps = [_step_of(instance, i, z) for z in grid]
                for mutation in MUTATION_SPECS:
                    kernel = deviator_kernel(instance, i, mutation)
                    runs = kernel.walk(grid, true_cost)
                    # the runs cover the grid in order
                    assert [lo for lo, _, _ in runs] == [0] + [hi for _, hi, _ in runs[:-1]]
                    assert runs[-1][1] == len(grid)
                    for lo, hi, utility in runs:
                        assert len(set(steps[lo:hi])) == 1, (index, i, mutation, lo, hi)
                        for z in grid[lo:hi]:
                            assert _bits(kernel(z, true_cost)) == _bits(utility), (index, i, z)
                    # adjacent runs never share a step
                    starts = [steps[lo] for lo, _, _ in runs]
                    assert all(a != b for a, b in zip(starts, starts[1:])), (index, i, mutation)
                starts = [step for step in steps if step is not None]
                split_slots += len({pos for pos, verdict in starts if not verdict}
                                   & {pos for pos, verdict in starts if verdict})
        assert split_slots > 0  # some slot holds both verdicts

    @pytest.mark.parametrize("mutation", MUTATION_SPECS)
    def test_witnesses_match_per_report_reference(self, mutation):
        witnesses = 0
        for fields in WALK_CONFIGS:
            config = SweepConfig(n_range=(2, 7), instance_count=40, rng_seed=41, **fields)
            for index in range(config.instance_count):
                record = _truthfulness_record(config, index, mutation)
                truthful = [w for w in record["failures"] if w["property"] == "truthful"]
                assert truthful == reference_truthful_witnesses(config, index, mutation), index
                witnesses += len(truthful)
        if mutation is not None:
            assert witnesses > 0  # the mutant is caught, so there is something to compare


class TestNanUtility:
    def test_nan_utility_is_a_truthful_witness(self):
        # k-include-last selects everyone: epsilons are the float inf, and the
        # cost-0 individual 0's honest utility is Fraction(0) * inf = nan
        cfg = SweepConfig(
            n_range=(2, 8),
            instance_count=20,
            weight_distribution="integer-grid",
            cost_distribution="integer-grid",
            arithmetic_mode="rational",
            rng_seed=1,
        )
        assert generate_instance(cfg, 3).unit_costs[0] == 0
        record = _truthfulness_record(cfg, 3, "k-include-last")
        assert not record["checks"]["truthful"]
        nan_witnesses = [
            w for w in record["failures"]
            if w["property"] == "truthful" and w["honest_utility"] == "nan"
        ]
        assert nan_witnesses
        assert {w["individual"] for w in nan_witnesses} == {0}
        # the honest mechanism on the same instance is clean
        assert _truthfulness_record(cfg, 3, None)["checks"]["truthful"]


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

    @pytest.mark.parametrize(
        "threads, cpus, expected",
        [(1000, 2, [2]), (1000, 64, [5]), (3, 64, [3]), (1000, None, []), (1, 64, [])],
    )
    def test_worker_count_capped(self, monkeypatch, threads, cpus, expected):
        created = []

        class SerialPool:
            """Records the worker count it is asked for and maps in process."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        cfg = SweepConfig(n_range=(2, 5), instance_count=5, rng_seed=59)
        serial = run_truthfulness_sweep(cfg).to_json()
        monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        assert run_truthfulness_sweep(cfg, threads=threads).to_json() == serial
        assert created == expected


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
