import bisect
import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privauction import (
    AuctionInstance,
    DegenerateAllOnes,
    EmptyInstance,
    InstanceTooLarge,
    NotCanonical,
    brute_force_opt,
    canonicalize,
    fair_inner_product,
    filter_assumption1,
    fractional_optimum,
    kkt_certificate,
    opt_bounds_check,
)
from privauction import optimal
from privauction.verify import SweepConfig, generate_instance, hardness_instance

from conftest import UNIT, make_instance


def prepared(weights, costs, budget):
    inst = make_instance(weights, costs, budget)
    filtered, _ = filter_assumption1(inst)
    canonical, _ = canonicalize(filtered)
    return canonical


def reference_feasible(inst, x):
    """Independent feasibility oracle: tight payments within budget."""
    spent = sum(
        inst.unit_costs[i] * inst.abs_weights[i] for i in range(inst.n) if x[i]
    )
    residual = sum(inst.abs_weights[i] for i in range(inst.n) if not x[i])
    return spent <= inst.budget * residual


def reference_optimum(inst):
    """Independent oracle: plain enumeration in lexicographic order (n <= 14).

    Returns the lexicographically smallest optimal vector and its objective;
    exact on rational instances.
    """
    n = inst.n
    wabs = inst.abs_weights
    costs = inst.unit_costs
    if all(v == 0 for v in costs):
        return (1,) * n, inst.total_weight
    best_x, best = None, None
    for x in itertools.product((0, 1), repeat=n):
        if all(x):
            continue
        spent = sum(costs[i] * wabs[i] for i in range(n) if x[i])
        residual = sum(wabs[i] for i in range(n) if not x[i])
        if spent > inst.budget * residual:
            continue
        value = sum(wabs[i] for i in range(n) if x[i])
        if best is None or value > best:
            best_x, best = x, value
    return best_x, best


def search_reference(inst):
    """The oracle's own semantics by plain enumeration (n <= 20).

    Vectors are enumerated by interleaved doubling in index order, so x_0 is
    the most significant bit of a vector's position and positions run in
    lexicographic order, exclude first. Sizes and values are summed in index
    order from zero, so on float input every sum is the one the search
    computes for that leaf; the size sums never decrease, so a vector whose
    total fits passed every take test on the way. The full vector is
    excluded, and the first vector of the greatest value wins.
    """
    n = inst.n
    wabs = inst.abs_weights
    costs = inst.unit_costs
    if all(v == 0 for v in costs):
        return (1,) * n, inst.total_weight
    capacity = inst.budget * inst.total_weight
    dtype = object if inst.exact else float
    used = np.zeros(1, dtype) + wabs[0] * 0
    value = used.copy()
    for i in range(n):
        size = wabs[i] * (costs[i] + inst.budget)
        used = np.stack([used, used + size], axis=1).ravel()
        value = np.stack([value, value + wabs[i]], axis=1).ravel()
    value[used > capacity] = -1
    value[-1] = -1
    best = int(np.argmax(value))
    return tuple((best >> (n - 1 - i)) & 1 for i in range(n)), value[best]


class TestSearchReference:
    """The numpy reference against a plain loop over `itertools.product`."""

    @staticmethod
    def product_reference(inst):
        n = inst.n
        wabs = inst.abs_weights
        costs = inst.unit_costs
        capacity = inst.budget * inst.total_weight
        best_x, best = None, None
        for x in itertools.product((0, 1), repeat=n):
            if all(x):
                continue
            used = value = wabs[0] * 0
            for i in range(n):  # index order, capacity checked at every take
                if x[i]:
                    used += wabs[i] * (costs[i] + inst.budget)
                    value += wabs[i]
                    if used > capacity:
                        break
            else:
                if best is None or value > best:
                    best_x, best = x, value
        return best_x, best

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_a_plain_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        inst = make_instance(
            rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n),
            rng.uniform(0, 2, n),
            float(rng.uniform(0.05, 4)),
        )
        if seed % 3 == 0:
            inst = inst.to_rational()
        elif seed % 3 == 1:  # equal weights: ties everywhere
            inst = make_instance([inst.abs_weights[0]] * n, inst.unit_costs, inst.budget)
        assert search_reference(inst) == self.product_reference(inst)


def oracle_instance(index):
    """An instance of the approximation sweep's family (n 14-20, signed weights), seed 3."""
    return generate_instance(SweepConfig(n_range=(14, 20), rng_seed=3), index)


class TestFractionalOptimum:
    def test_worked_example(self):
        inst = make_instance([1, 1, 1, 1], [1, 2, 2, 2], 1.5)
        sol = fractional_optimum(inst)
        # crossover scan by hand: q - B p = -6, -3.5, 0, 3.5, 7
        assert sol.ell == 2
        assert sol.x_star == (1, 1, 0.0, 0)
        assert sol.objective == 2.0
        assert sol.payments == (0.5, 1.0, 0.0, 0.0)
        assert sum(sol.payments) == pytest.approx(inst.budget)

    def test_zero_budget_buys_nothing(self):
        inst = make_instance([1, 1], [1, 2], 0)
        sol = fractional_optimum(inst)
        assert sol.ell == 0
        assert sol.x_star[0] == 0.0
        assert sol.objective == 0.0

    def test_zero_budget_free_individuals(self):
        inst = make_instance([1, 1, 1], [0, 0, 1], 0)
        sol = fractional_optimum(inst)
        assert sol.ell == 2
        assert sol.objective == 2.0
        assert sum(sol.payments) == 0.0

    def test_monotone_in_budget(self):
        inst_base = make_instance([2, 1, 3, 1], [0.5, 1, 1.5, 2], 1)
        previous = -1.0
        for budget in np.linspace(0.0, 20.0, 40):
            sol = fractional_optimum(
                make_instance([2, 1, 3, 1], [0.5, 1, 1.5, 2], float(budget))
            )
            assert sol.objective >= previous - 1e-12
            previous = sol.objective
        assert previous <= inst_base.total_weight

    def test_budget_identity_tight(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            inst = make_instance(
                rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n),
                np.sort(rng.uniform(0.01, 2, n)),
                float(rng.uniform(0.1, 5)),
            )
            sol = fractional_optimum(inst)
            spent = sum(
                inst.unit_costs[i] * inst.abs_weights[i] * sol.x_star[i]
                for i in range(n)
            )
            reserved = inst.budget * sum(
                inst.abs_weights[i] * (1 - sol.x_star[i]) for i in range(n)
            )
            assert spent == pytest.approx(reserved, rel=1e-9, abs=1e-12)
            assert all(0 <= x <= 1 for x in sol.x_star)

    def test_requires_canonical(self):
        with pytest.raises(NotCanonical):
            fractional_optimum(make_instance([1, 1], [2, 1], 1))

    def test_all_zero_costs_degenerate(self):
        with pytest.raises(DegenerateAllOnes):
            fractional_optimum(make_instance([1, 1], [0, 0], 1))

    def test_exact_arithmetic(self):
        inst = make_instance([1, 1, 1, 1], [1, 2, 2, 2], 1.5).to_rational()
        sol = fractional_optimum(inst)
        assert sol.ell == 2
        assert sum(sol.payments) == inst.budget  # exact equality


class TestKktCertificate:
    def test_worked_example(self):
        inst = make_instance([1, 1, 1, 1], [1, 2, 2, 2], 1.5)
        sol = fractional_optimum(inst)
        cert = kkt_certificate(inst, sol)
        assert cert.lagrange_budget == pytest.approx(1 / 3.5)
        assert cert.satisfied(1e-9)

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=150, deadline=None)
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        inst = make_instance(
            rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n),
            np.sort(rng.uniform(0.01, 2, n)),
            float(rng.uniform(0.05, 5)),
        )
        sol = fractional_optimum(inst)
        cert = kkt_certificate(inst, sol)
        assert cert.lagrange_budget >= 0
        assert all(m >= 0 for m in cert.upper_multipliers)
        assert all(m >= 0 for m in cert.lower_multipliers)
        assert cert.satisfied(1e-9)


class TestBruteForceOpt:
    def test_hardness_value(self, hardness):
        sol = brute_force_opt(hardness)
        assert sol.objective == 2.0
        assert sum(sol.x) == 2
        assert sol.x[0] == 1  # cheapest individual always selected

    def test_zero_budget(self):
        inst = make_instance([1, 2], [1, 1], 0)
        sol = brute_force_opt(inst)
        assert sol.objective == 0.0
        assert sol.x == (0, 0)

    def test_matches_fractional_when_integral(self):
        inst = make_instance([1, 1, 1, 1], [1, 2, 2, 2], 1.5)
        oracle = brute_force_opt(inst)
        fractional = fractional_optimum(inst)
        assert oracle.objective == fractional.objective == 2.0

    def test_all_zero_costs_full_participation(self):
        inst = make_instance([1, 2], [0, 0], 1)
        sol = brute_force_opt(inst)
        assert sol.x == (1, 1)
        assert sol.objective == 3.0
        assert sol.payments == (0.0, 0.0)

    def test_lexicographic_ties(self, hardness):
        # optima {0,1}, {0,2}, {0,3} tie; (1,0,0,1) is lexicographically least
        sol = brute_force_opt(hardness)
        assert sol.x == (1, 0, 0, 1)

    def test_size_limit(self):
        inst = make_instance([1] * 21, [1] * 21, 1)
        with pytest.raises(InstanceTooLarge):
            brute_force_opt(inst)

    @pytest.mark.parametrize("exact", [False, True])
    def test_requires_canonical(self, exact):
        inst = make_instance([1, 2, 3], [0.5, 2, 1], 1)
        with pytest.raises(NotCanonical, match="canonicalize the instance first"):
            brute_force_opt(inst.to_rational() if exact else inst)

    def test_feasibility_of_returned_solution(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            inst = make_instance(
                rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n),
                np.sort(rng.uniform(0, 2, n)),
                float(rng.uniform(0.1, 4)),
            )
            sol = brute_force_opt(inst)
            assert reference_feasible(inst, sol.x)
            assert sum(sol.payments) <= inst.budget * (1 + 1e-9)

    def test_matches_pure_python_enumeration(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            inst = make_instance(
                rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n),
                np.sort(rng.uniform(0, 2, n)),
                float(rng.uniform(0.1, 4)),
            )
            sol = brute_force_opt(inst)
            best = 0.0
            for x in itertools.product((0, 1), repeat=n):
                if all(x) or not reference_feasible(inst, x):
                    continue
                best = max(best, sum(inst.abs_weights[i] for i in range(n) if x[i]))
            assert sol.objective == pytest.approx(best, rel=1e-12)

    def test_exact_rational_path(self):
        inst = make_instance([1, 1, 1, 1], [1, 2, 2, 2], 1.5).to_rational()
        sol = brute_force_opt(inst)
        assert sol.objective == Fraction(2)
        assert sol.x == (1, 0, 0, 1)


class TestBranchAndBoundCrossCheck:
    """The search against plain enumeration on every instance family."""

    @staticmethod
    def check_float(inst):
        """Objective within rounding, feasible x; returns (x, reference x)."""
        sol = brute_force_opt(inst)
        x, best = reference_optimum(inst)
        assert isinstance(sol.objective, float)
        assert sol.objective == pytest.approx(best, rel=1e-12)
        assert reference_feasible(inst, sol.x)
        return sol.x, x

    @staticmethod
    def check_exact(inst):
        sol = brute_force_opt(inst)
        x, best = reference_optimum(inst)
        assert isinstance(sol.objective, Fraction)
        assert (sol.x, sol.objective) == (x, best)

    def test_signed_floats_any_order(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            inst = make_instance(
                rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n),
                rng.uniform(0, 2, n),  # drawn in any order; the oracle takes it sorted
                float(rng.uniform(0.1, 4)),
            )
            self.check_float(canonicalize(inst)[0])

    def test_uniform_weight_floats(self):
        config = SweepConfig(n_range=(2, 12), weight_distribution="uniform", rng_seed=42)
        for index in range(60):
            self.check_float(generate_instance(config, index))

    def test_integer_grid_float_and_rational(self):
        config = SweepConfig(
            n_range=(2, 12),
            weight_distribution="integer-grid",
            cost_distribution="integer-grid",
            rng_seed=43,
        )
        for index in range(40):
            inst = generate_instance(config, index)
            self.check_float(inst)
            self.check_exact(inst.to_rational())

    @pytest.mark.parametrize("budget", [0.3, 1.0, 3.0])
    def test_all_equal_family(self, budget):
        for n in range(2, 13):
            inst = make_instance([1] * n, [1] * n, budget)
            x, reference_x = self.check_float(inst)
            assert x == reference_x
            self.check_exact(inst.to_rational())

    @pytest.mark.parametrize(
        "weights, costs, budget",
        [
            ([1, 2, 3], [1, 2, 3], 0),
            ([2, -1, 3, 1], [0, 0, 1, 2], 0),
            ([1, 1, 1], [0, 0, 0], 0),
            ([1, -2, 3], [0, 0, 0], 2),
            ([3, 1, 2, 2], [0, 0, 0.5, 1], 1),
            ([1, 1, 1, 1], [0, 0, 0, 1], 0.5),
        ],
    )
    def test_zero_budget_and_zero_cost_corners(self, weights, costs, budget):
        inst = make_instance(weights, costs, budget)
        x, reference_x = self.check_float(inst)
        assert x == reference_x
        self.check_exact(inst.to_rational())

    @pytest.mark.parametrize("index", [0, 27, 152])
    def test_uniform_weight_ties_break_lexicographically(self, index):
        # Equal objectives must compare equal whichever bits are set; the
        # reference runs on the exact rational values of the same floats.
        config = SweepConfig(
            n_range=(2, 14), instance_count=300, weight_distribution="uniform", rng_seed=5
        )
        inst = generate_instance(config, index)
        x, _ = reference_optimum(inst.to_rational())
        assert brute_force_opt(inst).x == x


class TestSearchSemantics:
    """The search, greedy seed included, against its exact semantics."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["any-order", "cost-ties", "uniform", "rational"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_search_reference(self, seed, family):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        weights = rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n)
        costs = rng.uniform(0, 2, n)  # drawn in any order; the oracle takes it sorted
        budget = float(rng.uniform(0.05, 4))
        if family == "cost-ties":
            costs = rng.choice(rng.uniform(0, 2, 3), n)
        elif family == "uniform":
            weights = np.full(n, float(rng.lognormal(0, 1)))
        inst = make_instance(weights, costs, budget)
        if family == "rational":
            inst = AuctionInstance(
                tuple(Fraction(int(w), int(d)) for w, d in zip(
                    rng.integers(-9, 10, n) | 1, rng.integers(1, 6, n))),
                tuple(Fraction(int(v), int(d)) for v, d in zip(
                    rng.integers(0, 7, n), rng.integers(1, 6, n))),
                Fraction(int(rng.integers(1, 30)), 10),
                UNIT,
            )
        inst = canonicalize(inst)[0]
        sol = brute_force_opt(inst)
        assert (sol.x, sol.objective) == search_reference(inst)

    def test_bound_one_ulp_below_optimal_leaf(self):
        # The search builds its frontiers after 500 nodes. After taking rows
        # 0-2, the frontier bound, summed in the frontier's order, rounds to
        # 9.36582765200146, one ulp below the optimum's index-order value; a
        # floor test without the float slack cut that branch and returned the
        # zero vector.
        inst = AuctionInstance(
            (0.7169081967807504, -0.963458963704609, 0.9080664735487807,
             -0.9008466804754341, -3.2596286163238637, 1.0254408528402137,
             -0.30786061419311417, -0.39555317590102607, -0.8880640782336698,
             13.224218581761198),
            (0.009566827119965593, 0.1175153214879685, 0.21511521390851662,
             0.44634199501058625, 0.5402294458625514, 0.7438724675171393,
             0.7667511013121817, 1.0792005509351446, 1.1927225495577323,
             1.3247483384035386),
            0.721322739032219,
            UNIT,
        )
        sol = brute_force_opt(inst)
        assert sol.x == (1,) * 9 + (0,)
        assert sol.objective == 9.365827652001462


class TestFrontierBound:
    """The exact completion bound that a long search builds for its last items."""

    @staticmethod
    def frontier_lookups(monkeypatch, inst):
        """The oracle's answer and how many frontier lookups it made."""
        lookups = 0

        def counted(*args):
            nonlocal lookups
            lookups += 1
            return bisect.bisect_right(*args)

        monkeypatch.setattr(optimal, "bisect_right", counted)
        return brute_force_opt(inst), lookups

    def test_hard_instance_uses_the_frontier(self, monkeypatch):
        inst = oracle_instance(2701)
        sol, lookups = self.frontier_lookups(monkeypatch, inst)
        assert lookups > 0
        assert (sol.x, sol.objective) == search_reference(inst)

    def test_all_equal_uses_the_frontier(self, monkeypatch):
        inst = make_instance([1] * 20, [1] * 20, 0.3).to_rational()
        sol, lookups = self.frontier_lookups(monkeypatch, inst)
        assert lookups > 0
        assert sol.x == (0,) * 16 + (1,) * 4
        assert sol.objective == Fraction(4)

    def test_small_instance_skips_the_frontier(self, monkeypatch):
        inst = make_instance([1, 2, 3, 1, 2], [0.5, 1, 1.5, 2, 2.5], 1)
        sol, lookups = self.frontier_lookups(monkeypatch, inst)
        assert lookups == 0
        assert (sol.x, sol.objective) == search_reference(inst)

    @pytest.mark.parametrize("weight", [1.0, 0.7])
    def test_equal_float_weights_skip_the_frontier(self, monkeypatch, weight):
        # every leaf ties, and the float allowance would keep each tie open
        inst = make_instance([weight] * 20, [1] * 20, 0.3)
        sol, lookups = self.frontier_lookups(monkeypatch, inst)
        assert lookups == 0
        assert sol.x == (0,) * 16 + (1,) * 4
        assert (sol.x, sol.objective) == search_reference(inst)

    def test_matches_search_reference_up_to_twenty(self):
        for index in range(100):
            inst = oracle_instance(index)
            sol = brute_force_opt(inst)
            assert (sol.x, sol.objective) == search_reference(inst), index

    def test_frontier_from_the_root_keeps_answers(self, monkeypatch):
        # Weights k/d tie at rounding level, where a bound without its slack
        # for the two summation orders cuts the branch that holds the answer.
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(150):
            n = int(rng.integers(6, 15))
            d = int(rng.integers(2, 11))
            cases.append(canonicalize(make_instance(
                rng.integers(1, 12, n) / d, rng.integers(0, 12, n) / d, rng.integers(1, 30) / 10
            ))[0])
        cases += [inst.to_rational() for inst in cases[::10]]
        plain = [brute_force_opt(inst) for inst in cases]
        monkeypatch.setattr(optimal, "_FRONTIER_AFTER", 1)
        monkeypatch.setattr(optimal, "_FRONTIER_DEPTH", optimal.ORACLE_LIMIT)
        assert [brute_force_opt(inst) for inst in cases] == plain


class TestOptBoundsCheck:
    def test_hardness_composition(self, hardness):
        report = opt_bounds_check(hardness)
        assert report.opt == 2.0
        assert report.mechanism_objective == 1.0
        assert report.ratio == 2.0
        assert report.uniform_weights
        assert report.ok, report.checks

    def test_prefix_bound_and_crossover(self, hardness):
        report = opt_bounds_check(hardness)
        assert report.ell >= report.k
        assert report.checks["prefix_weight_bound"]

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=250, deadline=None)
    def test_random_sweep_no_violations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        weights = rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n)
        costs = rng.uniform(0, 2, n)
        inst = make_instance(weights, costs, float(rng.uniform(0.2, 6)))
        try:
            filtered, _ = filter_assumption1(inst)
        except EmptyInstance:
            return
        if filtered.n < 2:
            return
        canonical, _ = canonicalize(filtered)
        report = opt_bounds_check(canonical)
        assert report.ok, (canonical, report.to_json())
        assert report.ratio <= 5 * (1 + 1e-9)

    def test_uniform_two_approximation(self):
        rng = np.random.default_rng(33)
        for _ in range(150):
            n = int(rng.integers(2, 10))
            mag = float(rng.lognormal(0, 1))
            inst = make_instance(
                [mag] * n, rng.uniform(0, 2, n), float(rng.uniform(0.3, 4))
            )
            try:
                filtered, _ = filter_assumption1(inst)
            except EmptyInstance:
                continue
            if filtered.n < 2:
                continue
            canonical, _ = canonicalize(filtered)
            report = opt_bounds_check(canonical)
            assert report.checks["ratio_le_2_uniform"], report.to_json()

    def test_degenerate_zero_costs(self):
        inst = prepared([1, 2, 3], [0, 0, 0], 1)
        report = opt_bounds_check(inst)
        assert report.degenerate_zero_costs
        assert report.ok, report.checks

    @pytest.mark.parametrize("exact", [True, False])
    def test_exact_checks_catch_a_tiny_move(self, monkeypatch, exact):
        # Moving the fractional coordinate by 1e-15 breaks the tight budget by
        # about that much: inside the float slack, but not exactly zero.
        inst = prepared([3, 1, 2, 2], [1, 1, 2, 3], 2)
        if exact:
            inst = inst.to_rational()
        true = fractional_optimum(inst)
        assert 0 < true.x_star[true.ell] < 1
        x = list(true.x_star)
        x[true.ell] += Fraction(1, 10**15) if exact else 1e-15
        monkeypatch.setattr(optimal, "fractional_optimum", lambda _: replace(true, x_star=tuple(x)))
        checks = opt_bounds_check(inst).checks
        failed = {name for name, ok in checks.items() if not ok}
        assert failed == ({"budget_identity", "kkt_certificate"} if exact else set())

    def test_rational_objectives_compared_exactly(self, hardness):
        # A mechanism short of OPT / 5 by a relative 1e-12 passes the float
        # slack, but rational input is checked with none.
        opt = brute_force_opt(hardness.to_rational()).objective
        short = opt / 5 * (1 - Fraction(1, 10**12))
        exact = opt_bounds_check(hardness.to_rational(), SimpleNamespace(k=1, objective=short))
        rounded = opt_bounds_check(hardness, SimpleNamespace(k=1, objective=float(short)))
        assert not exact.checks["ratio_le_5"]
        assert rounded.checks["ratio_le_5"]


def test_exact_report_beyond_doubles_is_strict_json():
    # every pair of weights sums beyond the double range; exact input keeps its decisions
    inst = make_instance([1e308] * 3, [0.1, 0.2, 0.3], 1.0).to_rational()
    report = opt_bounds_check(inst)
    assert report.ok
    data = report.to_json()
    assert data["opt"] == data["mechanism_objective"] == "inf" and data["ratio"] == "nan"
    json.dumps(data, allow_nan=False)
