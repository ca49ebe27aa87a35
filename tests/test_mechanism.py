import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privauction
from privauction import (
    AuctionInstance,
    EmptyInstance,
    NotCanonical,
    ValueInterval,
    canonicalize,
    fair_inner_product,
    filter_assumption1,
)
from privauction.errors import PrivauctionError
from privauction.mechanism import MechanismOutcome, decide, prefix_length, star_wins, topk_rate
from privauction.verify import _MUTANT_RULES, hardness_instance, mechanism_under, parse_mutation

from conftest import UNIT, make_instance


class NonUniformWeights(PrivauctionError):
    """Operation requires all weight magnitudes to be equal."""


def ghosh_roth_special_case(instance: AuctionInstance) -> MechanismOutcome:
    """Uniform-weight run; the selected set always equals the affordable prefix.

    With equal magnitudes the single-winner branch can fire only at ``k = 1``
    with the designated individual in first position, where the selected sets
    coincide; the payment rule that actually fired is visible in ``branch``.
    """
    if not instance.has_uniform_weights:
        raise NonUniformWeights("all weight magnitudes must be equal")
    outcome = fair_inner_product(instance)
    if set(outcome.selected) != set(range(outcome.k)):
        raise AssertionError("uniform-weight selection differs from the affordable prefix")
    return outcome


def prepared(weights, costs, budget):
    """Filter + canonicalize, the mechanism's documented precondition."""
    inst = make_instance(weights, costs, budget)
    filtered, _ = filter_assumption1(inst)
    canonical, _ = canonicalize(filtered)
    return canonical


class TestHardnessTrace:
    def test_full_trace(self, hardness):
        out = fair_inner_product(hardness)
        assert out.k == 1
        assert out.i_star == 0
        assert out.branch == "star"
        assert out.r == 1  # second individual is the payment threshold
        assert out.p_hat == pytest.approx(2 / 3, rel=0, abs=0)
        assert out.selected == (0,)
        assert out.payments == (2 / 3, 0.0, 0.0, 0.0)
        assert out.dclef.epsilons()[0] == pytest.approx(1 / 3)
        # winner's privacy cost is covered
        assert 1.0 * out.dclef.epsilons()[0] <= out.p_hat
        assert out.objective == 1.0


class TestPrefixBranch:
    def test_uniform_three_large_budget(self):
        inst = prepared([1, 1, 1], [1, 1, 1], 10)
        out = fair_inner_product(inst)
        # t=3 never qualifies: the final position's residual weight is zero
        assert out.k == 2
        assert out.branch == "topk"
        assert out.selected == (0, 1)
        assert out.payments == (1.0, 1.0, 0.0)

    def test_budget_rate_binds(self):
        # successor threshold above the proportional budget split
        inst = prepared([1, 1, 1], [0.1, 0.1, 2], 1.0)
        out = fair_inner_product(inst)
        assert out.k == 2
        assert out.selected == (0, 1)
        # min(B / w([2]), v_3 / (W - w([2]))) = min(0.5, 2) = 0.5
        assert out.payments == (0.5, 0.5, 0.0)
        paid = sum(out.payments)
        assert paid == pytest.approx(1.0)

    def test_successor_cap_binds(self):
        inst = prepared([1, 1, 1], [1, 1, 1], 10)
        out = fair_inner_product(inst)
        # min(10/2, 1/1) = 1
        assert out.payments[0] == 1.0


class TestStarBranch:
    def test_heavy_individual_beyond_prefix(self):
        # heavy individual past the prefix: no threshold candidate exists
        inst = AuctionInstance(
            (1.0, 1.0, 1.0, 1.5), (0.01, 1.0, 1.0, 1.0), 0.6, UNIT
        )
        filtered, removed = filter_assumption1(inst)
        assert removed == []
        out = fair_inner_product(inst)
        assert out.k == 1
        assert out.branch == "star"
        assert out.selected == (3,)
        assert out.r is None
        assert out.p_hat == 0.6  # falls back to the whole budget
        assert sum(out.payments) <= inst.budget

    def test_threshold_payment(self, hardness):
        out = fair_inner_product(hardness)
        # |w*| v_r / (W - |w*|) with v_r = 2
        assert out.p_hat == 1 * 2 / (4 - 1)

    def test_single_winner_payment_within_budget(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            weights = rng.lognormal(0, 1.5, n)
            costs = np.sort(rng.uniform(0, 2, n))
            inst = make_instance(weights, costs, float(rng.uniform(0.2, 5)))
            try:
                filtered, _ = filter_assumption1(inst)
            except EmptyInstance:
                continue
            if filtered.n < 2:
                continue
            canonical, _ = canonicalize(filtered)
            out = fair_inner_product(canonical)
            assert sum(out.payments) <= canonical.budget * (1 + 1e-9)


class TestErrors:
    def test_not_canonical(self):
        inst = make_instance([1, 1], [2, 1], 10)
        with pytest.raises(NotCanonical):
            fair_inner_product(inst)

    def test_unfiltered_instance_cannot_pay(self):
        # nobody affordable: k would be 0
        inst = make_instance([1, 1], [100, 100], 0.5)
        with pytest.raises(EmptyInstance):
            fair_inner_product(inst)

    def test_single_individual_rejected_by_filter(self):
        with pytest.raises(EmptyInstance):
            filter_assumption1(make_instance([1], [1], 10))

    def test_single_winner_check_survives_optimize(self):
        # a non-strict star rule picks the star branch on the equality case,
        # where the threshold r = 1 is not costlier than i_star = 2
        script = (
            "import sys\n"
            "if __debug__: sys.exit('not optimized')\n"
            "from privauction import AuctionInstance, ValueInterval, mechanism\n"
            "mechanism.star_wins = lambda w_star, rest: w_star >= rest\n"
            "inst = AuctionInstance((1.0, 1.0, 2.0), (1.0, 1.0, 2.0), 2.0, ValueInterval(0.0, 1.0))\n"
            "mechanism.fair_inner_product(inst)\n"
        )
        src = Path(privauction.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 1, result.stderr
        assert "AssertionError: single-winner threshold" in result.stderr


class TestGhoshRothSpecialCase:
    def test_trace_small_budget(self):
        inst = prepared([1, 1, 1], [1, 2, 3], 2)
        out = ghosh_roth_special_case(inst)
        assert out.k == 1
        assert out.selected == (0,)
        assert out.payments[0] == 1.0

    def test_trace_two_heavy(self):
        inst = prepared([2, 2], [1, 1], 100)
        out = ghosh_roth_special_case(inst)
        assert out.k == 1
        assert out.selected == (0,)
        assert out.payments[0] == pytest.approx(1.0)

    def test_rejects_nonuniform(self):
        inst = prepared([1, 2, 1], [1, 1, 1], 5)
        with pytest.raises(NonUniformWeights):
            ghosh_roth_special_case(inst)

    def test_selected_always_the_prefix(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            mag = float(rng.lognormal(0, 1))
            costs = np.sort(rng.uniform(0, 2, n))
            inst = make_instance([mag] * n, costs, float(rng.uniform(0.5, 4)))
            try:
                filtered, _ = filter_assumption1(inst)
            except EmptyInstance:
                continue
            if filtered.n < 2:
                continue
            canonical, _ = canonicalize(filtered)
            out = ghosh_roth_special_case(canonical)
            assert set(out.selected) == set(range(out.k))


class TestInvariantSweep:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=200, deadline=None)
    def test_budget_and_ir(self, seed):
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
        out = fair_inner_product(canonical)
        assert sum(out.payments) <= canonical.budget * (1 + 1e-9)
        eps = out.dclef.epsilons()
        for i in range(canonical.n):
            cost = canonical.unit_costs[i] * eps[i]
            assert out.payments[i] >= cost - 1e-9 * max(1.0, cost)
        for i in range(canonical.n):
            if i not in out.selected:
                assert out.payments[i] == 0

    def test_deterministic_bit_for_bit(self):
        inst = prepared([3, -1, 2, 5], [0.3, 0.7, 0.9, 1.4], 2.5)
        a = fair_inner_product(inst)
        b = fair_inner_product(inst)
        assert a == b

    @given(
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
    )
    @settings(max_examples=16, deadline=None)
    def test_sign_flip_invariance(self, signs):
        weights = [1.5, 2.5, 0.5, 1.0]
        flipped = [w * s for w, s in zip(weights, signs)]
        base = prepared(weights, [0.2, 0.4, 0.6, 0.8], 2.0)
        other = prepared(flipped, [0.2, 0.4, 0.6, 0.8], 2.0)
        a = fair_inner_product(base)
        b = fair_inner_product(other)
        assert a.selected == b.selected
        assert a.payments == b.payments
        assert a.branch == b.branch


class TestRationalMode:
    def test_exact_agreement_with_float_on_integer_grid(self):
        inst = prepared([2, 3, 1, 5], [1, 2, 3, 4], 6)
        out_float = fair_inner_product(inst)
        out_exact = fair_inner_product(inst.to_rational())
        # every threshold decision is division-free, so the discrete outcome
        # agrees exactly; payments involve one division and may differ by ulps
        assert out_exact.selected == out_float.selected
        assert out_exact.branch == out_float.branch
        assert out_exact.k == out_float.k
        for p_exact, p_float in zip(out_exact.payments, out_float.payments):
            assert float(p_exact) == pytest.approx(p_float, rel=1e-15)

    def test_exact_budget_and_ir(self):
        inst = prepared([2, 3, 1, 5], [1, 2, 3, 4], 6).to_rational()
        out = fair_inner_product(inst)
        assert sum(out.payments) <= inst.budget
        eps = out.dclef.epsilons()
        for i in range(inst.n):
            assert out.payments[i] >= inst.unit_costs[i] * eps[i]


RULE_SETS = {"honest": (prefix_length, star_wins, topk_rate), **_MUTANT_RULES}


class TestDecideHomogeneity:
    """Money and weight enter every decision in equal degree on both sides."""

    @pytest.mark.parametrize("rules", RULE_SETS.values(), ids=RULE_SETS.keys())
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_scaling_keeps_decisions(self, rules, data):
        n = data.draw(st.integers(1, 7))
        positive = st.fractions(Fraction(1, 11), 9, max_denominator=12)
        wabs = data.draw(st.lists(positive, min_size=n, max_size=n))
        nonnegative = st.fractions(0, 9, max_denominator=12)
        costs = sorted(data.draw(st.lists(nonnegative, min_size=n, max_size=n)))
        budget = data.draw(positive)
        ids = data.draw(st.permutations(range(n)))

        def run(money, weight):
            ws = [w * weight for w in wabs]
            try:
                return decide(ws, [c * money for c in costs], ids, budget * money, sum(ws), rules)
            except EmptyInstance:
                return None

        base = run(1, 1)
        m, s = data.draw(positive), data.draw(positive)
        # the deviation kernel's scaling: every scaled entry an int
        big_m = math.lcm(budget.denominator, *(c.denominator for c in costs))
        big_e = math.lcm(*(w.denominator for w in wabs))
        for money, weight in ((m, s), (big_m, big_e)):
            scaled = run(money, weight)
            if base is None:
                assert scaled is None
                continue
            k, i_star, r, p_hat, rate = base
            assert scaled[:3] == (k, i_star, r)
            if rate is None:
                assert scaled[4] is None
                if r is None:
                    assert (p_hat, scaled[3]) == (budget, budget * money)
                else:  # a payment: scales with money
                    assert Fraction(*scaled[3]) == money * Fraction(*p_hat)
            else:  # money per unit weight
                assert Fraction(*scaled[4]) == Fraction(money) / weight * Fraction(*rate)

    def test_integer_input_gives_integer_pairs(self):
        honest = RULE_SETS["honest"]
        # equal weights, costs 1, 1, 5, B = 4: the top-k branch at rate 4 / 2
        topk = decide([1, 1, 1], [1, 1, 5], [0, 1, 2], 4, 3, honest)
        assert topk == (2, 0, None, None, (4, 2))
        # weights 2, 3, 1, costs 1, 2, 3, B = 6: individual 1 alone, paid 3 * 3 / (6 - 3)
        star = decide([2, 3, 1], [1, 2, 3], [0, 1, 2], 6, 6, honest)
        assert star == (1, 1, 2, (9, 3), None)
        assert all(type(v) is int for v in topk[4] + star[3])


class TestMutations:
    def test_parse(self):
        assert parse_mutation(None) == (None, None)
        assert parse_mutation("payment-scale:0.9") == ("payment-scale", 0.9)
        assert parse_mutation("star-nonstrict") == ("star-nonstrict", None)
        with pytest.raises(Exception):
            parse_mutation("bogus")

    def test_payment_scale_breaks_ir(self, hardness):
        out = mechanism_under("payment-scale:0.3")(hardness)
        eps = out.dclef.epsilons()
        i = out.selected[0]
        assert out.payments[i] < hardness.unit_costs[i] * eps[i]

    def test_star_nonstrict_breaks_ir_on_boundary(self):
        # equality case: |w_3| equals the prefix weight without it
        inst = prepared([1, 1, 2], [1, 1, 2], 2.0)
        honest = fair_inner_product(inst)
        assert honest.branch == "topk"
        mutated = mechanism_under("star-nonstrict")(inst)
        assert mutated.branch == "star"
        eps = mutated.dclef.epsilons()
        i = mutated.selected[0]
        assert mutated.payments[i] < inst.unit_costs[i] * eps[i]

    def test_no_threshold_cap_breaks_truthfulness(self):
        # true profile: prefix of two paid B/2 each instead of the successor cap
        inst = prepared([1, 1, 1], [1, 1, 1.5], 10)
        uncapped = mechanism_under("no-threshold-cap")
        honest = uncapped(inst)
        deviator = 2  # cost 1.5, unselected, utility 0 honestly
        reported = list(inst.unit_costs)
        reported[deviator] = 0.9
        deviated, order = canonicalize(
            AuctionInstance(inst.weights, reported, inst.budget, inst.interval)
        )
        out = uncapped(deviated)
        pos = order.index(deviator)
        utility = out.payments[pos] - 1.5 * out.dclef.epsilons()[pos]
        honest_utility = honest.payments[deviator] - 1.5 * honest.dclef.epsilons()[deviator]
        assert utility > honest_utility + 1e-9

    def test_k_include_last_breaks_ir(self):
        inst = prepared([1, 1, 1], [0.1, 0.1, 0.1], 50)
        out = mechanism_under("k-include-last")(inst)
        assert out.k == 3
        eps = out.dclef.epsilons()
        assert math.isinf(eps[0])

    def test_full_selection_serializes_as_standard_json(self):
        inst = prepared([1, 1, 1], [0.1, 0.1, 0.1], 50)
        out = mechanism_under("k-include-last")(inst)
        assert out.selected == (0, 1, 2)
        data = out.to_json()
        json.dumps(data, allow_nan=False)
        assert data["dclef"]["epsilons"] == ["inf"] * 3


class TestOutcomeJson:
    def test_original_order_mapping(self):
        inst = make_instance([1, 1, 1, 1], [2, 1, 2, 2], 1.5)
        canonical, order = canonicalize(inst)
        out = fair_inner_product(canonical)
        data = out.to_json(order)
        # the cheap individual sits at original index 1
        assert data["O"] == [1]
        assert data["payments"][1] > 0
        assert sum(1 for p in data["payments"] if p > 0) == 1
        assert data["i_star"] == 1
        assert data["branch"] == "star"
        assert data["dclef"]["x"] == [0, 1, 0, 0]

    def test_identity_mapping_by_default(self, hardness):
        out = fair_inner_product(hardness)
        data = out.to_json()
        assert data["O"] == [0]
        assert data["k"] == 1
