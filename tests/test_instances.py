import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privauction import (
    AuctionInstance,
    Database,
    EmptyInstance,
    ParseError,
    ValidationError,
    ValueInterval,
    canonicalize,
    filter_assumption1,
    load_instance,
    prepare,
    save_instance,
)
from privauction.instances import scatter

from conftest import UNIT, make_instance


class TestValueInterval:
    def test_delta_and_midpoint(self):
        iv = ValueInterval(-1.0, 3.0)
        assert iv.delta() == 4.0
        assert iv.midpoint() == 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError, match="degenerate interval"):
            ValueInterval(2.0, 2.0)
        with pytest.raises(ValidationError):
            ValueInterval(3.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ValueInterval(0.0, math.inf)


class TestAuctionInstance:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError, match="weight zero at index 0"):
            make_instance([0, 1], [1, 1], 1)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError, match="negative unit cost"):
            make_instance([1, 1], [1, -1], 1)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            make_instance([1, 1], [1], 1)

    def test_totals(self):
        inst = make_instance([1, -2, 3], [1, 1, 1], 1)
        assert inst.total_weight == 6.0
        assert inst.abs_weights == (1.0, 2.0, 3.0)
        assert inst.weight_of([0, 2]) == 4.0

    def test_zero_budget_constructible(self):
        # benchmark limit cases need B = 0 even though files must be positive
        inst = make_instance([1], [1], 0)
        assert inst.budget == 0.0

    @pytest.mark.parametrize(
        "entry",
        [
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False).filter(bool),
                st.floats(min_value=0, allow_infinity=False),
            ),
            st.tuples(
                st.fractions(-10, 10, max_denominator=20).filter(bool),
                st.fractions(0, 10, max_denominator=20),
            ),
        ],
        ids=["float", "fraction"],
    )
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_subset_equals_validated_construction(self, entry, data):
        entries = data.draw(st.lists(entry, min_size=1, max_size=10))
        weights, costs = (tuple(column) for column in zip(*entries))
        number = type(weights[0])
        interval = ValueInterval(number(0), number(1))
        inst = AuctionInstance(weights, costs, number(Fraction(3, 2)), interval)
        picks = data.draw(st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=15))
        sub = inst.subset(picks)
        expected = AuctionInstance(
            tuple(weights[i] for i in picks), tuple(costs[i] for i in picks), inst.budget, interval
        )
        assert type(sub) is AuctionInstance
        assert sub == expected
        # the entries themselves are shared, so their types are kept
        pairs = zip(sub.weights + sub.unit_costs, expected.weights + expected.unit_costs)
        assert all(a is b for a, b in pairs)
        assert sub.budget is inst.budget and sub.interval is inst.interval
        assert sub.total_weight == expected.total_weight

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptyInstance):
            make_instance([1, 2], [1, 1], 1).subset([])


class TestCanonicalize:
    def test_sorts_costs(self):
        inst = make_instance([1, 1, 1], [3, 1, 2], 1)
        out, order = canonicalize(inst)
        assert out.unit_costs == (1.0, 2.0, 3.0)
        assert order == (1, 2, 0)

    def test_identity_when_sorted(self):
        inst = make_instance([1, 1, 1], [1, 2, 3], 1)
        out, order = canonicalize(inst)
        assert out is inst
        assert order == tuple(range(3))

    def test_stable_ties(self):
        # spec-derived oracle: reference sort on (cost, index) keys
        inst = make_instance([10, 20, 30], [2, 2, 1], 1)
        out, order = canonicalize(inst)
        reference = sorted(range(3), key=lambda i: (inst.unit_costs[i], i))
        assert order == tuple(reference)
        assert out.weights == (30.0, 10.0, 20.0)

    @given(
        costs=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, costs):
        inst = make_instance([1] * len(costs), costs, 1)
        once, _ = canonicalize(inst)
        twice, order = canonicalize(once)
        assert order == tuple(range(len(costs)))
        assert twice.unit_costs == once.unit_costs

    @given(costs=st.lists(st.integers(0, 5), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_order_is_sorting_permutation(self, costs):
        inst = make_instance(range(1, len(costs) + 1), costs, 1)
        out, order = canonicalize(inst)
        assert order == tuple(sorted(range(len(costs)), key=lambda i: (costs[i], i)))
        assert out.weights == tuple(inst.weights[i] for i in order)
        assert out.unit_costs == tuple(inst.unit_costs[i] for i in order)


class TestFilterAssumption1:
    def test_budget_dominates(self):
        inst = make_instance([1, 1, 1, 1], [1, 1, 1, 1], 10)
        out, removed = filter_assumption1(inst)
        assert removed == []
        assert out.n == 4

    def test_cascade_to_empty(self):
        # hand evaluation: first round removes index 0 (1*100/1 > 1);
        # second round has a lone survivor, removed by the zero-denominator rule
        inst = make_instance([1, 1], [100, 1], 1)
        with pytest.raises(EmptyInstance):
            filter_assumption1(inst)

    def test_all_kept(self):
        inst = make_instance([1, 2, 1], [5, 1, 1], 2)
        out, removed = filter_assumption1(inst)
        assert removed == []
        assert out.n == 3
        assert out is inst

    def test_removed_reported_in_original_indices(self):
        inst = make_instance([1, 5, 1], [50, 0.1, 0.1], 1)
        out, removed = filter_assumption1(inst)
        assert removed == [0]
        assert out.weights == (5.0, 1.0)

    @given(perm=st.permutations(list(range(6))))
    @settings(max_examples=40, deadline=None)
    def test_order_independent(self, perm):
        weights = [1, 2, 3, 1, 2, 4]
        costs = [9, 1, 0.5, 4, 2, 0.25]
        base = make_instance(weights, costs, 1.2)
        try:
            _, removed_base = filter_assumption1(base)
            base_removed_set = set(removed_base)
            base_empty = False
        except EmptyInstance:
            base_empty = True
        shuffled = make_instance(
            [weights[i] for i in perm], [costs[i] for i in perm], 1.2
        )
        try:
            _, removed_perm = filter_assumption1(shuffled)
            perm_removed_as_original = {perm[j] for j in removed_perm}
            assert not base_empty
            assert perm_removed_as_original == base_removed_set
        except EmptyInstance:
            assert base_empty

    def test_fixed_point_within_n_rounds(self):
        # geometric costs force one removal per round
        n = 6
        weights = [2.0**i for i in range(n)]
        costs = [100.0 / 4**i for i in range(n)]
        inst = make_instance(weights, costs, 1.0)
        try:
            out, removed = filter_assumption1(inst)
            assert out.n + len(removed) == n
        except EmptyInstance:
            pass


class TestPrepare:
    @given(
        data=st.lists(
            st.tuples(
                st.integers(1, 9).flatmap(lambda m: st.sampled_from([m, -m])),
                st.integers(0, 9),
            ),
            min_size=1,
            max_size=10,
        ),
        budget=st.sampled_from([0.25, 1.0, 3.0, 10.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_map_contract(self, data, budget):
        inst = make_instance([w for w, _ in data], [v for _, v in data], budget)
        try:
            _, filter_removed = filter_assumption1(inst)
        except EmptyInstance:
            with pytest.raises(EmptyInstance):
                prepare(inst)
            return
        canonical, rows, removed = prepare(inst)
        assert removed == filter_removed
        assert sorted(rows + tuple(removed)) == list(range(inst.n))
        assert canonical.is_canonical
        assert canonical.n == len(rows)
        for j, row in enumerate(rows):
            assert canonical.weights[j] == inst.weights[row]
            assert canonical.unit_costs[j] == inst.unit_costs[row]
        # equal costs keep their input order
        for j in range(canonical.n - 1):
            if canonical.unit_costs[j] == canonical.unit_costs[j + 1]:
                assert rows[j] < rows[j + 1]

    def test_filtered_and_sorted(self):
        inst = make_instance([1, 5, 1, 2], [50, 0.3, 0.1, 0.2], 1)
        canonical, rows, removed = prepare(inst)
        assert removed == [0]
        assert rows == (2, 3, 1)
        assert canonical.unit_costs == (0.1, 0.2, 0.3)

    def test_scatter(self):
        assert scatter(["a", "b"], (3, 1), 4, fill="-") == ["-", "b", "-", "a"]
        assert scatter([], (), 2) == [0.0, 0.0]


class TestJsonIO:
    def test_roundtrip_bits(self, tmp_path):
        inst = make_instance(
            [0.1, -2.7182818284590455, 3e-300], [1.5, 0.0, 7.25], 0.333333333333333314829616256247,
            ValueInterval(-1e200, 1e200),
        )
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.weights == inst.weights
        assert loaded.unit_costs == inst.unit_costs
        assert loaded.budget == inst.budget
        assert loaded.interval == inst.interval

    @given(
        weights=st.lists(
            st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != 0),
            min_size=1,
            max_size=6,
        ),
        budget=st.floats(min_value=1e-300, max_value=1e300),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random_doubles(self, weights, budget):
        inst = AuctionInstance(
            tuple(weights), tuple(abs(w) for w in weights), budget, UNIT
        )
        buffer = io.StringIO()
        save_instance(inst, buffer)
        loaded = load_instance(io.StringIO(buffer.getvalue()))
        assert loaded == inst

    def test_zero_weight_file(self, instance_file):
        path = instance_file(
            {"weights": [0, 1], "unit_costs": [1, 1], "budget": 1, "interval": {"min": 0, "max": 1}}
        )
        with pytest.raises(ValidationError, match="weight zero at index 0"):
            load_instance(path)

    def test_degenerate_interval_file(self, instance_file):
        path = instance_file(
            {"weights": [1], "unit_costs": [1], "budget": 1, "interval": {"min": 1, "max": 1}}
        )
        with pytest.raises(ValidationError, match="degenerate interval"):
            load_instance(path)

    def test_nonpositive_budget_file(self, instance_file):
        path = instance_file(
            {"weights": [1], "unit_costs": [1], "budget": 0, "interval": {"min": 0, "max": 1}}
        )
        with pytest.raises(ValidationError, match="budget must be positive"):
            load_instance(path)

    def test_missing_field(self, instance_file):
        path = instance_file({"weights": [1], "unit_costs": [1], "budget": 1})
        with pytest.raises(ParseError, match="interval"):
            load_instance(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="line 1"):
            load_instance(path)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("[1]", ParseError, "instance document must be a JSON object"),
            ('{"unit_costs": [1]}', ParseError, "missing field 'weights'"),
            ('{"weights": 1, "unit_costs": [1]}', ParseError,
             "field 'weights' must be a list of numbers"),
            ('{"weights": [1, "2"], "unit_costs": [1, 1]}', ParseError,
             "field 'weights' has a non-numeric entry at index 1"),
            ('{"weights": [1, true], "unit_costs": [1, 1]}', ParseError,
             "field 'weights' has a non-numeric entry at index 1"),
            ('{"weights": [1, 1], "unit_costs": [null, 1]}', ParseError,
             "field 'unit_costs' has a non-numeric entry at index 0"),
            # every entry is type-checked before any value is
            ('{"weights": [Infinity], "unit_costs": ["a"]}', ParseError,
             "field 'unit_costs' has a non-numeric entry at index 0"),
            ('{"weights": [1], "unit_costs": [1], "budget": false}', ParseError,
             "field 'budget' must be a number"),
            ('{"weights": [1], "unit_costs": [1], "budget": -1}', ValidationError,
             "budget must be positive"),
            ('{"weights": [1], "unit_costs": [1], "budget": 1, "interval": [0, 1]}', ParseError,
             "field 'interval' must be an object with 'min' and 'max'"),
            ('{"weights": [1], "unit_costs": [1], "budget": 1, "interval": {"min": 0, "max": "1"}}',
             ParseError, "interval bounds must be numbers"),
            ('{"weights": [1], "unit_costs": [1], "budget": 1, "interval": {"min": 0, "max": Infinity}}',
             ValidationError, "interval maximum is not finite: inf"),
            ('{"weights": [], "unit_costs": [], "budget": 1, "interval": {"min": 0, "max": 1}}',
             EmptyInstance, "instance has no individuals"),
            ('{"weights": [1, 2], "unit_costs": [1], "budget": 1, "interval": {"min": 0, "max": 1}}',
             ValidationError, "length mismatch: 2 weights vs 1 unit costs"),
            ('{"weights": [1, Infinity], "unit_costs": [1, 1], "budget": 1, "interval": {"min": 0, "max": 1}}',
             ValidationError, "weight at index 1 is not finite: inf"),
            ('{"weights": [1, -Infinity, 0], "unit_costs": [1, 1, 1], "budget": 1, "interval": {"min": 0, "max": 1}}',
             ValidationError, "weight at index 1 is not finite: -inf"),
            ('{"weights": [1, -0.0, NaN], "unit_costs": [1, 1, 1], "budget": 1, "interval": {"min": 0, "max": 1}}',
             ValidationError, "weight zero at index 1"),
            ('{"weights": [1, 2], "unit_costs": [NaN, -1], "budget": 1, "interval": {"min": 0, "max": 1}}',
             ValidationError, "unit cost at index 0 is not finite: nan"),
            ('{"weights": [1, 2], "unit_costs": [-0.0, -1e-300], "budget": 1, "interval": {"min": 0, "max": 1}}',
             ValidationError, "negative unit cost at index 1"),
            # value checks on weights come before any on costs
            ('{"weights": [1, 0], "unit_costs": [-1, 1], "budget": 1, "interval": {"min": 0, "max": 1}}',
             ValidationError, "weight zero at index 1"),
            ('{"weights": [1], "unit_costs": [1], "budget": Infinity, "interval": {"min": 0, "max": 1}}',
             ValidationError, "budget is not finite: inf"),
            ('{"weights": [1], "unit_costs": [1], "budget": NaN, "interval": {"min": 0, "max": 1}}',
             ValidationError, "budget is not finite: nan"),
        ],
    )
    def test_malformed_instance_messages(self, text, error, message):
        with pytest.raises(error) as caught:
            load_instance(io.StringIO(text))
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_database_block(self, instance_file):
        from privauction.instances import load_database

        data = {
            "weights": [1, 1],
            "unit_costs": [1, 1],
            "budget": 1,
            "interval": {"min": 0, "max": 1},
            "database": [0.25, 1.0],
        }
        path = instance_file(data)
        inst = load_instance(path)
        db = load_database(path, inst)
        assert db.entries == (0.25, 1.0)

    def test_database_out_of_interval(self, instance_file):
        from privauction.instances import load_database

        data = {
            "weights": [1],
            "unit_costs": [1],
            "budget": 1,
            "interval": {"min": 0, "max": 1},
            "database": [2.0],
        }
        path = instance_file(data)
        inst = load_instance(path)
        with pytest.raises(ValidationError, match="outside the interval"):
            load_database(path, inst)


class TestDatabase:
    def test_bounds_enforced(self):
        with pytest.raises(ValidationError):
            Database.from_values([1.5], UNIT)
        db = Database.from_values([0.0, 1.0, 0.5], UNIT)
        assert db.n == 3

    def test_rational_view(self):
        from fractions import Fraction

        inst = make_instance([1, -2], [1, 3], 2)
        rational = inst.to_rational()
        assert rational.weights == (Fraction(1), Fraction(-2))
        assert rational.total_weight == Fraction(3)
        assert rational.to_float() == inst
