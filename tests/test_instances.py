import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privauction import (
    AuctionInstance,
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
from privauction.instances import (
    _check_database, filter_survivors, parse_database, parse_instance, scatter,
)

from conftest import UNIT, make_instance


def reference_survivors(instance, exempt=None):
    """The filter's simultaneous rounds, one by one: the reference for `filter_survivors`."""
    budget, wabs, costs = instance.budget, instance.abs_weights, instance.unit_costs
    alive = list(range(instance.n))
    while True:
        total = sum(wabs[i] for i in alive)
        violators = [
            i
            for i in alive
            if i != exempt
            and (total - wabs[i] <= 0 or wabs[i] * costs[i] > budget * (total - wabs[i]))
        ]
        if not violators:
            return alive, total
        gone = set(violators)
        alive = [i for i in alive if i not in gone]


def reference_entry_error(values, what, rejects, reason):
    """The message of the entry-by-entry check on a list of entries, or None."""
    for i, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            return f"{what} at index {i} is not a number: {value!r}"
        if isinstance(value, float) and not math.isfinite(value):
            return f"{what} at index {i} is not finite: {value!r}"
        if rejects(value):
            return reason.format(i)
    return None


def error_message(build):
    try:
        build()
    except (ValidationError, ParseError, EmptyInstance) as exc:
        return str(exc)
    return None


MIXED_ENTRIES = st.lists(
    st.sampled_from([
        1, 2, 0, -1, 1.5, 0.0, -0.0, -2.5, 1e-300, Fraction(1, 3), Fraction(0), Fraction(-1, 2),
        True, False, math.nan, math.inf, -math.inf, "2", None, 10**400,
    ]),
    min_size=1,
    max_size=6,
)


def _cascade(n):
    """Unit weights, budget 1: one individual leaves per round until two are left."""
    costs = tuple(m - 0.5 for m in range(3, n + 1)) + (0.5, 1.0)
    return AuctionInstance((1.0,) * n, costs, 1.0, UNIT)


@st.composite
def filter_instances(draw):
    """Instances that stress the peel: cascades, key ties, zero costs, `Fraction`s, near-ties."""
    kind = draw(
        st.sampled_from(["float", "grid", "fraction", "cascade", "ties", "near", "near-after"])
    )
    n = draw(st.integers(1, 9))
    if kind == "cascade":
        k = draw(st.integers(2, 12))
        return _cascade(k) if draw(st.booleans()) else AuctionInstance(
            tuple(2.0**i for i in range(k)), tuple(100.0 / 4**i for i in range(k)),
            draw(st.sampled_from([0.5, 1.0, 3.0])), UNIT,
        )
    if kind == "fraction":
        weight = st.fractions(-9, 9, max_denominator=7).filter(bool)
        weights = draw(st.lists(weight, min_size=n, max_size=n))
        costs = draw(st.lists(st.fractions(0, 9, max_denominator=5), min_size=n, max_size=n))
        budget = draw(st.fractions(Fraction(1, 4), 9, max_denominator=4))
        return AuctionInstance(tuple(weights), tuple(costs), budget, UNIT).to_rational()
    if kind == "ties":
        # groups of equal weight and cost share one key
        w, v = draw(st.sampled_from([1.0, 2.0, 0.5])), draw(st.sampled_from([0.0, 1.0, 4.0]))
        extra = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 9)), max_size=4))
        weights = [w] * n + [float(a) for a, _ in extra]
        costs = [v] * n + [float(b) for _, b in extra]
        return make_instance(weights, costs, draw(st.sampled_from([0.25, 1.0, 2.0])))
    if kind == "grid":
        weights = draw(st.lists(st.integers(1, 9).map(float), min_size=n, max_size=n))
        cost = st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0, 9.0])
        costs = draw(st.lists(cost, min_size=n, max_size=n))
        return make_instance(weights, costs, draw(st.sampled_from([0.25, 1.0, 3.0, 10.0])))
    weights = draw(st.lists(
        st.floats(1e-3, 1e3).flatmap(lambda w: st.sampled_from([w, -w])), min_size=n, max_size=n
    ))
    costs = draw(st.lists(st.floats(0, 10), min_size=n, max_size=n))
    budget = draw(st.floats(1e-2, 10))
    if kind == "near-after":
        # the last individual leaves at once; j's threshold is then at the total without it
        weights.append(1.0)
        costs.append(1e300)
    if kind.startswith("near") and n > 1:
        # put individual j's cost within a few ulps of its threshold at the total
        j = draw(st.integers(0, n - 1))
        wabs = [abs(w) for w in weights[:n]]
        rest = sum(wabs) - wabs[j]
        cost = budget * rest / wabs[j]
        for _ in range(draw(st.integers(0, 3))):
            cost = math.nextafter(cost, draw(st.sampled_from([0.0, math.inf])))
        costs[j] = max(cost, 0.0)
    return make_instance(weights, costs, budget)


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

    @pytest.mark.parametrize(
        "costs, message",
        [
            ((1.0,), "length mismatch: 3 weights vs 1 unit costs"),
            ((1.0, 2.0, 3.0, 4.0), "length mismatch: 3 weights vs 4 unit costs"),
            ((1.0, 2.0, -0.5), "negative unit cost at index 2"),
            ((1.0, -1, Fraction(-1, 3)), "negative unit cost at index 1"),
            ((math.nan, 1.0, 1.0), "unit cost at index 0 is not finite: nan"),
            ((1.0, math.inf, 1.0), "unit cost at index 1 is not finite: inf"),
            ((1.0, 1.0, "2"), "unit cost at index 2 is not a number: '2'"),
            ((None, 1.0, 1.0), "unit cost at index 0 is not a number: None"),
            ((True, 1.0, 1.0), "unit cost at index 0 is not a number: True"),
        ],
    )
    def test_unit_cost_errors(self, costs, message):
        inst = make_instance([1, -2, 3], [1, 1, 1], 1)
        with pytest.raises(ValidationError) as raised:
            AuctionInstance(inst.weights, costs, inst.budget, inst.interval)
        assert type(raised.value) is ValidationError
        assert str(raised.value) == message


class TestExact:
    def test_every_field_a_fraction(self):
        inst = AuctionInstance(
            (Fraction(1, 3), Fraction(-2)), (Fraction(0), Fraction(5, 7)), Fraction(1, 2), UNIT
        )
        assert inst.exact
        assert inst.to_rational().exact

    @pytest.mark.parametrize("field", ["weight", "cost", "budget"])
    def test_one_float_field(self, field):
        weights = (Fraction(1, 3), 0.5 if field == "weight" else Fraction(-2))
        costs = (Fraction(0), 0.25 if field == "cost" else Fraction(5, 7))
        budget = 0.5 if field == "budget" else Fraction(1, 2)
        assert not AuctionInstance(weights, costs, budget, UNIT).exact

    def test_float_and_int_instances(self):
        assert not AuctionInstance((1.0, 2.0), (0.5, 1.0), 1.0, UNIT).exact
        assert not AuctionInstance((1, 2), (0, 1), 1, UNIT).exact


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


class TestPeel:
    @given(instance=filter_instances())
    @settings(max_examples=600, deadline=None)
    def test_matches_round_loop(self, instance):
        for exempt in (None, *range(instance.n)):
            alive, total = filter_survivors(instance, exempt)
            expected_alive, expected_total = reference_survivors(instance, exempt)
            assert alive == expected_alive
            assert total == expected_total and type(total) is type(expected_total)
        alive, _ = reference_survivors(instance)
        if not alive:
            with pytest.raises(EmptyInstance):
                prepare(instance)
            return
        canonical, rows, removed = prepare(instance)
        assert removed == [i for i in range(instance.n) if i not in alive]
        assert rows == tuple(sorted(alive, key=lambda i: (instance.unit_costs[i], i)))
        assert canonical.weights == tuple(instance.weights[i] for i in rows)

    def test_long_cascade(self):
        # one individual leaves per round; the round loop would run 19,998 rounds
        n = 20_000
        canonical, rows, removed = prepare(_cascade(n))
        assert rows == (n - 2, n - 1)
        assert removed == list(range(n - 2))
        assert canonical.unit_costs == (0.5, 1.0)

    def test_exempt_stays(self):
        inst = make_instance([1, 1], [100, 1], 1)
        assert filter_survivors(inst, exempt=0) == ([0, 1], 2.0)
        assert filter_survivors(inst) == ([], 0)


class TestValidationParity:
    """The one-pass type read must keep the entry-by-entry loop's first error."""

    @given(values=MIXED_ENTRIES)
    @settings(max_examples=300, deadline=None)
    def test_weights(self, values):
        expected = reference_entry_error(
            values, "weight", lambda w: w == 0, "weight zero at index {}"
        )
        got = error_message(lambda: AuctionInstance(values, [1.0] * len(values), 1.0, UNIT))
        assert got == expected

    @given(values=MIXED_ENTRIES)
    @settings(max_examples=300, deadline=None)
    def test_unit_costs(self, values):
        expected = reference_entry_error(
            values, "unit cost", lambda v: v < 0, "negative unit cost at index {}"
        )
        got = error_message(lambda: AuctionInstance([1.0] * len(values), values, 1.0, UNIT))
        assert got == expected

    @given(values=MIXED_ENTRIES)
    @settings(max_examples=300, deadline=None)
    def test_database(self, values):
        expected = reference_entry_error(
            values, "database entry", lambda d: d < 0 or d > 1,
            "database entry at index {} lies outside the interval",
        )
        assert error_message(lambda: _check_database(values, UNIT)) == expected

    @given(values=MIXED_ENTRIES.map(lambda vs: [v for v in vs if type(v) is not Fraction]))
    @settings(max_examples=300, deadline=None)
    def test_parsed_lists(self, values):
        # a JSON list: the first entry that is not a number is named, then values are checked
        document = {"weights": values, "unit_costs": [1] * len(values), "budget": 1,
                    "interval": {"min": 0, "max": 1}}
        bad = [i for i, v in enumerate(values) if isinstance(v, (bool, str)) or v is None]
        if not values:
            expected = "instance has no individuals"
        elif bad:
            expected = f"field 'weights' has a non-numeric entry at index {bad[0]}"
        elif any(isinstance(v, int) and abs(v) > 1e308 for v in values):
            big = next(i for i, v in enumerate(values) if isinstance(v, int) and abs(v) > 1e308)
            expected = f"field 'weights' entry at index {big} is too large for a double"
        else:
            expected = reference_entry_error(
                [float(v) for v in values], "weight", lambda w: w == 0, "weight zero at index {}"
            )
        assert error_message(lambda: parse_instance(document)) == expected


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

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"weights": [1, 10**400]}, "field 'weights' entry at index 1 is too large for a double"),
            ({"unit_costs": [-(10**400), 1]},
             "field 'unit_costs' entry at index 0 is too large for a double"),
            ({"budget": 10**400}, "field 'budget' is too large for a double"),
            ({"interval": {"min": -(10**400), "max": 1}}, "interval minimum is too large for a double"),
            ({"interval": {"min": 0, "max": 10**400}}, "interval maximum is too large for a double"),
        ],
    )
    def test_integer_beyond_double_range(self, document, message):
        data = {"weights": [1, 1], "unit_costs": [1, 1], "budget": 1, "interval": {"min": 0, "max": 1}}
        data.update(document)
        with pytest.raises(ValidationError) as caught:
            load_instance(io.StringIO(json.dumps(data)))
        assert str(caught.value) == message

    def test_integer_beyond_digit_limit(self):
        text = '{"weights": [1' + "0" * 5000 + "]}"
        with pytest.raises(ParseError, match="integer string conversion"):
            load_instance(io.StringIO(text))

    @pytest.mark.parametrize(
        "database, n, error, message",
        [
            ([0.5, "x"], 2, ParseError, "field 'database' has a non-numeric entry at index 1"),
            ([0.5, 10**400], 2, ValidationError,
             "field 'database' entry at index 1 is too large for a double"),
            ([0.5, math.nan], 2, ValidationError, "database entry at index 1 is not finite: nan"),
            ([math.inf, 0.5], 2, ValidationError, "database entry at index 0 is not finite: inf"),
            ([0.5, 1.5], 2, ValidationError, "database entry at index 1 lies outside the interval"),
            ([0.5, -0.5, math.nan], 3, ValidationError,
             "database entry at index 1 lies outside the interval"),
            ([0.5], 2, ValidationError, "database length 1 does not match instance size 2"),
        ],
    )
    def test_malformed_database_messages(self, database, n, error, message):
        inst = make_instance([1] * n, [1] * n, 1)
        with pytest.raises(error) as caught:
            parse_database(json.loads(json.dumps({"database": database})), inst)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0.5, "x"], "database entry at index 1 is not a number: 'x'"),
            ([0.5, True], "database entry at index 1 is not a number: True"),
            ([0.5, math.nan], "database entry at index 1 is not finite: nan"),
            ([Fraction(1, 2), 2], "database entry at index 1 lies outside the interval"),
            ([-1e-300, math.nan], "database entry at index 0 lies outside the interval"),
        ],
    )
    def test_database_from_values_messages(self, values, message):
        with pytest.raises(ValidationError) as caught:
            _check_database(values, UNIT)
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
        assert load_database(path, inst) == (0.25, 1.0)

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
        inst = make_instance([1, 1, 1], [1, 1, 1], 1)
        with pytest.raises(ValidationError, match="database entry at index 1 lies outside"):
            parse_database({"database": [0.0, 1.5, 0.5]}, inst)
        assert parse_database({"database": [0, 1.0, 0.5]}, inst) == (0.0, 1.0, 0.5)

    def test_rational_view(self):
        from fractions import Fraction

        inst = make_instance([1, -2], [1, 3], 2)
        rational = inst.to_rational()
        assert rational.weights == (Fraction(1), Fraction(-2))
        assert rational.total_weight == Fraction(3)
        assert rational.to_json() == inst.to_json()


class TestNumberRule:
    """`_json_float` and `_json_floats`: how every report writes a number."""

    @pytest.mark.parametrize(
        "value, expected",
        [
            (1, 1.0),
            (Fraction(1, 4), 0.25),
            (-0.0, -0.0),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
            (10**400, "inf"),
            (Fraction(-(10**400), 3), "-inf"),
            (Fraction(1, 10**400), 0.0),
        ],
    )
    def test_scalar(self, value, expected):
        from privauction.instances import _json_float

        got = _json_float(value)
        assert type(got) is type(expected) and repr(got) == repr(expected)

    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.integers(-(10**400), 10**400),
                st.fractions(),
                st.sampled_from([Fraction(10**400), Fraction(-(10**309)), 1.7e308]),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_list_form_is_the_scalar_rule(self, values):
        from privauction.instances import _json_float, _json_floats

        got = _json_floats(values)
        assert repr(got) == repr(list(map(_json_float, values)))
        json.dumps(got, allow_nan=False)

    def test_int_instance_writes_floats(self):
        inst = AuctionInstance((1, -2), (0, 3), 2, ValueInterval(0, 1))
        buffer = io.StringIO()
        save_instance(inst, buffer, [0, 1])
        data = json.loads(buffer.getvalue())
        assert data == {
            "weights": [1.0, -2.0], "unit_costs": [0.0, 3.0], "budget": 2.0,
            "interval": {"min": 0.0, "max": 1.0}, "database": [0.0, 1.0],
        }
        assert all(type(v) is float for v in data["weights"] + data["unit_costs"])
