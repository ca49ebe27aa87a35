"""Auction data model: value intervals, instances, canonical ordering, filtering, JSON I/O.

Instances are immutable after construction and safe to share across tasks.
Arithmetic is double precision by default; `AuctionInstance.to_rational` gives
an exact `fractions.Fraction` view for the verification harness. `prepare`
filters and canonicalizes an input instance and returns the one map from
canonical positions back to input rows that every report uses; `scatter`
applies it.
"""

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path
from typing import Any, Sequence

from .errors import EmptyInstance, NotCanonical, ParseError, ValidationError

__all__ = [
    "ValueInterval",
    "AuctionInstance",
    "canonicalize",
    "filter_assumption1",
    "filter_survivors",
    "prepare",
    "scatter",
    "parse_instance",
    "parse_database",
    "load_instance",
    "load_database",
    "save_instance",
]

Number = float | int | Fraction


def _is_number(value: Any) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float, Fraction))


def _check_finite(value: Any, what: str) -> None:
    if not _is_number(value):
        raise ValidationError(f"{what} is not a number: {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{what} is not finite: {value!r}")


_NUMBER_TYPES = frozenset((int, float, Fraction))


def _check_entries(values: tuple, what: str, all_pass, reason: str) -> None:
    """Raise on the first entry that is not a finite number or that ``all_pass`` rejects.

    One C-level pass reads the entry types. When every entry is a finite
    float and ``all_pass(values)`` clears them all at once, nothing more is
    done. Otherwise the entries are checked one by one, each as a 1-tuple, so
    the error names the first offending index.
    """
    if set(map(type, values)) == {float} and all(map(math.isfinite, values)) and all_pass(values):
        return
    for i, value in enumerate(values):
        _check_finite(value, f"{what} at index {i}")
        if not all_pass((value,)):
            raise ValidationError(reason.format(i))


@dataclass(frozen=True)
class ValueInterval:
    """Closed real interval that bounds every private data entry."""

    r_min: Number
    r_max: Number

    def __post_init__(self) -> None:
        _check_finite(self.r_min, "interval minimum")
        _check_finite(self.r_max, "interval maximum")
        if not self.r_min < self.r_max:
            raise ValidationError("degenerate interval: min must be strictly below max")

    def delta(self) -> Number:
        """Interval length."""
        return self.r_max - self.r_min

    def midpoint(self) -> Number:
        return (self.r_min + self.r_max) / 2

    def to_json(self) -> dict:
        return {"min": _json_float(self.r_min), "max": _json_float(self.r_max)}


@dataclass(frozen=True)
class AuctionInstance:
    """Complete auction input: weights, unit costs, budget, and data interval.

    Weights must be nonzero (zero-weight entries contribute nothing to the
    predictor and are dropped upstream). The budget must be nonnegative; file
    ingestion additionally requires it to be strictly positive, while a zero
    budget remains constructible for benchmark limit cases.
    """

    weights: tuple
    unit_costs: tuple
    budget: Number
    interval: ValueInterval

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "unit_costs", tuple(self.unit_costs))
        n = len(self.weights)
        if n < 1:
            raise EmptyInstance("instance has no individuals")
        m = len(self.unit_costs)
        if m != n:
            raise ValidationError(f"length mismatch: {n} weights vs {m} unit costs")
        _check_entries(self.weights, "weight", lambda ws: 0 not in ws, "weight zero at index {}")
        _check_entries(
            self.unit_costs, "unit cost", lambda vs: min(vs) >= 0, "negative unit cost at index {}"
        )
        _check_finite(self.budget, "budget")
        if self.budget < 0:
            raise ValidationError("negative budget")
        if not isinstance(self.interval, ValueInterval):
            raise ValidationError("interval must be a ValueInterval")

    @classmethod
    def _trusted(cls, weights: tuple, unit_costs: tuple, budget, interval) -> "AuctionInstance":
        """Assemble an instance from fields known to be valid, without checking them."""
        out = object.__new__(cls)
        object.__setattr__(out, "weights", weights)
        object.__setattr__(out, "unit_costs", unit_costs)
        object.__setattr__(out, "budget", budget)
        object.__setattr__(out, "interval", interval)
        return out

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def abs_weights(self) -> tuple:
        return tuple(map(abs, self.weights))

    @cached_property
    def total_weight(self) -> Number:
        return sum(self.abs_weights)

    @cached_property
    def exact(self) -> bool:
        """Whether every weight, cost and the budget is a `Fraction`, so nothing rounds."""
        kinds = {*map(type, self.weights), *map(type, self.unit_costs)}
        return type(self.budget) is Fraction and kinds == {Fraction}

    def weight_of(self, indices) -> Number:
        """Total absolute weight of an index subset."""
        return sum(map(self.abs_weights.__getitem__, indices))

    @cached_property
    def is_canonical(self) -> bool:
        v = self.unit_costs
        return all(map(operator.le, v, v[1:]))

    @property
    def has_uniform_weights(self) -> bool:
        first = self.abs_weights[0]
        return all(w == first for w in self.abs_weights)

    def subset(self, indices: Sequence[int]) -> "AuctionInstance":
        """Instance restricted to the given individuals, order preserved.

        Trusts its source: every entry was validated when this instance was
        built, so the result is assembled without revalidation. Raises
        EmptyInstance on an empty index list.
        """
        idx = list(indices)
        if not idx:
            raise EmptyInstance("instance has no individuals")
        return AuctionInstance._trusted(
            tuple(map(self.weights.__getitem__, idx)),
            tuple(map(self.unit_costs.__getitem__, idx)),
            self.budget,
            self.interval,
        )

    def to_rational(self) -> "AuctionInstance":
        """Exact view: every numeric field converted to `Fraction`.

        The conversion is exact, so the valid fields stay valid and are not checked again.
        """
        return AuctionInstance._trusted(
            tuple(map(Fraction, self.weights)),
            tuple(map(Fraction, self.unit_costs)),
            Fraction(self.budget),
            ValueInterval(Fraction(self.interval.r_min), Fraction(self.interval.r_max)),
        )

    @cached_property
    def _first_round(self) -> list:
        """The filter's first round, who fails at the full total; see `filter_survivors`."""
        return _round_violators(self, range(self.n), self.total_weight)

    @cached_property
    def _integer_weights(self) -> list | None:
        """The weight magnitudes as ints over the lcm of their denominators; None unless exact."""
        if not self.exact:
            return None
        wabs = self.abs_weights
        scale = math.lcm(*(w.denominator for w in wabs))
        return [w.numerator * (scale // w.denominator) for w in wabs]

    def to_json(self) -> dict:
        return {
            "weights": _json_floats(self.weights),
            "unit_costs": _json_floats(self.unit_costs),
            "budget": _json_float(self.budget),
            "interval": self.interval.to_json(),
        }


def _check_database(entries: tuple, interval: ValueInterval) -> None:
    lo, hi = interval.r_min, interval.r_max
    _check_entries(
        entries,
        "database entry",
        lambda ds: lo <= min(ds) and max(ds) <= hi,
        "database entry at index {} lies outside the interval",
    )


def canonicalize(instance: AuctionInstance) -> tuple[AuctionInstance, tuple[int, ...]]:
    """Sort individuals by non-decreasing unit cost, ties by original index.

    Returns the sorted instance and ``order``, with ``order[j]`` the original
    position of sorted position ``j``. This is the one cost sort: the
    mechanism, the oracle, the relaxation and `verify.deviator_kernel` reject
    any other order (`NotCanonical`). Idempotent: a canonical instance is
    returned as it is, with the identity order.
    """
    if instance.is_canonical:
        return instance, tuple(range(instance.n))
    order = tuple(sorted(range(instance.n), key=instance.unit_costs.__getitem__))
    return instance.subset(order), order


def _require_canonical(instance: AuctionInstance) -> None:
    """Raise NotCanonical unless the unit costs are sorted, as `canonicalize` leaves them."""
    if not instance.is_canonical:
        raise NotCanonical("unit costs must be sorted; canonicalize the instance first")


def _fails(w, cost, budget, total) -> bool:
    """The filter test: is ``w * cost > budget * (total - w)``, or ``total - w <= 0``?"""
    rest = total - w
    return rest <= 0 or w * cost > budget * rest


def _round_violators(instance: AuctionInstance, alive, total, exempt=None) -> list:
    """One simultaneous round: the members of ``alive`` but ``exempt`` that fail at ``total``."""
    budget, wabs, costs = instance.budget, instance.abs_weights, instance.unit_costs
    return [i for i in alive if i != exempt and _fails(wabs[i], costs[i], budget, total)]


def filter_survivors(
    instance: AuctionInstance, exempt: int | None = None
) -> tuple[list[int], Number]:
    """Survivors of the filter's simultaneous rounds in input order, and their total weight.

    The rounds test every survivor against the survivors' total ``T``, summed
    in input order, and remove the failures at once until nobody fails (see
    `filter_assumption1`). Run one by one, a cascade that loses one
    individual per round takes quadratic time. Here each exact round that
    removes someone is followed by a peel, so a cascade takes about two
    rounds and one sort:

    - Exact round: test everyone against the exact ``T``. On a filter-stable
      instance this first round finds nobody, and that is all the work.
    - Peel: an individual fails about when its key ``|w_i| * (v_i + B)``
      exceeds ``B * T``. So, from the top key down (the keys are sorted once
      per call, when the first round finds someone), individuals are removed
      while they fail the rounds' own test against an upper bound of the
      current ``T``: the last exact total minus every weight removed since,
      plus ``4 n`` ulps of that total when it is a float, which covers every
      rounding of the sums and the subtractions. An exact (int or `Fraction`)
      total needs no slack. Then the next exact round runs on the new exact
      total; usually it finds nobody.

    Why the survivors are the rounds' own: adding a non-negative term,
    rounded or exact, never lowers a sum, so the input-order sum of a subset
    never exceeds that of a superset, and the test, once failed at a total,
    fails at every smaller one. So the rounds end at the greatest set whose
    members all pass at its own total: a survivor of one round passes at
    every earlier round's total. A removal justified against an upper bound
    of the current total never touches that set, and exact rounds from any
    superset of it end at it. (Sums that mix floats with `Fraction` or huge
    int terms are not monotone to the last rounding; there the survivors
    still all pass at their total, but may not be the rounds' own.)

    The individual ``exempt`` skips its own test and so stays alive; the
    others' tests never read its cost. Only the first round is cached on the
    instance: the first round with an exemption is the one without, less the
    exempt individual. So `verify.deviator_kernel`, which filters once per
    deviator, pays one round per instance, and a sort and a peel per deviator
    only where someone fails.
    """
    budget, wabs, costs = instance.budget, instance.abs_weights, instance.unit_costs
    n = instance.n
    alive, total = list(range(n)), instance.total_weight
    violators = [i for i in instance._first_round if i != exempt]
    if not violators:
        return alive, total
    keys = list(map(operator.mul, wabs, map(operator.add, costs, repeat(budget))))
    peel_order = sorted(range(n), key=keys.__getitem__, reverse=True)
    live = bytearray(b"\x01") * n
    while violators:
        bound = total + (4 * len(alive) * math.ulp(total) if isinstance(total, float) else 0)
        for i in violators:
            live[i] = 0
            bound -= wabs[i]
        for i in peel_order:
            if live[i] and i != exempt:
                if not _fails(wabs[i], costs[i], budget, bound):
                    break
                live[i] = 0
                bound -= wabs[i]
        alive = list(compress(range(n), live))
        if not alive:
            return alive, 0
        total = sum(map(wabs.__getitem__, alive))
        violators = _round_violators(instance, alive, total, exempt)
    return alive, total


def filter_assumption1(instance: AuctionInstance) -> tuple[AuctionInstance, list[int]]:
    """Remove individuals whose tight payment can never fit the budget.

    An individual is removable when ``|w_i| * v_i > B * (W' - |w_i|)`` over the
    current survivor total ``W'``, or when it is the sole survivor (the noise
    scale would vanish and its privacy loss would be unbounded). Removal runs
    in simultaneous rounds, re-evaluated until stable, so every survivor is
    payable against the survivor total and at least two survive.
    `filter_survivors` computes the rounds' outcome with a sort-once peel
    instead of running them one by one, which keeps a one-per-round cascade
    linear; its docstring gives the monotonicity argument.

    Raises EmptyInstance when nobody survives. The removal set is independent
    of the input order within a round. When nobody is removed the input
    instance itself is returned.
    """
    alive, _ = filter_survivors(instance)
    if not alive:
        raise EmptyInstance("every individual violates the affordability condition")
    if len(alive) == instance.n:
        return instance, []
    return instance.subset(alive), _complement(alive, instance.n)


def _complement(indices, n: int) -> list[int]:
    """The members of ``range(n)`` not in ``indices``, ascending."""
    keep = bytearray(b"\x01") * n
    for i in indices:
        keep[i] = 0
    return list(compress(range(n), keep))


def prepare(instance: AuctionInstance) -> tuple[AuctionInstance, tuple[int, ...], list[int]]:
    """Filter, then canonicalize: the mechanism's input plus its map to input rows.

    Returns the canonical survivor instance, ``rows`` with ``rows[j]`` the
    input index of canonical position ``j``, and the sorted removed indices;
    ``rows`` and ``removed`` partition ``range(instance.n)``. Survivors keep
    their input order through the filter, so ``rows`` orders ties exactly as
    the input does. Raises EmptyInstance when nobody survives.
    """
    filtered, removed = filter_assumption1(instance)
    canonical, order = canonicalize(filtered)
    if not removed:
        return canonical, order, removed
    survivors = _complement(removed, instance.n)
    return canonical, tuple(map(survivors.__getitem__, order)), removed


def scatter(values: Sequence, rows: Sequence[int], n: int, fill=0.0) -> list:
    """Length-``n`` list with ``values[j]`` at ``rows[j]`` and ``fill`` elsewhere."""
    out = [fill] * n
    for value, row in zip(values, rows):
        out[row] = value
    return out


# --- JSON I/O -------------------------------------------------------------

def _double(value: Number) -> float:
    """``float(value)``, with a `Fraction` or int beyond the double range read as ``±inf``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _json_float(value: Number) -> float | str:
    """How a report writes a number: its `_double`, or that double's repr ("inf", "-inf", "nan")."""
    value = _double(value)
    return value if math.isfinite(value) else repr(value)


def _json_floats(values: Sequence) -> list:
    """`_json_float` of each value, in one C-level pass when every value is a finite double."""
    try:
        out = list(map(float, values))
    except OverflowError:
        return list(map(_json_float, values))
    # an inf or nan entry, or finite entries whose sum overflows, leave the sum non-finite
    return out if math.isfinite(sum(out)) else list(map(_json_float, out))


def _require(data: dict, key: str) -> Any:
    if key not in data:
        raise ParseError(f"missing field {key!r}")
    return data[key]


def _as_double(value, what: str) -> float:
    """``float(value)``, with a JSON integer beyond the double range rejected by name."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} is too large for a double") from None


def _number_list(raw: Any, field: str) -> tuple:
    if not isinstance(raw, list):
        raise ParseError(f"field {field!r} must be a list of numbers")
    if not set(map(type, raw)) <= _NUMBER_TYPES:
        for i, x in enumerate(raw):
            if not _is_number(x):
                raise ParseError(f"field {field!r} has a non-numeric entry at index {i}")
    try:
        return tuple(map(float, raw))
    except OverflowError:
        for i, x in enumerate(raw):
            _as_double(x, f"field {field!r} entry at index {i}")
        raise


def parse_instance(data: dict) -> AuctionInstance:
    """Build an instance from a decoded JSON object, validating the schema.

    Unknown keys are ignored so that enriched outputs (for example the
    ``weights`` command's instance emission) stay loadable.
    """
    if not isinstance(data, dict):
        raise ParseError("instance document must be a JSON object")
    weights = _number_list(_require(data, "weights"), "weights")
    unit_costs = _number_list(_require(data, "unit_costs"), "unit_costs")
    raw_budget = _require(data, "budget")
    if not _is_number(raw_budget):
        raise ParseError("field 'budget' must be a number")
    budget = _as_double(raw_budget, "field 'budget'")
    if budget <= 0:
        raise ValidationError("budget must be positive")
    raw_interval = _require(data, "interval")
    if not isinstance(raw_interval, dict):
        raise ParseError("field 'interval' must be an object with 'min' and 'max'")
    lo = _require(raw_interval, "min")
    hi = _require(raw_interval, "max")
    if not (_is_number(lo) and _is_number(hi)):
        raise ParseError("interval bounds must be numbers")
    interval = ValueInterval(_as_double(lo, "interval minimum"), _as_double(hi, "interval maximum"))
    return AuctionInstance(weights, unit_costs, budget, interval)


def parse_database(data: dict, instance: AuctionInstance) -> tuple | None:
    """The optional database block's entries, checked against the interval; None when absent."""
    raw = data.get("database")
    if raw is None:
        return None
    entries = _number_list(raw, "database")
    if len(entries) != instance.n:
        raise ValidationError(
            f"database length {len(entries)} does not match instance size {instance.n}"
        )
    _check_database(entries, instance.interval)
    return entries


def _read_text(source) -> str:
    """The text of a path or a file object; a path that cannot be read raises ParseError."""
    if not isinstance(source, (str, Path)):
        return source.read()
    try:
        return Path(source).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc


def _load_json(source) -> dict:
    text = _read_text(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond the int-string digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_instance(source) -> AuctionInstance:
    """Load an instance from a path or file object."""
    return parse_instance(_load_json(source))


def load_database(source, instance: AuctionInstance) -> tuple | None:
    return parse_database(_load_json(source), instance)


def save_instance(instance: AuctionInstance, target, database: Sequence | None = None) -> None:
    """Write instance JSON, with ``database`` as its block; exact round trip for finite doubles."""
    data = instance.to_json()
    if database is not None:
        data["database"] = _json_floats(database)
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)
