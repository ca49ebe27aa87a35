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
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import EmptyInstance, ParseError, ValidationError

__all__ = [
    "ValueInterval",
    "AuctionInstance",
    "Database",
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


def _is_zero(value):
    return value == 0


def _is_negative(value):
    return value < 0


def _check_entries(values: tuple, what: str, rejects, reason: str, parsed: bool) -> None:
    """Raise on the first entry that is not a finite number or that ``rejects``.

    With ``parsed`` every entry is a float, so one numpy pass finds the first
    offending index and only that entry is looked at again, for its message.
    ``rejects`` must work elementwise on an array as on a number.
    """
    if parsed:
        array = np.array(values, dtype=np.float64)
        first = np.flatnonzero(~np.isfinite(array) | rejects(array))[:1].tolist()
        entries = ((i, values[i]) for i in first)
    else:
        entries = enumerate(values)
    for i, value in entries:
        if (
            not _is_number(value)
            or (isinstance(value, float) and not math.isfinite(value))
            or rejects(value)
        ):
            _check_finite(value, f"{what} at index {i}")
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

    def contains(self, value: Number) -> bool:
        return self.r_min <= value <= self.r_max

    def to_json(self) -> dict:
        return {"min": _json_number(self.r_min), "max": _json_number(self.r_max)}


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
        self._validate(parsed=False)

    def _validate(self, parsed: bool) -> None:
        """Check every field; ``parsed`` marks entries as floats `_number_list` typed.

        Parsed entries skip the per-entry type check and get their value
        checks in one vectorized pass; the errors are the same either way.
        """
        n = len(self.weights)
        if n < 1:
            raise EmptyInstance("instance has no individuals")
        m = len(self.unit_costs)
        if m != n:
            raise ValidationError(f"length mismatch: {n} weights vs {m} unit costs")
        _check_entries(self.weights, "weight", _is_zero, "weight zero at index {}", parsed)
        _check_entries(
            self.unit_costs, "unit cost", _is_negative, "negative unit cost at index {}", parsed
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
        return tuple(abs(w) for w in self.weights)

    @cached_property
    def total_weight(self) -> Number:
        return sum(self.abs_weights)

    @cached_property
    def exact(self) -> bool:
        """Whether every weight, cost and the budget is a `Fraction`, so nothing rounds."""
        return all(type(v) is Fraction for v in (self.budget, *self.weights, *self.unit_costs))

    def weight_of(self, indices) -> Number:
        """Total absolute weight of an index subset."""
        wabs = self.abs_weights
        return sum(wabs[i] for i in indices)

    @property
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

    def to_json(self) -> dict:
        return {
            "weights": [_json_number(w) for w in self.weights],
            "unit_costs": [_json_number(v) for v in self.unit_costs],
            "budget": _json_number(self.budget),
            "interval": self.interval.to_json(),
        }


def _check_database(entries: tuple, interval: ValueInterval, parsed: bool) -> None:
    _check_entries(
        entries,
        "database entry",
        lambda d: (d < interval.r_min) | (d > interval.r_max),
        "database entry at index {} lies outside the interval",
        parsed,
    )


@dataclass(frozen=True)
class Database:
    """Private data entries, one per individual, each inside the interval."""

    entries: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def from_values(cls, values: Sequence, interval: ValueInterval) -> "Database":
        entries = tuple(values)
        _check_database(entries, interval, parsed=False)
        return cls(entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def subset(self, indices: Sequence[int]) -> "Database":
        return Database(tuple(self.entries[i] for i in indices))


def canonicalize(instance: AuctionInstance) -> tuple[AuctionInstance, tuple[int, ...]]:
    """Sort individuals by non-decreasing unit cost, ties by original index.

    Returns the sorted instance and ``order``, with ``order[j]`` the original
    position of sorted position ``j``. Idempotent: a canonical instance is
    returned as it is, with the identity order.
    """
    if instance.is_canonical:
        return instance, tuple(range(instance.n))
    order = tuple(sorted(range(instance.n), key=instance.unit_costs.__getitem__))
    return instance.subset(order), order


def filter_survivors(
    instance: AuctionInstance, exempt: int | None = None
) -> tuple[list[int], Number]:
    """The filter's simultaneous rounds: survivors in input order, and their total weight.

    The individual ``exempt`` skips its own test and so stays alive; the
    others' tests never read its cost. See `filter_assumption1`.
    """
    budget = instance.budget
    wabs = instance.abs_weights
    costs = instance.unit_costs
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


def filter_assumption1(instance: AuctionInstance) -> tuple[AuctionInstance, list[int]]:
    """Remove individuals whose tight payment can never fit the budget.

    An individual is removable when ``|w_i| * v_i > B * (W' - |w_i|)`` over the
    current survivor total ``W'``, or when it is the sole survivor (the noise
    scale would vanish and its privacy loss would be unbounded). Removal runs
    in simultaneous rounds, re-evaluated until stable, so every survivor is
    payable against the survivor total and at least two survive.

    Raises EmptyInstance when nobody survives. The removal set is independent
    of the input order within a round. When nobody is removed the input
    instance itself is returned.
    """
    alive, _ = filter_survivors(instance)
    if not alive:
        raise EmptyInstance("every individual violates the affordability condition")
    if len(alive) == instance.n:
        return instance, []
    kept = set(alive)
    return instance.subset(alive), [i for i in range(instance.n) if i not in kept]


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
    gone = set(removed)
    survivors = [i for i in range(instance.n) if i not in gone]
    return canonical, tuple(survivors[j] for j in order), removed


def scatter(values: Sequence, rows: Sequence[int], n: int, fill=0.0) -> list:
    """Length-``n`` list with ``values[j]`` at ``rows[j]`` and ``fill`` elsewhere."""
    out = [fill] * n
    for value, row in zip(values, rows):
        out[row] = value
    return out


# --- JSON I/O -------------------------------------------------------------

def _json_number(value: Number) -> float | int:
    if isinstance(value, Fraction):
        return float(value)
    return value


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
    instance = AuctionInstance._trusted(weights, unit_costs, budget, interval)
    instance._validate(parsed=True)  # each entry was type-checked once, above
    return instance


def parse_database(data: dict, instance: AuctionInstance) -> Database | None:
    """Extract the optional database block; None when absent."""
    raw = data.get("database")
    if raw is None:
        return None
    entries = _number_list(raw, "database")
    if len(entries) != instance.n:
        raise ValidationError(
            f"database length {len(entries)} does not match instance size {instance.n}"
        )
    _check_database(entries, instance.interval, parsed=True)  # entries typed once, above
    return Database(entries)


def _load_json(source) -> dict:
    if isinstance(source, (str, Path)):
        try:
            with open(source) as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc}") from exc
    else:
        text = source.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond the int-string digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_instance(source) -> AuctionInstance:
    """Load an instance from a path or file object."""
    return parse_instance(_load_json(source))


def load_database(source, instance: AuctionInstance) -> Database | None:
    return parse_database(_load_json(source), instance)


def save_instance(instance: AuctionInstance, target, database: Database | None = None) -> None:
    """Write instance JSON; exact round trip for finite double values."""
    data = instance.to_json()
    if database is not None:
        data["database"] = [_json_number(d) for d in database.entries]
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)
