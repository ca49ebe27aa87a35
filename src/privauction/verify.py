"""Property-test harness: instance generators, sweeps, and the hardness family.

Every sweep is reproducible: instance ``index`` under a config seed always
yields the same instance (seeding is per-index, so parallel and serial runs
agree), and every reported failure carries the config seed and index needed
to regenerate its instance exactly. The harness also owns fault injection:
each of `MUTATIONS` swaps one of `mechanism`'s rule functions for a faulty
one or scales the honest payments, so a sweep can show it catches the fault.

The truthfulness sweep replays every misreport on the grid through
`deviator_kernel` rather than the whole filter-sort-mechanism pipeline. The
mechanism is a single-parameter threshold auction, so only the deviator's
own payment and privacy loss respond to its report ``z``, and they are a
step function of ``z`` (Myerson 1981; Archer and Tardos, FOCS 2001). While
the deviator ``i`` is alive, the others' filter tests do not read ``z``, so
the filter runs once per deviator with ``i``'s own test skipped; ``i``
survives iff it passes against the final survivor total ``W'``, that is
``W' - |w_i| > 0`` and ``|w_i| * z <= B * (W' - |w_i|)``. With the other
survivors fixed, a step is named by ``i``'s insertion slot among them and,
on that slot, the verdict of the prefix rule's own test on ``i``'s cost. The
mechanism runs once per step a deviator reaches, at most twice per slot, so
O(n) times at O(n) each; every other report costs two bisects and one
comparison. The result is bit for bit the pipeline's; the pipeline reference,
`_deviation_utility`, lives in ``tests/test_verify.py``.

Float and rational mode run the same code. Rational mode's instances are
exact (`AuctionInstance.exact`), so the misreport grid takes exact factors
and straddles and every comparison a slack of exactly 0; float mode allows
``REL_TOL * max(1, |x|)`` on the budget and IR checks and
``TRUTHFUL_SLACK`` on a deviation's gain. On exact input
the kernel clears denominators once per deviator, so the mechanism's
decisions compare Python ints and only the deviator's payment and privacy
loss are divided back into `Fraction`: the mechanism's rules compare, and
their callers divide.
"""

import math
import operator
import os
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from functools import partial, reduce

import numpy as np

from .errors import EmptyInstance, ParameterOutOfRange, ValidationError
from .instances import AuctionInstance, ValueInterval, _json_float, filter_survivors, prepare
from .mechanism import (
    check_single_winner,
    decide,
    fair_inner_product,
    prefix_length,
    run_rules,
    star_wins,
    topk_rate,
)
from .optimal import ORACLE_LIMIT, REL_TOL, opt_bounds_check

__all__ = [
    "SweepConfig",
    "PropertyTally",
    "VerificationReport",
    "hardness_instance",
    "generate_instance",
    "misreport_grid",
    "deviator_kernel",
    "run_truthfulness_sweep",
    "run_approximation_sweep",
    "MUTATIONS",
    "parse_mutation",
    "mechanism_under",
]

TRUTHFUL_SLACK = 1e-9
MAX_WITNESSES = 50
TRUTHFUL_LIMIT = 100  # largest n a truthfulness sweep takes: its work grows as n^3

WEIGHT_DISTRIBUTIONS = ("uniform", "lognormal", "signed", "integer-grid")
COST_DISTRIBUTIONS = ("uniform", "lognormal", "integer-grid")


@dataclass(frozen=True)
class SweepConfig:
    """Deterministic description of an instance stream and how to check it."""

    n_range: tuple[int, int] = (2, 10)
    instance_count: int = 1000
    weight_distribution: str = "signed"
    cost_distribution: str = "uniform"
    budget_rule: str = "scaled:0.25,4.0"
    rng_seed: int = 0
    arithmetic_mode: str = "float"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_range", tuple(int(v) for v in self.n_range))
        lo, hi = self.n_range
        if not 2 <= lo <= hi:
            raise ValidationError("n_range must satisfy 2 <= lo <= hi")
        if self.instance_count < 1:
            raise ValidationError("instance_count must be at least 1")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be nonnegative")
        if self.weight_distribution not in WEIGHT_DISTRIBUTIONS:
            raise ValidationError(f"unknown weight distribution {self.weight_distribution!r}")
        if self.cost_distribution not in COST_DISTRIBUTIONS:
            raise ValidationError(f"unknown cost distribution {self.cost_distribution!r}")
        if self.arithmetic_mode not in ("float", "rational"):
            raise ValidationError("arithmetic_mode must be 'float' or 'rational'")
        if self.arithmetic_mode == "rational" and (
            self.weight_distribution != "integer-grid" or self.cost_distribution != "integer-grid"
        ):
            raise ValidationError("rational mode requires integer-grid weights and costs")
        _parse_budget_rule(self.budget_rule)

    @classmethod
    def from_json(cls, data: dict) -> "SweepConfig":
        """Config from parsed JSON; every field is optional and type-checked."""
        if not isinstance(data, dict):
            raise ValidationError("sweep config must be a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValidationError(f"unknown sweep config fields: {sorted(unknown)}")
        for key, value in data.items():
            if types[key] is str:
                ok, kind = isinstance(value, str), "a string"
            elif types[key] is int:
                ok, kind = _is_json_int(value), "an integer"
            else:
                ok = isinstance(value, list) and len(value) == 2 and all(map(_is_json_int, value))
                kind = "a list of two integers"
            if not ok:
                raise ValidationError(f"sweep config field {key!r} must be {kind}")
        return cls(**data)

    def to_json(self) -> dict:
        return {**asdict(self), "n_range": list(self.n_range)}


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_budget_rule(rule: str) -> tuple[float, float]:
    """The bounds of a ``scaled:lo,hi`` budget rule, the only form there is."""
    name, _, arg = rule.partition(":")
    if name != "scaled":
        raise ValidationError(f"unknown budget rule {rule!r}")
    try:
        lo, hi = (float(part) for part in arg.split(","))
    except ValueError as exc:
        raise ValidationError(f"budget rule {rule!r} needs 'scaled:lo,hi'") from exc
    if not 0 < lo <= hi < math.inf:  # an infinite bound would overflow the budget draw
        raise ValidationError("scaled budget rule needs finite 0 < lo <= hi")
    return lo, hi


def _draw_weights(distribution: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if distribution == "uniform":
        return np.full(n, float(rng.lognormal(0.0, 0.5)))
    if distribution == "lognormal":
        return rng.lognormal(0.0, 1.0, n)
    if distribution == "signed":
        return rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
    return (rng.integers(1, 10, n) * rng.choice([-1, 1], n)).astype(np.float64)


def _draw_costs(distribution: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if distribution == "uniform":
        return rng.uniform(0.0, 2.0, n)
    if distribution == "lognormal":
        return rng.lognormal(0.0, 1.0, n)
    return rng.integers(0, 10, n).astype(np.float64)


def _draw_budget(
    config: SweepConfig, weights: np.ndarray, costs: np.ndarray, rng: np.random.Generator
) -> float:
    lo, hi = _parse_budget_rule(config.budget_rule)
    wabs = np.abs(weights)
    total = float(wabs.sum())
    # largest tight payment any single individual would need
    anchor = float(np.max(wabs * costs / (total - wabs))) if len(weights) > 1 else 0.0
    scale = anchor if anchor > 0 else 1.0
    budget = scale * float(rng.uniform(lo, hi))
    if config.weight_distribution == "integer-grid" and config.cost_distribution == "integer-grid":
        budget = float(max(1, round(budget)))
    return budget


def generate_instance(config: SweepConfig, index: int) -> AuctionInstance:
    """Deterministic canonical, filtered instance for an index; `Fraction`s in rational mode."""
    lo, hi = config.n_range
    for attempt in range(64):
        rng = np.random.default_rng(np.random.SeedSequence((config.rng_seed, index, attempt)))
        n = int(rng.integers(lo, hi + 1))
        weights = _draw_weights(config.weight_distribution, n, rng)
        costs = _draw_costs(config.cost_distribution, n, rng)
        budget = _draw_budget(config, weights, costs, rng)
        raw = AuctionInstance(
            tuple(float(w) for w in weights),
            tuple(float(v) for v in costs),
            budget,
            ValueInterval(0.0, 1.0),
        )
        try:
            canonical, _, _ = prepare(raw)
        except EmptyInstance:
            continue
        return canonical.to_rational() if config.arithmetic_mode == "rational" else canonical
    raise ValidationError(f"no viable instance after 64 attempts at index {index}")


def hardness_instance(a: float, d: float) -> AuctionInstance:
    """Four-individual family on which no truthful mechanism beats a factor 2.

    One cheap individual (cost ``a``) and three at cost 2, equal weights
    ``d``, budget ``1 + a/2``, unit data interval.
    """
    if not 0 < a < 2:
        raise ParameterOutOfRange("a must lie strictly between 0 and 2")
    if not d > 0:
        raise ParameterOutOfRange("d must be positive")
    return AuctionInstance(
        (float(d),) * 4,
        (float(a), 2.0, 2.0, 2.0),
        1.0 + a / 2.0,
        ValueInterval(0.0, 1.0),
    )


# --- misreport grids --------------------------------------------------------

_FLOAT_FACTORS = tuple(10.0 ** t for t in np.linspace(-1.0, 1.0, 21))
_RATIONAL_FACTORS = (
    Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5), Fraction(1, 2),
    Fraction(3, 5), Fraction(7, 10), Fraction(4, 5), Fraction(9, 10), Fraction(1),
    Fraction(5, 4), Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(5, 2),
    Fraction(3), Fraction(4), Fraction(5), Fraction(6), Fraction(8), Fraction(10),
)


# One slot holding the last tuple of costs `_grid_parts` saw, with its parts: a
# memo of a pure function of an immutable argument. The pair is read and
# replaced as one tuple, so a reader never sees one costs' parts under another.
_last_grid_parts: list = [(None, None)]


def _grid_parts(costs) -> tuple:
    """The parts of `misreport_grid` shared by every deviator of one instance.

    Returns the factors, the straddles ``c, c (1 - eps), c (1 + eps)`` of
    every cost in input order, and in rational mode each straddle's integer
    sort key with the function that makes one, else None twice. A key is
    the point's numerator over one denominator common to every point a grid
    of these costs can hold, so keys order and identify points exactly as
    their values do, without hashing a `Fraction`. The parts of the last
    tuple of costs are kept, so a sweep builds them once per instance.
    """
    last_costs, last_parts = _last_grid_parts[0]
    if last_costs is costs:
        return last_parts
    rational = all(isinstance(c, Fraction) for c in costs)
    factors, eps = (_RATIONAL_FACTORS, Fraction(1, 10**6)) if rational else (_FLOAT_FACTORS, 1e-6)
    below, above = 1 - eps, 1 + eps
    straddles = [z for c in costs for z in (c, c * below, c * above)]
    keys = key = None
    if rational:
        # every point is a cost times a factor, 1 - eps, 1 + eps or 1, or zero
        common = math.lcm(*(c.denominator for c in costs)) * math.lcm(
            eps.denominator, *(f.denominator for f in factors)
        )

        def key(z):
            return z.numerator * (common // z.denominator)

        keys = list(map(key, straddles))
    parts = (factors, straddles, keys, key)
    if type(costs) is tuple:
        _last_grid_parts[0] = (costs, parts)
    return parts


def misreport_grid(costs, i: int) -> tuple:
    """Candidate misreports for individual ``i``.

    A multiplicative grid of at least 21 points around the true cost, plus,
    for every other reported cost, the cost itself and values just below and
    above it, so every sort position reachable by a unilateral deviation is
    exercised. A zero true cost gets a grid up to ten times the largest cost
    instead: 21 even steps from 0 in float mode, 0 and the rational factors
    in rational mode. The mode is rational when every cost is a `Fraction`;
    its points, all `Fraction`, are deduplicated and sorted by exact integer
    keys, which identify and order them as their values do. The others'
    straddles are built once per tuple of costs (`_grid_parts`).
    """
    factors, straddles, keys, key = _grid_parts(costs)
    true_cost = costs[i]
    if true_cost > 0:
        own = [true_cost * f for f in factors]
    else:
        top = max(costs) or 1
        if key is not None:
            own = [top * f for f in factors] + [Fraction(0)]
        else:
            own = [float(z) for z in np.linspace(0.0, 10.0 * top, 21)]
    lo, hi = 3 * i, 3 * i + 3  # i's own straddle
    if key is not None:
        points = dict(zip(map(key, own), own))
        points.update(zip(keys[:lo], straddles[:lo]))
        points.update(zip(keys[hi:], straddles[hi:]))
        return tuple(map(points.__getitem__, sorted(filter((0).__le__, points))))
    points = set(own)
    points.update(straddles[:lo])
    points.update(straddles[hi:])
    grid = [z for z in points if z >= 0]
    grid.sort()
    return tuple(grid)


# --- fault injection ----------------------------------------------------------

def _k_include_last(budget, total, costs, prefix) -> int:
    """Treats the final position's zero residual weight as affordable."""
    k = prefix_length(budget, total, costs, prefix)
    return len(costs) if k == len(costs) - 1 else k


def _star_nonstrict(w_star, rest) -> bool:
    return w_star >= rest


def _uncapped_rate(budget, total, costs, prefix, k: int):
    """Pays the prefix the whole budget, ignoring the successor's threshold."""
    return budget, prefix[k]


_HONEST_RULES = (prefix_length, star_wins, topk_rate)
_MUTANT_RULES = {
    "k-include-last": (_k_include_last, star_wins, topk_rate),
    "star-nonstrict": (prefix_length, _star_nonstrict, topk_rate),
    "no-threshold-cap": (prefix_length, star_wins, _uncapped_rate),
}
MUTATIONS = ("payment-scale", *_MUTANT_RULES)


def parse_mutation(spec: str | None) -> tuple[str | None, float | None]:
    """Parse a fault-injection spec like ``payment-scale:0.9``."""
    if spec is None:
        return None, None
    name, _, arg = spec.partition(":")
    if name not in MUTATIONS:
        raise ValidationError(f"unknown mutation {name!r}; known: {', '.join(MUTATIONS)}")
    if name == "payment-scale":
        try:
            return name, float(arg)
        except ValueError as exc:
            raise ValidationError(
                "payment-scale mutation needs a factor, e.g. payment-scale:0.9"
            ) from exc
    return name, None


def _scaled_payments(factor: float, instance: AuctionInstance, *, identity=None):
    outcome = fair_inner_product(instance, identity=identity)
    scaled = tuple(p * factor for p in outcome.payments)
    p_hat = None if outcome.p_hat is None else outcome.p_hat * factor
    return replace(outcome, payments=scaled, p_hat=p_hat)


def mechanism_under(mutation: str | None):
    """The mechanism a sweep checks, called as ``(instance, *, identity=None)``.

    ``None`` gives the honest `fair_inner_product`. A rule mutant calls
    `run_rules` directly, without the honest mechanism's single-winner
    checks, so its fault surfaces as a witness rather than an error.
    """
    name, factor = parse_mutation(mutation)
    if name is None:
        return fair_inner_product
    if name == "payment-scale":
        return partial(_scaled_payments, factor)
    rules = _MUTANT_RULES[name]
    return lambda instance, *, identity=None: run_rules(instance, identity, *rules)


# --- per-instance checks ----------------------------------------------------

def deviator_kernel(instance: AuctionInstance, i: int, mutation: str | None = None):
    """Individual ``i``'s utility as a function of its report, one mechanism run per step.

    Returns ``utility(z, true_cost)``, equal bit for bit to the utility of
    ``i`` under the filter-sort-mechanism pipeline on ``instance`` with
    ``i``'s cost replaced by ``z``, under ``mechanism_under(mutation)``, with
    no instance, estimator or outcome built. The pipeline reference,
    `_deviation_utility`, lives in ``tests/test_verify.py``.

    Filter once: while ``i`` is alive, every other individual's filter test
    reads only its own cost and the survivor total, never ``z``. So the
    filter rounds run once with ``i``'s own test skipped, giving the final
    survivor total ``W'``. The total only falls between rounds, so ``i``
    survives the real filter iff it passes the final round:
    ``W' - |w_i| > 0`` and ``|w_i| * z <= B * (W' - |w_i|)``, tested in the
    filter's own cross-multiplied form. Otherwise its utility is 0.

    A step per slot and verdict: the other survivors are sorted once by
    ``(cost, input row)`` and ``i`` is bisected in with key ``(z, i)``, the
    canonical order `instances.prepare` produces. With that slot ``pos``
    fixed, the mechanism reads ``z`` in one place that can change ``i``'s
    outcome: the prefix rule's test at ``t = pos + 1``,
    ``B * (W - w([pos + 1])) >= z * w([pos + 1])``, whose two sums depend
    on the slot alone (the last slot has no such test). The rate rule reads
    the cost at ``k``, which is ``i``'s only when ``i`` is unselected, and
    the single-winner scan reads costs other than ``i_star``'s, while ``i``'s
    payment depends on ``r`` only when ``i`` is ``i_star``; both hold for
    every rule of `MUTATIONS` too. So ``i``'s payment and privacy loss are
    a function of ``(pos, verdict)``: `mechanism.decide` runs on the first
    report of each step, at most twice per slot, and every other report
    costs two bisects and one comparison. Sums run in canonical order from
    the pipeline's start values, as the pipeline's do, so the verdicts and
    the stored values are the pipeline's bits.

    Exact integers: every comparison in `mechanism.decide` and its rules is
    cross-multiplied and homogeneous, of equal degree in money (budget,
    costs) and in weight, so scaling money by a positive ``M`` and weights
    by a positive ``E`` leaves every decision unchanged. On an instance whose
    weights, costs and budget are all `Fraction`, ``E`` is the lcm of the
    survivors' weight denominators and ``M`` that of the budget's and the
    other survivors' cost denominators, computed once per deviator; a report
    ``z = p/q`` (a `Fraction` or an int) further scales money by ``q``. Then
    `decide` runs on Python ints, and ``i``'s payment and privacy loss divide
    by ``M q`` into `Fraction`, the pipeline's value and type, whatever ``q``.
    Any other report takes the same statements with ``M q = 1`` and ``/``,
    the pipeline's bits; the two arithmetic paths keep separate steps.
    """
    name, factor = parse_mutation(mutation)
    rules = _MUTANT_RULES.get(name, _HONEST_RULES)
    checked = name not in _MUTANT_RULES
    budget = instance.budget
    wabs, costs = instance.abs_weights, instance.unit_costs
    w_i = wabs[i]

    alive, total = filter_survivors(instance, exempt=i)
    residual = total - w_i
    if residual <= 0:  # no other survivor weight: i is filtered whatever it reports
        return lambda z, true_cost: 0
    cap = budget * residual
    others = sorted((costs[j], j) for j in alive if j != i)
    other_wabs = [wabs[j] for _, j in others]
    other_costs = [c for c, _ in others]
    other_rows = [j for _, j in others]
    own_zero, first_zero = w_i * 0, other_wabs[0] * 0  # others is not empty: residual > 0

    exact = instance.exact
    if exact:
        scale_w = math.lcm(*(wabs[j].denominator for j in alive))
        scale_m = math.lcm(budget.denominator, *(c.denominator for c in other_costs))
        int_wabs = _scaled_ints(other_wabs, scale_w)
        int_costs = _scaled_ints(other_costs, scale_m)
        [int_w_i] = _scaled_ints([w_i], scale_w)
        [int_budget] = _scaled_ints([budget], scale_m)
        int_cap = int_budget * sum(int_wabs)  # B * (W' - |w_i|), scaled by M * E

    slots = {}  # (integral, pos) -> weights with i inserted, w([pos + 1]), their total
    steps = {}  # (integral, pos, verdict) -> [payment, eps, true_cost, utility]

    def slot(integral: bool, pos: int, own_w):
        ws = (int_wabs if integral else other_wabs).copy()
        ws.insert(pos, own_w)
        through = reduce(operator.add, ws[: pos + 1], ws[0] * 0)  # decide's prefix[pos + 1]
        return ws, through, sum(ws)

    def step(integral: bool, q: int, pos: int, own_cost, ws, whole):
        """``i``'s payment and privacy loss on one step, from one `decide` run."""
        if integral:
            cs = [c * q for c in int_costs]
            scaled_budget, money, divide = int_budget * q, scale_m * q, Fraction
        else:
            cs = other_costs.copy()
            scaled_budget, money, divide = budget, 1, operator.truediv
        cs.insert(pos, own_cost)
        ids = other_rows.copy()
        ids.insert(pos, i)
        k, i_star, r, p_hat, rate = decide(ws, cs, ids, scaled_budget, whole, rules)
        if checked:
            check_single_winner(k, i_star, r)
        own_w = ws[pos]
        zero = first_zero if pos else own_zero  # the pipeline's first-position weight * 0
        if rate is None:
            selected = pos == i_star
            if not selected:
                payment = zero
            elif r is None:
                payment = budget
            else:
                payment = divide(p_hat[0], p_hat[1] * money)
            unselected = ws[:i_star] + ws[i_star + 1:]
        else:
            selected = pos < k
            if not selected:
                payment = zero
            else:
                payment = own_w * divide(rate[0], rate[1] * money)
            unselected = ws[k:]
        if factor is not None:
            payment = payment * factor
        # Dclef.residual_weight and Dclef.epsilons, for i alone
        resid = sum(unselected)
        x_i = 1 if selected else 0
        if resid == 0:
            eps = math.inf if x_i else 0.0
        else:
            eps = divide(own_w * x_i, resid)
        return payment, eps

    def utility(z, true_cost):
        integral = exact and type(z) in (Fraction, int)
        if integral:
            # money scaled by M * q and weights by E, as the docstring explains
            q = z.denominator
            own_w, own_cost, limit = int_w_i, z.numerator * scale_m, int_cap * q
            # the others' costs scale by q too: the bisects multiply as they compare
            scaled_budget, scaled_costs, scale = int_budget * q, int_costs, q.__mul__
        else:
            q, own_w, own_cost, limit = 1, w_i, z, cap
            scaled_budget, scaled_costs, scale = budget, other_costs, None
        if own_w * own_cost > limit:
            return 0
        lo = bisect_left(scaled_costs, own_cost, key=scale)
        hi = bisect_right(scaled_costs, own_cost, lo, key=scale)
        pos = bisect_left(other_rows, i, lo, hi)  # canonical order: by (cost, input row)
        at = slots.get((integral, pos))
        if at is None:
            at = slots[integral, pos] = slot(integral, pos, own_w)
        ws, through, whole = at
        verdict = pos < len(others) and scaled_budget * (whole - through) >= own_cost * through
        key = (integral, pos, verdict)
        known = steps.get(key)
        if known is None:
            payment, eps = step(integral, q, pos, own_cost, ws, whole)
            known = steps[key] = [payment, eps, true_cost, payment - true_cost * eps]
        elif known[2] is not true_cost:
            known[2:] = true_cost, known[0] - true_cost * known[1]
        return known[3]

    return utility


def _scaled_ints(values, scale: int) -> list[int]:
    """``v * scale`` for each `Fraction` ``v``, as an int: every denominator divides ``scale``."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _witness(prop: str, config: SweepConfig, index: int, instance, **extra) -> dict:
    return {
        "property": prop,
        "rng_seed": config.rng_seed,
        "instance_index": index,
        "instance": instance.to_json(),
        **extra,
    }


def _truthfulness_record(config: SweepConfig, index: int, mutation: str | None) -> dict:
    instance = generate_instance(config, index)
    outcome = mechanism_under(mutation)(instance)
    failures = []

    def fail(prop: str, **extra) -> None:
        failures.append(_witness(prop, config, index, instance, **extra))

    def slack(x):
        # exactly 0 on exact input, never 0 * x: a loss can be math.inf
        return 0 if instance.exact else REL_TOL * max(1, abs(x))

    total_paid, budget = sum(outcome.payments), instance.budget
    if not total_paid <= budget + slack(budget):
        fail("budget_feasible", total_paid=_json_float(total_paid), budget=_json_float(budget))

    eps = outcome.dclef.epsilons()
    for i, pay in enumerate(outcome.payments):
        cost = instance.unit_costs[i] * eps[i]
        if not pay >= cost - slack(cost):
            fail(
                "individually_rational",
                individual=i, payment=_json_float(pay), privacy_cost=_json_float(cost),
            )

    gain_slack = 0 if instance.exact else TRUTHFUL_SLACK
    for i in range(instance.n):
        true_cost = instance.unit_costs[i]
        honest_utility = outcome.payments[i] - true_cost * eps[i]
        bound = honest_utility + gain_slack
        deviate = deviator_kernel(instance, i, mutation)
        for z in misreport_grid(instance.unit_costs, i):
            dev_utility = deviate(z, true_cost)
            # a NaN utility fails the check: only a proven "no gain" passes
            if not dev_utility <= bound:
                fail(
                    "truthful", individual=i, misreport=_json_float(z),
                    honest_utility=_json_float(honest_utility),
                    deviating_utility=_json_float(dev_utility),
                )
    failed = {witness["property"] for witness in failures}
    props = ("budget_feasible", "individually_rational", "truthful")
    return {"index": index, "checks": {p: p not in failed for p in props}, "failures": failures}


def _approximation_record(config: SweepConfig, index: int) -> dict:
    instance = generate_instance(config, index)
    outcome = fair_inner_product(instance)
    report = opt_bounds_check(instance, outcome)
    failures = [
        _witness(name, config, index, instance, report=report.to_json())
        for name, ok in report.checks.items()
        if not ok
    ]
    return {
        "index": index,
        "checks": dict(report.checks),
        "failures": failures,
        "ratio": report.ratio,
        "branch": outcome.branch,
    }


# --- aggregation --------------------------------------------------------------

@dataclass
class PropertyTally:
    passed: int = 0
    failed: int = 0


@dataclass
class VerificationReport:
    """Aggregated sweep outcome; every failure is replayable from seed + index."""

    sweep: str
    config: SweepConfig
    instances_run: int = 0
    tallies: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    failure_count: int = 0
    worst_ratio: float | None = None
    worst_ratio_witness: dict | None = None
    rows: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(t.failed == 0 for t in self.tallies.values())

    def _absorb(self, record: dict) -> None:
        self.instances_run += 1
        for name, passed in record["checks"].items():
            tally = self.tallies.setdefault(name, PropertyTally())
            if passed:
                tally.passed += 1
            else:
                tally.failed += 1
        for witness in record["failures"]:
            self.failure_count += 1
            if len(self.failures) < MAX_WITNESSES:
                self.failures.append(witness)
        if "ratio" in record:
            self.rows.append((record["index"], record["ratio"], record["branch"]))
            ratio = record["ratio"]
            if math.isfinite(ratio) and (self.worst_ratio is None or ratio > self.worst_ratio):
                self.worst_ratio = ratio
                self.worst_ratio_witness = {
                    "rng_seed": self.config.rng_seed,
                    "instance_index": record["index"],
                    "ratio": ratio,
                }

    def to_json(self) -> dict:
        return {
            "sweep": self.sweep,
            "config": self.config.to_json(),
            "instances_run": self.instances_run,
            "properties": {
                name: {"passed": t.passed, "failed": t.failed}
                for name, t in sorted(self.tallies.items())
            },
            "failure_count": self.failure_count,
            "failures": self.failures,
            "worst_ratio": self.worst_ratio,
            "worst_ratio_witness": self.worst_ratio_witness,
            "ok": self.ok,
        }

    def csv_rows(self) -> list[tuple]:
        return [("instance_id", "ratio", "branch")] + [
            (idx, f"{ratio:.12g}", branch) for idx, ratio, branch in self.rows
        ]


def _sweep(name: str, worker, config: SweepConfig, threads: int) -> VerificationReport:
    """Run ``worker`` on every index and aggregate, in index order at any worker count.

    The worker count is capped at the CPU count and the instance count, so a
    large ``threads`` never starts more processes than can run at once.
    """
    report = VerificationReport(name, config)
    indices = range(config.instance_count)
    workers = min(threads, os.cpu_count() or 1, config.instance_count)
    if workers <= 1:
        records = map(worker, indices)
    else:
        chunk = max(1, config.instance_count // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(worker, indices, chunksize=chunk))
    for record in records:
        report._absorb(record)
    return report


def _check_truthfulness(config: SweepConfig, mutation: str | None) -> None:
    """Reject a bad mutation spec, or an ``n_range`` beyond `TRUTHFUL_LIMIT`, before any work."""
    parse_mutation(mutation)
    if config.n_range[1] > TRUTHFUL_LIMIT:
        raise ValidationError(f"truthfulness sweep needs n_range within {TRUTHFUL_LIMIT}")


def _check_approximation(config: SweepConfig) -> None:
    """Reject an ``n_range`` beyond the exact oracle's `ORACLE_LIMIT`, before any work."""
    if config.n_range[1] > ORACLE_LIMIT:
        raise ValidationError(
            f"approximation sweep needs n_range within the oracle bound {ORACLE_LIMIT}"
        )


def run_truthfulness_sweep(
    config: SweepConfig, mutation: str | None = None, threads: int = 1
) -> VerificationReport:
    """Budget, individual-rationality, and misreport-grid checks over the stream.

    A correct mechanism yields zero failures; a mutated one (a spec from
    `MUTATIONS`) is expected to produce witnesses. In rational mode all
    comparisons are exact. Each instance takes about n^3 steps (n deviators,
    at most 2n mechanism runs of O(n) each, and about 3n reports of O(log n)
    each), so ``n_range`` may not exceed `TRUTHFUL_LIMIT`.
    """
    _check_truthfulness(config, mutation)
    worker = partial(_truthfulness_record, config, mutation=mutation)
    return _sweep("truthfulness", worker, config, threads)


def run_approximation_sweep(config: SweepConfig, threads: int = 1) -> VerificationReport:
    """Oracle-vs-mechanism ratio plus relaxation consistency over the stream."""
    _check_approximation(config)
    return _sweep("approximation", partial(_approximation_record, config), config, threads)
