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
own payment and privacy loss respond to its report ``z``. While the deviator
``i`` is alive, the others' filter tests do not read ``z``, so the filter runs
once per deviator with ``i``'s own test skipped; ``i`` survives iff it
passes against the final survivor total ``W'``, that is
``W' - |w_i| > 0`` and ``|w_i| * z <= B * (W' - |w_i|)``. Each report then
costs one bisect into the others' canonical order and one O(n) pass, bit for
bit equal to the pipeline (`_deviation_utility`, kept as the reference).
"""

import math
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import EmptyInstance, ParameterOutOfRange, ValidationError
from .instances import AuctionInstance, ValueInterval, filter_survivors, prepare
from .mechanism import (
    check_single_winner,
    decide,
    fair_inner_product,
    prefix_length,
    run_rules,
    star_wins,
    topk_rate,
)
from .optimal import ORACLE_LIMIT, opt_bounds_check

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
    "default_threads",
    "MUTATIONS",
    "parse_mutation",
    "mechanism_under",
]

TRUTHFUL_SLACK = 1e-9
REL_TOL = 1e-9
MAX_WITNESSES = 50

WEIGHT_DISTRIBUTIONS = ("uniform", "lognormal", "signed", "integer-grid")
COST_DISTRIBUTIONS = ("uniform", "lognormal", "integer-grid")


def default_threads() -> int:
    """Worker cap from PRIVAUCTION_THREADS; defaults to serial."""
    raw = os.environ.get("PRIVAUCTION_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


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
        if not isinstance(data, dict):
            raise ValidationError("sweep config must be a JSON object")
        kwargs = {}
        fields = {
            "n_range": tuple,
            "instance_count": int,
            "weight_distribution": str,
            "cost_distribution": str,
            "budget_rule": str,
            "rng_seed": int,
            "arithmetic_mode": str,
        }
        for key, caster in fields.items():
            if key in data:
                kwargs[key] = caster(data[key])
        unknown = set(data) - set(fields)
        if unknown:
            raise ValidationError(f"unknown sweep config fields: {sorted(unknown)}")
        return cls(**kwargs)

    def to_json(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "instance_count": self.instance_count,
            "weight_distribution": self.weight_distribution,
            "cost_distribution": self.cost_distribution,
            "budget_rule": self.budget_rule,
            "rng_seed": self.rng_seed,
            "arithmetic_mode": self.arithmetic_mode,
        }


def _parse_budget_rule(rule: str) -> tuple[str, tuple[float, ...]]:
    name, _, arg = rule.partition(":")
    if name == "scaled":
        try:
            lo, hi = (float(part) for part in arg.split(","))
        except ValueError as exc:
            raise ValidationError(f"budget rule {rule!r} needs 'scaled:lo,hi'") from exc
        if not 0 < lo <= hi:
            raise ValidationError("scaled budget rule needs 0 < lo <= hi")
        return name, (lo, hi)
    if name == "fixed":
        try:
            value = float(arg)
        except ValueError as exc:
            raise ValidationError(f"budget rule {rule!r} needs 'fixed:value'") from exc
        if value <= 0:
            raise ValidationError("fixed budget must be positive")
        return name, (value,)
    raise ValidationError(f"unknown budget rule {rule!r}")


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
    name, args = _parse_budget_rule(config.budget_rule)
    if name == "fixed":
        return args[0]
    lo, hi = args
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
    """Deterministic canonical, affordability-filtered instance for an index."""
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
        return canonical
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


def misreport_grid(costs, i: int, rational: bool = False) -> tuple:
    """Candidate misreports for individual ``i``.

    A multiplicative grid of at least 21 points around the true cost, plus,
    for every other reported cost, the cost itself and values just below and
    above it, so every sort position reachable by a unilateral deviation is
    exercised.
    """
    true_cost = costs[i]
    points = set()
    if rational:
        eps = Fraction(1, 10**6)
        if true_cost > 0:
            for f in _RATIONAL_FACTORS:
                points.add(true_cost * f)
        else:
            top = max(costs) if max(costs) > 0 else Fraction(1)
            for f in _RATIONAL_FACTORS:
                points.add(top * f)
            points.add(Fraction(0))
        for j, c in enumerate(costs):
            if j == i:
                continue
            points.add(c)
            points.add(c * (1 - eps))
            points.add(c * (1 + eps))
    else:
        if true_cost > 0:
            for f in _FLOAT_FACTORS:
                points.add(true_cost * f)
        else:
            top = max(costs) if max(costs) > 0 else 1.0
            points.update(float(z) for z in np.linspace(0.0, 10.0 * top, 21))
        for j, c in enumerate(costs):
            if j == i:
                continue
            points.add(c)
            points.add(c * (1.0 - 1e-6))
            points.add(c * (1.0 + 1e-6))
    return tuple(sorted(z for z in points if z >= 0))


# --- fault injection ----------------------------------------------------------

def _k_include_last(budget, total, costs, prefix) -> int:
    """Treats the final position's zero residual weight as affordable."""
    k = prefix_length(budget, total, costs, prefix)
    return len(costs) if k == len(costs) - 1 else k


def _star_nonstrict(w_star, rest) -> bool:
    return w_star >= rest


def _uncapped_rate(budget, total, costs, prefix, k: int):
    """Pays the prefix the whole budget, ignoring the successor's threshold."""
    return budget / prefix[k]


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


def deviator_kernel(instance: AuctionInstance, i: int, mutation: str | None = None):
    """Individual ``i``'s utility as a function of its report, one pipeline run per deviator.

    Returns ``utility(z, true_cost)``, equal bit for bit to `_deviation_utility`
    on ``instance`` with ``i``'s cost replaced by ``z``, under
    ``mechanism_under(mutation)``, in O(n) per report and with no instance,
    estimator or outcome built.

    Filter once: while ``i`` is alive, every other individual's filter test
    reads only its own cost and the survivor total, never ``z``. So the
    filter rounds run once with ``i``'s own test skipped, giving the final
    survivor total ``W'``. The total only falls between rounds, so ``i``
    survives the real filter iff it passes the final round:
    ``W' - |w_i| > 0`` and ``|w_i| * z <= B * (W' - |w_i|)``, tested in the
    filter's own cross-multiplied form. Otherwise its utility is 0.

    Per report: the other survivors are sorted once by ``(cost, input row)``
    and ``i`` is bisected in with key ``(z, i)``, which is the canonical order
    `instances.prepare` produces. Sums run in canonical order, as the
    pipeline's do, and `mechanism.decide` makes the decisions, so only
    ``i``'s payment and privacy loss are left to compute.
    """
    name, factor = parse_mutation(mutation)
    rules = _MUTANT_RULES.get(name, _HONEST_RULES)
    checked = name not in _MUTANT_RULES
    budget = instance.budget
    wabs, costs = instance.abs_weights, instance.unit_costs
    w_i = wabs[i]

    alive, total = filter_survivors(instance, exempt=i)
    residual = total - w_i
    cap = budget * residual
    others = sorted((costs[j], j) for j in alive if j != i)
    other_wabs = [wabs[j] for _, j in others]
    other_costs = [c for c, _ in others]
    other_rows = [j for _, j in others]

    def utility(z, true_cost):
        if residual <= 0 or w_i * z > cap:
            return 0
        pos = bisect_left(others, (z, i))
        ws, cs, ids = other_wabs.copy(), other_costs.copy(), other_rows.copy()
        ws.insert(pos, w_i)
        cs.insert(pos, z)
        ids.insert(pos, i)
        k, i_star, r, p_hat, rate = decide(ws, cs, ids, budget, sum(ws), rules)
        if checked:
            check_single_winner(k, i_star, r)
        zero = ws[0] * 0
        if rate is None:
            selected = pos == i_star
            payment = p_hat if selected else zero
            del ws[i_star]
            unselected = ws
        else:
            selected = pos < k
            payment = w_i * rate if selected else zero
            unselected = ws[k:]
        if factor is not None:
            payment = payment * factor
        # Dclef.residual_weight and Dclef.epsilons, for i alone
        resid = sum(unselected)
        x_i = 1 if selected else 0
        if resid == 0:
            eps = math.inf if x_i else 0.0
        else:
            eps = w_i * x_i / resid
        return payment - true_cost * eps

    return utility


def _finite_or_repr(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _witness(prop: str, config: SweepConfig, index: int, instance, **extra) -> dict:
    out = {
        "property": prop,
        "rng_seed": config.rng_seed,
        "instance_index": index,
        "instance": instance.to_float().to_json(),
    }
    out.update({key: _finite_or_repr(value) for key, value in extra.items()})
    return out


def _truthfulness_record(config: SweepConfig, index: int, mutation: str | None) -> dict:
    instance = generate_instance(config, index)
    rational = config.arithmetic_mode == "rational"
    if rational:
        instance = instance.to_rational()
    mechanism = mechanism_under(mutation)
    outcome = mechanism(instance)
    budget = instance.budget
    failures = []

    total_paid = sum(outcome.payments)
    budget_ok = (
        total_paid <= budget
        if rational
        else float(total_paid) <= float(budget) + REL_TOL * max(1.0, float(budget))
    )
    if not budget_ok:
        failures.append(
            _witness(
                "budget_feasible", config, index, instance,
                total_paid=float(total_paid), budget=float(budget),
            )
        )

    eps = outcome.dclef.epsilons()
    ir_ok = True
    for i in range(instance.n):
        cost = instance.unit_costs[i] * eps[i]
        pay = outcome.payments[i]
        holds = pay >= cost if rational else (
            float(pay) >= float(cost) - REL_TOL * max(1.0, abs(float(cost)))
        )
        if not holds:
            ir_ok = False
            failures.append(
                _witness(
                    "individually_rational", config, index, instance,
                    individual=i, payment=float(pay), privacy_cost=float(cost),
                )
            )

    truthful_ok = True
    slack = 0 if rational else TRUTHFUL_SLACK
    for i in range(instance.n):
        true_cost = instance.unit_costs[i]
        honest_utility = outcome.payments[i] - true_cost * eps[i]
        deviate = deviator_kernel(instance, i, mutation)
        for z in misreport_grid(instance.unit_costs, i, rational):
            dev_utility = deviate(z, true_cost)
            # a NaN utility fails the check: only a proven "no gain" passes
            if not dev_utility <= honest_utility + slack:
                truthful_ok = False
                failures.append(
                    _witness(
                        "truthful", config, index, instance,
                        individual=i, misreport=float(z),
                        honest_utility=float(honest_utility),
                        deviating_utility=float(dev_utility),
                    )
                )
    return {
        "index": index,
        "checks": {
            "budget_feasible": budget_ok,
            "individually_rational": ir_ok,
            "truthful": truthful_ok,
        },
        "failures": failures,
    }


def _approximation_record(config: SweepConfig, index: int) -> dict:
    instance = generate_instance(config, index)
    if config.arithmetic_mode == "rational":
        instance = instance.to_rational()
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


def _collect(worker, config: SweepConfig, threads: int | None) -> list[dict]:
    threads = default_threads() if threads is None else max(1, threads)
    indices = range(config.instance_count)
    if threads <= 1:
        return [worker(index) for index in indices]
    chunk = max(1, config.instance_count // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, indices, chunksize=chunk))


def run_truthfulness_sweep(
    config: SweepConfig, mutation: str | None = None, threads: int | None = None
) -> VerificationReport:
    """Budget, individual-rationality, and misreport-grid checks over the stream.

    A correct mechanism yields zero failures; a mutated one (a spec from
    `MUTATIONS`) is expected to produce witnesses. In rational mode all
    comparisons are exact.
    """
    parse_mutation(mutation)  # reject a bad spec before any worker starts
    report = VerificationReport("truthfulness", config)
    worker = partial(_truthfulness_record, config, mutation=mutation)
    for record in _collect(worker, config, threads):
        report._absorb(record)
    return report


def run_approximation_sweep(config: SweepConfig, threads: int | None = None) -> VerificationReport:
    """Oracle-vs-mechanism ratio plus relaxation consistency over the stream."""
    if config.n_range[1] > ORACLE_LIMIT:
        raise ValidationError(
            f"approximation sweep needs n_range within the oracle bound {ORACLE_LIMIT}"
        )
    report = VerificationReport("approximation", config)
    worker = partial(_approximation_record, config)
    for record in _collect(worker, config, threads):
        report._absorb(record)
    return report
