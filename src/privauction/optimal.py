"""Benchmarks for the auction: continuous closed-form optimum and integer oracle.

The continuous benchmark fills the cheapest individuals completely, one
individual fractionally, and nothing beyond, with the crossover chosen so the
tight individually-rational payments exhaust the budget exactly. The integer
oracle is an exact knapsack branch-and-bound (desk scale only), seeded with
the greedy solution as a floor and, once a search runs long, bounded by the
exact Pareto frontiers of its last items, that returns the lexicographically
smallest optimal participation vector; it is the ground truth the mechanism's
approximation guarantees are measured against. Both take a canonical
instance, as the mechanism does, and raise NotCanonical on any other: the
cost order is `instances.canonicalize`'s alone. Both solutions are indexed
by canonical position; their ``to_json`` reports them by input row through
the row map of `instances.prepare`. Float and `Fraction` input share every
function here, and every check of `opt_bounds_check` is exact on the latter.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import gt
from typing import Sequence

from .errors import DegenerateAllOnes, InstanceTooLarge
from .instances import (
    AuctionInstance, _double, _json_float, _json_floats, _require_canonical, scatter,
)
from .mechanism import MechanismOutcome, fair_inner_product

__all__ = [
    "FractionalSolution",
    "KktCertificate",
    "OracleSolution",
    "OptBoundsReport",
    "fractional_optimum",
    "kkt_certificate",
    "brute_force_opt",
    "opt_bounds_check",
    "ORACLE_LIMIT",
]

ORACLE_LIMIT = 20
REL_TOL = 1e-9  # relative slack of a float comparison; exact input gets none
_FRONTIER_AFTER = 500  # oracle nodes visited before the frontier bound is built
_FRONTIER_DEPTH = 8  # trailing items the frontier bound covers


@dataclass(frozen=True)
class FractionalSolution:
    """Continuous relaxation optimum: full prefix, one fractional, tight budget."""

    x_star: tuple
    payments: tuple
    ell: int
    objective: float

    @property
    def n(self) -> int:
        return len(self.x_star)

    def to_json(self, rows: Sequence[int] | None = None, n: int | None = None) -> dict:
        """Report by input row, as `MechanismOutcome.to_json`."""
        rows = range(self.n) if rows is None else rows
        n = len(rows) if n is None else n
        return {
            "x_star": scatter(_json_floats(self.x_star), rows, n),
            "payments": scatter(_json_floats(self.payments), rows, n),
            "ell": self.ell,
            "objective": _json_float(self.objective),
        }


def fractional_optimum(instance: AuctionInstance) -> FractionalSolution:
    """Closed-form optimum of the continuous participation relaxation.

    With ``p(t)`` the weight beyond position ``t`` and ``q(t)`` the
    cost-weight of the first ``t`` positions, the crossover ``ell`` is the last
    ``t`` where ``q(t) - B p(t) <= 0``; the fractional coordinate solves the
    tight-budget identity exactly. The solution never clamps: the crossover
    choice itself keeps the fraction inside [0, 1], which is asserted.
    """
    _require_canonical(instance)
    n = instance.n
    wabs = instance.abs_weights
    costs = instance.unit_costs
    budget = instance.budget
    zero = wabs[0] * 0

    beyond = [zero] * (n + 1)  # p(t): weight strictly after position t
    for t in range(n - 1, -1, -1):
        beyond[t] = beyond[t + 1] + wabs[t]
    cost_weight = [zero] * (n + 1)  # q(t): sum of v_i |w_i| up to position t
    for t in range(1, n + 1):
        cost_weight[t] = cost_weight[t - 1] + costs[t - 1] * wabs[t - 1]

    ell = 0
    for t in range(n + 1):
        if cost_weight[t] - budget * beyond[t] <= 0:
            ell = t
    if ell == n:
        raise DegenerateAllOnes(
            "relaxation admits full participation (every cost-weight term is zero)"
        )

    numerator = budget * beyond[ell] - cost_weight[ell]
    denominator = (costs[ell] + budget) * wabs[ell]
    frac = numerator / denominator
    if not -1e-12 <= frac <= 1 + 1e-12:
        raise AssertionError("fractional coordinate escaped [0, 1]")

    x = [1] * ell + [frac] + [0] * (n - ell - 1)
    residual = beyond[ell + 1] + wabs[ell] * (1 - frac)
    if residual == 0:
        raise DegenerateAllOnes("residual weight vanished at the crossover")
    payments = tuple(costs[i] * wabs[i] * x[i] / residual for i in range(n))
    objective = sum(wabs[i] * x[i] for i in range(n))
    return FractionalSolution(tuple(x), payments, ell, objective)


@dataclass(frozen=True)
class KktCertificate:
    """Multipliers recomputed from the crossover; a checkable optimality proof.

    ``stationarity`` holds the per-coordinate Lagrangian gradients (zero at an
    optimum), ``budget_gap`` the tight-budget slack, both scaled by the
    instance's natural magnitudes so tolerances are dimensionless.
    """

    lagrange_budget: float
    upper_multipliers: tuple
    lower_multipliers: tuple
    stationarity: tuple
    budget_gap: float
    complementary_slackness: tuple

    @cached_property
    def max_violation(self) -> float:
        worst = 0.0
        if self.lagrange_budget < 0:
            worst = max(worst, -self.lagrange_budget)
        for m in self.upper_multipliers + self.lower_multipliers:
            if m < 0:
                worst = max(worst, -m)
        for g in self.stationarity:
            worst = max(worst, abs(g))
        worst = max(worst, abs(self.budget_gap))
        for c in self.complementary_slackness:
            worst = max(worst, abs(c))
        return worst

    def satisfied(self, tol: float = REL_TOL) -> bool:
        return self.max_violation <= tol


def kkt_certificate(instance: AuctionInstance, solution: FractionalSolution) -> KktCertificate:
    """Rebuild the optimality multipliers for a fractional solution and score them."""
    n = instance.n
    wabs = instance.abs_weights
    costs = instance.unit_costs
    budget = instance.budget
    ell = solution.ell
    x = solution.x_star

    lam = 1 / (costs[ell] + budget)
    upper = tuple(
        (costs[ell] - costs[i]) * wabs[i] * lam if i < ell else wabs[i] * 0 for i in range(n)
    )
    lower = tuple(
        (costs[i] - costs[ell]) * wabs[i] * lam if i > ell else wabs[i] * 0 for i in range(n)
    )
    scale = max(1, max(wabs))
    stationarity = tuple(
        (-wabs[i] + lam * (costs[i] + budget) * wabs[i] + upper[i] - lower[i]) / scale
        for i in range(n)
    )
    spent = sum(costs[i] * wabs[i] * x[i] for i in range(n))
    reserved = budget * sum(wabs[i] * (1 - x[i]) for i in range(n))
    budget_scale = max(1, abs(spent), abs(reserved))
    budget_gap = (spent - reserved) / budget_scale
    slackness = tuple(
        v
        for i in range(n)
        for v in ((upper[i] * (x[i] - 1)) / scale, (lower[i] * x[i]) / scale)
    )
    return KktCertificate(lam, upper, lower, stationarity, budget_gap, slackness)


@dataclass(frozen=True)
class OracleSolution:
    """Exact integer optimum with tight individually-rational payments."""

    x: tuple[int, ...]
    objective: float
    payments: tuple

    def to_json(self, rows: Sequence[int] | None = None, n: int | None = None) -> dict:
        """Report by input row, as `MechanismOutcome.to_json`."""
        rows = range(len(self.x)) if rows is None else rows
        n = len(rows) if n is None else n
        return {
            "x": scatter(self.x, rows, n, 0),
            "objective": _json_float(self.objective),
            "payments": scatter(_json_floats(self.payments), rows, n),
        }


def brute_force_opt(instance: AuctionInstance) -> OracleSolution:
    """Exact integer optimum by knapsack branch-and-bound (desk scale only).

    Feasibility uses tight payments: selected cost-weight must not exceed the
    budget times the residual weight, which is the single knapsack constraint
    ``sum |w_i|(v_i + B) x_i <= B W`` with profit ``|w_i|``. A depth-first
    search fixes ``x_i = 0`` before ``x_i = 1`` in index order and prunes a
    node once its Dantzig bound cannot beat the incumbent, so ties resolve to
    the lexicographically smallest optimal vector. The instance must be
    canonical, as `instances.canonicalize` leaves it (else NotCanonical), so
    index order is cost order. Float and ``Fraction`` instances share the
    search; rational input is solved exactly. Full participation is excluded
    (its noise scale is zero), except in the all-costs-zero corner where it
    is free and optimal by inspection.

    The search is seeded with the greedy leaf (Horowitz & Sahni 1974): each
    item that still fits, in cost order, which is the take path itself. Its
    value is a floor, not an incumbent: a leaf is accepted only at or above
    it and a node is entered only if its bound can reach it, while the
    incumbent still starts at zero and is replaced only on a strict
    improvement, so the tie rule is unchanged. On float input the floor test
    allows ``n`` ulps of the total weight: the bound adds the undecided items
    in its own sequence and can round one ulp below the value the search
    sums for a leaf it covers, and without that slack such a leaf, the
    optimum, would be cut.

    A search still running after `_FRONTIER_AFTER` nodes builds an exact
    completion bound for its last `_FRONTIER_DEPTH` items (Nemhauser &
    Ullmann 1969): for each suffix ``i..n-1`` the Pareto frontier of (size,
    value) over its subsets, sorted by size with strictly increasing values
    and cut at the capacity plus ``room``. From then on a node with undecided
    items ``i..`` is searched only if ``u = value + F_i(capacity - used +
    room) + reach_slack``, with ``F_i(c)`` the best frontier value of size at
    most ``c``, beats the incumbent and reaches the floor. Such frontiers
    stay small on random instances (Beier & Vöcking 2003). Before the build
    a node pays one countdown step and nothing else.

    The test is one more conjunct beside the Dantzig tests, so the search
    descends below a subset of the parent's nodes, and the answer is
    unchanged if no cut subtree holds a leaf that would replace the
    incumbent. Such a leaf has a value above the incumbent and at or above
    the floor, so it suffices that ``u`` is at least the value the search
    computes for every leaf below the node whose take tests pass. On ``Fraction`` input the
    sums are exact, both allowances are zero and that holds as written. On
    float input the search sums sizes and values in index order and the
    frontier sums them in reverse order; for ``k`` nonnegative terms each
    rounded sum lies within ``gamma_(k-1) = (k-1)u / (1 - (k-1)u)`` relative
    of the exact one, with ``u = 2^-53`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 4.2). Rounding is monotone, so a
    Pareto entry that dominates a subset's partial sum dominates its
    extensions, and the lookup sees the subset or better. The two sums then
    differ by at most ``2 gamma_n`` of their total, and the lookup's own
    subtractions and additions add at most three more roundings: about
    ``(2n + 3) u`` of the capacity for sizes, and of the total weight for
    values. ``room`` and ``reach_slack`` allow ``4nu = 2n * 2^-52`` of those
    totals, which covers it for every ``n >= 2``; a smaller instance has no
    frontier. Equal float weights tie on every leaf, the allowance keeps
    each tie open, and the frontier would only cost time, so no search with
    them builds it.
    """
    n = instance.n
    if n > ORACLE_LIMIT:
        raise InstanceTooLarge(f"exact oracle limited to n <= {ORACLE_LIMIT}")
    _require_canonical(instance)
    wabs = instance.abs_weights
    costs = instance.unit_costs
    budget = instance.budget

    if all(v == 0 for v in costs):
        return OracleSolution(
            (1,) * n, instance.total_weight, tuple(wabs[0] * 0 for _ in range(n))
        )

    sizes = [wabs[i] * (costs[i] + budget) for i in range(n)]
    capacity = budget * instance.total_weight
    # Dantzig bound order of the undecided items: ascending cost, descending profit/size
    tails = [range(i, n) for i in range(n + 1)]

    def dantzig(i, value, used):
        """LP bound on the best value reachable with items i.. undecided."""
        for j in tails[i]:
            if used + sizes[j] > capacity:
                return value + wabs[j] * (capacity - used) / sizes[j]
            used += sizes[j]
            value += wabs[j]
        return value

    zero = wabs[0] * 0
    # The greedy leaf: its fill in cost order is a take path, so the search reaches its value.
    value, used, taken = zero, zero, 0
    for i in range(n):
        if used + sizes[i] <= capacity:
            used += sizes[i]
            value += wabs[i]
            taken += 1
    floor = value if 0 < taken < n else zero
    # A bound can round below the sum the search computes for a leaf it covers,
    # so on rounded input a branch stays open within n ulps of W.
    slack = zero if instance.exact else n * 2.0**-52 * instance.total_weight
    room = reach_slack = zero  # the frontier bound's allowances, set when it is built

    x = [0] * n
    best_x = tuple(x)
    best = zero
    # Nodes to visit before the next frontier test. Equal float weights tie on
    # every leaf and the allowance keeps each tie open, so there a frontier
    # would only cost time: a count below zero never reaches zero.
    left = -1 if not instance.exact and instance.has_uniform_weights else _FRONTIER_AFTER
    first = n  # nodes at depth first.. test their suffix's frontier
    fronts = {}

    def build():
        """Pareto frontiers of (size, value) for the last _FRONTIER_DEPTH suffixes."""
        nonlocal first, room, reach_slack
        if not instance.exact:  # rounded sums in a second order; see above
            room, reach_slack = 2 * n * 2.0**-52 * capacity, 2 * slack
        first = max(n - _FRONTIER_DEPTH, 1)
        limit = capacity + room
        level = [(zero, zero)]
        for j in range(n - 1, first - 1, -1):
            size, weight = sizes[j], wabs[j]
            level += [(s + size, v + weight) for s, v in level if s + size <= limit]
            level.sort()
            values = [v for _, v in level]
            level = list(compress(level, map(gt, values, chain((-1,), accumulate(values, max)))))
            fronts[j] = [s for s, _ in level], [v for _, v in level]

    def completes(i, value, used):
        """Whether the exact completion bound of items i.. can still win.

        The first call builds the frontiers; from then on every node tests.
        """
        nonlocal left
        if not fronts:
            build()
        left = 1  # the next node tests too
        if i < first:
            return True
        front_sizes, front_values = fronts[i]
        k = bisect_right(front_sizes, capacity - used + room)
        u = value + front_values[k - 1] + reach_slack
        return u > best and u >= floor

    def visit(i, value, used, bound):
        """Search below a node whose bounds beat the incumbent and reach the floor."""
        nonlocal best, best_x, left
        if i == n:
            # full participation stays excluded
            if value > best and value >= floor and 0 in x:
                best, best_x = value, tuple(x)
            return
        left -= 1
        if not left and not completes(i, value, used):
            return
        skip = dantzig(i + 1, value, used)
        if skip > best and skip + slack >= floor:
            visit(i + 1, value, used, skip)
        # Taking i only narrows the subtree, so the parent's bound holds.
        if bound > best and bound + slack >= floor and used + sizes[i] <= capacity:
            x[i] = 1
            visit(i + 1, value + wabs[i], used + sizes[i], bound)
            x[i] = 0

    root = dantzig(0, zero, zero)
    if root > best and root + slack >= floor:
        visit(0, zero, zero, root)
    resid = instance.total_weight - instance.weight_of(i for i in range(n) if best_x[i])
    payments = tuple(costs[i] * wabs[i] * best_x[i] / resid for i in range(n))
    objective = best if instance.exact else float(best)
    return OracleSolution(best_x, objective, payments)


@dataclass(frozen=True)
class OptBoundsReport:
    """Joint consistency report for oracle, relaxation, and mechanism."""

    opt: float
    fractional_objective: float
    mechanism_objective: float
    ratio: float
    uniform_weights: bool
    degenerate_zero_costs: bool
    ell: int
    k: int
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "opt": _json_float(self.opt),
            "fractional_objective": _json_float(self.fractional_objective),
            "mechanism_objective": _json_float(self.mechanism_objective),
            "ratio": _json_float(self.ratio),
            "uniform_weights": self.uniform_weights,
            "degenerate_zero_costs": self.degenerate_zero_costs,
            "ell": self.ell,
            "k": self.k,
            "checks": dict(self.checks),
        }


def opt_bounds_check(
    instance: AuctionInstance,
    outcome: MechanismOutcome | None = None,
) -> OptBoundsReport:
    """Cross-check every benchmark relation on one canonical filtered instance.

    Asserted relations: the relaxation dominates the integer optimum, the
    mechanism is within a factor 5 (factor 2 under uniform weights), the
    relaxation crossover is at least the mechanism prefix, the prefix-plus-one
    weight strictly exceeds the relaxation mass past the prefix, and the
    recomputed multiplier certificate plus tight-budget identity hold.
    Violations are reported as failed checks, never raised. Each allows a
    slack of `REL_TOL`, or none on exact input (`AuctionInstance.exact`).
    """
    if outcome is None:
        outcome = fair_inner_product(instance)
    oracle = brute_force_opt(instance)
    n = instance.n
    wabs = instance.abs_weights
    tol = 0 if instance.exact else REL_TOL
    rel = 1 + tol

    k = outcome.k
    degenerate = all(v == 0 for v in instance.unit_costs)
    if degenerate:
        frac_value = instance.total_weight
        ell = n
        kkt_ok = True
        budget_identity_ok = True
        tail_mass = 0.0
    else:
        fractional = fractional_optimum(instance)
        frac_value = fractional.objective
        ell = fractional.ell
        cert = kkt_certificate(instance, fractional)
        kkt_ok = cert.satisfied(tol)
        budget_identity_ok = abs(cert.budget_gap) <= tol
        tail_mass = sum(wabs[i] * fractional.x_star[i] for i in range(k, min(ell + 1, n)))

    opt, mech = oracle.objective, outcome.objective
    checks = {
        "fractional_dominates": opt <= frac_value * rel,
        "ratio_le_5": opt <= 5 * mech * rel,
        "ell_ge_k": ell >= k,
        "prefix_weight_bound": degenerate
        or sum(wabs[i] for i in range(min(k + 1, n))) > tail_mass,
        "kkt_certificate": kkt_ok,
        "budget_identity": budget_identity_ok,
    }
    uniform = instance.has_uniform_weights
    if uniform:
        checks["ratio_le_2_uniform"] = opt <= 2 * mech * rel
    opt, mech = _double(opt), _double(mech)  # the report's fields
    ratio = opt / mech if mech > 0 else math.inf
    return OptBoundsReport(
        opt, _double(frac_value), mech, ratio, uniform, degenerate, ell, k, checks
    )
