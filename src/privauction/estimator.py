"""Laplace estimators for linear predictors and their exact privacy accounting.

A `Lef` interpolates each data entry toward the interval midpoint by a factor
``x_i`` in [0, 1] and adds Laplace noise of scale ``sigma``. A `Dclef` is the
discrete (binary ``x``) member with the canonical noise scale tied to the
residual weight, which is the only family the auction mechanism ever releases.

All operations are pure given their inputs and an explicit seed; no global
random state is read.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import mul, not_, sub, truediv
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InstanceTooLarge, ParameterOutOfRange, ValidationError
from .instances import (
    AuctionInstance, _check_database, _check_finite, _complement, _double, _json_float,
    _json_floats, scatter,
)

__all__ = [
    "Lef",
    "Dclef",
    "PrivacyIndexResult",
    "TradeoffReport",
    "evaluate",
    "privacy_index_exact",
    "privacy_index_greedy",
    "tradeoff_construct",
    "check_tradeoff_bound",
    "laplace_inverse_cdf",
]

EXACT_INDEX_LIMIT = 25  # exhaustive subset search bound


def laplace_inverse_cdf(u: float, sigma: float) -> float:
    """Quantile of the centered Laplace distribution with scale ``sigma``."""
    if sigma == 0:
        return 0.0
    if u <= 0.0:
        u = 5e-324  # uniform draws live in [0, 1); keep the quantile finite
    if u <= 0.5:
        return sigma * math.log(2.0 * u)
    return -sigma * math.log(2.0 - 2.0 * u)


def _entries_for(estimator, database) -> tuple:
    entries = tuple(database)
    if len(entries) != estimator.n:
        raise DimensionMismatch(
            f"database has {len(entries)} entries, estimator expects {estimator.n}"
        )
    _check_database(entries, estimator.instance.interval)
    return entries


def _release_mean(weights, entries, x, anchors) -> float:
    """``sum w_i d_i x_i + sum w_i a_i (1 - x_i)``, each product and sum in index order."""
    data_term = sum(map(mul, map(mul, weights, entries), x))
    rest_term = sum(map(mul, map(mul, weights, anchors), map(sub, repeat(1), x)))
    return data_term + rest_term


@dataclass(frozen=True)
class Lef:
    """Laplace estimator: interpolation parameters ``x`` plus noise scale ``sigma``.

    Each entry is interpolated toward a data-independent anchor; the default
    (and distortion-minimal) anchor is the interval midpoint. Arbitrary
    anchors are representable read-only for the privacy checks: they shift
    the estimate but never its privacy losses.
    """

    instance: AuctionInstance
    x: tuple
    sigma: float
    anchors: tuple | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(self.x))
        if len(self.x) != self.instance.n:
            raise DimensionMismatch(
                f"{len(self.x)} interpolation parameters for {self.instance.n} individuals"
            )
        for i, xi in enumerate(self.x):
            if not isinstance(xi, (int, float, Fraction)):
                raise ValidationError(f"interpolation parameter is not a number at index {i}")
            if not 0 <= xi <= 1:
                raise ValidationError(f"interpolation parameter out of [0, 1] at index {i}")
        _check_finite(self.sigma, "noise scale")
        if self.sigma < 0:
            raise ValidationError("noise scale must be nonnegative")
        if self.anchors is not None:
            object.__setattr__(self, "anchors", tuple(self.anchors))
            if len(self.anchors) != self.instance.n:
                raise DimensionMismatch(
                    f"{len(self.anchors)} anchors for {self.instance.n} individuals"
                )
            for i, a in enumerate(self.anchors):
                _check_finite(a, f"anchor at index {i}")

    @property
    def n(self) -> int:
        return self.instance.n

    def deterministic_part(self, database) -> float:
        """Noise-free value: data term plus anchor interpolation term."""
        entries = _entries_for(self, database)
        anchors = self.anchors
        if anchors is None:
            anchors = repeat(self.instance.interval.midpoint())
        return _release_mean(self.instance.weights, entries, self.x, anchors)

    def epsilons(self) -> tuple:
        """Per-individual privacy losses ``delta * |w_i| * x_i / sigma``.

        With ``sigma == 0`` and some ``x_i > 0`` the loss is unbounded: the
        affected entries get an explicit ``math.inf`` sentinel (never NaN).
        """
        delta = self.instance.interval.delta()
        wabs = self.instance.abs_weights
        if self.sigma == 0:
            if any(xi > 0 for xi in self.x):
                return tuple(math.inf if xi > 0 else 0.0 for xi in self.x)
            return tuple(0.0 for _ in self.x)
        return tuple(delta * wabs[i] * self.x[i] / self.sigma for i in range(self.n))

    def distortion(self):
        """Worst-case mean squared error against the exact linear predictor.

        The database maximum sits at interval corners. With midpoint anchors
        the squared bias reduces to the residual-weight form; general anchors
        take the larger of the two corner extremes.
        """
        wabs = self.instance.abs_weights
        if self.anchors is None:
            delta = self.instance.interval.delta()
            residual = sum(wabs[i] * (1 - self.x[i]) for i in range(self.n))
            return (delta / 2 * residual) ** 2 + 2 * self.sigma**2
        lo_end = self.instance.interval.r_min
        hi_end = self.instance.interval.r_max
        w = self.instance.weights
        highest = lowest = centered = w[0] * 0
        for i in range(self.n):
            gamma = w[i] * (1 - self.x[i])
            highest += gamma * (hi_end if gamma >= 0 else lo_end)
            lowest += gamma * (lo_end if gamma >= 0 else hi_end)
            centered += gamma * self.anchors[i]
        bias = max(abs(highest - centered), abs(lowest - centered))
        return bias**2 + 2 * self.sigma**2


@dataclass(frozen=True)
class Dclef:
    """Discrete canonical Laplace estimator: binary participation, derived noise.

    The noise scale is ``delta`` times the residual weight of unselected
    individuals. When everyone participates the scale is zero and every
    privacy loss is the ``inf`` sentinel; such an estimator is representable
    but never sampled by the mechanism.
    """

    instance: AuctionInstance
    x: tuple

    def __post_init__(self) -> None:
        x = tuple(self.x)
        if len(x) != self.instance.n:
            raise DimensionMismatch(
                f"{len(x)} participation flags for {self.instance.n} individuals"
            )
        for i, xi in enumerate(x):
            if xi not in (0, 1):  # checked before int() could truncate it
                raise ValidationError(f"participation flag not binary at index {i}")
        object.__setattr__(self, "x", tuple(map(int, x)))

    @classmethod
    def from_selected(cls, instance: AuctionInstance, selected: Iterable[int]) -> "Dclef":
        return cls(instance, tuple(map(set(selected).__contains__, range(instance.n))))

    @property
    def n(self) -> int:
        return self.instance.n

    @cached_property
    def residual_weight(self):
        return sum(compress(self.instance.abs_weights, map(not_, self.x)))

    @cached_property
    def sigma(self):
        return self.instance.interval.delta() * self.residual_weight

    def epsilons(self) -> tuple:
        """Canonical losses ``|w_i| x_i / residual_weight`` (the delta cancels)."""
        wabs = self.instance.abs_weights
        resid = self.residual_weight
        if resid == 0:
            return tuple(math.inf if xi else 0.0 for xi in self.x)
        return tuple(map(truediv, map(mul, wabs, self.x), repeat(resid)))

    def distortion(self):
        """Closed form ``(9/4) delta^2 (W - selected weight)^2``."""
        base = self.instance.interval.delta() * self.residual_weight
        return 9 * base * base / 4

    def deterministic_part(self, database) -> float:
        """The float products of `Lef.deterministic_part` with float ``x``, without a `Lef`."""
        _check_finite(self.sigma, "noise scale")  # as the Lef would
        entries = _entries_for(self, database)
        x = list(map(float, self.x))
        anchors = repeat(self.instance.interval.midpoint())
        return _release_mean(self.instance.weights, entries, x, anchors)

    def to_json(self, rows: Sequence[int] | None = None, n: int | None = None) -> dict:
        """Report by input row, as `MechanismOutcome.to_json`; an unbounded loss reads "inf"."""
        rows = range(self.n) if rows is None else rows
        n = len(rows) if n is None else n
        return {
            "x": scatter(self.x, rows, n, 0),
            "sigma": _json_float(self.sigma),
            "epsilons": scatter(_json_floats(self.epsilons()), rows, n),
            "distortion": _json_float(self.distortion()),
        }


def evaluate(lef: Lef | Dclef, database: Sequence, seed: int) -> float:
    """Sample the estimator on a database; deterministic for a fixed, nonnegative seed.

    The database is any sequence, its entries checked as `parse_database` checks
    them; the noise is one inverse-CDF Laplace draw from ``default_rng(seed)``.
    """
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    sigma = _double(lef.sigma)  # noise is drawn on doubles: beyond their range it is not finite
    _check_finite(sigma, "noise scale")
    mean = lef.deterministic_part(database)
    return mean + laplace_inverse_cdf(np.random.default_rng(seed).random(), sigma)


@dataclass(frozen=True)
class PrivacyIndexResult:
    """Largest total weight whose members' privacy losses sum below 1/2."""

    beta: float
    witness: tuple[int, ...]
    method: str


def _loss_terms(estimator: Lef | Dclef) -> tuple[tuple, object]:
    """Losses as a shared-denominator pair: eps_i = nums[i] / den.

    For a discrete canonical estimator the denominator is the residual weight
    and the numerators are the selected weight magnitudes, so every
    feasibility test below is division-free: exact on integer-grid doubles
    and identical to rational arithmetic. A general estimator keeps its
    computed losses with denominator one (the documented double semantics);
    a zero denominator (full participation) makes every nonzero loss
    unbounded and no nonempty subset feasible.
    """
    wabs = estimator.instance.abs_weights
    if isinstance(estimator, Dclef):
        nums = tuple(wabs[i] * estimator.x[i] for i in range(estimator.n))
        return nums, estimator.residual_weight
    return estimator.epsilons(), 1.0


def _heaviest_fitting(profits: Sequence, sizes: Sequence, fits) -> tuple:
    """Exact search for the subset of largest total profit whose size sum ``fits``.

    Depth-first in index order, include before exclude, with both sums
    accumulated left to right; a branch is pruned when even all the remaining
    profit cannot beat the incumbent, and only a strict improvement at a leaf
    replaces it, so ties resolve to the lexicographically smallest witness.
    The remaining profit is summed right to left and can round below a leaf
    it covers, so float profits keep ``n * 2^-52`` of their total as slack
    (int and `Fraction` profits sum exactly). Returns ``(profit, witness)``.
    """
    n = len(profits)
    zero = profits[0] * 0
    exact = all(isinstance(p, (int, Fraction)) for p in profits)
    slack = zero if exact else n * 2.0**-52 * sum(profits)
    suffix = [slack] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + profits[i]

    best_value = zero
    best_witness: tuple[int, ...] = ()

    def search(i: int, size_sum, value, chosen: list[int]) -> None:
        nonlocal best_value, best_witness
        if value + suffix[i] <= best_value:
            return
        if i == n:
            if value > best_value:
                best_value = value
                best_witness = tuple(chosen)
            return
        if fits(size_sum + sizes[i]):
            chosen.append(i)
            search(i + 1, size_sum + sizes[i], value + profits[i], chosen)
            chosen.pop()
        search(i + 1, size_sum, value, chosen)

    search(0, zero, zero, [])
    return best_value, best_witness


def privacy_index_exact(estimator: Dclef | Lef) -> PrivacyIndexResult:
    """Exact privacy index by exhaustive subset search (strict sum < 1/2), n <= 25.

    The losses' numerators are the sizes and ``2 * sum < denominator`` the
    feasibility test, so an unbounded loss never fits. Ties resolve to the
    lexicographically smallest witness.
    """
    wabs = estimator.instance.abs_weights
    if len(wabs) > EXACT_INDEX_LIMIT:
        raise InstanceTooLarge(f"exhaustive privacy index limited to n <= {EXACT_INDEX_LIMIT}")
    nums, den = _loss_terms(estimator)
    beta, witness = _heaviest_fitting(wabs, nums, lambda size: 2 * size < den)
    return PrivacyIndexResult(beta, witness, "exact")


def privacy_index_greedy(estimator: Dclef | Lef) -> PrivacyIndexResult:
    """Knapsack-style greedy lower bound; twice its value dominates the exact index.

    Individuals are ranked by loss per unit weight; the result is either the
    longest cheap prefix or the single heaviest individual with loss below
    1/2, whichever weighs more.
    """
    wabs = estimator.instance.abs_weights
    nums, den = _loss_terms(estimator)
    n = len(wabs)
    order = sorted(range(n), key=lambda i: (nums[i] / wabs[i], i))

    prefix: list[int] = []
    prefix_weight = wabs[0] * 0
    for idx in order:
        new_weight = prefix_weight + wabs[idx]
        # loss ratio < 1 / (2 * prefix weight), cross-multiplied (inf-safe)
        if nums[idx] * (2 * new_weight) < wabs[idx] * den:
            prefix.append(idx)
            prefix_weight = new_weight
        else:
            break

    heavy = None
    for i in range(n):
        if 2 * nums[i] < den and (heavy is None or wabs[i] > wabs[heavy]):
            heavy = i

    if heavy is None:
        return PrivacyIndexResult(0.0, (), "greedy")
    if prefix_weight >= wabs[heavy]:
        return PrivacyIndexResult(prefix_weight, tuple(sorted(prefix)), "greedy")
    return PrivacyIndexResult(wabs[heavy], (heavy,), "greedy")


def _best_subset_within(wabs: Sequence, cap) -> tuple[int, ...]:
    """Heavy index subset whose total weight stays at or below ``cap``.

    Up to ``EXACT_INDEX_LIMIT`` items the exact search gives the heaviest
    subset as index-order sums weigh it, also on rounded weights, and the
    lexicographically smallest on ties. Beyond it, first-fit-decreasing takes
    the items by descending weight, ties by index, each one whose addition
    keeps the running total within ``cap``; up to rounding, its gap to ``cap``
    is below the smallest weight it rejects. Either way the total as
    `Dclef.residual_weight` sums it, in index order, is within ``cap``.
    """
    if len(wabs) <= EXACT_INDEX_LIMIT:
        return _heaviest_fitting(wabs, wabs, lambda size: size <= cap)[1]
    chosen = []
    total = wabs[0] * 0
    for i in sorted(range(len(wabs)), key=wabs.__getitem__, reverse=True):
        if total + wabs[i] <= cap:
            total += wabs[i]
            chosen.append(i)
    # the running total adds in weight order; only when it ends within rounding
    # of cap can the index-order sum exceed cap, and each drop widens the gap
    while sum(map(wabs.__getitem__, sorted(chosen))) > cap:
        chosen.pop()
    return tuple(sorted(chosen))


def tradeoff_construct(instance: AuctionInstance, alpha: float) -> Dclef:
    """Estimator that shields a heavy group within an ``alpha`` share.

    Hides (``x = 0``) an index subset whose weight stays at or below
    ``alpha * W`` and exposes the rest. For n <= 25 the subset is the
    heaviest one, found by exact search, the lexicographically smallest on
    ties; beyond, it is the first-fit-decreasing packing, whose gap to
    ``alpha * W`` is, up to rounding, below the smallest weight it leaves
    exposed. Its
    distortion is at most ``(9/4) (alpha W delta)^2`` by construction.
    """
    if not 0 < alpha < 1:
        raise ParameterOutOfRange("alpha must lie strictly between 0 and 1")
    shielded = _best_subset_within(instance.abs_weights, alpha * instance.total_weight)
    return Dclef.from_selected(instance, _complement(shielded, instance.n))


@dataclass(frozen=True)
class TradeoffReport:
    """Outcome of the low-distortion-implies-low-privacy-index check."""

    alpha: float
    distortion: float
    distortion_bound: float
    premise_holds: bool
    beta: float
    beta_bound: float
    beta_method: str
    status: str  # "holds" | "vacuous" | "violated"

    @property
    def ok(self) -> bool:
        return self.status != "violated"

    def to_json(self) -> dict:
        return {
            "alpha": _json_float(self.alpha),
            "distortion": _json_float(self.distortion),
            "distortion_bound": _json_float(self.distortion_bound),
            "premise_holds": self.premise_holds,
            "beta": _json_float(self.beta),
            "beta_bound": _json_float(self.beta_bound),
            "beta_method": self.beta_method,
            "status": self.status,
        }


def check_tradeoff_bound(dclef: Dclef, alpha: float) -> TradeoffReport:
    """Verify: distortion <= (alpha W delta)^2 / 48 implies index <= 2 alpha W.

    A "violated" status on any instance is a build-stopping bug. For instances
    beyond the exhaustive bound the privacy index is replaced by twice the
    greedy value, which dominates it.
    """
    if not 0 < alpha < 1:
        raise ParameterOutOfRange("alpha must lie strictly between 0 and 1")
    instance = dclef.instance
    total = instance.total_weight
    delta = instance.interval.delta()
    dist = float(dclef.distortion())
    bound = (alpha * total * delta) ** 2 / 48
    premise = dist <= bound

    if instance.n <= EXACT_INDEX_LIMIT:
        beta = privacy_index_exact(dclef).beta
        method = "exact"
    else:
        beta = 2 * privacy_index_greedy(dclef).beta
        method = "greedy-upper-bound"

    beta_bound = 2 * alpha * total
    if not premise:
        status = "vacuous"
    elif beta <= beta_bound:
        status = "holds"
    else:
        status = "violated"
    return TradeoffReport(alpha, dist, bound, premise, float(beta), beta_bound, method, status)
