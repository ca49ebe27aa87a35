"""Laplace estimators for linear predictors and their exact privacy accounting.

A `Lef` interpolates each data entry toward the interval midpoint by a factor
``x_i`` in [0, 1] and adds Laplace noise of scale ``sigma``. A `Dclef` is the
discrete (binary ``x``) member with the canonical noise scale tied to the
residual weight, which is the only family the auction mechanism ever releases.

All operations are pure given their inputs and an explicit seed; the random
generator is always passed in, never global.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    ParameterOutOfRange,
    UnboundedPrivacyLoss,
    ValidationError,
)
from .instances import AuctionInstance, Database

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


def _draw_noise(sigma: float, rng) -> float:
    """One Laplace draw via inverse CDF on a seeded 64-bit generator."""
    if sigma == 0:
        return 0.0
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return laplace_inverse_cdf(float(rng.random()), float(sigma))


def _entries_for(estimator, database) -> tuple:
    entries = database.entries if isinstance(database, Database) else tuple(database)
    if len(entries) != estimator.n:
        raise DimensionMismatch(
            f"database has {len(entries)} entries, estimator expects {estimator.n}"
        )
    interval = estimator.instance.interval
    for i, d in enumerate(entries):
        if not interval.contains(d):
            raise ValidationError(f"database entry at index {i} lies outside the interval")
    return entries


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
            if not 0 <= xi <= 1:
                raise ValidationError(f"interpolation parameter out of [0, 1] at index {i}")
        if self.sigma < 0:
            raise ValidationError("noise scale must be nonnegative")
        if self.anchors is not None:
            object.__setattr__(self, "anchors", tuple(self.anchors))
            if len(self.anchors) != self.instance.n:
                raise DimensionMismatch(
                    f"{len(self.anchors)} anchors for {self.instance.n} individuals"
                )
            for i, a in enumerate(self.anchors):
                if isinstance(a, float) and not math.isfinite(a):
                    raise ValidationError(f"anchor not finite at index {i}")

    @property
    def n(self) -> int:
        return self.instance.n

    def _anchor(self, i: int):
        return self.instance.interval.midpoint() if self.anchors is None else self.anchors[i]

    def deterministic_part(self, database) -> float:
        """Noise-free value: data term plus anchor interpolation term."""
        entries = _entries_for(self, database)
        w = self.instance.weights
        data_term = sum(w[i] * entries[i] * self.x[i] for i in range(self.n))
        rest_term = sum(w[i] * self._anchor(i) * (1 - self.x[i]) for i in range(self.n))
        return data_term + rest_term

    def epsilons(self, strict: bool = False) -> tuple:
        """Per-individual privacy losses ``delta * |w_i| * x_i / sigma``.

        With ``sigma == 0`` and some ``x_i > 0`` the loss is unbounded: the
        affected entries get an explicit ``math.inf`` sentinel (never NaN),
        or the condition raises when ``strict`` is set.
        """
        delta = self.instance.interval.delta()
        wabs = self.instance.abs_weights
        if self.sigma == 0:
            if any(xi > 0 for xi in self.x):
                if strict:
                    raise UnboundedPrivacyLoss("zero noise scale with exposed data entries")
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
        object.__setattr__(self, "x", tuple(int(xi) for xi in self.x))
        if len(self.x) != self.instance.n:
            raise DimensionMismatch(
                f"{len(self.x)} participation flags for {self.instance.n} individuals"
            )
        for i, xi in enumerate(self.x):
            if xi not in (0, 1):
                raise ValidationError(f"participation flag not binary at index {i}")

    @classmethod
    def from_selected(cls, instance: AuctionInstance, selected: Iterable[int]) -> "Dclef":
        chosen = set(selected)
        return cls(instance, tuple(1 if i in chosen else 0 for i in range(instance.n)))

    @property
    def n(self) -> int:
        return self.instance.n

    @cached_property
    def selected(self) -> tuple[int, ...]:
        return tuple(i for i, xi in enumerate(self.x) if xi)

    @cached_property
    def residual_weight(self):
        wabs = self.instance.abs_weights
        return sum(wabs[i] for i in range(self.n) if not self.x[i])

    @cached_property
    def sigma(self):
        return self.instance.interval.delta() * self.residual_weight

    @property
    def is_degenerate(self) -> bool:
        return all(self.x)

    def as_lef(self) -> Lef:
        return Lef(self.instance, tuple(float(xi) for xi in self.x), self.sigma)

    def epsilons(self, strict: bool = False) -> tuple:
        """Canonical losses ``|w_i| x_i / residual_weight`` (the delta cancels)."""
        wabs = self.instance.abs_weights
        resid = self.residual_weight
        if resid == 0:
            if strict:
                raise UnboundedPrivacyLoss("full participation leaves zero noise scale")
            return tuple(math.inf if xi else 0.0 for xi in self.x)
        return tuple(wabs[i] * self.x[i] / resid for i in range(self.n))

    def distortion(self):
        """Closed form ``(9/4) delta^2 (W - selected weight)^2``."""
        base = self.instance.interval.delta() * self.residual_weight
        return 9 * base * base / 4

    def deterministic_part(self, database) -> float:
        return self.as_lef().deterministic_part(database)

    def to_json(self) -> dict:
        eps = self.epsilons()
        return {
            "x": list(self.x),
            "sigma": float(self.sigma),
            "epsilons": ["inf" if math.isinf(e) else float(e) for e in eps],
            "distortion": float(self.distortion()),
        }


def evaluate(lef: Lef | Dclef, database, rng) -> float:
    """Sample the estimator on a database; deterministic for a fixed seed."""
    if isinstance(lef, Dclef):
        lef = lef.as_lef()
    return lef.deterministic_part(database) + _draw_noise(lef.sigma, rng)


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


def privacy_index_exact(estimator: Dclef | Lef) -> PrivacyIndexResult:
    """Exact privacy index by exhaustive subset search (strict sum < 1/2).

    Depth-first with include-before-exclude order and strict-improvement
    updates, so ties resolve to the lexicographically smallest witness.
    """
    wabs = estimator.instance.abs_weights
    nums, den = _loss_terms(estimator)
    n = len(wabs)
    if n > EXACT_INDEX_LIMIT:
        raise InstanceTooLarge(f"exhaustive privacy index limited to n <= {EXACT_INDEX_LIMIT}")
    suffix = [wabs[0] * 0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + wabs[i]

    best_beta = wabs[0] * 0
    best_witness: tuple[int, ...] = ()

    def search(i: int, loss_sum, weight_sum, chosen: list[int]) -> None:
        nonlocal best_beta, best_witness
        if weight_sum + suffix[i] <= best_beta:
            return
        if i == n:
            if weight_sum > best_beta:
                best_beta = weight_sum
                best_witness = tuple(chosen)
            return
        finite = not (isinstance(nums[i], float) and math.isinf(nums[i]))
        if finite and 2 * (loss_sum + nums[i]) < den:
            chosen.append(i)
            search(i + 1, loss_sum + nums[i], weight_sum + wabs[i], chosen)
            chosen.pop()
        search(i + 1, loss_sum, weight_sum, chosen)

    search(0, wabs[0] * 0, wabs[0] * 0, [])
    return PrivacyIndexResult(best_beta, best_witness, "exact")


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


# --- subset-sum machinery for the low-distortion construction --------------

def _best_subset_within_exact(wabs: Sequence, cap) -> tuple[int, ...]:
    """Max-total-weight subset with total <= cap; lexicographically smallest on ties."""
    n = len(wabs)
    suffix = [wabs[0] * 0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + wabs[i]

    best_sum = None
    best_set: tuple[int, ...] = ()

    def search(i: int, cur, chosen: list[int]) -> None:
        nonlocal best_sum, best_set
        reach = cur + suffix[i]
        if reach <= cap:
            # taking everything left is both maximal and the lexicographically
            # smallest completion of this branch
            if best_sum is None or reach > best_sum:
                best_sum = reach
                best_set = tuple(chosen) + tuple(range(i, n))
            return
        if best_sum is not None and reach <= best_sum:
            return
        if i == n:
            if best_sum is None or cur > best_sum:
                best_sum = cur
                best_set = tuple(chosen)
            return
        if cur + wabs[i] <= cap:
            chosen.append(i)
            search(i + 1, cur + wabs[i], chosen)
            chosen.pop()
        search(i + 1, cur, chosen)

    search(0, wabs[0] * 0, [])
    return best_set


def _best_subset_within_dp(wabs: Sequence[float], cap: float, total: float) -> tuple[int, ...]:
    """Discretized subset sum for large n (resolution total * 1e-6).

    Item weights round up and the capacity rounds down, so the returned subset
    is always feasible for the true capacity, at the cost of resolution-scale
    conservatism. Reconstruction prefers excluding items, deterministically.
    """
    resolution = total * 1e-6
    quantized = [max(1, math.ceil(w / resolution)) for w in wabs]
    cap_q = math.floor(cap / resolution)
    if cap_q <= 0:
        return ()
    mask = (1 << (cap_q + 1)) - 1

    block = 64
    checkpoints = [1]  # reachable-sum bitset before each block
    bits = 1
    for start in range(0, len(quantized), block):
        for q in quantized[start : start + block]:
            bits = (bits | (bits << q)) & mask
        checkpoints.append(bits)

    target = bits.bit_length() - 1
    chosen: list[int] = []
    n_blocks = (len(quantized) + block - 1) // block
    for b in range(n_blocks - 1, -1, -1):
        start = b * block
        states = [checkpoints[b]]
        for q in quantized[start : start + block]:
            states.append((states[-1] | (states[-1] << q)) & mask)
        for j in range(len(states) - 2, -1, -1):
            item = start + j
            if (states[j] >> target) & 1:
                continue  # reachable without this item
            chosen.append(item)
            target -= quantized[item]
    chosen.reverse()
    return tuple(chosen)


def _best_subset_within(wabs: Sequence, cap) -> tuple[int, ...]:
    if len(wabs) <= EXACT_INDEX_LIMIT:
        return _best_subset_within_exact(wabs, cap)
    return _best_subset_within_dp(
        [float(w) for w in wabs], float(cap), float(sum(wabs))
    )


def tradeoff_construct(instance: AuctionInstance, alpha: float) -> Dclef:
    """Estimator that shields a maximal-weight group within an ``alpha`` share.

    Finds the heaviest index subset whose weight stays at or below
    ``alpha * W``, hides exactly those entries (``x = 0``) and exposes the
    rest. Its distortion is at most ``(9/4) (alpha W delta)^2`` by
    construction.
    """
    if not 0 < alpha < 1:
        raise ParameterOutOfRange("alpha must lie strictly between 0 and 1")
    cap = alpha * instance.total_weight
    shielded = _best_subset_within(instance.abs_weights, cap)
    hidden = set(shielded)
    x = tuple(0 if i in hidden else 1 for i in range(instance.n))
    return Dclef(instance, x)


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
            "alpha": self.alpha,
            "distortion": self.distortion,
            "distortion_bound": self.distortion_bound,
            "premise_holds": self.premise_holds,
            "beta": self.beta,
            "beta_bound": self.beta_bound,
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
