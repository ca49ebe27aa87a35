"""Truthful, individually rational, budget-feasible estimator auction.

Given a canonical (cost-sorted), affordability-filtered instance, the auction
either pays the longest affordable prefix of cheap individuals in proportion
to their weight magnitudes, or pays only the single heaviest individual when
that individual outweighs the rest of the prefix. The rule functions
`prefix_length`, `star_wins` and `topk_rate` make those three decisions on
plain values; `decide` applies any three rules to plain canonical
sequences, `run_rules` builds an outcome from its decisions, and
`fair_inner_product` runs the honest rules.

The rules compare; their callers divide. Every threshold comparison is
cross-multiplied, so runs on small-integer data are exact in double
precision and agree bit-for-bit with the rational-arithmetic mode, and
`topk_rate` and `decide` return their rate and single-winner payment as
``(numerator, denominator)`` pairs that `run_rules` divides once. Each
comparison is homogeneous: money (budget, costs) and weight appear in equal
degree on both sides, so scaling all money by one positive factor and all
weights by another changes no decision. That lets `verify.deviator_kernel`
run `decide` on exact integers. Outcomes are indexed by canonical position;
``MechanismOutcome.to_json`` reports them by input row through the row map
of `instances.prepare`.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .errors import EmptyInstance, ValidationError
from .estimator import Dclef
from .instances import AuctionInstance, _json_float, _json_floats, _require_canonical, scatter

__all__ = [
    "MechanismOutcome",
    "fair_inner_product",
]


@dataclass(frozen=True)
class MechanismOutcome:
    """Selected set, payments, released estimator, and branch diagnostics.

    Indices are positions in the canonical instance the mechanism ran on;
    ``to_json`` can report them by input row instead.
    ``k`` is the affordable-prefix length, ``i_star`` the heaviest individual,
    ``r`` the payment-threshold individual of the single-winner branch.
    """

    selected: tuple[int, ...]
    payments: tuple
    dclef: Dclef
    k: int
    i_star: int
    branch: str  # "star" | "topk"
    r: int | None
    p_hat: float | None

    @cached_property
    def objective(self):
        return self.dclef.instance.weight_of(self.selected)

    def to_json(self, rows: Sequence[int] | None = None, n: int | None = None) -> dict:
        """Report by input row: position ``j`` is row ``rows[j]`` of ``n``.

        Rows outside ``rows`` (filtered individuals) read zero; the default
        is the identity map.
        """
        rows = range(len(self.payments)) if rows is None else rows
        n = len(rows) if n is None else n
        return {
            "O": sorted(rows[i] for i in self.selected),
            "payments": scatter(_json_floats(self.payments), rows, n),
            "k": self.k,
            "i_star": rows[self.i_star],
            "branch": self.branch,
            "r": None if self.r is None else rows[self.r],
            "p_hat": None if self.p_hat is None else _json_float(self.p_hat),
            "objective": _json_float(self.objective),
            "dclef": self.dclef.to_json(rows, n),
        }


def prefix_length(budget, total, costs: Sequence, prefix: Sequence) -> int:
    """Prefix rule: the largest ``t < n`` with ``B * (W - w([t])) >= v_t * w([t])``.

    The scan stops at the first failure. The final position never qualifies
    (its residual weight is zero, making the threshold unbeatable), so a
    successor cost always exists for the prefix payment rule.
    """
    n = len(costs)
    for t in range(1, n):
        if not budget * (total - prefix[t]) >= costs[t - 1] * prefix[t]:
            return t - 1
    return n - 1


def star_wins(w_star, rest) -> bool:
    """Star rule: the heaviest individual strictly outweighs the rest of the prefix."""
    return w_star > rest


def topk_rate(budget, total, costs: Sequence, prefix: Sequence, k: int):
    """Rate rule: ``B / w([k])``, capped by the successor's ``v_{k+1} / (W - w([k]))``.

    Returns the chosen rate undivided, as the pair ``(B, w([k]))`` or
    ``(v_{k+1}, W - w([k]))``.
    """
    cw, residual = prefix[k], total - prefix[k]
    if k == len(costs) or budget * residual <= costs[k] * cw:
        return budget, cw
    return costs[k], residual


def decide(wabs: Sequence, costs: Sequence, ids: Sequence[int], budget, total, rules):
    """The auction's decisions on canonical plain sequences.

    ``wabs`` and ``costs`` are the weight magnitudes and unit costs in
    canonical order, ``ids`` the tie-break labels, ``total`` their weight sum
    in that order, and ``rules`` a ``(prefix_rule, star_rule, rate_rule)``
    triple called like `prefix_length`, `star_wins` and `topk_rate`.
    Returns ``(k, i_star, r, p_hat, rate)``: the single-winner branch fired
    when ``rate`` is None, and ``r`` and ``p_hat`` are None otherwise.
    Nothing is divided: ``rate`` is the rate rule's ``(numerator,
    denominator)`` pair, and ``p_hat`` is the pair ``(w* * v_r, W - w*)``, or
    the budget itself when ``r`` is None. The decisions only compare, so they
    read the same on float, `Fraction` and integer input.
    """
    prefix_rule, star_rule, rate_rule = rules
    n = len(wabs)
    zero = wabs[0] * 0
    prefix = list(accumulate(wabs, initial=zero))  # prefix[t] = w([t])

    k = prefix_rule(budget, total, costs, prefix)
    if k == 0:
        raise EmptyInstance(
            "no affordable prefix exists; the instance was not affordability-filtered"
        )

    i_star = 0
    for i in range(1, n):
        if wabs[i] > wabs[i_star] or (wabs[i] == wabs[i_star] and ids[i] < ids[i_star]):
            i_star = i
    w_star = wabs[i_star]

    if not star_rule(w_star, prefix[k] - (w_star if i_star < k else zero)):
        return k, i_star, None, None, rate_rule(budget, total, costs, prefix, k)
    r = None
    for t in range(1, n + 1):
        if t - 1 == i_star:
            continue
        others = prefix[t] - (w_star if i_star < t else zero)
        if others >= w_star and budget * (total - others) >= costs[t - 1] * others:
            r = t - 1
            break
    p_hat = budget if r is None else (w_star * costs[r], total - w_star)
    return k, i_star, r, p_hat, None


def check_single_winner(k: int, i_star: int, r) -> None:
    """Raise AssertionError, also under ``python -O``, on an inconsistent threshold.

    A threshold ``r`` cannot exist when ``i_star > k`` (a heavy individual
    beyond the prefix leaves no candidate) or ``r <= i_star`` (any candidate
    is costlier).
    """
    if r is not None and not (i_star <= k and r > i_star):
        raise AssertionError(
            f"single-winner threshold r={r} inconsistent with i_star={i_star}, k={k}"
        )


def run_rules(instance: AuctionInstance, identity, prefix_rule, star_rule, rate_rule):
    """Outcome of the auction whose three decisions are made by the given rules.

    The rules are called like `prefix_length`, `star_wins` and `topk_rate`.
    The rate and the single-winner payment are divided here, once each.
    """
    n = instance.n
    _require_canonical(instance)
    ids = range(n) if identity is None else identity
    if len(ids) != n:
        raise ValidationError("identity labels do not match the instance size")
    wabs = instance.abs_weights
    k, i_star, r, p_hat, rate = decide(
        wabs, instance.unit_costs, ids, instance.budget, instance.total_weight,
        (prefix_rule, star_rule, rate_rule),
    )
    payments = [wabs[0] * 0] * n
    if rate is None:
        if r is not None:
            p_hat = p_hat[0] / p_hat[1]
        payments[i_star] = p_hat
        selected = (i_star,)
        branch = "star"
    else:
        selected = tuple(range(k))
        rate = rate[0] / rate[1]
        for i in selected:
            payments[i] = wabs[i] * rate
        branch = "topk"
    return MechanismOutcome(
        selected, tuple(payments), Dclef.from_selected(instance, selected),
        k, i_star, branch, r, p_hat,
    )


def fair_inner_product(
    instance: AuctionInstance, *, identity: Sequence[int] | None = None
) -> MechanismOutcome:
    """Run the auction's honest rules on a canonical, affordability-filtered instance.

    ``identity`` labels each canonical position with a report-independent
    index, normally the input row from `instances.prepare` (default: the
    position itself). The heaviest-individual tie is broken by the smallest
    label, never by the cost-sorted position: a report-dependent
    tie-break would let one of two equally heavy individuals underbid to
    capture the single-winner payment, breaking truthfulness.

    Raises AssertionError through `check_single_winner`, also under
    ``python -O``.
    """
    outcome = run_rules(instance, identity, prefix_length, star_wins, topk_rate)
    check_single_winner(outcome.k, outcome.i_star, outcome.r)
    return outcome

