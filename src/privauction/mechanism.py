"""Truthful, individually rational, budget-feasible estimator auction.

Given a canonical (cost-sorted), affordability-filtered instance, the auction
either pays the longest affordable prefix of cheap individuals in proportion
to their weight magnitudes, or pays only the single heaviest individual when
that individual outweighs the rest of the prefix. Threshold comparisons are
evaluated in cross-multiplied form, with no divisions, so runs on
small-integer data are exact in double precision and agree bit-for-bit with
the rational-arithmetic mode. Outcomes are indexed by canonical position;
``MechanismOutcome.to_json`` reports them by input row through the row map
of `instances.prepare`.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import EmptyInstance, NonUniformWeights, NotCanonical, ValidationError
from .estimator import Dclef
from .instances import AuctionInstance, scatter

__all__ = [
    "MechanismOutcome",
    "fair_inner_product",
    "ghosh_roth_special_case",
    "MUTATIONS",
    "parse_mutation",
]

MUTATIONS = ("payment-scale", "k-include-last", "star-nonstrict", "no-threshold-cap")


def parse_mutation(spec: str | None) -> tuple[str | None, float | None]:
    """Parse a fault-injection spec like ``payment-scale:0.9`` (testing only)."""
    if spec is None:
        return None, None
    name, _, arg = spec.partition(":")
    if name not in MUTATIONS:
        raise ValidationError(f"unknown mutation {name!r}; known: {', '.join(MUTATIONS)}")
    if name == "payment-scale":
        if not arg:
            raise ValidationError("payment-scale mutation needs a factor, e.g. payment-scale:0.9")
        return name, float(arg)
    return name, None


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
            "payments": scatter([float(p) for p in self.payments], rows, n),
            "k": self.k,
            "i_star": rows[self.i_star],
            "branch": self.branch,
            "r": None if self.r is None else rows[self.r],
            "p_hat": None if self.p_hat is None else float(self.p_hat),
            "objective": float(self.objective),
            "dclef": {
                "x": scatter(self.dclef.x, rows, n, 0),
                "sigma": float(self.dclef.sigma),
                "epsilons": scatter([float(e) for e in self.dclef.epsilons()], rows, n),
                "distortion": float(self.dclef.distortion()),
            },
        }


def fair_inner_product(
    instance: AuctionInstance,
    *,
    identity: Sequence[int] | None = None,
    mutation: str | None = None,
) -> MechanismOutcome:
    """Run the auction on a canonical, affordability-filtered instance.

    The prefix length ``k`` is the largest ``t`` with
    ``B * (W - w([t])) >= v_t * w([t])``; the final position never qualifies
    (its residual weight is zero, making the threshold unbeatable), so a
    successor cost always exists for the prefix payment rule. Filtering
    guarantees ``k >= 1``.

    ``identity`` labels each canonical position with a report-independent
    index, normally the input row from `instances.prepare` (default: the
    position itself). The heaviest-individual tie is broken by the smallest
    label, never by the cost-sorted position: a report-dependent
    tie-break would let one of two equally heavy individuals underbid to
    capture the single-winner payment, breaking truthfulness.

    The ``mutation`` argument deliberately mis-implements one rule for the
    verification harness's fault-injection tests; production callers leave it
    unset.
    """
    kind, factor = parse_mutation(mutation)
    n = instance.n
    costs = instance.unit_costs
    if not instance.is_canonical:
        raise NotCanonical("unit costs must be sorted; canonicalize the instance first")
    ids = range(n) if identity is None else identity
    if len(ids) != n:
        raise ValidationError("identity labels do not match the instance size")
    wabs = instance.abs_weights
    total = instance.total_weight
    budget = instance.budget

    prefix = [wabs[0] * 0] * (n + 1)  # prefix[t] = w([t])
    for t in range(1, n + 1):
        prefix[t] = prefix[t - 1] + wabs[t - 1]

    k = 0
    last = n if kind == "k-include-last" else n - 1
    for t in range(1, last + 1):
        if kind == "k-include-last" and t == n:
            qualifies = True  # fault injection: zero residual treated as affordable
        else:
            qualifies = budget * (total - prefix[t]) >= costs[t - 1] * prefix[t]
        if qualifies:
            k = t
        else:
            break
    if k == 0:
        raise EmptyInstance(
            "no affordable prefix exists; the instance was not affordability-filtered"
        )

    i_star = 0
    for i in range(1, n):
        if wabs[i] > wabs[i_star] or (wabs[i] == wabs[i_star] and ids[i] < ids[i_star]):
            i_star = i
    w_star = wabs[i_star]
    prefix_excl_star = prefix[k] - (w_star if i_star < k else wabs[0] * 0)

    if kind == "star-nonstrict":
        star_branch = w_star >= prefix_excl_star
    else:
        star_branch = w_star > prefix_excl_star

    payments = [wabs[0] * 0] * n
    if star_branch:
        r = None
        for t in range(1, n + 1):
            if t - 1 == i_star:
                continue
            others = prefix[t] - (w_star if i_star < t else wabs[0] * 0)
            if others >= w_star and budget * (total - others) >= costs[t - 1] * others:
                r = t - 1
                break
        if mutation is None:
            # single-winner sanity: a heavy individual beyond the prefix
            # leaves no threshold candidate, and any candidate is costlier
            assert not (i_star > k and r is not None)
            assert r is None or r > i_star
        p_hat = budget if r is None else w_star * costs[r] / (total - w_star)
        payments[i_star] = p_hat
        selected = (i_star,)
        outcome = MechanismOutcome(
            selected, tuple(payments), Dclef.from_selected(instance, selected),
            k, i_star, "star", r, p_hat,
        )
    else:
        selected = tuple(range(k))
        cw = prefix[k]
        if kind == "no-threshold-cap" or k == n:
            rate = budget / cw
        elif budget * (total - cw) <= costs[k] * cw:
            rate = budget / cw
        else:
            rate = costs[k] / (total - cw)
        for i in selected:
            payments[i] = wabs[i] * rate
        outcome = MechanismOutcome(
            selected, tuple(payments), Dclef.from_selected(instance, selected),
            k, i_star, "topk", None, None,
        )

    if kind == "payment-scale":
        scaled = tuple(p * factor for p in outcome.payments)
        outcome = MechanismOutcome(
            outcome.selected, scaled, outcome.dclef, outcome.k,
            outcome.i_star, outcome.branch, outcome.r,
            None if outcome.p_hat is None else outcome.p_hat * factor,
        )
    return outcome


def ghosh_roth_special_case(
    instance: AuctionInstance, *, identity: Sequence[int] | None = None
) -> MechanismOutcome:
    """Uniform-weight run; the selected set always equals the affordable prefix.

    With equal magnitudes the single-winner branch can fire only at ``k = 1``
    with the designated individual in first position, where the selected sets
    coincide; the payment rule that actually fired is visible in ``branch``.
    """
    if not instance.has_uniform_weights:
        raise NonUniformWeights("all weight magnitudes must be equal")
    outcome = fair_inner_product(instance, identity=identity)
    assert set(outcome.selected) == set(range(outcome.k))
    return outcome
