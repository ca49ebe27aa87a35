import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from privauction import (
    Dclef,
    DimensionMismatch,
    InstanceTooLarge,
    Lef,
    ParameterOutOfRange,
    ValidationError,
    check_tradeoff_bound,
    evaluate,
    privacy_index_exact,
    privacy_index_greedy,
    tradeoff_construct,
)
from privauction.estimator import _best_subset_within, laplace_inverse_cdf
from privauction.instances import parse_database

from conftest import UNIT, as_lef, make_instance


def enumerate_heaviest(weights, feasible):
    """Plain enumeration: largest total weight, then lexicographically smallest witness."""
    subsets = [
        subset
        for size in range(len(weights) + 1)
        for subset in itertools.combinations(range(len(weights)), size)
        if feasible(subset)
    ]
    best = max(sum(weights[i] for i in subset) for subset in subsets)
    return best, min(s for s in subsets if sum(weights[i] for i in s) == best)


@st.composite
def exact_instances(draw, n_max=10):
    """Fraction weights, or integer-valued doubles, on which every sum is exact."""
    n = draw(st.integers(1, n_max))
    numerators = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    if draw(st.booleans()):
        denominator = draw(st.sampled_from([1, 2, 3, 7]))
        weights = [Fraction(s * m, denominator) for s, m in zip(signs, numerators)]
        return make_instance(weights, [1] * n, 1).to_rational()
    return make_instance([s * m for s, m in zip(signs, numerators)], [1] * n, 1)


def corner_databases(interval, n):
    return itertools.product((interval.r_min, interval.r_max), repeat=n)


def random_dclef(rng, n_max=8, integer=False):
    n = int(rng.integers(2, n_max + 1))
    if integer:
        weights = (rng.integers(1, 10, n) * rng.choice([-1, 1], n)).astype(float)
    else:
        weights = rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n)
    costs = np.sort(rng.uniform(0, 2, n))
    inst = make_instance(weights, costs, 1.0)
    x = tuple(int(b) for b in rng.integers(0, 2, n))
    return Dclef(inst, x)


class TestEvaluate:
    def test_full_participation_is_exact(self):
        inst = make_instance([1, -2, 3], [1, 1, 1], 1, UNIT)
        lef = Lef(inst, (1.0, 1.0, 1.0), 0.0)
        d = (0.5, 1.0, 0.25)
        assert evaluate(lef, d, 0) == 1 * 0.5 + (-2) * 1.0 + 3 * 0.25

    def test_zero_participation_reproducible(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        lef = Lef(inst, (0.0, 0.0), 1.0)
        v1 = evaluate(lef, (0.3, 0.7), 42)
        v2 = evaluate(lef, (0.3, 0.7), 42)
        assert v1 == v2
        # deterministic part is the midpoint mass
        assert lef.deterministic_part((0.3, 0.7)) == 0.5 * 2

    def test_against_independent_inverse_cdf(self):
        # independently coded quantile (scipy) on the same uniform stream
        from privauction.instances import ValueInterval

        inst = make_instance([1, -2], [1, 1], 1, ValueInterval(0.0, 2.0))
        lef = Lef(inst, (1.0, 0.0), 2.0)
        seed = 1234
        got = evaluate(lef, (1.0, 1.0), seed)
        u = np.random.default_rng(seed).random()
        noise = float(stats.laplace.ppf(u, scale=2.0))
        expect = 1 * 1.0 * 1.0 + (-2) * 1.0 * 1.0 + noise
        assert got == pytest.approx(expect, rel=0, abs=1e-12)

    def test_dimension_mismatch(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        lef = Lef(inst, (1.0, 1.0), 1.0)
        with pytest.raises(DimensionMismatch):
            evaluate(lef, (0.5,), 0)

    def test_entries_must_lie_in_interval(self):
        inst = make_instance([1], [1], 1, UNIT)
        lef = Lef(inst, (1.0,), 1.0)
        with pytest.raises(ValidationError):
            evaluate(lef, (1.5,), 0)

    def test_seed_types(self):
        inst = make_instance([1], [1], 1, UNIT)
        lef = Lef(inst, (0.0,), 3.0)
        assert evaluate(lef, (0.5,), 9) == evaluate(lef, (0.5,), np.int64(9))
        for seed in (-9, np.int64(-9)):
            with pytest.raises(ValidationError, match="seed must be nonnegative"):
                evaluate(lef, (0.5,), seed)

    def test_any_sequence(self):
        inst = make_instance([1, -2], [1, 1], 1, UNIT)
        lef = Lef(inst, (1.0, 0.5), 1.0)
        parsed = parse_database({"database": [0.25, 1]}, inst)
        assert parsed == (0.25, 1.0)
        assert evaluate(lef, [0.25, 1.0], 4) == evaluate(lef, parsed, 4)

    def test_negative_seed_rejected(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        for estimator in (Lef(inst, (1.0, 0.0), 1.0), Dclef(inst, (1, 0))):
            for seed in (-1, np.int64(-5)):
                with pytest.raises(ValidationError, match="seed must be nonnegative"):
                    evaluate(estimator, (0.5, 0.5), seed)

    def test_inverse_cdf_symmetry(self):
        assert laplace_inverse_cdf(0.5, 2.0) == 0.0
        assert laplace_inverse_cdf(0.25, 1.0) == -laplace_inverse_cdf(0.75, 1.0)

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-1e6, 1e6).filter(bool), st.booleans(), st.floats(-1.0, 3.0),
            ),
            min_size=1,
            max_size=8,
        ),
        exact=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_dclef_release_matches_its_lef(self, rows, exact):
        # the Dclef sums its products directly; the bits are those of the Lef it stands for
        from privauction import AuctionInstance, ValueInterval

        weights = tuple(w for w, _, _ in rows)
        interval = ValueInterval(-1.0, 3.0)
        inst = AuctionInstance(weights, (1.0,) * len(rows), 1.0, interval)
        if exact:
            inst = inst.to_rational()
        dclef = Dclef(inst, tuple(int(x) for _, x, _ in rows))
        entries = tuple(d for _, _, d in rows)
        got = dclef.deterministic_part(entries)
        expected = as_lef(dclef).deterministic_part(entries)
        assert repr(got) == repr(expected) and type(got) is type(expected)


class TestEpsilons:
    def test_zero_participation_perfect_privacy(self):
        inst = make_instance([1, -1, 2], [1, 1, 1], 1, UNIT)
        lef = Lef(inst, (0.0, 0.0, 0.0), 1.0)
        assert lef.epsilons() == (0.0, 0.0, 0.0)

    def test_canonical_half(self):
        inst = make_instance([1, 1, 1, 1], [1, 1, 1, 1], 1, UNIT)
        d = Dclef(inst, (1, 1, 0, 0))
        assert d.epsilons() == (0.5, 0.5, 0.0, 0.0)

    def test_full_participation_sentinel(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        d = Dclef(inst, (1, 1))
        assert d.epsilons() == (math.inf, math.inf)

    def test_never_nan(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        lef = Lef(inst, (1.0, 0.0), 0.0)
        eps = lef.epsilons()
        assert eps[0] == math.inf and eps[1] == 0.0
        assert not any(math.isnan(e) for e in eps)

    def test_canonical_matches_general_formula(self):
        # canonical shortcut |w|x/resid vs delta |w| x / sigma
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = random_dclef(rng)
            if all(d.x):
                continue
            general = as_lef(d).epsilons()
            canonical = d.epsilons()
            for a, b in zip(general, canonical):
                assert a == pytest.approx(b, rel=1e-12)


class TestDistortion:
    def test_perfect_estimator(self):
        inst = make_instance([1, 2], [1, 1], 1, UNIT)
        lef = Lef(inst, (1.0, 1.0), 0.0)
        assert lef.distortion() == 0.0

    def test_all_hidden_canonical(self):
        inst = make_instance([1, 2], [1, 1], 1, UNIT)
        d = Dclef(inst, (0, 0))
        total = inst.total_weight
        assert d.distortion() == 2.25 * total**2

    def test_half_hidden_value(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        lef = Lef(inst, (1.0, 0.0), 1.0)
        assert lef.distortion() == (0.5 * 1) ** 2 + 2 * 1.0

    def test_canonical_formula_matches_general_to_ulp(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = random_dclef(rng)
            via_closed_form = d.distortion()
            via_general = as_lef(d).distortion()
            assert via_general == pytest.approx(via_closed_form, rel=2e-15)

    def test_monte_carlo_oracle(self):
        # sampled worst corner mean-square error vs the analytic value
        rng = np.random.default_rng(7)
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        lef = Lef(inst, (1.0, 0.0), 1.0)
        samples = rng.laplace(scale=lef.sigma, size=1_000_000)
        mean_noise = samples.mean()
        mean_sq = (samples**2).mean()
        worst = 0.0
        for corners in corner_databases(UNIT, 2):
            centered = lef.deterministic_part(corners) - sum(
                w * d for w, d in zip(inst.weights, corners)
            )
            worst = max(worst, centered**2 - 2 * centered * mean_noise + mean_sq)
        assert worst == pytest.approx(lef.distortion(), rel=0.01)


class TestGeneralAnchors:
    def test_midpoint_anchor_reproduces_default(self):
        inst = make_instance([1, -2], [1, 1], 1, UNIT)
        plain = Lef(inst, (1.0, 0.0), 1.5)
        anchored = Lef(inst, (1.0, 0.0), 1.5, anchors=(0.5, 0.5))
        d = (0.25, 0.75)
        assert anchored.deterministic_part(d) == plain.deterministic_part(d)
        assert anchored.distortion() == pytest.approx(plain.distortion(), rel=1e-12)

    def test_midpoint_minimizes_distortion(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            inst = make_instance(
                rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n), [1] * n, 1, UNIT
            )
            x = tuple(float(v) for v in rng.uniform(0, 1, n))
            sigma = float(rng.uniform(0, 2))
            anchors = tuple(float(a) for a in rng.uniform(0, 1, n))
            general = Lef(inst, x, sigma, anchors=anchors)
            best = Lef(inst, x, sigma)
            assert general.distortion() >= best.distortion() * (1 - 1e-12)

    def test_anchor_distortion_by_enumeration(self):
        # corner-database oracle for the worst squared bias
        inst = make_instance([1, -2, 3], [1, 1, 1], 1, UNIT)
        x = (0.5, 0.0, 0.25)
        anchors = (0.1, 0.9, 0.4)
        lef = Lef(inst, x, 0.7, anchors=anchors)
        worst = 0.0
        for corners in corner_databases(UNIT, 3):
            bias = lef.deterministic_part(corners) - sum(
                w * d for w, d in zip(inst.weights, corners)
            )
            worst = max(worst, bias**2)
        assert lef.distortion() == pytest.approx(worst + 2 * 0.7**2, rel=1e-12)

    def test_anchors_do_not_change_privacy(self):
        inst = make_instance([2, -1], [1, 1], 1, UNIT)
        plain = Lef(inst, (1.0, 0.5), 2.0)
        anchored = Lef(inst, (1.0, 0.5), 2.0, anchors=(0.0, 1.0))
        assert anchored.epsilons() == plain.epsilons()
        # sensitivity: anchor terms cancel in every corner-pair difference
        for i in range(2):
            for d in corner_databases(UNIT, 2):
                for flip in (0.0, 1.0):
                    other = list(d)
                    other[i] = flip
                    gap_anchored = anchored.deterministic_part(d) - anchored.deterministic_part(other)
                    gap_plain = plain.deterministic_part(d) - plain.deterministic_part(other)
                    assert gap_anchored == pytest.approx(gap_plain, abs=1e-12)

    def test_anchor_length_checked(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        with pytest.raises(DimensionMismatch):
            Lef(inst, (1.0, 0.0), 1.0, anchors=(0.5,))


class TestSensitivityAndPrivacy:
    def test_sensitivity_bruteforce_exact(self):
        # exact arithmetic: entries doubled so the midpoint is integral
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = random_dclef(rng, n_max=6, integer=True)
            inst = d.instance
            n = inst.n
            weights2 = [int(2 * w) for w in inst.weights]
            mid2 = 1  # doubled midpoint of the unit interval
            x = d.x

            def det2(entries2):
                return sum(
                    weights2[i] * entries2[i] * x[i] + weights2[i] * mid2 * (1 - x[i])
                    for i in range(n)
                )

            for i in range(n):
                worst = 0
                for corners in itertools.product((0, 2), repeat=n):
                    for flipped in (0, 2):
                        other = list(corners)
                        other[i] = flipped
                        worst = max(worst, abs(det2(corners) - det2(tuple(other))))
                # both terms of det2 carry a factor 4, so worst = 4 * sensitivity
                assert worst / 4 == abs(inst.weights[i]) * x[i] * inst.interval.delta()

    def test_density_ratio_bound_with_equality(self):
        # sup over outputs of the Laplace density ratio equals exp(sensitivity/sigma)
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = random_dclef(rng, n_max=6, integer=True)
            if all(d.x):
                continue
            inst = d.instance
            eps = as_lef(d).epsilons()
            for i in range(inst.n):
                base = [inst.interval.r_min] * inst.n
                hi = list(base)
                hi[i] = inst.interval.r_max
                shift = abs(
                    d.deterministic_part(tuple(hi)) - d.deterministic_part(tuple(base))
                )
                assert math.exp(shift / d.sigma) == math.exp(eps[i])


class TestPrivacyIndexExact:
    def test_perfect_privacy_gives_total_weight(self):
        inst = make_instance([1, 2, 3], [1, 1, 1], 1, UNIT)
        lef = Lef(inst, (0.0, 0.0, 0.0), 1.0)
        res = privacy_index_exact(lef)
        assert res.beta == 6.0
        assert res.witness == (0, 1, 2)

    def test_unbounded_loss_gives_zero(self):
        inst = make_instance([1, 2], [1, 1], 1, UNIT)
        d = Dclef(inst, (1, 1))
        res = privacy_index_exact(d)
        assert res.beta == 0.0
        assert res.witness == ()

    def test_enumeration_example(self):
        # all 8 subsets by hand: {1,2} hits exactly 1/2 and is excluded
        inst = make_instance([3, 2, 2], [1, 1, 1], 1, UNIT)
        lef = Lef(inst, (0.3 / 3, 0.2 / 2, 0.2 / 2), 1.0)
        assert lef.epsilons() == (0.3, 0.2, 0.2)
        res = privacy_index_exact(lef)
        assert res.beta == 4.0
        assert res.witness == (1, 2)

    def test_strictness_at_half(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        lef = Lef(inst, (0.25, 0.25), 1.0)  # eps = 0.25 each, sum exactly 0.5
        res = privacy_index_exact(lef)
        assert res.beta == 1.0

    def test_size_bound(self):
        inst = make_instance([1] * 26, [1] * 26, 1, UNIT)
        with pytest.raises(InstanceTooLarge):
            privacy_index_exact(Dclef(inst, (0,) * 26))

    def test_matches_numpy_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = random_dclef(rng, n_max=10)
            eps = np.asarray(d.epsilons())
            wabs = np.asarray(d.instance.abs_weights)
            n = d.n
            masks = np.arange(1 << n)
            bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
            finite = np.where(np.isinf(eps), 0.0, eps)
            blocked = bits @ np.isinf(eps).astype(float) > 0
            sums = bits @ finite
            feasible = (sums < 0.5) & ~blocked
            expect = float((bits @ wabs)[feasible].max())
            assert privacy_index_exact(d).beta == pytest.approx(expect, rel=1e-12)


class TestSharedSearch:
    """The one exact search against plain enumeration in the search's own arithmetic."""

    @given(inst=exact_instances(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_privacy_index_dclef(self, inst, data):
        x = data.draw(st.lists(st.integers(0, 1), min_size=inst.n, max_size=inst.n))
        wabs = [Fraction(w) for w in inst.abs_weights]
        resid = sum(w for w, xi in zip(wabs, x) if not xi)

        def feasible(subset):
            if resid == 0:  # every loss is unbounded
                return not subset
            return sum(wabs[i] * x[i] / resid for i in subset) < Fraction(1, 2)

        res = privacy_index_exact(Dclef(inst, x))
        assert (res.beta, res.witness) == enumerate_heaviest(wabs, feasible)

    @given(inst=exact_instances(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_privacy_index_lef(self, inst, data):
        rational = isinstance(inst.weights[0], Fraction)
        shares = (0, Fraction(1, 3), Fraction(1, 2), 1) if rational else (0.0, 0.25, 0.5, 1.0)
        scales = (0, Fraction(1, 2), 1, 3) if rational else (0.0, 1.0, 2.0, 8.0)
        x = data.draw(st.lists(st.sampled_from(shares), min_size=inst.n, max_size=inst.n))
        sigma = data.draw(st.sampled_from(scales))
        wabs = [Fraction(w) for w in inst.abs_weights]

        def feasible(subset):
            if sigma == 0:
                return not any(x[i] for i in subset)
            return sum(wabs[i] * Fraction(x[i]) / Fraction(sigma) for i in subset) < Fraction(1, 2)

        res = privacy_index_exact(Lef(inst, tuple(x), sigma))
        assert (res.beta, res.witness) == enumerate_heaviest(wabs, feasible)

    @given(inst=exact_instances(), share=st.fractions(0, 1), alpha=st.floats(0.01, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_within_cap(self, inst, share, alpha):
        wabs = [Fraction(w) for w in inst.abs_weights]
        alpha_cap = alpha * inst.total_weight
        for cap in (share * sum(wabs), alpha_cap):
            shielded = _best_subset_within(inst.abs_weights, cap)
            expect = enumerate_heaviest(wabs, lambda s: sum(wabs[i] for i in s) <= cap)
            assert (sum(wabs[i] for i in shielded), shielded) == expect
        hidden = tuple(i for i, xi in enumerate(tradeoff_construct(inst, alpha).x) if not xi)
        assert hidden == _best_subset_within(inst.abs_weights, alpha_cap)

    @pytest.mark.parametrize(
        "wabs, cap, witness",
        [
            # the heaviest set sums to 12.000000000000002, the next one to 12.0
            ((2.3, 2.7, 2.9, 0.6, 2.1, 2.6, 2.8, 0.8, 2.0, 1.3), 12.06, (0, 1, 2, 7, 8, 9)),
            # (2, 3, 4, 7) sums to the same 3.3000000000000003 and is lexicographically larger
            ((0.8, 0.6, 2.9, 0.1, 0.2, 0.2, 1.8, 0.1), 3.3499999999999996, (0, 1, 6, 7)),
        ],
    )
    def test_within_cap_rounded_witnesses(self, wabs, cap, witness):
        assert _best_subset_within(wabs, cap) == witness

    def test_within_cap_rounded(self):
        # one-decimal weights: sums round, and the index-order float sum is the search's own
        rng = np.random.default_rng(53)
        for _ in range(600):
            n = int(rng.integers(1, 13))
            wabs = tuple(int(m) / 10 for m in rng.integers(1, 31, n))
            cap = float(rng.uniform(0.2, 0.7)) * sum(wabs)
            shielded = _best_subset_within(wabs, cap)
            expect = enumerate_heaviest(wabs, lambda s: sum(wabs[i] for i in s) <= cap)
            assert (sum(wabs[i] for i in shielded), shielded) == expect, (wabs, cap)


class TestPrivacyIndexGreedy:
    def test_all_zero_losses(self):
        inst = make_instance([1, 2, 3], [1, 1, 1], 1, UNIT)
        lef = Lef(inst, (0.0, 0.0, 0.0), 1.0)
        res = privacy_index_greedy(lef)
        assert res.beta == 6.0
        assert res.method == "greedy"

    def test_single_blocked_individual(self):
        inst = make_instance([1], [1], 1, UNIT)
        lef = Lef(inst, (0.5,), 1.0)  # eps exactly 1/2: infeasible alone
        res = privacy_index_greedy(lef)
        assert res.beta == 0.0
        assert res.witness == ()

    def test_two_approximation_on_example(self):
        inst = make_instance([3, 2, 2], [1, 1, 1], 1, UNIT)
        lef = Lef(inst, (0.3 / 3, 0.2 / 2, 0.2 / 2), 1.0)
        greedy = privacy_index_greedy(lef).beta
        exact = privacy_index_exact(lef).beta
        assert 2 * greedy >= exact
        assert greedy >= exact / 2 == 2.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_two_approximation_random(self, seed):
        rng = np.random.default_rng(seed)
        d = random_dclef(rng, n_max=9)
        greedy = privacy_index_greedy(d).beta
        exact = privacy_index_exact(d).beta
        assert 2 * greedy >= exact - 1e-12
        assert greedy <= exact + 1e-12


class TestTradeoffConstruct:
    def test_near_full_alpha_uniform(self):
        # the whole set never fits under alpha < 1; one individual stays exposed
        inst = make_instance([1, 1, 1, 1], [1, 1, 1, 1], 1, UNIT)
        d = tradeoff_construct(inst, 0.95)
        assert sum(d.x) == 1
        assert d.residual_weight == 3.0

    def test_tie_breaks_lexicographically(self):
        inst = make_instance([5, 3, 2], [1, 1, 1], 1, UNIT)
        d = tradeoff_construct(inst, 0.5)
        # {0} and {1,2} both weigh 5; the lexicographically smaller set wins
        assert d.x == (0, 1, 1)

    def test_distortion_bound_value(self):
        inst = make_instance([5, 3, 2], [1, 1, 1], 1, UNIT)
        d = tradeoff_construct(inst, 0.5)
        assert d.distortion() == 2.25 * (10 - 5) ** 2
        assert d.distortion() <= 2.25 * (0.5 * 10 * 1) ** 2

    def test_alpha_domain(self):
        inst = make_instance([1], [1], 1, UNIT)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ParameterOutOfRange):
                tradeoff_construct(inst, alpha)

    def test_shielded_set_weight_maximal(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            weights = rng.lognormal(0, 1, n)
            inst = make_instance(weights, [1] * n, 1, UNIT)
            alpha = float(rng.uniform(0.05, 0.95))
            d = tradeoff_construct(inst, alpha)
            cap = alpha * inst.total_weight
            hidden_weight = d.residual_weight
            assert hidden_weight <= cap + 1e-12
            # exhaustive subset-sum oracle
            best = 0.0
            for mask in range(1 << n):
                s = sum(inst.abs_weights[i] for i in range(n) if mask >> i & 1)
                if s <= cap:
                    best = max(best, s)
            assert hidden_weight == pytest.approx(best, rel=1e-12)

    def test_dp_path_feasible_and_near_optimal(self):
        rng = np.random.default_rng(29)
        n = 30  # beyond the exhaustive bound, exercises the quantized path
        weights = rng.lognormal(0, 1, n)
        inst = make_instance(weights, [1] * n, 1, UNIT)
        alpha = 0.4
        d = tradeoff_construct(inst, alpha)
        cap = alpha * inst.total_weight
        assert d.residual_weight <= cap
        # greedy packing lower bound minus quantization slack
        greedy = 0.0
        for w in sorted(inst.abs_weights, reverse=True):
            if greedy + w <= cap:
                greedy += w
        assert d.residual_weight >= greedy - inst.total_weight * 1e-4

    def test_shielded_weight_within_cap_as_summed(self):
        # summed right to left the first six rows fit under the cap; the
        # residual weight sums left to right, and six rows exceed it
        inst = make_instance([0.3] * 7, [1] * 7, 1)
        alpha = 0.857142857142857
        d = tradeoff_construct(inst, alpha)
        assert d.residual_weight <= alpha * inst.total_weight
        assert tuple(i for i in range(7) if not d.x[i]) == (0, 1, 2, 3, 4)

    def test_first_fit_decreasing_feasible_as_summed(self):
        # in weight order 0.3 + 0.2 + 0.1 is 0.6; in index order it exceeds 0.6
        inst = make_instance([0.1, 0.2, 0.3] + [10.0] * 24, [1] * 27, 1)
        shielded = _best_subset_within(inst.abs_weights, 0.6)
        assert shielded == (1, 2)
        assert Dclef.from_selected(inst, range(3, 27)).residual_weight == 0.1 + 0.2 + 0.3 > 0.6

    @given(
        n=st.integers(26, 200),
        kind=st.sampled_from(["lognormal", "integer", "equal"]),
        seed=st.integers(0, 2**32 - 1),
        member_share=st.sampled_from([None, 0.1, 0.5, 0.9, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_first_fit_decreasing_beyond_exact_bound(self, n, kind, seed, member_share):
        rng = np.random.default_rng(seed)
        if kind == "lognormal":
            weights = rng.lognormal(0, 1, n)
        elif kind == "integer":
            weights = rng.integers(1, 50, n)
        else:
            weights = [float(rng.choice([0.1, 0.3, 1.0]))] * n
        inst = make_instance(weights, [1] * n, 1, UNIT)
        wabs = inst.abs_weights
        if member_share is None:
            cap = float(rng.uniform(0.02, 0.98)) * inst.total_weight
        else:  # near-tight: the cap is the left-to-right sum of a random subset
            cap = sum(w for w in wabs if rng.random() < member_share)
        shielded = _best_subset_within(wabs, cap)
        d = Dclef.from_selected(inst, set(range(n)) - set(shielded))
        assert d.residual_weight <= cap
        greedy, total = [], 0.0
        for i in sorted(range(n), key=lambda i: (-wabs[i], i)):
            if total + wabs[i] <= cap:
                total += wabs[i]
                greedy.append(i)
        assert shielded == tuple(sorted(greedy))
        rejected = [wabs[i] for i in range(n) if d.x[i]]
        if rejected:
            # integer sums are exact and equal weights add in the same order
            # both ways; lognormal sums in two orders differ by under 2n 2^-52 W
            slack = 2 * n * 2.0**-52 * inst.total_weight if kind == "lognormal" else 0
            gap = Fraction(cap) - Fraction(d.residual_weight)
            assert gap < Fraction(min(rejected)) + Fraction(slack)


class TestCheckTradeoffBound:
    def test_perfect_estimator_holds(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        d = Dclef(inst, (1, 1))  # zero distortion, zero index
        rep = check_tradeoff_bound(d, 0.5)
        assert rep.premise_holds and rep.status == "holds"

    def test_all_hidden_is_vacuous(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        d = Dclef(inst, (0, 0))
        rep = check_tradeoff_bound(d, 0.5)
        assert not rep.premise_holds and rep.status == "vacuous"

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_random_never_violated(self, seed):
        rng = np.random.default_rng(seed)
        d = random_dclef(rng, n_max=10)
        for alpha in (0.1, 0.25, 0.5, 0.9):
            assert check_tradeoff_bound(d, alpha).status != "violated"


class TestKAccuracyBridge:
    def test_quantile_below_sqrt_three_distortion(self):
        # one-third-tail accuracy at corner databases vs sqrt(3 * distortion)
        rng = np.random.default_rng(31)
        for weights, x, sigma in [
            ((1.0, 1.0), (1.0, 0.0), 1.0),
            ((2.0, -1.0, 0.5), (0.0, 1.0, 0.0), 0.7),
            ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 2.0),
        ]:
            inst = make_instance(weights, [1] * len(weights), 1, UNIT)
            lef = Lef(inst, x, sigma)
            samples = rng.laplace(scale=sigma, size=100_000)
            worst_quantile = 0.0
            for corners in corner_databases(UNIT, len(weights)):
                centered = lef.deterministic_part(corners) - sum(
                    w * d for w, d in zip(weights, corners)
                )
                worst_quantile = max(
                    worst_quantile, float(np.quantile(np.abs(centered - samples), 2 / 3))
                )
            assert worst_quantile <= math.sqrt(3 * lef.distortion()) * 1.05


class TestCorollaryConstruction:
    def test_low_distortion_dclefs_admit_good_construction(self):
        # any low-distortion estimator yields a shielded construction with
        # distortion <= 108x and index >= half, exhaustively checked
        inst = make_instance([10, 10, 10, 0.1, 0.2], [1] * 5, 1, UNIT)
        total = inst.total_weight
        delta = 1.0
        for x in itertools.product((0, 1), repeat=5):
            d = Dclef(inst, x)
            dist = float(d.distortion())
            if not 0 < dist < (total * delta) ** 2 / 48:
                continue
            alpha = math.sqrt(48 * dist) / (total * delta)
            constructed = tradeoff_construct(inst, alpha)
            assert float(constructed.distortion()) <= 108 * dist * (1 + 1e-12)
            assert (
                privacy_index_exact(constructed).beta
                >= privacy_index_exact(d).beta / 2 - 1e-12
            )


class TestEstimatorInputs:
    @pytest.mark.parametrize("flag", [0.5, 1.7, "1", math.nan, None])
    def test_dclef_rejects_non_binary_flags(self, flag):
        inst = make_instance([1, 1, 1], [1, 1, 1], 1, UNIT)
        with pytest.raises(ValidationError, match="not binary at index 1"):
            Dclef(inst, (0, flag, 1))

    @pytest.mark.parametrize("one", [True, 1, 1.0, Fraction(1), np.int64(1)])
    def test_dclef_accepts_binary_values(self, one):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        d = Dclef(inst, (one, False))
        assert d.x == (1, 0)
        assert all(type(xi) is int for xi in d.x)

    @pytest.mark.parametrize(
        "sigma, message",
        [
            (math.nan, "noise scale is not finite"),
            (math.inf, "noise scale is not finite"),
            ("1", "noise scale is not a number"),
            (None, "noise scale is not a number"),
            (-1.0, "noise scale must be nonnegative"),
        ],
    )
    def test_lef_rejects_bad_sigma(self, sigma, message):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        with pytest.raises(ValidationError, match=message):
            Lef(inst, (1.0, 0.0), sigma)

    @pytest.mark.parametrize("xi", ["0.5", None, [0.5]])
    def test_lef_rejects_non_numeric_x(self, xi):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        with pytest.raises(ValidationError, match="not a number at index 0"):
            Lef(inst, (xi, 1.0), 1.0)


class TestDclefSerialization:
    def test_json_shape(self):
        inst = make_instance([1, 1], [1, 2], 1, UNIT)
        d = Dclef(inst, (1, 0))
        data = d.to_json()
        assert data["x"] == [1, 0]
        assert data["sigma"] == 1.0
        assert data["epsilons"] == [1.0, 0.0]
        assert data["distortion"] == 2.25

    def test_inf_serialized_as_string(self):
        inst = make_instance([1], [1], 1, UNIT)
        # degenerate estimator is representable, never sampled
        d = Dclef(inst, (1,))
        assert d.to_json()["epsilons"] == ["inf"]

    def test_rows_scatter_and_fill_zero(self):
        inst = make_instance([1, 2, 1], [1, 1, 1], 1, UNIT)
        data = Dclef(inst, (1, 0, 1)).to_json((4, 0, 2), 5)
        assert data["x"] == [0, 0, 1, 0, 1]
        assert data["epsilons"] == [0.0, 0.0, 0.5, 0.0, 0.5]
        assert data["sigma"] == 2.0


class TestEstimatorBoundary:
    @pytest.mark.parametrize("entries", [(True, False, True), ("a", 0.5, 0.5)])
    def test_evaluate_rejects_non_numeric_entries(self, entries):
        inst = make_instance([1, 1, 1], [1, 1, 1], 1, UNIT)
        for estimator in (Lef(inst, (1.0, 0.0, 1.0), 1.0), Dclef(inst, (1, 0, 1))):
            with pytest.raises(ValidationError, match="database entry at index 0 is not a number"):
                evaluate(estimator, entries, 0)

    def test_evaluate_names_a_non_finite_entry(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT)
        with pytest.raises(ValidationError, match="database entry at index 1 is not finite"):
            evaluate(Dclef(inst, (1, 0)), (0.5, math.nan), 0)

    @pytest.mark.parametrize("anchors", [("a", "b", "c"), (None, 0.5, 0.5), (math.inf, 0.5, 0.5)])
    def test_lef_checks_each_anchor(self, anchors):
        inst = make_instance([1, 1, 1], [1, 1, 1], 1, UNIT)
        with pytest.raises(ValidationError, match="anchor at index 0 is not"):
            Lef(inst, (1.0, 0.0, 1.0), 1.0, anchors=anchors)

    def test_exact_noise_scale_beyond_doubles_is_not_finite(self):
        inst = make_instance([1, 1], [1, 1], 1, UNIT).to_rational()
        lef = Lef(inst, (1, 0), Fraction(10**400))
        with pytest.raises(ValidationError, match="noise scale is not finite: inf"):
            evaluate(lef, (0.5, 0.5), 0)

    @pytest.mark.parametrize("n", [3, 30])
    def test_tradeoff_construct_hides_the_shielded_set(self, n):
        rng = np.random.default_rng(n)
        inst = make_instance(rng.lognormal(0, 1, n), np.sort(rng.uniform(0, 2, n)), 1.0)
        dclef = tradeoff_construct(inst, 0.3)
        shielded = _best_subset_within(inst.abs_weights, 0.3 * inst.total_weight)
        assert dclef.x == tuple(0 if i in shielded else 1 for i in range(n))
        assert all(type(xi) is int for xi in dclef.x)
