"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavy sweeps are shared module-scoped fixtures so the whole suite
runs each of them once.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from privauction import (
    AuctionInstance,
    Dclef,
    FeatureSet,
    Lef,
    LinearKernel,
    ValueInterval,
    brute_force_opt,
    fair_inner_product,
    kernel_regression_weights,
    knn_weights,
    nadaraya_watson_weights,
    privacy_index_exact,
    privacy_index_greedy,
    ridge_weights,
    tradeoff_construct,
)
from privauction.verify import (
    SweepConfig,
    hardness_instance,
    run_approximation_sweep,
    run_truthfulness_sweep,
)

from conftest import as_lef

UNIT = ValueInterval(0.0, 1.0)
MASTER_SEED = 20260808


def emit(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def zero_failed(report, names) -> bool:
    return all(report.tallies[name].failed == 0 for name in names)


@pytest.fixture(scope="module")
def approx_signed():
    config = SweepConfig(
        n_range=(2, 12),
        instance_count=10_000,
        weight_distribution="signed",
        rng_seed=MASTER_SEED,
    )
    start = time.perf_counter()
    report = run_approximation_sweep(config, threads=1)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def approx_uniform():
    config = SweepConfig(
        n_range=(2, 12),
        instance_count=2_500,
        weight_distribution="uniform",
        rng_seed=MASTER_SEED + 1,
    )
    start = time.perf_counter()
    report = run_approximation_sweep(config, threads=1)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def truthful_float():
    config = SweepConfig(
        n_range=(2, 10),
        instance_count=10_000,
        weight_distribution="signed",
        rng_seed=MASTER_SEED + 2,
    )
    start = time.perf_counter()
    report = run_truthfulness_sweep(config, threads=1)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def truthful_rational():
    config = SweepConfig(
        n_range=(2, 8),
        instance_count=600,
        weight_distribution="integer-grid",
        cost_distribution="integer-grid",
        arithmetic_mode="rational",
        rng_seed=MASTER_SEED + 3,
    )
    start = time.perf_counter()
    report = run_truthfulness_sweep(config, threads=1)
    return report, time.perf_counter() - start


def test_criterion_1_hardness_reproduction():
    instance = hardness_instance(1.0, 1.0)
    elapsed = math.inf
    for _ in range(5):
        start = time.perf_counter()
        oracle = brute_force_opt(instance)
        outcome = fair_inner_product(instance)
        elapsed = min(elapsed, time.perf_counter() - start)
    ratio = oracle.objective / outcome.objective
    ok = (
        oracle.objective == 2.0
        and outcome.objective == 1.0
        and ratio == 2.0
        and elapsed < 1e-3
    )
    assert emit(
        "1 (hardness instance)",
        ok,
        f"OPT={oracle.objective}, mechanism={outcome.objective}, "
        f"ratio={ratio}, runtime={elapsed * 1e6:.0f}us",
    )


def test_criterion_2_five_approximation(approx_signed, approx_uniform):
    signed, signed_time = approx_signed
    uniform, uniform_time = approx_uniform
    ok = (
        signed.instances_run == 10_000
        and zero_failed(signed, ["ratio_le_5"])
        and signed.worst_ratio <= 5.0
        and zero_failed(uniform, ["ratio_le_5", "ratio_le_2_uniform"])
        and uniform.worst_ratio <= 2.0 * (1 + 1e-9)
        and signed_time + uniform_time < 300.0
    )
    assert emit(
        "2 (5-approximation)",
        ok,
        f"signed worst ratio={signed.worst_ratio:.4f} over {signed.instances_run} "
        f"instances, uniform worst ratio={uniform.worst_ratio:.4f} over "
        f"{uniform.instances_run}, runtime={signed_time + uniform_time:.1f}s",
    )


def test_criterion_3_truthfulness(truthful_float, truthful_rational):
    float_report, float_time = truthful_float
    rational_report, rational_time = truthful_rational
    ok = (
        float_report.instances_run == 10_000
        and float_report.tallies["truthful"].failed == 0
        and rational_report.tallies["truthful"].failed == 0
        and float_time + rational_time < 600.0
    )
    assert emit(
        "3 (truthfulness)",
        ok,
        f"zero profitable deviations over {float_report.instances_run} float "
        f"instances (1e-9 slack) and {rational_report.instances_run} exact "
        f"rational instances, runtime={float_time + rational_time:.1f}s",
    )


def test_criterion_4_ir_and_budget(truthful_float, truthful_rational):
    float_report, _ = truthful_float
    rational_report, _ = truthful_rational
    names = ["budget_feasible", "individually_rational"]
    ok = zero_failed(float_report, names) and zero_failed(rational_report, names)
    assert emit(
        "4 (IR and budget feasibility)",
        ok,
        f"float within 1e-9 relative on {float_report.instances_run} instances, "
        f"exact on {rational_report.instances_run} rational integer-grid instances",
    )


def test_criterion_5_fractional_optimum(approx_signed, approx_uniform):
    names = [
        "fractional_dominates",
        "kkt_certificate",
        "budget_identity",
        "ell_ge_k",
        "prefix_weight_bound",
    ]
    signed, _ = approx_signed
    uniform, _ = approx_uniform
    ok = zero_failed(signed, names) and zero_failed(uniform, names)
    assert emit(
        "5 (fractional optimum)",
        ok,
        f"relaxation dominates, KKT certificate and tight budget hold at 1e-9, "
        f"crossover and prefix bounds hold on "
        f"{signed.instances_run + uniform.instances_run} instances",
    )


def test_criterion_6_distortion_formulas():
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        weights = rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n)
        instance = AuctionInstance(
            tuple(float(w) for w in weights), (1.0,) * n, 1.0, UNIT
        )
        x = tuple(float(v) for v in rng.uniform(0, 1, n))
        sigma = float(rng.uniform(0.2, 3.0))
        lef = Lef(instance, x, sigma)
        analytic = lef.distortion()

        noise = rng.laplace(scale=sigma, size=1_000_000)
        mean_noise = float(noise.mean())
        mean_sq = float((noise**2).mean())
        worst = 0.0
        for corners in itertools.product((0.0, 1.0), repeat=n):
            centered = lef.deterministic_part(corners) - sum(
                w * d for w, d in zip(instance.weights, corners)
            )
            worst = max(worst, centered**2 - 2 * centered * mean_noise + mean_sq)
        worst_rel = max(worst_rel, abs(worst - analytic) / analytic)
    mc_ok = worst_rel <= 0.01

    ulp_rel = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 11))
        weights = tuple(float(w) for w in rng.lognormal(0, 1, n) * rng.choice([-1, 1], n))
        instance = AuctionInstance(weights, (1.0,) * n, 1.0, UNIT)
        x = tuple(int(b) for b in rng.integers(0, 2, n))
        d = Dclef(instance, x)
        exact = Fraction(9, 4) * Fraction(1) ** 2 * (
            sum(Fraction(abs(w)) for w in weights)
            - sum(Fraction(abs(w)) * xi for w, xi in zip(weights, x))
        ) ** 2
        reference = float(exact)
        if reference == 0.0:
            ulp_rel = max(ulp_rel, abs(float(d.distortion())))
            continue
        ulp_rel = max(ulp_rel, abs(float(d.distortion()) - reference) / reference)
    ulp_ok = ulp_rel <= 1e-15

    ok = mc_ok and ulp_ok
    assert emit(
        "6 (distortion formulas)",
        ok,
        f"Monte-Carlo worst relative error={worst_rel:.2e} (<=1%), closed form vs "
        f"exact rational within {ulp_rel:.1e} (<=1e-15, ulp scale)",
    )


def test_criterion_7_differential_privacy():
    rng = np.random.default_rng(MASTER_SEED + 5)
    checked = 0
    sensitivity_ok = True
    ratio_ok = True
    while checked < 100:
        n = int(rng.integers(2, 11))
        weights = (rng.integers(1, 10, n) * rng.choice([-1, 1], n)).astype(float)
        instance = AuctionInstance(tuple(weights), (1.0,) * n, 1.0, UNIT)
        x = tuple(int(b) for b in rng.integers(0, 2, n))
        if all(x):
            continue
        d = Dclef(instance, x)
        checked += 1

        # integer-scaled corner table: entries in {0, 2}, midpoint scaled to 1,
        # weights doubled, so every value is an exact integer (4x the true one)
        w2 = [int(2 * w) for w in weights]
        table = {}
        for mask in range(1 << n):
            value = 0
            for i in range(n):
                e2 = 2 if (mask >> i) & 1 else 0
                value += w2[i] * e2 * x[i] + w2[i] * (1 - x[i])
            table[mask] = value
        eps = d.epsilons()
        lef_eps = as_lef(d).epsilons()
        for i in range(n):
            worst4 = max(
                abs(table[mask] - table[mask ^ (1 << i)]) for mask in range(1 << n)
            )
            if worst4 % 4 or worst4 // 4 != abs(weights[i]) * x[i]:
                sensitivity_ok = False
            # density-ratio supremum at the sensitivity-achieving corner pair
            shift = worst4 / 4
            if math.exp(shift / d.sigma) != math.exp(eps[i]):
                ratio_ok = False
            if eps[i] != lef_eps[i]:
                ratio_ok = False

    ok = sensitivity_ok and ratio_ok
    assert emit(
        "7 (differential privacy)",
        ok,
        "sensitivity brute force equals delta*|w|*x exactly and the Laplace "
        f"density-ratio bound exp(eps_i) is attained, on {checked} estimators",
    )


def _beta_oracle_all(bits: np.ndarray, wabs: np.ndarray, mask_weights: np.ndarray):
    """Exact privacy index of every binary estimator via full enumeration."""
    total = float(wabs.sum())
    betas = np.zeros(len(bits))
    for m in range(len(bits)):
        residual = total - mask_weights[m]
        if residual <= 0:
            betas[m] = 0.0
            continue
        loss_sums = bits @ (wabs * bits[m])
        feasible = loss_sums < residual / 2  # strict, canonical losses scaled
        betas[m] = mask_weights[feasible].max()
    return betas


def test_criterion_8_tradeoff_theorems():
    rng = np.random.default_rng(MASTER_SEED + 6)
    instances = [hardness_instance(1.0, 1.0)]
    for n in (10, 11, 12):
        weights = tuple(
            float(w) for w in rng.lognormal(0, 1, n) * rng.choice([-1.0, 1.0], n)
        )
        instances.append(AuctionInstance(weights, (1.0,) * n, 1.0, UNIT))
    instances.append(AuctionInstance((2.0,) * 12, (1.0,) * 12, 1.0, UNIT))
    instances.append(
        AuctionInstance(
            tuple(float(v) for v in rng.integers(1, 10, 11)), (1.0,) * 11, 1.0, UNIT
        )
    )

    theorem1_checked = theorem1_bad = 0
    lemma3_bad = exact_mismatch = 0
    theorem2_bad = 0
    for instance in instances:
        n = instance.n
        wabs = np.asarray(instance.abs_weights)
        total = float(wabs.sum())
        masks = np.arange(1 << n)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        mask_weights = bits @ wabs
        betas = _beta_oracle_all(bits, wabs, mask_weights)
        residuals = total - mask_weights
        distortions = 2.25 * residuals**2  # unit interval

        for m in masks:
            x = tuple(int(b) for b in bits[m])
            d = Dclef(instance, x)
            greedy = privacy_index_greedy(d).beta
            if 2 * greedy < betas[m] - 1e-9 or greedy > betas[m] + 1e-9:
                lemma3_bad += 1

        sample = rng.choice(masks, size=min(150, len(masks)), replace=False)
        for m in sample:
            d = Dclef(instance, tuple(int(b) for b in bits[m]))
            if abs(privacy_index_exact(d).beta - betas[m]) > 1e-9:
                exact_mismatch += 1

        for alpha in (0.1, 0.25, 0.5):
            bound = (alpha * total) ** 2 / 48
            premise = distortions <= bound
            theorem1_checked += int(premise.sum())
            theorem1_bad += int((premise & (betas > 2 * alpha * total + 1e-9)).sum())

            best_beta = float(betas[premise].max()) if premise.any() else 0.0
            constructed = tradeoff_construct(instance, alpha)
            constructed_beta = privacy_index_exact(constructed).beta
            if float(constructed.distortion()) > 2.25 * (alpha * total) ** 2 * (1 + 1e-12):
                theorem2_bad += 1
            if constructed_beta < best_beta / 2 - 1e-9:
                theorem2_bad += 1

    ok = (
        theorem1_bad == 0
        and lemma3_bad == 0
        and exact_mismatch == 0
        and theorem2_bad == 0
    )
    assert emit(
        "8 (trade-off theorems)",
        ok,
        f"{len(instances)} instances enumerated exhaustively (n<=12): "
        f"low-distortion implication violations={theorem1_bad} "
        f"(premise hit {theorem1_checked} times), greedy-bound violations={lemma3_bad}, "
        f"construction violations={theorem2_bad}, oracle mismatches={exact_mismatch}",
    )


def test_criterion_9_predictor_identities():
    rng = np.random.default_rng(MASTER_SEED + 7)
    worst_identity = 0.0
    worst_simplex = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        features = FeatureSet(rng.normal(size=(n, m)), rng.normal(size=m))
        lam = float(rng.uniform(0.1, 2.0))

        a = np.zeros(n)
        da = ridge_weights(features, lam)
        a[list(da.kept)] = da.weights
        b = np.zeros(n)
        db = kernel_regression_weights(features, LinearKernel(), lam)
        b[list(db.kept)] = db.weights
        scale = max(1.0, float(np.abs(a).max()))
        worst_identity = max(worst_identity, float(np.abs(a - b).max()) / scale)

        nw = nadaraya_watson_weights(features)
        worst_simplex = max(worst_simplex, abs(sum(nw.weights) - 1.0))
        if any(w < 0 for w in nw.weights):
            worst_simplex = math.inf
        k = int(rng.integers(1, n + 1))
        kn = knn_weights(features, k)
        worst_simplex = max(worst_simplex, abs(sum(kn.weights) - 1.0))
        if any(w < 0 for w in kn.weights):
            worst_simplex = math.inf

    ok = worst_identity <= 1e-8 and worst_simplex <= 1e-12
    assert emit(
        "9 (predictor identities)",
        ok,
        f"kernel-vs-ridge worst relative gap={worst_identity:.2e} (<=1e-8), "
        f"simplex worst defect={worst_simplex:.2e} (<=1e-12) on 20 feature sets",
    )
