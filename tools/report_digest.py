"""One sha256 per family of verification reports and CLI outputs.

Usage, from the repository root:

    PYTHONPATH=src python tools/report_digest.py

Two checkouts print the same line for a family exactly when they produce the
same bytes for it, so running this on a parent commit and on a change shows
whether the change kept its reports byte-identical. The families:

- ``truthfulness``: truthfulness reports of the honest mechanism and of every
  entry of ``verify.MUTATIONS``, on float signed/uniform, float integer-grid
  and rational integer-grid instances, three seeds each;
- ``approximation``: approximation reports on five weight/cost mixes, float
  and rational, three seeds each;
- ``criterion-3``: the two truthfulness sweeps of acceptance criterion 3
  (10,000 float and 600 rational instances, ``tests/test_acceptance.py``);
- ``cli``: exit code, stdout and stderr of ``privauction run``, ``oracle``
  and ``verify`` on a seeded corpus of instance files, including filtered
  rows and empty instances, in float and rational mode;
- ``oracle``: ``brute_force_opt``'s vector, objective and payments on every
  weight and cost distribution of ``generate_instance`` at n 2-20, on
  rational integer-grid instances, and on raw draws (unfiltered, costs in
  any order, cost ties or uniform weights), each canonicalized first;
- ``commands``: exit code, stdout and stderr of ``fractional`` (JSON and
  CSV), ``oracle --output csv`` and ``run --compare-opt --output csv`` on the
  ``cli`` corpus in float and rational mode, and of ``weights`` on a seeded
  feature CSV: every method, ``--costs``/``--budget``, ``--query-csv``, CSV
  output, and malformed queries, options and feature files;
- ``prepare``: ``instances.prepare`` (survivors, canonical order, removed
  rows) and ``filter_survivors`` under every exemption, on the raw draws of
  every ``generate_instance`` weight/cost mix at several budget scales, on
  their `Fraction` views, on filter cascades, on key ties and zero costs, and
  on 5,000-row instances whose budgets filter a few percent;
- ``csv``: ``predictors.load_feature_csv`` (ids and matrix bytes, or the
  error message) on unquoted and quoted corpora: headers, id columns, blank
  lines, float spellings, ragged rows, non-numeric cells and empty files;
- ``kernel``: ``verify.deviator_kernel`` utilities of every deviator, under
  the honest mechanism and every entry of ``verify.MUTATIONS``, on float
  signed/uniform, float integer-grid and rational integer-grid instances;
  the reports are the misreport grid plus every other cost and its nearest
  neighbours, 0, the survival threshold and its neighbours, random values
  and, on rational instances, float reports, each under two true costs, in
  a fixed shuffled order;
- ``estimator``: on seeded float and `Fraction` instances, ``evaluate`` of
  `Lef`s (midpoint and arbitrary anchors) and `Dclef`s on in-range, corner,
  out-of-range and wrong-length databases, ``Dclef.to_json(rows, n)``,
  ``tradeoff_construct`` (exact search and first-fit-decreasing),
  ``privacy_index_exact``/``privacy_index_greedy`` and
  ``check_tradeoff_bound``.

The whole run takes about a minute and a half on a 2-core machine; ``--family`` picks
some families only.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from io import StringIO

from fractions import Fraction

import numpy as np

from privauction import (
    AuctionInstance,
    Dclef,
    EmptyInstance,
    Lef,
    PrivauctionError,
    ValueInterval,
    brute_force_opt,
    canonicalize,
    check_tradeoff_bound,
    evaluate,
    privacy_index_exact,
    privacy_index_greedy,
    tradeoff_construct,
    verify,
)
from privauction.cli import main
from privauction.errors import ParseError
from privauction.instances import filter_survivors, prepare
from privauction.predictors import load_feature_csv
from privauction.verify import (
    COST_DISTRIBUTIONS,
    WEIGHT_DISTRIBUTIONS,
    SweepConfig,
    generate_instance,
    run_approximation_sweep,
    run_truthfulness_sweep,
)

SEEDS = (3, 5, 7)
MUTATION_SPECS = [None] + [
    f"{name}:0.9" if name == "payment-scale" else name for name in verify.MUTATIONS
]
INTEGER_GRID = dict(weight_distribution="integer-grid", cost_distribution="integer-grid")
TRUTHFUL_MIXES = [
    dict(n_range=(2, 8), instance_count=60),
    dict(n_range=(2, 8), instance_count=60, **INTEGER_GRID),
    dict(n_range=(2, 8), instance_count=40, arithmetic_mode="rational", **INTEGER_GRID),
]
APPROXIMATION_MIXES = [
    dict(weight_distribution="signed", cost_distribution="uniform"),
    dict(weight_distribution="lognormal", cost_distribution="lognormal"),
    dict(weight_distribution="uniform", cost_distribution="uniform"),
    INTEGER_GRID,
    dict(arithmetic_mode="rational", **INTEGER_GRID),
]
MASTER_SEED = 20260808  # tests/test_acceptance.py
CRITERION_3 = [
    dict(n_range=(2, 10), instance_count=10_000, weight_distribution="signed",
         rng_seed=MASTER_SEED + 2),
    dict(n_range=(2, 8), instance_count=600, arithmetic_mode="rational",
         rng_seed=MASTER_SEED + 3, **INTEGER_GRID),
]


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True).encode() + b"\n"


def truthfulness():
    for mix in TRUTHFUL_MIXES:
        for seed in SEEDS:
            config = SweepConfig(**mix, rng_seed=seed)
            for mutation in MUTATION_SPECS:
                yield _report_bytes(run_truthfulness_sweep(config, mutation=mutation))


def approximation():
    for mix in APPROXIMATION_MIXES:
        for seed in SEEDS:
            config = SweepConfig(n_range=(2, 12), instance_count=60, rng_seed=seed, **mix)
            report = run_approximation_sweep(config)
            yield _report_bytes(report) + repr(report.csv_rows()).encode()


def criterion_3():
    for fields in CRITERION_3:
        yield _report_bytes(run_truthfulness_sweep(SweepConfig(**fields)))


KERNEL_MIXES = [
    dict(n_range=(2, 10), instance_count=80),
    dict(n_range=(2, 8), instance_count=80, **INTEGER_GRID),
    dict(n_range=(2, 8), instance_count=60, arithmetic_mode="rational", **INTEGER_GRID),
]


def _neighbours(value, exact: bool) -> list:
    """``value`` and the nearest reports on either side: a tiny `Fraction` step, or one ulp."""
    if exact:
        return [value - Fraction(1, 10**9), value, value + Fraction(1, 10**9)]
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


def _kernel_reports(instance, i: int, rng) -> list:
    """Deviator ``i``'s grid and nonnegative reports off it, in the instance's arithmetic."""
    costs, exact = instance.unit_costs, instance.exact
    reports = list(verify.misreport_grid(costs, i)) + [costs[i] * 0]
    for j, cost in enumerate(costs):
        if j != i:
            reports += _neighbours(cost, exact)
    _, total = filter_survivors(instance, exempt=i)
    w_i = instance.abs_weights[i]
    reports += _neighbours(instance.budget * (total - w_i) / w_i, exact)  # survival threshold
    top = 2 * max(costs) + 1
    for _ in range(4):
        if exact:
            reports.append(Fraction(int(rng.integers(0, 1000)), int(rng.integers(1, 60))) * top / 500)
        else:
            reports.append(float(rng.uniform(0.0, 1.0)) * top)
    if exact:
        reports += [float(z) for z in reports[::5]]
    return [z for z in reports if z >= 0]


def kernel():
    rng = np.random.default_rng(43)
    for mix in KERNEL_MIXES:
        config = SweepConfig(**mix, rng_seed=43)
        for index in range(config.instance_count):
            instance = generate_instance(config, index)
            out = []
            for mutation in MUTATION_SPECS:
                for i in range(instance.n):
                    utility = verify.deviator_kernel(instance, i, mutation)
                    true_cost = instance.unit_costs[i]
                    calls = [
                        (z, cost)
                        for z in _kernel_reports(instance, i, rng)
                        for cost in (true_cost, 2 * true_cost + 1)
                    ]
                    for at in rng.permutation(len(calls)).tolist():
                        z, cost = calls[at]
                        out.append(repr((z, cost)) + _outcome(lambda: utility(z, cost)))
            yield "\n".join(out).encode() + b"\n"


def _raw_instances(count: int):
    """Unfiltered draws, canonicalized: costs in any order, cost ties, uniform weights."""
    rng = np.random.default_rng(13)
    for index in range(count):
        n = int(rng.integers(2, 21))
        weights = rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
        costs = rng.uniform(0.0, 2.0, n)
        if index % 3 == 1:
            costs = rng.choice(rng.uniform(0.0, 2.0, 3), n)
        elif index % 3 == 2:
            weights = np.full(n, rng.lognormal(0.0, 1.0))
        yield canonicalize(AuctionInstance(
            tuple(weights.tolist()), tuple(costs.tolist()), float(rng.uniform(0.05, 4.0)),
            ValueInterval(0.0, 1.0),
        ))[0]


def oracle():
    instances = []
    for weights in WEIGHT_DISTRIBUTIONS:
        for costs in COST_DISTRIBUTIONS:
            config = SweepConfig(n_range=(2, 20), instance_count=150, rng_seed=17,
                                 weight_distribution=weights, cost_distribution=costs)
            instances += [generate_instance(config, index) for index in range(150)]
    config = SweepConfig(n_range=(2, 16), instance_count=150, rng_seed=19,
                         arithmetic_mode="rational", **INTEGER_GRID)
    instances += [generate_instance(config, index) for index in range(150)]
    instances += _raw_instances(600)
    for instance in instances:
        solution = brute_force_opt(instance)
        yield repr((solution.x, solution.objective, solution.payments)).encode() + b"\n"


def _instance_corpus(count: int) -> list[dict]:
    """Raw instance documents; low budgets filter rows or empty the instance."""
    rng = np.random.default_rng(11)
    documents = []
    for index in range(count):
        n = int(rng.integers(1, 9))
        if index % 2:
            weights = rng.integers(1, 10, n) * rng.choice([-1, 1], n)
            costs = rng.integers(0, 10, n)
            budget = int(rng.integers(1, 20))
        else:
            weights = rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
            costs = rng.uniform(0.0, 2.0, n)
            budget = float(rng.uniform(0.05, 4.0))
        documents.append({
            "weights": weights.tolist(),
            "unit_costs": costs.tolist(),
            "budget": budget,
            "interval": {"min": 0.0, "max": 1.0},
            "database": rng.uniform(0.0, 1.0, n).tolist(),
        })
    return documents


def _invoke(args: list[str]) -> bytes:
    """``privauction <args>`` in this process: exit code, stdout and stderr."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main.main(args, prog_name="privauction", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return json.dumps([code, out.getvalue(), err.getvalue()]).encode() + b"\n"


@contextmanager
def _scratch_directory():
    """Run inside a fresh temporary directory, so file names in error messages stay relative."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            yield
        finally:
            os.chdir(start)


def _write_corpus() -> list[str]:
    names = []
    for index, document in enumerate(_instance_corpus(60)):
        names.append(f"instance-{index}.json")
        with open(names[-1], "w") as handle:
            json.dump(document, handle)
    return names


def cli():
    with _scratch_directory():
        for index, name in enumerate(_write_corpus()):
            for mode in ("float", "rational"):
                yield _invoke(["run", name, "--arithmetic", mode])
                yield _invoke(["run", name, "--arithmetic", mode, "--compare-opt",
                               "--database", "--seed", str(index)])
                yield _invoke(["run", name, "--arithmetic", mode, "--output", "csv"])
                yield _invoke(["oracle", name, "--arithmetic", mode])
        with open("sweep.json", "w") as handle:
            json.dump({"n_range": [2, 7], "instance_count": 15, **INTEGER_GRID}, handle)
        for mode in ("float", "rational"):
            for seed in SEEDS:
                for mutation in MUTATION_SPECS:
                    args = ["verify", "sweep.json", "--arithmetic", mode, "--seed", str(seed)]
                    yield _invoke(args + (["--mutate", mutation] if mutation else []))
                yield _invoke(["verify", "sweep.json", "--arithmetic", mode, "--seed",
                               str(seed), "--output", "csv"])


def _weights_calls():
    """``weights`` argument lists on a seeded 12 x 3 feature file with a header."""
    rng = np.random.default_rng(23)
    matrix = rng.normal(size=(12, 3)).tolist()
    files = {
        "features.csv": [("a", "b", "c"), *matrix],
        "ids.csv": [(f"r{i}", *row) for i, row in enumerate(matrix)],
        "query.csv": [(0.3, -0.2, 1.1)],
        "ragged.csv": [(1, 2, 3), (4, 5)],
        "text.csv": [(1, 2, 3), (4, "x", 6)],
    }
    for name, rows in files.items():
        with open(name, "w") as handle:
            handle.write("".join(",".join(map(str, row)) + "\n" for row in rows))
    with open("binary.csv", "wb") as handle:
        handle.write(b"\xff\xfe1,2\n")  # not UTF-8
    query = ["--query", "0.3,-0.2,1.1"]
    methods = [
        ["--method", "knn", "--k", "3"],
        ["--method", "knn", "--k", "40"],
        ["--method", "nadaraya-watson", "--bandwidth", "1.5"],
        ["--method", "nadaraya-watson", "--kernel", "linear"],
        ["--method", "ridge", "--lam", "0.5"],
        ["--method", "kernel-regression", "--lam", "0.5"],
        ["--method", "kernel-regression", "--lam", "0.5", "--kernel", "linear"],
        ["--method", "ridge"],
    ]
    costs = ",".join(repr(c) for c in rng.uniform(0.0, 2.0, 12).tolist())
    for method in methods:
        yield ["features.csv", *method, *query]
        yield ["features.csv", *method, *query, "--output", "csv"]
        yield ["features.csv", *method, *query, "--costs", costs, "--budget", "2.5",
               "--r-min", "-1", "--r-max", "2"]
    knn = ["--method", "knn", "--k", "3"]
    yield ["features.csv", *knn, "--query-csv", "query.csv", "--output", "csv"]
    yield ["ids.csv", *knn, *query, "--id-column"]
    yield ["features.csv", *knn, "--query", "0.3,abc,1.1"]
    yield ["features.csv", *knn, "--query", "0.3,1.1"]
    yield ["features.csv", *knn]
    yield ["features.csv", *knn, *query, "--query-csv", "query.csv"]
    yield ["features.csv", *knn, *query, "--costs", costs]
    yield ["features.csv", *knn, *query, "--costs", "1,x", "--budget", "1"]
    yield ["features.csv", *knn, *query, "--costs", "1,2", "--budget", "1"]
    yield ["features.csv", *knn, *query, "--costs", costs, "--budget", "-1"]
    for name in ("ragged.csv", "text.csv", "binary.csv", "missing.csv"):
        yield [name, *knn, *query]


def commands():
    with _scratch_directory():
        for name in _write_corpus():
            for mode in ("float", "rational"):
                yield _invoke(["fractional", name, "--arithmetic", mode])
                yield _invoke(["fractional", name, "--arithmetic", mode, "--output", "csv"])
                yield _invoke(["oracle", name, "--arithmetic", mode, "--output", "csv"])
                yield _invoke(["run", name, "--arithmetic", mode, "--compare-opt",
                               "--output", "csv"])
        for args in _weights_calls():
            yield _invoke(["weights", *args])


def _prepared(instance, exemptions: bool) -> bytes:
    try:
        canonical, rows, removed = prepare(instance)
        out = repr((rows, removed, canonical.weights, canonical.unit_costs))
    except EmptyInstance as exc:
        out = repr(str(exc))
    if exemptions:
        out += repr([filter_survivors(instance, exempt) for exempt in range(instance.n)])
    return out.encode() + b"\n"


def _filter_corpus():
    """Raw instances: sweep draws at several budget scales, cascades, ties, large filtering ones."""
    unit = ValueInterval(0.0, 1.0)
    for weights in WEIGHT_DISTRIBUTIONS:
        for costs in COST_DISTRIBUTIONS:
            config = SweepConfig(n_range=(2, 20), rng_seed=29, weight_distribution=weights,
                                 cost_distribution=costs)
            for index in range(60):
                rng = np.random.default_rng(np.random.SeedSequence((29, index, 0)))
                n = int(rng.integers(2, 21))
                w = verify._draw_weights(weights, n, rng)
                v = verify._draw_costs(costs, n, rng)
                budget = verify._draw_budget(config, w, v, rng)
                for scale in (1.0, 0.5, 0.2, 0.05):
                    raw = AuctionInstance(
                        tuple(w.tolist()), tuple(v.tolist()), budget * scale, unit
                    )
                    yield raw
                    if weights == costs == "integer-grid":
                        yield raw.to_rational()
    for n in (2, 3, 10, 200, 3000):
        # unit weights, budget 1: one individual leaves per round until two are left
        yield AuctionInstance((1.0,) * n, tuple(m - 0.5 for m in range(3, n + 1)) + (0.5, 1.0), 1.0,
                              unit)
    for n in (2, 3, 10, 200):
        geometric = tuple(2.0**-i for i in range(n)), tuple(4.0**i for i in range(n))
        yield AuctionInstance(*geometric, 1.0, unit)
    rng = np.random.default_rng(31)
    for n in (4, 9, 40):
        for cost in (0.0, 1.0, 3.0):
            # equal keys: equal weights and costs, beside a few others
            weights = [2.0] * n + rng.integers(1, 5, 3).astype(float).tolist()
            costs = [cost] * n + rng.integers(0, 9, 3).astype(float).tolist()
            for budget in (0.1, 0.5, 1.0, 4.0):
                yield AuctionInstance(tuple(weights), tuple(costs), budget, unit)
    for _ in range(6):
        # pipeline-sized: the budget sits at a high quantile of the tight payments
        n = 5000
        w = rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
        v = rng.lognormal(0.0, 1.0, n)
        wabs = np.abs(w)
        thresholds = wabs * v / (wabs.sum() - wabs)
        budget = float(np.quantile(thresholds, 1.0 - rng.uniform(0.02, 0.08)))
        yield AuctionInstance(tuple(w.tolist()), tuple(v.tolist()), budget, unit)


def prepare_family():
    for instance in _filter_corpus():
        yield _prepared(instance, exemptions=instance.n <= 20)


def _csv_texts():
    """Feature files: unquoted and quoted, with and without header and ids, and broken ones."""
    rng = np.random.default_rng(37)
    for rows, cols in ((1, 1), (4, 3), (60, 8)):
        matrix = rng.normal(size=(rows, cols)).tolist()
        cells = [[repr(x) for x in row] for row in matrix]
        header = [f"f{j}" for j in range(cols)]
        ids = [f"r{i}" for i in range(rows)]
        for with_header in (False, True):
            for with_ids in (False, True):
                table = [["id", *header] if with_ids else header] if with_header else []
                table += [[ids[i]] + row if with_ids else row for i, row in enumerate(cells)]
                plain = "\n".join(",".join(row) for row in table) + "\n"
                yield plain, with_ids
                yield plain.replace("\n", "\r\n"), with_ids
                yield "\n\n".join(",".join(row) for row in table), with_ids
                buffer = StringIO()
                csv.writer(buffer, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(table)
                yield buffer.getvalue(), with_ids
    spellings = [" 1.5 ", "1_0", "nan", "inf", "-inf", "-0", "+2", ".5", "1e-400", "1e400", "\t3"]
    yield ",".join(spellings) + "\n" + ",".join(reversed(spellings)) + "\n", False
    broken = [
        "", "\n\n", "a,b\n", "a,b\n1,2\n3\n", "1,2\n3,x\n", "1,2\n3,\n", "x,1\n1,2\n",
        '"a,b",c\n1,2\n', '1,"2,5"\n', '"1","2"\n"3"\n', "id\nr0\n", "1;2\n3;4\n",
        "1, 2\n3 ,4\n", " \n1,2\n",
    ]
    for text in broken:
        yield text, False
        yield text, True


def csv_family():
    for text, id_column in _csv_texts():
        try:
            ids, matrix = load_feature_csv(StringIO(text), id_column=id_column)
            out = repr((ids, matrix.shape)).encode() + matrix.tobytes()
        except ParseError as exc:
            out = repr(str(exc)).encode()
        yield out + b"\n"


def _estimator_instances():
    """Seeded instances: signed lognormal floats, their `Fraction` views, integer grids, n to 60."""
    rng = np.random.default_rng(41)
    intervals = (ValueInterval(0.0, 1.0), ValueInterval(-1.0, 2.5))
    for index in range(120):
        n = int(rng.integers(1, 13)) if index % 10 else int(rng.choice([26, 40, 60]))
        if index % 3 == 2:
            weights = (rng.integers(1, 10, n) * rng.choice([-1, 1], n)).astype(float)
        else:
            weights = rng.lognormal(0.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
        costs = np.sort(rng.uniform(0.0, 2.0, n))
        instance = AuctionInstance(
            tuple(weights.tolist()), tuple(costs.tolist()), float(rng.uniform(0.1, 3.0)),
            intervals[index % 2],
        )
        yield rng, instance
        if index % 3:
            yield rng, instance.to_rational()


def _databases(rng, instance):
    """In-range and corner databases, then one entry out of range and one too short."""
    lo, hi = instance.interval.r_min, instance.interval.r_max
    n = instance.n
    inside = (lo + (hi - lo) * rng.uniform(0.0, 1.0, n)).tolist()
    corners = [lo if bit else hi for bit in rng.integers(0, 2, n)]
    outside = list(inside)
    outside[int(rng.integers(0, n))] = hi + 0.5
    yield tuple(inside)
    yield tuple(corners)
    if instance.exact:
        yield tuple(map(Fraction, inside))
    yield tuple(outside)
    yield tuple(inside[:-1])


def _estimators(rng, instance):
    """Two Dclefs (random flags, everyone out) and two Lefs (midpoint and random anchors)."""
    n, exact = instance.n, instance.exact
    yield Dclef(instance, tuple(int(b) for b in rng.integers(0, 2, n)))
    yield Dclef(instance, (0,) * n)
    x = [float(v) for v in rng.choice([0.0, 0.25, 0.5, 1.0], n)]
    sigma = float(rng.choice([0.0, 0.5, 3.0]))
    if exact:
        x, sigma = list(map(Fraction, x)), Fraction(sigma)
    yield Lef(instance, tuple(x), sigma)
    lo, hi = instance.interval.r_min, instance.interval.r_max
    anchors = (lo + (hi - lo) * rng.uniform(0.0, 1.0, n)).tolist()
    yield Lef(instance, tuple(x), sigma, anchors=tuple(anchors))


def _outcome(call) -> str:
    try:
        return repr(call())
    except PrivauctionError as exc:
        return repr((type(exc).__name__, str(exc)))


def estimator():
    for rng, instance in _estimator_instances():
        n = instance.n
        out = []
        for est in _estimators(rng, instance):
            seed = int(rng.integers(0, 2**31))
            out += [_outcome(lambda: evaluate(est, db, seed)) for db in _databases(rng, instance)]
            if n <= 14:
                out.append(_outcome(lambda: privacy_index_exact(est)))
            out.append(_outcome(lambda: privacy_index_greedy(est)))
            if isinstance(est, Dclef):
                n0 = n + int(rng.integers(0, 4))
                rows = tuple(rng.permutation(n0)[:n].tolist())
                out.append(json.dumps(est.to_json(rows, n0), sort_keys=True))
                out.append(json.dumps(est.to_json(), sort_keys=True))
        for alpha in (0.1, 0.3, 0.5, 0.9):
            shielded = tradeoff_construct(instance, alpha)
            report = check_tradeoff_bound(shielded, alpha)
            out.append(repr(shielded.x) + repr(report) + json.dumps(report.to_json(), sort_keys=True))
        yield "\n".join(out).encode() + b"\n"


FAMILIES = {
    "truthfulness": truthfulness,
    "approximation": approximation,
    "criterion-3": criterion_3,
    "cli": cli,
    "oracle": oracle,
    "commands": commands,
    "prepare": prepare_family,
    "csv": csv_family,
    "kernel": kernel,
    "estimator": estimator,
}


def main_digest() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--family", action="append", choices=sorted(FAMILIES),
                        help="digest only this family (repeatable); default: all")
    args = parser.parse_args()
    for name in args.family or FAMILIES:
        digest, parts = hashlib.sha256(), 0
        for part in FAMILIES[name]():
            digest.update(part)
            parts += 1
        print(f"{name:<14} {digest.hexdigest()}  ({parts} outputs)")


if __name__ == "__main__":
    main_digest()
