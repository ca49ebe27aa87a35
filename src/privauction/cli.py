"""Command-line front end: ingestion, weight derivation, auction runs, verification.

Exit codes are a stable contract: 0 success, 1 input problem (a malformed
command line too), 2 empty instance after filtering, 3 property failure.
stdout carries only the report; diagnostics and machine-readable error JSON
go to stderr. All randomness flows from --seed. Every report names
individuals by their row in the input file, through the row map of
`instances.prepare`.
"""

import csv
import io
import json
import sys
from contextlib import contextmanager

import click
import numpy as np

from .errors import DegenerateAllOnes, EmptyInstance, PrivauctionError, ValidationError
from .estimator import evaluate
from .instances import (
    ValueInterval, _double, _json_float, _load_json, parse_database, parse_instance, prepare
)
from .mechanism import fair_inner_product
from .optimal import brute_force_opt, fractional_optimum
from .predictors import FeatureSet, WeightSpec, build_instance, load_feature_csv
from .verify import (
    SweepConfig, _check_approximation, _check_truthfulness, run_approximation_sweep,
    run_truthfulness_sweep,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EMPTY = 2
EXIT_PROPERTY = 3


def _dumps(value, pad: str = "") -> str:
    """The text ``json.dumps`` gives with sorted keys and a two-space indent, at ``pad``.

    Any ``indent`` makes the json module use its pure-Python encoder, so the
    dicts and lists of containers are laid out here and each list of scalars
    is encoded by one call to the C encoder, whose item separator carries the
    newline and indent. Dict keys must be strings.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{json.encoder.encode_basestring_ascii(key)}: {_dumps(item, inner)}"
            for key, item in sorted(value.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if any(issubclass(kind, (list, tuple, dict)) for kind in set(map(type, value))):
            body = (",\n" + inner).join(_dumps(item, inner) for item in value)
        else:
            body = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode(value)[1:-1]
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(value)


def _emit_json(data: dict) -> None:
    click.echo(_dumps(data))


def _emit(output: str, report: dict, csv_rows) -> None:
    """Print ``report`` as JSON, or the rows that ``csv_rows()`` gives as CSV."""
    if output == "json":
        _emit_json(report)
        return
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(csv_rows())
    click.echo(buffer.getvalue(), nl=False)


def _fail(code: int, error: Exception) -> None:
    payload = {"error": type(error).__name__, "message": str(error)}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


@contextmanager
def _exit_codes():
    """Map the errors raised inside onto the exit codes.

    A malformed command line (an unknown command or option, a bad option
    value, a missing argument) exits 1 as a UsageError, with click's message.
    An empty instance exits 2 and any other package error 1. A ValueError is
    a malformed value in the input (a number on the command line, a file that
    is not UTF-8) and exits 1 as a ValidationError.
    """
    try:
        yield
    except click.UsageError as exc:
        _fail(EXIT_INPUT, click.UsageError(exc.format_message()))
    except PrivauctionError as exc:
        _fail(EXIT_EMPTY if isinstance(exc, EmptyInstance) else EXIT_INPUT, exc)
    except ValueError as exc:
        _fail(EXIT_INPUT, ValidationError(str(exc)))


class _Commands(click.Group):
    """The command group; it maps its own and every command's errors onto the exit codes.

    The group's options are parsed in `parse_args`; the command name and the
    command's own line are parsed, and the command runs, in `invoke`.
    """

    def parse_args(self, ctx, args):
        with _exit_codes():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


def _load(path, arithmetic: str):
    """Load, parse, filter and canonicalize an instance file.

    Returns the parsed instance, the canonical survivor instance, ``rows``
    (canonical position to input row), the removed rows and the database.
    """
    document = _load_json(path)
    instance = parse_instance(document)
    database = parse_database(document, instance)
    if arithmetic == "rational":
        instance = instance.to_rational()
    canonical, rows, removed = prepare(instance)
    return instance, canonical, rows, removed, database


@click.group(cls=_Commands, no_args_is_help=False)
def main() -> None:
    """Privacy auctions for weighted linear predictors."""


@main.command("run")
@click.argument("instance_path", type=click.Path())
@click.option("--compare-opt", is_flag=True, help="Also report the oracle, the relaxation, and their ratio.")
@click.option("--database", "use_database", is_flag=True, help="Evaluate the released estimator on the embedded database block.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the sampled estimate.")
@click.option("--output", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--arithmetic", type=click.Choice(["float", "rational"]), default="float", show_default=True)
def cmd_run(instance_path, compare_opt, use_database, seed, output, arithmetic):
    """Run the auction on an instance file and print the outcome."""
    original, canonical, rows, removed, database = _load(instance_path, arithmetic)
    outcome = fair_inner_product(canonical, identity=rows)
    n0 = original.n
    report = outcome.to_json(rows, n0)
    report["removed"] = removed
    if compare_opt:
        oracle = brute_force_opt(canonical)
        report["oracle"] = oracle.to_json(rows, n0)
        try:
            report["fractional"] = fractional_optimum(canonical).to_json(rows, n0)
        except DegenerateAllOnes as exc:
            report["fractional"] = {"error": type(exc).__name__, "message": str(exc)}
        report["ratio"] = _json_float(_double(oracle.objective) / _double(outcome.objective))
    if use_database:
        if database is None:
            raise ValidationError("instance file has no database block")
        report["estimate"] = _json_float(evaluate(outcome.dclef, database.subset(rows), seed))
        report["seed"] = seed

    dclef = report["dclef"]
    _emit(output, report, lambda: [("index", "weight", "unit_cost", "x", "payment", "epsilon")] + [
        (i, f"{float(w):.12g}", f"{float(v):.12g}", x, f"{float(p):.12g}", f"{float(e):.12g}")
        for i, (w, v, x, p, e) in enumerate(zip(
            original.weights, original.unit_costs, dclef["x"], report["payments"], dclef["epsilons"]
        ))
    ])


@main.command("verify")
@click.argument("config_path", type=click.Path(), required=False)
@click.option("--mutate", default=None, help="Fault injection, e.g. payment-scale:0.9.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--instances", type=int, default=None, help="Override the instance count.")
@click.option("--arithmetic", type=click.Choice(["float", "rational"]), default=None, help="Override the config arithmetic mode.")
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True, help="Worker processes, capped at the CPU count.")
@click.option("--skip-approximation", is_flag=True, help="Run only the truthfulness sweep.")
@click.option("--output", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_verify(config_path, mutate, seed, instances, arithmetic, threads, skip_approximation, output):
    """Run property sweeps; exit 0 only when every property holds everywhere."""
    data = _load_json(config_path) if config_path else {}
    overrides = {"rng_seed": seed, "instance_count": instances, "arithmetic_mode": arithmetic}
    if isinstance(data, dict):  # anything else is rejected by from_json
        data.update((key, value) for key, value in overrides.items() if value is not None)
    config = SweepConfig.from_json(data)
    _check_truthfulness(config, mutate)  # every sweep's limits, before any sweep starts
    if not skip_approximation:
        _check_approximation(config)
    truthfulness = run_truthfulness_sweep(config, mutation=mutate, threads=threads)
    reports = {"truthfulness": truthfulness.to_json()}
    approximation = None
    if not skip_approximation:
        approximation = run_approximation_sweep(config, threads=threads)
        reports["approximation"] = approximation.to_json()

    ok = truthfulness.ok and (approximation is None or approximation.ok)
    # a truthfulness report has no ratio rows: its CSV is the header alone
    _emit(output, {"ok": ok, "reports": reports}, (approximation or truthfulness).csv_rows)
    if not ok:
        witnesses = truthfulness.failures + (approximation.failures if approximation else [])
        click.echo(json.dumps({"witnesses": witnesses[:10]}, sort_keys=True), err=True)
        sys.exit(EXIT_PROPERTY)


@main.command("weights")
@click.argument("features_csv", type=click.Path())
@click.option("--query", default=None, help="Comma-separated query features.")
@click.option("--query-csv", type=click.Path(), default=None, help="Single-row CSV with the query features.")
@click.option("--method", type=click.Choice(["knn", "nadaraya-watson", "ridge", "kernel-regression"]), required=True)
@click.option("--k", type=int, default=None, help="Neighbor count for knn.")
@click.option("--kernel", type=click.Choice(["gaussian", "linear"]), default="gaussian", show_default=True)
@click.option("--bandwidth", type=float, default=1.0, show_default=True)
@click.option("--lam", type=float, default=None, help="Regularization strength for ridge / kernel regression.")
@click.option("--drop-tol", type=float, default=1e-12, show_default=True, help="Relative magnitude below which weights are dropped.")
@click.option("--id-column", is_flag=True, help="Treat the first CSV column as row ids.")
@click.option("--costs", default=None, help="Comma-separated unit costs, one per feature row.")
@click.option("--budget", type=float, default=None)
@click.option("--r-min", type=float, default=0.0, show_default=True)
@click.option("--r-max", type=float, default=1.0, show_default=True)
@click.option("--output", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_weights(features_csv, query, query_csv, method, k, kernel, bandwidth, lam,
                drop_tol, id_column, costs, budget, r_min, r_max, output):
    """Derive predictor weights from feature data; optionally emit a full instance."""
    # every option is checked before any file is read
    if (query is None) == (query_csv is None):
        raise ValidationError("provide exactly one of --query or --query-csv")
    if (costs is None) != (budget is None):
        raise ValidationError("--costs and --budget must be given together")
    query_vector = None if query is None else list(map(float, query.split(",")))
    cost_values = None if costs is None else list(map(float, costs.split(",")))
    spec = WeightSpec(
        method=method, k=k, kernel=kernel, bandwidth=bandwidth, lam=lam, drop_tol=drop_tol
    )
    _, matrix = load_feature_csv(features_csv, id_column=id_column)
    if query_vector is None:
        _, query_matrix = load_feature_csv(query_csv, id_column=False)
        if query_matrix.shape[0] != 1:
            raise ValidationError("query CSV must contain exactly one row")
        query_vector = list(query_matrix[0])
    # overflow reads as inf or NaN and fails a check; numpy's warning would
    # print before the error JSON, and stderr carries that JSON alone
    with np.errstate(all="ignore"):
        derived = spec.derive(FeatureSet(matrix, query_vector))
    report = derived.to_json()
    if cost_values is not None:
        instance = build_instance(derived, cost_values, budget, ValueInterval(r_min, r_max))
        report.update(instance.to_json())
    _emit(output, report, derived.csv_rows)


def _emit_solution(instance_path, arithmetic, output, solve, x_column: str) -> None:
    """Print ``solve``'s solution of the filtered instance by row; ``x_column`` names its x."""
    original, canonical, rows, removed, _ = _load(instance_path, arithmetic)
    report = solve(canonical).to_json(rows, original.n)
    report["removed"] = removed
    _emit(output, report, lambda: [("index", x_column, "payment")] + [
        (i, f"{float(x):.12g}", f"{float(payment):.12g}")
        for i, (x, payment) in enumerate(zip(report[x_column], report["payments"]))
    ])


@main.command("oracle")
@click.argument("instance_path", type=click.Path())
@click.option("--arithmetic", type=click.Choice(["float", "rational"]), default="float", show_default=True)
@click.option("--output", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_oracle(instance_path, arithmetic, output):
    """Exact integer optimum of the filtered instance (desk scale only)."""
    _emit_solution(instance_path, arithmetic, output, brute_force_opt, "x")


@main.command("fractional")
@click.argument("instance_path", type=click.Path())
@click.option("--arithmetic", type=click.Choice(["float", "rational"]), default="float", show_default=True)
@click.option("--output", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_fractional(instance_path, arithmetic, output):
    """Closed-form continuous optimum of the filtered instance."""
    _emit_solution(instance_path, arithmetic, output, fractional_optimum, "x_star")


if __name__ == "__main__":
    main()
