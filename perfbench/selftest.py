"""Self-test of the benchmark's own machinery.

Usage, from the repository root: ``python3 perfbench/selftest.py``

On two ops of every workload, from one seed, it checks that:
- the program's outputs are byte-identical with and without tracing;
- every name the tracer rebinds is restored afterwards;
- the traced layers are reached, and the per-layer self times plus the op's
  remainder add up to the traced op time;
- the output checks reject deliberately corrupted outputs;
- BENCHMARK.json lists exactly the workloads and metrics the benchmark prints.
Prints one line per check and exits non-zero if any fails.
"""

import copy
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import privauction.cli  # noqa: E402,F401

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, check_weights, check_run_report, check_sweep, no_tag  # noqa: E402

SEED = 7
OPS = {"pipeline": (0, 5), "sweep-truthful": (0, 1), "sweep-oracle": (0, 1)}  # op 5: knn, filtering
REACHED = {
    "pipeline": ("predictors.derive_s", "cli.run_self_s", "instances.filter_s", "estimator.evaluate_s"),
    "sweep-truthful": ("instances.validate_s.float", "instances.validate_s.rational", "verify.sweep_self_s"),
    "sweep-oracle": ("optimal.brute_force_opt_s", "optimal.kkt_certificate_s", "verify.sweep_self_s"),
}
failures = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def bindings() -> dict:
    """Every name in privauction modules, their classes and the CLI callbacks."""
    out = {}
    for module in spans.privauction_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                out.update({(value, k): v for k, v in vars(value).items()})
    for name, command in privauction.cli.main.commands.items():
        out[(name, "callback")] = command.callback
    return out


def check_tracing(name: str, workload) -> None:
    ops = OPS[name]
    plain = [workload.output_bytes(workload.run(i, no_tag)) for i in ops]
    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = []
        for i in ops:
            with tracer.op(i):
                outputs = workload.run(i, tracer.tagged)
            traced.append(workload.output_bytes(outputs))
    finally:
        tracer.uninstall()
    expect(plain == traced, f"{name}: outputs byte-identical with and without tracing")
    after = bindings()
    expect(
        before.keys() == after.keys() and all(after[k] is v for k, v in before.items()),
        f"{name}: every rebound name restored",
    )
    expect(not spans.leftover_wrappers(), f"{name}: no wrapper left bound")

    metrics = spans.layer_metrics(tracer.arrays(), len(ops), 0.0)
    expect(all(metrics[m][0] > 0 for m in REACHED[name]), f"{name}: traced layers reached")
    layer_sum = sum(
        metrics[metric][0] for metric, _, kind, _ in spans.LAYER_METRICS if kind == "self"
    ) + metrics["bench.op_self_s"][0]
    op_s = metrics["bench.op_s"][0]
    expect(math.isclose(layer_sum, op_s, rel_tol=1e-9), f"{name}: self times add up to op time")
    if name == "sweep-truthful":
        whole = metrics["instances.validate_s"][0]
        halves = metrics["instances.validate_s.float"][0] + metrics["instances.validate_s.rational"][0]
        expect(math.isclose(whole, halves, rel_tol=1e-9), f"{name}: float and rational halves add up")


def rejects(errors: list, what: str) -> None:
    expect(bool(errors), f"checks reject {what}")


def check_pipeline_checks(workload) -> None:
    index = OPS["pipeline"][1]
    outputs = workload.run(index)
    expect(workload.check(index, outputs) == [], "pipeline: correct outputs pass the checks")
    spec = workload.ops[index]
    doc = json.loads(outputs["weights"])
    report = json.loads(outputs["run"])
    expect(len(report["removed"]) > 0, "pipeline: the filtering op removes rows")
    raw = workload.reference(spec)

    bad = copy.deepcopy(doc)
    bad["weights"][0] *= 1.001
    rejects(check_weights(bad, spec, raw), "a weight off its reference")
    bad = copy.deepcopy(doc)
    bad["dropped"].append(bad["kept"].pop())
    rejects(check_weights(bad, spec, raw), "kept and dropped that overlap")

    def corrupted(keys: list, value) -> list:
        """The run-report checks after one field of the report is overwritten."""
        bad = copy.deepcopy(report)
        holder = bad
        for key in keys[:-1]:
            holder = holder[key]
        holder[keys[-1]] = value
        return check_run_report(bad, doc["weights"], doc["unit_costs"], doc["budget"])

    selected, removed = report["O"][0], report["removed"][0]
    payment, epsilon = report["payments"][selected], report["dclef"]["epsilons"][selected]
    rejects(corrupted(["payments", selected], payment + doc["budget"]), "payments over the budget")
    rejects(corrupted(["payments", selected], 0.0), "a payment below the privacy cost")
    rejects(corrupted(["dclef", "epsilons", selected], epsilon * 1.01), "a wrong epsilon")
    rejects(corrupted(["payments", removed], 1e-9), "a paid removed row")
    rejects(corrupted(["estimate"], math.nan), "a non-finite estimate")


def check_sweep_checks(workload) -> None:
    report = workload.run(0)["report"]
    expect(check_sweep(report, 10, 5.0) == [], "sweep-oracle: correct report passes the checks")
    bad = copy.deepcopy(report)
    bad.instances_run -= 1
    rejects(check_sweep(bad, 10, 5.0), "a short batch")
    bad = copy.deepcopy(report)
    bad.worst_ratio = 5.5
    rejects(check_sweep(bad, 10, 5.0), "a ratio above 5")
    bad = copy.deepcopy(report)
    next(iter(bad.tallies.values())).failed = 1
    rejects(check_sweep(bad, 10, 5.0), "a failed property")


def check_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    sample = {"times": [1.0, 2.0], "setup_samples": [1.0], "tail_percentile": 70,
              "work": 1, "peak_rss_mb": 1.0}
    printed = {name: unit for name, (_, unit) in run.end_to_end(sample).items()}
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == printed,
           "BENCHMARK.json end_to_end metrics and units")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == dict(spans.per_layer_names()),
           "BENCHMARK.json per_layer metrics and units")


def main() -> None:
    directory = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        for name, cls in WORKLOADS.items():
            inputs = directory / name
            inputs.mkdir(parents=True)
            cls.generate(SEED, inputs)
            workload = cls(inputs)
            workload.load_ops()
            check_tracing(name, workload)
            if name == "pipeline":
                check_pipeline_checks(workload)
            if name == "sweep-oracle":
                check_sweep_checks(workload)
        check_benchmark_json()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if failures:
        raise SystemExit(f"{len(failures)} self-test checks failed")
    print("all self-test checks passed")


if __name__ == "__main__":
    main()
