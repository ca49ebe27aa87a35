"""Seeded inputs, ops and independent output checks for each workload.

Each workload class has two halves. ``generate`` runs in the benchmark's
parent process and writes every input an op needs from the workload seed,
before anything is timed. The rest runs in the workload's own process: the
constructor loads the warm-up inputs, ``warm_up`` primes the program,
``load_ops`` loads the op inputs, ``run`` is one timed op through the public
API and returns the program's raw outputs, and ``check`` verifies them
against references computed here, not against the program's own verdict.
"""

import io
import json
import math
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

FEATURE_ROWS = 5000
FEATURE_COLS = 8
WARMUP_ROWS = 300
PIPELINE_POOL = 48  # op inputs generated per run; the op loop cycles through them
SWEEP_POOL = 200
INTERVAL = (0.0, 1.0)
REL_TOL = 1e-9
DROP_TOLERANCE = 1e-12  # the program's default relative drop threshold

TRUTHFUL_FLOAT = {
    "n_range": [2, 10],
    "instance_count": 20,
    "weight_distribution": "signed",
    "cost_distribution": "uniform",
    "budget_rule": "scaled:0.25,4.0",
    "arithmetic_mode": "float",
}
TRUTHFUL_RATIONAL = {
    "n_range": [2, 8],
    "instance_count": 8,
    "weight_distribution": "integer-grid",
    "cost_distribution": "integer-grid",
    "budget_rule": "scaled:0.25,4.0",
    "arithmetic_mode": "rational",
}
ORACLE = {
    "n_range": [14, 20],
    "instance_count": 10,
    "weight_distribution": "signed",
    "cost_distribution": "uniform",
    "budget_rule": "scaled:0.25,4.0",
    "arithmetic_mode": "float",
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def no_tag(_name):
    return nullcontext()


# --- pipeline references ------------------------------------------------------

def reference_weights(matrix: np.ndarray, query: np.ndarray, method: str, param: float) -> np.ndarray:
    """Raw predictor weights by the textbook formulas, in plain numpy."""
    if method == "ridge":
        gram = matrix.T @ matrix + param * np.eye(matrix.shape[1])
        return matrix @ np.linalg.solve(gram, query)
    squared = ((matrix - query) ** 2).sum(axis=1)
    if method == "nadaraya-watson":
        similarity = np.exp(-squared / param**2)
        return similarity / similarity.sum()
    raw = np.zeros(len(matrix))
    raw[np.argsort(np.sqrt(squared), kind="stable")[: int(param)]] = 1.0 / int(param)
    return raw


def _kept_mask(raw: np.ndarray) -> np.ndarray:
    return (np.abs(raw) > DROP_TOLERANCE * np.abs(raw).sum()) & (raw != 0)


def _removed_by_filter(wabs: np.ndarray, costs: np.ndarray, budget: float) -> int:
    """Survivor count lost to the affordability fixed point (generation only)."""
    alive = np.ones(len(wabs), dtype=bool)
    while alive.any():
        total = wabs[alive].sum()
        violators = alive & ((total - wabs <= 0) | (wabs * costs > budget * (total - wabs)))
        if not violators.any():
            break
        alive &= ~violators
    return int(len(wabs) - alive.sum())


def _pipeline_budget(raw, costs, filtering: bool, rng) -> float:
    """Budget that filters nobody, or that makes the filter cascade remove a few percent."""
    kept = _kept_mask(raw)
    wabs, v = np.abs(raw[kept]), costs[kept]
    thresholds = wabs * v / (wabs.sum() - wabs)
    if not filtering:
        return float(thresholds.max() * rng.uniform(1.05, 2.0))
    budget = float(np.quantile(thresholds, 1.0 - rng.uniform(0.02, 0.08)))
    while _removed_by_filter(wabs, v, budget) > 0.4 * len(wabs):
        budget *= 1.15
    return budget


def _pipeline_op(matrix, method: str, rng, filtering: bool) -> tuple[dict, np.ndarray, np.ndarray]:
    """One op's parameters, plus its per-row costs and database entries."""
    if method == "ridge":
        param, flags = float(rng.uniform(0.1, 10.0)), ["--lam"]
    elif method == "nadaraya-watson":
        param, flags = float(rng.uniform(0.7, 1.2)), ["--bandwidth"]
    else:
        param, flags = int(rng.integers(len(matrix) // 10, len(matrix) // 2)), ["--k"]
    query = rng.normal(size=matrix.shape[1]) * 0.8
    costs = rng.lognormal(0.0, 1.0, len(matrix))
    raw = reference_weights(matrix, query, method, param)
    spec = {
        "method": method,
        "param": param,
        "flags": flags,
        "query": query.tolist(),
        "budget": _pipeline_budget(raw, costs, filtering, rng),
        "seed": int(rng.integers(0, 2**31)),
    }
    return spec, costs, rng.uniform(*INTERVAL, len(matrix))


def _write_ops(directory: Path, name: str, ops: list) -> None:
    specs, costs, database = zip(*ops)
    (directory / f"{name}.json").write_text(json.dumps(specs))
    np.savez(directory / f"{name}.npz", costs=np.stack(costs), database=np.stack(database))


def _write_features(path: Path, matrix: np.ndarray) -> None:
    lines = [",".join(f"f{j}" for j in range(matrix.shape[1]))]
    lines += [",".join(repr(float(v)) for v in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n")


def check_weights(doc: dict, spec: dict, raw: np.ndarray) -> list[str]:
    errors = []
    n = len(raw)
    kept, dropped = doc["kept"], doc["dropped"]
    if sorted(kept + dropped) != list(range(n)) or len(set(kept)) != len(kept):
        return ["weights: kept and dropped do not partition the rows"]
    weights = np.asarray(doc["weights"], dtype=float)
    scale = np.abs(raw).max()
    if len(weights) != len(kept) or np.any(np.abs(weights - raw[kept]) > REL_TOL * scale):
        errors.append(f"weights: {spec['method']} differs from the numpy reference")
    threshold = DROP_TOLERANCE * np.abs(raw).sum()
    if dropped and np.abs(raw[dropped]).max() > threshold * (1 + 1e-6):
        errors.append("weights: a non-negligible weight was dropped")
    if doc["unit_costs"] != spec["costs"][kept].tolist() or doc["budget"] != spec["budget"]:
        errors.append("weights: emitted instance does not carry the given costs and budget")
    return errors


def check_run_report(report: dict, weights, costs, budget: float) -> list[str]:
    """Budget, IR, epsilon accounting and removal invariants of a run report."""
    errors = []
    n = len(weights)
    payments = report["payments"]
    x = report["dclef"]["x"]
    eps = report["dclef"]["epsilons"]
    removed = set(report["removed"])
    if not (len(payments) == len(x) == len(eps) == n):
        return ["run: report length does not match the instance"]
    if sum(payments) > budget * (1 + REL_TOL):
        errors.append(f"run: payments {sum(payments)!r} exceed the budget {budget!r}")
    wabs = [abs(w) for w in weights]
    residual = sum(wabs[i] for i in range(n) if i not in removed and not x[i])
    for i in range(n):
        if i in removed:
            if payments[i] != 0 or x[i] != 0 or eps[i] != 0:
                errors.append(f"run: removed row {i} has nonzero payment, x or epsilon")
            continue
        expected = wabs[i] * x[i] / residual
        if abs(eps[i] - expected) > REL_TOL * expected:
            errors.append(f"run: epsilon of row {i} is {eps[i]!r}, expected {expected!r}")
        if payments[i] < costs[i] * eps[i] * (1 - REL_TOL):
            errors.append(f"run: row {i} is paid below its privacy cost")
    if not math.isfinite(report.get("estimate", math.nan)):
        errors.append("run: the estimate is not finite")
    return errors[:5]


class Pipeline:
    """Analyst job: ``weights`` on a 5,000 x 8 feature file, then ``run --database``."""

    name = "pipeline"
    tail_percentile = 70
    work_per_op = FEATURE_ROWS
    methods = ("ridge", "nadaraya-watson", "knn")

    @classmethod
    def generate(cls, seed: int, directory: Path) -> None:
        rng = _rng(seed, 1)
        matrix = rng.normal(size=(FEATURE_ROWS, FEATURE_COLS))
        _write_features(directory / "features.csv", matrix)
        # ops alternate in threes: all three methods unfiltered, then filtered
        ops = [
            _pipeline_op(matrix, cls.methods[i % 3], rng, filtering=(i // 3) % 2 == 1)
            for i in range(PIPELINE_POOL)
        ]
        _write_ops(directory, "ops", ops)
        warm = _rng(seed, 2)
        small = warm.normal(size=(WARMUP_ROWS, FEATURE_COLS))
        _write_features(directory / "warmup.csv", small)
        warmups = [_pipeline_op(small, method, warm, filtering=False) for method in cls.methods]
        _write_ops(directory, "warmup", warmups)

    def __init__(self, directory: Path):
        from privauction.cli import main

        self.directory = directory
        self.main = main
        # one pair of streams for every call: click caches a wrapper per stream object
        self.stdout, self.stderr = io.StringIO(), io.StringIO()
        self.warmups = self._specs("warmup")

    def _specs(self, name: str) -> list[dict]:
        specs = json.loads((self.directory / f"{name}.json").read_text())
        arrays = np.load(self.directory / f"{name}.npz")
        for spec, costs, database in zip(specs, arrays["costs"], arrays["database"]):
            spec.update(costs=costs, database=database)
            spec["args"] = self._weights_args(spec)
        return specs

    def load_ops(self) -> None:
        self.ops = self._specs("ops")
        self.matrix = np.loadtxt(self.directory / "features.csv", delimiter=",", skiprows=1)

    @staticmethod
    def _weights_args(spec: dict) -> list[str]:
        return [
            "--method", spec["method"],
            spec["flags"][0], repr(spec["param"]),
            "--query", ",".join(repr(q) for q in spec["query"]),
            "--costs", ",".join(map(repr, spec["costs"].tolist())),
            "--budget", repr(spec["budget"]),
        ]

    def _invoke(self, args: list[str]) -> tuple[int, str, str]:
        """``privauction <args>`` in this process: exit code, stdout, stderr."""
        for stream in (self.stdout, self.stderr):
            stream.seek(0)
            stream.truncate()
        with redirect_stdout(self.stdout), redirect_stderr(self.stderr):
            try:
                self.main.main(args, prog_name="privauction", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
        return code, self.stdout.getvalue(), self.stderr.getvalue()

    def _op(self, spec: dict, features: str) -> dict:
        code, weights, error = self._invoke(["weights", features, *spec["args"]])
        if code != 0:
            return {"exit": ("weights", code, error)}
        doc = json.loads(weights)
        doc["database"] = spec["database"][doc["kept"]].tolist()
        instance = self.directory / "instance.json"
        instance.write_text(json.dumps(doc))
        code, run, error = self._invoke(
            ["run", str(instance), "--database", "--seed", str(spec["seed"])]
        )
        if code != 0:
            return {"exit": ("run", code, error)}
        return {"weights": weights.encode(), "run": run.encode()}

    def warm_up(self) -> None:
        for spec in self.warmups:
            self._op(spec, str(self.directory / "warmup.csv"))

    def run(self, index: int, tag=no_tag) -> dict:
        return self._op(self.ops[index % len(self.ops)], str(self.directory / "features.csv"))

    def reference(self, spec: dict) -> np.ndarray:
        return reference_weights(self.matrix, np.asarray(spec["query"]), spec["method"], spec["param"])

    def check(self, index: int, outputs: dict) -> list[str]:
        if "exit" in outputs:
            return [f"{outputs['exit'][0]} exited {outputs['exit'][1]}: {outputs['exit'][2][:200]}"]
        spec = self.ops[index % len(self.ops)]
        doc = json.loads(outputs["weights"])
        errors = check_weights(doc, spec, self.reference(spec))
        report = json.loads(outputs["run"])
        return errors + check_run_report(report, doc["weights"], doc["unit_costs"], doc["budget"])

    @staticmethod
    def output_bytes(outputs: dict) -> bytes:
        if "exit" in outputs:
            return repr(outputs["exit"]).encode()
        return outputs["weights"] + b"\0" + outputs["run"]


# --- sweeps -------------------------------------------------------------------

def _sweep_configs(seed: int, stream: int, template: dict, count: int, cost=None) -> list[dict]:
    """Batch configs with seeds drawn from the workload seed.

    With ``cost`` (the work of one instance as a function of its size n), a
    seed is kept only when its batch's total work is within 5% of the
    expected total, so every op carries the same load and the run-to-run
    spread measures the program rather than the mix of instance sizes. The
    size of each instance is its first draw in ``verify.generate_instance``;
    should the program draw differently, the selection loses its effect but
    the inputs stay valid.
    """
    rng = _rng(seed, stream)
    lo, hi = template["n_range"]
    batch = template["instance_count"]
    if cost is not None:
        expected = batch * sum(cost(n) for n in range(lo, hi + 1)) / (hi - lo + 1)
    configs = []
    while len(configs) < count:
        rng_seed = int(rng.integers(2**32))
        if cost is not None:
            sizes = [
                np.random.default_rng(np.random.SeedSequence((rng_seed, index, 0))).integers(lo, hi + 1)
                for index in range(batch)
            ]
            if abs(sum(cost(int(n)) for n in sizes) / expected - 1) > 0.05:
                continue
        configs.append(dict(template, rng_seed=rng_seed))
    return configs


def _deviation_work(n: int) -> int:
    """n deviators, each with about 3n + 21 misreports replayed through O(n) steps."""
    return n * n * (3 * n + 21)


def _oracle_work(n: int) -> int:
    """The exhaustive oracle enumerates 2^n participation vectors of length n."""
    return n << n


def check_sweep(report, expected_count: int, ratio_limit: float | None = None) -> list[str]:
    errors = []
    if not report.ok:
        errors.append(f"{report.sweep}: report is not ok ({report.failure_count} failures)")
    if report.instances_run != expected_count:
        errors.append(f"{report.sweep}: ran {report.instances_run} of {expected_count} instances")
    if ratio_limit is not None and not (report.worst_ratio is not None and report.worst_ratio <= ratio_limit):
        errors.append(f"{report.sweep}: worst ratio {report.worst_ratio!r} exceeds {ratio_limit}")
    return errors


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True).encode()


class _Sweep:
    """Plumbing shared by the sweep workloads; inputs are lists of sweep configs."""

    def __init__(self, directory: Path):
        from privauction import verify

        self.directory = directory
        self.verify = verify  # sweeps are looked up per call, so a traced run sees its wrappers
        self.warmups = self._configs("warmup.json")

    def _configs(self, name: str) -> list:
        return [
            self.verify.SweepConfig.from_json(config)
            for config in json.loads((self.directory / name).read_text())
        ]

    def load_ops(self) -> None:
        self.configs = self._configs("ops.json")

    def warm_up(self) -> None:
        for config in self.warmups:
            self.sweep(config)


class SweepTruthful(_Sweep):
    """Misreport sweep: one float batch (n 2-10) and one rational batch (n 2-8) per op."""

    name = "sweep-truthful"
    tail_percentile = 70
    work_per_op = TRUTHFUL_FLOAT["instance_count"] + TRUTHFUL_RATIONAL["instance_count"]

    @classmethod
    def generate(cls, seed: int, directory: Path) -> None:
        floats = _sweep_configs(seed, 1, TRUTHFUL_FLOAT, SWEEP_POOL, _deviation_work)
        rationals = _sweep_configs(seed, 2, TRUTHFUL_RATIONAL, SWEEP_POOL, _deviation_work)
        ops = [config for pair in zip(floats, rationals) for config in pair]
        warm = [
            dict(_sweep_configs(seed, 3, TRUTHFUL_FLOAT, 1)[0], instance_count=2),
            dict(_sweep_configs(seed, 4, TRUTHFUL_RATIONAL, 1)[0], instance_count=1),
        ]
        (directory / "ops.json").write_text(json.dumps(ops))
        (directory / "warmup.json").write_text(json.dumps(warm))

    def sweep(self, config):
        return self.verify.run_truthfulness_sweep(config, threads=1)

    def run(self, index: int, tag=no_tag) -> dict:
        pair = 2 * (index % (len(self.configs) // 2))
        with tag("float"):
            float_report = self.sweep(self.configs[pair])
        with tag("rational"):
            rational_report = self.sweep(self.configs[pair + 1])
        return {"float": float_report, "rational": rational_report}

    def check(self, index: int, outputs: dict) -> list[str]:
        return check_sweep(outputs["float"], TRUTHFUL_FLOAT["instance_count"]) + check_sweep(
            outputs["rational"], TRUTHFUL_RATIONAL["instance_count"]
        )

    @staticmethod
    def output_bytes(outputs: dict) -> bytes:
        return _report_bytes(outputs["float"]) + _report_bytes(outputs["rational"])


class SweepOracle(_Sweep):
    """Approximation sweep against the exhaustive oracle, n 14-20, 10 instances per op."""

    name = "sweep-oracle"
    tail_percentile = 80
    work_per_op = ORACLE["instance_count"]

    @classmethod
    def generate(cls, seed: int, directory: Path) -> None:
        ops = _sweep_configs(seed, 1, ORACLE, SWEEP_POOL, _oracle_work)
        warm = _sweep_configs(seed, 2, dict(ORACLE, n_range=[14, 14], instance_count=2), 1)
        (directory / "ops.json").write_text(json.dumps(ops))
        (directory / "warmup.json").write_text(json.dumps(warm))

    def sweep(self, config):
        return self.verify.run_approximation_sweep(config, threads=1)

    def run(self, index: int, tag=no_tag) -> dict:
        return {"report": self.sweep(self.configs[index % len(self.configs)])}

    def check(self, index: int, outputs: dict) -> list[str]:
        return check_sweep(outputs["report"], ORACLE["instance_count"], ratio_limit=5.0)

    @staticmethod
    def output_bytes(outputs: dict) -> bytes:
        return _report_bytes(outputs["report"])


WORKLOADS = {cls.name: cls for cls in (Pipeline, SweepTruthful, SweepOracle)}
