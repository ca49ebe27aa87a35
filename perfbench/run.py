"""privauction benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The benchmark generates every input from ``--seed``, then starts the
workload in processes of its own: a few set-up probes (package import plus
warm-up; ``setup_s`` is their median) and one measuring process that runs ops
back to back for ``--seconds`` and checks every output. ``--trace 1`` reports
per-layer metrics instead (see spans.py). Human-readable lines come first;
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in turn and prefixes each metric with the workload's name.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # extra set-up-only processes; the measuring process adds one more sample
RUN_SLACK_S = 120  # a workload's processes must end this long after its measured seconds

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

THROUGHPUT_NAMES = {"pipeline": "rows_per_s"}  # sweeps: instances_per_s


def _worker(workload: str, inputs: Path, seconds: float, trace: int, deadline: float,
            extra=()) -> dict:
    env = dict(os.environ, PRIVAUCTION_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--inputs", str(inputs), "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(command, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate inputs, probe set-up, run the measuring process; returns its result."""
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    inputs = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[workload].generate(seed, inputs)
        probes = [
            _worker(workload, inputs, seconds, 0, deadline, ["--setup-only"])["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        extra = []
        if trace:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            extra = ["--spans", str(out / f"spans-{workload}.npz")]
        result = _worker(workload, inputs, seconds, trace, deadline, extra)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    result["setup_samples"] = probes + [result["setup_s"]]
    return result


def end_to_end(result: dict) -> dict:
    times = np.asarray(result["times"])
    return {
        "setup_s": (statistics.median(result["setup_samples"]), "s"),
        "op_p50_s": (float(np.percentile(times, 50)), "s"),
        "op_tail_s": (float(np.percentile(times, result["tail_percentile"])), "s"),
        "throughput_per_s": (result["work"] / float(times.sum()), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def describe(workload: str, result: dict, metrics: dict) -> None:
    """Human-readable lines; the throughput is named for what it counts."""
    count = len(result["times"])
    print(f"{workload}: {result['attempted']} ops attempted, {result['failed']} failed, "
          f"fail_ratio {result['failed'] / result['attempted']:.4g} ratio")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    notes = {
        "setup_s": f"median of {len(result['setup_samples'])} processes",
        "op_p50_s": f"{count} ops",
        "op_tail_s": f"p{result['tail_percentile']} of {count} ops, "
                     f"{count - int(count * result['tail_percentile'] / 100)} beyond",
    }
    for name, (value, unit) in metrics.items():
        if name == "throughput_per_s":
            name = THROUGHPUT_NAMES.get(workload, "instances_per_s")
        note = notes.get(name, "")
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "privauction" / "__init__.py").is_file():
        raise SystemExit("privauction sources not found under src/; run from a full checkout")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace)
        workload_metrics = result["layers"] if args.trace else end_to_end(result)
        describe(name, result, workload_metrics)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({
            prefix + metric: {"value": value, "unit": unit}
            for metric, (value, unit) in workload_metrics.items()
        })
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
