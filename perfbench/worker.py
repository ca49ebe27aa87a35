"""One workload in its own process: set-up, a timed closed loop of ops, checks.

Run by ``run.py``; prints one JSON object on its last stdout line. Set-up
time is the program's package import plus the workload's warm-up. With
``--setup-only`` the process stops after set-up. With ``--trace 1`` the
process times the ops untraced for half the run, then replays the same ops
with every layer traced, compares the two runs' outputs byte for byte, and
reports per-layer metrics from the spans.
"""

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import privauction.cli  # noqa: F401  (the whole package: every layer)

    import_s = time.perf_counter() - start

    import hashlib
    import json
    import resource

    import numpy as np

    import spans
    from workloads import WORKLOADS, no_tag

    workload = WORKLOADS[args.workload](args.inputs)
    start = time.perf_counter()
    workload.warm_up()
    setup_s = import_s + time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    workload.load_ops()

    failures: list[str] = []

    def run_ops(count: int | None, seconds: float, tracer=None) -> tuple[list[float], list[bytes]]:
        """Closed loop: ops back to back for ``count`` ops, or until ``seconds`` pass."""
        times, digests = [], []
        deadline = time.perf_counter() + seconds
        tag = tracer.tagged if tracer is not None else no_tag
        index = 0
        while index < count if count is not None else (index == 0 or time.perf_counter() < deadline):
            began = time.perf_counter()
            try:
                with tracer.op(index) if tracer is not None else nullcontext():
                    outputs = workload.run(index, tag)
            except Exception as exc:  # a raising op is a failed op, not a failed run
                outputs, errors = None, [f"op {index} raised {type(exc).__name__}: {exc}"]
            times.append(time.perf_counter() - began)
            digest = b""
            if outputs is not None:
                try:
                    errors = workload.check(index, outputs)
                    digest = hashlib.sha256(workload.output_bytes(outputs)).digest()
                except (KeyError, TypeError, ValueError) as exc:  # malformed output
                    errors = [f"op {index}: output unreadable: {type(exc).__name__}: {exc}"]
            digests.append(digest)
            failures.extend(errors[:1])
            index += 1
        return times, digests

    result = {"setup_s": setup_s}
    if args.trace == 0:
        times, _ = run_ops(None, args.seconds)
        result["attempted"] = len(times)
    else:
        times, untraced = run_ops(None, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_times, traced = run_ops(len(times), 0.0, tracer)
        finally:
            tracer.uninstall()
        leftover = spans.leftover_wrappers()
        if leftover:
            raise SystemExit(f"tracer left wrappers bound: {leftover}")
        mismatched = [i for i, (a, b) in enumerate(zip(untraced, traced)) if a != b]
        failures += [f"op {i}: traced output differs from untraced" for i in mismatched]
        result["attempted"] = len(times) + len(traced_times)
        arrays = tracer.arrays()
        if args.spans is not None:
            tracer.save(args.spans)
        overhead = float(np.median(traced_times) - np.median(times))
        result["layers"] = spans.layer_metrics(arrays, len(traced_times), overhead)
    result.update(
        times=times,
        work=workload.work_per_op * len(times),
        failed=len(failures),
        failures=failures[:10],
        tail_percentile=workload.tail_percentile,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
