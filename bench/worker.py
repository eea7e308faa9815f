"""One cold, closed-loop batch of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1

Run from an empty scratch directory (the job files go there).  Imports
`hermfj` from the checkout's `src/`, generates the inputs from the seed,
then runs the jobs one at a time, each starting when the previous one has
ended, and prints one JSON line: set-up time, batch wall time, per-job
latencies, the median time of the host-speed yardstick run between jobs,
peak RSS, the output digest, and with --trace 1 the per-layer span report.
The batch wall time excludes the yardstick runs.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: batch seconds between two runs of the host-speed yardstick
YARDSTICK_EVERY_S = 0.25
WORKLOADS = {
    "theta-roundtrip": "theta_roundtrip",
    "family-reindex": "family_reindex",
    "series-ring": "series_ring",
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hermfj

    if Path(hermfj.__file__).resolve().parent != src / "hermfj":
        print("hermfj imported from %s, not from %s" % (hermfj.__file__, src), file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    from harness import yardstick
    wl = module.setup(random.Random(args.seed))
    setup_s = perf_counter() - T_START

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    digest = hashlib.sha256()
    latencies = []
    failures = []
    yardsticks = []
    last = [float("-inf")]

    def measure_host():
        y0 = perf_counter()
        yardstick()
        last[0] = perf_counter()
        yardsticks.append(last[0] - y0)

    t0 = perf_counter()
    for job in wl.jobs:
        if perf_counter() - last[0] >= YARDSTICK_EVERY_S:
            measure_host()
        j0 = perf_counter()
        try:
            result, error = job.work(), None
        except Exception as exc:  # a job that raises has failed; the batch goes on
            result, error = None, exc
        latencies.append(perf_counter() - j0)
        try:
            if error is not None:
                raise error
            digest.update(job.check(result))
        except Exception as exc:
            failures.append("%s: %s: %s" % (job.name, type(exc).__name__, exc))
    measure_host()
    wall_s = perf_counter() - t0 - sum(yardsticks)

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "gates": [job.gate for job in wl.jobs],
        "yardstick_s": statistics.median(yardsticks),
        "yardsticks": len(yardsticks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "jobs": len(wl.jobs),
        "keys": wl.keys,
        "failures": failures,
    }
    if tracer is not None:
        record["trace"] = tracer.report(wall_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
