"""hermfj benchmark runner: cold worker processes, closed loop, one at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each batch of a workload runs in a fresh
interpreter (`bench/worker.py`), so the module caches start cold, as they
do for every `hermfj` CLI invocation, and batches never warm each other.
Workers run one after another until `--seconds` is spent (at least three),
and the end-to-end metrics are medians over them, or percentiles over their
pooled job latencies.  With --trace 1 the batch runs twice under span
tracing and twice without, and the per-layer metrics are reported instead;
call counts must repeat exactly.

Prints a run record (one JSON line) and then, as the last line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_WORKERS = 3
WORKER_TIMEOUT_S = 150
#: --seed whose output digest is recorded in golden.json
DEFAULT_SEED = 0


class WorkerError(Exception):
    pass


def run_worker(workload: str, seed: int, trace: int) -> dict:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="worker-", dir=scratch)
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    t0 = time.monotonic()
    try:
        # run() kills and reaps the worker if the timeout expires
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker exceeded %d s" % WORKER_TIMEOUT_S) from exc
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - t0
    record["traced"] = bool(trace)
    return record


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "hermfj").glob("*.py"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hermfj" / "__init__.py").is_file():
        print("no hermfj sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH / "golden.json").read_text())

    # closed loop: the next worker starts when the previous one has ended.
    # A traced run alternates two traced and two untraced batches, for the
    # count-repeat check and the tracing overhead.
    records = []
    start = time.monotonic()
    try:
        if args.trace:
            for trace in (1, 0, 1, 0):
                records.append(run_worker(args.workload, args.seed, trace))
        while not args.trace:
            records.append(run_worker(args.workload, args.seed, 0))
            spent = time.monotonic() - start
            typical = statistics.median(r["elapsed_s"] for r in records)
            if len(records) >= MIN_WORKERS and spent + typical > args.seconds:
                break
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    digests = {r["digest"] for r in records}
    failures = [f for r in records for f in r["failures"]]
    problems = list(failures)
    if len(digests) != 1:
        problems.append("output digests differ between batches: %s" % sorted(digests))
    elif args.seed == DEFAULT_SEED and digests != {golden[args.workload]}:
        problems.append("digest %s differs from the recorded %s"
                        % (digests.pop(), golden[args.workload]))

    latencies = [x for r in plain for x, gate in zip(r["latencies_s"], r["gates"]) if not gate]
    # the same latencies in units of the yardstick time of their own batch
    relative = [x / r["yardstick_s"] for r in plain
                for x, gate in zip(r["latencies_s"], r["gates"]) if not gate]
    wall = statistics.median(r["wall_s"] for r in plain)
    tail = p90(latencies)
    attempted = sum(r["jobs"] for r in records)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_hermfj_lines": src_lines(),
        "digest": records[0]["digest"],
        "jobs_per_batch": records[0]["jobs"],
        "keys_per_batch": records[0]["keys"],
        "batches": len(plain),
        "traced_batches": len(traced),
        "latency_samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > tail),
        "ops_failed_ratio": len(failures) / attempted,
        "wall_s_each": [r["wall_s"] for r in plain],
        "setup_s_each": [r["setup_s"] for r in plain],
        "yardstick_s_each": [r["yardstick_s"] for r in plain],
        "problems": problems,
    }
    metrics = {}
    if args.trace:
        counts = {k: v for k, v in traced[0]["trace"].items() if k.endswith((".calls", ".bytes"))}
        for r in traced[1:]:
            for k, v in counts.items():
                if r["trace"][k] != v:
                    problems.append("traced count %s differs: %s vs %s" % (k, v, r["trace"][k]))
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layer = {k: statistics.median(r["trace"][k] for r in traced) for k in traced[0]["trace"]}
        layer["trace.overhead_ratio"] = traced_wall / wall
        layer["trace.wall_s"] = traced_wall
        record["self_share"] = {k[:-len(".self_s")]: v / traced_wall
                                for k, v in layer.items() if k.endswith(".self_s")}
        record["trace"] = layer
        wanted, values = spec["per_layer"], layer
    else:
        values = {
            "wall_s": wall,
            "job_p50_ms": 1000 * statistics.median(latencies),
            "job_p90_ms": 1000 * tail,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "wall_ref": statistics.median(r["wall_s"] / r["yardstick_s"] for r in plain),
            "job_p50_ref": statistics.median(relative),
            "job_p90_ref": p90(relative),
        }
        wanted = spec["end_to_end"]
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(json.dumps({"record": record}))
    for p in problems:
        print("problem: %s" % p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
