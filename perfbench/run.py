"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload walk-nested --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` the run times set-up in
fresh processes and the job loop with tracing off, and reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
a traced half of the loop.  Every metric is printed by name and unit, then
the last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--workload all`` runs every workload both ways.  A record
with the environment and the input digests is written under
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import COUNT_METRICS, TIME_METRICS  # noqa: E402
from workloads import WHY, pool_min  # noqa: E402

# Set-up is sampled in this many probe processes, started at even intervals
# while the measuring worker's job loop pauses, and in the worker itself.
# The fastest is reported, as for the job time (see README.md).
SETUP_PROBES = 6
# BLAS and OpenMP pools pinned to one thread in every child process.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "job_min_s": "s",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not end-to-end metrics: on a shared host their
# run-to-run spread is wider than any usable bound (see README.md).
RECORDED_UNITS = {"job_p50_s": "s", "job_p90_s": "s", "jobs_per_s": "1/s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("io.bytes"):
        return "bytes"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count"


PER_LAYER = TIME_METRICS + COUNT_METRICS + ["trace.overhead_frac"]


def _worker(args, probe: bool = False, pauses: int = 0) -> tuple[list[float], str]:
    """Start a worker; return (set-up samples, the rest of its stdout).

    The first sample is the worker's time until its READY line.  At each
    PAUSE line of its job loop a probe worker is timed, one more sample.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--pauses", str(pauses),
    ] + (["--probe"] if probe else [])
    env = dict(os.environ, **THREAD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL if probe else subprocess.PIPE)
    watchdog = threading.Timer(args.seconds + 120, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setups = [time.perf_counter() - start]
        line = proc.stdout.readline()
        while line.strip() == "PAUSE":
            setups += _worker(args, probe=True)[0]
            proc.stdin.write("\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        rest = line + proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} failed with exit code {code}")
    return setups, rest


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(args) -> dict:
    setups, out = _worker(args, pauses=0 if args.trace else SETUP_PROBES)
    raw = json.loads(out.splitlines()[-1])

    times = [t for pair_times in raw["job_times"] for t in pair_times]
    deciles = statistics.quantiles(times, n=10)
    if args.trace:
        metrics = {name: raw["layers"][name] for name in PER_LAYER}
        units = {name: layer_unit(name) for name in PER_LAYER}
        recorded = {}
    else:
        metrics = {
            "setup_s": min(setups),
            "job_min_s": pool_min(raw["job_times"]),
            "pass_frac": (raw["attempted"] - raw["failed"]) / raw["attempted"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        recorded = {
            "job_p50_s": statistics.median(times),
            "job_p90_s": deciles[-1],
            "jobs_per_s": len(times) / raw["loop_s"],
        }
    correct = raw["failed"] == 0 and not raw["setup_errors"]
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "setup_errors": raw["setup_errors"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "recorded": {k: {"value": v, "unit": RECORDED_UNITS[k]} for k, v in recorded.items()},
        "timed_jobs": len(times),
        "jobs_beyond_p90": sum(t > deciles[-1] for t in times),
        "setup_samples_s": setups,
        "inputs_sha256": raw["inputs"],
        "environment": {
            **raw["versions"],
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
            "thread_env": THREAD_ENV,
        },
    }
    if args.trace:
        record["traced_sites"] = raw["traced_sites"]
        record["traced_jobs"] = sum(map(len, raw["traced_job_times"]))
        record["trace_file"] = raw["trace_file"]
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for failure in raw["setup_errors"] + raw["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:15s} {name:28s} {value:.6g} {units[name]}")
    for name, value in recorded.items():
        print(f"{args.workload:15s} {name:28s} {value:.6g} {RECORDED_UNITS[name]} (no bound)")
    print(f"record: {path.relative_to(ROOT)}")
    return {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": record["metrics"],
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through _worker, which stops its child


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nestedot" / "__init__.py").is_file():
        print(f"no nestedot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_one(args)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in sorted(WHY):
                for trace in (0, 1):
                    one = run_one(argparse.Namespace(**{**vars(args), "workload": workload,
                                                        "trace": trace}))
                    result["correct"] &= one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    for name, metric in one["metrics"].items():
                        result["metrics"][f"{workload}:{name}"] = metric
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
