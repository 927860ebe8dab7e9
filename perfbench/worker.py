"""One workload process: set up, then run jobs in a closed loop.

Started by ``run.py`` with the checkout root as working directory.  It
prints ``READY`` once set-up is done (importing ``nestedot``, writing the
seeded inputs, pre-embedding); a ``--probe`` process exits there, so its
lifetime up to that line is one set-up sample.  Otherwise it runs the jobs
and prints one JSON line of raw results.  With ``--pauses N`` the job loop
stops N times, evenly spread, between pool passes: it prints ``PAUSE`` and
waits for a line on stdin, so that ``run.py`` can time a probe mid-run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out" / "work"
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

DEFAULT_SEED = 1
MAX_FAILURES_KEPT = 5


def _cli_call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed job, never the end of the run
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def _parse(argv: list[str], rc, out: str, err: str) -> tuple[dict | None, str | None]:
    name = " ".join(argv[:1] if argv[0] == "embed" else argv[:2])
    if rc != 0:
        last = err.strip().splitlines()[-1:] or [""]
        return None, f"{name}: exit {rc}: {last[0][:200]}"
    lines = out.splitlines()
    if len(lines) != 1:
        return None, f"{name}: expected one report line, got {len(lines)}"
    try:
        report = json.loads(lines[0])
    except ValueError:
        return None, f"{name}: report is not JSON"
    if report.get("command") != name:
        return None, f"{name}: report is for {report.get('command')!r}"
    return report, None


class Runner:
    def __init__(self, cli, workload, pool, digests, references):
        self.cli = cli
        self.workload = workload
        self.pool = pool
        self.digests = digests
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def job(self, k: int) -> float:
        """Run job ``k`` (pool pair k mod POOL) and its gates; returns its wall time."""
        pair = self.pool[k % len(self.pool)]
        reference = None if self.references is None else self.references[k % len(self.pool)]
        start = time.perf_counter()
        errors, reports = [], []
        for argv in workloads.job_commands(self.workload, pair):
            report, error = _parse(argv, *_cli_call(self.cli, argv))
            if error:
                errors.append(error)
                break
            reports.append(report)
        if not errors:
            errors = workloads.check_job(pair, reports, self.digests, reference)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(f"job {k}: " + "; ".join(errors))
        return elapsed

    def loop(self, seconds: float, tracer: Tracer | None = None, pauses: int = 0):
        """Closed loop of whole pool passes for at least ``seconds``.

        With a tracer, every other pass is traced, so traced and untraced
        jobs sample the same stretch of machine time.  Returns the untraced
        and the traced job times, each as one list per pool pair, the traced
        counts and the loop's wall time.  Paused time is not loop time.
        """
        gc.collect()
        times = {mode: [[] for _ in self.pool] for mode in (False, True)}
        counts: dict[str, int] = defaultdict(int)
        start = time.perf_counter()
        paused, pauses_taken = 0.0, 0
        k = len(self.pool)  # pass 0 was the warm-up
        while True:
            traced = tracer is not None and (k // len(self.pool)) % 2 == 1
            if traced:
                tracer.install()
            elif tracer is not None:
                tracer.uninstall()
            for pair_times in times[traced]:
                pair_times.append(self.job(k))
                if traced:
                    tracer.end_job(counts)
                k += 1
            elapsed = time.perf_counter() - start - paused
            if pauses_taken < pauses and elapsed >= seconds * (pauses_taken + 1) / (pauses + 1):
                pause_start = time.perf_counter()
                print("PAUSE", flush=True)
                sys.stdin.readline()
                paused += time.perf_counter() - pause_start
                pauses_taken += 1
            elif elapsed >= seconds and (tracer is None or times[True][0]):
                if tracer is not None:
                    tracer.uninstall()
                return times[False], times[True], counts, elapsed


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true", help="exit once set-up is done")
    ap.add_argument("--pauses", type=int, default=0, help="pauses for probes in the job loop")
    args = ap.parse_args()

    # ---- set-up: import, generate and write inputs, pre-embed
    import nestedot
    from nestedot import cli

    src = (ROOT / "src").resolve()
    if src not in Path(nestedot.__file__).resolve().parents:
        print(f"nestedot imported from {nestedot.__file__}, not {src}", file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    pool = workloads.make_pool(args.workload, args.seed, workdir, ROOT)
    setup_errors = []
    for pair in pool:
        for argv in workloads.setup_commands(args.workload, pair):
            _, error = _parse(argv, *_cli_call(cli, argv))
            if error:
                setup_errors.append(error)
    print("READY", flush=True)
    if args.probe:
        return 0

    # ---- harness references, outside the set-up time
    digests = {}
    for pair in pool:
        for key in ("mu", "nu", "P", "Q"):
            path = ROOT / pair.files[key]
            if path.exists():
                digests[pair.files[key]] = _sha256(path)
        pair.lower, pair.upper = inputs.cost_bounds(pair.mu, pair.nu)
    references = None
    if args.seed == DEFAULT_SEED:
        ref = json.loads((HERE / "reference.json").read_text())["workloads"][args.workload]
        references = ref["results"]
        for path, sha in ref["inputs"].items():
            if digests.get(path) != sha:
                setup_errors.append(f"input {path} differs from the checked-in digest")

    runner = Runner(cli, args.workload, pool, digests, references)
    for k in range(len(pool)):  # warm-up pass: checked, not timed
        runner.job(k)
    tracer = Tracer() if args.trace else None
    times, traced, counts, loop_s = runner.loop(args.seconds, tracer, args.pauses)
    result = {
        "job_times": times,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, counts)
        layers["trace.overhead_frac"] = workloads.pool_min(traced) / workloads.pool_min(times) - 1.0
        trace_file = workdir / "spans.json"
        tracer.write(trace_file)
        result.update(layers=layers, traced_job_times=traced, traced_sites=tracer.site_count,
                      trace_file=str(trace_file.relative_to(ROOT)))

    import numpy
    import scipy

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        setup_errors=setup_errors,
        inputs=digests,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
