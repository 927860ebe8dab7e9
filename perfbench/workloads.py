"""The workloads: seeded input pools, the CLI commands of one job,
and the correctness gates each job's reports must pass.

A job is a fixed sequence of ``nestedot`` CLI commands on one input pair
from a small pool; the pool is generated from the seed and written as
tree JSON before the first job.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import inputs

POOL = 8
REL_TOL = 1e-12
CROSS_TOL = 1e-9

WHY = {
    "walk-nested": (
        "depth-5 recombining dyadic walks: 341 2x2 solves per route but 55 distinct "
        "subtree-class pairs, through both the tree and the lifted recursion"
    ),
    "path-oracle": (
        "36-leaf random pairs: a dense 36x36 path-level simplex, the HiGHS bicausal "
        "oracle, a plan check; its recursion has no sharing and no 2xn shapes"
    ),
    "plan-roundtrip": (
        "depth-6 walks with different probabilities: a 729-entry KR plan written, "
        "read back and checked, then an embed; no transport solves"
    ),
}


def pool_min(per_pair: list[list[float]]) -> float:
    """Mean over the pool pairs of each pair's fastest job time.

    Taken per pair, so that the cheapest pair of a seed's pool does not
    decide the figure alone.
    """
    return statistics.fmean(min(times) for times in per_pair)


@dataclass
class Pair:
    mu: inputs.Tree
    nu: inputs.Tree
    files: dict[str, str]
    lower: float = 0.0
    upper: float = math.inf
    seen: dict[str, float] = field(default_factory=dict)


def make_pool(workload: str, seed: int, workdir: Path, rel: Path) -> list[Pair]:
    """Generate and write the pool; file names are given relative to ``rel``."""
    rng = random.Random(f"{workload}:{seed}")
    pool = []
    for k in range(POOL):
        if workload == "walk-nested":
            mu, nu = inputs.random_walk(rng, 5), inputs.random_walk(rng, 5)
        elif workload == "path-oracle":
            mu, nu = inputs.full_tree(rng, [4, 3, 3]), inputs.full_tree(rng, [4, 3, 3])
        else:
            mu, nu = inputs.walk_pair_distinct_probs(rng, 6)
        stem = workdir / f"pair{k}"
        files = {
            "mu": f"{stem}_mu.json", "nu": f"{stem}_nu.json",
            "P": f"{stem}_mu.nested.json", "Q": f"{stem}_nu.nested.json",
            "plan": f"{stem}_plan.json", "embed": f"{stem}_embed.json",
        }
        files = {key: str(Path(path).relative_to(rel)) for key, path in files.items()}
        mu.write(rel / files["mu"])
        nu.write(rel / files["nu"])
        pool.append(Pair(mu, nu, files))
    return pool


def setup_commands(workload: str, pair: Pair) -> list[list[str]]:
    """Commands run once per pair during set-up (pre-embedding)."""
    if workload != "walk-nested":
        return []
    f = pair.files
    return [["embed", "--mu", f["mu"], "-o", f["P"]], ["embed", "--mu", f["nu"], "-o", f["Q"]]]


def job_commands(workload: str, pair: Pair) -> list[list[str]]:
    f = pair.files
    trees = ["--mu", f["mu"], "--nu", f["nu"]]
    if workload == "walk-nested":
        return [["compute", "nested", *trees], ["compute", "lifted", "--P", f["P"], "--Q", f["Q"]]]
    if workload == "path-oracle":
        return [
            ["compute", "wasserstein", *trees],
            ["compute", "nested", "--oracle", "--emit-plan", f["plan"], *trees],
            ["check", "coupling", "--plan", f["plan"], *trees],
        ]
    return [
        ["compute", "kr", "--emit-plan", f["plan"], *trees],
        ["check", "coupling", "--plan", f["plan"], *trees],
        ["embed", "--mu", f["mu"], "-o", f["embed"]],
    ]


def result_values(report: dict) -> dict[str, float]:
    """The numbers of one report that references and repeats are checked on."""
    command = report["command"]
    results = report["results"]
    if command.startswith("compute "):
        return {command.split()[1]: results["distance"]}
    if command == "embed":
        return {"embed_atoms": results["atoms"], "embed_depth": results["depth"]}
    return {}


def check_job(
    pair: Pair, reports: list[dict], digests: dict[str, str], reference: dict[str, float] | None,
) -> list[str]:
    """Correctness gates of one job; returns the failed gates."""
    errors = []
    values: dict[str, float] = {}
    for report in reports:
        for name, entry in report["inputs"].items():
            want = digests.get(entry["path"])
            if want is not None and entry["sha256"] != want:
                errors.append(f"{report['command']}: input {name} digest changed")
        values.update(result_values(report))
        if report["command"] == "compute nested" and "oracle_distance" in report["results"]:
            if report["oracle_check"] != "ok":
                errors.append(f"oracle_check is {report['oracle_check']!r}")
        if report["command"] == "check coupling":
            res = report["results"]
            if not res["is_bicausal"] or res["violations"]:
                errors.append("emitted plan is not bicausal")

    for key, value in values.items():
        if not math.isfinite(value):
            errors.append(f"{key} is not finite")
            continue
        first = pair.seen.setdefault(key, value)
        if value != first:
            errors.append(f"{key} changed between jobs: {first!r} -> {value!r}")
        if reference is not None:
            ref = reference[key]
            if abs(value - ref) > REL_TOL * abs(ref):
                errors.append(f"{key} = {value!r}, reference {ref!r}")

    slack = CROSS_TOL * max(1.0, pair.upper)
    for key in ("nested", "lifted", "wasserstein", "kr"):
        if key in values and values[key] ** 2 < pair.lower - slack:
            errors.append(f"{key}^2 below the stage-marginal lower bound {pair.lower!r}")
    for key in ("nested", "lifted"):
        if key in values and values[key] ** 2 > pair.upper + slack:
            errors.append(f"{key}^2 above the independent-coupling cost {pair.upper!r}")
    if "lifted" in values and abs(values["lifted"] - values["nested"]) > CROSS_TOL:
        errors.append("lifted and nested distances disagree")
    if "wasserstein" in values and values["wasserstein"] > values["nested"] + CROSS_TOL:
        errors.append("wasserstein exceeds nested")
    if "embed_atoms" in values:
        if values["embed_atoms"] != pair.mu.root_children():
            errors.append("embed atom count differs from the root's children")
        if values["embed_depth"] != pair.mu.depth:
            errors.append("embed depth differs from the tree depth")
    return errors
