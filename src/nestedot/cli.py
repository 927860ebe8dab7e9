"""Command-line front end: compute distances, check plans, run regressions.

Every command prints one JSON report to stdout (deterministic except for
the wall-time field) and writes diagnostics to stderr.  ``main``
assembles every report: it digests the input files as they were read,
before the command runs, and emits the report once.  A handler fills in
only its ``results`` (and the oracle check) and returns a failure
message, which exits 3, or None.  Each command takes only the flags its
handler reads, and the report's ``params`` lists every one of them
except file paths, which appear under ``inputs`` or ``results``.  The
parser is built once per process.  Exit codes: 0 success, 2 invalid
input (also an input or a demo depth that nests past the recursion
limit), 3 a handler's failure message, which only an oracle mismatch
(``compute nested --oracle``) or a demo whose regression check failed
returns, 4 solver failure (the transportation simplex or the oracle LP
gave no optimum, or scipy, which only the oracle needs, is missing), 64
usage.  scipy is loaded only by the LP oracle, and numpy on first use:
by ``compute wasserstein``, the oracle, the ``incompleteness``,
``extreme-split`` and ``isometry`` demos, and a simplex problem of more
than 64 cells (``demo kr-gap`` at its default size solves some).  The
other commands (``compute nested``, ``compute lifted``, ``compute kr``,
``embed``, ``check coupling``, ``split``, ``from-samples``, ``demo
separating``) run on lists.  The first report of a process that loads
either counts the import in its ``wall_time_s``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import time
from pathlib import Path

from . import __version__
from .causality import is_bicausal, is_causal, split_non_extreme
from .embedding import embed, nested_wasserstein
from .errors import ValidationError
from .families import (
    collapsing_fan,
    crossed_fans,
    hidden_branch_pair,
    merged_limit,
    perturbed_pair,
    random_monge_mixture,
    random_tree,
    random_tree_pair,
)
from .io import (
    dumps_canonical,
    file_digest,
    load_coupling,
    load_nested,
    load_tree,
    read_samples_csv,
    save_coupling,
    save_nested,
    save_tree,
)
from .knothe import kr_coupling, kr_distance
from .metrics import GroundMetric
from .nested import (
    brute_force_bicausal,
    cauchy_check,
    nested_distance,
    wasserstein_distance,
)
from .tolerances import ORACLE_TOL, ROUNDING, SNAP, TOL
from .transport import np
from .tree import merged_tree

USAGE_EXIT = 64
VALIDATION_EXIT = 2
MISMATCH_EXIT = 3
SOLVER_EXIT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises on usage errors.  Abbreviations are off, so that a flag a
    command does not take (``--p`` on ``check coupling``) is rejected
    instead of read as a prefix of one it does take (``--plan``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _metric_from(args) -> GroundMetric:
    if args.metric == "usual":
        return GroundMetric.usual(args.p)
    return GroundMetric.truncated(args.p, args.cap)


def _add_p_flag(parser) -> None:
    parser.add_argument("--p", type=float, default=2.0, help="order of the distance")


def _add_metric_flags(parser) -> None:
    _add_p_flag(parser)
    parser.add_argument(
        "--metric", choices=["usual", "truncated"], default="usual",
        help="base metric on the line",
    )
    parser.add_argument(
        "--cap", type=float, default=1.0, help="cap of the truncated base metric"
    )


def _add_tol_flag(parser) -> None:
    parser.add_argument(
        "--tol", type=float, default=TOL, help="checker and comparison tolerance"
    )


def _check_flags(args) -> None:
    """Reject flag values that the parser accepts but no check can use."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"--tol must be finite and >= 0, got {tol!r}")
    if getattr(args, "seed", 0) < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    if getattr(args, "trials", 1) < 1:
        raise ValidationError(f"--trials must be >= 1, got {args.trials}")
    if getattr(args, "n_max", 2) < 2:
        raise ValidationError(f"--n-max must be >= 2, got {args.n_max}")


# Destinations that name input files, reported under "inputs".
_INPUTS = ("mu", "nu", "P", "Q", "plan", "csv")
# Destinations that are not flags (dispatch) or are file paths (reported
# under "inputs" or "results"); every other destination is a parameter.
_NOT_PARAMS = frozenset(
    {"command", "what", "handler", "output", "emit_plan", "out_pi", "out_pi_tilde", *_INPUTS}
)


def _params(args) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    if params.get("metric") == "usual":
        params["cap"] = None
    return params


def build_parser() -> _Parser:
    parser = _Parser(prog="nestedot", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute a distance between two laws")
    csub = compute.add_subparsers(dest="what", required=True)
    for name in ("nested", "wasserstein", "kr"):
        cp = csub.add_parser(name)
        cp.set_defaults(handler=_cmd_compute_pair)
        cp.add_argument("--mu", required=True, help="tree JSON of the first law")
        cp.add_argument("--nu", required=True, help="tree JSON of the second law")
        _add_metric_flags(cp)
        if name != "wasserstein":
            cp.add_argument("--emit-plan", help="write the optimal/rearrangement plan JSON here")
        if name == "nested":
            cp.add_argument(
                "--oracle", action="store_true",
                help="cross-check against the brute-force bicausal LP",
            )
    lifted = csub.add_parser("lifted")
    lifted.set_defaults(handler=_cmd_compute_lifted)
    lifted.add_argument("--P", required=True, help="nested-distribution JSON")
    lifted.add_argument("--Q", required=True, help="nested-distribution JSON")
    _add_metric_flags(lifted)

    check = sub.add_parser("check", help="verify properties of a coupling")
    ksub = check.add_subparsers(dest="what", required=True)
    kc = ksub.add_parser("coupling")
    kc.set_defaults(handler=_cmd_check)
    kc.add_argument("--plan", required=True)
    kc.add_argument("--mu", required=True)
    kc.add_argument("--nu", required=True)
    _add_tol_flag(kc)

    split = sub.add_parser("split", help="split a non-extreme causal coupling")
    split.set_defaults(handler=_cmd_split)
    split.add_argument("--plan", required=True)
    split.add_argument("--mu", required=True)
    split.add_argument("--nu", required=True)
    split.add_argument("--lambda", dest="lam", type=float, default=None)
    split.add_argument("--out-pi", help="output path for the reshaped component")
    split.add_argument("--out-pi-tilde", help="output path for the remainder component")
    _add_tol_flag(split)

    emb = sub.add_parser("embed", help="lift a tree law to a nested distribution")
    emb.set_defaults(handler=_cmd_embed)
    emb.add_argument("--mu", required=True)
    emb.add_argument("-o", "--output", required=True)

    fs = sub.add_parser("from-samples", help="build a tree from a CSV of sample paths")
    fs.set_defaults(handler=_cmd_from_samples)
    fs.add_argument("--csv", required=True)
    fs.add_argument("--merge-tol", type=float, default=0.0)
    fs.add_argument(
        "--weight-column", action="store_true",
        help="treat the last column as weights (implied by a header ending in 'weight')",
    )
    fs.add_argument("-o", "--output", required=True)

    demo = sub.add_parser("demo", help="parameterized regression drivers")
    dsub = demo.add_subparsers(dest="what", required=True)
    demo.set_defaults(handler=_cmd_demo)
    d1 = dsub.add_parser("incompleteness")
    d1.add_argument("--n-max", type=int, default=10)
    _add_metric_flags(d1)
    d2 = dsub.add_parser("separating")
    d2.add_argument("--eps", type=float, nargs="+", default=[1.0, 0.1, 0.01])
    _add_metric_flags(d2)
    d3 = dsub.add_parser("kr-gap")
    d3.add_argument("--n", type=int, default=4)
    d3.add_argument("--discretize", type=int, default=16)
    _add_p_flag(d3)
    d4 = dsub.add_parser("extreme-split")
    d4.add_argument("--seed", type=int, default=0)
    d4.add_argument("--depth", type=int, default=2)
    d5 = dsub.add_parser("isometry")
    d5.add_argument("--seed", type=int, default=0)
    d5.add_argument("--trials", type=int, default=20)
    d5.add_argument("--depth", type=int, default=3)
    _add_metric_flags(d5)
    for dp in (d1, d2, d3, d4, d5):
        _add_tol_flag(dp)
    return parser


@functools.cache
def _parser() -> _Parser:
    return build_parser()


# ------------------------------------------------------------- handlers


def _cmd_compute_pair(args, report) -> str | None:
    metric = _metric_from(args)
    mu = load_tree(args.mu)
    nu = load_tree(args.nu)
    results = report["results"]
    plan = None
    if args.what == "nested":
        res = nested_distance(mu, nu, metric)
        results["distance"] = res.distance
        if args.oracle:
            oracle = brute_force_bicausal(mu, nu, metric)
            results["oracle_distance"] = oracle.distance
            # LP values, not distances: the 1/p root turns a cost that the
            # LP drops within its tolerance into a far larger distance gap.
            # One ulp passes ORACLE_TOL from 1e8 on, hence the ROUNDING term.
            value, oracle_value = res.distance**metric.p, oracle.distance**metric.p
            bound = ORACLE_TOL + ROUNDING * max(abs(value), abs(oracle_value))
            ok = abs(oracle_value - value) <= bound
            report["oracle_check"] = "ok" if ok else "mismatch"
            if not ok:
                return f"oracle mismatch: LP values |{value} - {oracle_value}| > {bound}"
        if args.emit_plan:
            plan = res.plan
    elif args.what == "wasserstein":
        results["distance"] = wasserstein_distance(mu, nu, metric)
    else:  # kr
        kr = kr_coupling(mu, nu, metric)
        plan, results["distance"] = kr.coupling, metric.root(kr.cost)
    if plan is not None and args.emit_plan:
        save_coupling(plan, args.emit_plan)
        results["plan_file"] = str(args.emit_plan)
    return None


def _cmd_compute_lifted(args, report) -> None:
    metric = _metric_from(args)
    p = load_nested(args.P)
    q = load_nested(args.Q)
    report["results"]["distance"] = nested_wasserstein(p, q, metric)


def _cmd_check(args, report) -> None:
    mu = load_tree(args.mu)
    nu = load_tree(args.nu)
    gamma = load_coupling(args.plan)
    report["results"] = dataclasses.asdict(is_bicausal(gamma, mu, nu, tol=args.tol))


def _cmd_split(args, report) -> None:
    stem = Path(args.plan)
    out_pi = Path(args.out_pi) if args.out_pi else stem.with_name(stem.stem + "_pi.json")
    out_tilde = (
        Path(args.out_pi_tilde)
        if args.out_pi_tilde
        else stem.with_name(stem.stem + "_pi_tilde.json")
    )
    if out_pi.resolve() == out_tilde.resolve():
        raise ValidationError(f"pi and pi_tilde would both be written to {out_pi}")
    mu = load_tree(args.mu)
    nu = load_tree(args.nu)
    gamma = load_coupling(args.plan)
    res = split_non_extreme(gamma, mu, nu, lam=args.lam, tol=args.tol)
    save_coupling(res.pi, out_pi)
    save_coupling(res.pi_tilde, out_tilde)
    report["results"] = {
        "lambda": res.lam,
        "pi_file": str(out_pi),
        "pi_tilde_file": str(out_tilde),
        "pi_causal": is_causal(res.pi, mu, tol=args.tol).is_causal,
        "pi_tilde_causal": is_causal(res.pi_tilde, mu, tol=args.tol).is_causal,
        "stopping_stages": {
            repr(list(k)): v for k, v in sorted(res.tau_per_history.items())
        },
        "thresholds": {
            repr(list(k)): v for k, v in sorted(res.j_per_history.items())
        },
    }


def _cmd_embed(args, report) -> None:
    dist = embed(load_tree(args.mu))
    save_nested(dist, args.output)
    report["results"] = {"output": str(args.output), "atoms": len(dist.atoms), "depth": dist.depth}


def _cmd_from_samples(args, report) -> None:
    pairs = read_samples_csv(args.csv, weight_column=args.weight_column)
    tree, shift = merged_tree(pairs, args.merge_tol)
    save_tree(tree, args.output)
    report["results"] = {
        "output": str(args.output), "depth": tree.depth, "leaves": len(tree.leaves),
        "max_merge_shift": shift,
    }


def _cmd_demo(args, report) -> str | None:
    ok = True
    if args.what == "incompleteness":
        metric, p = _metric_from(args), args.p
        rows = []
        trees = [collapsing_fan(n) for n in range(1, args.n_max + 1)]
        merged = merged_limit()
        for n, tree in enumerate(trees, start=1):
            d = nested_distance(tree, merged, metric).distance
            closed = (2 ** (p - 1) + n ** (-p)) ** (1.0 / p)
            rows.append({"n": n, "distance_to_merged": d, "closed_form": closed})
            ok = ok and abs(d - closed) <= args.tol
        # Python floats, so that the check below is a Python bool.
        pairwise = cauchy_check(trees, metric).tolist()
        pair_dev = 0.0
        for n in range(1, args.n_max + 1):
            for mm in range(n + 1, args.n_max + 1):
                pair_dev = max(
                    pair_dev, pairwise[n - 1][mm - 1] - abs(1.0 / n - 1.0 / mm)
                )
        ok = ok and pair_dev <= SNAP
        report["results"] = {
            "rows": rows,
            "pairwise_distances": pairwise,
            "max_pairwise_excess": pair_dev,
            "pass": ok,
        }
    elif args.what == "separating":
        metric, p = _metric_from(args), args.p
        rows = []
        bound = 2 ** (p - 1)
        for eps in args.eps:
            mu_eps, mu = perturbed_pair(eps)
            d = nested_distance(mu_eps, mu, metric).distance
            rows.append({"eps": eps, "distance_power_p": d**p, "lower_bound": bound})
            ok = ok and d**p >= bound - args.tol
        report["results"] = {"rows": rows, "pass": ok}
    elif args.what == "kr-gap":

        def gap(mu, nu) -> dict:
            # Built after the family, so a bad --n is reported before a bad --p.
            metric = GroundMetric.usual(args.p)
            return {
                "kr": kr_distance(mu, nu, metric),
                "nested": nested_distance(mu, nu, metric).distance,
            }

        crossed = gap(*crossed_fans(args.n))
        hidden = gap(*hidden_branch_pair(args.n, args.discretize))
        ok = all(r["kr"] >= r["nested"] - args.tol for r in (crossed, hidden))
        report["results"] = {
            "crossed_fans": {**crossed, "nested_upper_bound": 2.0 / args.n},
            "hidden_branch": hidden,
            "pass": ok,
        }
    elif args.what == "extreme-split":
        rng = np.random.default_rng(args.seed)
        tree = random_tree(rng, args.depth, max_leaves=8)
        gamma, nu, alpha = random_monge_mixture(rng, tree)
        res = split_non_extreme(gamma, tree, nu, tol=args.tol)
        masses = {(e.mu_path, e.nu_path): e.mass for e in gamma.entries}
        pi_m = {(e.mu_path, e.nu_path): e.mass for e in res.pi.entries}
        ti_m = {(e.mu_path, e.nu_path): e.mass for e in res.pi_tilde.entries}
        recon = max(
            abs(res.lam * pi_m.get(k, 0.0) + (1 - res.lam) * ti_m.get(k, 0.0) - m)
            for k, m in masses.items()
        )
        pi_ok = is_causal(res.pi, tree, tol=args.tol).is_causal
        tilde_ok = is_causal(res.pi_tilde, tree, tol=args.tol).is_causal
        ok = recon <= SNAP and pi_ok and tilde_ok
        report["results"] = {
            "mixture_weight": alpha,
            "lambda": res.lam,
            "reconstruction_error": recon,
            "pi_causal": pi_ok,
            "pi_tilde_causal": tilde_ok,
            "pass": ok,
        }
    else:  # isometry
        metric = _metric_from(args)
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(args.trials):
            a, b = random_tree_pair(rng, args.depth)
            nd = nested_distance(a, b, metric).distance
            lifted = nested_wasserstein(embed(a), embed(b), metric)
            worst = max(worst, abs(nd - lifted))
        ok = worst <= args.tol
        report["results"] = {"trials": args.trials, "max_deviation": worst, "pass": ok}
    return None if ok else f"demo {args.what} failed its regression check"


def main(argv=None) -> int:
    parser = _parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        _check_flags(args)
        what = getattr(args, "what", None)
        report = {
            "command": args.command if what is None else f"{args.command} {what}",
            # Digested before the handler runs, so an output that overwrites
            # an input does not change the input's reported digest.
            "inputs": {
                name: {"path": str(path), "sha256": file_digest(path)}
                for name in _INPUTS
                if (path := getattr(args, name, None)) is not None
            },
            "params": _params(args),
            "results": {},
            "oracle_check": "skipped",
        }
        failure = args.handler(args, report)
        report["wall_time_s"] = time.perf_counter() - started
        sys.stdout.write(dumps_canonical(report) + "\n")
        if failure is not None:
            print(failure, file=sys.stderr)
            return MISMATCH_EXIT
        return 0
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except RecursionError:  # a RuntimeError, but the input's fault
        print("invalid input: too deeply nested for the recursion limit", file=sys.stderr)
        return VALIDATION_EXIT
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_EXIT


if __name__ == "__main__":
    sys.exit(main())
