"""Command-line front end: compute distances, check plans, run regressions.

Every command prints one JSON report to stdout (deterministic except for
the wall-time field) and writes diagnostics to stderr.  Each command
takes only the flags its handler reads, and the report's ``params`` lists
every one of them except file paths, which appear under ``inputs`` or
``results``.  The parser is built once per process.  Exit codes: 0
success, 2 invalid input, 3 oracle or regression mismatch, 4 solver
failure (the transportation simplex or the oracle LP gave no optimum),
64 usage.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .causality import is_bicausal, is_causal, split_non_extreme
from .embedding import embed, nested_wasserstein
from .errors import OracleMismatchError, ValidationError
from .families import (
    collapsing_fan,
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
from .knothe import kr_coupling, kr_gap_demo
from .metrics import GroundMetric
from .nested import (
    brute_force_bicausal,
    cauchy_check,
    nested_distance,
    wasserstein_distance,
)
from .tree import build_tree

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
        "--tol", type=float, default=1e-9, help="checker and comparison tolerance"
    )


# Destinations that are not flags (dispatch) or are file paths (reported
# under "inputs" or "results"); every other destination is a parameter.
_NOT_PARAMS = frozenset({
    "command", "what", "handler",
    "mu", "nu", "P", "Q", "plan", "csv", "output", "emit_plan", "out_pi", "out_pi_tilde",
})


def _params(args) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    if params.get("metric") == "usual":
        params["cap"] = None
    return params


def _report(args, inputs: dict, results: dict) -> dict:
    what = getattr(args, "what", None)
    return {
        "command": args.command if what is None else f"{args.command} {what}",
        "inputs": inputs,
        "params": _params(args),
        "results": results,
        "oracle_check": "skipped",
    }


def _input_digests(**paths) -> dict:
    out = {}
    for name, path in paths.items():
        if path is not None:
            out[name] = {"path": str(path), "sha256": file_digest(path)}
    return out


def _emit(report: dict, started: float) -> None:
    report["wall_time_s"] = time.perf_counter() - started
    sys.stdout.write(dumps_canonical(report) + "\n")


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
        help="treat the last column of a headerless CSV as weights",
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


def _cmd_compute_pair(args, started) -> int:
    metric = _metric_from(args)
    mu = load_tree(args.mu)
    nu = load_tree(args.nu)
    report = _report(args, _input_digests(mu=args.mu, nu=args.nu), {})
    if args.what == "nested":
        res = nested_distance(mu, nu, metric)
        report["results"]["distance"] = res.distance
        if args.oracle:
            oracle = brute_force_bicausal(mu, nu, metric)
            gap = abs(oracle.distance - res.distance)
            report["results"]["oracle_distance"] = oracle.distance
            report["oracle_check"] = "ok" if gap <= 1e-8 else "mismatch"
            if gap > 1e-8:
                _emit(report, started)
                print(f"oracle mismatch: |{res.distance} - {oracle.distance}| > 1e-8",
                      file=sys.stderr)
                return MISMATCH_EXIT
        if args.emit_plan:
            save_coupling(res.plan, args.emit_plan)
            report["results"]["plan_file"] = str(args.emit_plan)
    elif args.what == "wasserstein":
        report["results"]["distance"] = wasserstein_distance(mu, nu, metric)
    else:  # kr
        plan = kr_coupling(mu, nu)
        report["results"]["distance"] = metric.root(plan.coupling.cost(metric))
        if args.emit_plan:
            save_coupling(plan.coupling, args.emit_plan)
            report["results"]["plan_file"] = str(args.emit_plan)
    _emit(report, started)
    return 0


def _cmd_compute_lifted(args, started) -> int:
    metric = _metric_from(args)
    p = load_nested(args.P)
    q = load_nested(args.Q)
    results = {"distance": nested_wasserstein(p, q, metric)}
    _emit(_report(args, _input_digests(P=args.P, Q=args.Q), results), started)
    return 0


def _report_to_json(rep) -> dict:
    return {
        "is_causal": rep.is_causal,
        "is_bicausal": rep.is_bicausal,
        "is_monge_adapted": rep.is_monge_adapted,
        "is_invertible_monge": rep.is_invertible_monge,
        "max_mu_deviation": rep.max_mu_deviation,
        "max_nu_deviation": rep.max_nu_deviation,
        "violations": [
            {
                "stage": v.stage,
                "x_history": list(v.x_history),
                "y_history": list(v.y_history),
                "side": v.side,
                "deviation": v.deviation,
            }
            for v in rep.violations
        ],
    }


def _cmd_check(args, started) -> int:
    mu = load_tree(args.mu)
    nu = load_tree(args.nu)
    gamma = load_coupling(args.plan)
    results = _report_to_json(is_bicausal(gamma, mu, nu, tol=args.tol))
    inputs = _input_digests(plan=args.plan, mu=args.mu, nu=args.nu)
    _emit(_report(args, inputs, results), started)
    return 0


def _cmd_split(args, started) -> int:
    mu = load_tree(args.mu)
    nu = load_tree(args.nu)
    gamma = load_coupling(args.plan)
    res = split_non_extreme(gamma, mu, nu, lam=args.lam, tol=args.tol)
    stem = Path(args.plan)
    out_pi = Path(args.out_pi) if args.out_pi else stem.with_name(stem.stem + "_pi.json")
    out_tilde = (
        Path(args.out_pi_tilde)
        if args.out_pi_tilde
        else stem.with_name(stem.stem + "_pi_tilde.json")
    )
    save_coupling(res.pi, out_pi)
    save_coupling(res.pi_tilde, out_tilde)
    results = {
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
    inputs = _input_digests(plan=args.plan, mu=args.mu, nu=args.nu)
    _emit(_report(args, inputs, results), started)
    return 0


def _cmd_embed(args, started) -> int:
    mu = load_tree(args.mu)
    dist = embed(mu)
    save_nested(dist, args.output)
    results = {"output": str(args.output), "atoms": len(dist.atoms), "depth": dist.depth}
    _emit(_report(args, _input_digests(mu=args.mu), results), started)
    return 0


def _cmd_from_samples(args, started) -> int:
    paths = read_samples_csv(args.csv, weight_column=args.weight_column)
    tree = build_tree(paths, merge_tol=args.merge_tol)
    save_tree(tree, args.output)
    results = {"output": str(args.output), "depth": tree.depth, "leaves": len(tree.leaves)}
    _emit(_report(args, _input_digests(csv=args.csv), results), started)
    return 0


def _cmd_demo(args, started) -> int:
    report = _report(args, {}, {})
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
        pairwise = cauchy_check(trees, metric) if len(trees) > 1 else np.zeros((1, 1))
        pair_dev = 0.0
        for n in range(1, args.n_max + 1):
            for mm in range(n + 1, args.n_max + 1):
                pair_dev = max(
                    pair_dev, pairwise[n - 1, mm - 1] - abs(1.0 / n - 1.0 / mm)
                )
        ok = ok and pair_dev <= 1e-12
        report["results"] = {
            "rows": rows,
            "pairwise_distances": [[float(v) for v in row] for row in pairwise],
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
        crossed = kr_gap_demo(args.n, args.p, family="crossed_fans")
        hidden = kr_gap_demo(
            args.n, args.p, family="hidden_branch", second_stage_atoms=args.discretize
        )
        ok = crossed.kr >= crossed.nested - args.tol and hidden.kr >= hidden.nested - args.tol
        report["results"] = {
            "crossed_fans": {
                "kr": crossed.kr,
                "nested": crossed.nested,
                "nested_upper_bound": 2.0 / args.n,
            },
            "hidden_branch": {"kr": hidden.kr, "nested": hidden.nested},
            "pass": ok,
        }
    elif args.what == "extreme-split":
        rng = np.random.default_rng(args.seed)
        tree = random_tree(rng, args.depth, max_leaves=8)
        gamma, nu, alpha = random_monge_mixture(rng, tree)
        res = split_non_extreme(gamma, tree, nu)
        masses = {(e.mu_path, e.nu_path): e.mass for e in gamma.entries}
        pi_m = {(e.mu_path, e.nu_path): e.mass for e in res.pi.entries}
        ti_m = {(e.mu_path, e.nu_path): e.mass for e in res.pi_tilde.entries}
        recon = max(
            abs(res.lam * pi_m.get(k, 0.0) + (1 - res.lam) * ti_m.get(k, 0.0) - m)
            for k, m in masses.items()
        )
        pi_ok = is_causal(res.pi, tree, tol=args.tol).is_causal
        tilde_ok = is_causal(res.pi_tilde, tree, tol=args.tol).is_causal
        ok = recon <= 1e-12 and pi_ok and tilde_ok
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
    _emit(report, started)
    if not ok:
        print(f"demo {args.what} failed its regression check", file=sys.stderr)
        return MISMATCH_EXIT
    return 0


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
        return args.handler(args, started)
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except OracleMismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return MISMATCH_EXIT
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_EXIT


if __name__ == "__main__":
    sys.exit(main())
