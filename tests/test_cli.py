import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nestedot.nested
from nestedot import (
    Coupling,
    GroundMetric,
    NestedResult,
    ValidationError,
    brute_force_bicausal,
    build_tree,
    cauchy_check,
    cli,
    embed,
    kr_coupling,
    kr_distance,
    nested_distance,
)
from nestedot.cli import main
from nestedot.families import collapsing_fan, fan_vs_merged, random_tree_pair
from nestedot.io import (
    load_coupling,
    load_nested,
    load_tree,
    save_coupling,
    save_nested,
    save_tree,
)
from test_nested import _walk


@pytest.fixture()
def pair_files(tmp_path):
    fan, merged = fan_vs_merged(2)
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    save_tree(fan, mu)
    save_tree(merged, nu)
    return mu, nu


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_compute_nested_with_oracle(pair_files, capsys, tmp_path):
    mu, nu = pair_files
    plan_file = tmp_path / "plan.json"
    code, report, _ = run(
        capsys,
        "compute", "nested", "--mu", str(mu), "--nu", str(nu),
        "--p", "2", "--oracle", "--emit-plan", str(plan_file),
    )
    assert code == 0
    assert report["results"]["distance"] == pytest.approx(1.5, abs=1e-9)
    assert report["oracle_check"] == "ok"
    assert report["params"]["p"] == 2.0
    assert report["params"]["metric"] == "usual"
    plan = load_coupling(plan_file)
    assert math.fsum(e.mass for e in plan.entries) == pytest.approx(1.0, abs=1e-9)


def test_oracle_check_compares_lp_values(capsys, tmp_path):
    # The LP drops the 1e-12 mass within its tolerance and gives 0.0; the
    # recursion's 1e-7 is right.  The LP values differ by 1e-14, the
    # distances by 1e-7, which used to exit 3 as an oracle mismatch.
    mu, nu = tmp_path / "mu.json", tmp_path / "nu.json"
    save_tree(build_tree([((0.0,), 1.0)]), mu)
    save_tree(build_tree([((0.0,), 1 - 1e-12), ((0.1,), 1e-12)]), nu)
    code, report, err = run(
        capsys, "compute", "nested", "--mu", str(mu), "--nu", str(nu), "--p", "2", "--oracle"
    )
    assert code == 0 and err == ""
    assert report["oracle_check"] == "ok"
    assert report["results"]["distance"] == pytest.approx(1e-7, rel=1e-6)


def test_compute_wasserstein_and_kr(pair_files, capsys):
    mu, nu = pair_files
    code, report, _ = run(
        capsys, "compute", "wasserstein", "--mu", str(mu), "--nu", str(nu), "--p", "1"
    )
    assert code == 0
    assert report["results"]["distance"] == pytest.approx(0.5, abs=1e-9)
    code, report, _ = run(
        capsys, "compute", "kr", "--mu", str(mu), "--nu", str(nu), "--p", "1"
    )
    assert code == 0
    assert report["results"]["distance"] == pytest.approx(1.5, abs=1e-9)


def test_check_coupling(pair_files, capsys, tmp_path):
    mu, nu = pair_files
    fan, merged = load_tree(mu), load_tree(nu)
    product = {}
    for x, wx in fan.leaf_paths():
        for y, wy in merged.leaf_paths():
            product[(x, y)] = wx * wy
    plan_file = tmp_path / "product.json"
    save_coupling(Coupling.from_mass_map(product), plan_file)
    code, report, _ = run(
        capsys, "check", "coupling", "--plan", str(plan_file),
        "--mu", str(mu), "--nu", str(nu),
    )
    assert code == 0
    results = report["results"]
    assert results["is_causal"] is True
    assert results["is_bicausal"] is True
    assert results["is_monge_adapted"] is False
    assert results["violations"] == []


@pytest.mark.parametrize("command", ["check coupling", "split"])
def test_plan_commands_reject_laws_of_unequal_depth(capsys, tmp_path, command):
    # A plan between laws of unequal depth has no stage-by-stage kernels to
    # check: it is the input's fault, like a depth mismatch in a solver.
    mu = build_tree([((0.0, 1.0), 0.5), ((1.0, 2.0), 0.5)])
    nu = build_tree([((0.0, 1.0, 2.0), 0.5), ((1.0, 2.0, 3.0), 0.5)])
    pairs = zip(mu.leaf_paths(), nu.leaf_paths())
    plan = Coupling.from_mass_map({(x, y): 0.5 for (x, _), (y, _) in pairs})
    files = {name: tmp_path / f"{name}.json" for name in ("mu", "nu", "plan")}
    save_tree(mu, files["mu"])
    save_tree(nu, files["nu"])
    save_coupling(plan, files["plan"])
    argv = [f"--{name}={path}" for name, path in files.items()]
    code, report, err = run(capsys, *command.split(), *argv)
    assert code == 2 and report is None
    assert err.splitlines() == ["invalid input: depth mismatch: 2 vs 3"]


def test_split_command(pair_files, capsys, tmp_path):
    mu, nu = pair_files
    fan, merged = load_tree(mu), load_tree(nu)
    product = {}
    for x, wx in fan.leaf_paths():
        for y, wy in merged.leaf_paths():
            product[(x, y)] = wx * wy
    plan_file = tmp_path / "product.json"
    save_coupling(Coupling.from_mass_map(product), plan_file)
    code, report, _ = run(
        capsys, "split", "--plan", str(plan_file), "--mu", str(mu), "--nu", str(nu),
    )
    assert code == 0
    results = report["results"]
    assert results["pi_causal"] and results["pi_tilde_causal"]
    pi = load_coupling(results["pi_file"])
    tilde = load_coupling(results["pi_tilde_file"])
    lam = results["lambda"]
    gm = {(e.mu_path, e.nu_path): e.mass for e in Coupling.from_mass_map(product).entries}
    pm = {(e.mu_path, e.nu_path): e.mass for e in pi.entries}
    tm = {(e.mu_path, e.nu_path): e.mass for e in tilde.entries}
    for key in set(gm) | set(pm) | set(tm):
        recon = lam * pm.get(key, 0.0) + (1 - lam) * tm.get(key, 0.0)
        assert abs(recon - gm.get(key, 0.0)) <= 1e-12


def test_split_monge_plan_fails_validation(pair_files, capsys, tmp_path):
    mu, nu = pair_files
    fan = load_tree(mu)
    diagonal = {}
    for x, wx in fan.leaf_paths():
        diagonal[(x, x)] = wx
    plan_file = tmp_path / "diag.json"
    save_coupling(Coupling.from_mass_map(diagonal), plan_file)
    code, _, err = run(
        capsys, "split", "--plan", str(plan_file), "--mu", str(mu), "--nu", str(mu),
    )
    assert code == 2
    assert "already extreme" in err


def test_split_refuses_a_default_lambda_of_zero(capsys, tmp_path):
    # The far atom drags the conditional mean up, so the mass below it
    # rounds to 1 and the default lambda to 0: no strict decomposition.
    # The split used to report "lambda": 0.0 and exit 0.
    files = {"mu": tmp_path / "mu.json", "nu": tmp_path / "nu.json", "plan": tmp_path / "g.json"}
    half = 0.5 - 5e-18
    gamma = Coupling.from_mass_map(
        {((0.0,), (0.0,)): half, ((0.0,), (1.0,)): half, ((0.0,), (1e30,)): 1e-17}
    )
    save_tree(build_tree([((0.0,), 1.0)]), files["mu"])
    save_tree(build_tree((e.nu_path, e.mass) for e in gamma.entries), files["nu"])
    save_coupling(gamma, files["plan"])
    code, report, err = run(capsys, "split", *(f"--{k}={v}" for k, v in files.items()))
    assert code == 2 and report is None
    assert err == "invalid input: no strict split: the default lambda 0.0 is not inside (0, 1)\n"


def test_split_refuses_one_file_for_both_parts(pair_files, capsys, tmp_path, monkeypatch):
    # One file would be left holding only pi_tilde, which fails `check
    # coupling`, so two outputs that resolve to one path are refused
    # before either part is written.
    mu, nu = pair_files
    fan, merged = load_tree(mu), load_tree(nu)
    plan_file = tmp_path / "product.json"
    save_coupling(
        Coupling.from_mass_map(
            {(x, y): wx * wy for x, wx in fan.leaf_paths() for y, wy in merged.leaf_paths()}
        ),
        plan_file,
    )
    monkeypatch.chdir(tmp_path)
    trees = ["--mu", str(mu), "--nu", str(nu)]
    for outs in (
        ["--out-pi", "both.json", "--out-pi-tilde", "both.json"],
        ["--out-pi", "both.json", "--out-pi-tilde", str(tmp_path / "both.json")],
        ["--out-pi", str(tmp_path / "product_pi_tilde.json")],
    ):
        code, report, err = run(capsys, "split", "--plan", str(plan_file), *trees, *outs)
        assert code == 2 and report is None
        assert err.startswith("invalid input: pi and pi_tilde would both be written to ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mu.json", "nu.json", "product.json"]


def test_inputs_are_digested_as_read(pair_files, capsys, tmp_path):
    # An output that overwrites its input used to be reported as the
    # input's digest.
    mu, _ = pair_files
    same = tmp_path / "same.json"
    same.write_bytes(mu.read_bytes())
    before = hashlib.sha256(same.read_bytes()).hexdigest()
    code, report, _ = run(capsys, "embed", "--mu", str(same), "-o", str(same))
    assert code == 0
    assert report["inputs"] == {"mu": {"path": str(same), "sha256": before}}
    assert hashlib.sha256(same.read_bytes()).hexdigest() != before


def test_embed_and_lifted(pair_files, capsys, tmp_path):
    mu, nu = pair_files
    p_file = tmp_path / "P.json"
    q_file = tmp_path / "Q.json"
    code, _, _ = run(capsys, "embed", "--mu", str(mu), "-o", str(p_file))
    assert code == 0
    code, _, _ = run(capsys, "embed", "--mu", str(nu), "-o", str(q_file))
    assert code == 0
    assert load_nested(p_file).depth == 2
    code, report, _ = run(
        capsys, "compute", "lifted", "--P", str(p_file), "--Q", str(q_file), "--p", "2"
    )
    assert code == 0
    assert report["results"]["distance"] == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize(
    "command",
    ["compute nested", "compute nested --oracle", "compute kr", "compute wasserstein",
     "compute lifted"],
)
def test_overflowing_costs_exit_2(capsys, tmp_path, command):
    # Squared base distances near 1e400 used to raise an uncaught
    # OverflowError out of every command but wasserstein.
    files = {}
    for name, top in (("mu", 1e200), ("nu", 1e200 / 3)):
        tree = build_tree([((top,), 0.5), ((-top,), 0.5)])
        files[name] = tmp_path / f"{name}.json"
        save_tree(tree, files[name])
        files[name.upper()] = tmp_path / f"{name}.nested.json"
        save_nested(embed(tree), files[name.upper()])
    if command == "compute lifted":
        argv = ["--P", str(files["MU"]), "--Q", str(files["NU"])]
    else:
        argv = ["--mu", str(files["mu"]), "--nu", str(files["nu"])]
    code, report, err = run(capsys, *command.split(), *argv, "--p", "2")
    assert code == 2 and report is None
    assert err.startswith("invalid input: ")


@pytest.mark.parametrize("command", ["compute nested", "compute kr", "compute wasserstein"])
def test_overflow_names_the_base_distance(capsys, tmp_path, command):
    # compute wasserstein used to say only "cost entries must be finite".
    files = []
    for name, value in (("mu", 1e300), ("nu", 0.0)):
        files += [f"--{name}", str(tmp_path / f"{name}.json")]
        save_tree(build_tree([((value,), 1.0)]), files[-1])
    code, report, err = run(capsys, *command.split(), *files, "--p", "2")
    assert code == 2 and report is None
    assert err == "invalid input: cost overflows: base distance 1e+300 to the power 2.0\n"


@pytest.mark.parametrize("command", ["compute nested", "compute kr", "compute wasserstein"])
def test_truncated_metric_end_to_end(capsys, tmp_path, command):
    # Stage 1 is cut at the cap, stage 2 is not: 0.5 + 0.25 at p = 1.
    files = []
    for name, path in (("mu", (0.0, 0.0)), ("nu", (3.0, 0.25))):
        files += [f"--{name}", str(tmp_path / f"{name}.json")]
        save_tree(build_tree([(path, 1.0)]), files[-1])
    flags = ["--metric", "truncated", "--cap", "0.5", "--p", "1"]
    code, report, _ = run(capsys, *command.split(), *files, *flags)
    assert code == 0
    assert (report["params"]["metric"], report["params"]["cap"]) == ("truncated", 0.5)
    assert report["results"]["distance"] == 0.75


PATH_COST_OVERFLOW = "cost overflows: a path cost passes the float range"


@pytest.mark.parametrize(
    "call",
    ["compute nested", "compute kr", "compute wasserstein", "compute lifted",
     "kr_distance", "kr_coupling cost", "brute_force_bicausal"],
)
def test_path_cost_overflow_is_reported_once(capsys, tmp_path, call):
    # Each stage cost is about 1e308, which is finite; their sum is not.
    # kr used to return inf, nested and lifted to say "cost entries must be
    # finite", wasserstein to blame a finite base distance and the oracle
    # to fail in HiGHS.
    mu = build_tree([((0.0, 0.0), 0.5), ((1.0, 1.0), 0.5)])
    nu = build_tree([((1e154, 1e154), 0.5), ((-1e154, -1e154), 0.5)])
    metric = GroundMetric.usual(2.0)
    library = {
        "kr_distance": lambda: kr_distance(mu, nu, metric),
        "kr_coupling cost": lambda: kr_coupling(mu, nu).coupling.cost(metric),
        "brute_force_bicausal": lambda: brute_force_bicausal(mu, nu, metric),
    }
    if call in library:
        with pytest.raises(ValidationError) as exc:
            library[call]()
        assert str(exc.value) == PATH_COST_OVERFLOW
        return
    lifted = call == "compute lifted"
    argv = []
    for flag, tree in zip(("P", "Q") if lifted else ("mu", "nu"), (mu, nu)):
        if lifted:
            save_nested(embed(tree), tmp_path / flag)
        else:
            save_tree(tree, tmp_path / flag)
        argv += [f"--{flag}", str(tmp_path / flag)]
    code, report, err = run(capsys, *call.split(), *argv, "--p", "2")
    assert code == 2 and report is None
    assert err == f"invalid input: {PATH_COST_OVERFLOW}\n"


def _write_argv(mu, nu, tmp_path, command) -> list[str]:
    out = str(tmp_path / "missing" / "x.json")
    trees = ["--mu", str(mu), "--nu", str(nu)]
    if command in ("compute nested", "compute kr"):
        return [*command.split(), *trees, "--emit-plan", out]
    if command == "embed":
        return ["embed", "--mu", str(mu), "-o", out]
    if command == "from-samples":
        csv = tmp_path / "samples.csv"
        csv.write_text("0,1\n0.5,2\n")
        return ["from-samples", "--csv", str(csv), "-o", out]
    plan = tmp_path / "plan.json"
    save_coupling(nested_distance(load_tree(mu), load_tree(nu), GroundMetric.usual()).plan, plan)
    return ["split", "--plan", str(plan), *trees, "--out-pi", out]


@pytest.mark.parametrize(
    "command, what",
    [("compute nested", "plan"), ("compute kr", "plan"), ("embed", "nested-distribution"),
     ("from-samples", "tree"), ("split", "plan")],
)
def test_unwritable_output_exits_2(pair_files, capsys, tmp_path, command, what):
    # Each used to end in a traceback from an uncaught FileNotFoundError.
    argv = _write_argv(*pair_files, tmp_path, command)
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None
    assert err.startswith(f"invalid input: cannot write {what} file {tmp_path / 'missing'}")


def test_from_samples_variants(capsys, tmp_path):
    csv = tmp_path / "samples.csv"
    csv.write_text("0,1\n0.5,2\n")
    out = tmp_path / "tree.json"
    code, report, _ = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 0
    assert report["results"]["leaves"] == 2
    tree = load_tree(out)
    assert len(tree.nodes_at_stage(1)) == 2  # distinct first coordinates fan out

    csv.write_text("0,1\n0,1\n0,2\n")
    code, report, _ = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 0
    assert report["results"]["leaves"] == 2  # duplicate rows merged
    tree = load_tree(out)
    assert len(tree.nodes_at_stage(1)) == 1  # shared first coordinate
    law = dict(tree.leaf_paths())
    assert law[(0.0, 1.0)] == pytest.approx(2 / 3, abs=1e-12)

    csv.write_text("a,b\n0,1\n")
    code, _, err = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 0  # header row is tolerated

    csv.write_text("0,1\n0,not_a_number\n")
    code, _, err = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 2
    assert "non-numeric" in err

    csv.write_text("0,1\n0,1,2\n")
    code, _, err = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 2
    assert "ragged" in err

    # a header must have as many fields as the data rows
    for text, counts in (("a,b,weight\n1,2\n3,4\n", (3, 2)), ("a,b\n1,2,3\n3,4,5\n", (2, 3))):
        csv.write_text(text)
        code, _, err = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
        assert code == 2
        assert f"CSV header has {counts[0]} fields but the data rows have {counts[1]}" in err

    csv.write_text("x,weight\n1,3\n2,1\n")
    code, _, _ = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 0
    tree = load_tree(out)
    law = dict(tree.leaf_paths())
    assert law[(1.0,)] == pytest.approx(0.75)

    # The flag names the weight column whatever the header calls it.
    csv.write_text("x1,x2,w\n0,1,3\n0,2,1\n")
    code, report, _ = run(
        capsys, "from-samples", "--csv", str(csv), "--weight-column", "-o", str(out)
    )
    assert code == 0 and report["results"]["depth"] == 2
    law = dict(load_tree(out).leaf_paths())
    assert law == pytest.approx({(0.0, 1.0): 0.75, (0.0, 2.0): 0.25})


@pytest.mark.parametrize("merge_tol, shift, leaves", [("1.0", 1.35, 1), ("0", 0.0, 4)])
def test_from_samples_reports_the_merge_shift(capsys, tmp_path, merge_tol, shift, leaves):
    # Adjacent gaps of 0.9 chain four values into one node at 1.35, which
    # moves the two end values by 1.35, more than the merge tolerance.
    csv, out = tmp_path / "samples.csv", tmp_path / "tree.json"
    csv.write_text("0\n0.9\n1.8\n2.7\n")
    code, report, _ = run(
        capsys, "from-samples", "--csv", str(csv), "--merge-tol", merge_tol, "-o", str(out)
    )
    assert code == 0 and report["results"]["leaves"] == leaves
    assert report["results"]["max_merge_shift"] == pytest.approx(shift, abs=1e-15)


def test_from_samples_reads_the_first_row(capsys, tmp_path):
    csv, out = tmp_path / "samples.csv", tmp_path / "tree.json"
    # A byte-order mark used to drop the first data row as a header.
    csv.write_text("\ufeff1,2\n3,4\n5,6\n", encoding="utf-8")
    code, report, _ = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 0 and report["results"]["leaves"] == 3
    assert dict(load_tree(out).leaf_paths()) == pytest.approx(
        {(1.0, 2.0): 1 / 3, (3.0, 4.0): 1 / 3, (5.0, 6.0): 1 / 3}
    )
    # A first row with a number in it is data, so its bad cell is an error.
    csv.write_text("1,x\n2,3\n4,5\n")
    code, report, err = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 2 and report is None
    assert err == "invalid input: non-numeric cell 'x' on line 1\n"


@pytest.mark.parametrize(
    "rows,message",
    [
        ("1,inf\n2,1\n", "weight inf on line 2 is not finite and positive"),
        ("1,nan\n2,1\n", "weight nan on line 2 is not finite and positive"),
        ("1,1e308\n2,1e308\n", "weights sum to inf, which is not finite"),
    ],
)
def test_from_samples_names_a_bad_weight(capsys, tmp_path, rows, message):
    # Dividing by the sum would turn each of these into a nan or 0.0
    # weight; the message names the weight or the sum the file gives.
    csv = tmp_path / "samples.csv"
    csv.write_text("a,weight\n" + rows)
    out = tmp_path / "tree.json"
    code, report, err = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 2 and report is None
    assert err == f"invalid input: {message}\n"


@pytest.mark.parametrize(
    "rows, flags, message",
    [
        ("a,b\n1,2\n\n3,x\n", [], "non-numeric cell 'x' on line 4"),
        (
            "1,0.5\n\n2,-1\n",
            ["--weight-column"],
            "weight -1.0 on line 3 is not finite and positive",
        ),
    ],
)
def test_from_samples_counts_blank_lines(capsys, tmp_path, rows, flags, message):
    csv = tmp_path / "samples.csv"
    csv.write_text(rows)
    out = tmp_path / "tree.json"
    code, report, err = run(capsys, "from-samples", "--csv", str(csv), *flags, "-o", str(out))
    assert code == 2 and report is None
    assert err == f"invalid input: {message}\n"


# The settable values commands used to accept and never read; each is now
# unknown to its command.
DEAD_FLAGS = [
    (["compute", "nested", "--mu", "a", "--nu", "b"], ["--tol", "1e-6"]),
    (["compute", "wasserstein", "--mu", "a", "--nu", "b"], ["--tol", "1e-6"]),
    (["compute", "kr", "--mu", "a", "--nu", "b"], ["--tol", "1e-6"]),
    (["compute", "lifted", "--P", "a", "--Q", "b"], ["--tol", "1e-6"]),
    (["compute", "wasserstein", "--mu", "a", "--nu", "b"], ["--emit-plan", "x"]),
    *[
        (cmd, [flag, value])
        for cmd in (
            ["check", "coupling", "--plan", "g", "--mu", "a", "--nu", "b"],
            ["split", "--plan", "g", "--mu", "a", "--nu", "b"],
            ["demo", "extreme-split"],
        )
        for flag, value in (("--p", "1"), ("--metric", "truncated"), ("--cap", "2"))
    ],
    *[
        (["embed", "--mu", "a", "-o", "P"], [flag, value])
        for flag, value in (("--p", "2"), ("--metric", "truncated"), ("--cap", "2"), ("--tol", "0"))
    ],
    (["demo", "kr-gap"], ["--metric", "truncated"]),
    (["demo", "kr-gap"], ["--cap", "2"]),
]


def test_unknown_flag_exits_64(capsys):
    code = main(["compute", "nested", "--bogus"])
    captured = capsys.readouterr()
    assert code == 64
    assert "usage" in captured.err.lower() or "error" in captured.err.lower()
    assert len(DEAD_FLAGS) == 20
    for argv, flag in DEAD_FLAGS:
        assert main(argv + flag) == 64, argv + flag
        assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_params_list_every_flag_but_paths():
    expected = {
        "compute nested --mu a --nu b": {"p", "metric", "cap", "oracle"},
        "compute wasserstein --mu a --nu b": {"p", "metric", "cap"},
        "compute kr --mu a --nu b": {"p", "metric", "cap"},
        "compute lifted --P a --Q b": {"p", "metric", "cap"},
        "check coupling --plan g --mu a --nu b": {"tol"},
        "split --plan g --mu a --nu b": {"lam", "tol"},
        "embed --mu a -o P": set(),
        "from-samples --csv s -o t": {"merge_tol", "weight_column"},
        "demo incompleteness": {"n_max", "p", "metric", "cap", "tol"},
        "demo separating": {"eps", "p", "metric", "cap", "tol"},
        "demo kr-gap": {"n", "discretize", "p", "tol"},
        "demo extreme-split": {"seed", "depth", "tol"},
        "demo isometry": {"seed", "trials", "depth", "p", "metric", "cap", "tol"},
    }
    for argv, keys in expected.items():
        assert set(cli._params(cli._parser().parse_args(argv.split()))) == keys, argv
    args = cli._parser().parse_args("compute kr --mu a --nu b --metric truncated".split())
    assert cli._params(args)["cap"] == 1.0
    assert cli._params(cli._parser().parse_args("compute kr --mu a --nu b".split()))["cap"] is None


def test_parser_built_once_per_process(pair_files, capsys, monkeypatch):
    mu, nu = pair_files
    calls = []
    build = cli.build_parser

    def counting():
        calls.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        for _ in range(3):
            assert main(["compute", "kr", "--mu", str(mu), "--nu", str(nu)]) == 0
        assert main(["compute", "kr", "--bogus"]) == 64
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(calls) == 1


def test_usage_error_leaves_parser_usable(pair_files, capsys):
    mu, nu = pair_files
    argv = ["compute", "nested", "--mu", str(mu), "--nu", str(nu), "--p", "2"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    for bad in (["compute", "nested", "--bogus"], ["compute"], ["demo", "kr-gap", "--n", "x"]):
        assert run(capsys, *bad)[0] == 64
    code, report, err = run(capsys, *argv)
    assert code == 0 and err == ""
    for rep in (report, expected):
        rep.pop("wall_time_s")
    assert report == expected


def test_missing_file_exits_2(capsys, tmp_path):
    code = main(
        ["compute", "nested", "--mu", str(tmp_path / "none.json"), "--nu", str(tmp_path / "none.json")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid input" in captured.err


@pytest.mark.parametrize(
    "command, flags, body",
    [
        (("compute", "nested"), ("--mu", "--nu"), {"depth": 1, "nodes": 5}),
        (("embed",), ("--mu",), {"depth": 1, "nodes": 5}),
        (("compute", "lifted"), ("--P", "--Q"), {"atoms": 3}),
    ],
)
def test_malformed_json_shape_exits_2(capsys, tmp_path, command, flags, body):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    argv = [*command]
    for flag in flags:
        argv += [flag, str(bad)]
    if command == ("embed",):
        argv += ["-o", str(tmp_path / "out.json")]
    code = main(argv)
    assert code == 2
    assert "must be a JSON array" in capsys.readouterr().err


def test_non_numbers_in_numeric_fields_exit_2(capsys, tmp_path):
    # Both one-leaf trees used to load: the strings and booleans read as numbers.
    root = {"id": 0, "parent": None, "stage": 0, "value": None, "prob": None}
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"depth": 1, "nodes": [
        root, {"id": 1, "parent": 0, "stage": 1, "value": 0.5, "prob": 1.0}]}))
    bad.write_text(json.dumps({"depth": 1, "nodes": [
        root, {"id": 1, "parent": 0, "stage": 1, "value": "0.5", "prob": True}]}))
    assert main(["compute", "nested", "--mu", str(good), "--nu", str(good)]) == 0
    capsys.readouterr()
    code = main(["compute", "nested", "--mu", str(bad), "--nu", str(good)])
    assert code == 2
    assert "malformed tree node record" in capsys.readouterr().err


def test_mixed_depth_nested_json_exits_2(capsys, tmp_path):
    leaf = {"mass": 0.5, "value": 0.0, "next": None}
    deep = {"mass": 0.5, "value": 1.0, "next": {"atoms": [{"mass": 1.0, "value": 0.0, "next": None}]}}
    bad = tmp_path / "mixed.json"
    bad.write_text(json.dumps({"atoms": [leaf, deep]}))
    code = main(["compute", "lifted", "--P", str(bad), "--Q", str(bad)])
    assert code == 2
    assert "disagree on recursion depth" in capsys.readouterr().err


def test_nested_masses_summing_past_the_float_range_exit_2(capsys, tmp_path):
    # Finite atom masses whose fsum overflows used to raise a bare OverflowError.
    bad = tmp_path / "huge.json"
    atoms = [{"mass": 1e308, "value": v, "next": None} for v in (0.0, 1.0)]
    bad.write_text(json.dumps({"atoms": atoms}))
    code = main(["compute", "lifted", "--P", str(bad), "--Q", str(bad)])
    assert code == 2
    assert "atom masses sum to inf, expected 1" in capsys.readouterr().err


def _deep_nested_text(depth):
    text = "null"
    for _ in range(depth):
        text = '{"atoms":[{"mass":1.0,"value":0.0,"next":' + text + "}]}"
    return text


def _chain_tree_text(depth):
    nodes = [{"id": 0, "parent": None, "stage": 0, "value": None, "prob": None}]
    nodes += [
        {"id": k, "parent": k - 1, "stage": k, "value": 0.0, "prob": 1.0}
        for k in range(1, depth + 1)
    ]
    return json.dumps({"depth": depth, "nodes": nodes})


@pytest.mark.parametrize("command", ["compute lifted", "embed", "demo extreme-split"])
def test_too_deep_input_exits_2_not_4(capsys, tmp_path, command):
    # The lifted recursion, the nested-distribution JSON writer (the lift
    # itself is built without recursing) and the demos' random trees recurse
    # once per stage; past the interpreter's recursion limit that is the
    # input's fault, not a solver failure.
    depth = sys.getrecursionlimit() + 200
    src = tmp_path / "deep.json"
    if command == "embed":
        src.write_text(_chain_tree_text(depth))
        argv = ["embed", "--mu", str(src), "-o", str(tmp_path / "out.json")]
    elif command == "compute lifted":
        src.write_text(_deep_nested_text(depth))
        argv = ["compute", "lifted", "--P", str(src), "--Q", str(src)]
    else:
        argv = [*command.split(), "--depth", str(depth)]
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid input: too deeply nested for the recursion limit"
    ]


def test_separating_demo_rejects_zero_eps(capsys):
    code = main(["demo", "separating", "--eps", "0.1", "0"])
    assert code == 2
    assert "eps must be finite and nonzero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "coupling", "--tol", "nan"], "--tol"),
        (["check", "coupling", "--tol", "inf"], "--tol"),
        (["check", "coupling", "--tol", "-1"], "--tol"),
        (["split", "--tol", "nan"], "--tol"),
        (["demo", "kr-gap", "--tol=-inf"], "--tol"),
        (["demo", "isometry", "--trials", "0"], "--trials"),
        (["demo", "incompleteness", "--n-max", "0"], "--n-max"),
        (["demo", "incompleteness", "--n-max", "1"], "--n-max"),
        (["demo", "isometry", "--seed", "-1"], "--seed"),
        (["demo", "extreme-split", "--seed", "-1"], "--seed"),
    ],
)
def test_bad_flag_values_exit_2(pair_files, capsys, tmp_path, argv, flag):
    # Each value used to run: a NaN or negative tolerance misjudged valid
    # plans, an empty demo passed after checking nothing, and a negative
    # seed ended in a traceback.
    if argv[0] in ("check", "split"):
        mu, nu = pair_files
        plan = tmp_path / "plan.json"
        save_coupling(
            nested_distance(load_tree(mu), load_tree(nu), GroundMetric.usual(2.0)).plan, plan
        )
        argv = [*argv, "--plan", str(plan), "--mu", str(mu), "--nu", str(nu)]
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None
    assert err.startswith(f"invalid input: {flag} must be ")


def test_solver_failure_exits_4(pair_files, capsys, monkeypatch):
    import nestedot.nested
    from scipy.optimize import OptimizeResult

    mu, nu = pair_files
    monkeypatch.setattr(
        nestedot.nested, "linprog",
        lambda *a, **k: OptimizeResult(success=False, message="forced failure"),
    )
    code = main(["compute", "nested", "--mu", str(mu), "--nu", str(nu), "--oracle"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.splitlines() == [
        "solver failure: bicausal oracle LP failed: forced failure"
    ]


def test_simplex_out_of_pivots_exits_4(capsys, tmp_path, monkeypatch):
    import nestedot.transport

    # Three paths each, crossed: the northwest-corner start is not optimal.
    mu = build_tree([((0.0, 0.0), 0.25), ((1.0, 5.0), 0.5), ((2.0, 10.0), 0.25)])
    nu = build_tree([((0.0, 10.0), 0.25), ((1.0, 5.0), 0.5), ((2.0, 0.0), 0.25)])
    save_tree(mu, tmp_path / "mu.json")
    save_tree(nu, tmp_path / "nu.json")
    argv = ["compute", "wasserstein", "--mu", str(tmp_path / "mu.json"),
            "--nu", str(tmp_path / "nu.json")]
    assert run(capsys, *argv)[0] == 0
    limits = nestedot.transport._pivot_limits
    monkeypatch.setattr(nestedot.transport, "_pivot_limits", lambda m, n: (limits(m, n)[0], 1))
    code, report, err = run(capsys, *argv)
    assert code == 4 and report is None
    assert err == "solver failure: transportation simplex did not converge\n"


def test_oracle_mismatch_exits_3(pair_files, capsys, monkeypatch):
    real = cli.brute_force_bicausal

    def shifted(mu, nu, metric):
        res = real(mu, nu, metric)
        return NestedResult(res.distance + 0.1, lambda: res.plan)

    mu, nu = pair_files
    monkeypatch.setattr(cli, "brute_force_bicausal", shifted)
    code, report, err = run(
        capsys, "compute", "nested", "--mu", str(mu), "--nu", str(nu), "--oracle"
    )
    assert code == 3
    assert report["oracle_check"] == "mismatch"
    assert report["results"]["oracle_distance"] == pytest.approx(1.6, abs=1e-9)
    assert err.startswith("oracle mismatch: LP values ")


@pytest.fixture()
def built_plans(monkeypatch):
    """Counts of plans composed and of couplings built since the fixture ran."""
    counts = {"composed": 0, "couplings": 0}
    compose, post_init = nestedot.nested.compose_plan, Coupling.__post_init__

    def counted_compose(*args):
        counts["composed"] += 1
        return compose(*args)

    def counted_post_init(self):
        counts["couplings"] += 1
        post_init(self)

    monkeypatch.setattr(nestedot.nested, "compose_plan", counted_compose)
    monkeypatch.setattr(Coupling, "__post_init__", counted_post_init)
    return counts


@pytest.mark.parametrize("flags", [[], ["--oracle"]])
def test_distance_only_commands_build_no_plan(pair_files, capsys, built_plans, flags):
    mu, nu = pair_files
    code, report, _ = run(capsys, "compute", "nested", "--mu", str(mu), "--nu", str(nu), *flags)
    assert code == 0 and report["results"]["distance"] == pytest.approx(1.5, abs=1e-9)
    assert built_plans == {"composed": 0, "couplings": 0}


def test_cauchy_check_builds_no_plan(built_plans):
    cauchy_check([collapsing_fan(n) for n in (1, 2, 3)], GroundMetric.usual())
    assert built_plans == {"composed": 0, "couplings": 0}


def test_emitted_plan_is_composed_once(pair_files, capsys, tmp_path, built_plans):
    mu, nu = pair_files
    plan = tmp_path / "plan.json"
    code, _, _ = run(
        capsys, "compute", "nested", "--mu", str(mu), "--nu", str(nu), "--oracle",
        "--emit-plan", str(plan),
    )
    assert code == 0
    assert built_plans == {"composed": 1, "couplings": 1}
    res = nested_distance(load_tree(mu), load_tree(nu), GroundMetric.usual())
    assert res.plan is res.plan
    assert built_plans == {"composed": 2, "couplings": 2}
    assert res.plan == load_coupling(plan)


def _emitted_plan_pairs():
    """Seeded random pairs of depth 1 to 3, then depth-6 binomial walks
    whose step probabilities differ (a KR plan of several hundred entries)."""
    rng = np.random.default_rng(23)
    for k in range(24):
        yield random_tree_pair(rng, 1 + k % 3)
    for up_mu, up_nu in ((0.5, 0.6875), (0.25, 0.75), (0.4, 0.55), (0.3, 0.9)):
        yield _walk(6, 1.0, up_mu), _walk(6, 1.0, up_nu)


# sha256 of the exit codes, the results (file names aside) and the written
# plan files of the commands below, taken before plans were held as leaf
# pairs and written without the JSON encoder.
PINNED_PLAN_FILES_SHA256 = "51036a6ad9fd7fa6c450f51e01cfccceb1192caf1eb41eb641f4435cecc81483"


def test_emitted_plan_bytes_are_pinned(capsys, tmp_path):
    metrics = (["--p", "2"], ["--p", "1.5"], ["--metric", "truncated", "--cap", "0.5", "--p", "1"])
    outputs = ("nested", "kr", "kr_pi", "kr_tilde", "nested_pi", "nested_tilde")
    digest = hashlib.sha256()
    for k, (mu, nu) in enumerate(_emitted_plan_pairs()):
        f = {name: tmp_path / f"{k}_{name}.json" for name in ("mu", "nu", *outputs)}
        save_tree(mu, f["mu"])
        save_tree(nu, f["nu"])
        trees = ["--mu", str(f["mu"]), "--nu", str(f["nu"])]
        commands = [
            ["compute", "nested", *trees, *metrics[k % 3], "--emit-plan", str(f["nested"])],
            ["compute", "kr", *trees, "--emit-plan", str(f["kr"])],
        ] + [
            argv
            for plan in ("kr", "nested")
            for argv in (
                ["check", "coupling", "--plan", str(f[plan]), *trees],
                ["split", "--plan", str(f[plan]), *trees, "--out-pi", str(f[f"{plan}_pi"]),
                 "--out-pi-tilde", str(f[f"{plan}_tilde"])],
            )
        ]
        for argv in commands:
            code, report, _ = run(capsys, *argv)
            results = {} if report is None else report["results"]
            kept = {key: v for key, v in results.items() if not key.endswith("file")}
            digest.update(json.dumps([code, kept], sort_keys=True).encode())
        for name in outputs:
            if f[name].exists():
                digest.update(f[name].read_bytes())
    assert digest.hexdigest() == PINNED_PLAN_FILES_SHA256


def test_failed_demo_check_exits_3(capsys, monkeypatch):
    real = cli.nested_wasserstein
    monkeypatch.setattr(cli, "nested_wasserstein", lambda p, q, metric: real(p, q, metric) + 0.1)
    code, report, err = run(capsys, "demo", "isometry", "--seed", "2", "--trials", "3")
    assert code == 3
    assert report["results"]["pass"] is False
    assert report["results"]["max_deviation"] == pytest.approx(0.1, abs=1e-9)
    assert err == "demo isometry failed its regression check\n"


@pytest.mark.parametrize("argv", [["--p", "1.5", "--n-max", "6"], ["--p", "3", "--n-max", "3"]])
def test_incompleteness_demo_with_rounding_excess_passes(capsys, argv):
    # A pairwise distance above |1/n - 1/m| by rounding made the check a
    # numpy bool, which the report could not hold: the command exited 2.
    code, report, err = run(capsys, "demo", "incompleteness", *argv)
    assert code == 0 and err == ""
    assert report["results"]["pass"] is True
    assert 0.0 < report["results"]["max_pairwise_excess"] <= 1e-15


def test_demo_commands(capsys):
    code, report, _ = run(capsys, "demo", "incompleteness", "--p", "1", "--n-max", "4")
    assert code == 0 and report["results"]["pass"] is True
    for row in report["results"]["rows"]:
        assert row["distance_to_merged"] == pytest.approx(
            1.0 + 1.0 / row["n"], abs=1e-9
        )
    code, report, _ = run(capsys, "demo", "separating", "--p", "2", "--eps", "1", "0.1")
    assert code == 0 and report["results"]["pass"] is True
    code, report, _ = run(capsys, "demo", "kr-gap", "--n", "4", "--p", "1", "--discretize", "8")
    assert code == 0 and report["results"]["pass"] is True
    assert report["results"]["crossed_fans"]["kr"] == pytest.approx(4.0, abs=1e-9)
    code, report, _ = run(capsys, "demo", "extreme-split", "--seed", "5")
    assert code == 0 and report["results"]["pass"] is True
    code, report, _ = run(capsys, "demo", "isometry", "--seed", "2", "--trials", "5")
    assert code == 0 and report["results"]["pass"] is True


def test_reports_deterministic(pair_files, capsys):
    mu, nu = pair_files

    def normalized(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return re.sub(r'"wall_time_s":[^,}]+', '"wall_time_s":0', out)

    argv = ["compute", "nested", "--mu", str(mu), "--nu", str(nu), "--p", "2"]
    assert normalized(argv) == normalized(argv)


def test_report_round_trips(pair_files, capsys):
    mu, nu = pair_files
    code, report, _ = run(capsys, "compute", "nested", "--mu", str(mu), "--nu", str(nu))
    assert code == 0
    from nestedot.io import dumps_canonical

    text = dumps_canonical({k: v for k, v in report.items() if k != "wall_time_s"})
    assert json.loads(text) == {k: v for k, v in report.items() if k != "wall_time_s"}


# Runs in a fresh interpreter: every command but the oracle's, then the
# module-level ``linprog`` seam that the benchmark tracer and the tests
# patch, then the oracle.  Prints which scipy modules each step had loaded,
# and whether numpy was loaded by the import and after each command.
LAZY_SCIPY = """
import contextlib, io, json, sys
import nestedot, nestedot.cli
numpy_at_import = "numpy" in sys.modules

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nestedot.cli.main(list(argv))
    return code, out.getvalue()

mu, nu, plan, P, Q, csv, tree = sys.argv[1:]
trees = ["--mu", mu, "--nu", nu]
codes, steps = [], []
for argv in (
    ["compute", "nested", *trees, "--emit-plan", plan],
    ["embed", "--mu", mu, "-o", P],
    ["embed", "--mu", nu, "-o", Q],
    ["compute", "lifted", "--P", P, "--Q", Q],
    ["check", "coupling", "--plan", plan, *trees],
    ["split", "--plan", plan, *trees],
    ["from-samples", "--csv", csv, "-o", tree],
    ["compute", "kr", *trees],
    ["compute", "wasserstein", *trees],
    ["demo", "incompleteness", "--n-max", "3"],
):
    codes.append(run(*argv)[0])
    steps.append({"numpy": "numpy" in sys.modules, "scipy": loaded()})
summary = {"codes": codes, "commands": loaded(), "numpy_at_import": numpy_at_import,
           "steps": steps}
seam = vars(nestedot.nested)["linprog"]
summary.update(seam_callable=callable(seam), seam=loaded())
code, out = run("compute", "nested", *trees, "--oracle")
summary.update(oracle_code=code, oracle_check=json.loads(out)["oracle_check"],
               oracle="scipy.optimize" in sys.modules)
print(json.dumps(summary))
"""


def _subprocess_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def test_only_the_oracle_loads_scipy(pair_files, tmp_path):
    mu, nu = pair_files
    csv = tmp_path / "paths.csv"
    csv.write_text("0,1\n1,2\n")
    files = [str(f) for f in (mu, nu, *(tmp_path / f for f in ("plan.json", "P", "Q")), csv,
                              tmp_path / "tree.json")]
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY, *files],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["codes"] == [0] * 10
    assert summary["commands"] == []
    assert summary["seam_callable"] and summary["seam"] == []
    assert summary["oracle_code"] == 0 and summary["oracle_check"] == "ok"
    assert summary["oracle"]
    # The recursion runs on lists: the import, the walk commands (nested,
    # embed, lifted, check, split, from-samples) and kr, whose plan is priced
    # as it is composed, never load numpy; wasserstein is the first to.
    assert summary["numpy_at_import"] is False
    assert [step["numpy"] for step in summary["steps"]] == [False] * 8 + [True] * 2
    assert [step["scipy"] for step in summary["steps"]] == [[]] * 10


# Runs CLI commands in a fresh interpreter in which the module named by
# the first argument cannot be imported; the second is a JSON list of
# command lines.  Prints each command's exit code and stderr.
WITHOUT = """
import contextlib, io, json, sys
sys.modules[sys.argv[1]] = None
import nestedot.cli

results = []
for argv in json.loads(sys.argv[2]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = nestedot.cli.main(argv)
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def _run_without(module: str, commands: list[list[str]]) -> list[list]:
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT, module, json.dumps(commands)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_the_oracle_needs_scipy(pair_files, tmp_path):
    # scipy is the ``oracle`` extra: without it every other command runs,
    # and the oracle is a solver failure of one line, not a traceback.
    mu, nu = map(str, pair_files)
    trees = ["--mu", mu, "--nu", nu]
    plan, tree, P, Q = (str(tmp_path / f) for f in ("plan.json", "tree.json", "P", "Q"))
    csv = tmp_path / "paths.csv"
    csv.write_text("0,1\n1,2\n")
    commands = [
        ["compute", "nested", *trees, "--emit-plan", plan],
        ["compute", "kr", *trees],
        ["compute", "wasserstein", *trees],
        ["embed", "--mu", mu, "-o", P],
        ["embed", "--mu", nu, "-o", Q],
        ["compute", "lifted", "--P", P, "--Q", Q],
        ["check", "coupling", "--plan", plan, *trees],
        ["split", "--plan", plan, *trees],
        ["from-samples", "--csv", str(csv), "-o", tree],
        ["demo", "incompleteness", "--n-max", "3"],
        ["demo", "separating"],
        ["demo", "kr-gap", "--n", "2", "--discretize", "4"],
        ["demo", "extreme-split"],
        ["demo", "isometry", "--trials", "2"],
        ["compute", "nested", *trees, "--oracle"],
    ]
    *others, oracle = _run_without("scipy", commands)
    assert others == [[0, ""]] * (len(commands) - 1)
    assert oracle == [
        4,
        "solver failure: the LP oracle needs scipy, the 'oracle' extra:"
        " pip install 'nestedot[oracle]'\n",
    ]


def test_path_cost_overflow_exits_2_without_numpy(tmp_path):
    # The recursion checks its cost rows with math.isfinite (nested._solve),
    # and the KR plan its path costs as it is composed: a path cost past the
    # float range is still rejected when numpy cannot even be imported.
    argv = {"nested": [], "lifted": []}
    for flag, lift, tree in (
        ("mu", "P", build_tree([((0.0, 0.0), 0.5), ((1.0, 1.0), 0.5)])),
        ("nu", "Q", build_tree([((1e154, 1e154), 0.5), ((-1e154, -1e154), 0.5)])),
    ):
        save_tree(tree, tmp_path / flag)
        save_nested(embed(tree), tmp_path / lift)
        argv["nested"] += [f"--{flag}", str(tmp_path / flag)]
        argv["lifted"] += [f"--{lift}", str(tmp_path / lift)]
    argv["kr"] = argv["nested"]
    results = _run_without("numpy", [["compute", what, *a] for what, a in argv.items()])
    assert results == [[2, f"invalid input: {PATH_COST_OVERFLOW}\n"]] * 3


# Runs CLI commands in a fresh interpreter, with numpy blocked if the first
# argument is "block"; the second is a JSON list of command lines.  Prints
# each command's exit code and report less its wall time, and whether
# numpy was loaded.
REPORTS = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import nestedot.cli

results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nestedot.cli.main(argv)
    report = json.loads(out.getvalue())
    del report["wall_time_s"]
    results.append([code, report])
print(json.dumps({"results": results, "numpy": sys.modules.get("numpy") is not None}))
"""


def test_kr_runs_without_numpy(tmp_path):
    # The KR plan is priced as it is composed, and the demo's nested
    # distances at this size solve scanned simplex problems: neither needs
    # numpy, and both give the reports and the plan file of a run with it.
    mu, nu = random_tree_pair(np.random.default_rng(5), 3)
    save_tree(mu, tmp_path / "mu.json")
    save_tree(nu, tmp_path / "nu.json")
    plan = tmp_path / "plan.json"
    trees = ["--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json")]
    commands = [
        ["compute", "kr", *trees, "--emit-plan", str(plan)],
        ["compute", "kr", *trees, "--p", "1.5", "--metric", "truncated", "--cap", "0.5"],
        ["demo", "kr-gap", "--n", "2", "--discretize", "4"],
    ]
    runs = {}
    for mode in ("block", "load"):
        proc = subprocess.run(
            [sys.executable, "-c", REPORTS, mode, json.dumps(commands)],
            env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout), plan.read_bytes()
        plan.unlink()
    (blocked, blocked_plan), (loaded, loaded_plan) = runs["block"], runs["load"]
    assert [code for code, _ in blocked["results"]] == [0, 0, 0]
    assert blocked["numpy"] is False
    assert blocked["results"] == loaded["results"]
    assert blocked_plan == loaded_plan
