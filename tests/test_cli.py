import json
import re

import pytest

from nestedot import Coupling, cli
from nestedot.cli import main
from nestedot.families import fan_vs_merged
from nestedot.io import (
    load_coupling,
    load_nested,
    load_tree,
    save_coupling,
    save_tree,
)


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
    assert plan.total_mass == pytest.approx(1.0, abs=1e-9)


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

    csv.write_text("x,weight\n1,3\n2,1\n")
    code, _, _ = run(capsys, "from-samples", "--csv", str(csv), "-o", str(out))
    assert code == 0
    tree = load_tree(out)
    law = dict(tree.leaf_paths())
    assert law[(1.0,)] == pytest.approx(0.75)


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


def test_oracle_mismatch_error_keeps_exit_3(pair_files, capsys, monkeypatch):
    import nestedot.cli
    from nestedot.errors import OracleMismatchError

    def mismatch(*args):
        raise OracleMismatchError("routes disagree")

    mu, nu = pair_files
    monkeypatch.setattr(nestedot.cli, "nested_distance", mismatch)
    code = main(["compute", "nested", "--mu", str(mu), "--nu", str(nu)])
    assert code == 3
    assert "mismatch: routes disagree" in capsys.readouterr().err


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
