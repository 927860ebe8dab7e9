"""The package's public surface and the names the benchmark tracer binds."""

import ast
import importlib
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import nestedot
import nestedot.cli  # noqa: F401  (loads every module the tracer binds into)
from nestedot.families import fan_vs_merged
from nestedot.io import load_coupling, save_tree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DELETED = (
    "DiscreteDistribution",
    "wasserstein_1d",
    "tree_to_paths",
    "antitone_coupling",
    "PathDistribution",
    "kr_gap_demo",
    "OracleMismatchError",
    "ValueTable",
    "OracleResult",
)


def test_every_export_resolves():
    for name in nestedot.__all__:
        assert getattr(nestedot, name) is not None, name
    namespace: dict = {}
    exec("from nestedot import *", namespace)
    assert set(nestedot.__all__) <= set(namespace)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_exports_stay_gone(name):
    assert name not in nestedot.__all__
    assert not hasattr(nestedot, name)


def test_tracer_binds_every_traced_name(monkeypatch):
    # perfbench/spans.py wraps these functions and methods by name; a
    # deleted or renamed one breaks ``perfbench/run.py --trace 1``.  The
    # import writes no bytecode, so the test leaves perfbench/ untouched.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    sites = spans.Tracer()._sites
    for mod_name, attr, *_ in spans.FUNCTIONS:
        module = importlib.import_module(mod_name)
        assert any(owner is module and name == attr for owner, name, *_ in sites), attr
    for mod_name, cls_name, attr, *_ in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert any(owner is cls and name == attr for owner, name, *_ in sites), attr


def test_tracer_counts_every_command(monkeypatch, capsys, tmp_path):
    # A counter reads the traced call's arguments and result, so a change
    # to a result type breaks it only when it runs: run each command the
    # benchmark runs once under the tracer and read every count.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    mu, nu, plan, P, Q = (str(tmp_path / f) for f in ("mu", "nu", "plan", "P", "Q"))
    for tree, path in zip(fan_vs_merged(2), (mu, nu)):
        save_tree(tree, path)
    trees = ["--mu", mu, "--nu", nu]
    commands = [
        ["compute", "kr", *trees, "--emit-plan", plan],
        ["check", "coupling", "--plan", plan, *trees],
        ["compute", "nested", *trees],
        ["compute", "nested", *trees, "--oracle", "--emit-plan", plan],
        ["compute", "wasserstein", *trees],
        ["embed", "--mu", mu, "-o", P],
        ["embed", "--mu", nu, "-o", Q],
        ["compute", "lifted", "--P", P, "--Q", Q],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [nestedot.cli.main(argv) for argv in commands]
        counts = defaultdict(int)
        tracer.end_job(counts)
        metrics = spans.layer_metrics(tracer, counts)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    assert [name for name in spans.COUNT_METRICS if not metrics[name] > 0] == []
    # Both nested commands count the plan, read or not by the command.
    assert metrics["nested.plan_entries"] == 2 * len(load_coupling(plan))


def test_detect_monge_is_is_causal():
    # One body: the report of ``is_causal`` carries the Monge fields.
    assert nestedot.detect_monge is nestedot.is_causal


def test_no_two_functions_share_a_body():
    # A copied body is two places to fix the next bug; an alias is one.
    src = Path(nestedot.__file__).parent
    seen: dict[str, list[str]] = defaultdict(list)
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                key = ast.dump(node.args) + "".join(map(ast.dump, body))
                seen[key].append(f"{path.name}:{node.name}")
    assert [names for names in seen.values() if len(names) > 1] == []


def test_tree_and_transport_sit_below_the_solvers():
    # The two base modules import nothing of the package but its errors
    # and its tolerances.
    src = Path(nestedot.__file__).parent
    for name in ("tree.py", "transport.py"):
        tree = ast.parse((src / name).read_text())
        local = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
        assert local == {"errors", "tolerances"}, name


def test_only_tree_names_canonical_key():
    # Each subproblem of the recursion picks its own orientation, so no
    # solver orders its operands by the tree's canonical key.
    src = Path(nestedot.__file__).parent
    naming = sorted(
        p.name for p in src.glob("*.py")
        if p.name != "tree.py" and "canonical_key" in p.read_text()
    )
    assert naming == []


def test_only_tree_and_io_read_node_ids():
    # The package addresses a node by its stage and position; node ids are
    # kept for the file format.  So no module but ``tree`` and ``io`` reads
    # a tree's ``ids`` or ``root``.  A ``.root`` that is called, as in
    # ``metric.root(total)``, is the metric's p-th root, not a node.
    src = Path(nestedot.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("tree.py", "io.py"):
            continue
        module = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(module) if isinstance(node, ast.Call)}
        found += [
            f"{path.name}:{node.lineno} reads .{node.attr}"
            for node in ast.walk(module)
            if isinstance(node, ast.Attribute)
            and node.attr in ("ids", "root")
            and id(node) not in called
        ]
    assert found == []


def _module_level_names(module: ast.Module) -> set[str]:
    names = set()
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def test_every_helper_is_read_or_exported():
    # A module-level function, class or constant that no code in the
    # package reads and the package does not export is dead.  The two
    # named families are kept for the tests.
    src = Path(nestedot.__file__).parent
    modules = [ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))]
    defined = set().union(*map(_module_level_names, modules))
    read = set()
    for node in (n for module in modules for n in ast.walk(module)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    assert defined - read - set(nestedot.__all__) == {"fan_vs_merged", "fan_limit_nested"}


def test_only_metrics_reads_the_metric_kind_or_cap():
    # Every solver prices stage values through ``GroundMetric.base_cost``,
    # so no other module branches on the metric's kind or reads its cap.
    # The CLI only hands its --cap flag to the constructor.
    src = Path(nestedot.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "metrics.py":
            continue
        module = ast.parse(path.read_text())
        passed_through = {
            id(node)
            for fn in module.body
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("cli.py", "_metric_from")
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "args.cap"
        }
        for node in ast.walk(module):
            if isinstance(node, ast.alias) and node.name in ("TRUNCATED", "USUAL"):
                found.append(f"{path.name}:{node.lineno} imports {node.name}")
            elif isinstance(node, ast.Attribute) and node.attr in ("kind", "cap"):
                if id(node) not in passed_through:
                    found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert found == []
