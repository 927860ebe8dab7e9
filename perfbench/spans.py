"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper at every
``nestedot`` module attribute that binds it (``solve_ot`` is bound in
``nestedot.transport``, ``nestedot.nested``, ``nestedot.embedding`` and the
package itself), and wraps methods on their class.  A wrapper records
(job, name, start, end, parent) in memory; counts are taken after the job
from the call's arguments and result, so they cost no span time.  Nothing
inside ``src/`` changes.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

TIME_METRICS = [
    "cli.self_s",
    "io.load_s", "io.save_s", "io.digest_s",
    "tree.construct_s", "tree.canonical_key_s",
    "transport.solve_s",
    "nested.self_s", "nested.coupling_s", "nested.plan_cost_s", "nested.wasserstein_s",
    "nested.oracle_build_s", "nested.oracle_lp_s",
    "knothe.self_s",
    "causality.self_s",
    "embedding.embed_s", "embedding.lifted_self_s",
]
COUNT_METRICS = [
    "io.bytes_read", "io.bytes_written",
    "tree.construct_calls", "tree.nodes",
    "transport.solve_calls", "transport.cells", "transport.calls_small", "transport.max_cells",
    "nested.node_pairs", "nested.plan_entries", "nested.oracle_rows", "nested.oracle_nnz",
    "knothe.plan_entries",
    "causality.calls", "causality.entries_scanned",
    "embedding.atoms",
]
MAX_METRICS = {"transport.max_cells"}


def _tree_nodes(tree) -> int:
    return sum(len(tree.nodes_at_stage(t)) for t in range(tree.depth + 1))


def _nested_atoms(dist) -> int:
    return sum(1 + (0 if a.next is None else _nested_atoms(a.next)) for a in dist.atoms)


def _count_read(args, kwargs, result):
    return {"io.bytes_read": os.path.getsize(args[0])}


def _count_written(args, kwargs, result):
    return {"io.bytes_written": os.path.getsize(args[1])}


def _count_tree(args, kwargs, result):
    return {"tree.construct_calls": 1, "tree.nodes": _tree_nodes(args[0])}


def _count_solve(args, kwargs, result):
    m, n = len(args[1]), len(args[2])
    return {
        "transport.solve_calls": 1, "transport.cells": m * n,
        "transport.calls_small": int(min(m, n) <= 2), "transport.max_cells": m * n,
    }


def _count_nested(args, kwargs, result):
    mu, nu = args[0], args[1]
    pairs = sum(
        len(mu.nodes_at_stage(t)) * len(nu.nodes_at_stage(t)) for t in range(mu.depth)
    )
    return {"nested.node_pairs": pairs, "nested.plan_entries": len(result.plan)}


def _count_lp(args, kwargs, result):
    a_eq = kwargs["A_eq"]
    return {"nested.oracle_rows": a_eq.shape[0], "nested.oracle_nnz": a_eq.nnz}


def _count_kr(args, kwargs, result):
    return {"knothe.plan_entries": len(result.coupling)}


def _count_causality(args, kwargs, result):
    return {"causality.calls": 1, "causality.entries_scanned": len(args[0].entries)}


def _count_embed(args, kwargs, result):
    return {"embedding.atoms": _nested_atoms(result)}


# (module, attribute, metric that takes the span's self time, counter)
FUNCTIONS = [
    ("nestedot.cli", "main", "cli.self_s", None),
    ("nestedot.io", "load_tree", "io.load_s", _count_read),
    ("nestedot.io", "load_coupling", "io.load_s", _count_read),
    ("nestedot.io", "load_nested", "io.load_s", _count_read),
    ("nestedot.io", "save_tree", "io.save_s", _count_written),
    ("nestedot.io", "save_coupling", "io.save_s", _count_written),
    ("nestedot.io", "save_nested", "io.save_s", _count_written),
    ("nestedot.io", "dumps_canonical", "io.save_s", None),
    ("nestedot.io", "file_digest", "io.digest_s", _count_read),
    ("nestedot.transport", "solve_ot", "transport.solve_s", _count_solve),
    ("nestedot.nested", "nested_distance", "nested.self_s", _count_nested),
    ("nestedot.nested", "wasserstein_distance", "nested.wasserstein_s", None),
    ("nestedot.nested", "brute_force_bicausal", "nested.oracle_build_s", None),
    ("nestedot.nested", "linprog", "nested.oracle_lp_s", _count_lp),
    ("nestedot.knothe", "kr_coupling", "knothe.self_s", _count_kr),
    ("nestedot.causality", "is_causal", "causality.self_s", _count_causality),
    ("nestedot.causality", "is_bicausal", "causality.self_s", _count_causality),
    ("nestedot.causality", "detect_monge", "causality.self_s", _count_causality),
    ("nestedot.embedding", "embed", "embedding.embed_s", _count_embed),
    ("nestedot.embedding", "nested_wasserstein", "embedding.lifted_self_s", None),
]
# (module, class, method, metric, counter); a method is bound once, on its class.
METHODS = [
    ("nestedot.tree", "ScenarioTree", "__init__", "tree.construct_s", _count_tree),
    ("nestedot.tree", "ScenarioTree", "canonical_key", "tree.canonical_key_s", None),
    ("nestedot.nested", "Coupling", "__post_init__", "nested.coupling_s", None),
    ("nestedot.nested", "Coupling", "cost", "nested.plan_cost_s", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.job = 0
        self._stack: list[int] = []
        self._calls: list[tuple] = []
        self._sites = self._bind()

    def _wrap(self, fn, metric, counter):
        spans, stack, calls, clock = self.spans, self._stack, self._calls, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.job, metric, start, end, parent)
            if counter is not None:
                calls.append((counter, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _bind(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding site."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "nestedot" or name.startswith("nestedot."))]
        sites = []
        for mod_name, attr, metric, counter in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, metric, counter)
            sites += [(m, attr, original, wrapper) for m in modules
                      if getattr(m, attr, None) is original]
        for mod_name, cls_name, attr, metric, counter in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            sites.append((cls, attr, original, self._wrap(original, metric, counter)))
        return sites

    @property
    def site_count(self) -> int:
        return len(self._sites)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def end_job(self, counts: dict[str, int]) -> None:
        """Fold the deferred counts of the finished job into ``counts``."""
        for counter, args, kwargs, result in self._calls:
            for key, value in counter(args, kwargs, result).items():
                if key in MAX_METRICS:
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        self._calls.clear()
        self.job += 1

    def job_self_times(self) -> list[dict[str, float]]:
        """Per job, the sum of span self times (duration minus child
        durations) by metric."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: list[dict[str, float]] = [defaultdict(float) for _ in range(self.job)]
        for k, (job, metric, start, end, _) in enumerate(self.spans):
            out[job][metric] += end - start - child[k]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["job", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, counts: dict[str, int]) -> dict[str, float]:
    """Median per-job self time of every layer; per-job mean of every count
    (maxima stay maxima)."""
    jobs = tracer.job_self_times()
    out = {name: statistics.median(job[name] for job in jobs) for name in TIME_METRICS}
    for name in COUNT_METRICS:
        out[name] = counts[name] if name in MAX_METRICS else counts[name] / len(jobs)
    return out
