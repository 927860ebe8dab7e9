import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from nestedot import (
    AlreadyExtremeError,
    CausalityReport,
    Coupling,
    CouplingEntry,
    GroundMetric,
    NotCausalError,
    ValidationError,
    build_tree,
    is_bicausal,
    is_causal,
    kr_coupling,
    nested_distance,
    split_non_extreme,
)
from nestedot.families import (
    fan_vs_merged,
    merged_limit,
    monge_pushforward,
    perturbed_pair,
    random_adapted_map,
    random_monge_mixture,
    random_tree,
    random_tree_pair,
)
from reference import children

M2 = GroundMetric.usual(2.0)


def product_coupling(mu, nu):
    masses = {}
    for x, wx in mu.leaf_paths():
        for y, wy in nu.leaf_paths():
            masses[(x, y)] = wx * wy
    return Coupling.from_mass_map(masses)


def mass_map(coupling):
    return {(e.mu_path, e.nu_path): e.mass for e in coupling.entries}


# ------------------------------------------------------------- checkers


def test_product_coupling_bicausal():
    fan, merged = fan_vs_merged(2)
    rep = is_bicausal(product_coupling(fan, merged), fan, merged)
    assert rep.is_causal and rep.is_bicausal
    assert rep.violations == ()


def test_monge_pushforward_causal():
    rng = np.random.default_rng(4)
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(1, 4)), max_leaves=8)
        plan, nu = monge_pushforward(tree, random_adapted_map(rng, tree))
        rep = is_causal(plan, tree, nu)
        assert rep.is_causal
        assert rep.is_monge_adapted


def test_crossed_plan_not_causal():
    # Anticomonotone second stage crossed against the first-stage branch:
    # conditioned on (x-history (0,), y-history (-1/2,)) the next x step is
    # a point mass at 1 instead of the tree kernel {+-1: 1/2}.
    fan, merged = fan_vs_merged(2)
    crossed = Coupling.from_mass_map(
        {
            ((0.0, 1.0), (-0.5, -1.0)): 0.5,
            ((0.0, -1.0), (0.5, 1.0)): 0.5,
        }
    )
    rep = is_causal(crossed, merged, fan)
    assert not rep.is_causal
    assert any(v.stage == 2 and v.side == "mu" for v in rep.violations)


def test_wasserstein_plan_not_bicausal():
    # The cheap classical plan between a perturbed fan and its merged twin
    # keeps second-stage signs, which pins the y kernel to a point mass.
    mu_eps, mu = perturbed_pair(0.1)
    plan = Coupling.from_mass_map(
        {
            ((0.1, 1.0), (0.0, 1.0)): 0.5,
            ((-0.1, -1.0), (0.0, -1.0)): 0.5,
        }
    )
    rep = is_bicausal(plan, mu_eps, mu)
    assert rep.is_causal
    assert not rep.is_bicausal
    assert any(v.stage == 2 and v.side == "nu" for v in rep.violations)


def test_swapped_atoms_not_bicausal():
    mu_eps, mu = perturbed_pair(0.1)
    swapped = Coupling.from_mass_map(
        {
            ((0.1, 1.0), (0.0, -1.0)): 0.5,
            ((-0.1, -1.0), (0.0, 1.0)): 0.5,
        }
    )
    rep = is_bicausal(swapped, mu_eps, mu)
    assert not rep.is_bicausal


def test_kr_coupling_bicausal():
    rng = np.random.default_rng(21)
    for _ in range(10):
        mu, nu = random_tree_pair(rng, int(rng.integers(1, 4)))
        rep = is_bicausal(kr_coupling(mu, nu).coupling, mu, nu)
        assert rep.is_bicausal


def test_marginal_mismatch_rejected():
    fan, merged = fan_vs_merged(2)
    bad = Coupling.from_mass_map({(x, y): 0.25 for x, _ in fan.leaf_paths() for y, _ in merged.leaf_paths()})
    skewed = Coupling.from_mass_map(
        {
            ((0.5, 1.0), (0.0, 1.0)): 0.75,
            ((-0.5, -1.0), (0.0, -1.0)): 0.25,
        }
    )
    rep = is_causal(bad, fan, merged)  # product coupling is fine
    assert rep.is_causal
    with pytest.raises(ValidationError):
        is_causal(skewed, fan, merged)
    with pytest.raises(ValidationError):
        is_causal(
            Coupling.from_mass_map({((7.0, 7.0), (0.0, 1.0)): 1.0}), fan, merged
        )
    # The mu-marginal is right and the plan is causal, but its nu-marginal
    # puts all the mass on one leaf of the merged tree.
    one_leaf = Coupling.from_mass_map({(x, (0.0, 1.0)): w for x, w in fan.leaf_paths()})
    assert is_causal(one_leaf, fan, merged).is_causal
    with pytest.raises(ValidationError, match="coupling nu-marginal deviates .* by 0.5"):
        is_bicausal(one_leaf, fan, merged)


@pytest.mark.parametrize(
    "flags, message",
    [
        ((False, True, False, False), "bicausal implies causal"),
        ((True, True, False, True), "invertible Monge implies Monge-adapted"),
    ],
)
def test_report_rejects_inconsistent_flags(flags, message):
    with pytest.raises(ValidationError, match=message):
        CausalityReport(*flags)


def test_plan_paths_snap_to_leaf_paths():
    mu_eps, mu = perturbed_pair(0.1)
    plan = Coupling.from_mass_map(
        {
            ((0.1, 1.0), (0.0, 1.0)): 0.5,
            ((-0.1, -1.0), (0.0, -1.0)): 0.5,
        }
    )

    def moved(shift, extra=()):
        return Coupling(
            tuple(
                CouplingEntry(
                    tuple(v + shift for v in e.mu_path) + extra,
                    tuple(v - shift for v in e.nu_path),
                    e.mass,
                )
                for e in plan.entries
            )
        )

    exact = is_bicausal(plan, mu_eps, mu)
    assert exact.violations
    assert is_bicausal(moved(1e-12), mu_eps, mu) == exact
    for far in (moved(1e-6), moved(0.0, extra=(0.0,))):
        with pytest.raises(ValidationError, match="not a leaf path"):
            is_bicausal(far, mu_eps, mu)
    # two leaves within TOL of a plan path: it snaps to the nearer one
    near = build_tree([((0.0,), 0.5), ((6e-10,), 0.5)])
    far = build_tree([((0.0,), 0.5), ((1.0,), 0.5)])
    split = Coupling.from_mass_map({((0.0,), (0.0,)): 0.5, ((5.5e-10,), (1.0,)): 0.5})
    report = is_bicausal(split, near, far)
    assert report.is_bicausal
    assert report.max_mu_deviation == report.max_nu_deviation == 0.0


def test_plan_that_misses_a_tiny_leaf_is_checked_without_nu():
    # A solver's plan holds both trees' leaf paths (``Coupling.of_leaves``),
    # so the nu leaf of mass 1e-13 keeps its path though no entry uses it.
    # With nu omitted the checkers rebuild nu from the entries, where that
    # path is no leaf path; only the paths the entries use are matched.
    mu = build_tree([((0.0, 0.0), 0.5), ((0.0, 1.0), 0.5)])
    nu = build_tree([((0.0, 0.0), 0.5), ((1.0, 2.0), 0.5 - 1e-13), ((1.0, 3.0), 1e-13)])
    plan = Coupling.of_leaves(mu, nu, [0, 1, 3, 4], [0.25, 0.25, 0.25, 0.24999999999990002])
    assert (1.0, 3.0) in plan.nu_paths
    assert (1.0, 3.0) not in {e.nu_path for e in plan.entries}
    assert is_causal(plan, mu).is_causal
    assert is_bicausal(plan, mu, nu).is_bicausal
    res = split_non_extreme(plan, mu)
    assert 0.0 < res.lam < 1.0
    assert is_causal(res.pi, mu).is_causal and is_causal(res.pi_tilde, mu).is_causal


def test_checkers_build_no_node_index():
    # The checkers and the splitter read the trees' stage columns and ask
    # for no node by id; ``test_surface.test_only_tree_and_io_read_node_ids``
    # guards that no module but ``tree`` and ``io`` reads a node id.
    mu_eps, mu = perturbed_pair(0.1)
    crossed = Coupling.from_mass_map(
        {((0.1, 1.0), (0.0, 1.0)): 0.5, ((-0.1, -1.0), (0.0, -1.0)): 0.5}
    )
    assert is_bicausal(crossed, mu_eps, mu).violations
    fan, merged = fan_vs_merged(2)
    assert is_causal(product_coupling(fan, merged), fan).is_causal
    source = merged_limit()
    gamma = Coupling.from_mass_map(
        {(x, y): 0.5 * w for x, w in source.leaf_paths() for y in ((1.0, 2.0), (-1.0, 0.0))}
    )
    assert 0.0 < split_non_extreme(gamma, source).lam < 1.0


# ---------------------------------------------------------------- Monge


def test_identity_map_invertible_monge():
    rng = np.random.default_rng(50)
    tree = random_tree(rng, 2, max_leaves=6)
    ident = [list(values) for values in tree.values[1:]]
    plan, nu = monge_pushforward(tree, ident)
    rep = is_causal(plan, tree, nu)
    assert rep.is_monge_adapted and rep.is_invertible_monge
    assert is_bicausal(plan, tree, nu).is_bicausal


def test_constant_map_not_invertible():
    fan, _ = fan_vs_merged(2)
    const = [[0.75] * len(values) for values in fan.values[1:]]
    plan, nu = monge_pushforward(fan, const)
    rep = is_causal(plan, fan, nu)
    assert rep.is_monge_adapted
    assert not rep.is_invertible_monge


def test_shifted_map_bicausal():
    # Stagewise shifts are invertible with an adapted inverse.
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 3, max_leaves=8)
    shifted = [[x + 0.5 * s for x in tree.values[s]] for s in range(1, tree.depth + 1)]
    plan, nu = monge_pushforward(tree, shifted)
    rep = is_causal(plan, tree, nu)
    assert rep.is_invertible_monge
    assert is_bicausal(plan, tree, nu).is_bicausal


def test_product_coupling_not_monge():
    fan, merged = fan_vs_merged(2)
    rep = is_causal(product_coupling(fan, merged), fan, merged)
    assert not rep.is_monge_adapted


def test_bicausal_report_carries_monge_fields():
    # `check coupling` reads the Monge fields from the bicausal report alone.
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 3, max_leaves=8)
    shifted = [[x + 0.5 * s for x in tree.values[s]] for s in range(1, tree.depth + 1)]
    monge_plan, image = monge_pushforward(tree, shifted)
    fan, merged = fan_vs_merged(2)
    cases = [(monge_plan, tree, image, True), (product_coupling(fan, merged), fan, merged, False)]
    for plan, mu, nu, is_monge in cases:
        bicausal, monge = is_bicausal(plan, mu, nu), is_causal(plan, mu, nu)
        assert bicausal.is_monge_adapted == monge.is_monge_adapted == is_monge
        assert bicausal.is_invertible_monge == monge.is_invertible_monge == is_monge


# ---------------------------------------------------------------- split


def test_split_product_coupling():
    mu = merged_limit()
    nu_paths = {(1.0, 2.0): 0.5, (-1.0, 0.0): 0.5}
    gamma = Coupling.from_mass_map(
        {(x, y): wx * wy for x, wx in mu.leaf_paths() for y, wy in nu_paths.items()}
    )
    res = split_non_extreme(gamma, mu)
    assert 0.0 < res.lam < 1.0
    gm, pm, tm = mass_map(gamma), mass_map(res.pi), mass_map(res.pi_tilde)
    for key in set(gm) | set(pm) | set(tm):
        recon = res.lam * pm.get(key, 0.0) + (1 - res.lam) * tm.get(key, 0.0)
        assert abs(recon - gm.get(key, 0.0)) <= 1e-12
    assert is_causal(res.pi, mu).is_causal
    assert is_causal(res.pi_tilde, mu).is_causal
    # stage-1 y support {-1, 1} has mean 0; pi keeps only the lower branch
    for e in res.pi.entries:
        tau = res.tau_per_history[e.mu_path]
        assert tau == 1
        assert e.nu_path[0] < res.j_per_history[e.mu_path]


def _split_fields(res):
    return res.lam, res.pi.entries, res.pi_tilde.entries, res.tau_per_history, res.j_per_history


def test_split_of_plan_paths_within_tol_of_the_leaves():
    # Plan paths 1e-12 off the leaf paths snap to the leaves, so the split
    # is the exact plan's, entry for entry.  Without nu, nu is rebuilt from
    # the entries, so only the mu paths are moved there.
    fan, merged = fan_vs_merged(2)
    tree = random_tree(np.random.default_rng(8), 3, max_leaves=8)
    gamma, image, _ = random_monge_mixture(np.random.default_rng(9), tree)
    for mu, nu, plan in ((fan, merged, product_coupling(fan, merged)), (tree, image, gamma)):
        for shift, nu_given in ((1e-12, True), (-1e-12, True), (1e-12, False)):
            moved = Coupling(
                CouplingEntry(
                    tuple(v + shift for v in e.mu_path),
                    tuple(v - shift * nu_given for v in e.nu_path),
                    e.mass,
                )
                for e in plan.entries
            )
            assert moved != plan
            target = nu if nu_given else None
            exact = split_non_extreme(plan, mu, target)
            assert _split_fields(split_non_extreme(moved, mu, target)) == _split_fields(exact)


def test_split_rejects_monge_plans():
    rng = np.random.default_rng(60)
    tree = random_tree(rng, 2, max_leaves=6)
    plan, nu = monge_pushforward(tree, random_adapted_map(rng, tree))
    with pytest.raises(AlreadyExtremeError):
        split_non_extreme(plan, tree, nu)


def test_split_rejects_non_causal():
    fan, merged = fan_vs_merged(2)
    crossed = Coupling.from_mass_map(
        {
            ((0.0, 1.0), (-0.5, -1.0)): 0.5,
            ((0.0, -1.0), (0.5, 1.0)): 0.5,
        }
    )
    with pytest.raises(NotCausalError):
        split_non_extreme(crossed, merged, fan)


def test_split_explicit_lambda():
    mu = merged_limit()
    nu_paths = {(1.0, 2.0): 0.5, (-1.0, 0.0): 0.5}
    gamma = Coupling.from_mass_map(
        {(x, y): wx * wy for x, wx in mu.leaf_paths() for y, wy in nu_paths.items()}
    )
    res = split_non_extreme(gamma, mu, lam=0.3)
    assert res.lam == 0.3
    with pytest.raises(ValidationError):
        split_non_extreme(gamma, mu, lam=1.5)
    with pytest.raises(ValidationError):
        split_non_extreme(gamma, mu, lam=0.9)  # above every branch mass


def test_ext_consistency_randomized():
    # Monge-adapted <=> the splitter refuses; otherwise it must succeed
    # with exact reconstruction and causal parts.
    rng = np.random.default_rng(777)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(1, 4)), max_leaves=8)
        if rng.integers(2) == 0:
            gamma, nu = monge_pushforward(tree, random_adapted_map(rng, tree))[:2]
            assert is_causal(gamma, tree, nu).is_monge_adapted
            with pytest.raises(AlreadyExtremeError):
                split_non_extreme(gamma, tree, nu)
        else:
            gamma, nu, _ = random_monge_mixture(rng, tree)
            rep = is_causal(gamma, tree, nu)
            assert not rep.is_monge_adapted
            res = split_non_extreme(gamma, tree, nu)
            gm, pm, tm = mass_map(gamma), mass_map(res.pi), mass_map(res.pi_tilde)
            for key in set(gm) | set(pm) | set(tm):
                recon = res.lam * pm.get(key, 0.0) + (1 - res.lam) * tm.get(key, 0.0)
                assert abs(recon - gm.get(key, 0.0)) <= 1e-12
            assert is_causal(res.pi, tree).is_causal
            assert is_causal(res.pi_tilde, tree).is_causal
            assert sorted(pm) != sorted(tm) or any(
                abs(pm[k] - tm.get(k, 0.0)) > 1e-12 for k in pm
            )


def test_convexity_of_causal_set():
    rng = np.random.default_rng(404)
    for _ in range(10):
        tree = random_tree(rng, 2, max_leaves=6)
        g1 = random_monge_mixture(rng, tree)[0]
        g2 = random_monge_mixture(rng, tree)[0]
        lam = float(rng.uniform(0.1, 0.9))
        mixed = {}
        for plan, w in ((g1, lam), (g2, 1 - lam)):
            for e in plan.entries:
                key = (e.mu_path, e.nu_path)
                mixed[key] = mixed.get(key, 0.0) + w * e.mass
        assert is_causal(Coupling.from_mass_map(mixed), tree).is_causal


def test_split_of_tied_optimal_plan():
    # A chain source forces every coupling to be causal; the optimal plan
    # to a two-branch target is the (non-Monge) product, so it splits and
    # the parts' costs mix back to the optimal value.
    from nestedot import build_tree

    mu = build_tree([((0.0, 0.0), 1.0)])
    nu = build_tree([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
    res = nested_distance(mu, nu, M2)
    rep = is_causal(res.plan, mu, nu)
    assert not rep.is_monge_adapted
    split = split_non_extreme(res.plan, mu, nu)
    lam = split.lam
    mixed_cost = lam * split.pi.cost(M2) + (1 - lam) * split.pi_tilde.cost(M2)
    assert mixed_cost == pytest.approx(res.distance**2, abs=1e-12)
    assert split.pi.cost(M2) >= res.distance**2 - 1e-12
    assert split.pi_tilde.cost(M2) >= res.distance**2 - 1e-12


def test_kernel_reduction_matches_lp_constraints():
    # The checker's conditional next-step test agrees with the linear
    # constraint formulation used by the oracle: enumerate the constraint
    # residuals directly on couplings that pass and fail the checker.
    rng = np.random.default_rng(31337)

    def lp_residual(gamma, mu, nu):
        worst = 0.0
        entries = list(gamma.entries)
        for t in range(1, mu.depth):
            cells = {}
            for e in entries:
                key = (e.mu_path[:t], e.nu_path[:t])
                cells.setdefault(key, []).append(e)
            for (xh, yh), grp in cells.items():
                mass = math.fsum(e.mass for e in grp)
                for tree, side in ((mu, 0), (nu, 1)):
                    hist = xh if side == 0 else yh
                    for val, prob in children(tree, hist):
                        joint = math.fsum(
                            e.mass
                            for e in grp
                            if (e.mu_path if side == 0 else e.nu_path)[t] == val
                        )
                        worst = max(worst, abs(joint - prob * mass))
        return worst

    for _ in range(10):
        mu, nu = random_tree_pair(rng, int(rng.integers(2, 4)))
        good = kr_coupling(mu, nu).coupling
        assert is_bicausal(good, mu, nu).is_bicausal
        assert lp_residual(good, mu, nu) <= 1e-9
    mu_eps, mu = perturbed_pair(0.1)
    bad = Coupling.from_mass_map(
        {
            ((0.1, 1.0), (0.0, 1.0)): 0.5,
            ((-0.1, -1.0), (0.0, -1.0)): 0.5,
        }
    )
    assert not is_bicausal(bad, mu_eps, mu).is_bicausal
    assert lp_residual(bad, mu_eps, mu) > 1e-9


def test_report_flags_consistent():
    fan, merged = fan_vs_merged(2)
    rep = is_bicausal(product_coupling(fan, merged), fan, merged)
    assert rep.is_bicausal <= rep.is_causal
    assert rep.is_invertible_monge <= rep.is_monge_adapted


# ------------------------------------------------------------ report pins


def _crossed_product(rng, mu, nu):
    """The product plan with mass d moved around a random 2x2 rectangle of
    cells (+d, -d, +d, -d): both marginals stay, and the kernels break
    unless the rectangle differs only in last coordinates."""
    masses = mass_map(product_coupling(mu, nu))
    xs = sorted({x for x, _ in masses})
    ys = sorted({y for _, y in masses})
    if len(xs) > 1 and len(ys) > 1:
        x1, x2 = (xs[k] for k in rng.choice(len(xs), 2, replace=False))
        y1, y2 = (ys[k] for k in rng.choice(len(ys), 2, replace=False))
        corners = ((x1, y1, 1.0), (x2, y2, 1.0), (x1, y2, -1.0), (x2, y1, -1.0))
        d = 0.5 * min(masses[x, y] for x, y, _ in corners)
        for x, y, sign in corners:
            masses[x, y] += sign * d
    return Coupling.from_mass_map(masses)


def _report_pin_cases():
    """Seeded plans that are not causal (crossed products) and causal plans
    that are not Monge (products, Monge mixtures), with their trees."""
    rng = np.random.default_rng(24)
    for k in range(18):
        depth = 1 + k % 3
        mu, nu = random_tree_pair(rng, depth)
        yield mu, nu, _crossed_product(rng, mu, nu)
        yield mu, nu, product_coupling(mu, nu)
        tree = random_tree(rng, depth, max_leaves=8)
        gamma, image, _ = random_monge_mixture(rng, tree)
        yield tree, image, gamma


def _outcome(call, *args):
    """A call's result as JSON-ready data, or its error's type and text."""
    try:
        res = call(*args)
    except (ValidationError, NotCausalError, AlreadyExtremeError) as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(res, CausalityReport):
        return dataclasses.asdict(res)
    return [
        res.lam,
        [list(e) for e in res.pi.entries],
        [list(e) for e in res.pi_tilde.entries],
        list(res.tau_per_history.items()),
        list(res.j_per_history.items()),
    ]


# sha256 of the reports and splits below (violations in order, every
# deviation and mass as shortest round-trip text), taken before the
# checkers read the trees' node tables and plans were loaded as ranks.
PINNED_REPORTS_SHA256 = "5ffca6440f1342cdda2db56bc6dc5e6e6d545a6d77468f24dce297f404f19b5f"


def test_reports_on_non_causal_and_non_monge_plans_are_pinned():
    digest = hashlib.sha256()
    seen = {"violations": 0, "not causal": 0, "splits": 0}
    for mu, nu, plan in _report_pin_cases():
        outcomes = [
            _outcome(is_bicausal, plan, mu, nu),
            _outcome(is_causal, plan, mu),
            _outcome(split_non_extreme, plan, mu),
            _outcome(split_non_extreme, plan, mu, nu),
        ]
        report = outcomes[0]
        seen["violations"] += len(report["violations"])
        seen["not causal"] += not report["is_causal"]
        seen["splits"] += sum(type(out[0]) is float for out in outcomes[2:])
        digest.update(json.dumps(outcomes, sort_keys=True).encode())
    assert min(seen.values()) > 5, seen
    assert digest.hexdigest() == PINNED_REPORTS_SHA256
