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
from reference import node_at

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


# ---------------------------------------------------------------- Monge


def test_identity_map_invertible_monge():
    rng = np.random.default_rng(50)
    tree = random_tree(rng, 2, max_leaves=6)
    ident = {
        nid: tree.node(nid).value
        for s in range(1, tree.depth + 1)
        for nid in tree.nodes_at_stage(s)
    }
    plan, nu = monge_pushforward(tree, ident)
    rep = is_causal(plan, tree, nu)
    assert rep.is_monge_adapted and rep.is_invertible_monge
    assert is_bicausal(plan, tree, nu).is_bicausal


def test_constant_map_not_invertible():
    fan, _ = fan_vs_merged(2)
    const = {
        nid: 0.75 for s in range(1, 3) for nid in fan.nodes_at_stage(s)
    }
    plan, nu = monge_pushforward(fan, const)
    rep = is_causal(plan, fan, nu)
    assert rep.is_monge_adapted
    assert not rep.is_invertible_monge


def test_shifted_map_bicausal():
    # Stagewise shifts are invertible with an adapted inverse.
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 3, max_leaves=8)
    shifted = {}
    for s in range(1, tree.depth + 1):
        for nid in tree.nodes_at_stage(s):
            shifted[nid] = tree.node(nid).value + 0.5 * s
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
    shifted = {
        nid: tree.node(nid).value + 0.5 * s
        for s in range(1, tree.depth + 1)
        for nid in tree.nodes_at_stage(s)
    }
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
                    node = node_at(tree, hist)
                    for child in tree.children(node):
                        val = tree.node(child).value
                        prob = tree.node(child).cond_prob
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
