import math

import numpy as np
import pytest

from nestedot import GroundMetric, ValidationError, nested_distance, solve_ot
from nestedot.families import random_tree_pair
from nestedot.transport import _simplex
from reference import LineLaw, quantile_cost


def dd(*atoms):
    return LineLaw(atoms)


def random_distribution(rng, max_atoms=5):
    n = int(rng.integers(1, max_atoms + 1))
    locs = rng.choice(np.linspace(-3, 3, 25), size=n, replace=False)
    masses = rng.integers(1, 5, size=n).astype(float)
    masses /= masses.sum()
    return LineLaw(list(zip(locs, masses)))


# --------------------------------------------------------- 1-d transport


def _assert_plan(x, a, b, tol=1e-9):
    """A transport plan between ``a`` and ``b``: shape, sign, both marginals."""
    assert x.shape == (len(a), len(b))
    assert x.min() >= -tol
    assert np.abs(x.sum(axis=1) - a).max() <= tol
    assert np.abs(x.sum(axis=0) - b).max() <= tol


def _quadrature_cost(a, b, metric, steps=200_000):
    """Independent midpoint-rule oracle for the quantile-coupling cost."""
    total = 0.0
    for k in range(steps):
        u = (k + 0.5) / steps
        total += metric.base_dist(a.quantile(u), b.quantile(u)) ** metric.p
    return total / steps


def test_wasserstein_1d_dirac_pair():
    a, b = dd((0.0, 1.0)), dd((1.0, 1.0))
    cost, plan = quantile_cost(a, b, GroundMetric.usual(2.0))
    assert cost == pytest.approx(1.0, abs=1e-15)
    _assert_plan(plan, a.masses, b.masses)


def test_wasserstein_1d_split_to_center():
    # Frozen from the quadrature oracle: the quantile gap is 1/2 on all of
    # (0, 1], so the squared cost integrates to exactly 1/4.
    a = dd((0.0, 0.5), (1.0, 0.5))
    b = dd((0.5, 1.0))
    metric = GroundMetric.usual(2.0)
    cost, plan = quantile_cost(a, b, metric)
    assert cost == pytest.approx(0.25, abs=1e-12)
    assert cost == pytest.approx(_quadrature_cost(a, b, metric, steps=10_000), abs=1e-9)
    _assert_plan(plan, a.masses, b.masses)


def test_wasserstein_1d_identity():
    a = dd((-1.0, 0.5), (1.0, 0.5))
    cost, _ = quantile_cost(a, a, GroundMetric.usual(2.0))
    assert cost == 0.0


def test_wasserstein_1d_matches_quadrature_randomized():
    rng = np.random.default_rng(123)
    for _ in range(10):
        a, b = random_distribution(rng), random_distribution(rng)
        metric = GroundMetric.usual(float(rng.choice([1.0, 2.0])))
        cost, plan = quantile_cost(a, b, metric)
        _assert_plan(plan, a.masses, b.masses)
        assert cost == pytest.approx(_quadrature_cost(a, b, metric, 20_000), abs=5e-4)


# ---------------------------------------------------------- dense solver


def test_solve_ot_diagonal():
    res = solve_ot([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    assert res.value == 0.0
    assert res.plan.matrix[0, 0] == pytest.approx(0.5)
    assert res.plan.matrix[1, 1] == pytest.approx(0.5)


def test_solve_ot_flat_objective():
    # Oracle: the feasible set is the segment x11 = s in [0, 1/2] and the
    # objective 1s + 2(1/2-s) + 3(1/2-s) + 4s is constant 2.5 on it.
    grid_values = []
    for s in np.linspace(0.0, 0.5, 101):
        grid_values.append(1 * s + 2 * (0.5 - s) + 3 * (0.5 - s) + 4 * s)
    assert min(grid_values) == pytest.approx(2.5)
    res = solve_ot([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5])
    assert res.value == pytest.approx(2.5, abs=1e-12)
    assert res.plan.matrix[0, 0] == pytest.approx(0.5)
    assert res.plan.matrix[0, 1] == pytest.approx(0.0)


def test_solve_ot_point_masses():
    cost = [[7.0, 9.0], [3.0, 5.0]]
    res = solve_ot(cost, [1.0, 0.0], [1.0, 0.0])
    assert res.value == pytest.approx(7.0)


def test_solve_ot_rejects_bad_input():
    with pytest.raises(ValidationError):
        solve_ot([[-1.0]], [1.0], [1.0])
    with pytest.raises(ValidationError):
        solve_ot([[1.0, 2.0]], [1.0], [0.6, 0.2])
    with pytest.raises(ValidationError):
        solve_ot([[1.0]], [1.0], [1.0, 0.0])


def _random_instance(rng, m, n):
    cost = rng.uniform(0.0, 5.0, size=(m, n))
    a = rng.integers(1, 6, size=m).astype(float)
    b = rng.integers(1, 6, size=n).astype(float)
    return cost, a / a.sum(), b / b.sum()


def test_solve_ot_below_product_plan():
    rng = np.random.default_rng(31)
    for _ in range(25):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        cost, a, b = _random_instance(rng, m, n)
        res = solve_ot(cost, a, b)
        product_cost = float(np.sum(cost * np.outer(a, b)))
        assert res.value <= product_cost + 1e-10
        _assert_plan(res.plan.matrix, res.plan.row_masses, res.plan.col_masses)


def test_solve_ot_matches_quantile_plan_on_line():
    rng = np.random.default_rng(77)
    for _ in range(20):
        a, b = random_distribution(rng), random_distribution(rng)
        metric = GroundMetric.usual(float(rng.choice([1.0, 2.0])))
        cost = [
            [metric.base_dist(x, y) ** metric.p for y in b.locations]
            for x in a.locations
        ]
        res = solve_ot(cost, a.masses, b.masses)
        quantile, _ = quantile_cost(a, b, metric)
        assert res.value <= quantile + 1e-10
        assert res.value == pytest.approx(quantile, abs=1e-10)


def test_solve_ot_quantile_not_below_optimum_truncated():
    rng = np.random.default_rng(99)
    for _ in range(20):
        a, b = random_distribution(rng), random_distribution(rng)
        metric = GroundMetric.truncated(1.0, cap=1.0)
        cost = [
            [metric.base_dist(x, y) ** metric.p for y in b.locations]
            for x in a.locations
        ]
        res = solve_ot(cost, a.masses, b.masses)
        quantile, _ = quantile_cost(a, b, metric)
        assert res.value <= quantile + 1e-10


def test_solve_ot_duality():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        cost, a, b = _random_instance(rng, m, n)
        res = solve_ot(cost, a, b)
        u = res.plan.row_potentials
        v = res.plan.col_potentials
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-9  # dual feasibility
        dual_value = float(u @ a + v @ b)
        assert dual_value == pytest.approx(res.value, abs=1e-9)
        slack = np.abs(res.plan.matrix * reduced)
        assert slack.max() <= 1e-9  # complementary slackness


def test_solve_ot_exact_on_small_rationals():
    # Exhaustive vertex oracle on 2x3 instances with rational data.
    rng = np.random.default_rng(5)
    for _ in range(10):
        cost = rng.integers(0, 7, size=(2, 3)).astype(float)
        a = np.array([0.5, 0.5])
        b = rng.integers(1, 4, size=3).astype(float)
        b /= b.sum()
        best = math.inf
        # Vertices have at most m+n-1 = 4 nonzero entries; scan a fine grid
        # of the two free variables instead (2x3 plans have 2 dof).
        for x00 in np.linspace(0, min(a[0], b[0]), 41):
            for x01 in np.linspace(0, min(a[0] - x00, b[1]), 41):
                x02 = a[0] - x00 - x01
                if x02 < -1e-12 or x02 > b[2] + 1e-12:
                    continue
                x10 = b[0] - x00
                x11 = b[1] - x01
                x12 = b[2] - x02
                if min(x10, x11, x12) < -1e-12:
                    continue
                val = (
                    cost[0, 0] * x00 + cost[0, 1] * x01 + cost[0, 2] * x02
                    + cost[1, 0] * x10 + cost[1, 1] * x11 + cost[1, 2] * x12
                )
                best = min(best, val)
        res = solve_ot(cost, a, b)
        assert res.value <= best + 1e-9


def test_solve_ot_deterministic():
    cost = [[0.0, 1.0], [1.0, 0.0]]
    first = solve_ot(cost, [0.5, 0.5], [0.5, 0.5])
    for _ in range(5):
        again = solve_ot(cost, [0.5, 0.5], [0.5, 0.5])
        assert np.array_equal(first.plan.matrix, again.plan.matrix)
        assert first.value == again.value


# ------------------------------------------------ small-shape closed form


def _assert_optimal_certificate(res, cost):
    """Marginals, dual feasibility, slackness, and the simplex's value."""
    c = np.asarray(cost, dtype=float)
    plan = res.plan
    x, u, v = plan.matrix, plan.row_potentials, plan.col_potentials
    assert x.min() >= 0.0
    assert np.abs(x.sum(axis=1) - plan.row_masses).max() <= 1e-12
    assert np.abs(x.sum(axis=0) - plan.col_masses).max() <= 1e-12
    assert u[0] == 0.0
    reduced = c - u[:, None] - v[None, :]
    assert reduced.min() >= -1e-12
    assert np.abs(x * reduced).max() <= 1e-12
    assert res.value == float(np.sum(x * c))
    x_simplex, _, _ = _simplex(c, plan.row_masses, plan.col_masses)
    assert res.value == pytest.approx(float(np.sum(x_simplex * c)), abs=1e-12)


def _masses(rng, k, zeros):
    w = rng.integers(0 if zeros else 1, 5, size=k).astype(float)
    if w.sum() == 0.0:
        w[int(rng.integers(k))] = 1.0
    return w / w.sum()


@pytest.mark.parametrize("rows", [1, 2, "n"])
def test_small_shapes_match_simplex(rows):
    rng = np.random.default_rng({1: 11, 2: 22, "n": 33}[rows])
    for trial in range(120):
        n = int(rng.integers(1, 7))
        m = n if rows == "n" else rows
        cols = 2 if rows == "n" else n
        if trial % 3 == 0:  # integer costs: many ties in c[0, j] - c[1, j]
            cost = rng.integers(0, 4, size=(m, cols)).astype(float)
        else:
            cost = rng.uniform(0.0, 5.0, size=(m, cols))
        zeros = trial % 2 == 0
        res = solve_ot(cost, _masses(rng, m, zeros), _masses(rng, cols, zeros))
        _assert_optimal_certificate(res, cost)


def test_two_sources_fill_order_and_ties():
    # c0 - c1 = (1, -1, -1, 0): row 0 takes column 1, then column 2 (tie,
    # lower index first), then column 3.
    cost = [[3.0, 0.0, 1.0, 2.0], [2.0, 1.0, 2.0, 2.0]]
    quarters = [0.25, 0.25, 0.25, 0.25]
    for a, row0 in (
        ([0.625, 0.375], [0.0, 0.25, 0.25, 0.125]),
        ([0.375, 0.625], [0.0, 0.25, 0.125, 0.0]),
    ):
        res = solve_ot(cost, a, quarters)
        assert np.array_equal(res.plan.matrix, [row0, np.subtract(quarters, row0)])
        _assert_optimal_certificate(res, cost)
        transposed = solve_ot(np.transpose(cost), quarters, a)
        assert np.array_equal(transposed.plan.matrix, res.plan.matrix.T)
        assert transposed.value == res.value


def test_two_by_two_flat_objective():
    # c00 + c11 = c01 + c10: every feasible plan costs
    # c01 a0 + c10 b0 + c11 (1 - a0 - b0).
    for (c00, c01), (c10, c11) in (((1.0, 2.0), (3.0, 4.0)), ((2.0, 2.0), (2.0, 2.0))):
        for a, b in (([0.5, 0.5], [0.5, 0.5]), ([0.25, 0.75], [0.875, 0.125])):
            res = solve_ot([[c00, c01], [c10, c11]], a, b)
            _assert_optimal_certificate(res, [[c00, c01], [c10, c11]])
            flat = c01 * a[0] + c10 * b[0] + c11 * (1.0 - a[0] - b[0])
            assert res.value == pytest.approx(flat, abs=1e-12)


def test_zero_masses_in_small_shapes():
    res = solve_ot([[7.0, 9.0, 1.0], [3.0, 5.0, 0.0]], [1.0, 0.0], [0.0, 1.0, 0.0])
    assert res.value == 9.0
    _assert_optimal_certificate(res, [[7.0, 9.0, 1.0], [3.0, 5.0, 0.0]])
    res = solve_ot([[7.0, 9.0], [3.0, 5.0], [4.0, 4.0]], [0.0, 0.0, 1.0], [0.5, 0.5])
    assert res.value == 4.0
    _assert_optimal_certificate(res, [[7.0, 9.0], [3.0, 5.0], [4.0, 4.0]])


def test_two_sources_drop_rounding_leftovers():
    # 0.3 - 0.1 rounds to just below 0.2, so filling row 0 used to leave
    # 2.8e-17 of column 1 to row 1 as an extra plan cell.
    cost = np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]])
    a, b = [0.3, 0.7], [0.1, 0.2, 0.3, 1 - (0.1 + 0.2 + 0.3)]
    for res, c in ((solve_ot(cost, a, b), cost), (solve_ot(cost.T, b, a), cost.T)):
        x = res.plan.matrix
        assert not np.any((x > 0.0) & (x < 1e-15))
        _assert_optimal_certificate(res, c)


def test_simplex_drops_rounding_residue():
    # Simplex pivots on 3x3 subproblems used to leave cells of 3.5e-18 to
    # 5.6e-17 in five of these nested plans.
    metric = GroundMetric.usual(2.0)
    rng = np.random.default_rng(0)
    for _ in range(300):
        mu, nu = random_tree_pair(rng, int(rng.integers(1, 4)))
        plan = nested_distance(mu, nu, metric).plan
        assert min(e.mass for e in plan.entries) >= 1e-15
