import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from nestedot import (
    GroundMetric,
    ValidationError,
    nested_distance,
    solve_ot,
    wasserstein_distance,
)
from nestedot.families import random_tree_pair
from nestedot.io import tree_from_json
from nestedot.tolerances import TOL
from nestedot import transport
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
        total += metric.base_cost(a.quantile(u), b.quantile(u))
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
    for cost in ([1.0], np.zeros((0, 0)), [[[1.0]]]):
        with pytest.raises(ValidationError, match="cost must be a nonempty 2-d matrix"):
            solve_ot(cost, [1.0], [1.0])
    with pytest.raises(ValidationError, match="cost entries must be finite"):
        solve_ot([[math.inf]], [1.0], [1.0])
    with pytest.raises(ValidationError):
        solve_ot([[1.0, 2.0]], [1.0], [0.6, 0.2])
    with pytest.raises(ValidationError):
        solve_ot([[1.0]], [1.0], [1.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_ot_rejects_nonfinite_masses(bad):
    # ``nan < 0`` and ``abs(nan - 1) > tol`` are both false, so a NaN mass
    # once passed validation.
    for cost, a, b in (
        ([[1.0, 2.0]], [bad], [0.5, 0.5]),
        ([[1.0, 2.0]], [1.0], [0.5, bad]),
        (np.ones((3, 3)), [0.5, bad, 0.5], [0.5, 0.25, 0.25]),
        (np.ones((3, 3)), [0.5, 0.25, 0.25], [bad, 0.5, 0.5]),
    ):
        with pytest.raises(ValidationError):
            solve_ot(cost, a, b)


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
            [metric.base_cost(x, y) for y in b.locations]
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
            [metric.base_cost(x, y) for y in b.locations]
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


def _assert_optimal_certificate(res, cost, scale=1.0, mass_tol=1e-12):
    """Marginals, dual feasibility, slackness, and the simplex's value.

    Reduced costs and slackness are checked to ``1e-12 * scale``: the
    potentials are sums of costs, so they carry rounding of the order of
    the largest cost times the machine epsilon.
    """
    c = np.asarray(cost, dtype=float)
    plan = res.plan
    x, u, v = plan.matrix, plan.row_potentials, plan.col_potentials
    assert x.min() >= 0.0
    assert np.abs(x.sum(axis=1) - plan.row_masses).max() <= mass_tol
    assert np.abs(x.sum(axis=0) - plan.col_masses).max() <= mass_tol
    assert u[0] == 0.0
    reduced = c - u[:, None] - v[None, :]
    assert reduced.min() >= -1e-12 * scale
    assert np.abs(x * reduced).max() <= 1e-12 * scale
    assert res.value == float(np.sum(x * c))
    x_simplex, _, _ = _simplex(c.tolist(), plan.row_masses.tolist(), plan.col_masses.tolist())
    assert res.value == pytest.approx(float(np.sum(np.array(x_simplex) * c)), abs=1e-12)


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


def test_two_sources_ship_input_mass_of_snap():
    # Row 0's 2e-12 and column 0's 1e-12 differ by 1e-12, which is input
    # mass, not rounding: row 0 used to send column 0 its whole mass and
    # stop, shipping 1e-12 and returning 0.0 for an optimum of 1e-12.
    cost = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    a, b = [2e-12, 1 - 2e-12], [1e-12, 0.5, 0.5 - 1e-12]
    for res, c in ((solve_ot(cost, a, b), cost), (solve_ot(cost.T, b, a), cost.T)):
        assert res.value == 1e-12
        _assert_optimal_certificate(res, c, mass_tol=1e-15)


def test_simplex_entering_test_allows_for_potential_rounding():
    # Additive costs price every cell at zero, but the potentials of these
    # 1e4-scale costs carry 7e-12 of rounding: against a fixed -SNAP
    # threshold a basic cycle re-entered until the simplex gave up.
    cost = np.array([
        [2000.03, 1999.986, 1999.984],
        [33000.03, 32999.986, 32999.984],
        [38000.03, 37999.986, 37999.984],
    ])
    res = solve_ot(cost, [0.3, 0.2, 0.5], [1 / 3, 0.5, 1 / 6])
    # any plan costs 0.3·2000 + 0.2·33000 + 0.5·38000 + 0.03/3 - 0.014/2 - 0.016/6
    assert res.value == pytest.approx(26200.000333333333, rel=1e-12)
    _assert_optimal_certificate(res, cost, scale=float(cost.max()))


def test_simplex_drops_rounding_residue():
    # Simplex pivots on 3x3 subproblems used to leave cells of 3.5e-18 to
    # 5.6e-17 in five of these nested plans.
    metric = GroundMetric.usual(2.0)
    rng = np.random.default_rng(0)
    for _ in range(300):
        mu, nu = random_tree_pair(rng, int(rng.integers(1, 4)))
        plan = nested_distance(mu, nu, metric).plan
        assert min(e.mass for e in plan.entries) >= 1e-15


def test_simplex_keeps_input_mass_of_snap():
    # A row or column mass of exactly SNAP used to be zeroed as rounding by
    # the northwest-corner start or a pivot: its row shipped nothing.
    rng = np.random.default_rng(12)
    a, b = [1e-12, 0.5, 0.5 - 1e-12], [1 / 3, 1 / 3, 1 / 3]
    for _ in range(50):
        cost = rng.uniform(0.0, 2.0, size=(3, 3))
        for c, rows, cols in ((cost, a, b), (cost.T, b, a)):
            _assert_optimal_certificate(solve_ot(c, rows, cols), c, mass_tol=1e-15)
    # A remainder of SNAP size that is input mass, not rounding: row 0
    # used to ship only 1e-12 of its 2e-12, and the value read 0.0.
    cost = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    rows, cols = [2e-12, 0.5 - 2e-12, 0.5], [1e-12, 0.5, 0.5 - 1e-12]
    res = solve_ot(cost, rows, cols)
    _assert_optimal_certificate(res, cost, mass_tol=1e-15)
    assert res.value == pytest.approx(1e-12, rel=1e-3)


# ------------------------------------------- simplex on degenerate inputs


# HiGHS's primal and dual feasibility tolerances in the reference solve:
# its tightest (the defaults, 1e-7, miss cost gaps of 2e-8).
HIGHS_FEASIBILITY = 1e-10


def _highs_value(c, a, b):
    """Optimal value of the same transport LP by HiGHS."""
    m, n = c.shape
    rows = np.kron(np.eye(m), np.ones((1, n)))
    cols = np.kron(np.ones((1, m)), np.eye(n))
    res = linprog(
        c.ravel(), A_eq=np.vstack([rows, cols]), b_eq=np.concatenate([a, b]),
        bounds=(0, None), method="highs",
        options={
            "primal_feasibility_tolerance": HIGHS_FEASIBILITY,
            "dual_feasibility_tolerance": HIGHS_FEASIBILITY,
        },
    )
    assert res.status == 0
    return res.fun


def _assert_matches_highs(cost, a, b):
    """The optimality certificate, then the value against HiGHS.

    The certificate (marginals, dual feasibility, slackness) is the proof
    of optimality.  HiGHS's value is only as good as its feasibility: each
    of its m + n marginal rows may miss by ``HIGHS_FEASIBILITY``, and a
    unit of misplaced mass moves the value by at most the largest cost.
    """
    res = solve_ot(cost, a, b)
    c = np.asarray(cost, dtype=float)
    top = max(1.0, float(c.max()))
    _assert_optimal_certificate(res, c, scale=top, mass_tol=TOL)
    expected = _highs_value(c, res.plan.row_masses, res.plan.col_masses)
    allowance = sum(c.shape) * HIGHS_FEASIBILITY * top
    assert res.value == pytest.approx(expected, rel=1e-9, abs=allowance)


@st.composite
def _degenerate_instances(draw):
    m, n = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    if draw(st.booleans()):  # integer costs: tied reduced costs
        cost = draw(st.lists(st.integers(0, 4), min_size=m * n, max_size=m * n))
    else:  # costs spanning 1e-6 to 1e6
        exps = draw(st.lists(st.floats(-6.0, 6.0), min_size=m * n, max_size=m * n))
        cost = [10.0**e for e in exps]
    kind = draw(st.sampled_from(["zeros", "tiny", "tenths"]))

    def marginal(k):
        if kind == "zeros":
            w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
            w[draw(st.integers(0, k - 1))] += 1
            return [x / sum(w) for x in w]
        if kind == "tiny":
            w = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
            small = draw(st.integers(0, k - 1))
            out = [(1.0 - 1e-12) * x / (sum(w) - w[small]) for x in w]
            out[small] = 1e-12
            return out
        # tenths: both sides' cumulative sums meet at multiples of 0.1,
        # equal only within rounding
        cuts = sorted(draw(st.lists(st.integers(0, 10), min_size=k - 1, max_size=k - 1)))
        return [(hi - lo) / 10 for lo, hi in zip([0] + cuts, cuts + [10])]

    return np.reshape(np.array(cost, dtype=float), (m, n)), marginal(m), marginal(n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_degenerate_instances())
def test_simplex_matches_highs_on_degenerate_inputs(instance):
    _assert_matches_highs(*instance)


def test_highs_reference_on_a_provable_optimum():
    # Every cost is at least 1 and the masses sum to 1, so the optimum is
    # 1.0, which the simplex returns; HiGHS returns 0.99999999000, within
    # its feasibility tolerance times the largest cost.
    cost = np.array([[1.0, 1.0, 1e4], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    masses = [0.4999999999995, 1e-12, 0.4999999999995]
    assert solve_ot(cost, masses, masses).value == 1.0
    _assert_matches_highs(cost, masses, masses)


def test_simplex_converges_on_wide_cost_ranges():
    # Potentials of 1e6-scale costs carry about 1e-10 of rounding, so a
    # basic cell's reduced cost can read as -8e-12: entering it changed
    # nothing, and the simplex re-entered it until it gave up.
    rng = np.random.default_rng(4)
    for _ in range(200):
        m, n = (int(k) for k in rng.integers(3, 9, size=2))
        cost = 10.0 ** rng.uniform(-6.0, 6.0, size=(m, n))
        _assert_matches_highs(cost, _masses(rng, m, False), _masses(rng, n, False))


def _path_oracle_tree(rng):
    """A tree drawn as the path-oracle benchmark draws its pool: branching
    4, 3, 3, sibling values distinct on the 1/8 lattice, weights 1..8."""
    nodes = [{"id": 0, "parent": None, "stage": 0, "value": None, "prob": None}]
    frontier = [0]
    for stage, width in enumerate((4, 3, 3), start=1):
        nxt = []
        for parent in frontier:
            values = rng.sample(range(-24, 25), width)
            weights = [rng.randint(1, 8) for _ in range(width)]
            for value, w in zip(values, weights):
                nxt.append(len(nodes))
                nodes.append({"id": len(nodes), "parent": parent, "stage": stage,
                              "value": value / 8, "prob": w / sum(weights)})
        frontier = nxt
    return tree_from_json({"depth": 3, "nodes": nodes})


def _path_oracle_w_problem():
    """The 36x36 path-level W problem of the first seed-1 path-oracle pair
    under the usual metric, p = 2."""
    pair = random.Random("path-oracle:1")
    mu, nu = _path_oracle_tree(pair), _path_oracle_tree(pair)
    x = np.array([path for path, _ in mu.leaf_paths()])
    y = np.array([path for path, _ in nu.leaf_paths()])
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    return mu, nu, cost, [w for _, w in mu.leaf_paths()], [w for _, w in nu.leaf_paths()]


def _pinned_instances():
    """29 seeded simplex instances, then the path-oracle W problem."""
    rng = np.random.default_rng(2718)
    for trial in range(29):
        m, n = (int(k) for k in rng.integers(3, 12, size=2))
        if trial % 3 == 0:
            cost = rng.integers(0, 4, size=(m, n)).astype(float)
        elif trial % 3 == 1:
            cost = rng.uniform(0.0, 5.0, size=(m, n))
        else:
            cost = rng.integers(0, 16, size=(m, n)) / 8
        zeros = trial % 2 == 0
        yield cost, _masses(rng, m, zeros), _masses(rng, n, zeros)
    yield _path_oracle_w_problem()[2:]


def _fingerprint(res):
    digest = [
        hashlib.sha256(arr.tobytes()).hexdigest()[:16]
        for arr in (res.plan.matrix, res.plan.row_potentials, res.plan.col_potentials)
    ]
    return (res.value.hex(), *digest)


# (value, sha256 prefixes of plan, row and column potential bytes)
PINNED = [
    ('0x1.3f3f3f3f3f3f4p-1', '5b3b16905338988b', '05c88793d2205dcb', '06aced8309519979'),
    ('0x1.2f07860e36999p+0', 'c063a1fcb54ade79', 'cc58fadcdb6dfbd2', '86b413b6efbd8799'),
    ('0x1.09745d1745d18p-1', 'ea414accdbfb90da', '7f3486ab533e9e0c', '981efcdd412f7ed8'),
    ('0x1.0563b48c20564p-1', 'e48169e64db9f3b2', '0151ea329cf3bdd9', '1b11810b413b0463'),
    ('0x1.255bb60a1626ep-1', '3fbdb14b0c363891', '7e6164ad72b1908e', 'bda788397a61ec9d'),
    ('0x1.23bb0f8da967ep-1', '70c47a670955ffae', 'ac9fe397751fda24', '8975e5342a9f3767'),
    ('0x1.d9364d9364d94p-2', '9124b0443a677822', '06414d0ddfa26542', '4709395ecf1e997a'),
    ('0x1.26cad9cfffdd8p+0', '948a37acab835ba6', '1670ed60e02087d5', '753ae31c7feac992'),
    ('0x1.cccccccccccccp-1', '38eba2334c0b4bb0', 'f81d29b8b72ee9df', '7d7abdab655bcbc6'),
    ('0x1.4975fb8c3e549p-3', '08960a5aa19dc94e', 'c263f9edbcf4d840', '921f16d5054d61a6'),
    ('0x1.1434cf9a793ffp+1', 'c8708c4b74f914f5', '34615ecc32b35683', 'c38be6955358a84b'),
    ('0x1.5ba2e8ba2e8bap-1', '5dde1c7395d12c61', 'd76725026973bde9', '0648f2810a9a0414'),
    ('0x1.6e0b956e0b957p-2', 'd7e9f63262406b23', 'cdf50580467d1f72', '51b7e156b4274908'),
    ('0x1.9f931bdfd8044p-1', '023999f235abf7cf', '7640fbb0a7fd2834', '12e6463cf08ff7e7'),
    ('0x1.fdddddddddddcp-2', '97ae2c757c426ccb', '703ad118addb9dac', 'bdddd96dfa383140'),
    ('0x1.4c3b2a1907f6dp-1', '177fd13eb04cb3a8', '93e9cf8ede286211', 'b8bc5f46f153cb93'),
    ('0x1.22d3169b1ad3dp+0', 'cea125937c2866bf', 'd03902d113df8f7c', '39c28eeb883bff8d'),
    ('0x1.d884fcace213ep-2', 'fd187c93bcb4160a', 'adf201b47e89b786', '174b44ff0024ad8e'),
    ('0x1.4fa4fa4fa4fa4p-1', 'dbb331c3e16afc45', '5ad2194aef9b5946', '66deed6fdfb45f84'),
    ('0x1.130280273ecbcp+0', '86b9f0b0f3cfcf91', 'd837b4d630ae4ca0', '36c3e9ed45b9fd48'),
    ('0x1.5dddddddddddep-2', '10215fd76bdf3e50', '2e6232b0ebb7fecd', '289a0649aabd834b'),
    ('0x1.15e15e15e15e1p+0', 'fa45400846d6f843', '9ac67e978049ddc6', 'e7baeb7909609738'),
    ('0x1.c16da518511fap+0', 'bd6135f5541a4dce', '53e7458d6ce52d0f', '947d97b9c96295c7'),
    ('0x1.9681681681681p-1', '9e8e8959d1b57725', '0d72beb7fdb9cccf', '9ffb1db7eaabfb83'),
    ('0x1.3555555555556p+0', 'a2fc668786aae49c', 'ce16b0b89ad03fd0', 'a68de4b5e96a60c8'),
    ('0x1.033b500b710dep+1', '27b5345f4776dc7c', '65f5eeeb7162ffe2', '2df9572b5ac4013a'),
    ('0x1.1681681681682p-1', '44f7dabb94f79e05', '266c1e1cfb6419a3', '2d3fd640ee01607c'),
    ('0x1.2f171df770291p-1', '44c8738f9a3f139c', '93cb1f49100312d5', 'bf5fc335b5ac65af'),
    ('0x1.aea0fda663a6ep-1', 'cd239c02f24df8a4', 'af7109d2488e3bf4', 'f975d097281d141c'),
    ('0x1.148650ad845c8p+3', '95112153ac3450c0', '7d9281495315969b', '3b7d188d723d1cd3'),
]


def test_simplex_pivot_sequence_pinned():
    # Any change to the start, the entering or leaving rule, a tie-break
    # or the rounding of a pivot shows up as a different plan or dual pair.
    got = [_fingerprint(solve_ot(*inst)) for inst in _pinned_instances()]
    assert got == PINNED


def test_wasserstein_solves_the_pinned_problem():
    mu, nu, cost, a, b = _path_oracle_w_problem()
    assert cost.shape == (36, 36)
    metric = GroundMetric.usual(2.0)
    assert wasserstein_distance(mu, nu, metric) == metric.root(solve_ot(cost, a, b).value)


def _pivot_limits_set(monkeypatch, bland_after=None, max_iter=None):
    """Override one of the simplex's pivot limits for this test."""
    default = transport._pivot_limits

    def limits(m, n):
        bland, most = default(m, n)
        return (bland if bland_after is None else bland_after,
                most if max_iter is None else max_iter)

    monkeypatch.setattr(transport, "_pivot_limits", limits)


def test_bland_rule_reaches_the_default_optimum(monkeypatch):
    # No other input pivots long enough to switch to Bland's entering rule;
    # here every pivot uses it.
    rng = np.random.default_rng(1729)
    instances = list(_pinned_instances())
    for trial in range(40):
        m, n = (int(k) for k in rng.integers(3, 10, size=2))
        if trial % 2:  # integer costs: tied reduced costs
            cost = rng.integers(0, 4, size=(m, n)).astype(float)
        else:
            cost = rng.uniform(0.0, 5.0, size=(m, n))
        zeros = trial % 4 < 2
        instances.append((cost, _masses(rng, m, zeros), _masses(rng, n, zeros)))
    expected = [solve_ot(*inst).value for inst in instances]
    _pivot_limits_set(monkeypatch, bland_after=0)
    for (cost, a, b), value in zip(instances, expected):
        res = solve_ot(cost, a, b)
        assert res.value == pytest.approx(value, abs=1e-12)
        _assert_plan(res.plan.matrix, res.plan.row_masses, res.plan.col_masses)


def test_simplex_out_of_pivots_raises(monkeypatch):
    # The northwest-corner start (the diagonal) is not optimal here.
    cost = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    third = [1 / 3] * 3
    assert solve_ot(cost, third, third).value == pytest.approx(2 / 3, abs=1e-12)
    _pivot_limits_set(monkeypatch, max_iter=1)
    with pytest.raises(RuntimeError, match="transportation simplex did not converge"):
        solve_ot(cost, third, third)


def _bit_pin_instances():
    """solve_ot inputs from 1x1 to 40x40: uniform, tied integer and
    eighth-lattice costs, zero masses, and all-``-0.0`` costs."""
    rng = np.random.default_rng(8128)
    shapes = [(1, 1), (1, 6), (6, 1), (2, 2), (2, 7), (7, 2), (3, 3), (3, 5), (4, 4),
              (5, 6), (6, 6), (7, 7), (8, 8), (6, 11), (12, 12), (16, 16), (20, 13),
              (24, 24), (40, 40)]
    for m, n in shapes:
        for kind in range(3):
            if kind == 0:
                cost = rng.integers(0, 4, size=(m, n)).astype(float)
            elif kind == 1:
                cost = rng.uniform(0.0, 5.0, size=(m, n))
            else:
                cost = rng.integers(0, 16, size=(m, n)) / 8
            zeros = kind != 1
            yield cost, _masses(rng, m, zeros), _masses(rng, n, zeros)
    for m, n in [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (3, 4), (9, 9), (12, 12)]:
        yield np.full((m, n), -0.0), _masses(rng, m, True), _masses(rng, n, True)


def test_solve_ot_bits_are_pinned():
    # sha256 of every value, plan, marginal and dual pair, taken before the
    # kernel moved to Python lists: the kernel's summation order, closed
    # forms and pricing keep every bit.
    digest = hashlib.sha256()
    for cost, a, b in _bit_pin_instances():
        res = solve_ot(cost, a, b)
        plan = res.plan
        digest.update(res.value.hex().encode())
        for arr in (plan.matrix, plan.row_masses, plan.col_masses,
                    plan.row_potentials, plan.col_potentials):
            digest.update(repr(arr.shape).encode() + arr.tobytes())
    assert digest.hexdigest() == "4ecf28135b988bf40baaba7997dcc8ca2931d9d412422d72d3c7350b4bebf1f6"


def test_solve_ot_of_negative_zero_costs_is_positive_zero():
    # numpy sums from +0.0; a sum that started from the first cell would
    # give -0.0 here.
    for m, n in [(1, 1), (2, 3), (3, 3), (3, 4), (12, 12)]:
        res = solve_ot(np.full((m, n), -0.0), [1 / m] * m, [1 / n] * n)
        assert res.value.hex() == "0x0.0p+0"


def test_cell_sum_adds_in_numpy_order():
    # ``_cell_sum`` replaces ``np.sum`` in every value the kernel returns, so
    # it must round as numpy does at every length: below 8, up to 128 and
    # past each halving.
    rng = np.random.default_rng(99)
    for n in [*range(300), 1296, 8193]:
        for kind in range(3):
            if kind == 0:
                values = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n)
            elif kind == 1:
                values = rng.integers(-3, 4, size=n) * 0.1
            else:
                values = np.full(n, -0.0)
            assert transport._cell_sum(values.tolist()).hex() == float(values.sum()).hex()
