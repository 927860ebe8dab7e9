import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nestedot import GroundMetric, ValidationError
from nestedot.metrics import PATH_COST_OVERFLOW, add_stages

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_usual_base_distance():
    m = GroundMetric.usual(1.0)  # with p = 1 the base cost is the base distance
    assert m.base_cost(0.0, 3.0) == 3.0
    assert m.base_cost(3.0, 0.0) == 3.0
    assert m.base_cost(1.25, 1.25) == 0.0


def test_truncated_base_distance():
    m = GroundMetric.truncated(1.0, cap=1.0)
    assert m.base_cost(0.0, 3.0) == 1.0
    assert m.base_cost(0.0, 0.5) == 0.5
    assert m.base_cost(7.0, 7.0) == 0.0


@pytest.mark.parametrize(
    "metric,x,y,expected",
    [
        (GroundMetric.usual(2.0), (0.0, 1.0), (1.0, 3.0), 5.0),
        (GroundMetric.usual(1.0), (0.0, 1.0), (1.0, 3.0), 3.0),
        (GroundMetric.truncated(1.0, cap=1.0), (0.0, 1.0), (5.0, 1.0), 1.0),
    ],
)
def test_path_cost_examples(metric, x, y, expected):
    assert metric.path_cost(x, y) == pytest.approx(expected, abs=0)


def test_path_cost_length_mismatch():
    with pytest.raises(ValidationError):
        GroundMetric.usual(1.0).path_cost((0.0,), (0.0, 1.0))


def test_overflowing_cost_rejected():
    m = GroundMetric.usual(2.0)
    assert m.base_cost(1.0, 4.0) == 9.0
    with pytest.raises(ValidationError, match="cost overflows"):
        m.base_cost(1e200, -1e200 / 3)
    with pytest.raises(ValidationError, match="cost overflows"):
        m.path_cost((0.0, 1e200), (0.0, -1e200))


def test_path_cost_overflow_is_rejected_without_a_warning():
    # numpy scalar coordinates overflow in ``base_cost`` to inf, with no
    # OverflowError; ``add_stages`` evaluates the stages under its errstate,
    # so the sum is rejected and no overflow warning escapes.
    m = GroundMetric.usual(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in (
            (np.array([0.0, 1e200]), np.array([0.0, -1e200])),
            ((0.0, 0.0), (1e154, 1e154)),
        ):
            with pytest.raises(ValidationError, match=f"^{PATH_COST_OVERFLOW}$"):
                m.path_cost(x, y)
        for stages in ([1e308, 1e308], [1.0, math.inf], [math.nan]):
            with pytest.raises(ValidationError, match=f"^{PATH_COST_OVERFLOW}$"):
                add_stages(stages)


def test_invalid_parameters():
    with pytest.raises(ValidationError):
        GroundMetric.usual(0.5)
    with pytest.raises(ValidationError):
        GroundMetric.truncated(1.0, cap=0.0)
    with pytest.raises(ValidationError):
        GroundMetric(kind="weird")


@given(a=finite, b=finite, c=finite, cap=st.sampled_from([0.5, 1.0, 3.0]))
@example(a=1.00001, b=32770.0, c=131074.0, cap=1.0)
def test_base_metric_axioms(a, b, c, cap):
    # |a - c| and the two legs are each rounded once, so the slack scales
    # with the operands: 1e-12 alone is below one ulp at 1e5.
    scale = max(1.0, abs(a), abs(b), abs(c))
    for m in (GroundMetric.usual(1.0), GroundMetric.truncated(1.0, cap=cap)):
        d = m.base_cost
        assert d(a, b) == d(b, a)
        assert d(a, a) == 0.0
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-12 * scale


@given(
    x=st.tuples(finite, finite, finite),
    y=st.tuples(finite, finite, finite),
    z=st.tuples(finite, finite, finite),
    p=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_induced_path_metric_axioms(x, y, z, p):
    m = GroundMetric.usual(p)

    def dist(u, v):
        return m.root(m.path_cost(u, v))

    dxy = dist(x, y)
    assert dxy == dist(y, x)
    assert dist(x, x) == 0.0
    scale = max(1.0, dxy)
    assert dxy <= (dist(x, z) + dist(z, y)) + 1e-12 * scale


@given(x=st.tuples(finite, finite), y=st.tuples(finite, finite))
def test_truncated_below_usual(x, y):
    p = 2.0
    assert (
        GroundMetric.truncated(p, cap=1.0).path_cost(x, y)
        <= GroundMetric.usual(p).path_cost(x, y)
    )


def test_root_of_cost_power():
    m = GroundMetric.usual(2.0)
    assert m.root(4.0) == 2.0
    assert m.root(-1e-18) == 0.0
    assert math.isclose(m.root(m.path_cost((0.0, 1.0), (1.0, 3.0))), math.sqrt(5.0))
