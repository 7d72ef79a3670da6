"""The one compensated sum: Python floats at one depth, numpy columns over a grid."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_isolas import neumaier_sum


def branching_neumaier(values):
    """Reference: the classic Neumaier body, which branches on the larger operand."""
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def _bits(x):
    return float(x).hex()


# Up to 60 terms of magnitude <= 1e300 cannot overflow a partial sum.
_finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)
_spread = st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-1074, 990))
_value = st.one_of(_finite, _spread, st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@st.composite
def adversarial_lists(draw, min_size=0):
    base = draw(st.lists(_value, min_size=min_size, max_size=30))
    planted = []
    for v in draw(st.lists(st.sampled_from(base), max_size=len(base))) if base else []:
        # exact cancellation, or cancellation down to the last bit
        planted.append(draw(st.sampled_from([-v, -math.nextafter(v, 0.0), -math.nextafter(v, math.inf)])))
    return draw(st.permutations(base + planted))


@settings(max_examples=300, deadline=None)
@given(adversarial_lists())
def test_twosum_matches_branching_body(values):
    assert _bits(neumaier_sum(values)) == _bits(branching_neumaier(values))


@settings(max_examples=100, deadline=None)
@given(adversarial_lists(min_size=1), st.integers(0, 2), st.data())
def test_grid_column_matches_single_list(values, column, data):
    # the list is one column of a 2-D array whose other columns are unrelated
    others = [data.draw(st.lists(_value, min_size=len(values), max_size=len(values))) for _ in range(2)]
    rows = np.column_stack([*others[:column], values, *others[column:]])
    sums = neumaier_sum(rows)
    assert sums.shape == (3,)
    assert _bits(sums[column]) == _bits(neumaier_sum(values)) == _bits(branching_neumaier(values))
    for k, other in zip((c for c in range(3) if c != column), others):
        assert _bits(sums[k]) == _bits(branching_neumaier(other))
