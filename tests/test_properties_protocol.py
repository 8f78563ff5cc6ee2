"""Property-based tests for protocol arithmetic and uniformness measures."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.protocol import ResponsePolicy
from repro.stats.uniformness import ks_distance, uniformness_variance


@given(
    b=st.integers(min_value=1, max_value=1000),
    n=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_eq12_closed_form(b, n):
    """total_after matches the geometric closed form b*(2^n - 1)."""
    policy = ResponsePolicy(initial_size=b)
    assert policy.total_after(n) == b * (2**n - 1)


@given(
    b=st.integers(min_value=1, max_value=100),
    n=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_response_sizes_consistent_with_total(b, n):
    """Every follow-up doubles the one before (§5.2), and the sizes sum
    to Eq. 12's total."""
    policy = ResponsePolicy(initial_size=b)
    sizes = [policy.response_size(i) for i in range(n)]
    assert sizes == [b * 2**i for i in range(n)]
    assert sum(sizes) == policy.total_after(n)


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=150, deadline=None)
def test_uniformness_variance_bounded(values):
    """The measure is a mean of squared deviations inside [0,1]: <= 1."""
    v = uniformness_variance(values)
    assert 0.0 <= v <= 1.0


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=200,
    ),
    shift=st.floats(min_value=-0.2, max_value=0.2),
)
@settings(max_examples=100, deadline=None)
def test_ks_distance_triangle_like(values, shift):
    """KS distance is a metric: symmetric, zero on identity, bounded by 1."""
    a = np.asarray(values)
    b = np.clip(a + shift, 0.0, 1.0)
    d_ab = ks_distance(a, b)
    assert 0.0 <= d_ab <= 1.0
    assert ks_distance(a, a) == 0.0
    assert d_ab == ks_distance(b, a)


@given(
    n=st.integers(min_value=50, max_value=500),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_uniform_sample_beats_clustered_sample(n, seed):
    # A point mass at 0.5 has variance ~ E[(U-0.5)^2] = 1/12 - O(1/n);
    # a genuine uniform sample concentrates near 0.  Compare with a margin
    # so the test is deterministic for all seeds at n >= 50.
    rng = np.random.default_rng(seed)
    uniform = rng.random(n)
    clustered = 0.5 + 0.01 * rng.random(n)
    assert uniformness_variance(uniform) < uniformness_variance(clustered) + 0.01
    assert uniformness_variance(clustered) > 0.02
