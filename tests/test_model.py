"""Informing-order model: n(i|x) bookkeeping and the cluster-hit law.

Oracle for the hit distribution: the dissemination order is exchangeable,
so the step at which the cluster is first contacted has the same law as
the position of the first cluster member in a uniformly random permutation
of all nodes.  For small N we enumerate every permutation exactly in
rational arithmetic and compare digit-for-digit.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpconv.errors import DomainError
from bgpconv.model import (
    ConfigModel,
    ModelParams,
    TieredCore,
    degree_stats,
    informed_counts_row,
    p_sdn_distribution,
)
from degree_reference import StepContext, informed_count


def hit_distribution_by_enumeration(n: int, k: int) -> list[Fraction]:
    """Exact P(first cluster member at position x) over all n! orderings."""
    cluster = set(range(n - k, n))
    counts = [0] * (n - k + 1)
    total = 0
    for perm in itertools.permutations(range(n)):
        x = next(i for i, node in enumerate(perm) if node in cluster)
        counts[x] += 1
        total += 1
    return [Fraction(c, total) for c in counts]


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 1), (5, 3), (6, 2), (6, 5), (7, 3)])
def test_hit_distribution_matches_enumeration(n, k):
    params = ModelParams(n, k, 1.0)
    got = p_sdn_distribution(params)
    want = hit_distribution_by_enumeration(n, k)
    assert len(got) == len(want) == n - k + 1
    for x in range(n - k + 1):
        assert got[x] == pytest.approx(float(want[x]), abs=1e-12)


def test_hit_distribution_frozen_values():
    # N=4, k=2 works out to exactly [1/2, 1/3, 1/6]
    dist = p_sdn_distribution(ModelParams(4, 2, 1.0))
    assert dist[0] == 0.5
    assert dist[1] == pytest.approx(1 / 3, abs=1e-15)
    assert dist[2] == pytest.approx(1 / 6, abs=1e-15)


def test_hit_distribution_degenerate_cases():
    # whole network centralized: announcer is always a member
    np.testing.assert_array_equal(p_sdn_distribution(ModelParams(3, 3, 1.0)), [1.0])
    # two nodes, one member: coin flip on the announcer
    np.testing.assert_allclose(p_sdn_distribution(ModelParams(2, 1, 1.0)), [0.5, 0.5])


@pytest.mark.parametrize(
    "n,k",
    [(2, 1), (10, 3), (50, 25), (137, 1), (300, 30), (500, 499), (500, 500)],
)
def test_hit_distribution_sums_to_one(n, k):
    dist = p_sdn_distribution(ModelParams(n, k, 1.0))
    assert abs(math.fsum(dist) - 1.0) <= 1e-9
    assert (dist >= 0.0).all() and (dist <= 1.0).all()


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=60, deadline=None)
def test_hit_distribution_sums_for_random_cluster_sizes(k):
    n = 400
    dist = p_sdn_distribution(ModelParams(n, k, 1.0))
    assert abs(math.fsum(dist) - 1.0) <= 1e-9


def test_hit_distribution_is_exactly_uniform_for_one_member():
    # k = 1: every ratio (N-1-x)/(N-1-x) is exactly 1.0, so no drift
    n = 75_000
    dist = p_sdn_distribution(ModelParams(n, 1, 1.0))
    assert dist.size == n
    assert (dist == 1 / n).all()


def test_log_space_path_agrees_with_direct_product():
    # above the size cutoff the implementation moves to log space; the
    # answer must still match the plain product formula for small x
    params = ModelParams(10_001, 7, 1.0)
    dist = p_sdn_distribution(params)
    for x in (0, 1, 5):
        direct = params.k_cluster / (params.n_total - x)
        for j in range(x):
            direct *= 1.0 - params.k_cluster / (params.n_total - j)
        assert dist[x] == pytest.approx(direct, rel=1e-12)


def test_informed_count_worked_examples():
    params5 = ModelParams(20, 5, 1.0)
    assert informed_counts_row(3, params5)[0] == 1
    assert informed_counts_row(1, params5)[1] == 6
    assert informed_counts_row(0, ModelParams(20, 1, 1.0))[0] == 1


def test_informed_count_row_shape_and_jump():
    params = ModelParams(12, 4, 1.0)
    for x in range(params.steps + 1):
        row = informed_counts_row(x, params)
        assert row.shape == (params.steps,)
        # matches the test-side scalar reference entry by entry
        for i in range(1, params.steps + 1):
            assert row[i - 1] == informed_count(StepContext(i, x), params)
        assert (np.diff(row) >= 1).all()
        assert row.max() <= params.n_total - 1
        # crossing the cluster-contact step folds in all k members at once
        if 1 <= x < params.steps:
            assert row[x] - row[x - 1] == params.k_cluster


@given(
    st.integers(min_value=2, max_value=60).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=1, max_value=n - 1),
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_informed_count_monotone_and_bounded(nk):
    n, k = nk
    params = ModelParams(n, k, 1.0)
    for x in (0, params.steps // 2, params.steps):
        row = informed_counts_row(x, params)
        assert (np.diff(row) >= 1).all()
        assert 1 <= row[0]
        assert row[-1] <= n - 1


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(0, 1, 1.0)
    with pytest.raises(DomainError):
        ModelParams(4, 0, 1.0)
    with pytest.raises(DomainError):
        ModelParams(4, 5, 1.0)
    with pytest.raises(DomainError):
        ModelParams(4, 2, 0.0)
    with pytest.raises(DomainError):
        ModelParams(4, 2, -1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, 1e-320])
def test_rates_whose_reciprocal_is_not_finite_are_rejected(lam):
    # 1e-320 is positive, but 1 / 1e-320 overflows to inf
    with pytest.raises(DomainError, match="lam"):
        ModelParams(4, 2, lam)
    with pytest.raises(DomainError, match="lam"):
        TieredCore(4, 8, 1, 0.5, 0.5, 0.5, lam)
    ModelParams(4, 2, 1e-300)  # a small rate with a finite reciprocal is valid


@pytest.mark.parametrize(
    "mu_d,cv_d", [(math.inf, 0.5), (math.nan, 0.5), (3.0, math.nan), (3.0, math.inf)]
)
def test_config_model_rejects_non_finite_degree_stats(mu_d, cv_d):
    with pytest.raises(DomainError, match="mu_d" if cv_d == 0.5 else "cv_d"):
        ConfigModel(ModelParams(50, 1), mu_d=mu_d, cv_d=cv_d)


def test_step_context_validation():
    # the cluster-hit step x lies in [0, N-k]
    params = ModelParams(6, 2, 1.0)
    with pytest.raises(DomainError):
        informed_counts_row(-1, params)
    with pytest.raises(DomainError):
        informed_counts_row(params.steps + 1, params)


def test_degree_stats_basics():
    mu, cv = degree_stats([2, 2, 2])
    assert (mu, cv) == (2.0, 0.0)
    mu, cv = degree_stats([1, 3])
    assert mu == 2.0
    assert cv == pytest.approx(0.5)
    with pytest.raises(DomainError):
        degree_stats([])
