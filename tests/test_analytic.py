"""Closed-form engine tests.

Two independent oracles anchor this file:

* a first-passage computation on the explicit informing chain for the
  complete graph, done in exact rational arithmetic (states are "m nodes
  informed, cluster contacted or not"; holding times are 1/(lam*(n-m)));
* a brute-force frontier simulation on sampled 3-regular graphs for the
  prescribed-degree approximation.

Everything else pins worked values that were derived by hand.
"""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import bgpconv as bc
from bgpconv.analytic import (
    EPS_DEGREE,
    TAIL_FLOOR,
    convergence_time,
    core_convergence_time,
)
from bgpconv.errors import (
    DomainError,
    ModelDegenerateError,
    UnreachableTopologyError,
)
from bgpconv.model import ConfigModel, FullMesh, ModelParams, Poisson, TieredCore
from degree_reference import (
    StepContext,
    _config_row_raw,
    config_degree_row,
    degree_config_first,
    degree_full_mesh,
    degree_poisson,
)


def full_mesh_chain_expectation(n: int, k: int) -> Fraction:
    """First-passage time on the complete graph, exact in rationals.

    E_hit(m): all-informed time left once the cluster is in and m nodes
    hold the route (pure harmonic tail).  E_pre(m): same, but the cluster
    is still dark and the next informed node is uniform over the n-m
    uninformed, so the cluster is hit with chance k/(n-m).
    """
    def e_hit(m: int) -> Fraction:
        return sum((Fraction(1, n - j) for j in range(m, n)), Fraction(0))

    e_pre: dict[int, Fraction] = {}
    for m in range(n - k, 0, -1):
        u = n - m
        hit = Fraction(k, u)
        nxt = e_pre[m + 1] if m + 1 <= n - k else Fraction(0)
        e_pre[m] = Fraction(1, u) + hit * e_hit(m + k) + (1 - hit) * nxt
    return Fraction(k, n) * e_hit(k) + Fraction(n - k, n) * e_pre[1]


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 3), (10, 4), (30, 7), (30, 29)])
def test_full_mesh_agrees_with_chain_oracle(n, k):
    want = float(full_mesh_chain_expectation(n, k))
    got = convergence_time(FullMesh(ModelParams(n, k, 1.0))).expected_time
    assert got == pytest.approx(want, rel=1e-12)


def test_full_mesh_four_two_is_four_thirds():
    assert full_mesh_chain_expectation(4, 2) == Fraction(4, 3)
    est = convergence_time(FullMesh(ModelParams(4, 2, 1.0)))
    assert est.expected_time == pytest.approx(4 / 3, abs=1e-12)


def test_full_mesh_single_member_is_harmonic_sum():
    h299 = math.fsum(1 / i for i in range(1, 300))
    est = convergence_time(FullMesh(ModelParams(300, 1, 1.0)))
    assert est.expected_time == pytest.approx(h299, rel=1e-12)
    assert est.expected_time == pytest.approx(6.2793, abs=1e-4)


def test_whole_network_centralized_is_instant():
    # k = N has no steps; every family, p_edge = 0 included, gives E[T] = 0
    params = ModelParams(17, 17, 1.0)
    for spec in (FullMesh(params), Poisson(params, 0.0),
                 ConfigModel(params, mu_d=4.0, cv_d=0.5)):
        est = convergence_time(spec)
        assert est.expected_time == 0.0
        assert est.per_x_expectation.shape == (1,)
        assert est.profile.values.shape == (1, 0)


def harmonic(m: int) -> float:
    return math.fsum(1 / i for i in range(1, m + 1))


def test_full_mesh_above_ten_thousand_nodes_is_harmonic_sum():
    # N = 10 001 once hit log1p(-1) in the hit distribution and raised
    est = convergence_time(FullMesh(ModelParams(10_001, 1, 1.0)))
    assert est.expected_time == pytest.approx(harmonic(10_000), rel=1e-12)


def test_internet_scale_flat_families_evaluate_without_the_matrix():
    # the hit distribution's running product drifts by ~4e-13 at k = 1
    # here, which the 1e-12 tolerance covers
    params = ModelParams(75_000, 1, 1.0)
    mesh = convergence_time(FullMesh(params))
    assert mesh.expected_time == pytest.approx(harmonic(74_999), rel=1e-12)
    sparse = convergence_time(Poisson(params, 1e-4))
    assert np.isfinite(sparse.expected_time)
    assert sparse.expected_time >= mesh.expected_time
    for est in (mesh, sparse):
        assert "profile" not in est.__dict__
        assert est.per_x_expectation.shape == (params.steps + 1,)


EQUIVALENCE_PARAMS = [
    ModelParams(2, 1, 1.0),
    ModelParams(30, 7, 3.0),
    ModelParams(50, 1, 0.5),
    ModelParams(120, 10, 3.0),
    ModelParams(200, 199, 1.0),
]


def equivalence_specs():
    for params in EQUIVALENCE_PARAMS:
        yield FullMesh(params), "error"
        for p in (1e-9, 0.05, 0.4, 1.0):
            yield Poisson(params, p), "error"
        for mu_d, cv_d in ((1.5, 0.2), (4.0, 0.5), (13.4, 1.05)):
            yield ConfigModel(params, mu_d=mu_d, cv_d=cv_d), "error"
        for mu_d, cv_d in ((4.0, 2.5), (3.0, 0.0), (13.4, 1.05)):
            yield ConfigModel(params, mu_d=mu_d, cv_d=cv_d), "clamp"
    # collapses first at (step 13, x = 1), before its last step, while row 0 holds
    yield ConfigModel(ModelParams(20, 5, 1.0), mu_d=4.0, cv_d=2.0), "error"


def reference_matrix(spec, mode):
    """D(i|x) row by row from the test-side per-step functions, raising
    where they do."""
    params = spec.params
    steps = params.steps
    rows = []
    for x in range(steps + 1):
        if isinstance(spec, ConfigModel):
            rows.append(config_degree_row(x, params, spec.mu_d, spec.cv_d, degenerate=mode))
            continue
        if isinstance(spec, FullMesh):
            row = [degree_full_mesh(StepContext(i, x), params) for i in range(1, steps + 1)]
        else:
            row = [degree_poisson(StepContext(i, x), params, spec.p_edge) for i in range(1, steps + 1)]
        row = np.array(row, dtype=np.float64)
        bad = np.flatnonzero(row < EPS_DEGREE)
        if bad.size:
            raise ModelDegenerateError(int(bad[0]) + 1, x, float(row[bad[0]]))
        rows.append(row)
    return np.array(rows).reshape(steps + 1, steps)


@pytest.mark.parametrize("spec,mode", list(equivalence_specs()))
def test_evaluation_matches_the_degree_matrix(spec, mode):
    # the row-by-row D(i|x) matrix is the reference: each E[T|x] is its
    # row's 1/(lam*D) sum, and a degenerate spec fails at the matrix's
    # first sub-floor entry in row-major (x, i) order
    try:
        want = reference_matrix(spec, mode)
    except ModelDegenerateError as ref:
        with pytest.raises(ModelDegenerateError) as exc:
            convergence_time(spec, degenerate=mode)
        assert (exc.value.step, exc.value.sdn_hit_step) == (ref.step, ref.sdn_hit_step)
        assert exc.value.value == pytest.approx(ref.value, rel=1e-15)
        return
    est = convergence_time(spec, degenerate=mode)
    assert "profile" not in est.__dict__
    values = est.profile.values
    assert "profile" in est.__dict__
    if isinstance(spec, ConfigModel):
        np.testing.assert_array_equal(values, want)
    else:
        # numpy's vectorized pow may differ from the scalar one in the last bit
        np.testing.assert_allclose(values, want, rtol=1e-15, atol=0.0)
    per_x = (1.0 / spec.params.lam / values).sum(axis=1)
    np.testing.assert_allclose(est.per_x_expectation, per_x, rtol=1e-12, atol=0.0)


# (N, k, lam, mu_d, cv_d, mode) -> exact E[T] and sha256 of E[T|x]'s bytes
CONFIG_PINS = [
    ((1500, 15, 1.0, 13.4, 1.05, "clamp"), 8.817120187737704,
     "b205cfdb2a4d42d56f0a08af64f7e160868f417c92ed195fce89271fe8ead4aa"),
    ((2, 1, 1.0, 1.5, 0.2, "error"), 0.8142316802963212,
     "55bd837a26c998c0eef4040e57f21cb672dfc8eb65469f77ca33bacf4b44c194"),
    ((2, 1, 1.0, 13.4, 1.05, "clamp"), 0.09114533734660311,
     "f0e069862ef1def9f3dd35326daa39903e0c0932cf531a2b90bb1654c0fc27ef"),
    ((3, 1, 2.0, 4.0, 2.5, "clamp"), 0.6347146554661756,
     "3fe3eb5845eef6a050c2f8f56878d521685e8e498a0c403485173ea2b54b88c1"),
    ((3, 2, 1.0, 1.5, 0.2, "error"), 0.6267729896119277,
     "d74dbbd272f79ea027640b8cecc6f245725678a0430cee11aeec30da3c6bea82"),
    ((3, 2, 1.0, 13.4, 1.05, "clamp"), 0.070161155553574,
     "83e8df2d3f78e04e5142269446385251166f931f9a1a375aad090acc240cc428"),
    ((200, 199, 1.0, 4.0, 0.5, "error"), 0.04819886749716652,
     "5affe44b19b60f661c1a9dac9751d0b6c1fa962ff2118da557dda4d9e942660c"),
    ((200, 199, 1.0, 13.4, 1.05, "clamp"), 0.014387721640945228,
     "042ec98fdb38c37c7b5b061a9f6dde17a7c47b28b36b2d12e40a8d0f2231169d"),
    ((50, 1, 0.5, 4.0, 2.5, "clamp"), 16.657602244950212,
     "c74e96bde3a37e051de73963a7d2082e9970f9c3f482c3cb6ff8ab937885f68f"),
    ((50, 1, 0.5, 3.0, 0.0, "clamp"), 13.915973151756774,
     "b784cd2dcdac2926d2dcf96395b6652b4f1b47e9c7dc6e4f7f96287ef0b11f2d"),
    ((120, 10, 3.0, 4.0, 0.5, "clamp"), 2.3209606803381653,
     "8defddf9be5eca57b251fe82b91adfe91fd9c28411b37cbfb8286fa5ead7072f"),
    # rows first fall below TAIL_FLOOR at six different steps (54-58 and
    # 72 of 110), so rows that have not dipped yet must keep their raw
    # values while others are already clamped
    ((120, 10, 3.0, 4.0, 2.5, "clamp"), 3.2412252025062025,
     "4beb396d0a42684da835dd7a29236291a12be24707d8e1ca244e55b5ad5c0edb"),
]

# (N, k, lam, mu_d, cv_d) in error mode -> (step, sdn_hit_step, value)
CONFIG_DEGENERATE_PINS = [
    ((20, 5, 1.0, 4.0, 2.0), (13, 1, -0.952918419298753)),
    ((1500, 15, 1.0, 13.4, 1.05), (1485, 0, -0.0064265759956634305)),
    ((3, 1, 2.0, 4.0, 0.5), (2, 0, -6.731162594595945)),
    ((30, 7, 3.0, 1.5, 0.2), (23, 18, -0.011740377552548642)),
    ((120, 10, 3.0, 4.0, 0.5), (110, 58, 8.142182383874541e-07)),
]


@pytest.mark.parametrize("spec,expected,digest", CONFIG_PINS)
def test_config_model_evaluation_is_pinned_bit_for_bit(spec, expected, digest):
    n, k, lam, mu_d, cv_d, mode = spec
    est = convergence_time(ConfigModel(ModelParams(n, k, lam), mu_d=mu_d, cv_d=cv_d), mode)
    assert repr(est.expected_time) == repr(expected)
    assert hashlib.sha256(est.per_x_expectation.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("spec,where", CONFIG_DEGENERATE_PINS)
def test_config_model_degenerate_entry_is_pinned(spec, where):
    n, k, lam, mu_d, cv_d = spec
    with pytest.raises(ModelDegenerateError) as exc:
        convergence_time(ConfigModel(ModelParams(n, k, lam), mu_d=mu_d, cv_d=cv_d), "error")
    got = (exc.value.step, exc.value.sdn_hit_step, exc.value.value)
    assert repr(got) == repr(where)


@st.composite
def small_config_specs(draw):
    n = draw(st.integers(min_value=2, max_value=80))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    lam, mu_d = (draw(st.floats(min_value=0.5, max_value=60.0)) for _ in range(2))
    cv_d = draw(st.floats(min_value=0.0, max_value=6.0))
    return ConfigModel(ModelParams(n, k, lam), mu_d=mu_d, cv_d=cv_d)


@seed(20160528)
@given(small_config_specs(), st.sampled_from(["error", "clamp"]))
@settings(max_examples=80, deadline=None)
def test_config_model_matches_the_row_reference_bit_for_bit(spec, mode):
    # each E[T|x] is the left-to-right sum of (1/lam)/D over the
    # reference row x, and error mode fails at the reference's first
    # sub-floor entry in row-major (x, i) order, with the same value
    inv_lam = 1.0 / spec.params.lam
    try:
        rows = reference_matrix(spec, mode)
    except ModelDegenerateError as ref:
        with pytest.raises(ModelDegenerateError) as exc:
            convergence_time(spec, mode)
        got = (exc.value.step, exc.value.sdn_hit_step, exc.value.value)
        assert repr(got) == repr((ref.step, ref.sdn_hit_step, ref.value))
        return
    want = []
    for row in rows.tolist():
        total = 0.0
        for degree in row:
            total += inv_lam / degree
        want.append(total)
    assert convergence_time(spec, mode).per_x_expectation.tolist() == want


# ---------------------------------------------------------------- degrees
# hand-derived values for the test-side references in degree_reference,
# which the equivalence test above holds the package's vector paths to

def test_degree_full_mesh_examples():
    params = ModelParams(4, 2, 1.0)
    assert degree_full_mesh(StepContext(1, 0), params) == 2
    assert degree_full_mesh(StepContext(1, 1), params) == 3
    big = ModelParams(300, 1, 1.0)
    for i in (1, 5, 150, 299):
        assert degree_full_mesh(StepContext(i, 1), big) == 300 - i


def test_degree_poisson_examples():
    assert degree_poisson(StepContext(1, 1), ModelParams(3, 1, 1.0), 0.5) == pytest.approx(1.0)
    # p=1 collapses to the full-mesh count
    params = ModelParams(12, 3, 1.0)
    for x in (0, 2, 9):
        for i in range(1, params.steps + 1):
            ctx = StepContext(i, x)
            assert degree_poisson(ctx, params, 1.0) == pytest.approx(
                degree_full_mesh(ctx, params)
            )
    assert degree_poisson(StepContext(1, 1), params, 0.0) == 0.0


def test_poisson_p_one_reduces_to_full_mesh_expectation():
    params = ModelParams(40, 6, 1.0)
    dense = convergence_time(Poisson(params, 1.0)).expected_time
    mesh = convergence_time(FullMesh(params)).expected_time
    assert dense == pytest.approx(mesh, rel=1e-12)


def test_degree_config_first_examples():
    assert degree_config_first(1, ModelParams(100, 10, 1.0), 5.0) == 5.0
    got = degree_config_first(0, ModelParams(100, 10, 1.0), 5.0)
    assert got == pytest.approx(90 * 5 * math.log(100 / 90), rel=1e-12)
    assert got == pytest.approx(47.41, abs=0.01)
    with pytest.raises(DomainError):
        degree_config_first(0, ModelParams(10, 10, 1.0), 5.0)


def test_degree_config_first_sits_above_sampled_graphs():
    # The x=0 closed form is an optimistic early-step approximation: on
    # sampled 5-regular graphs the distinct outside-neighbour count of a
    # random 10-node cluster lands well below it (stub collisions), around
    # 37 of 90 here.  Pin the direction and a generous band so a regression
    # in either the formula or the generator shows up.
    import bgpconv.graphs as gg

    formula = degree_config_first(0, ModelParams(100, 10, 1.0), 5.0)
    vals = []
    for s in range(120):
        g = gg.gen_config_model(ModelParams(100, 10, 1.0), [5] * 100, s)
        cm = g.cluster_mask
        outside = set()
        for m in g.cluster:
            for nb in g.neighbors(int(m)):
                if not cm[nb]:
                    outside.add(int(nb))
        vals.append(len(outside))
    mc = float(np.mean(vals))
    assert mc < formula
    assert 0.6 * formula <= mc <= formula


def test_mean_residual_degree_examples():
    # the row step D(i+1) = (1 - mu_i / (N - n_i - 1)) * D(i) + mu_i - 1
    # exposes the mean residual degree mu_i; at x = 1 on N = 10, k = 1,
    # n_i = i.  cv = 1 decays mu_2 to 3 * (1 - 1/8) = 2.625; cv = 0
    # keeps every mu_i at 3.
    params = ModelParams(10, 1, 1.0)

    def mu(row, i):
        return (row[i] - row[i - 1] + 1.0) / (1.0 - row[i - 1] / (10 - i - 1))

    row = config_degree_row(1, params, 3.0, 1.0, degenerate="clamp")
    assert row[0] == 3.0
    assert mu(row, 1) == pytest.approx(3.0)
    assert mu(row, 2) == pytest.approx(2.625)
    flat = config_degree_row(1, params, 3.0, 0.0, degenerate="clamp")
    for i in (1, 2, 5):
        assert mu(flat, i) == pytest.approx(3.0)


def test_degree_config_closed_form_vs_recursion_diagnostic():
    # same inputs, two evaluation orders: the closed form divides by the
    # residual pool (N - n - 1) and gives 3.875; the textbook recursion
    # D(2) = D(1) - 1 + mu * (1 - D(1) / (N - n)) divides by N - n and
    # gives 4.0.  Both are pinned so a silent swap of denominators
    # cannot slip through.  Error mode would raise at i = 9 on this spec.
    params = ModelParams(10, 1, 1.0)
    row = config_degree_row(1, params, 3.0, 0.0, degenerate="clamp")
    assert row[1] == pytest.approx(3.875)
    assert row[0] - 1.0 + 3.0 * (1.0 - row[0] / (10 - 1)) == pytest.approx(4.0)


def test_clamp_mode_keeps_the_raw_row_above_the_tail_floor():
    params = ModelParams(20, 3, 1.0)
    raw = _config_row_raw(2, params, 4.0, 0.5)
    row = config_degree_row(2, params, 4.0, 0.5, degenerate="clamp")
    first_low = int(np.flatnonzero(raw < TAIL_FLOOR)[0])
    assert 0 < first_low < params.steps
    assert np.array_equal(row[:first_low], raw[:first_low])


def test_ten_node_regular_brute_force_band():
    # brute force: sample 3-regular graphs, walk the informing order
    # uniformly over the live frontier, and average sum(1/frontier_size).
    # That mean IS the expected convergence time at lam=1, conditioned
    # only on the trajectory law, so it is an independent oracle for the
    # prescribed-degree approximation.
    import bgpconv.graphs as gg

    rng = np.random.default_rng(99)
    totals = []
    for s in range(300):
        g = gg.gen_config_model(ModelParams(10, 1, 1.0), [3] * 10, s)
        for _ in range(40):
            informed = np.zeros(10, dtype=bool)
            informed[int(rng.integers(10))] = True
            acc = 0.0
            while True:
                cnt = np.zeros(10, dtype=int)
                for v in range(10):
                    if informed[v]:
                        cnt[g.neighbors(v)] += 1
                frontier = np.flatnonzero(~informed & (cnt > 0))
                if frontier.size == 0:
                    break
                acc += 1.0 / frontier.size
                informed[int(frontier[rng.integers(frontier.size)])] = True
            totals.append(acc)
    oracle = float(np.mean(totals))
    spec = ConfigModel(ModelParams(10, 1, 1.0), mu_d=3.0, cv_d=0.0)
    est = convergence_time(spec, degenerate="clamp")
    assert est.expected_time == pytest.approx(oracle, rel=0.25)


# ------------------------------------------------------- degenerate tails

def test_strict_mode_raises_on_collapsed_row():
    spec = ConfigModel(ModelParams(50, 1, 1.0), mu_d=4.0, cv_d=1.5)
    with pytest.raises(ModelDegenerateError) as exc:
        convergence_time(spec)
    assert exc.value.value < EPS_DEGREE
    # the first sub-floor entry in row-major (x, i) order
    assert (exc.value.step, exc.value.sdn_hit_step) == (42, 0)
    assert exc.value.value == -0.2161865001755684


def test_clamp_mode_substitutes_full_mesh_tail():
    # once the raw recurrence dips under the floor, the row must carry
    # the exact complete-graph counts for every remaining step
    from bgpconv.model import informed_counts_row

    params = ModelParams(50, 1, 1.0)
    row = config_degree_row(1, params, 4.0, 2.5, degenerate="clamp")
    assert row[0] == 4.0  # head untouched: first step is the raw mean
    mesh_tail = params.n_total - informed_counts_row(1, params)
    matches = row == mesh_tail
    assert matches.any()
    i0 = int(np.argmax(matches))
    assert i0 >= 1 and matches[i0:].all()
    assert row[-1] == 1.0
    assert (row >= TAIL_FLOOR).all()
    est = convergence_time(ConfigModel(params, mu_d=4.0, cv_d=2.5), degenerate="clamp")
    assert np.isfinite(est.expected_time) and est.expected_time > 0.0


def test_poisson_disconnected_raises_in_both_modes():
    spec = Poisson(ModelParams(8, 2, 1.0), 0.0)
    for mode in ("error", "clamp"):
        with pytest.raises(ModelDegenerateError) as exc:
            convergence_time(spec, degenerate=mode)
        assert (exc.value.step, exc.value.sdn_hit_step, exc.value.value) == (1, 0, 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        FullMesh(ModelParams(10, 2, 1.0)),
        Poisson(ModelParams(10, 2, 1.0), 0.4),
        ConfigModel(ModelParams(10, 10, 1.0), mu_d=4.0, cv_d=0.5),
        ConfigModel(ModelParams(10, 2, 1.0), mu_d=4.0, cv_d=0.5),
        FullMesh(ModelParams(10, 10, 1.0)),
    ],
)
def test_unknown_degenerate_mode_is_rejected_for_every_family(spec):
    with pytest.raises(DomainError, match="degenerate must be 'error' or 'clamp'"):
        convergence_time(spec, degenerate="bogus")


# ------------------------------------------------------------- structure

def test_estimate_decomposition_recombines():
    spec = Poisson(ModelParams(30, 4, 1.0), 0.4)
    est = convergence_time(spec)
    recombined = math.fsum(p * t for p, t in zip(est.p_sdn, est.per_x_expectation))
    assert abs(recombined - est.expected_time) <= 1e-9
    assert est.profile.values.shape == (spec.params.steps + 1, spec.params.steps)


def test_rate_scaling_is_exact_for_binary_factors():
    base = convergence_time(FullMesh(ModelParams(25, 3, 1.0))).expected_time
    for c in (2.0, 4.0, 0.5):
        scaled = convergence_time(FullMesh(ModelParams(25, 3, c))).expected_time
        assert scaled == base / c  # bitwise, not approx
    third = convergence_time(FullMesh(ModelParams(25, 3, 3.0))).expected_time
    assert third == pytest.approx(base / 3.0, rel=1e-12)


def test_expected_time_nonincreasing_in_cluster_size():
    mesh = [
        convergence_time(FullMesh(ModelParams(40, k, 1.0))).expected_time
        for k in range(1, 41)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(mesh, mesh[1:]))
    assert mesh[-1] == 0.0
    sparse = [
        convergence_time(Poisson(ModelParams(60, k, 1.0), 0.3)).expected_time
        for k in range(1, 61)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(sparse, sparse[1:]))


def test_tiered_spec_is_rejected_by_flat_evaluator():
    spec = TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 1.0)
    with pytest.raises(DomainError):
        convergence_time(spec)


# ------------------------------------------------------------------ core

CORE = TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 1.0)


def test_core_first_transit_hop_example():
    est = core_convergence_time(CORE)
    assert est.t_x_tier1 == pytest.approx(1 / (1.0 * 0.25 * 20), rel=1e-12)
    assert est.t_x_tier1 == 0.2


def test_core_totals_recombine():
    est = core_convergence_time(CORE)
    transit = est.t_x_tier1 + est.t_tier1 + est.t_tier1_tier2
    assert est.t_transit == pytest.approx(transit, abs=1e-12)
    assert est.t_total == max(est.t_peering, est.t_transit)


def test_core_estimate_derives_its_totals():
    est = bc.CoreEstimate(0.0, 0.1, 0.2, 0.3)
    assert est.t_transit == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)  # left to right
    assert est.t_total == est.t_transit
    assert list(dataclasses.asdict(est)) == [
        "t_peering", "t_x_tier1", "t_tier1", "t_tier1_tier2", "t_transit", "t_total",
    ]
    assert bc.CoreEstimate(2.0, 0.25, 0.5, 0.125).t_total == 2.0
    stalled = bc.CoreEstimate(2.0, 0.25, math.inf, 0.125)
    assert stalled.t_transit == stalled.t_total == math.inf


def test_core_no_transit_edges_is_unreachable():
    with pytest.raises(UnreachableTopologyError):
        core_convergence_time(TieredCore(20, 100, 1, 0.5, 0.0, 0.2, 1.0))


def test_core_full_peering_skips_transit_fill():
    est = core_convergence_time(TieredCore(20, 100, 1, 0.5, 0.25, 1.0, 1.0))
    assert est.t_tier1_tier2 == 0.0
    # every tier-2 peer of the announcer: pure full-mesh harmonic over 100
    h99 = math.fsum(1 / i for i in range(1, 100))
    assert est.t_peering == pytest.approx(h99, rel=1e-12)


def test_core_tiny_branches_contribute_nothing():
    est = core_convergence_time(TieredCore(20, 100, 1, 0.5, 0.25, 0.004, 1.0))
    assert est.t_peering == 0.0


def test_core_both_branch_orderings_are_reachable():
    dense_peering = core_convergence_time(TieredCore(20, 100, 1, 0.5, 0.25, 0.9, 1.0))
    assert dense_peering.t_total == dense_peering.t_peering > dense_peering.t_transit
    sparse_peering = core_convergence_time(TieredCore(20, 100, 1, 0.5, 0.25, 0.1, 1.0))
    assert sparse_peering.t_total == sparse_peering.t_transit > sparse_peering.t_peering


def test_core_rate_scaling_is_exact_for_binary_factors():
    base = core_convergence_time(CORE)
    fast = core_convergence_time(TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 2.0))
    for field in ("t_peering", "t_x_tier1", "t_tier1", "t_tier1_tier2", "t_transit", "t_total"):
        assert getattr(fast, field) == getattr(base, field) / 2.0


def test_core_analytic_monotone_in_cluster_size():
    totals = [
        core_convergence_time(TieredCore(20, 100, k1, 0.5, 0.25, 0.2, 1.0)).t_total
        for k1 in range(1, 21)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
