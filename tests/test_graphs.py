"""Graph generators, reachability, and the edge-list interchange format.

Statistical assertions use bands that were sized against the generating
law (binomial / truncated power law), pooled over enough seeds that a
correct implementation clears them with wide margin.
"""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bgpconv.graphs as gg
from bgpconv.errors import DomainError, UnreachableTopologyError
from bgpconv.graphs import (
    ROLE_FLAT,
    ROLE_TIER1,
    ROLE_TIER2,
    draw_attempt,
    ensure_reachable,
    export_graph,
    from_edges,
    gen_config_model,
    gen_full_mesh,
    gen_graph,
    gen_poisson,
    gen_power_law_degrees,
    gen_tiered_core,
    import_graph,
    neighborhood,
    reachable_set,
)
from bgpconv.model import ConfigModel, ModelParams, Poisson, TieredCore, degree_stats
from graph_reference import (
    check_graph,
    gen_poisson_rowwise,
    gen_tiered_core_triu,
    reachable_set_dfs,
)


# ---------------------------------------------------------------- full mesh

def test_full_mesh_edge_counts():
    assert gen_full_mesh(ModelParams(300, 1, 1.0), 0).edge_count == 44850
    assert gen_full_mesh(ModelParams(3, 1, 1.0), 0).edge_count == 3
    assert gen_full_mesh(ModelParams(1, 1, 1.0), 0).edge_count == 0


def test_full_mesh_is_deterministic_and_valid():
    a = gen_full_mesh(ModelParams(40, 5, 1.0), 123)
    b = gen_full_mesh(ModelParams(40, 5, 1.0), 123)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.cluster, b.cluster)
    check_graph(a)
    assert a.cluster.shape == (5,)
    assert not a.is_tiered


# ------------------------------------------------------------------ poisson

def test_poisson_extremes():
    params = ModelParams(30, 2, 1.0)
    dense = gen_poisson(params, 1.0, 7)
    mesh = gen_full_mesh(params, 7)
    np.testing.assert_array_equal(dense.indptr, mesh.indptr)
    np.testing.assert_array_equal(dense.indices, mesh.indices)
    assert gen_poisson(params, 0.0, 7).edge_count == 0
    check_graph(dense)


def test_poisson_mean_degree_band():
    # (n-1)p is a shade under 5; the band holds across 100 seeds
    means = []
    for s in range(100):
        g = gen_poisson(ModelParams(300, 1, 1.0), 1 / 60, s)
        means.append(float(g.degrees.mean()))
    assert 4.5 <= min(means) and max(means) <= 5.5


def assert_same_graph(a, b):
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.cluster, b.cluster)


# up to n = 5 one block holds every pair; from 300 up, rows straddle block ends
@pytest.mark.parametrize("n", [1, 2, 5, 300, 1000, 3000])
@pytest.mark.parametrize("p_edge", [0.0, 1 / 60, 1.0])
def test_poisson_blocks_match_rowwise_draws(n, p_edge):
    k = max(1, n // 10)
    # one seed at n = 3000, where p = 1 builds 4.5 million edges per graph
    for seed in (0, 1, 17) if n < 3000 else (17,):
        params = ModelParams(n, k)
        assert_same_graph(gen_poisson(params, p_edge, seed),
                          gen_poisson_rowwise(params, p_edge, seed))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_poisson_block_size_never_changes_the_graph(monkeypatch, block):
    # blocks of 1, 7 and 64 draws end mid-row and span rows
    monkeypatch.setattr(gg, "PAIR_BLOCK", block)
    for seed in (3, 4):
        params = ModelParams(40, 4)
        assert_same_graph(gen_poisson(params, 0.2, seed),
                          gen_poisson_rowwise(params, 0.2, seed))
        # the tiered peering layers take the same blocks
        spec = TieredCore(9, 30, 2, 0.5, 0.25, 0.3)
        a, b = gen_tiered_core(spec, seed), gen_tiered_core_triu(spec, seed)
        assert_same_graph(a, b)
        np.testing.assert_array_equal(a.roles, b.roles)


def test_poisson_determinism():
    a = gen_poisson(ModelParams(50, 3, 1.0), 0.2, 99)
    b = gen_poisson(ModelParams(50, 3, 1.0), 0.2, 99)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.cluster, b.cluster)


# ----------------------------------------------------- power-law sequences

def test_power_law_support_and_parity():
    for s in range(25):
        deg = gen_power_law_degrees(101, 3, 40, 2.0, s)
        assert deg.shape == (101,)
        assert deg.sum() % 2 == 0
        assert deg.min() >= 3
        assert deg.max() <= 40


def test_power_law_degenerate_support():
    # single-point support: every entry is 5; odd total cannot happen
    # with even n, and with odd n the parity fix must bump one entry
    even = gen_power_law_degrees(300, 5, 5, 2.0, 0)
    assert (even == 5).all()
    odd = gen_power_law_degrees(301, 5, 5, 2.0, 0)
    assert odd.sum() % 2 == 0
    assert (odd == 5).sum() >= 300


def test_power_law_mean_tracks_truncated_law():
    support = np.arange(5, 201, dtype=float)
    weights = support ** -2.0
    target = float((support * weights).sum() / weights.sum())
    means = [gen_power_law_degrees(300, 5, 200, 2.0, s).mean() for s in range(50)]
    assert abs(float(np.mean(means)) - target) / target <= 0.10


def test_power_law_large_exponent_hugs_the_minimum():
    deg = gen_power_law_degrees(300, 5, 200, 12.0, 0)
    assert 5.0 <= deg.mean() <= 5.5


def test_power_law_preconditions():
    with pytest.raises(DomainError):
        gen_power_law_degrees(10, 5, 10, 2.0, 0)  # d_max must stay below n
    with pytest.raises(DomainError):
        gen_power_law_degrees(10, 5, 3, 2.0, 0)
    with pytest.raises(DomainError):
        gen_power_law_degrees(10, 0, 5, 2.0, 0)
    with pytest.raises(DomainError):
        gen_power_law_degrees(10, 2, 5, 1.0, 0)


# -------------------------------------------------------------- config model

def test_config_two_stubs_two_nodes():
    for s in range(10):
        g = gen_config_model(ModelParams(2, 1, 1.0), [1, 1], s)
        assert g.edge_count == 1
        np.testing.assert_array_equal(g.neighbors(0), [1])


def test_config_triangle_frequency():
    # [2,2,2] has 15 stub matchings; 8 give the triangle, the rest
    # collapse under erasure.  Frequency over seeds must sit near 8/15.
    hits = 0
    trials = 1200
    for s in range(trials):
        g = gen_config_model(ModelParams(3, 1, 1.0), [2, 2, 2], s)
        assert 2 * g.edge_count / 3 <= 2.0
        if g.edge_count == 3:
            hits += 1
    assert abs(hits / trials - 8 / 15) < 0.07


def test_config_erasure_is_small_on_tame_sequences():
    for s in range(5):
        deg = gen_power_law_degrees(300, 5, 20, 2.0, 100 + s)
        g = gen_config_model(ModelParams(300, 1, 1.0), deg, s)
        realized = 2 * g.edge_count / 300
        assert abs(realized - deg.mean()) / deg.mean() <= 0.05


def test_config_erasure_collapses_heavy_hubs():
    # with d_max = 200 on 300 nodes the hubs shed 10-20% of their stubs;
    # the realized count must match an independent pairwise-collapse
    # estimate (1 - exp(-d_i d_j / sum(d))) summed over pairs, which pins
    # the erasure as correct rather than accidental
    deg = gen_power_law_degrees(300, 5, 200, 2.0, 1000)
    g = gen_config_model(ModelParams(300, 1, 1.0), deg, 1000)
    d = deg.astype(float)
    approx = float(np.triu(1.0 - np.exp(-np.outer(d, d) / d.sum()), k=1).sum())
    assert g.edge_count == pytest.approx(approx, rel=0.05)
    realized_mu = 2 * g.edge_count / 300
    assert realized_mu < deg.mean()
    assert (deg.mean() - realized_mu) / deg.mean() <= 0.25
    mu_d, _ = degree_stats(g.degrees)
    assert mu_d == pytest.approx(realized_mu)
    assert g.degrees.max() <= 200


def test_config_preconditions():
    with pytest.raises(DomainError):
        gen_config_model(ModelParams(3, 1, 1.0), [1, 1, 1], 0)  # odd sum
    with pytest.raises(DomainError):
        gen_config_model(ModelParams(2, 1, 1.0), [5, 1], 0)  # degree >= n
    with pytest.raises(DomainError):
        gen_config_model(ModelParams(3, 1, 1.0), [1, 1], 0)  # length mismatch


def test_cluster_degree_independence():
    # membership must not correlate with degree: pooled over seeds, the
    # cluster's mean degree tracks the global mean
    pool_cluster, pool_all = [], []
    for s in range(200):
        deg = gen_power_law_degrees(40, 2, 10, 2.0, 50 + s)
        g = gen_config_model(ModelParams(40, 5, 1.0), deg, s)
        pool_cluster.extend(g.degrees[g.cluster].tolist())
        pool_all.extend(g.degrees.tolist())
    ratio = float(np.mean(pool_cluster)) / float(np.mean(pool_all))
    assert 0.95 <= ratio <= 1.05


# ------------------------------------------------------------- tiered core

TIERED = TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 1.0)


def test_tiered_roles_kinds_and_cluster():
    g = gen_tiered_core(TIERED, 3)
    check_graph(g)
    assert g.is_tiered
    assert (g.roles[:20] == ROLE_TIER1).all()
    assert (g.roles[20:] == ROLE_TIER2).all()
    assert g.cluster.shape == (1,)
    assert (g.roles[g.cluster] == ROLE_TIER1).all()


def test_tiered_provider_count_band():
    # each tier-2 node sees Binomial(20, 0.25) providers: mean 5
    means = []
    for s in range(100):
        g = gen_tiered_core(TIERED, s)
        t2 = np.flatnonzero(g.roles == ROLE_TIER2)
        total = 0
        for v in t2:
            nb = g.neighbors(int(v))
            total += int((g.roles[nb] == ROLE_TIER1).sum())
        means.append(total / t2.size)
    assert 4.0 <= min(means) and max(means) <= 6.0


def test_tiered_saturated_probabilities():
    spec = TieredCore(5, 8, 2, 1.0, 1.0, 1.0, 1.0)
    g = gen_tiered_core(spec, 0)
    # complete within tiers and across: 10 + 40 + 28 edges
    assert g.edge_count == 10 + 40 + 28
    check_graph(g)


@pytest.mark.parametrize("p22", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("k1", [1, 5])
def test_tiered_offsets_match_triu_reference(p22, k1):
    # one uniform per pair in both; only the pair-to-endpoint map differs
    for seed in range(300):
        spec = TieredCore(20, 100, k1, 0.5, 0.25, p22)
        a, b = gen_tiered_core(spec, seed), gen_tiered_core_triu(spec, seed)
        assert_same_graph(a, b)
        np.testing.assert_array_equal(a.roles, b.roles)
    for n1, n2 in ((1, 1), (1, 6), (6, 1), (2, 2)):
        spec = TieredCore(n1, n2, 1, 0.7, 0.5, p22)
        a, b = gen_tiered_core(spec, k1), gen_tiered_core_triu(spec, k1)
        assert_same_graph(a, b)
        np.testing.assert_array_equal(a.roles, b.roles)


# ------------------------------------------------------------ reachability

def test_reachable_set_uses_cluster_as_one_supernode():
    # 0-1 edge only; cluster {1,2}: informing 1 drags 2 in atomically
    g = from_edges(3, np.array([0]), np.array([1]), cluster=np.array([1, 2]))
    reached = reachable_set(g, 0)
    assert reached.all()
    lone = from_edges(3, np.array([0]), np.array([1]), cluster=np.array([0]))
    assert not reachable_set(lone, 0)[2]
    assert not reachable_set(lone, 0).all()


def test_reachable_set_respects_forwarding_rules():
    # tiered chain: announcer(1) peers 2, 2 peers 3.  Tier-2 nodes do not
    # relay, so 3 stays dark even though an undirected path exists.
    u = np.array([0, 1, 2])
    v = np.array([1, 2, 3])
    roles = np.array([ROLE_TIER1, ROLE_TIER2, ROLE_TIER2, ROLE_TIER2], dtype=np.uint8)
    g = from_edges(4, u, v, roles=roles, cluster=np.array([0]))
    reached = reachable_set(g, 1)
    assert reached[0] and reached[1] and reached[2]
    assert not reached[3]


def test_neighborhood_concatenates_adjacency_lists():
    g = gen_poisson(ModelParams(40, 1), 0.2, 5)
    nodes = np.array([7, 0, 39, 7, 12])
    expect = np.concatenate([g.neighbors(int(u)) for u in nodes])
    np.testing.assert_array_equal(neighborhood(g, nodes), expect)
    assert neighborhood(g, np.array([], dtype=np.int64)).size == 0


SMALL_GRAPHS = {
    "mesh": lambda: gen_full_mesh(ModelParams(12, 3), 0),
    "poisson": lambda: gen_poisson(ModelParams(80, 4), 0.05, 1),
    "tiered": lambda: gen_tiered_core(TieredCore(6, 30, 2, 0.5, 0.3, 0.2), 2),
    "import-tiered": lambda: exported_tiered(),
}


@pytest.mark.parametrize("case", sorted(SMALL_GRAPHS))
def test_relay_views_are_the_rows_of_the_relaying_nodes(case):
    g = SMALL_GRAPHS[case]()
    views = g.relay_views
    assert len(views) == g.node_count
    for v, view in enumerate(views):
        if g.roles[v] == ROLE_TIER2:
            assert view == ()
        else:
            assert list(view) == g.neighbors(v).tolist()
    assert (g.roles == ROLE_TIER2).any() == g.is_tiered
    assert g.relay_views is views
    # the one forwarding rule the views, the kernels and reachable_set read
    mask = g.relay_mask
    np.testing.assert_array_equal(mask, g.roles != ROLE_TIER2)
    assert mask.dtype == np.bool_ and not mask.flags.writeable
    assert g.relay_mask is mask


def test_reachable_set_matches_depth_first_reference():
    # flat graphs near and below connectivity, tiered graphs with sparse
    # layers (announcer in tier-2, cluster in tier-1): many draws leave
    # nodes dark, so both outcomes are compared
    rng = np.random.default_rng(2024)
    dark = 0
    for seed in range(150):
        n = int(rng.integers(1, 80))
        g = gen_poisson(ModelParams(n, int(rng.integers(1, n + 1))),
                        float(rng.uniform(0.0, 0.1)), seed)
        ann = int(rng.integers(0, n))
        reached = reachable_set(g, ann)
        np.testing.assert_array_equal(reached, reachable_set_dfs(g, ann))
        dark += not reached.all()
        n1, n2 = int(rng.integers(1, 15)), int(rng.integers(1, 40))
        p11, p12, p22 = rng.uniform(0.0, 0.4, 3)
        spec = TieredCore(n1, n2, int(rng.integers(1, n1 + 1)), p11, p12, p22)
        g = gen_tiered_core(spec, seed)
        ann = int(rng.integers(n1, n1 + n2))
        reached = reachable_set(g, ann)
        np.testing.assert_array_equal(reached, reachable_set_dfs(g, ann))
        dark += not reached.all()
    assert 30 <= dark <= 270


def test_ensure_reachable_full_mesh_first_try():
    from bgpconv.model import FullMesh

    draw = ensure_reachable(FullMesh(ModelParams(25, 2, 1.0)), 11)
    assert draw.attempts == 1 and draw.failures == 0
    assert reachable_set(draw.graph, draw.announcer).all()


def test_ensure_reachable_failures_are_the_rejected_attempts():
    # near the connectivity threshold most seeds reject some draws; every
    # attempt before the returned one must leave a node dark
    spec = Poisson(ModelParams(60, 1, 1.0), 1 / 15)
    rejected = 0
    for seed in range(6):
        draw = ensure_reachable(spec, seed)
        assert draw.failures == draw.attempts - 1
        for attempt in range(draw.failures):
            graph, announcer = draw_attempt(spec, seed, attempt)
            assert not reachable_set(graph, announcer).all()
        rejected += draw.failures
    assert rejected


def test_ensure_reachable_gives_up_with_diagnostics():
    spec = Poisson(ModelParams(12, 2, 1.0), 0.0)
    with pytest.raises(UnreachableTopologyError) as exc:
        ensure_reachable(spec, 0, max_retries=3)
    msg = str(exc.value)
    assert "3" in msg and "of 12" in msg


def test_ensure_reachable_rejection_rate_near_connectivity_threshold():
    # mean degree 4.98 sits below ln(300): isolated nodes are expected in
    # most draws, so rejection dominates.  Measured rate is about 0.82;
    # assert a wide band so the statistic, not the exact value, is pinned.
    spec = Poisson(ModelParams(300, 1, 1.0), 1 / 60)
    attempts = failures = 0
    for s in range(40):
        draw = ensure_reachable(spec, s, max_retries=100)
        attempts += draw.attempts
        failures += draw.failures
    rate = failures / attempts
    assert 0.60 <= rate <= 0.95


def test_ensure_reachable_is_deterministic():
    spec = Poisson(ModelParams(60, 2, 1.0), 0.12)
    a = ensure_reachable(spec, 5)
    b = ensure_reachable(spec, 5)
    assert a.announcer == b.announcer and a.attempts == b.attempts
    np.testing.assert_array_equal(a.graph.indices, b.graph.indices)


def test_ensure_reachable_tiered_draws_tier2_announcer():
    draw = ensure_reachable(TIERED, 4)
    assert draw.graph.roles[draw.announcer] == ROLE_TIER2


# ------------------------------------------------------------ interchange

def test_export_import_round_trip_flat():
    g = gen_poisson(ModelParams(30, 3, 1.0), 0.3, 21)
    buf = io.StringIO()
    export_graph(g, buf)
    back = import_graph(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(g.indptr, back.indptr)
    np.testing.assert_array_equal(g.indices, back.indices)
    np.testing.assert_array_equal(g.cluster, back.cluster)
    assert not back.is_tiered
    # second export must be byte-identical
    buf2 = io.StringIO()
    export_graph(back, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_export_import_round_trip_tiered():
    g = gen_tiered_core(TIERED, 9)
    buf = io.StringIO()
    export_graph(g, buf)
    back = import_graph(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(g.indices, back.indices)
    np.testing.assert_array_equal(g.roles, back.roles)
    np.testing.assert_array_equal(g.cluster, back.cluster)


def exported(graph):
    """The edge-list text export_graph writes for graph."""
    buf = io.StringIO()
    export_graph(graph, buf)
    return buf.getvalue()


def tier2_first_text():
    """An edge-list file of a tiered core with its node ids reversed
    (x -> n - 1 - x), so every tier-2 id comes before every tier-1 id;
    its lines run in the original graph's order."""
    g = gen_tiered_core(TIERED, 9)
    n = g.node_count
    lines = [f"n {n}"]
    for line in exported(g).splitlines()[1:]:
        head, *rest = line.split()
        if head == "cluster":
            lines.append(" ".join(["cluster", *(str(n - 1 - int(c)) for c in rest)]))
        else:
            a, b, kind = line.split()
            lines.append(f"{n - 1 - int(a)} {n - 1 - int(b)} {kind}")
    return "\n".join(lines) + "\n"


def test_export_transit_lines_put_the_provider_first():
    g = gen_tiered_core(TIERED, 9)
    transit = 0
    for line in exported(g).splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2] == "transit12":
            transit += 1
            assert int(parts[0]) < 20 <= int(parts[1])
    src = np.repeat(np.arange(g.node_count), g.degrees)
    assert transit == int((g.roles[src] != g.roles[g.indices]).sum()) // 2 > 0
    # with the ids reversed, tier-1 is [100, 120): each transit line's
    # provider has the larger id, so export swaps the endpoints
    back = import_graph(io.StringIO(tier2_first_text()))
    assert (back.roles[100:] == ROLE_TIER1).all() and (back.roles[:100] == ROLE_TIER2).all()
    swapped = 0
    for line in exported(back).splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2] == "transit12":
            swapped += 1
            assert int(parts[1]) < 100 <= int(parts[0])
    assert swapped == transit


def test_import_rejects_malformed_input():
    with pytest.raises(DomainError):
        import_graph(io.StringIO("n 3\n0 1\n0 9\ncluster 0\n"))  # node out of range
    with pytest.raises(DomainError):
        import_graph(io.StringIO("n 3\n0 1\n0 1\ncluster 0\n"))  # duplicate edge
    with pytest.raises(DomainError):
        import_graph(io.StringIO("n 3\n0 0\ncluster 0\n"))  # self-loop
    with pytest.raises(DomainError):
        import_graph(io.StringIO("n 3\n0 1\n"))  # missing cluster line
    with pytest.raises(DomainError, match="second cluster line"):
        import_graph(io.StringIO("n 3\n0 1\ncluster 0\ncluster 1\n"))
    with pytest.raises(DomainError):
        import_graph(io.StringIO("n 3\n0 1 peer11\n1 2\ncluster 0\n"))  # mixed labels
    with pytest.raises(DomainError):
        import_graph(io.StringIO("n 3\n0 1 sideways\ncluster 0\n"))  # unknown kind
    with pytest.raises(DomainError, match="edge endpoint out of range"):
        import_graph(io.StringIO("n 3\n0 9 peer11\ncluster 0\n"))  # tiered, out of range


def test_import_reports_a_node_count_that_does_not_fit_in_memory(monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(gg, "from_edges", out_of_memory)
    with pytest.raises(DomainError, match="node count 3 does not fit in memory"):
        import_graph(io.StringIO("n 3\n0 1\ncluster 0\n"))


def test_from_edges_rejects_bad_input():
    with pytest.raises(DomainError):
        from_edges(3, np.array([0]), np.array([0]), cluster=np.array([0]))
    for u, v in (([0, 1], [1, 0]), ([0, 0], [1, 1]), ([2, 0, 2], [1, 1, 1])):
        with pytest.raises(DomainError, match="duplicate edges"):
            from_edges(3, np.array(u), np.array(v), cluster=np.array([0]))
    with pytest.raises(DomainError):
        from_edges(3, np.array([0]), np.array([5]), cluster=np.array([0]))


def tiered_path():
    """from_edges arguments for the path 0 - 1 - 2 - 3 with tier-1 {0, 1}:
    one edge of each kind."""
    return dict(node_count=4, u=np.array([0, 1, 2]), v=np.array([1, 2, 3]),
                roles=np.array([ROLE_TIER1, ROLE_TIER1, ROLE_TIER2, ROLE_TIER2],
                               dtype=np.uint8),
                cluster=[0])


@pytest.mark.parametrize(
    "kinds,message",
    [
        (["peer22", "transit12", "peer22"], r"conflicting roles for nodes \[1\]"),
        (["peer11", "peer11", "peer22"], r"conflicting roles for nodes \[2\]"),
        (["peer11", "transit12", "transit12"], r"conflicting roles for nodes \[2\]"),
        (["peer11", "transit12", "0"], "unknown edge kind '0'"),
        (["peer11", "transit12", "255"], "unknown edge kind '255'"),
    ],
    ids=["peer22-on-tier-1-pair", "peer11-across-tiers", "transit-within-tier-2",
         "kind-0", "kind-255"],
)
def test_import_rejects_kinds_that_disagree_with_the_roles(kinds, message):
    # an edge-list file is the one place kinds enter: the roles are
    # inferred from them, so a wrong label on tiered_path's edges gives
    # some node both tiers (or names no kind at all)
    def edge_list(labels):
        lines = [f"{a} {b} {k}\n" for a, b, k in zip((0, 1, 2), (1, 2, 3), labels)]
        return io.StringIO("n 4\n" + "".join(lines) + "cluster 0\n")

    right = import_graph(edge_list(["peer11", "transit12", "peer22"]))
    np.testing.assert_array_equal(right.roles, tiered_path()["roles"])
    with pytest.raises(DomainError, match=message):
        import_graph(edge_list(kinds))


@pytest.mark.parametrize(
    "change",
    [
        dict(roles=[ROLE_TIER1, ROLE_TIER1, ROLE_TIER2, 0]),
        dict(roles=[ROLE_TIER1, ROLE_TIER1, ROLE_TIER2, 3]),
        dict(roles=[0, 0, 0, 0]),
    ],
    ids=["flat-endpoint", "role-3-endpoint", "all-flat-roles"],
)
def test_from_edges_rejects_tiered_roles_outside_the_tiers(change):
    # roles passed in make the graph tiered, even when every one is flat
    case = tiered_path()
    case.update(change)
    case["roles"] = np.array(case["roles"], dtype=np.uint8)
    with pytest.raises(DomainError, match="tiered graph nodes must be tier-1 or tier-2"):
        from_edges(**case)


@pytest.mark.parametrize(
    "u,v,message",
    [
        ([0, 1, 2, 3], [1, 2, 3, 3], "self loops"),
        ([0, 1, 2, 0], [1, 2, 3, 4], "edge endpoint out of range"),
        ([0, 1, 2, -1], [1, 2, 3, 0], "edge endpoint out of range"),
        ([0, 1, 2, 2], [1, 2, 3, 1], "duplicate edges"),
    ],
)
def test_from_edges_checks_the_edge_set_before_the_kinds(u, v, message):
    # node 3 is given a flat role, which a tiered graph rejects: the
    # edge-set defect must be reported
    # first, before any role is read
    case = tiered_path()
    case["roles"][3] = ROLE_FLAT
    case.update(u=np.array(u), v=np.array(v))
    with pytest.raises(DomainError, match=message):
        from_edges(**case)


def test_from_edges_rejects_an_empty_tiered_graph():
    # roles cannot mark an empty graph tiered, so from_edges refuses one;
    # an empty flat graph is fine
    with pytest.raises(DomainError, match="a tiered graph needs at least one node"):
        from_edges(0, [], [], roles=[])
    empty = from_edges(0, [], [])
    assert not empty.is_tiered and empty.edge_count == 0


def test_from_edges_rejects_roles_of_the_wrong_length():
    case = tiered_path()
    case["roles"] = case["roles"][:3]
    with pytest.raises(DomainError, match="roles array misaligned with nodes"):
        from_edges(**case)


@st.composite
def edge_sets(draw, tiered=None):
    """from_edges arguments for a random simple graph, flat or tiered.

    Tiered graphs put tier-1 first and draw the cluster from tier-1;
    edges come in random order and orientation.
    """
    if tiered is None:
        tiered = draw(st.booleans())
    n = draw(st.integers(2, 24))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=60,
                          unique_by=lambda e: frozenset(e)))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    roles = None
    pool = range(n)
    if tiered:
        n1 = draw(st.integers(1, n - 1))
        roles = np.where(np.arange(n) < n1, ROLE_TIER1, ROLE_TIER2).astype(np.uint8)
        pool = range(n1)
    cluster = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return dict(node_count=n, u=u, v=v, roles=roles, cluster=cluster)


@given(edge_sets())
@settings(max_examples=200, deadline=None)
def test_from_edges_output_passes_the_reference_check(case):
    graph = from_edges(**case)
    check_graph(graph)
    assert graph.is_tiered == (case["roles"] is not None)
    src = np.repeat(np.arange(graph.node_count), graph.degrees)
    built = {(int(a), int(b)) for a, b in zip(src, graph.indices) if a < b}
    assert built == {(min(a, b), max(a, b)) for a, b in zip(case["u"], case["v"])}
    assert graph.cluster.tolist() == sorted(case["cluster"])


def _add_edge(case, a, b):
    case["u"] = np.append(case["u"], a)
    case["v"] = np.append(case["v"], b)


# each defect, and the message from_edges rejects it with
DEFECTS = {
    "self-loop": "self loops",
    "duplicate-edge": "duplicate edges",
    "endpoint-out-of-range": "edge endpoint out of range",
    "cluster-node-out-of-range": "cluster node out of range",
    "repeated-cluster-node": "repeated cluster node",
    "tiered-cluster-outside-tier-1": "must lie in tier-1",
    "tiered-role-outside-the-tiers": "tiered graph nodes must be tier-1 or tier-2",
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_from_edges_rejects_each_malformed_edge_set(defect, data):
    tiered = True if defect in ("tiered-cluster-outside-tier-1",
                                "tiered-role-outside-the-tiers") else None
    case = data.draw(edge_sets(tiered=tiered))
    n = case["node_count"]
    outside = st.one_of(st.integers(-3, -1), st.integers(n, n + 3))
    if defect == "self-loop":
        w = data.draw(st.integers(0, n - 1))
        _add_edge(case, w, w)
    elif defect == "duplicate-edge":
        assume(case["u"].size)
        i = data.draw(st.integers(0, case["u"].size - 1))
        a, b = int(case["u"][i]), int(case["v"][i])
        _add_edge(case, *data.draw(st.sampled_from([(a, b), (b, a)])))
    elif defect == "endpoint-out-of-range":
        a, b = data.draw(st.integers(0, n - 1)), data.draw(outside)
        _add_edge(case, *data.draw(st.sampled_from([(a, b), (b, a)])))
    elif defect == "cluster-node-out-of-range":
        case["cluster"] = case["cluster"] + [data.draw(outside)]
    elif defect == "repeated-cluster-node":
        assume(case["cluster"])
        case["cluster"] = case["cluster"] + [data.draw(st.sampled_from(case["cluster"]))]
    elif defect == "tiered-cluster-outside-tier-1":
        tier2 = np.flatnonzero(case["roles"] == ROLE_TIER2).tolist()
        case["cluster"] = case["cluster"] + [data.draw(st.sampled_from(tier2))]
    elif defect == "tiered-role-outside-the-tiers":
        roles = case["roles"].copy()
        roles[data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from([0, 3, 128, 255]))
        case["roles"] = roles
    with pytest.raises(DomainError, match=DEFECTS[defect]):
        from_edges(**case)


def test_gen_graph_dispatch():
    params = ModelParams(12, 2, 1.0)
    assert gen_graph(Poisson(params, 0.5), 0).node_count == 12
    assert gen_graph(TIERED, 0).node_count == 120
    seq_spec = ConfigModel(params, degree_seq=[3] * 12)
    assert gen_graph(seq_spec, 0).node_count == 12
    with pytest.raises(DomainError):
        gen_graph(ConfigModel(params, mu_d=3.0, cv_d=0.5), 0)  # stats only, nothing to build


# ------------------------------------------------------------- byte pins

def csr_digest(graphs):
    """sha256 over the CSR bytes (indptr, indices, kinds, roles, cluster)
    of each graph in turn.  The kinds are the uint8 half-edge codes
    role_u + role_v - 1 aligned with indices (1 peer11, 2 transit12,
    3 peer22), derived here from the roles; a flat graph hashes b"flat"
    in their place."""
    h = hashlib.sha256()
    for g in graphs:
        kinds = b"flat"
        if g.is_tiered:
            codes = g.roles.repeat(g.degrees) + g.roles.take(g.indices) - 1
            kinds = codes.astype(np.uint8).tobytes()
        for part in (g.indptr.tobytes(), g.indices.tobytes(), kinds,
                     g.roles.tobytes(), g.cluster.tobytes()):
            h.update(part)
    return h.hexdigest()


def exported_tiered():
    buf = io.StringIO()
    export_graph(gen_tiered_core(TieredCore(20, 100, 5, 0.5, 0.25, 0.3), 3), buf)
    return import_graph(io.StringIO(buf.getvalue()))


CORE_GRID = [(p22, k1) for p22 in (0.1, 0.3, 0.5) for k1 in (1, 5, 10, 20)]

# (case, PAIR_BLOCK or None for the default) -> the graphs it builds
CSR_CASES = {
    "mesh": lambda: [gen_full_mesh(ModelParams(30, 4), s) for s in (0, 7)],
    "poisson": lambda: [gen_poisson(ModelParams(150, 15), 0.05, s) for s in (0, 5)],
    "poisson-sparse": lambda: [gen_poisson(ModelParams(600, 6), 0.01, 2)],
    "config": lambda: [gen_config_model(
        ModelParams(200, 5), gen_power_law_degrees(200, 2, 40, 2.5, 3), 4)],
    **{f"tiered-{p22}-{k1}": (lambda p22=p22, k1=k1: [
        gen_tiered_core(TieredCore(20, 100, k1, 0.5, 0.25, p22), s) for s in range(5)])
       for p22, k1 in CORE_GRID},
    "tiered-p1": lambda: [gen_tiered_core(TieredCore(6, 12, 2, 1.0, 1.0, 1.0), 0)],
    "tiered-small": lambda: [
        gen_tiered_core(TieredCore(n1, n2, 1, 0.5, 0.5, 0.5), s)
        for n1 in (1, 2, 6) for n2 in (1, 2, 6) for s in range(3)],
    "import-tiered": lambda: [exported_tiered()],
}

CSR_PINS = {
    "mesh":
        "09418963c1cf1bab7a6dbae94a5d3dbecce84db429e2ce4824f48f74495eff68",
    "poisson":
        "efc562c09bcf813242e39211578ef1ea0a4f2ae41b8b3cd84d833a819ccc131a",
    "poisson-sparse":
        "b71e3f1bf59400311b2544f82250171bff9a316147ae9bf23249a470d826dc1b",
    "config":
        "9565bb3c6a6cd71be2132e419996036413bfd5bc48d89e8a69e858535eb819e4",
    "tiered-0.1-1":
        "a37eb7eb64037bb370f1195703997b50d1036ad500390f2b5fd5d6714dc93d5b",
    "tiered-0.1-5":
        "fba73b80b5b4f66d0209fdbf3a64724d3fcd7652278b9f8bd808917011d58954",
    "tiered-0.1-10":
        "4bba896d664a4122028ad718f6d11342469ca2aaf5617bdfd19853deba4e7c99",
    "tiered-0.1-20":
        "4d7bfa8931dea6aa19043c08ca1a7095a62507c03a3551e72af3f46db2791a63",
    "tiered-0.3-1":
        "ef913802f3e6e9ea603c9b0ecd3355f0be34bb9cb3b52c3b80e9aee19824f938",
    "tiered-0.3-5":
        "580214750649fd02d0877884d6c402c76c49746a8fb8e571c9932f1e24f36db6",
    "tiered-0.3-10":
        "83a7b7305f4614dd0f37d32a14bd246150b2de5c68681efa4d32f0dd848c26bc",
    "tiered-0.3-20":
        "387560a10f63312d5d45a0544fb18669bdebe2b3f0480833f0f8faa0c884e6ba",
    "tiered-0.5-1":
        "46a390bd6de2adfd4c8a4e651fb35f035b02b1b8958b0f2823221899131f30f2",
    "tiered-0.5-5":
        "6428ad028bf21a0e104bfddda0df0c45c4a2abe4165efc3534f49d237f201006",
    "tiered-0.5-10":
        "6d90d63398a3af51db41a00286ac5083cd50d1f815364ee05c85d72461554329",
    "tiered-0.5-20":
        "4e785d821b27261aa246a4eb0106a344585cf8591205ecf00d6d37b51c49d90d",
    "tiered-p1":
        "bc8dcdc6790ca728c13c436477abab490d857131fde45fa777340845db32c9d8",
    "tiered-small":
        "a5eddc729cc9522c7c12fa519574d4b04b58bb5287e77c81884a07521fb117db",
    "import-tiered":
        "0967502065ce23eeb7281213d190f6cbb62b5bdb22235e1c54b7824cfcde492c",
}


@pytest.mark.parametrize("block", [None, 97])
@pytest.mark.parametrize("case", sorted(CSR_PINS))
def test_csr_bytes_are_pinned(monkeypatch, case, block):
    # every generator's CSR arrays, byte for byte; pair draws split into
    # blocks of 97 give the same bytes as the default single block
    if block is not None:
        monkeypatch.setattr(gg, "PAIR_BLOCK", block)
    assert csr_digest(CSR_CASES[case]()) == CSR_PINS[case]


# case -> the graph whose export_graph text is pinned
EXPORT_CASES = {
    "tiered": lambda: gen_tiered_core(TIERED, 3),
    "poisson": lambda: gen_poisson(ModelParams(150, 15), 0.05, 0),
    "config": lambda: gen_config_model(
        ModelParams(200, 5), gen_power_law_degrees(200, 2, 40, 2.5, 3), 4),
    "import-tier2-first": lambda: import_graph(io.StringIO(tier2_first_text())),
}

EXPORT_PINS = {
    "config":
        "3da24b9298d87269cbf475ea9373b905099bead93046f0e391fbe9ae99335639",
    "import-tier2-first":
        "4ad3b6fd9074918a926b3c87a49c672ba0c45b89f9b9d9924ad7142646ba3345",
    "poisson":
        "85db2a635f59d69f6a2795897267e2f93d9df26415ba5cfc5b7dc5cddc89e259",
    "tiered":
        "66eac05f87d640a82f314f85889ab1ba97633cdb320f0ab6dd4a13f5553ad8c3",
}


@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
def test_export_bytes_are_pinned(case):
    # the edge-list text, byte for byte: line order, the provider-first
    # transit lines and the kind names
    text = exported(EXPORT_CASES[case]())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == EXPORT_PINS[case]
