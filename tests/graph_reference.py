"""Row-wise Poisson generation, tiered generation over np.triu_indices,
depth-first reachability and a per-node structure check, the reference
for the tests.

The package draws every pair layer of a graph (the Poisson triangle;
the tiered p11 triangle, p12 transit rectangle and p22 triangle) as
consecutive segments of one uniform stream in fixed-size blocks, maps
all hits to endpoints through one table of row starts, reads the CSR
arrays back from half-edge keys sorted in place, takes each half-edge's
kind from its endpoints' roles, and finds reachable nodes by a
level-synchronous breadth-first search that stops once every node is
seen.  The functions here do the same work one row, one index table or
one 2-D draw per layer, and one node at a time, so the equivalence
tests compare two implementations: graphs bit for bit, reachable sets
exactly.  The package checks a graph's invariants once, vectorized, in
from_edges; check_graph re-checks them on the built CSR arrays one node
at a time, kinds against roles included.
"""

from __future__ import annotations

import numpy as np

from bgpconv.graphs import (
    KIND_PEER11,
    KIND_PEER22,
    KIND_TRANSIT12,
    ROLE_TIER1,
    ROLE_TIER2,
    Graph,
    _sample_cluster,
    forwarder_mask,
    from_edges,
)
from bgpconv.model import ModelParams, TieredCore


def gen_poisson_rowwise(params: ModelParams, p_edge: float, seed) -> Graph:
    """gen_poisson with one Generator.random call per row of pairs."""
    rng = np.random.default_rng(seed)
    n = params.n_total
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for u_node in range(n - 1):
        hit = rng.random(n - u_node - 1) < p_edge
        if hit.any():
            vv = np.flatnonzero(hit).astype(np.int64) + u_node + 1
            us.append(np.full(vv.size, u_node, dtype=np.int64))
            vs.append(vv)
    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    cluster = _sample_cluster(rng, n, params.k_cluster)
    return from_edges(n, u, v, cluster=cluster)


def gen_tiered_core_triu(spec: TieredCore, seed) -> Graph:
    """gen_tiered_core with the peering pairs listed by np.triu_indices."""
    rng = np.random.default_rng(seed)
    n1, n2 = spec.n1, spec.n2
    n = n1 + n2

    u1, v1 = np.triu_indices(n1, k=1)
    m11 = rng.random(u1.size) < spec.p11
    e11_u = u1[m11].astype(np.int64)
    e11_v = v1[m11].astype(np.int64)

    m12 = rng.random((n1, n2)) < spec.p12
    t1, t2 = np.nonzero(m12)
    e12_u = t1.astype(np.int64)
    e12_v = t2.astype(np.int64) + n1

    u2, v2 = np.triu_indices(n2, k=1)
    m22 = rng.random(u2.size) < spec.p22
    e22_u = u2[m22].astype(np.int64) + n1
    e22_v = v2[m22].astype(np.int64) + n1

    u = np.concatenate([e11_u, e12_u, e22_u])
    v = np.concatenate([e11_v, e12_v, e22_v])
    kinds = np.concatenate(
        [
            np.full(e11_u.size, KIND_PEER11, dtype=np.uint8),
            np.full(e12_u.size, KIND_TRANSIT12, dtype=np.uint8),
            np.full(e22_u.size, KIND_PEER22, dtype=np.uint8),
        ]
    )
    roles = np.concatenate(
        [
            np.full(n1, ROLE_TIER1, dtype=np.uint8),
            np.full(n2, ROLE_TIER2, dtype=np.uint8),
        ]
    )
    cluster = _sample_cluster(rng, n1, spec.k1)
    return from_edges(n, u, v, kinds=kinds, roles=roles, cluster=cluster)


def reachable_set_dfs(graph: Graph, announcer: int) -> np.ndarray:
    """reachable_set by a depth-first search, one node at a time."""
    forwards = forwarder_mask(graph, announcer)
    cluster_mask = graph.cluster_mask
    seen = np.zeros(graph.node_count, dtype=np.bool_)
    seen[announcer] = True
    stack = [int(announcer)]
    cluster_merged = False
    while stack:
        node = stack.pop()
        if cluster_mask[node] and not cluster_merged:
            cluster_merged = True
            for member in graph.cluster:
                member = int(member)
                if not seen[member]:
                    seen[member] = True
                    stack.append(member)
        if not forwards[node]:
            continue
        for nbr in graph.neighbors(node):
            nbr = int(nbr)
            if not seen[nbr]:
                seen[nbr] = True
                stack.append(nbr)
    return seen


def check_graph(graph: Graph) -> None:
    """Structural invariants: CSR shape, symmetry, simplicity, cluster."""
    n = graph.node_count
    if graph.indptr.shape != (n + 1,) or graph.indptr[0] != 0:
        raise AssertionError("malformed indptr")
    if graph.indptr[-1] != graph.indices.size:
        raise AssertionError("indptr does not span indices")
    seen = set()
    for u in range(n):
        nbrs = graph.neighbors(u)
        if nbrs.size:
            if np.any(np.diff(nbrs) <= 0):
                raise AssertionError(f"neighbors of {u} not strictly ascending")
            if np.any(nbrs == u):
                raise AssertionError(f"self loop at {u}")
        for v in nbrs:
            seen.add((u, int(v)))
    for u, v in seen:
        if (v, u) not in seen:
            raise AssertionError(f"asymmetric edge {u}-{v}")
    if graph.cluster.size and (
        graph.cluster.min() < 0 or graph.cluster.max() >= n
    ):
        raise AssertionError("cluster node out of range")
    if graph.is_tiered:
        if graph.kinds.shape != graph.indices.shape:
            raise AssertionError("kinds misaligned with indices")
        kind_of = {(ROLE_TIER1, ROLE_TIER1): KIND_PEER11, (ROLE_TIER2, ROLE_TIER2): KIND_PEER22,
                   (ROLE_TIER1, ROLE_TIER2): KIND_TRANSIT12,
                   (ROLE_TIER2, ROLE_TIER1): KIND_TRANSIT12}
        for u in range(n):
            start, stop = graph.indptr[u], graph.indptr[u + 1]
            for v, kind in zip(graph.indices[start:stop], graph.kinds[start:stop]):
                if kind_of.get((int(graph.roles[u]), int(graph.roles[v]))) != kind:
                    raise AssertionError(f"kind {kind} of edge {u}-{v} disagrees with roles")
        if np.any(graph.roles[graph.cluster] != ROLE_TIER1):
            raise AssertionError("tiered cluster must lie in tier-1")
