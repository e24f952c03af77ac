"""Row-wise Poisson generation and depth-first reachability, the
reference for the tests.

The package draws Poisson pair uniforms in blocks of whole rows and
finds reachable nodes by a level-synchronous breadth-first search over
the CSR arrays.  The functions here do the same work one row and one
node at a time, so the equivalence tests compare two implementations:
graphs bit for bit, reachable sets exactly.
"""

from __future__ import annotations

import numpy as np

from bgpconv.graphs import (
    Graph,
    _sample_cluster,
    as_generator,
    forwarder_mask,
    from_edges,
)
from bgpconv.model import ModelParams


def gen_poisson_rowwise(params: ModelParams, p_edge: float, seed) -> Graph:
    """gen_poisson with one Generator.random call per row of pairs."""
    rng = as_generator(seed)
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
