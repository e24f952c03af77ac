"""Graph generators realizing the topology specs, plus reachability tools.

All generators are deterministic given (parameters, seed) and produce
simple undirected graphs in CSR form.  Tiered-core graphs additionally
carry per-node tier roles; flat graphs carry a uniform role.  Edge
kinds exist only in the edge-list file, named from the endpoints' roles.
The SDN cluster is stored on the graph so simulation and reachability
can treat it as a single super-node (informing any member informs all).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import IO, Iterable, Union

import numpy as np

from .errors import DomainError, UnreachableTopologyError
from .model import (
    ConfigModel,
    FullMesh,
    ModelParams,
    Poisson,
    TieredCore,
    TopologySpec,
)

ROLE_FLAT = 0
ROLE_TIER1 = 1
ROLE_TIER2 = 2

# edge-list kind of a tiered edge, indexed by role_u + role_v - 2: two
# tier-1 endpoints, one of each tier, two tier-2 endpoints
KIND_NAMES = ("peer11", "transit12", "peer22")

# largest node count N whose half-edge keys src * N + dst (see from_edges)
# fit in int64; import_graph rejects larger header counts
MAX_NODES = 3_037_000_499

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph in CSR form.

    ``indices[indptr[u]:indptr[u+1]]`` lists u's neighbors in ascending
    order.  ``roles``, the one record of the tiers, is ROLE_FLAT on every
    node of a flat graph and ROLE_TIER1 or ROLE_TIER2 on a tiered one.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    roles: np.ndarray
    cluster: np.ndarray

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2

    @property
    def is_tiered(self) -> bool:
        # from_edges gives a tiered graph nodes, none of them ROLE_FLAT
        return bool(self.roles.size) and int(self.roles[0]) != ROLE_FLAT

    @cached_property
    def cluster_mask(self) -> np.ndarray:
        """Read-only bool mask of the SDN cluster, built once per graph."""
        mask = np.zeros(self.node_count, dtype=np.bool_)
        mask[self.cluster] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def relay_mask(self) -> np.ndarray:
        """Read-only bool mask of the nodes that relay (every node of a
        flat graph, tier-1 of a tiered one), built once per graph."""
        mask = self.roles != ROLE_TIER2
        mask.flags.writeable = False
        return mask

    @cached_property
    def relay_views(self) -> list:
        """Per node, a memoryview of its CSR row if it relays
        (relay_mask), else (); built once."""
        row, bounds = memoryview(self.indices), self.indptr.tolist()
        views = [()] * self.node_count
        for v in self.relay_mask.nonzero()[0].tolist():
            views[v] = row[bounds[v] : bounds[v + 1]]
        return views

    @cached_property
    def cluster_neighborhood(self) -> np.ndarray:
        """Read-only neighborhood(self, cluster), built once per graph."""
        nbrs = neighborhood(self, self.cluster)
        nbrs.flags.writeable = False
        return nbrs


def from_edges(
    node_count: int,
    u: np.ndarray,
    v: np.ndarray,
    roles: np.ndarray | None = None,
    cluster: Iterable[int] = (),
) -> Graph:
    """Build a Graph from undirected edge endpoint arrays.

    The one check of the graph invariants: every Graph the package
    builds comes from here.  Rejects self loops, out-of-range endpoints
    and duplicate edges (in that order), then misaligned roles, an empty
    tiered graph, tiered roles outside tier-1 and tier-2, and cluster
    nodes that are out of range, repeated, or (on tiered graphs) outside
    tier-1, rather than repairing them; generators are responsible for
    producing simple edge sets.

    The half-edges are the keys src * N + dst of (u, v) and (v, u),
    sorted in place.  indptr comes from the degree counts of the
    endpoints, and dst from the sorted keys less each row's base src * N.
    Passing roles makes the graph tiered; the graph keeps no edge
    kinds, which export_graph names from the roles.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise DomainError("edge endpoint arrays differ in length")
    if (u == v).any():
        raise DomainError("self loops are not allowed")
    # viewed as unsigned, a negative endpoint is out of range too
    if u.size and max(u.view(np.uint64).max(), v.view(np.uint64).max()) >= node_count:
        raise DomainError("edge endpoint out of range")
    n = np.int64(node_count)
    m = u.size
    key = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=key[:m])
    key[:m] += v
    np.multiply(v, n, out=key[m:])
    key[m:] += u
    key.sort()
    # a repeated edge, in either orientation, repeats both its half-edges,
    # and sorting puts equal keys side by side
    if (key[1:] == key[:-1]).any():
        raise DomainError("duplicate edges are not allowed")
    tiered = roles is not None
    if roles is None:
        roles = np.full(node_count, ROLE_FLAT, dtype=np.uint8)
    roles = np.asarray(roles, dtype=np.uint8)
    if roles.shape != (node_count,):
        raise DomainError("roles array misaligned with nodes")
    if tiered:
        if not node_count:
            raise DomainError("a tiered graph needs at least one node")
        # tier-1 -> 0 and tier-2 -> 1; any other role wraps past 1
        if (roles - np.uint8(1) > 1).any():
            raise DomainError("tiered graph nodes must be tier-1 or tier-2")
    # the sorted keys run row by row, so degrees give the row bounds
    degrees = np.bincount(u, minlength=node_count) + np.bincount(v, minlength=node_count)
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    dst = key  # the keys are not needed past here
    dst -= (np.arange(node_count, dtype=np.int64) * n).repeat(degrees)
    members = sorted(int(c) for c in cluster)
    if members and (members[0] < 0 or members[-1] >= node_count):
        raise DomainError("cluster node out of range")
    if len(set(members)) < len(members):
        raise DomainError("repeated cluster node")
    cluster_arr = np.array(members, dtype=np.int64)
    if tiered and (roles.take(cluster_arr) != ROLE_TIER1).any():
        raise DomainError("tiered cluster must lie in tier-1")
    return Graph(
        node_count=node_count,
        indptr=indptr,
        indices=dst,
        roles=roles,
        cluster=cluster_arr,
    )


def _sample_cluster(rng: np.random.Generator, pool_size: int, k: int) -> np.ndarray:
    return np.sort(rng.choice(pool_size, size=k, replace=False).astype(np.int64))


def gen_full_mesh(params: ModelParams, seed: SeedLike) -> Graph:
    """Complete graph on n_total nodes with a uniformly sampled cluster."""
    rng = np.random.default_rng(seed)
    n = params.n_total
    u, v = np.triu_indices(n, k=1)
    cluster = _sample_cluster(rng, n, params.k_cluster)
    return from_edges(n, u.astype(np.int64), v.astype(np.int64), cluster=cluster)


# most pair uniforms _bernoulli_pairs draws at once: 128 KiB of draws is
# as fast as larger blocks at n = 300 and 3000, and raises peak memory less
PAIR_BLOCK = 1 << 14


@lru_cache(maxsize=16)
def _pair_tables(boxes: tuple) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray]:
    """Read-only row tables of the layers boxes, built once per boxes.

    A box (a, b, c, d) holds the pairs u < v with u in [a, b) and v in
    [c, d), one row per u.  row_u[r] is row r's u; row_start[r] is the
    index of its first pair and bounds[i] that of layer i's, each ending
    with the pair count; row_off[r] is row r's first v less row_start[r].
    """
    sizes = [b - a for a, b, _, _ in boxes]
    row_u = np.concatenate([np.arange(a, b, dtype=np.int64) for a, b, _, _ in boxes])
    first_v = np.maximum(row_u + 1, np.repeat([c for _, _, c, _ in boxes], sizes))
    row_start = np.zeros(row_u.size + 1, dtype=np.int64)
    np.cumsum(np.repeat([d for *_, d in boxes], sizes) - first_v, out=row_start[1:])
    bounds = tuple(row_start[list(accumulate([0] + sizes))].tolist())
    row_off = first_v - row_start[:-1]
    for table in (row_u, row_start, row_off):
        table.flags.writeable = False
    return row_u, row_start, bounds, row_off


def _bernoulli_pairs(
    rng: np.random.Generator, layers: list[tuple[float, tuple]]
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (u, v) of the pairs hit in each layer, layer by layer.

    A layer is (p, box), box as in _pair_tables; its pairs are ((u, v0),
    (u, v0 + 1), ...) row after row.  One uniform per pair, every
    layer's pairs in turn as consecutive segments of one stream, drawn
    PAIR_BLOCK at a time; each segment is compared against its own p.
    Consecutive draws from one Generator concatenate, so the block size
    never changes the pairs.  All hits map to endpoints through one
    table of row starts (_pair_tables): the hits are sorted, so one
    search of the row starts among them counts each row's hits.
    """
    row_u, row_start, bounds, row_off = _pair_tables(tuple(box for _, box in layers))
    hits = [np.empty(0, dtype=np.int64)]  # concatenate needs one array when there are no pairs
    for lo in range(0, bounds[-1], PAIR_BLOCK):
        block = rng.random(min(PAIR_BLOCK, bounds[-1] - lo))
        hi = lo + block.size
        is_hit = np.empty(block.size, dtype=np.bool_)
        for i, (p, _) in enumerate(layers):
            a, b = max(lo, bounds[i]) - lo, min(hi, bounds[i + 1]) - lo
            if a < b:
                np.less(block[a:b], p, out=is_hit[a:b])
        hit = is_hit.nonzero()[0]
        hit += lo
        hits.append(hit)
    hit = np.concatenate(hits)
    first_hit = np.searchsorted(hit, row_start)
    row_hits = first_hit[1:] - first_hit[:-1]
    # a hit's v is its index plus its row's first v minus its row's start
    return np.repeat(row_u, row_hits), hit + np.repeat(row_off, row_hits)


def gen_poisson(params: ModelParams, p_edge: float, seed: SeedLike) -> Graph:
    """Independent-edge graph: each pair connected with probability p_edge
    (see _bernoulli_pairs for the draw order)."""
    if not 0.0 <= p_edge <= 1.0:
        raise DomainError(f"p_edge must be in [0, 1], got {p_edge}")
    rng = np.random.default_rng(seed)
    n = params.n_total
    u, v = _bernoulli_pairs(rng, [(p_edge, (0, n, 0, n))])
    cluster = _sample_cluster(rng, n, params.k_cluster)
    return from_edges(n, u, v, cluster=cluster)


def gen_power_law_degrees(
    n: int, d_min: int, d_max: int, exponent: float, seed: SeedLike
) -> np.ndarray:
    """Sample n degrees from a truncated discrete power law.

    P(d) is proportional to d^(-exponent) on the integer support
    [d_min, d_max], sampled by inverse transform.  If the sampled sum is
    odd, one uniformly chosen entry below d_max is incremented to
    restore even stub parity (on single-point support, where no entry
    sits below d_max, one entry is bumped past it instead).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 <= d_min <= d_max:
        raise DomainError(f"need 1 <= d_min <= d_max, got [{d_min}, {d_max}]")
    if d_max >= n:
        raise DomainError(f"d_max must be below n, got {d_max} >= {n}")
    if not exponent > 1.0:
        raise DomainError(f"exponent must be > 1, got {exponent}")
    rng = np.random.default_rng(seed)
    support = np.arange(d_min, d_max + 1, dtype=np.float64)
    pmf = support ** (-float(exponent))
    total = pmf.sum()
    if not total > 0.0:
        raise DomainError(
            f"exponent {exponent} leaves no mass on [{d_min}, {d_max}]: "
            f"every d ** -exponent underflows to 0"
        )
    pmf /= total
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0  # guard against cumulative rounding
    draws = rng.random(n)
    degrees = d_min + np.searchsorted(cdf, draws, side="right")
    degrees = degrees.astype(np.int64)
    if int(degrees.sum()) % 2 == 1:
        below = np.flatnonzero(degrees < d_max)
        if below.size:
            degrees[below[rng.integers(0, below.size)]] += 1
        else:
            degrees[rng.integers(0, n)] += 1
    return degrees


def gen_config_model(
    params: ModelParams, degrees: np.ndarray, seed: SeedLike
) -> Graph:
    """Erased configuration model: uniform stub matching, then drop
    self loops and parallel edges.

    Erasure lowers realized degrees below the prescribed sequence, so
    callers comparing against closed forms should read the realized
    stats back from the returned graph (model.degree_stats(graph.degrees)).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = params.n_total
    if degrees.shape != (n,):
        raise DomainError(f"degree sequence length {degrees.size} != n_total {n}")
    if np.any(degrees < 1):
        raise DomainError("every degree must be >= 1")
    if int(degrees.max()) >= n:
        raise DomainError("every degree must be below the node count")
    if int(degrees.sum()) % 2 != 0:
        raise DomainError("degree sum must be even; apply a parity fix first")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    stubs = rng.permutation(stubs)
    a = stubs[0::2]
    b = stubs[1::2]
    keep = a != b
    a, b = a[keep], b[keep]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    pair_ids = np.unique(lo * np.int64(n) + hi)
    u = (pair_ids // n).astype(np.int64)
    v = (pair_ids % n).astype(np.int64)
    cluster = _sample_cluster(rng, n, params.k_cluster)
    return from_edges(n, u, v, cluster=cluster)


def gen_tiered_core(spec: TieredCore, seed: SeedLike) -> Graph:
    """Two-tier core graph with labeled layers.

    Nodes [0, n1) are tier-1, [n1, n1+n2) are tier-2.  Three
    independent Bernoulli layers, drawn in this order as segments of one
    uniform stream (see _bernoulli_pairs): tier-1 peering (p11, the
    tier-1 triangle), transit (p12, each tier-1 node's row over all of
    tier-2), tier-2 peering (p22, the tier-2 triangle).  The cluster is
    k1 nodes uniform over tier-1.
    """
    rng = np.random.default_rng(seed)
    n1, n2 = spec.n1, spec.n2
    u, v = _bernoulli_pairs(rng, [
        (spec.p11, (0, n1, 0, n1)),
        (spec.p12, (0, n1, n1, n1 + n2)),
        (spec.p22, (n1, n1 + n2, n1, n1 + n2)),
    ])
    roles = np.full(n1 + n2, ROLE_TIER2, dtype=np.uint8)
    roles[:n1] = ROLE_TIER1
    cluster = _sample_cluster(rng, n1, spec.k1)
    return from_edges(n1 + n2, u, v, roles=roles, cluster=cluster)


def gen_graph(spec: TopologySpec, seed: SeedLike) -> Graph:
    """Dispatch a topology spec to its generator."""
    if isinstance(spec, FullMesh):
        return gen_full_mesh(spec.params, seed)
    if isinstance(spec, Poisson):
        return gen_poisson(spec.params, spec.p_edge, seed)
    if isinstance(spec, ConfigModel):
        if spec.degree_seq is None:
            raise DomainError(
                "config-model graph generation needs a concrete degree sequence"
            )
        return gen_config_model(
            spec.params, np.asarray(spec.degree_seq, dtype=np.int64), seed
        )
    if isinstance(spec, TieredCore):
        return gen_tiered_core(spec, seed)
    raise DomainError(f"unknown topology spec {type(spec).__name__}")


def neighborhood(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """The adjacency lists of nodes, concatenated in the order given.

    One gather over the CSR arrays; a node adjacent to several of the
    given nodes appears once per such neighbor.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    starts = graph.indptr[nodes]
    lengths = graph.indptr[nodes + 1] - starts
    # entry e of list i sits at e - (first output slot of list i) + starts[i]
    shift = np.repeat(np.cumsum(lengths) - lengths - starts, lengths)
    return graph.indices[np.arange(shift.size) - shift]


def check_in_range(graph: Graph, announcer: int) -> int:
    """The announcer as an int node id; DomainError unless it is an
    integer (Python or numpy) with 0 <= it < N."""
    try:
        announcer = operator.index(announcer)
    except TypeError:
        raise DomainError(f"announcer must be an integer node id, got {announcer!r}") from None
    if not 0 <= announcer < graph.node_count:
        raise DomainError(f"announcer {announcer} out of range")
    return announcer


def reachable_set(graph: Graph, announcer: int) -> np.ndarray:
    """Nodes reachable from the announcer along eligible paths.

    The SDN cluster acts as a super-node: reaching any member reaches
    all members.  Only relaying nodes and the announcer extend paths;
    another node is reachable when one of them neighbors it (one final
    hop).  Runs a level-synchronous breadth-first search over the CSR
    arrays, and stops as soon as every node is seen.
    """
    announcer = check_in_range(graph, announcer)
    forwards = graph.relay_mask.copy()
    forwards[announcer] = True  # the announcer relays its own announcement
    cluster_mask = graph.cluster_mask
    unseen = np.ones(graph.node_count, dtype=np.bool_)
    unseen[announcer] = False
    left = graph.node_count - 1
    # new holds the next level; its bits of earlier levels are all seen,
    # so masking by unseen clears them too
    new = np.zeros(graph.node_count, dtype=np.bool_)
    level = np.array([announcer], dtype=np.int64)
    cluster_merged = False
    while left and level.size:
        if not cluster_merged and cluster_mask[level].any():
            cluster_merged = True
            members = graph.cluster[unseen[graph.cluster]]
            unseen[members] = False
            left -= members.size
            level = np.concatenate((level, members))
        new[neighborhood(graph, level[forwards[level]])] = True
        new &= unseen
        unseen ^= new
        level = new.nonzero()[0]
        left -= level.size
    return ~unseen


@dataclass(frozen=True, eq=False)
class ReachableDraw:
    """A (graph, announcer) pair that covers the network, plus retry info."""

    graph: Graph
    announcer: int
    attempts: int       # draws consumed, including the successful one

    @property
    def failures(self) -> int:
        """Draws rejected for unreachable nodes: all but the last."""
        return self.attempts - 1


def draw_announcer(rng: np.random.Generator, graph: Graph) -> int:
    """One uniform announcer: over tier-2 nodes on tiered graphs, else all nodes."""
    if graph.is_tiered:
        tier2 = np.flatnonzero(graph.roles == ROLE_TIER2)
        if not tier2.size:
            raise DomainError("a tiered graph with no tier-2 node has no announcer")
        return int(tier2[rng.integers(0, tier2.size)])
    return int(rng.integers(0, graph.node_count))


def draw_attempt(spec: TopologySpec, seed: int, attempt: int) -> tuple[Graph, int]:
    """Attempt `attempt` of the draw stream of seed: the graph, then a
    uniform announcer (draw_announcer), from one Generator seeded by
    (seed, attempt)."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), attempt)))
    graph = gen_graph(spec, rng)
    return graph, draw_announcer(rng, graph)


def ensure_reachable(
    spec: TopologySpec, seed: int, max_retries: int = 100
) -> ReachableDraw:
    """Draw (graph, announcer) pairs until every node is reachable.

    Tries attempts 0, 1, ... of draw_attempt, so the result is
    deterministic given the arguments.  Raises
    UnreachableTopologyError after max_retries failures.  The attempt
    count is returned so callers can record the rejection rate of the
    underlying ensemble.
    """
    last_reached = 0
    node_count = 0
    for attempt in range(max_retries):
        graph, chosen = draw_attempt(spec, seed, attempt)
        reached = reachable_set(graph, chosen)
        if reached.all():
            return ReachableDraw(graph=graph, announcer=chosen, attempts=attempt + 1)
        last_reached = int(reached.sum())
        node_count = graph.node_count
    raise UnreachableTopologyError(
        f"no reachable draw within {max_retries} attempts (seed {seed}); "
        f"last draw reached {last_reached} of {node_count} nodes"
    )


def export_graph(graph: Graph, dest: Union[str, IO[str]]) -> None:
    """Write the edge-list text format.

    Line 1: ``n <node_count>``.  One ``u v`` line per edge, each edge
    once in CSR order (from its smaller endpoint); on tiered graphs the
    line adds the kind named from the endpoints' roles (KIND_NAMES), and
    a transit line lists its tier-1 endpoint first.  Final line:
    ``cluster u1 u2 ...``.
    """
    src = np.arange(graph.node_count).repeat(graph.degrees)
    keep = src < graph.indices
    u, v = src[keep], graph.indices[keep]
    kinds = [""] * u.size
    if graph.is_tiered:
        role_u, role_v = graph.roles[u], graph.roles[v]
        first = np.where(role_u <= role_v, u, v)
        u, v = first, u + v - first
        kinds = [" " + KIND_NAMES[k] for k in (role_u + role_v - 2).tolist()]
    own = isinstance(dest, str)
    fh = open(dest, "w", encoding="ascii") if own else dest
    try:
        fh.write(f"n {graph.node_count}\n")
        fh.writelines(f"{a} {b}{kind}\n" for a, b, kind in zip(u.tolist(), v.tolist(), kinds))
        fh.write("cluster " + " ".join(str(int(c)) for c in graph.cluster) + "\n")
    finally:
        if own:
            fh.close()


def _ints(tokens: list[str], line: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise DomainError(f"non-integer token in line: {line.rstrip()}") from None


def import_graph(src: Union[str, IO[str]]) -> Graph:
    """Read the edge-list text format written by export_graph.

    Roles are reconstructed from edge kinds: peer11 endpoints and the
    first endpoint of a transit12 edge are tier-1; peer22 endpoints and
    the second transit12 endpoint are tier-2.  A node given both tiers is
    a DomainError, so every kind agrees with the roles the graph keeps.
    So is a second cluster line.  Files without kinds load as flat
    graphs.  Nodes no kind touches default to tier-2.
    """
    own = isinstance(src, str)
    fh = open(src, "r", encoding="ascii") if own else src
    try:
        line = fh.readline()
        header = line.split()
        if len(header) != 2 or header[0] != "n":
            raise DomainError("expected header line 'n <count>'")
        (n,) = _ints(header[1:], line)
        if n < 0:
            raise DomainError(f"negative node count {n}")
        if n > MAX_NODES:
            raise DomainError(f"node count {n} exceeds {MAX_NODES}")
        us: list[int] = []
        vs: list[int] = []
        labeled = 0
        tier1: set[int] = set()
        tier2: set[int] = set()
        cluster: list[int] | None = None
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "cluster":
                if cluster is not None:
                    raise DomainError("second cluster line")
                cluster = _ints(parts[1:], line)
                continue
            if len(parts) not in (2, 3):
                raise DomainError(f"malformed edge line: {line.rstrip()}")
            a, b = _ints(parts[:2], line)
            us.append(a)
            vs.append(b)
            if len(parts) == 3:
                kind = parts[2]
                if kind not in KIND_NAMES:
                    raise DomainError(f"unknown edge kind {kind!r}")
                labeled += 1
                if kind == "peer11":
                    tier1.update((a, b))
                elif kind == "peer22":
                    tier2.update((a, b))
                else:
                    tier1.add(a)
                    tier2.add(b)
        if cluster is None:
            raise DomainError("missing cluster line")
        if 0 < labeled < len(us):
            raise DomainError("mixed labeled and unlabeled edges")
        if tier1 & tier2:
            raise DomainError(f"conflicting roles for nodes {sorted(tier1 & tier2)}")
        u_arr = np.asarray(us, dtype=np.int64)
        v_arr = np.asarray(vs, dtype=np.int64)
        try:
            roles = None
            if labeled:
                roles = np.full(n, ROLE_TIER2, dtype=np.uint8)
                # an endpoint out of range is left for from_edges to reject
                roles[[t for t in tier1 if 0 <= t < n]] = ROLE_TIER1
            return from_edges(n, u_arr, v_arr, roles=roles, cluster=cluster)
        except MemoryError:
            raise DomainError(f"node count {n} does not fit in memory") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"edge lists are ASCII text: {exc}") from None
    finally:
        if own:
            fh.close()
