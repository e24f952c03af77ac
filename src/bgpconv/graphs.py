"""Graph generators realizing the topology specs, plus reachability tools.

All generators are deterministic given (parameters, seed) and produce
simple undirected graphs in CSR form.  Tiered-core graphs additionally
carry per-edge kind labels and per-node tier roles; flat graphs carry a
uniform role.  The SDN cluster is stored on the graph so simulation and
reachability can treat it as a single super-node (informing any member
informs all).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
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

log = logging.getLogger(__name__)

ROLE_FLAT = 0
ROLE_TIER1 = 1
ROLE_TIER2 = 2

KIND_PEER11 = 1
KIND_TRANSIT12 = 2
KIND_PEER22 = 3
KIND_NAMES = {KIND_PEER11: "peer11", KIND_TRANSIT12: "transit12", KIND_PEER22: "peer22"}
KIND_CODES = {name: code for code, name in KIND_NAMES.items()}

# largest node count N whose half-edge keys src * N + dst (see from_edges)
# fit in int64; import_graph rejects larger header counts
MAX_NODES = 3_037_000_499

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph in CSR form.

    ``indices[indptr[u]:indptr[u+1]]`` lists u's neighbors in ascending
    order.  ``kinds`` (tiered graphs only) labels each directed
    half-edge in the same alignment as ``indices``.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    roles: np.ndarray
    cluster: np.ndarray
    kinds: np.ndarray | None = None

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
        return self.kinds is not None

    @cached_property
    def cluster_mask(self) -> np.ndarray:
        """Read-only bool mask of the SDN cluster, built once per graph."""
        mask = np.zeros(self.node_count, dtype=np.bool_)
        mask[self.cluster] = True
        mask.flags.writeable = False
        return mask

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
    kinds: np.ndarray | None = None,
    roles: np.ndarray | None = None,
    cluster: Iterable[int] = (),
) -> Graph:
    """Build a Graph from undirected edge endpoint arrays.

    The one check of the graph invariants: every Graph the package
    builds comes from here.  Rejects self loops, duplicate edges,
    out-of-range endpoints, misaligned kinds, and cluster nodes that are
    out of range, repeated, or (on tiered graphs) outside tier-1, rather
    than repairing them; generators are responsible for producing simple
    edge sets.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise DomainError("edge endpoint arrays differ in length")
    if np.any(u == v):
        raise DomainError("self loops are not allowed")
    if u.size and (
        int(min(u.min(), v.min())) < 0 or int(max(u.max(), v.max())) >= node_count
    ):
        raise DomainError("edge endpoint out of range")
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    # half-edges in (src, dst) order, sorted by the one key src * N + dst
    key = src * np.int64(node_count) + dst
    order = key.argsort()
    key = key[order]
    # a repeated edge, in either orientation, repeats both its half-edges,
    # and sorting puts equal keys side by side
    if np.any(key[1:] == key[:-1]):
        raise DomainError("duplicate edges are not allowed")
    src = src[order]
    dst = dst[order]
    half_kinds = None
    if kinds is not None:
        kinds = np.asarray(kinds, dtype=np.uint8)
        if kinds.shape != u.shape:
            raise DomainError("kinds array misaligned with edges")
        half_kinds = np.concatenate([kinds, kinds])[order]
    counts = np.bincount(src, minlength=node_count)
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if roles is None:
        roles = np.full(node_count, ROLE_FLAT, dtype=np.uint8)
    roles = np.asarray(roles, dtype=np.uint8)
    cluster_arr = np.array(sorted(int(c) for c in cluster), dtype=np.int64)
    if cluster_arr.size and (cluster_arr[0] < 0 or cluster_arr[-1] >= node_count):
        raise DomainError("cluster node out of range")
    if np.any(np.diff(cluster_arr) == 0):
        raise DomainError("repeated cluster node")
    if kinds is not None and np.any(roles[cluster_arr] != ROLE_TIER1):
        raise DomainError("tiered cluster must lie in tier-1")
    return Graph(
        node_count=node_count,
        indptr=indptr,
        indices=dst,
        roles=roles,
        cluster=cluster_arr,
        kinds=half_kinds,
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


def _bernoulli_pairs(
    rng: np.random.Generator, n: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (u, v), u < v, of the n-node pairs hit with probability p.

    One uniform per pair in row-major pair order ((0, 1), (0, 2), ...,
    (1, 2), ...), drawn PAIR_BLOCK at a time; consecutive draws from one
    Generator concatenate, so the block size never changes the pairs.
    """
    # row_start[u] is the index of pair (u, u + 1); row_start[n - 1] is
    # the pair count
    row_start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=row_start[1:])
    total = int(row_start[-1])
    hits = [np.flatnonzero(rng.random(min(PAIR_BLOCK, total - lo)) < p) + lo
            for lo in range(0, total, PAIR_BLOCK)]
    hit = np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
    row = np.searchsorted(row_start, hit, side="right") - 1
    return row, hit - row_start[row] + row + 1


def gen_poisson(params: ModelParams, p_edge: float, seed: SeedLike) -> Graph:
    """Independent-edge graph: each pair connected with probability p_edge
    (see _bernoulli_pairs for the draw order)."""
    if not 0.0 <= p_edge <= 1.0:
        raise DomainError(f"p_edge must be in [0, 1], got {p_edge}")
    rng = np.random.default_rng(seed)
    n = params.n_total
    u, v = _bernoulli_pairs(rng, n, p_edge)
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
    pmf /= pmf.sum()
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
    independent Bernoulli layers: tier-1 peering (p11), transit (p12),
    tier-2 peering (p22).  The cluster is k1 nodes uniform over tier-1.
    """
    rng = np.random.default_rng(seed)
    n1, n2 = spec.n1, spec.n2
    n = n1 + n2

    e11_u, e11_v = _bernoulli_pairs(rng, n1, spec.p11)

    m12 = rng.random((n1, n2)) < spec.p12
    t1, t2 = np.nonzero(m12)
    e12_u = t1.astype(np.int64)
    e12_v = t2.astype(np.int64) + n1

    e22_u, e22_v = _bernoulli_pairs(rng, n2, spec.p22)
    e22_u += n1
    e22_v += n1

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


def forwarder_mask(graph: Graph, announcer: int) -> np.ndarray:
    """Which informed nodes re-forward updates.

    Flat graphs: every node.  Tiered graphs: tier-1 nodes always, plus
    the announcing tier-2 node (its peering and transit edges carry its
    own announcement); other tier-2 nodes receive but do not forward.
    """
    if not graph.is_tiered:
        return np.ones(graph.node_count, dtype=np.bool_)
    mask = graph.roles == ROLE_TIER1
    mask = mask.copy()
    mask[announcer] = True
    return mask


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
    """The announcer as an int node id; DomainError unless 0 <= it < N."""
    announcer = int(announcer)
    if not 0 <= announcer < graph.node_count:
        raise DomainError(f"announcer {announcer} out of range")
    return announcer


def reachable_set(graph: Graph, announcer: int) -> np.ndarray:
    """Nodes reachable from the announcer along eligible paths.

    The SDN cluster acts as a super-node: reaching any member reaches
    all members.  Only forwarders extend paths; a non-forwarding node is
    reachable when some forwarder neighbors it (one final hop).  Runs a
    level-synchronous breadth-first search over the CSR arrays.
    """
    announcer = check_in_range(graph, announcer)
    forwards = forwarder_mask(graph, announcer)
    cluster_mask = graph.cluster_mask
    seen = np.zeros(graph.node_count, dtype=np.bool_)
    seen[announcer] = True
    # new holds the next level; its bits of earlier levels are all seen,
    # so masking by ~seen clears them too
    new = np.zeros(graph.node_count, dtype=np.bool_)
    level = np.array([announcer], dtype=np.int64)
    cluster_merged = False
    while level.size:
        if not cluster_merged and cluster_mask[level].any():
            cluster_merged = True
            members = graph.cluster[~seen[graph.cluster]]
            seen[members] = True
            level = np.concatenate((level, members))
        new[neighborhood(graph, level[forwards[level]])] = True
        new &= ~seen
        seen |= new
        level = new.nonzero()[0]
    return seen


@dataclass(frozen=True, eq=False)
class ReachableDraw:
    """A (graph, announcer) pair that covers the network, plus retry info."""

    graph: Graph
    announcer: int
    attempts: int       # draws consumed, including the successful one
    failures: int       # draws rejected for unreachable nodes


def draw_announcer(rng: np.random.Generator, graph: Graph) -> int:
    """One uniform announcer: over tier-2 nodes on tiered graphs, else all nodes."""
    if graph.is_tiered:
        tier2 = np.flatnonzero(graph.roles == ROLE_TIER2)
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
    UnreachableTopologyError after max_retries failures.  The failure
    count is returned (and logged) so callers can record the rejection
    rate of the underlying ensemble.
    """
    failures = 0
    last_reached = 0
    node_count = 0
    for attempt in range(max_retries):
        graph, chosen = draw_attempt(spec, seed, attempt)
        reached = reachable_set(graph, chosen)
        if reached.all():
            if failures:
                log.debug(
                    "ensure_reachable: %d rejected draws before success", failures
                )
            return ReachableDraw(
                graph=graph, announcer=chosen, attempts=attempt + 1, failures=failures
            )
        failures += 1
        last_reached = int(reached.sum())
        node_count = graph.node_count
    raise UnreachableTopologyError(
        f"no reachable draw within {max_retries} attempts (seed {seed}); "
        f"last draw reached {last_reached} of {node_count} nodes"
    )


def export_graph(graph: Graph, dest: Union[str, IO[str]]) -> None:
    """Write the edge-list text format.

    Line 1: ``n <node_count>``.  One ``u v`` line per edge (with a kind
    name appended on tiered graphs; transit edges list the tier-1
    endpoint first).  Final line: ``cluster u1 u2 ...``.
    """
    own = isinstance(dest, str)
    fh = open(dest, "w", encoding="ascii") if own else dest
    try:
        fh.write(f"n {graph.node_count}\n")
        for u in range(graph.node_count):
            start, end = graph.indptr[u], graph.indptr[u + 1]
            for pos in range(start, end):
                v = int(graph.indices[pos])
                if v <= u:
                    continue  # each undirected edge once
                if graph.kinds is None:
                    fh.write(f"{u} {v}\n")
                else:
                    kind = int(graph.kinds[pos])
                    a, b = u, v
                    if kind == KIND_TRANSIT12 and graph.roles[u] != ROLE_TIER1:
                        a, b = v, u
                    fh.write(f"{a} {b} {KIND_NAMES[kind]}\n")
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
    the second transit12 endpoint are tier-2.  Files without kinds load
    as flat graphs.  Nodes no kind touches default to tier-2.
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
        kind_list: list[int] = []
        tier1: set[int] = set()
        tier2: set[int] = set()
        cluster: list[int] = []
        saw_cluster = False
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "cluster":
                cluster = _ints(parts[1:], line)
                saw_cluster = True
                continue
            if len(parts) not in (2, 3):
                raise DomainError(f"malformed edge line: {line.rstrip()}")
            a, b = _ints(parts[:2], line)
            us.append(a)
            vs.append(b)
            if len(parts) == 3:
                kind = KIND_CODES.get(parts[2])
                if kind is None:
                    raise DomainError(f"unknown edge kind {parts[2]!r}")
                kind_list.append(kind)
                if kind == KIND_PEER11:
                    tier1.update((a, b))
                elif kind == KIND_PEER22:
                    tier2.update((a, b))
                else:
                    tier1.add(a)
                    tier2.add(b)
            else:
                kind_list.append(0)
        if not saw_cluster:
            raise DomainError("missing cluster line")
        tiered = any(k != 0 for k in kind_list)
        if tiered and 0 in kind_list:
            raise DomainError("mixed labeled and unlabeled edges")
        if tier1 & tier2:
            raise DomainError(f"conflicting roles for nodes {sorted(tier1 & tier2)}")
        u_arr = np.asarray(us, dtype=np.int64)
        v_arr = np.asarray(vs, dtype=np.int64)
        try:
            if tiered:
                roles = np.full(n, ROLE_TIER2, dtype=np.uint8)
                roles[sorted(tier1)] = ROLE_TIER1
                kinds = np.asarray(kind_list, dtype=np.uint8)
                return from_edges(n, u_arr, v_arr, kinds=kinds, roles=roles, cluster=cluster)
            return from_edges(n, u_arr, v_arr, cluster=cluster)
        except MemoryError:
            raise DomainError(f"node count {n} does not fit in memory") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"edge lists are ASCII text: {exc}") from None
    finally:
        if own:
            fh.close()
