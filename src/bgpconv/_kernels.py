"""Event-loop kernels behind the dissemination simulator.

Process semantics: every uninformed node adjacent to at least one
informed forwarding node holds exactly one Exp(lambda) clock; the
earliest clock fires and informs its node, and surviving clocks are
redrawn fresh next step (equivalent in distribution, by memorylessness,
to letting them run).  Informing any SDN cluster member informs the
whole cluster at the same instant.  Time to the next event is therefore
Exp(lambda * frontier_size).

Two interchangeable backends produce bit-identical results: a compiled
kernel (numba, the default whenever numba imports) and a numpy
fallback.  Identity holds because both read the same stream of uniforms
in ascending node-id order within each step and pick each step's winner
by the same rule, and one function turns the winners into times.
Selection is via the BGPCONV_BACKEND environment variable ("numba",
"numpy", or "auto") or an explicit argument taking the same names.

Uniforms in, winners out, one converter.  A step's winner is the first
smallest uniform of its slice: the delay -log1p(-u)/lambda rises with u,
so that is the earliest clock of the process, and comparing rounded
delays could only disagree on a rounding tie.  A kernel records each
step's winner node and uniform; _write_times alone computes delays (one
_exponentials batch) and sums them in step order.

Kernel contract: run_dissemination informs the origin and owns the
run's one Generator.  The state is one byte per node: 0 informed, 1
uninformed, 2 on the frontier (the uninformed nodes that the announcer
or some informed relaying node neighbors).  Graph.relay_mask says who relays: every node
of a flat graph, tier-1 of a tiered one.  A tier-2 announcer relays its
own announcement, but only once: run_dissemination lights the origin's
neighbors before the call, and an informed node never wins a step, so
neither kernel needs it in the mask.  Informed nodes never become
uninformed, so after a relaying node is informed, lighting its
uninformed neighbors sets the frontier exactly.  Every SDN cluster
member relays (a tiered cluster lies in tier-1), so the merged
cluster's neighborhood is one precomputed gather.  A kernel takes the
graph, (state, n_informed), its draw buffer and the length-n nodes and
wins arrays, runs only the event loop, writes step k's winner and
uniform to nodes[k] and wins[k], and returns (status, draws used,
n_informed, steps) with the state as above.  STATUS_OK: every node is
informed.  STATUS_STUCK: the frontier is empty.

Draw contract: run_dissemination draws one buffer of 9n uniforms per
run, and both kernels read it in place.  A step reads one uniform per
frontier node, and the announcer is never on the frontier, so a step
reads fewer than n draws.  When a step runs past the end of the buffer,
_refill moves the unused draws to the front and fills the rest from the
same Generator; the buffer holds at least n draws, so one refill
completes the step.  Consecutive draws from one Generator concatenate,
so no uniform, winner or time depends on the buffer's size.

The numba kernel reads the graph as its CSR arrays and relay_mask.  It
takes the steps recorded so far and returns the new count.  When the
buffer runs short it returns STATUS_REFILL, where pos is where the
unfinished step began and the state is as it was there;
run_dissemination refills the buffer from pos and calls it again.

The numpy kernel runs a whole dissemination in one call.  It reads the
graph as Graph.relay_views: a memoryview of each relaying node's CSR
row, () for any other node.  It takes the buffer and the Generator's
random method as fill, and refills the buffer itself when a step runs
short.  The frontier is an ascending Python list of node ids (a step's
draw order): a winner is popped from it, a newly lit node goes in by
bisection, and the state is read and written behind a memoryview, so
no step scans or copies a mask.  Once a step finds the frontier holding
every uninformed node, it stays so (informing a node only removes it,
and on a cluster hit the cluster's other members), so such a step skips
the neighbor scan.  A cluster hit, once per run at most, updates the
state by numpy gathers and rebuilds the list from it.
"""

from __future__ import annotations

import math
import os
from bisect import insort

import numpy as np

from .errors import DomainError, UnreachableTopologyError
from .graphs import Graph, check_in_range

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    numba = None
    HAS_NUMBA = False

ENV_BACKEND = "BGPCONV_BACKEND"

STATUS_OK = 0
STATUS_REFILL = -1
STATUS_STUCK = -2


def _backend_name(raw: str) -> str:
    """The backend a name selects: "numba" or "numpy", and "auto" (or
    empty) prefers numba.  Reads HAS_NUMBA at call time."""
    name = raw.strip().lower() or "auto"
    if name == "auto":
        return "numba" if HAS_NUMBA else "numpy"
    if name not in ("numba", "numpy"):
        raise DomainError(f"unknown backend {raw!r}; use numba, numpy, or auto")
    if name == "numba" and not HAS_NUMBA:
        raise DomainError("numba backend requested but numba is not importable")
    return name


def active_backend() -> str:
    """Backend chosen by BGPCONV_BACKEND (unset or 'auto' prefers numba)."""
    return _backend_name(os.environ.get(ENV_BACKEND, "auto"))


def _scalar_kernel(
    indptr, indices, relay_mask, is_cluster, cluster, cluster_nbrs,
    state, n_informed, steps, draws, nodes, wins,
):
    n = state.shape[0]
    pos = 0
    while n_informed < n:
        step_start = pos
        best = 2.0  # above every uniform, so a step's first draw is taken
        best_node = -1
        for u in range(n):
            if state[u] != 2:
                continue
            if pos >= draws.shape[0]:
                return (STATUS_REFILL, step_start, n_informed, steps)
            d = draws[pos]
            pos += 1
            if d < best:  # strict: earliest node id wins ties
                best = d
                best_node = u
        if best_node < 0:
            return (STATUS_STUCK, pos, n_informed, steps)
        nodes[steps] = best_node
        wins[steps] = best
        steps += 1
        state[best_node] = 0
        n_informed += 1
        if relay_mask[best_node]:
            for e in range(indptr[best_node], indptr[best_node + 1]):
                v = indices[e]
                if state[v] == 1:
                    state[v] = 2
        if is_cluster[best_node]:
            for m in cluster:
                if state[m] != 0:
                    state[m] = 0
                    n_informed += 1
            for v in cluster_nbrs:
                if state[v] == 1:
                    state[v] = 2
    return (STATUS_OK, pos, n_informed, steps)


if HAS_NUMBA:
    _scalar_kernel_jit = numba.njit(cache=True, nogil=True)(_scalar_kernel)
else:  # pragma: no cover - exercised only without numba installed
    _scalar_kernel_jit = None


def _vector_kernel(
    relays, is_cluster, cluster, cluster_nbrs, state, n_informed, draws, fill, nodes, wins,
):
    n = state.shape[0]
    rest = (state == 2).nonzero()[0].tolist()
    st, is_cluster = memoryview(state), is_cluster.tobytes()
    node_out, win_out = memoryview(nodes), memoryview(wins)
    steps = 0
    left = n - n_informed
    used, pos, n_draws = 0, 0, draws.shape[0]
    # the frontier is empty once every node is informed, so an empty
    # frontier ends every run
    while rest:
        size = len(rest)
        end = pos + size
        if end > n_draws:
            _refill(draws, pos, fill)
            used += pos
            pos, end = 0, size
        u = draws[pos:end]
        pos = end
        j = u.argmin()  # first occurrence: earliest node id wins ties
        win_out[steps] = u.item(j)
        node = rest.pop(j)
        node_out[steps] = node
        steps += 1
        st[node] = 0
        left -= 1
        # a frontier that held every uninformed node gains none
        if size <= left:
            for v in relays[node]:
                if st[v] == 1:
                    st[v] = 2
                    insort(rest, v)
        if is_cluster[node]:
            new = cluster[state[cluster] != 0]
            state[new] = 0
            state[cluster_nbrs[state[cluster_nbrs] == 1]] = 2
            rest = (state == 2).nonzero()[0].tolist()
            left -= new.size
    status = STATUS_STUCK if left else STATUS_OK
    return (status, used + pos, n - left, steps)


def _refill(draws, pos, fill):
    """Move the unused draws[pos:] to the front of draws and fill the
    last pos in place with fill(out=...), the next uniforms of the
    stream.  pos > 0: a step that runs short of a buffer of at least n
    draws began past its start."""
    draws[:-pos] = draws[pos:]
    fill(out=draws[-pos:])


def _write_times(nodes, wins, is_cluster, cluster, inv_lam, out_times):
    """Write the event times of a run's winners into out_times.

    nodes and wins hold each step's winner and its uniform, in step
    order; wins is overwritten with the times.  Winner k's time is the
    sequential sum of the first k + 1 delays.  The cluster members take
    the time of the first winner in the cluster: at most one winner can
    lie in it, and none does when the announcer is a member.
    """
    times = _exponentials(wins, inv_lam)
    np.add.accumulate(times, out=times)  # sequential: t += delay, winner by winner
    out_times.put(nodes, times)
    hit = is_cluster[nodes]
    if hit.any():
        out_times[cluster] = times[hit.argmax()]


def _exponentials(u: np.ndarray, inv_lam: float) -> np.ndarray:
    """Delays -log1p(-u) * inv_lam of the uniforms u, in place.

    The one conversion from uniforms to delays, in place, so a buffer
    costs one allocation, not three.  At inv_lam 1 the product is exact.
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    u *= inv_lam
    return u


def unit_exponential_buffer(rng: np.random.Generator, length: int) -> np.ndarray:
    """The next length Exp(1) samples of rng, by inverse transform.

    One uniform per sample, so consecutive calls on one Generator
    concatenate to exactly the samples of a single longer call.
    """
    return _exponentials(rng.random(length), 1.0)


def run_dissemination(
    graph: Graph,
    announcer: int,
    inv_lam: float,
    seed,
    backend: str | None = None,
    policy: str = "strict",
) -> tuple[np.ndarray, int]:
    """One dissemination over graph; returns (informed times, draws used).

    seed (int or SeedSequence) opens the run's one Generator.  The
    announcer, and its SDN cluster when it belongs to one, are informed
    at time 0 here; the backend kernel then runs the event loop on one
    buffer of 9n uniforms and records each step's winner, the first
    smallest uniform of its slice.  A step reads fewer than n draws, so
    when one runs past the end of the buffer, one _refill (the unused
    draws moved to the front, the rest filled in place from the same
    Generator) completes it, and results never depend on the buffer's
    size.  The numba kernel is called again after each refill; the
    numpy kernel refills and runs the whole loop in one call.
    _write_times then turns the winners into times, the same for both
    kernels.

    backend is "numba", "numpy" or "auto"; None reads BGPCONV_BACKEND.
    An announcer outside [0, N), or an inv_lam that is not finite and
    positive, is a DomainError under either policy, so every informed
    time is >= 0 and the run's convergence time is the largest entry.
    Nodes the announcement cannot reach raise under the "strict" policy;
    under "reachable-only" the run covers what it can and leaves those
    entries at -1.
    """
    name = active_backend() if backend is None else _backend_name(backend)
    if policy not in ("strict", "reachable-only"):
        raise DomainError(f"unknown policy {policy!r}; use strict or reachable-only")
    inv_lam = float(inv_lam)
    if not 0.0 < inv_lam < math.inf:
        raise DomainError(f"1/lam must be finite and positive, got {inv_lam!r}")

    announcer = check_in_range(graph, announcer)
    is_cluster = graph.cluster_mask
    cluster_nbrs = graph.cluster_neighborhood
    n = graph.node_count
    # one byte per node: 0 informed, 1 uninformed, 2 on the frontier
    state = np.ones(n, dtype=np.uint8)
    out_times = np.full(n, -1.0)
    # the announcer relays its own announcement: lighting its neighbors
    # here is the only relaying a tier-2 node does
    if is_cluster[announcer]:
        origin, origin_nbrs = graph.cluster, cluster_nbrs
    else:
        origin, origin_nbrs = np.array([announcer]), graph.neighbors(announcer)
    state[origin] = 0
    out_times[origin] = 0.0
    state[origin_nbrs[state[origin_nbrs] == 1]] = 2

    rng = np.random.default_rng(seed)
    draws = rng.random(9 * n)
    common = (is_cluster, graph.cluster, cluster_nbrs, state)
    n_informed = int(origin.size)
    # each step informs a node, so a run has fewer than n steps
    nodes, wins = np.empty(n, dtype=np.int64), np.empty(n)
    if name == "numpy":
        status, used, _, steps = _vector_kernel(
            graph.relay_views, *common, n_informed, draws, rng.random, nodes, wins)
    else:
        arrays = (graph.indptr, graph.indices, graph.relay_mask, *common)
        used, steps = 0, 0
        while True:
            status, pos, n_informed, steps = _scalar_kernel_jit(
                *arrays, n_informed, steps, draws, nodes, wins)
            used += pos
            if status != STATUS_REFILL:
                break
            _refill(draws, pos, rng.random)
    _write_times(nodes[:steps], wins[:steps], is_cluster, graph.cluster, inv_lam, out_times)
    if status == STATUS_STUCK and policy == "strict":
        raise UnreachableTopologyError(
            f"announcement from node {announcer} cannot reach every node"
        )
    return out_times, used
