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
fallback.  Identity holds because both consume the same stream of
uniforms u in ascending node-id order within each step, give each draw
the same delay, the IEEE value of -log1p(-u) * (1/lambda) computed by
_exponentials (the product skipped when 1/lambda is 1), take the same
winner, and sum the winning delays in the same order.  Selection is
via the BGPCONV_BACKEND environment variable ("numba", "numpy", or
"auto") or an explicit argument taking the same names.

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
graph, (state, n_informed, t), its draws and out_times, runs only the
event loop, and returns (status, draws used, n_informed, t) with the
state as above.  STATUS_OK: every node is informed.  STATUS_STUCK: the
frontier is empty.

The numba kernel reads the graph as its CSR arrays and relay_mask, and
delays from a buffer of 8n, converted a chunk at a time.  When the
buffer runs short it returns STATUS_REFILL, where pos is where the
unfinished step began and the state is as it was there;
run_dissemination calls it again on the unused draws followed by the
next chunk of the same stream.

The numpy kernel runs a whole dissemination in one call.  It reads the
graph as Graph.relay_views: a memoryview of each relaying node's CSR
row, () for any other node.  It takes a draw() callable that returns
the next uniforms (8n in a run) and, when a step runs short, continues
on the unused tail followed by the next draw(), so no result depends on
how many uniforms a draw returns.  The frontier is an ascending Python
list of node ids (a step's draw order): a winner is popped from it, a
newly lit node goes in by bisection, and the state is read and written
behind a memoryview, so no step scans or copies a mask.  Once a step
finds the frontier holding every uninformed node, it stays so
(informing a node only removes it, and on a cluster hit the cluster's
other members), so such a step skips the neighbor scan.  A cluster hit,
once per run at most, updates the state by numpy gathers and rebuilds
the list from it.

Winners on uniforms (numpy kernel): a step keeps only its argmin, so the
kernel picks it on the uniforms, records the winner's node and uniform,
and at the end of the run converts the recorded winners in one batch
(the same ufuncs, on a contiguous array) and writes their times by one
sequential cumsum seeded with t.  The uniforms' first-occurrence argmin
is the delays' whenever the delay map d is strictly increasing from the
slice minimum u_j to every larger point of the grid k * 2**-53 that
rng.random draws from.  Let g(u) = -ln(1 - u) and e(u) its value from
log1p, which errs by less than one ulp (faithful rounding; the tests pin
this), and let u_j < 7/32, so g(u_j) < 0.247 and e(u_j) < 1/4.  For a
grid point v > u_j, g(v) - g(u_j) >= v - u_j >= 2**-53 because g' >= 1.
If g(v) < 1/4 each rounding errs by less than 2**-55, so e(v) - e(u_j) >
2**-54 >= 2 ulp(e(u_j)); otherwise e(v) >= 1/4 and the gap is larger.
With c = 1/lambda, c times two ulps of e(u_j) is at least one ulp of
c * e(u_j), and more than 1.5 where c * e(u_j) lies within half an ulp
below a power of two, so rounding the products to nearest keeps them
strictly ordered while they are normal.  Every nonzero e is at least
2**-53, so c >= 2**-969 keeps every nonzero product at least 2**-1022.
No upper bound on c is needed: d(u_j) <= c/4 is finite, and a product
that overflows is inf, which is larger.  (From u = 1 - exp(-1/4), about
0.2212, e(u) >= 1/4, where a log1p that is only faithful can leave two
adjacent grid points one ulp apart, and a c with a mantissa near 2 could
round their products to one value; so the bound is 7/32, below that.)
A step whose slice holds two or more draws with u_j >= 7/32, and every
such step when c < 2**-969, therefore evaluates the slice's delays and
takes their argmin, as the numba kernel does.  A step whose delays all
overflow takes its first node in both kernels.
"""

from __future__ import annotations

import math
import os
from bisect import insort
from functools import partial

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
    state, n_informed, t, draws, out_times,
):
    n = state.shape[0]
    pos = 0
    while n_informed < n:
        step_start = pos
        best = np.inf
        best_node = -1
        for u in range(n):
            if state[u] != 2:
                continue
            if pos >= draws.shape[0]:
                return (STATUS_REFILL, step_start, n_informed, t)
            d = draws[pos]
            pos += 1
            # strict: earliest node id wins ties; the first draw is taken
            # even when it is inf, as the numpy kernel's argmin takes it
            if best_node < 0 or d < best:
                best = d
                best_node = u
        if best_node < 0:
            return (STATUS_STUCK, pos, n_informed, t)
        t += best
        state[best_node] = 0
        out_times[best_node] = t
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
                    out_times[m] = t
                    n_informed += 1
            for v in cluster_nbrs:
                if state[v] == 1:
                    state[v] = 2
    return (STATUS_OK, pos, n_informed, t)


if HAS_NUMBA:
    _scalar_kernel_jit = numba.njit(cache=True, nogil=True)(_scalar_kernel)
else:  # pragma: no cover - exercised only without numba installed
    _scalar_kernel_jit = None


# _vector_kernel picks a step's winner on its uniforms when the slice
# minimum is below _TIE_FREE_BELOW and 1/lambda is at least
# _TIE_FREE_SCALE (module docstring); otherwise it compares the delays
_TIE_FREE_BELOW = 7 / 32
_TIE_FREE_SCALE = 2.0**-969


def _vector_kernel(
    relays, is_cluster, cluster, cluster_nbrs,
    state, n_informed, t, draw, out_times, inv_lam,
):
    n = state.shape[0]
    # 0.0: no uniform is below it, so every step compares delays
    tie_free = _TIE_FREE_BELOW if inv_lam >= _TIE_FREE_SCALE else 0.0
    rest = (state == 2).nonzero()[0].tolist()
    st, is_cluster = memoryview(state), is_cluster.tobytes()
    nodes, wins, merges = [], [], []
    left = n - n_informed
    uniforms = draw()
    used, pos, n_draws = 0, 0, uniforms.shape[0]
    # the frontier is empty once every node is informed, so an empty
    # frontier ends every run
    while rest:
        size = len(rest)
        end = pos + size
        while end > n_draws:
            uniforms = np.concatenate((uniforms[pos:], draw()))
            used += pos
            pos, end, n_draws = 0, size, uniforms.shape[0]
        u = uniforms[pos:end]
        pos = end
        j = u.argmin()  # first occurrence: earliest node id wins ties
        uj = u.item(j)
        if uj >= tie_free and size > 1:
            j, uj = _delay_winner(u, inv_lam)
        wins.append(uj)
        node = rest.pop(j)
        nodes.append(node)
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
            merges.append((len(wins) - 1, new))
            left -= new.size
    t = _write_times(nodes, wins, merges, t, inv_lam, out_times)
    status = STATUS_STUCK if left else STATUS_OK
    return (status, used + pos, n - left, t)


def _delay_winner(u, inv_lam):
    """Index and uniform of the first-occurrence minimum delay of the
    uniforms u, found by comparing the delays themselves."""
    j = _exponentials(u.copy(), inv_lam).argmin()  # u stays uniforms
    return j, u.item(j)


def _write_times(nodes, wins, merges, t, inv_lam, out_times):
    """Write the event times of winners recorded since t into out_times.

    wins holds the winners' uniforms in step order; a cluster hit adds
    (the hitting winner's index in wins, the members it informed) to
    merges.  Returns the time of the last event.
    """
    if not wins:
        return t
    times = _exponentials(np.fromiter(wins, np.float64, len(wins)), inv_lam)
    times[0] += t
    np.add.accumulate(times, out=times)  # sequential: t += delay, winner by winner
    out_times.put(nodes, times)
    for k, members in merges:
        out_times[members] = times[k]
    return times.item(-1)


def _exponentials(u: np.ndarray, inv_lam: float) -> np.ndarray:
    """Delays -log1p(-u) * inv_lam of the uniforms u, in place.

    The one conversion of every draw, bulk or gathered: in place, so a
    buffer costs one allocation, not three, and the product is skipped
    when inv_lam is 1.
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    if inv_lam != 1.0:
        u *= inv_lam
    return u


def unit_exponential_buffer(rng: np.random.Generator, length: int) -> np.ndarray:
    """The next length Exp(1) samples of rng, by inverse transform.

    One uniform per sample, so consecutive calls on one Generator
    concatenate to exactly the samples of a single longer call.
    """
    return _exponentials(rng.random(length), 1.0)


def _delays(rng: np.random.Generator, length: int, inv_lam: float) -> np.ndarray:
    """The next length Exp(1/inv_lam) delays: unit draws times inv_lam.

    Scaled once per chunk, in place; each entry is the same IEEE product
    a per-draw multiply would give.
    """
    buf = unit_exponential_buffer(rng, length)
    if inv_lam != 1.0:
        buf *= inv_lam
    return buf


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
    at time 0 here; the backend kernel then runs the event loop on
    draws taken 8n at a time.  The numba kernel gets each chunk as
    delays (unit exponentials times inv_lam) and is called again at each
    refill.  The numpy kernel runs the whole loop in one call on the
    uniforms and inv_lam: it picks each step's winner on the uniforms and
    converts only the winners, comparing a step's delays instead where a
    tie in them is possible (module docstring), so both give the same
    times.  Either way a step that runs short continues on the draws not
    yet used followed by the next chunk of the same stream, so results
    never depend on the chunk size.

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
    chunk = 8 * n
    common = (is_cluster, graph.cluster, cluster_nbrs, state)
    n_informed, t = int(origin.size), 0.0
    if name == "numpy":
        status, used, _, _ = _vector_kernel(
            graph.relay_views, *common, n_informed, t, partial(rng.random, chunk),
            out_times, inv_lam)
    else:
        arrays = (graph.indptr, graph.indices, graph.relay_mask, *common)
        draw = partial(_delays, rng, chunk, inv_lam)
        draws, used = draw(), 0
        while True:
            status, pos, n_informed, t = _scalar_kernel_jit(
                *arrays, n_informed, t, draws, out_times)
            used += pos
            if status != STATUS_REFILL:
                break
            # a step needs at most n draws, so every refill completes one
            draws = np.concatenate((draws[pos:], draw()))
    if status == STATUS_STUCK and policy == "strict":
        raise UnreachableTopologyError(
            f"announcement from node {announcer} cannot reach every node"
        )
    return out_times, used
