"""Event-loop kernels behind the dissemination simulator.

Process semantics: every uninformed node adjacent to at least one
informed forwarding node holds exactly one Exp(lambda) clock; the
earliest clock fires and informs its node, and surviving clocks are
redrawn fresh next step (equivalent in distribution, by memorylessness,
to letting them run).  Informing any SDN cluster member informs the
whole cluster at the same instant.  Time to the next event is therefore
Exp(lambda * frontier_size).

Two interchangeable backends produce bit-identical results: a compiled
kernel (numba, the default whenever numba imports) and a vectorized
numpy fallback.  Identity holds because both consume the same stream of
uniforms u in ascending node-id order within each step, give each draw
the same delay, the IEEE value of -log1p(-u) * (1/lambda) computed by
_exponentials (the product skipped when 1/lambda is 1), take the same
winner, and sum the winning delays in the same order.  Selection is
via the BGPCONV_BACKEND environment variable ("numba", "numpy", or
"auto") or an explicit argument taking the same names.

Kernel contract: run_dissemination informs the origin and owns the
run's one Generator.  The state is two bool arrays: uninformed, and
front, which marks exactly the uninformed nodes some informed forwarder
neighbors (the frontier).  Informed nodes never become uninformed, so
after a forwarder is informed, front[nbrs] = uninformed[nbrs] sets the
frontier of its neighbors exactly: an informed neighbor reads False,
which it already was.  Every SDN cluster member forwards (flat graphs
forward everywhere; a tiered cluster lies in tier-1), so the merged
cluster's neighborhood is one precomputed gather.  A kernel takes
(front, uninformed, n_informed, t), a buffer of draws and out_times,
runs only the event loop, and returns (status, pos, n_informed, t).
The numba kernel reads delays, converted a chunk at a time; the numpy
kernel reads the raw uniforms and takes 1/lambda as a last argument.
STATUS_OK: every node is informed.  STATUS_STUCK: the frontier is empty.
STATUS_REFILL: the buffer ran short; pos is where the unfinished step
began, and the state is as it was there.

Winners on uniforms (numpy kernel): a step keeps only its argmin, so the
kernel picks it on the uniforms, records the winner's node and uniform,
and before every return converts the recorded winners in one batch (the
same ufuncs, on a contiguous array) and writes their times by one
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
takes their argmin, as the numba kernel does.

Saturated tail (numpy kernel): once a step finds the frontier holding
every uninformed node, no later step can add a frontier node, since
informing a node only removes it (and, on a cluster hit, the cluster's
other members).  From there the frontier is the ascending list of the
remaining uninformed nodes, so the kernel finishes on a Python list:
each step is one slice of draws, one winner and one list pop.  The
steps take the same draws in the same order and the same winners as
stepping the arrays, so times and draws used are bit-identical.  The
informed nodes are written back to front, uninformed and out_times
before the kernel returns, so the state at return is as above on every
status.
"""

from __future__ import annotations

import math
import os
from functools import partial

import numpy as np

from .errors import DomainError, UnreachableTopologyError
from .graphs import Graph, check_in_range, forwarder_mask

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
    indptr, indices, forwards, is_cluster, cluster, cluster_nbrs,
    front, uninformed, n_informed, t, draws, out_times,
):
    n = front.shape[0]
    pos = 0
    while n_informed < n:
        step_start = pos
        best = np.inf
        best_node = -1
        for u in range(n):
            if not front[u]:
                continue
            if pos >= draws.shape[0]:
                return (STATUS_REFILL, step_start, n_informed, t)
            d = draws[pos]
            pos += 1
            if d < best:  # strict: earliest node id wins ties
                best = d
                best_node = u
        if best_node < 0:
            return (STATUS_STUCK, pos, n_informed, t)
        t += best
        front[best_node] = uninformed[best_node] = False
        out_times[best_node] = t
        n_informed += 1
        if forwards[best_node]:
            for e in range(indptr[best_node], indptr[best_node + 1]):
                v = indices[e]
                front[v] = uninformed[v]
        if is_cluster[best_node]:
            for m in cluster:
                if uninformed[m]:
                    front[m] = uninformed[m] = False
                    out_times[m] = t
                    n_informed += 1
            for v in cluster_nbrs:
                front[v] = uninformed[v]
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
    indptr, indices, forwards, is_cluster, cluster, cluster_nbrs,
    front, uninformed, n_informed, t, uniforms, out_times, inv_lam,
):
    n = front.shape[0]
    n_draws = uniforms.shape[0]
    # 0.0: no uniform is below it, so every step compares delays
    tie_free = _TIE_FREE_BELOW if inv_lam >= _TIE_FREE_SCALE else 0.0
    nodes, wins, merges = [], [], []
    status, pos = STATUS_OK, 0
    while n_informed < n:
        frontier = front.nonzero()[0]
        size = frontier.size
        if size == 0:
            status = STATUS_STUCK
            break
        if size == n - n_informed:
            status, pos, n_informed = _saturated_tail(
                frontier, cluster, front, uninformed, n_informed, uniforms, pos,
                inv_lam, tie_free, nodes, wins, merges)
            break
        if pos + size > n_draws:
            status = STATUS_REFILL
            break
        u = uniforms[pos : pos + size]
        pos += size
        j = u.argmin()  # first occurrence: earliest node id wins ties
        uj = u.item(j)
        if uj >= tie_free and size > 1:
            j, uj = _delay_winner(u, inv_lam)
        wins.append(uj)
        node = frontier.item(j)
        nodes.append(node)
        front[node] = uninformed[node] = False
        n_informed += 1
        if forwards[node]:
            nb = indices[indptr[node] : indptr[node + 1]]
            front[nb] = uninformed[nb]
        if is_cluster[node]:
            new = cluster[uninformed[cluster]]
            front[new] = uninformed[new] = False
            merges.append((len(wins) - 1, new))
            n_informed += new.size
            front[cluster_nbrs] = uninformed[cluster_nbrs]
    t = _write_times(nodes, wins, merges, t, inv_lam, out_times)
    return (status, pos, n_informed, t)


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


def _saturated_tail(frontier, cluster, front, uninformed, n_informed, uniforms, pos,
                    inv_lam, tie_free, nodes, wins, merges):
    """_vector_kernel's steps from one whose frontier holds every
    uninformed node, to the end of the run or of the draws.

    The frontier is then the ascending list of uninformed nodes, and an
    informed node leaves it without adding any (all are on it already).
    So each step is one slice of uniforms, one winner and one pop from
    that list; a cluster hit also drops the cluster's uninformed members.
    Winners go on nodes, wins and merges as in the kernel, and the
    informed nodes are written back to front and uninformed before
    returning (status, pos, n_informed).
    """
    n_draws = uniforms.shape[0]
    first = len(nodes)
    rest = frontier.tolist()
    dark = set(cluster[uninformed[cluster]].tolist())
    merged = []
    while rest:
        size = len(rest)
        if pos + size > n_draws:
            break
        u = uniforms[pos : pos + size]
        pos += size
        j = u.argmin()  # first occurrence: earliest node id wins ties
        uj = u.item(j)
        if uj >= tie_free and size > 1:
            j, uj = _delay_winner(u, inv_lam)
        wins.append(uj)
        node = rest.pop(j)
        nodes.append(node)
        if node in dark:
            dark.discard(node)
            rest = [m for m in rest if m not in dark]
            merged = list(dark)
            merges.append((len(wins) - 1, merged))
            dark = ()
    done = np.array(nodes[first:] + merged, dtype=np.intp)
    front[done] = uninformed[done] = False
    return (STATUS_REFILL if rest else STATUS_OK, pos, n_informed + done.size)


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
    uniforms drawn 8n at a time, carrying the informed count across
    calls.  The numba kernel gets each chunk as delays (unit exponentials
    times inv_lam); the numpy kernel gets the uniforms and inv_lam, picks
    each step's winner on the uniforms and converts only the winners,
    comparing a step's delays instead where a tie in them is possible
    (module docstring), so both give the same times.  A kernel that runs
    short returns where its unfinished step began, and is called again on
    the draws it had not used followed by the next chunk of the same
    stream, so results never depend on the chunk size.

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
    forwards = forwarder_mask(graph, announcer)
    is_cluster = graph.cluster_mask
    cluster_nbrs = graph.cluster_neighborhood
    n = graph.node_count
    front = np.zeros(n, dtype=np.bool_)
    uninformed = np.ones(n, dtype=np.bool_)
    out_times = np.full(n, -1.0)
    # the announcer forwards too (forwarder_mask)
    if is_cluster[announcer]:
        origin, origin_nbrs = graph.cluster, cluster_nbrs
    else:
        origin, origin_nbrs = np.array([announcer]), graph.neighbors(announcer)
    uninformed[origin] = False
    out_times[origin] = 0.0
    front[origin_nbrs] = uninformed[origin_nbrs]

    rng = np.random.default_rng(seed)
    chunk = 8 * n
    if name == "numba":
        kern, draw, rate = _scalar_kernel_jit, partial(_delays, rng, chunk, inv_lam), ()
    else:
        kern, draw, rate = _vector_kernel, partial(rng.random, chunk), (inv_lam,)
    draws = draw()
    used, n_informed, t = 0, int(origin.size), 0.0
    while True:
        status, pos, n_informed, t = kern(
            graph.indptr, graph.indices, forwards, is_cluster, graph.cluster,
            cluster_nbrs, front, uninformed, n_informed, t, draws, out_times, *rate,
        )
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
