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
numpy fallback.  Identity holds because both consume the same
unit-exponential stream in ascending node-id order within each step and
apply the same floating-point operations to each entry: each draw is
multiplied by 1/lambda once, when its chunk is drawn, and each event
time is a running sum of the winning delays.  Selection is
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
(front, uninformed, n_informed, t) plus a buffer of draws already
scaled by 1/lambda, runs only the event loop, and returns (status, pos,
n_informed, t).
STATUS_OK: every node is informed.  STATUS_STUCK: the frontier is empty.
STATUS_REFILL: the buffer ran short; pos is where the unfinished step
began, and the state is as it was there.

Saturated tail (numpy kernel): once a step finds the frontier holding
every uninformed node, no later step can add a frontier node, since
informing a node only removes it (and, on a cluster hit, the cluster's
other members).  From there the frontier is the ascending list of the
remaining uninformed nodes, so the kernel finishes on a Python list:
each step is one slice of draws, one argmin and one list pop.  The
steps take the same draws in the same order, the same first-occurrence
argmin and the same running sum as stepping the arrays, so times and
draws used are bit-identical.  The informed nodes are written back to
front, uninformed and out_times before the kernel returns, so the state
at return is as above on every status.
"""

from __future__ import annotations

import math
import os

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


def _vector_kernel(
    indptr, indices, forwards, is_cluster, cluster, cluster_nbrs,
    front, uninformed, n_informed, t, draws, out_times,
):
    n = front.shape[0]
    n_draws = draws.shape[0]
    pos = 0
    while n_informed < n:
        frontier = front.nonzero()[0]
        size = frontier.size
        if size == 0:
            return (STATUS_STUCK, pos, n_informed, t)
        if size == n - n_informed:
            return _saturated_tail(
                frontier, cluster, front, uninformed, n_informed, t, draws, pos, out_times)
        if pos + size > n_draws:
            return (STATUS_REFILL, pos, n_informed, t)
        delays = draws[pos : pos + size]
        pos += size
        j = delays.argmin()  # first occurrence: earliest node id wins ties
        t += delays.item(j)
        node = frontier.item(j)
        front[node] = uninformed[node] = False
        out_times[node] = t
        n_informed += 1
        if forwards[node]:
            nb = indices[indptr[node] : indptr[node + 1]]
            front[nb] = uninformed[nb]
        if is_cluster[node]:
            new = cluster[uninformed[cluster]]
            front[new] = uninformed[new] = False
            out_times[new] = t
            n_informed += new.size
            front[cluster_nbrs] = uninformed[cluster_nbrs]
    return (STATUS_OK, pos, n_informed, t)


def _saturated_tail(frontier, cluster, front, uninformed, n_informed, t, draws, pos,
                    out_times):
    """_vector_kernel's steps from one whose frontier holds every
    uninformed node, to the end of the run or of the draws.

    The frontier is then the ascending list of uninformed nodes, and an
    informed node leaves it without adding any (all are on it already).
    So each step is one slice of draws, one argmin over it and one pop
    from that list; a cluster hit also drops the cluster's uninformed
    members.  The informed nodes are written back to front, uninformed
    and out_times before returning.
    """
    n_draws = draws.shape[0]
    rest = frontier.tolist()
    dark = set(cluster[uninformed[cluster]].tolist())
    nodes, times = [], []
    while rest:
        size = len(rest)
        if pos + size > n_draws:
            break
        delays = draws[pos : pos + size]
        pos += size
        j = delays.argmin()  # first occurrence: earliest node id wins ties
        t += delays.item(j)
        node = rest.pop(j)
        nodes.append(node)
        times.append(t)
        if node in dark:
            dark.discard(node)
            rest = [m for m in rest if m not in dark]
            nodes.extend(dark)
            times.extend([t] * len(dark))
            dark = ()
    done = np.fromiter(nodes, dtype=np.intp, count=len(nodes))
    front[done] = False
    uninformed[done] = False
    out_times[done] = np.array(times)
    n_informed += done.size
    return (STATUS_REFILL if rest else STATUS_OK, pos, n_informed, t)


def unit_exponential_buffer(rng: np.random.Generator, length: int) -> np.ndarray:
    """The next length Exp(1) samples of rng, by inverse transform.

    One uniform per sample, so consecutive calls on one Generator
    concatenate to exactly the samples of a single longer call.
    """
    # in place: one buffer-sized allocation per call, not three
    buf = rng.random(length)
    np.negative(buf, out=buf)
    np.log1p(buf, out=buf)
    return np.negative(buf, out=buf)


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
    delays drawn 8n at a time (unit exponentials times inv_lam), carrying
    the informed count across calls.  A kernel that runs short
    returns where its unfinished step began, and is called again on the
    draws it had not used followed by the next chunk of the same stream,
    so results never depend on the chunk size.

    backend is "numba", "numpy" or "auto"; None reads BGPCONV_BACKEND.
    An announcer outside [0, N), or an inv_lam that is not finite and
    positive, is a DomainError under either policy, so every informed
    time is >= 0 and the run's convergence time is the largest entry.
    Nodes the announcement cannot reach raise under the "strict" policy;
    under "reachable-only" the run covers what it can and leaves those
    entries at -1.
    """
    name = active_backend() if backend is None else _backend_name(backend)
    kern = _scalar_kernel_jit if name == "numba" else _vector_kernel
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
    draws = _delays(rng, chunk, inv_lam)
    used, n_informed, t = 0, int(origin.size), 0.0
    while True:
        status, pos, n_informed, t = kern(
            graph.indptr, graph.indices, forwards, is_cluster, graph.cluster,
            cluster_nbrs, front, uninformed, n_informed, t, draws, out_times,
        )
        used += pos
        if status != STATUS_REFILL:
            break
        # a step needs at most n draws, so every refill completes one
        draws = np.concatenate((draws[pos:], _delays(rng, chunk, inv_lam)))
    if status == STATUS_STUCK and policy == "strict":
        raise UnreachableTopologyError(
            f"announcement from node {announcer} cannot reach every node"
        )
    return out_times, used
