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
apply the same floating-point operations to each entry.  Selection is
via the BGPCONV_BACKEND environment variable ("numba", "numpy", or
"auto") or an explicit argument.

Kernel contract: run_dissemination informs the origin and owns the
run's one Generator.  A kernel takes the state (informed, counts, t)
plus a buffer of draws, runs only the event loop, and returns
(status, pos, t).  STATUS_OK: every node is informed.  STATUS_STUCK: the
frontier is empty.  STATUS_REFILL: the buffer ran short; pos is where
the unfinished step began, and the state is as it was there.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError, UnreachableTopologyError
from .graphs import Graph, forwarder_mask

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


def active_backend() -> str:
    """Backend chosen by BGPCONV_BACKEND (unset or 'auto' prefers numba)."""
    raw = os.environ.get(ENV_BACKEND, "auto").strip().lower() or "auto"
    if raw not in ("auto", "numba", "numpy"):
        raise DomainError(f"unknown backend {raw!r}; use numba, numpy, or auto")
    if raw == "auto":
        return "numba" if HAS_NUMBA else "numpy"
    if raw == "numba" and not HAS_NUMBA:
        raise DomainError("numba backend requested but numba is not importable")
    return raw


def _scalar_kernel(
    indptr, indices, forwards, cluster, is_cluster,
    informed, counts, t, unit_exp, inv_lam, out_times,
):
    n = out_times.shape[0]
    n_informed = 0
    for u in range(n):
        if informed[u]:
            n_informed += 1
    pos = 0
    while n_informed < n:
        step_start = pos
        best = np.inf
        best_node = -1
        for u in range(n):
            if informed[u] or counts[u] == 0:
                continue
            if pos >= unit_exp.shape[0]:
                return (STATUS_REFILL, step_start, t)
            d = unit_exp[pos] * inv_lam
            pos += 1
            if d < best:  # strict: earliest node id wins ties
                best = d
                best_node = u
        if best_node < 0:
            return (STATUS_STUCK, pos, t)
        t += best
        informed[best_node] = True
        out_times[best_node] = t
        n_informed += 1
        if forwards[best_node]:
            for e in range(indptr[best_node], indptr[best_node + 1]):
                counts[indices[e]] += 1
        if is_cluster[best_node]:
            for ci in range(cluster.shape[0]):
                m = cluster[ci]
                if not informed[m]:
                    informed[m] = True
                    out_times[m] = t
                    n_informed += 1
                    if forwards[m]:
                        for e in range(indptr[m], indptr[m + 1]):
                            counts[indices[e]] += 1
    return (STATUS_OK, pos, t)


if HAS_NUMBA:
    _scalar_kernel_jit = numba.njit(cache=True, nogil=True)(_scalar_kernel)
else:  # pragma: no cover - exercised only without numba installed
    _scalar_kernel_jit = None


def _vector_kernel(
    indptr, indices, forwards, cluster, is_cluster,
    informed, counts, t, unit_exp, inv_lam, out_times,
):
    n = out_times.shape[0]
    n_informed = int(informed.sum())
    pos = 0
    while n_informed < n:
        frontier = np.flatnonzero(~informed & (counts > 0))
        if frontier.size == 0:
            return (STATUS_STUCK, pos, t)
        if pos + frontier.size > unit_exp.shape[0]:
            return (STATUS_REFILL, pos, t)
        delays = unit_exp[pos : pos + frontier.size] * inv_lam
        pos += frontier.size
        j = int(np.argmin(delays))  # first occurrence: earliest node id wins ties
        t += float(delays[j])
        node = int(frontier[j])
        informed[node] = True
        out_times[node] = t
        n_informed += 1
        if forwards[node]:
            counts[indices[indptr[node] : indptr[node + 1]]] += 1
        if is_cluster[node]:
            for m in cluster:
                m = int(m)
                if not informed[m]:
                    informed[m] = True
                    out_times[m] = t
                    n_informed += 1
                    if forwards[m]:
                        counts[indices[indptr[m] : indptr[m + 1]]] += 1
    return (STATUS_OK, pos, t)


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
    unit exponentials drawn 8n at a time.  A kernel that runs short
    returns where its unfinished step began, and is called again on the
    draws it had not used followed by the next chunk of the same stream,
    so results never depend on the chunk size.

    Nodes the announcement cannot reach raise under the "strict" policy;
    under "reachable-only" the run covers what it can and leaves those
    entries at -1.
    """
    name = backend if backend is not None else active_backend()
    if name == "numba":
        if not HAS_NUMBA:
            raise DomainError("numba backend requested but numba is not importable")
        kern = _scalar_kernel_jit
    elif name == "numpy":
        kern = _vector_kernel
    else:
        raise DomainError(f"unknown backend {name!r}; use numba or numpy")
    if policy not in ("strict", "reachable-only"):
        raise DomainError(f"unknown policy {policy!r}; use strict or reachable-only")

    announcer = int(announcer)
    forwards = forwarder_mask(graph, announcer)
    is_cluster = graph.cluster_mask
    n = graph.node_count
    informed = np.zeros(n, dtype=np.bool_)
    # count of informed forwarding neighbors; > 0 marks frontier membership
    counts = np.zeros(n, dtype=np.int64)
    out_times = np.full(n, -1.0)
    origin = graph.cluster if is_cluster[announcer] else np.array([announcer])
    informed[origin] = True
    out_times[origin] = 0.0
    for m in origin[forwards[origin]]:
        counts[graph.indices[graph.indptr[m] : graph.indptr[m + 1]]] += 1

    rng = np.random.default_rng(seed)
    chunk = 8 * n
    unit_exp = unit_exponential_buffer(rng, chunk)
    used, t = 0, 0.0
    while True:
        status, pos, t = kern(
            graph.indptr, graph.indices, forwards, graph.cluster, is_cluster,
            informed, counts, t, unit_exp, float(inv_lam), out_times,
        )
        used += pos
        if status != STATUS_REFILL:
            break
        # a step needs at most n draws, so every refill completes one
        unit_exp = np.concatenate((unit_exp[pos:], unit_exponential_buffer(rng, chunk)))
    if status == STATUS_STUCK and policy == "strict":
        raise UnreachableTopologyError(
            f"announcement from node {announcer} cannot reach every node"
        )
    return out_times, used
