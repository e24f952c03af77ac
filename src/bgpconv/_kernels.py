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
pregenerated unit-exponential buffer in ascending node-id order within
each step and apply the same floating-point operations to each entry.
Selection is via the BGPCONV_BACKEND environment variable ("numba",
"numpy", or "auto") or an explicit argument.
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
STATUS_BUFFER_EXHAUSTED = -1
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
    indptr, indices, forwards, cluster, is_cluster, announcer, unit_exp, inv_lam, out_times
):
    n = out_times.shape[0]
    informed = np.zeros(n, dtype=np.bool_)
    # count of informed forwarding neighbors; > 0 marks frontier membership
    counts = np.zeros(n, dtype=np.int64)
    pos = 0
    n_informed = 0
    t = 0.0

    informed[announcer] = True
    out_times[announcer] = 0.0
    n_informed += 1
    if forwards[announcer]:
        for e in range(indptr[announcer], indptr[announcer + 1]):
            counts[indices[e]] += 1
    if is_cluster[announcer]:
        for ci in range(cluster.shape[0]):
            m = cluster[ci]
            if not informed[m]:
                informed[m] = True
                out_times[m] = 0.0
                n_informed += 1
                if forwards[m]:
                    for e in range(indptr[m], indptr[m + 1]):
                        counts[indices[e]] += 1

    while n_informed < n:
        best = np.inf
        best_node = -1
        for u in range(n):
            if informed[u] or counts[u] == 0:
                continue
            if pos >= unit_exp.shape[0]:
                return (-1, pos)
            d = unit_exp[pos] * inv_lam
            pos += 1
            if d < best:  # strict: earliest node id wins ties
                best = d
                best_node = u
        if best_node < 0:
            return (-2, pos)
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
    return (0, pos)


if HAS_NUMBA:
    _scalar_kernel_jit = numba.njit(cache=True, nogil=True)(_scalar_kernel)
else:  # pragma: no cover - exercised only without numba installed
    _scalar_kernel_jit = None


def _vector_kernel(
    indptr, indices, forwards, cluster, is_cluster, announcer, unit_exp, inv_lam, out_times
):
    n = out_times.shape[0]
    informed = np.zeros(n, dtype=np.bool_)
    counts = np.zeros(n, dtype=np.int64)
    pos = 0
    t = 0.0

    informed[announcer] = True
    out_times[announcer] = 0.0
    if forwards[announcer]:
        counts[indices[indptr[announcer] : indptr[announcer + 1]]] += 1
    if is_cluster[announcer]:
        fresh = cluster[~informed[cluster]]
        informed[fresh] = True
        out_times[fresh] = 0.0
        for m in fresh:
            if forwards[m]:
                counts[indices[indptr[m] : indptr[m + 1]]] += 1

    n_informed = int(informed.sum())
    while n_informed < n:
        frontier = np.flatnonzero(~informed & (counts > 0))
        if frontier.size == 0:
            return (-2, pos)
        if pos + frontier.size > unit_exp.shape[0]:
            return (-1, pos)
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
    return (0, pos)


def unit_exponential_buffer(seed, length: int) -> np.ndarray:
    """Exp(1) samples via inverse transform on the uniform stream.

    One uniform per sample, so a longer buffer from the same seed has
    the shorter one as an exact prefix (the property the regenerate-on-
    exhaustion path relies on).
    """
    rng = np.random.default_rng(seed)
    # in place: one buffer-sized allocation per run, not three
    buf = rng.random(length)
    np.negative(buf, out=buf)
    np.log1p(buf, out=buf)
    return np.negative(buf, out=buf)


def initial_buffer_len(n: int) -> int:
    # Total consumption is one draw per frontier node per step, which is
    # bounded by n(n-1)/2; pay that upfront for small graphs and start
    # small with doubling for large ones.
    if n <= 2048:
        return max(n * (n - 1) // 2, 1)
    return 8 * n


def run_dissemination(
    graph: Graph,
    announcer: int,
    inv_lam: float,
    seed,
    backend: str | None = None,
    policy: str = "strict",
) -> tuple[np.ndarray, int]:
    """One dissemination over graph; returns (informed times, draws used).

    seed feeds the exponential buffer (int or SeedSequence).  If the
    buffer runs out it is regenerated longer from the same seed and the
    run restarts, so results never depend on the initial buffer size.

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

    forwards = forwarder_mask(graph, announcer)
    is_cluster = graph.cluster_mask
    n = graph.node_count
    hard_cap = max(n * (n - 1) // 2, 1)
    buf_len = initial_buffer_len(n)
    while True:
        unit_exp = unit_exponential_buffer(seed, buf_len)
        out_times = np.full(n, -1.0)
        status, consumed = kern(
            graph.indptr,
            graph.indices,
            forwards,
            graph.cluster,
            is_cluster,
            int(announcer),
            unit_exp,
            float(inv_lam),
            out_times,
        )
        if status == STATUS_STUCK and policy == "strict":
            raise UnreachableTopologyError(
                f"announcement from node {announcer} cannot reach every node"
            )
        if status == STATUS_BUFFER_EXHAUSTED:
            if buf_len >= hard_cap:
                raise RuntimeError("exponential buffer exceeded its theoretical bound")
            buf_len = min(buf_len * 2, hard_cap)
            continue
        return out_times, int(consumed)
