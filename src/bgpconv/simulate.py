"""Monte Carlo simulator for update dissemination on concrete graphs.

Every simulated mean comes from one run loop, _run_batch, which takes
run r's graph, announcer and clock seed from a draw function.
simulate_batch keeps cfg's graph and takes an announcer child and a
clock child of SeedSequence((seed, r)); a case-study grid point redraws
graph and announcer per run (experiments).  Either way, changing the
number of runs never perturbs earlier runs.

Since no run reads another's stream, _run_batch splits its runs into one
contiguous range per CPU in the process's affinity mask and runs the
ranges through _map_points, the one fork map, which the sweep and grid
drivers share.  Times, announcers and errors are those of the serial
loop, byte for byte; a single CPU (`taskset -c 0`) runs serially.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from ._kernels import run_dissemination
from .errors import DomainError, UnreachableTopologyError
from .graphs import ROLE_TIER2, Graph, check_in_range, draw_announcer

Announcer = Union[int, str]


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit sub-seed hashed from integer parts."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RunStats:
    """Sample statistics over per-run convergence times."""

    runs: int
    mean: float
    std_dev: float
    std_err: float

    @property
    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.std_err
        return (self.mean - half, self.mean + half)

    @classmethod
    def from_times(cls, times: np.ndarray) -> "RunStats":
        times = np.asarray(times, dtype=np.float64)
        runs = int(times.size)
        if runs < 1:
            raise DomainError("need at least one run")
        # 2**-e brings the largest |time| into [1/2, 1), so the squared
        # deviations cannot overflow, and whether they underflow does not
        # depend on the scale of the times; a power of two scales exactly,
        # so the statistics scale exactly with the rate, and those that
        # fit unscaled keep their bits
        e = math.frexp(float(np.abs(times).max()))[1]
        scaled = np.ldexp(times, -e)
        mean = math.ldexp(float(scaled.mean()), e)
        std = math.ldexp(float(scaled.std(ddof=1)), e) if runs > 1 else 0.0
        return cls(runs=runs, mean=mean, std_dev=std, std_err=std / math.sqrt(runs))


@dataclass(frozen=True, eq=False)
class RunConfig:
    """One simulation setup: a concrete graph plus run parameters.

    announcer is a node id or "uniform" (redrawn per run).  A node id is
    checked here, once per config (in range, and tier-2 on a tiered
    graph), and kept as an int.  lam must be positive; run_dissemination
    also rejects a rate whose reciprocal is not finite.  Under the
    "strict" policy a run that cannot cover every node raises; under
    "reachable-only" it converges once all reachable nodes are informed.
    """

    graph: Graph
    announcer: Announcer = "uniform"
    lam: float = 1.0
    seed: int = 0
    policy: str = "strict"

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise DomainError(f"lam must be positive, got {self.lam}")
        if self.policy not in ("strict", "reachable-only"):
            raise DomainError(f"unknown policy {self.policy!r}")
        if isinstance(self.announcer, str):
            if self.announcer != "uniform":
                raise DomainError(f"unknown announcer policy {self.announcer!r}")
            return
        announcer = check_in_range(self.graph, self.announcer)
        if self.graph.is_tiered and self.graph.roles[announcer] != ROLE_TIER2:
            raise DomainError("tiered announcements must originate at a tier-2 node")
        object.__setattr__(self, "announcer", announcer)


@dataclass(frozen=True, eq=False)
class DisseminationTrace:
    """One run's full event history.

    events[i] = (time, nodes informed at that instant).  The first
    event is at time 0.0 and holds the announcer plus, when the
    announcer is a cluster member, the whole cluster.
    """

    announcer: int
    events: tuple[tuple[float, frozenset], ...]
    convergence_time: float


def _draw_run(cfg: RunConfig, run_index: int) -> tuple[Graph, int, np.random.SeedSequence]:
    """Run run_index on cfg's graph: the graph, its announcer, its clock seed."""
    # children 0 and 1 of SeedSequence((seed, r)).spawn(2), built alone
    entropy = (int(cfg.seed), int(run_index))
    origin = cfg.announcer
    if isinstance(origin, str):
        ann_child = np.random.SeedSequence(entropy, spawn_key=(0,))
        origin = draw_announcer(np.random.default_rng(ann_child), cfg.graph)
    return cfg.graph, origin, np.random.SeedSequence(entropy, spawn_key=(1,))


def simulate_once(cfg: RunConfig, run_index: int = 0) -> DisseminationTrace:
    """Run one dissemination and keep the full event trace."""
    graph, origin, clock = _draw_run(cfg, run_index)
    inv_lam = 1.0 / float(cfg.lam)
    times, _ = run_dissemination(graph, origin, inv_lam, clock, policy=cfg.policy)
    order = np.argsort(times, kind="stable")
    ordered = times[order]
    # unreached nodes hold -1.0, so they sort first and are no event
    first = int(ordered.searchsorted(0.0))
    order, ordered = order[first:], ordered[first:]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    events = tuple(
        (when, frozenset(nodes.tolist()))
        for when, nodes in zip(ordered[np.r_[0, cuts]].tolist(), np.split(order, cuts))
    )
    return DisseminationTrace(
        announcer=origin, events=events, convergence_time=float(times.max())
    )


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Convergence times and announcers of a batch of runs."""

    times: np.ndarray
    announcers: np.ndarray
    stats: RunStats


def _cpu_count() -> int:
    """The number of CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# the fn of the running _map_points; forked workers inherit it, so it is
# never pickled and may be a lambda or hold what cannot pickle
_mapped: Callable | None = None


def _call_mapped(x):
    # an error comes back as a value, so that the caller raises the one
    # of the lowest failing item whichever worker fails first
    try:
        return _mapped(x), None
    except Exception as exc:
        return None, exc


def _map_points(fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items], in item order, with one forked worker per
    CPU in this process's affinity mask (at most one per item).

    Runs serially with one CPU or one item, where the platform cannot
    fork, in a daemonic process, which may not have children, and while
    another thread runs, which a forked child could find holding a lock.
    The workers inherit fn, so only the items and results are pickled.
    Every item runs, and then the exception of the lowest failing item
    reaches the caller, as in the serial loop; no worker outlives the
    call.
    """
    global _mapped
    import multiprocessing
    import threading

    items = list(items)
    workers = min(_cpu_count(), len(items))
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return [fn(x) for x in items]
    # every point draws: load numpy.random once here, so the workers
    # inherit it rather than each importing it again
    import numpy.random  # noqa: F401
    _mapped = fn
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_call_mapped, items, chunksize=1)
            pool.close()
            pool.join()
    finally:
        _mapped = None
    for _, exc in results:
        if exc is not None:
            raise exc
    return [value for value, _ in results]


def _run_batch(draw: Callable, runs: int, lam: float, policy: str) -> BatchResult:
    """The one run loop: run r disseminates at rate lam under policy on
    draw(r) = (graph, announcer, clock seed).  An unreachable run
    re-raises with a `run r:` prefix; an overflowing one is a DomainError.
    The runs go in one contiguous range per CPU through _map_points, and
    the error raised is that of the lowest failing run.
    """
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    inv_lam = 1.0 / float(lam)

    def run_range(bounds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        start, stop = bounds
        times = np.empty(stop - start, dtype=np.float64)
        announcers = np.empty(stop - start, dtype=np.int64)
        for i, r in enumerate(range(start, stop)):
            graph, origin, clock = draw(r)
            try:
                node_times, _ = run_dissemination(graph, origin, inv_lam, clock, policy=policy)
            except UnreachableTopologyError as exc:
                raise UnreachableTopologyError(f"run {r}: {exc}") from exc
            times[i] = node_times.max()
            if not math.isfinite(times[i]):
                raise DomainError(f"run {r}: convergence time overflows at lam {lam}")
            announcers[i] = origin
        return times, announcers

    parts = min(_cpu_count(), runs)
    bounds = [runs * i // parts for i in range(parts + 1)]
    ranges = _map_points(run_range, zip(bounds, bounds[1:]))
    times = np.concatenate([t for t, _ in ranges])
    announcers = np.concatenate([a for _, a in ranges])
    return BatchResult(times, announcers, RunStats.from_times(times))


def simulate_batch(cfg: RunConfig, runs: int) -> BatchResult:
    """Run many disseminations on the fixed graph in cfg.

    cfg.announcer "uniform" redraws the origin each run (uniform over
    all nodes on flat graphs, over tier-2 nodes on tiered ones); a node
    id is the origin of every run.  Runs use the kernel that
    BGPCONV_BACKEND selects (see active_backend) and spread over the
    CPUs as _run_batch says, with the same results at any CPU count.
    """
    return _run_batch(lambda r: _draw_run(cfg, r), runs, cfg.lam, cfg.policy)


def format_trace(trace: DisseminationTrace) -> str:
    """Line-delimited trace: `time node_ids...`, one event per line."""
    lines = []
    for when, nodes in trace.events:
        ids = " ".join(str(i) for i in sorted(nodes))
        lines.append(f"{format(when, '.9g')} {ids}")
    return "\n".join(lines) + "\n"
