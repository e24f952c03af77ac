"""Monte Carlo simulator for update dissemination on concrete graphs.

Runs are reproducible: run r under master seed s derives its RNG state
from SeedSequence((s, r)), split into one child for announcer choice
and one for the run's stream of exponential waiting times.  Changing
the number of runs therefore never perturbs earlier runs, and batches
could be farmed out run-by-run without shared RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

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
        mean = float(times.mean())
        std = float(times.std(ddof=1)) if runs > 1 else 0.0
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


def _run_times(cfg: RunConfig, run_index: int) -> tuple[int, np.ndarray]:
    """Resolve the run's announcer and produce per-node informed times."""
    run_ss = np.random.SeedSequence((int(cfg.seed), int(run_index)))
    ann_child, clock_child = run_ss.spawn(2)
    origin = cfg.announcer
    if isinstance(origin, str):
        origin = draw_announcer(np.random.default_rng(ann_child), cfg.graph)
    times, _ = run_dissemination(
        cfg.graph, origin, 1.0 / float(cfg.lam), clock_child, policy=cfg.policy
    )
    return origin, times


def simulate_once(cfg: RunConfig, run_index: int = 0) -> DisseminationTrace:
    """Run one dissemination and keep the full event trace."""
    origin, times = _run_times(cfg, run_index)
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
    """Convergence times for a batch of runs on one fixed graph."""

    times: np.ndarray
    announcers: np.ndarray
    stats: RunStats


def simulate_batch(cfg: RunConfig, runs: int) -> BatchResult:
    """Run many disseminations on the fixed graph in cfg.

    cfg.announcer "uniform" redraws the origin each run (uniform over
    all nodes on flat graphs, over tier-2 nodes on tiered ones); a node
    id is the origin of every run.  Runs use the kernel that
    BGPCONV_BACKEND selects (see active_backend).
    """
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    times = np.empty(runs, dtype=np.float64)
    announcers = np.empty(runs, dtype=np.int64)
    for r in range(runs):
        try:
            origin, node_times = _run_times(cfg, r)
        except UnreachableTopologyError as exc:
            raise UnreachableTopologyError(f"run {r}: {exc}") from exc
        times[r] = node_times.max()
        announcers[r] = origin
    return BatchResult(
        times=times, announcers=announcers, stats=RunStats.from_times(times)
    )


def format_trace(trace: DisseminationTrace) -> str:
    """Line-delimited trace: `time node_ids...`, one event per line."""
    lines = []
    for when, nodes in trace.events:
        ids = " ".join(str(i) for i in sorted(nodes))
        lines.append(f"{format(when, '.9g')} {ids}")
    return "\n".join(lines) + "\n"
