"""Core model types and the SDN-hit-step distribution.

The dissemination model: N ASes hold BGP routes; k of them form an SDN
cluster whose members all learn an update the instant any one of them
does (controller latency is taken as zero).  Every other propagation hop
takes an independent Exp(lambda) time.  Dissemination is tracked as a
sequence of steps; step i has n(i|x) informed nodes, where x is the step
at which the cluster was first reached.  This module houses the shared
parameter records, the informed-count bookkeeping n(i|x), and the
distribution P_sdn(x) of the cluster-hit step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError


def _check_rate(lam: float) -> None:
    """DomainError unless lam and 1/lam are both finite and positive."""
    if not 0.0 < lam < math.inf or 1.0 / float(lam) == math.inf:
        raise DomainError(f"lam must be positive with a finite reciprocal, got {lam}")


@dataclass(frozen=True)
class ModelParams:
    """Global parameters shared by every analytic model.

    Attributes
    ----------
    n_total:
        Number of ASes in the network (N).
    k_cluster:
        Number of ASes in the SDN cluster (k), 1 <= k <= N.
    lam:
        Per-neighbor forwarding rate of BGP updates, in 1/time; it and
        its reciprocal must be finite and positive.
    """

    n_total: int
    k_cluster: int
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise DomainError(f"n_total must be >= 1, got {self.n_total}")
        if not 1 <= self.k_cluster <= self.n_total:
            raise DomainError(
                f"k_cluster must be in [1, {self.n_total}], got {self.k_cluster}"
            )
        _check_rate(self.lam)

    @property
    def steps(self) -> int:
        """Number of dissemination steps, N - k."""
        return self.n_total - self.k_cluster


@dataclass(frozen=True)
class FullMesh:
    """Every AS pair is connected."""

    params: ModelParams


@dataclass(frozen=True)
class Poisson:
    """Each AS pair is connected independently with probability p_edge."""

    params: ModelParams
    p_edge: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_edge <= 1.0:
            raise DomainError(f"p_edge must be in [0, 1], got {self.p_edge}")


@dataclass(frozen=True)
class ConfigModel:
    """Random graph with a prescribed degree sequence or its summary stats.

    Either pass a concrete ``degree_seq`` (every entry >= 1; the graph
    generator enforces even stub parity), or pass mean degree ``mu_d``
    and coefficient of variation ``cv_d`` for analytic-only evaluation.
    When a sequence is given, mu_d and cv_d are computed from it.
    """

    params: ModelParams
    mu_d: float | None = None
    cv_d: float | None = None
    degree_seq: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.degree_seq is not None:
            seq = tuple(int(d) for d in self.degree_seq)
            if len(seq) != self.params.n_total:
                raise DomainError(
                    f"degree_seq length {len(seq)} != n_total {self.params.n_total}"
                )
            if any(d < 1 for d in seq):
                raise DomainError("every degree must be >= 1")
            object.__setattr__(self, "degree_seq", seq)
            mu, cv = degree_stats(seq)
            object.__setattr__(self, "mu_d", mu)
            object.__setattr__(self, "cv_d", cv)
        else:
            if self.mu_d is None or self.cv_d is None:
                raise DomainError("ConfigModel needs degree_seq or (mu_d, cv_d)")
            if not 0.0 < self.mu_d < math.inf:
                raise DomainError(f"mu_d must be positive and finite, got {self.mu_d}")
            if not 0.0 <= self.cv_d < math.inf:
                raise DomainError(f"cv_d must be >= 0 and finite, got {self.cv_d}")


@dataclass(frozen=True)
class TieredCore:
    """Two-tier core: n1 transit providers over n2 customer ASes.

    Tier-1 ASes peer with each other with probability p11 and serve a
    given tier-2 AS with probability p12; tier-2 ASes peer with each
    other with probability p22.  k1 tier-1 ASes form the SDN cluster.
    """

    n1: int
    n2: int
    k1: int
    p11: float
    p12: float
    p22: float
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise DomainError("n1 and n2 must be >= 1")
        if not 1 <= self.k1 <= self.n1:
            raise DomainError(f"k1 must be in [1, {self.n1}], got {self.k1}")
        for name in ("p11", "p12", "p22"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {v}")
        _check_rate(self.lam)


TopologySpec = Union[FullMesh, Poisson, ConfigModel, TieredCore]


def p_sdn_distribution(params: ModelParams) -> np.ndarray:
    """Vector of P_sdn(x) for x in [0, N-k]; sums to 1 within 1e-9.

    Under a uniformly random informing order (which also underlies the
    enumeration oracle used in the tests), the first cluster member is
    informed at position x + 1 with probability C(N-1-x, k-1) / C(N, k).
    That is P(0) = k/N and P(x+1) = P(x) * (N-k-x) / (N-1-x), evaluated
    as one cumulative product; at k = 1 every ratio is exactly 1.0, so
    every entry is exactly 1/N.
    """
    n, k = params.n_total, params.k_cluster
    x = np.arange(params.steps, dtype=np.int64)
    return np.cumprod(np.concatenate(([k / n], (n - k - x) / (n - 1 - x))))


def informed_counts_row(x: int, params: ModelParams) -> np.ndarray:
    """n(i|x) for all steps i in [1, N-k] as an integer vector.

    Before the cluster is reached each step informs one node, so
    n(i|x) = i for i <= x.  The hit itself informs the whole cluster at
    once, so every later step carries the extra k - 1 members:
    n(i|x) = i + k - 1 for i > x.
    """
    steps = params.steps
    if not 0 <= x <= steps:
        raise DomainError(f"x must be in [0, {steps}], got {x}")
    i = np.arange(1, steps + 1, dtype=np.int64)
    return np.where(i <= x, i, i + params.k_cluster - 1)


def degree_stats(degrees: Sequence[int] | np.ndarray) -> tuple[float, float]:
    """(mean, coefficient of variation) of a degree sequence."""
    arr = np.asarray(degrees, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("degree sequence is empty")
    mu = float(arr.mean())
    if mu <= 0:
        raise DomainError("degree sequence mean must be positive")
    return mu, float(arr.std() / mu)
