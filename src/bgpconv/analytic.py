"""Closed-form convergence-time evaluation.

Everything here evaluates expectations of the dissemination model
described in :mod:`bgpconv.model`: per-step bgp-degrees for each
topology family, the expected convergence time as the P_sdn-weighted
sum of per-step delays, and the two-branch composition used for the
tiered Internet-core setting.

The bgp-degree D(i|x) is the number of uninformed ASes adjacent to the
informed set at step i; the next propagation event is the minimum of
D(i|x) independent Exp(lam) clocks, so the step delay is
1 / (lam * D(i|x)).  Full-mesh degrees are exact; Poisson and
config-model degrees are expectations substituted for the random degree
(a convexity argument makes the resulting time an underestimate of the
true mean for the exact model).

Each family has one degree computation, vectorized over x.  Full mesh
and Poisson: _flat_degrees gives D as a function of the informed count
n alone, and D(i|x) = D(n(i|x)).  Config model: _config_columns runs
the degree recurrence one step i at a time in one loop, updating the
rows [0, i) in place and carrying the rows x >= i, which share one
state, as scalars; it returns E[T|x] in about N^2/2 elementwise work
and, when asked, fills the D(i|x) matrix in the same pass.  Both
convergence_time and the matrix behind ConvergenceEstimate.profile
read these two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, ModelDegenerateError, UnreachableTopologyError
from .model import (
    ConfigModel,
    FullMesh,
    ModelParams,
    Poisson,
    TieredCore,
    TopologySpec,
    informed_counts_row,
    p_sdn_distribution,
)

# Finiteness floor for closed-form degrees.  A raw value below this is
# treated as a degenerate step: the default is to raise, because a
# silently clamped 1/EPS_DEGREE delay would dominate the whole sum.
EPS_DEGREE = 1e-6

# Clamp-mode repair threshold.  One uninformed eligible neighbor is the
# smallest degree any reachable pre-convergence state can have, so once
# the approximate recurrence drops below 1 its premise (mean residual
# degree small against the uninformed pool) has collapsed and the
# remaining steps are evaluated with the exact full-mesh degree instead.
TAIL_FLOOR = 1.0


@dataclass(frozen=True, eq=False)
class BgpDegreeProfile:
    """Matrix of bgp-degrees D(i|x), rows x in [0, N-k], columns i in [1, N-k]."""

    values: np.ndarray


@dataclass(frozen=True, eq=False)
class ConvergenceEstimate:
    """Expected convergence time with its conditional decomposition.

    ``expected_time`` is derived: the P_sdn-weighted sum of
    ``per_x_expectation``, in compensated summation.  ``model`` and
    ``degenerate`` are the spec and mode the estimate was evaluated
    with; ``profile`` rebuilds the D(i|x) matrix from them on first
    access.
    """

    per_x_expectation: np.ndarray  # E[T|x] for x in [0, N-k]
    p_sdn: np.ndarray
    model: TopologySpec
    degenerate: str
    expected_time: float = field(init=False)

    def __post_init__(self) -> None:
        total = math.fsum((self.per_x_expectation * self.p_sdn).tolist())
        object.__setattr__(self, "expected_time", total)

    @cached_property
    def profile(self) -> BgpDegreeProfile:
        """The full D(i|x) matrix; O(N^2) memory, built on first access."""
        return BgpDegreeProfile(_profile_rows(self.model, self.degenerate))


@dataclass(frozen=True)
class CoreEstimate:
    """Decomposed expected convergence time for the tiered-core setting.

    ``t_transit`` is derived as the transit stages added left to right,
    and ``t_total`` as the slower of the two branches.
    """

    t_peering: float
    t_x_tier1: float
    t_tier1: float
    t_tier1_tier2: float
    t_transit: float = field(init=False)
    t_total: float = field(init=False)

    def __post_init__(self) -> None:
        transit = self.t_x_tier1 + self.t_tier1 + self.t_tier1_tier2
        object.__setattr__(self, "t_transit", transit)
        object.__setattr__(self, "t_total", max(self.t_peering, transit))


def _flat_degrees(spec: FullMesh | Poisson) -> np.ndarray:
    """D as a function of the informed count alone, for n = 1..N-1.

    Full-mesh and Poisson degrees depend on (i, x) only through
    n(i|x), so D(i|x) = degrees[n(i|x) - 1].
    """
    n_total = spec.params.n_total
    n = np.arange(1, n_total, dtype=np.int64)
    if isinstance(spec, FullMesh):
        return (n_total - n).astype(np.float64)
    return (n_total - n) * (1.0 - (1.0 - spec.p_edge) ** n)


def _check_flat_degrees(degrees: np.ndarray, params: ModelParams) -> None:
    """Raise at the first sub-floor degree, in row-major (x, i) order.

    Row x uses the counts n in [1, x] and [x + k, N - 1], so a bad count
    at or above k first shows in row 0, and one below k first shows in
    row x = n.  D is concave in n, so if any count is bad, n = 1 or
    n = N - 1 is, and that row exists.
    """
    bad = degrees < EPS_DEGREE
    if not bad.any():
        return
    bad_n = np.flatnonzero(bad) + 1
    x = 0 if bad_n[-1] >= params.k_cluster else int(bad_n[0])
    n_row = informed_counts_row(x, params)
    i = int(np.flatnonzero(bad[n_row - 1])[0])
    raise ModelDegenerateError(i + 1, x, float(degrees[n_row[i] - 1]))


def _config_columns(
    spec: ConfigModel, degenerate: str, values: np.ndarray | None = None
) -> np.ndarray:
    """Config-model E[T|x] over every x in [0, N-k], one step i at a time.

    Runs the recurrence D(i) = A(i-1) * D(i-1) + (mu_d(i-1) - 1), with
    A(j) = 1 - mu_d(j) / (N - n(j|x) - 1).  The mean residual degree
    mu_d(j) of the j-th informed node decays because early steps
    preferentially reach high-degree nodes:
    mu_d(j) = mu_d * prod_{m=1}^{j-1} (1 - cv_d^2 / (N - n(m|x) - 1)).

    At step i the rows x >= max(i, 1) have taken only pre-hit steps, so
    they share one state (D, mu_d, clamp flag, running sum), kept as
    scalars; the rows [0, i) the hit has reached share one denominator
    per step and are updated in place, in about N^2/2 elementwise work.
    Each entry takes the same operations in the same order as a row
    evaluated alone, and E[T|x] adds its (1/lam) / D(i|x) left to right.
    If ``values`` is given, D(i|x) also goes to its column i - 1.

    Clamp mode switches a row to the full-mesh degree N - n(i|x) from
    its first step below TAIL_FLOOR on.  Error mode raises
    ModelDegenerateError at the first sub-floor entry in row-major
    (x, i) order; once it has seen one, it runs on only over the rows
    that could still hold an earlier one.  Until some entry falls below
    its floor, both modes check a step with one NaN-ignoring minimum
    (NaN is never below a floor) and skip the per-row logic.
    """
    params = spec.params
    n_total, k, steps = params.n_total, params.k_cluster, params.steps
    inv_lam = 1.0 / params.lam
    mu_d, cv2 = spec.mu_d, spec.cv_d * spec.cv_d
    clamp = degenerate == "clamp"
    floor = TAIL_FLOOR if clamp else EPS_DEGREE
    divide, subtract, multiply, add = np.divide, np.subtract, np.multiply, np.add
    fmin_reduce = np.fmin.reduce
    # the rows the hit has reached; row 0 starts there, its first degree
    # the expected count of distinct outside neighbors of the cluster
    d = np.empty(steps, dtype=np.float64)
    mu = np.empty(steps, dtype=np.float64)
    clamped = np.zeros(steps, dtype=bool)
    scratch = np.empty(steps, dtype=np.float64)
    per_x = np.empty(steps + 1, dtype=np.float64)
    d[0] = (n_total - k) * mu_d * math.log(n_total / (n_total - k))
    mu[0] = mu_d
    # the block of rows [i, N-k], which share one state
    d_s, mu_s, clamped_s, tail_sum = mu_d, mu_d, False, 0.0
    exact = False  # per-row checks, from the first step with an entry below its floor
    bad: tuple[int, int, float] | None = None
    limit = steps + 1  # rows that can still hold the first sub-floor entry
    for i in range(1, steps + 1):
        if i > 1:
            # denom = N - n(i-1|x) - 1 >= 1: n = i + k - 2 on the rows
            # [0, i-1) the hit has reached, n = i - 1 in the block
            denom = n_total - i - k + 1
            d_h, mu_h, t = d[: i - 1], mu[: i - 1], scratch[: i - 1]
            divide(mu_h, denom, out=t)
            subtract(1.0, t, out=t)
            multiply(d_h, t, out=d_h)
            subtract(mu_h, 1.0, out=t)
            add(d_h, t, out=d_h)
            multiply(mu_h, 1.0 - cv2 / denom, out=mu_h)
            denom = n_total - i
            d_s = (1.0 - mu_s / denom) * d_s + (mu_s - 1.0)
            mu_s *= 1.0 - cv2 / denom
            # the hit reaches row i-1 at step i: it leaves the block
            d[i - 1], mu[i - 1], clamped[i - 1] = d_s, mu_s, clamped_s
        head = d[:i]
        if not exact:
            # a clamped block hands clamped rows to the head from the next step
            exact = clamped_s or fmin_reduce(head) < floor
        if clamp:
            if exact:
                clamped[:i] |= head < TAIL_FLOOR
                head = np.where(clamped[:i], float(n_total - (i + k - 1)), head)
            clamped_s = clamped_s or d_s < TAIL_FLOOR
            tail = float(n_total - i) if clamped_s else d_s
        else:
            if exact and (low := np.flatnonzero(head[:limit] < EPS_DEGREE)).size:
                limit = int(low[0])
                bad = (i, limit, float(head[limit]))
                if limit == 0:
                    break
            elif d_s < EPS_DEGREE and i < limit:
                limit = i
                bad = (i, i, d_s)
            if bad is not None:
                continue
            tail = d_s
        per_x[i - 1] = tail_sum
        f, acc = scratch[:i], per_x[:i]
        divide(inv_lam, head, out=f)
        add(acc, f, out=acc)
        tail_sum += inv_lam / tail
        if values is not None:
            values[:i, i - 1] = head
            values[i:, i - 1] = tail
    if bad is not None:
        raise ModelDegenerateError(*bad)
    per_x[-1] = tail_sum
    return per_x


def _profile_rows(spec: FullMesh | Poisson | ConfigModel, degenerate: str) -> np.ndarray:
    """D(i|x) filled one column i at a time, so each write is contiguous."""
    params = spec.params
    steps, k = params.steps, params.k_cluster
    values = np.empty((steps + 1, steps), dtype=np.float64, order="F")
    if steps == 0:
        return values
    if isinstance(spec, ConfigModel):
        _config_columns(spec, degenerate, values)
        return values
    degrees = _flat_degrees(spec)
    _check_flat_degrees(degrees, params)
    # rows x < i have taken the hit, n(i|x) = i + k - 1; rows x >= i have n = i
    for i in range(1, steps + 1):
        values[:i, i - 1] = degrees[i + k - 2]
        values[i:, i - 1] = degrees[i - 1]
    return values


def convergence_time(spec: TopologySpec, degenerate: str = "error") -> ConvergenceEstimate:
    """Expected convergence time E[T] for a flat topology spec.

    E[T] = (1/lam) * sum_x P_sdn(x) * sum_i 1 / D(i|x), with D(i|x)
    exact for the full mesh and an expectation for the random-graph
    families.  ``degenerate`` selects config-model handling of steps
    where the closed form collapses: "error" raises at the first step
    below EPS_DEGREE, "clamp" substitutes the exact full-mesh degree
    from the first step below TAIL_FLOOR on (see _config_columns).

    Full mesh and Poisson: with f(n) = (1/lam) / D(n), each
    E[T|x] = sum_{n<=x} f(n) + sum_{n>=x+k} f(n), one prefix and one
    suffix sum, O(N) time and memory.  Config model: the recurrence runs
    once per step over the rows the cluster hit has reached, while the
    rest share one running sum; O(N) memory.  The outer P_sdn-weighted
    accumulation uses compensated summation.  The D(i|x) matrix itself
    is built only if ``profile`` is read.  An E[T] that overflows is a
    DomainError.
    """
    if degenerate not in ("error", "clamp"):
        raise DomainError(f"degenerate must be 'error' or 'clamp', got {degenerate!r}")
    if isinstance(spec, TieredCore):
        raise DomainError("tiered-core is evaluated by core_convergence_time")
    params = spec.params
    if params.steps == 0:
        per_x = np.zeros(1)
    elif isinstance(spec, ConfigModel):
        per_x = _config_columns(spec, degenerate)
    else:
        # a sub-floor Poisson or full-mesh degree means the spec itself
        # cannot disseminate (e.g. p_edge = 0), whatever the mode
        degrees = _flat_degrees(spec)
        _check_flat_degrees(degrees, params)
        f = (1.0 / params.lam) / degrees
        prefix = np.concatenate(([0.0], np.cumsum(f)))  # sum over n <= x
        suffix = np.concatenate((np.cumsum(f[::-1])[::-1], [0.0]))  # over n >= m, at m - 1
        per_x = prefix[: params.steps + 1] + suffix[params.k_cluster - 1 :]
    est = ConvergenceEstimate(per_x, p_sdn_distribution(params), spec, degenerate)
    if not math.isfinite(est.expected_time):
        raise DomainError(f"expected convergence time overflows at lam {params.lam}")
    return est


def round_half_up(value: float) -> int:
    """value rounded to the nearest integer, halves up (not to even)."""
    return int(math.floor(value + 0.5))


def core_convergence_time(spec: TieredCore) -> CoreEstimate:
    """Two-branch expected convergence time for the tiered core.

    The announcer is a tier-2 AS.  Its peers are covered by a full-mesh
    process over round(n2 * p22) nodes (peering branch).  Everyone else
    is covered through transit: time to reach the first provider,
    1 / (lam * p12 * n1); dissemination across tier-1, a Poisson-graph
    process with the cluster; then delivery to the remaining
    round(n2 * (1 - p22)) tier-2 ASes, modeled as a full mesh running at
    the provider-aggregated rate n1 * p12 * lam.  The slower branch
    determines the total.

    Branch sizes of 0 or 1 need no dissemination and contribute 0; a
    transit branch time that overflows is a DomainError.
    """
    if spec.p12 == 0.0:
        raise UnreachableTopologyError(
            "p12 = 0 leaves tier-2 ASes without transit; the transit branch never completes"
        )
    lam = spec.lam
    # the first-provider delay and the tier-1 -> tier-2 mesh both run at
    # the transit rate n1 * p12 * lam, each product in its own order
    for rate in (lam * spec.p12 * spec.n1, spec.n1 * spec.p12 * lam):
        if rate == 0.0 or 1.0 / rate == math.inf:
            raise DomainError(
                f"transit rate n1 * p12 * lam has no finite reciprocal: "
                f"lam {lam}, p12 {spec.p12}, n1 {spec.n1}"
            )
    m_peer = round_half_up(spec.n2 * spec.p22)
    m_rest = round_half_up(spec.n2 * (1.0 - spec.p22))

    if m_peer > 1:
        t_peering = convergence_time(
            FullMesh(ModelParams(m_peer, 1, lam))
        ).expected_time
    else:
        t_peering = 0.0

    t_x_tier1 = 1.0 / (lam * spec.p12 * spec.n1)

    t_tier1 = convergence_time(
        Poisson(ModelParams(spec.n1, spec.k1, lam), spec.p11)
    ).expected_time

    if m_rest > 1:
        t_tier1_tier2 = convergence_time(
            FullMesh(ModelParams(m_rest, 1, spec.n1 * spec.p12 * lam))
        ).expected_time
    else:
        t_tier1_tier2 = 0.0

    est = CoreEstimate(t_peering, t_x_tier1, t_tier1, t_tier1_tier2)
    if not math.isfinite(est.t_transit):
        raise DomainError(f"transit branch time overflows at lam {lam}")
    return est
