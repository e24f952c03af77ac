"""Row-wise and scalar bgp-degrees D(i|x), the reference for the tests.

The package evaluates D(i|x) through one vector path per family
(bgpconv.analytic._flat_degrees and _config_columns).  The functions
here compute the same degrees one (i, x) pair or one row x at a time,
independently of that path, so the equivalence tests compare two
implementations: bit for bit on config-model rows, within 1e-15 on
full-mesh and Poisson rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bgpconv.analytic import EPS_DEGREE, TAIL_FLOOR
from bgpconv.errors import DomainError, ModelDegenerateError
from bgpconv.model import ModelParams, informed_counts_row


@dataclass(frozen=True)
class StepContext:
    """The (i, x) pair every per-step formula is conditioned on.

    ``step`` is the dissemination step i in [1, N-k]; ``sdn_hit_step``
    is the step x in [0, N-k] at which the cluster first received the
    update (x = 0 means the announcing AS was a cluster member).
    """

    step: int
    sdn_hit_step: int

    def validate(self, params: ModelParams) -> None:
        steps = params.steps
        if not 1 <= self.step <= steps:
            raise DomainError(
                f"step must be in [1, {steps}], got {self.step}"
            )
        if not 0 <= self.sdn_hit_step <= steps:
            raise DomainError(
                f"sdn_hit_step must be in [0, {steps}], got {self.sdn_hit_step}"
            )


def informed_count(ctx: StepContext, params: ModelParams) -> int:
    """Number of informed nodes n(i|x) at step i given cluster hit at x.

    Before the cluster is reached each step informs one node, so
    n(i|x) = i for i <= x.  The hit itself informs the whole cluster at
    once, so every later step carries the extra k - 1 members:
    n(i|x) = i + k - 1 for i > x.
    """
    ctx.validate(params)
    if ctx.step <= ctx.sdn_hit_step:
        return ctx.step
    return ctx.step + params.k_cluster - 1


def degree_full_mesh(ctx: StepContext, params: ModelParams) -> int:
    """Exact bgp-degree on the full mesh: every uninformed node is eligible."""
    return params.n_total - informed_count(ctx, params)


def degree_poisson(ctx: StepContext, params: ModelParams, p_edge: float) -> float:
    """Expected bgp-degree on an edge-probability-p graph.

    Each of the N - n uninformed nodes is adjacent to at least one of
    the n informed nodes with probability 1 - (1 - p)^n.
    """
    if not 0.0 <= p_edge <= 1.0:
        raise DomainError(f"p_edge must be in [0, 1], got {p_edge}")
    n = informed_count(ctx, params)
    return (params.n_total - n) * (1.0 - (1.0 - p_edge) ** n)


def degree_config_first(x: int, params: ModelParams, mu_d: float) -> float:
    """Expected first-step bgp-degree on a config-model graph.

    For x > 0 the announcer is a typical node, so its expected degree is
    mu_d.  For x = 0 the whole k-cluster is informed at once and the
    expected count of distinct outside neighbors is
    (N - k) * mu_d * ln(N / (N - k)).
    """
    if not mu_d > 0:
        raise DomainError(f"mu_d must be positive, got {mu_d}")
    n, k = params.n_total, params.k_cluster
    if k == n:
        raise DomainError("no steps remain when the cluster spans the network")
    steps = params.steps
    if not 0 <= x <= steps:
        raise DomainError(f"x must be in [0, {steps}], got {x}")
    if x > 0:
        return mu_d
    return (n - k) * mu_d * math.log(n / (n - k))


def _config_row_raw(
    x: int, params: ModelParams, mu_d: float, cv_d: float
) -> np.ndarray:
    """Raw closed-form config-model degree row D(.|x), no floor applied.

    Evaluated through the running recurrence
    D(i) = A(i-1) * D(i-1) + (mu_d(i-1) - 1),
    which unrolls to the product-plus-sum closed form exactly.  The
    mean residual degree mu_d(j) of the j-th informed node decays
    because early steps preferentially reach high-degree nodes:
    mu_d(j) = mu_d * prod_{m=1}^{j-1} (1 - cv_d^2 / (N - n(m|x) - 1)).
    """
    n_total, k = params.n_total, params.k_cluster
    steps = params.steps
    out = np.empty(steps, dtype=np.float64)
    out[0] = degree_config_first(x, params, mu_d)
    mu_j = mu_d
    cv2 = cv_d * cv_d
    for i in range(2, steps + 1):
        j = i - 1
        n_j = j if j <= x else j + k - 1
        denom = n_total - n_j - 1  # n_j <= N - 2 for every step that exists
        attenuation = 1.0 - mu_j / denom
        out[i - 1] = attenuation * out[i - 2] + (mu_j - 1.0)
        mu_j *= 1.0 - cv2 / denom
    return out


def config_degree_row(
    x: int,
    params: ModelParams,
    mu_d: float,
    cv_d: float,
    degenerate: str = "error",
) -> np.ndarray:
    """Config-model degree row with degenerate-step handling.

    degenerate="error": raise ModelDegenerateError at the first step
    whose raw value falls below EPS_DEGREE.  degenerate="clamp": from
    the first step whose raw value falls below TAIL_FLOOR, substitute
    the exact full-mesh degree N - n(i|x) for the rest of the row.
    """
    row = _config_row_raw(x, params, mu_d, cv_d)
    if degenerate == "error":
        bad = np.flatnonzero(row < EPS_DEGREE)
        if bad.size:
            i = int(bad[0])
            raise ModelDegenerateError(i + 1, x, float(row[i]))
        return row
    if degenerate == "clamp":
        low = np.flatnonzero(row < TAIL_FLOOR)
        if low.size:
            i0 = int(low[0])
            n_row = informed_counts_row(x, params)
            row[i0:] = params.n_total - n_row[i0:]
        return row
    raise DomainError(f"degenerate must be 'error' or 'clamp', got {degenerate!r}")
