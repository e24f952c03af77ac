"""Experiment harness: penetration sweeps, the tiered-core case study,
and machine-readable CSV/JSON emission.

Every experiment is deterministic given its master seed, and every
simulated mean comes from simulate._run_batch.  Sweep point i draws one
graph and a batch seed from (master_seed, i, salt); run r of case-study
point j redraws graph and announcer from (master_seed, j, r, salt),
because tiered reachability depends on the announcer.  Both drivers
build their rows through _measured and _failed.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence, Union

import numpy as np

from .analytic import convergence_time, core_convergence_time
from .errors import DOMAIN_ERRORS, DomainError, UnreachableTopologyError
from .graphs import Graph, draw_attempt, ensure_reachable, gen_power_law_degrees
from .model import ConfigModel, ModelParams, TieredCore, TopologySpec, degree_stats
from .simulate import RunConfig, RunStats, _run_batch, derive_seed, simulate_batch

_GRAPH_SALT = 1
_SIM_SALT = 2
_DEGSEQ_SALT = 3

# k = 0 is outside the model, so the 0.0 label maps to k = 1 (the
# no-effective-centralization baseline).
DEFAULT_FRACTIONS = tuple(round(i / 10, 1) for i in range(11))

# the errors a sweep or grid point records in-row before going on
_POINT_ERRORS = (*DOMAIN_ERRORS, UnreachableTopologyError)

# The simulator policy for each reachability policy: a regenerated draw
# reaches every node, so its runs must cover them all.
RUN_POLICY = {"regenerate": "strict", "reachable-only": "reachable-only"}


def draw_point(spec: TopologySpec, seed: int, policy: str) -> tuple[Graph, int]:
    """One topology draw and a uniform announcer on it.

    "regenerate" redraws until the announcer reaches every node
    (ensure_reachable); "reachable-only" keeps attempt 0 of that same
    stream (draw_attempt), reachable or not.  Any other policy is a
    DomainError.
    """
    if policy not in RUN_POLICY:
        raise DomainError(f"unknown policy {policy!r}")
    if policy == "regenerate":
        draw = ensure_reachable(spec, seed)
        return draw.graph, draw.announcer
    return draw_attempt(spec, seed, 0)


def fraction_to_k(n_total: int, fraction: float) -> int:
    """Map a penetration label k/N onto a valid cluster size."""
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"penetration fraction must be in [0, 1], got {fraction}")
    return min(n_total, max(1, int(math.floor(n_total * fraction + 0.5))))


def power_law_config_spec(
    n_total: int,
    d_min: int,
    d_max: int,
    exponent: float,
    master_seed: int,
    lam: float = 1.0,
) -> ConfigModel:
    """Configuration-model template with one power-law degree sequence.

    The sequence is drawn once from the master seed and then shared by
    every sweep point, so the sweep varies only the cluster size.
    """
    degrees = gen_power_law_degrees(
        n_total, d_min, d_max, exponent, derive_seed(master_seed, _DEGSEQ_SALT)
    )
    return ConfigModel(
        ModelParams(n_total, 1, lam), degree_seq=tuple(int(d) for d in degrees)
    )


@dataclass(frozen=True)
class SweepSpec:
    """A penetration sweep over one flat topology template.

    sweep_values are k/N fractions; the template's cluster size is
    replaced point by point, so a configuration-model template must
    carry a concrete degree sequence.  p22/k1 grids over a tiered core
    belong to run_case_study.
    """

    topology: TopologySpec
    sweep_values: tuple[float, ...] = DEFAULT_FRACTIONS
    runs_per_point: int = 200
    master_seed: int = 0
    policy: str = "regenerate"

    def __post_init__(self) -> None:
        if not self.sweep_values:
            raise DomainError("sweep needs at least one value")
        if self.runs_per_point < 1:
            raise DomainError("runs_per_point must be >= 1")
        if self.policy not in RUN_POLICY:
            raise DomainError(f"unknown policy {self.policy!r}")
        if isinstance(self.topology, TieredCore):
            raise DomainError("penetration sweeps need a flat topology template")
        if isinstance(self.topology, ConfigModel) and self.topology.degree_seq is None:
            raise DomainError("sweep over a config model needs a degree sequence")
        for v in self.sweep_values:
            if not 0.0 <= float(v) <= 1.0:
                raise DomainError(f"sweep value {v} outside [0, 1]")


@dataclass(frozen=True)
class ComparisonRow:
    """One sweep point: closed form vs Monte Carlo."""

    sweep_value: float
    analytic: float
    sim_mean: float
    sim_std_err: float
    rel_error: float
    jensen_ok: bool
    runs: int
    seed: int
    error: str | None = None


def _measured(analytic: float, stats: RunStats) -> dict:
    """A row's simulated columns: sim_mean, sim_std_err and rel_error."""
    if stats.mean == 0.0:
        rel_error = 0.0 if analytic == 0.0 else math.inf
    else:
        rel_error = abs(analytic - stats.mean) / stats.mean
    return dict(sim_mean=stats.mean, sim_std_err=stats.std_err, rel_error=rel_error)


def _failed(row_type: type, exc: Exception, keys: dict):
    """The row of a point that raised exc: the keys as given, every other
    float NaN, every flag False, and error "Type: msg"."""
    fill = {"float": math.nan, "bool": False}
    blank = {f.name: fill[f.type] for f in fields(row_type)
             if f.type in fill and f.name not in keys}
    return row_type(**keys, **blank, error=f"{type(exc).__name__}: {exc}")


def run_sweep(spec: SweepSpec) -> list[ComparisonRow]:
    """Evaluate analytic vs simulated convergence across the sweep.

    Each point draws one fixed graph (regenerated until reachable under
    the default policy), evaluates the closed form, then runs a batch
    with per-run uniform announcers.  For configuration models the
    closed form is fed the realized post-erasure degree statistics.
    A failing point is recorded in-row and the sweep continues.
    """
    rows: list[ComparisonRow] = []
    template = spec.topology
    for i, fraction in enumerate(sorted(float(v) for v in spec.sweep_values)):
        keys = dict(sweep_value=fraction, runs=spec.runs_per_point, seed=spec.master_seed)
        try:
            k = fraction_to_k(template.params.n_total, fraction)
            point = replace(template, params=replace(template.params, k_cluster=k))
            graph, _ = draw_point(
                point, derive_seed(spec.master_seed, i, _GRAPH_SALT), spec.policy
            )
            if isinstance(point, ConfigModel):
                mu_d, cv_d = degree_stats(graph.degrees)
                estimate = convergence_time(
                    ConfigModel(point.params, mu_d=mu_d, cv_d=cv_d),
                    degenerate="clamp",
                )
            else:
                estimate = convergence_time(point)
            analytic = estimate.expected_time
            cfg = RunConfig(
                graph,
                "uniform",
                point.params.lam,
                derive_seed(spec.master_seed, i, _SIM_SALT),
                RUN_POLICY[spec.policy],
            )
            stats = simulate_batch(cfg, spec.runs_per_point).stats
        except _POINT_ERRORS as exc:
            rows.append(_failed(ComparisonRow, exc, keys))
            continue
        rows.append(
            ComparisonRow(
                **keys,
                analytic=analytic,
                **_measured(analytic, stats),
                jensen_ok=analytic <= stats.mean + 2.0 * stats.std_err,
            )
        )
    return rows


@dataclass(frozen=True)
class CoreRow:
    """One case-study grid point: tiered closed form vs Monte Carlo."""

    p22: float
    k1: int
    analytic_total: float
    analytic_peering: float
    analytic_transit: float
    sim_mean: float
    sim_std_err: float
    rel_error: float
    runs: int
    seed: int
    beats_baseline: bool
    error: str | None = None


@dataclass(frozen=True, eq=False)
class CaseStudyResult:
    """Grid rows plus, per p22, the smallest k1 whose analytic total
    beats the k1 = 1 flattening-only baseline (None when nothing does)."""

    rows: tuple[CoreRow, ...]
    best_k1: dict


def _grid_run(
    spec: TieredCore, master_seed: int, point: int, policy: str, r: int
) -> tuple[Graph, int, int]:
    """Run r of grid point `point`: a fresh graph, its announcer, a clock seed."""
    graph, origin = draw_point(spec, derive_seed(master_seed, point, r, _GRAPH_SALT), policy)
    return graph, origin, derive_seed(master_seed, point, r, _SIM_SALT)


def run_case_study(
    template: TieredCore,
    p22_values: Sequence[float],
    k1_values: Sequence[int],
    runs_per_point: int = 5000,
    master_seed: int = 0,
    policy: str = "regenerate",
) -> CaseStudyResult:
    """Grid evaluation over (p22, k1) of the tiered-core model.

    The graph AND the tier-2 announcer are redrawn jointly for every
    run (reachability depends on the announcer in the tiered model).
    Unreachable or otherwise failing grid points are marked in-row and
    the grid continues.
    """
    if runs_per_point < 1:
        raise DomainError("runs_per_point must be >= 1")
    if policy not in RUN_POLICY:
        raise DomainError(f"unknown policy {policy!r}")
    if not p22_values or not k1_values:
        raise DomainError("case study needs nonempty p22 and k1 grids")

    p22_grid = sorted(float(p) for p in p22_values)
    baselines: dict[float, float] = {}
    for p22 in sorted(set(p22_grid)):
        try:
            baselines[p22] = core_convergence_time(
                replace(template, k1=1, p22=p22)
            ).t_total
        except _POINT_ERRORS:
            baselines[p22] = math.nan

    rows: list[CoreRow] = []
    best_k1: dict = dict.fromkeys(baselines)
    grid = itertools.product(p22_grid, sorted(int(k) for k in k1_values))
    for j, (p22, k1) in enumerate(grid):
        keys = dict(p22=p22, k1=k1, runs=runs_per_point, seed=master_seed)
        try:
            spec_pt = replace(template, k1=k1, p22=p22)
            est = core_convergence_time(spec_pt)
            draw = functools.partial(_grid_run, spec_pt, master_seed, j, policy)
            batch = _run_batch(draw, runs_per_point, spec_pt.lam, RUN_POLICY[policy])
        except _POINT_ERRORS as exc:
            rows.append(_failed(CoreRow, exc, keys))
            continue
        beats = est.t_total < baselines[p22]
        if beats and (best_k1[p22] is None or k1 < best_k1[p22]):
            best_k1[p22] = k1
        rows.append(
            CoreRow(
                **keys,
                analytic_total=est.t_total,
                analytic_peering=est.t_peering,
                analytic_transit=est.t_transit,
                **_measured(est.t_total, batch.stats),
                beats_baseline=beats,
            )
        )
    return CaseStudyResult(rows=tuple(rows), best_k1=best_k1)


EmitRows = Union[
    Sequence[ComparisonRow], Sequence[CoreRow], CaseStudyResult, Mapping[str, object]
]


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value is None or isinstance(value, str):
        return value
    return float(format(float(value), ".9g"))  # cap at 9 significant digits


def emit(rows: EmitRows, format: str = "csv", path: str | None = None) -> str:
    """Serialize result rows, or one record given as a mapping; optionally
    write them to path.

    CSV columns are the row dataclass's fields without ``error``, in
    field order (failed points serialize as nan); JSON mirrors the field
    names and adds the per-row error marker, plus best_k1 for case-study
    results.  A mapping serializes as one CSV line under its keys, one
    JSON object, or, in any other format ("text"), `key = value` lines.
    """
    best_k1 = None
    if isinstance(rows, Mapping):
        columns, records = tuple(rows), [rows]
    else:
        if isinstance(rows, CaseStudyResult):
            best_k1 = rows.best_k1
            rows = rows.rows
        rows = list(rows)
        if not rows:
            raise DomainError("no rows to emit")
        if not isinstance(rows[0], (ComparisonRow, CoreRow)):
            raise DomainError(f"cannot emit rows of type {type(rows[0]).__name__}")
        columns = tuple(f.name for f in fields(rows[0]) if f.name != "error")
        if any(not isinstance(r, type(rows[0])) for r in rows):
            raise DomainError("mixed row types in one emission")
        records = [{f.name: getattr(row, f.name) for f in fields(row)} for row in rows]

    if format == "csv":
        lines = [",".join(columns)]
        for record in records:
            lines.append(",".join(_fmt_cell(record[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    elif format == "json":
        payload = [{k: _json_value(v) for k, v in r.items()} for r in records]
        if isinstance(rows, Mapping):
            payload = payload[0]
        elif best_k1 is not None:
            payload = {
                "rows": payload,
                "best_k1": {_fmt_cell(p): best_k1[p] for p in sorted(best_k1)},
            }
        text = json.dumps(payload, indent=2) + "\n"
    elif isinstance(rows, Mapping):
        text = "".join(f"{k} = {_fmt_cell(v)}\n" for k, v in rows.items())
    else:
        raise DomainError(f"unknown output format {format!r}")

    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text


def parse_config(path: str) -> dict[str, str]:
    """Read a flat `key = value` config file.

    Blank lines and # comments (full-line or trailing) are ignored;
    later duplicate keys win.  Values stay raw strings; the CLI owns
    type conversion so its flags can override file entries uniformly.
    """
    options: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected `key = value`")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise DomainError(f"{path}:{lineno}: empty key")
            options[key] = value.strip()
    return options
