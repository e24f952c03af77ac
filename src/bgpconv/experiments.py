"""Experiment harness: penetration sweeps, the tiered-core case study,
and machine-readable CSV/JSON emission.

Every experiment is deterministic given its master seed, and every
simulated mean comes from simulate._run_batch.  draw_point derives a
point's graph, announcer and clock seed from its key parts: (seed) for
the simulate command, (master_seed, i) for sweep point i, and
(master_seed, j, r) for run r of case-study point j, which redraws per
run because tiered reachability depends on the announcer.  Both drivers
build their rows through _measured and _failed.

Since no point reads another's stream, both drivers spread their points
over the CPUs in the process's affinity mask (simulate._map_points,
forked workers) and return the same rows at any worker count; a single
CPU (`taskset -c 0`) runs them serially.  A batch spreads its runs the
same way (simulate._run_batch), except inside a point's worker, which is
daemonic and so runs them serially; the closed forms stay serial.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence, Union

import numpy as np

from .analytic import convergence_time, core_convergence_time, round_half_up
from .errors import DOMAIN_ERRORS, DomainError, UnreachableTopologyError
from .graphs import Graph, draw_attempt, ensure_reachable, gen_power_law_degrees
from .model import ConfigModel, ModelParams, TieredCore, TopologySpec, degree_stats
from .simulate import RunConfig, RunStats, _map_points, _run_batch, derive_seed, simulate_batch

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


def draw_point(spec: TopologySpec, policy: str, *parts: int) -> tuple[Graph, int, int]:
    """The draw of the point keyed by parts: a graph, a uniform announcer
    on it, and the seed of its clock stream.

    The graph and announcer come from derive_seed(*parts, _GRAPH_SALT):
    "regenerate" redraws until the announcer reaches every node
    (ensure_reachable); "reachable-only" keeps attempt 0 of that same
    stream (draw_attempt), reachable or not.  Any other policy is a
    DomainError.  The clock seed is derive_seed(*parts, _SIM_SALT)
    under either policy.
    """
    if policy not in RUN_POLICY:
        raise DomainError(f"unknown policy {policy!r}")
    graph_seed = derive_seed(*parts, _GRAPH_SALT)
    if policy == "regenerate":
        draw = ensure_reachable(spec, graph_seed)
        graph, announcer = draw.graph, draw.announcer
    else:
        graph, announcer = draw_attempt(spec, graph_seed, 0)
    return graph, announcer, derive_seed(*parts, _SIM_SALT)


def fraction_to_k(n_total: int, fraction: float) -> int:
    """Map a penetration label k/N onto a valid cluster size."""
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"penetration fraction must be in [0, 1], got {fraction}")
    return min(n_total, max(1, round_half_up(n_total * fraction)))


def power_law_config_spec(
    n_total: int,
    d_min: int,
    d_max: int,
    exponent: float,
    master_seed: int,
) -> ConfigModel:
    """Configuration-model template with one power-law degree sequence.

    The sequence is drawn once from the master seed and then shared by
    every sweep point, so the sweep varies only the cluster size.
    """
    degrees = gen_power_law_degrees(
        n_total, d_min, d_max, exponent, derive_seed(master_seed, _DEGSEQ_SALT)
    )
    return ConfigModel(
        ModelParams(n_total, 1), degree_seq=tuple(int(d) for d in degrees)
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


def _sweep_point(spec: SweepSpec, item: tuple[int, float]) -> ComparisonRow:
    """Sweep point i at penetration `fraction`, given as (i, fraction);
    a point error becomes its failed row."""
    i, fraction = item
    template = spec.topology
    keys = dict(sweep_value=fraction, runs=spec.runs_per_point, seed=spec.master_seed)
    try:
        k = fraction_to_k(template.params.n_total, fraction)
        point = replace(template, params=replace(template.params, k_cluster=k))
        graph, _, clock_seed = draw_point(point, spec.policy, spec.master_seed, i)
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
            graph, "uniform", point.params.lam, clock_seed, RUN_POLICY[spec.policy]
        )
        stats = simulate_batch(cfg, spec.runs_per_point).stats
    except _POINT_ERRORS as exc:
        return _failed(ComparisonRow, exc, keys)
    return ComparisonRow(
        **keys,
        analytic=analytic,
        **_measured(analytic, stats),
        jensen_ok=analytic <= stats.mean + 2.0 * stats.std_err,
    )


def run_sweep(spec: SweepSpec) -> list[ComparisonRow]:
    """Evaluate analytic vs simulated convergence across the sweep.

    Each point draws one fixed graph (regenerated until reachable under
    the default policy), evaluates the closed form, then runs a batch
    with per-run uniform announcers.  For configuration models the
    closed form is fed the realized post-erasure degree statistics.
    A failing point is recorded in-row and the sweep continues.
    """
    fractions = sorted(float(v) for v in spec.sweep_values)
    return _map_points(functools.partial(_sweep_point, spec), enumerate(fractions))


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


def _core_point(
    template: TieredCore,
    runs: int,
    master_seed: int,
    policy: str,
    baselines: dict[float, float],
    item: tuple[int, tuple[float, int]],
) -> CoreRow:
    """Grid point j at (p22, k1), given as (j, (p22, k1)), against its
    p22's k1 = 1 baseline; a point error becomes its failed row."""
    j, (p22, k1) = item
    keys = dict(p22=p22, k1=k1, runs=runs, seed=master_seed)
    try:
        spec_pt = replace(template, k1=k1, p22=p22)
        est = core_convergence_time(spec_pt)
        draw = functools.partial(draw_point, spec_pt, policy, master_seed, j)
        batch = _run_batch(draw, runs, spec_pt.lam, RUN_POLICY[policy])
    except _POINT_ERRORS as exc:
        return _failed(CoreRow, exc, keys)
    return CoreRow(
        **keys,
        analytic_total=est.t_total,
        analytic_peering=est.t_peering,
        analytic_transit=est.t_transit,
        **_measured(est.t_total, batch.stats),
        beats_baseline=est.t_total < baselines[p22],
    )


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

    grid = itertools.product(p22_grid, sorted(int(k) for k in k1_values))
    rows = _map_points(
        functools.partial(_core_point, template, runs_per_point, master_seed, policy, baselines),
        enumerate(grid),
    )
    best_k1 = {
        p22: min((r.k1 for r in rows if r.p22 == p22 and r.beats_baseline), default=None)
        for p22 in baselines
    }
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
