"""Command-line harness for the convergence laboratory.

Subcommands: analytic (one-shot closed form), simulate (batch on one
topology), sweep (penetration sweep with analytic-vs-simulation
comparison), core (tiered case-study grid), export-graph /
import-graph (edge-list files).

Option precedence: explicit flags > --config file entries > built-in
defaults.  Config files are flat `key = value` lines whose keys match
the long flag names with dashes replaced by underscores.

Exit codes: 0 success, 2 domain error, 3 unreachable topology, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .analytic import convergence_time, core_convergence_time
from .errors import DOMAIN_ERRORS, DomainError, UnreachableTopologyError
from .experiments import (
    DEFAULT_FRACTIONS,
    RUN_POLICY,
    SweepSpec,
    draw_point,
    emit,
    parse_config,
    power_law_config_spec,
    run_case_study,
    run_sweep,
)
from .graphs import export_graph, gen_graph, import_graph
from .model import ConfigModel, FullMesh, ModelParams, Poisson, TieredCore
from .simulate import RunConfig, derive_seed, format_trace, simulate_batch, simulate_once

DEFAULT_P22_VALUES = (0.1, 0.3, 0.5)
DEFAULT_K1_VALUES = (1, 5, 10, 20)


def _list_of(convert):
    """argparse type: a comma-separated list, each item passed to convert."""

    def parse(text: str):
        parts = [p for p in text.replace(" ", "").split(",") if p]
        if not parts:
            raise argparse.ArgumentTypeError("expected a comma-separated list")
        try:
            return tuple(convert(p) for p in parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _announcer(text: str):
    """argparse type: 'uniform' or a node id."""
    if text == "uniform":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'uniform' or a node id, got {text!r}"
        ) from None


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill options not given as flags from the --config file.

    Each value goes through its flag's own type and choices.  A key that
    names no subcommand's option (or names --config itself) is an error;
    one that only another subcommand defines is skipped, so one file can
    serve several subcommands.
    """
    if getattr(args, "config", None) is None:
        return
    commands = next(a for a in parser._actions if a.dest == "command").choices
    own = {a.dest: a for a in commands[args.command]._actions}
    known = {a.dest for sub in commands.values() for a in sub._actions}
    known -= {"help", "config"}
    for key, raw in parse_config(args.config).items():
        attr = key.replace("-", "_")
        if attr not in known:
            raise DomainError(f"unknown config key {key!r}")
        if attr not in own or getattr(args, attr) is not None:
            continue
        action = own[attr]
        try:
            value = action.type(raw) if action.type else raw
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DomainError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(action.choices)
            raise DomainError(f"config key {key!r}: {value!r} is not one of {choices}")
        setattr(args, attr, value)


def _get(args: argparse.Namespace, name: str, default):
    value = getattr(args, name, None)
    return default if value is None else value


def _require(args: argparse.Namespace, name: str, family: str):
    value = getattr(args, name, None)
    if value is None:
        flag = "--" + name.replace("_", "-")
        raise DomainError(f"family {family!r} needs {flag}")
    return value


def _flat_spec(args: argparse.Namespace, k: int, seed: int, need_graph: bool):
    """Build a flat topology spec from family flags.

    need_graph forces a concrete degree sequence for config models;
    analytic-only callers may instead pass prescribed --mu-d/--cv-d.
    """
    family = _require(args, "family", "<missing>")
    n = _require(args, "n", family)
    lam = _get(args, "lam", 1.0)
    params = ModelParams(int(n), int(k), float(lam))
    if family == "full-mesh":
        return FullMesh(params)
    if family == "poisson":
        return Poisson(params, float(_require(args, "p_edge", family)))
    if family == "config-model":
        if not need_graph and getattr(args, "mu_d", None) is not None:
            return ConfigModel(
                params, mu_d=float(args.mu_d), cv_d=float(_get(args, "cv_d", 0.0))
            )
        d_min = _require(args, "d_min", family)
        d_max = _require(args, "d_max", family)
        exponent = _require(args, "exponent", family)
        template = power_law_config_spec(
            int(n), int(d_min), int(d_max), float(exponent), seed, float(lam)
        )
        return ConfigModel(params, degree_seq=template.degree_seq)
    raise DomainError(f"unknown family {family!r}")


def _tiered_spec(args: argparse.Namespace, k1: int | None = None) -> TieredCore:
    return TieredCore(
        n1=int(_get(args, "n1", 20)),
        n2=int(_get(args, "n2", 100)),
        k1=int(k1 if k1 is not None else _get(args, "k1", 1)),
        p11=float(_get(args, "p11", 0.5)),
        p12=float(_get(args, "p12", 0.25)),
        p22=float(_get(args, "p22", 0.2)),
        lam=float(_get(args, "lam", 1.0)),
    )


def _emit(rows, fmt: str, out: str | None) -> None:
    """Serialize through emit, to the --out path or else to stdout."""
    text = emit(rows, fmt, out)
    if out is None:
        sys.stdout.write(text)


def cmd_analytic(args: argparse.Namespace) -> int:
    fmt = _get(args, "format", "text")
    seed = int(_get(args, "seed", 0))
    if getattr(args, "family", None) == "tiered":
        record = dataclasses.asdict(core_convergence_time(_tiered_spec(args)))
    else:
        spec = _flat_spec(args, int(_get(args, "k", 1)), seed, need_graph=False)
        est = convergence_time(spec, degenerate=_get(args, "degenerate", "error"))
        record = {"expected_time": est.expected_time}
    _emit(record, fmt, getattr(args, "out", None))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = int(_get(args, "seed", 0))
    runs = int(_get(args, "runs", 200))
    policy = _get(args, "policy", "regenerate")
    fmt = _get(args, "format", "text")
    if getattr(args, "family", None) == "tiered":
        spec = _tiered_spec(args)
    else:
        spec = _flat_spec(args, int(_get(args, "k", 1)), seed, need_graph=True)

    graph, drawn = draw_point(spec, derive_seed(seed, 1), policy)
    announcer = _get(args, "announcer", None)
    if announcer is None:
        # a regenerated tiered draw is certified reachable from its own
        # announcer only, so pin it; flat coverage is announcer-independent
        announcer = drawn if graph.is_tiered and policy == "regenerate" else "uniform"
    cfg = RunConfig(
        graph, announcer, float(_get(args, "lam", 1.0)), derive_seed(seed, 2),
        RUN_POLICY[policy],
    )
    batch = simulate_batch(cfg, runs)
    if getattr(args, "trace", None) is not None:
        with open(args.trace, "w", encoding="ascii") as fh:
            fh.write(format_trace(simulate_once(cfg, run_index=0)))
    stats = batch.stats
    lo, hi = stats.ci95
    record = {
        "runs": stats.runs,
        "mean": stats.mean,
        "std_dev": stats.std_dev,
        "std_err": stats.std_err,
        "ci_low": lo,
        "ci_high": hi,
    }
    _emit(record, fmt, getattr(args, "out", None))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    seed = int(_get(args, "seed", 0))
    template = _flat_spec(args, 1, seed, need_graph=True)
    spec = SweepSpec(
        topology=template,
        sweep_values=tuple(_get(args, "fractions", DEFAULT_FRACTIONS)),
        runs_per_point=int(_get(args, "runs", 200)),
        master_seed=seed,
        policy=_get(args, "policy", "regenerate"),
    )
    _emit(run_sweep(spec), _get(args, "format", "csv"), getattr(args, "out", None))
    return 0


def cmd_core(args: argparse.Namespace) -> int:
    seed = int(_get(args, "seed", 0))
    p22_values = tuple(_get(args, "p22_values", DEFAULT_P22_VALUES))
    k1_values = tuple(_get(args, "k1_values", DEFAULT_K1_VALUES))
    template = _tiered_spec(args, k1=1)
    result = run_case_study(
        template,
        p22_values,
        k1_values,
        runs_per_point=int(_get(args, "runs", 5000)),
        master_seed=seed,
        policy=_get(args, "policy", "regenerate"),
    )
    _emit(result, _get(args, "format", "csv"), getattr(args, "out", None))
    for p22 in sorted(result.best_k1):
        best = result.best_k1[p22]
        verdict = f"smallest k1 beating the k1=1 baseline: {best}" if best \
            else "no k1 beats the k1=1 baseline"
        print(f"p22={format(p22, '.9g')}: {verdict}", file=sys.stderr)
    return 0


def cmd_export_graph(args: argparse.Namespace) -> int:
    seed = int(_get(args, "seed", 0))
    if getattr(args, "family", None) == "tiered":
        spec = _tiered_spec(args)
    else:
        spec = _flat_spec(args, int(_get(args, "k", 1)), seed, need_graph=True)
    graph = gen_graph(spec, seed)
    export_graph(graph, args.out)
    return 0


def cmd_import_graph(args: argparse.Namespace) -> int:
    graph = import_graph(args.infile)
    graph.validate()
    record = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "cluster_size": int(graph.cluster.size),
        "tiered": "true" if graph.is_tiered else "false",
    }
    _emit(record, _get(args, "format", "text"), None)
    if getattr(args, "out", None) is not None:
        export_graph(graph, args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser, with_policy: bool = True) -> None:
    sub.add_argument("--seed", type=int, help="master seed (default 0)")
    sub.add_argument("--runs", type=int, help="runs per point/batch")
    sub.add_argument("--format", choices=("csv", "json", "text"),
                     help="output format")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    if with_policy:
        sub.add_argument("--policy", choices=tuple(RUN_POLICY),
                         help="unreachable draws: redraw, or cover what is reachable")
    sub.add_argument("--config", help="flat key = value option file")


def _add_flat_family(sub: argparse.ArgumentParser, tiered_ok: bool) -> None:
    families = ("full-mesh", "poisson", "config-model") + (
        ("tiered",) if tiered_ok else ()
    )
    sub.add_argument("--family", choices=families, help="topology family")
    sub.add_argument("--n", type=int, help="total node count")
    sub.add_argument("--k", type=int, help="SDN cluster size (default 1)")
    sub.add_argument("--lam", type=float, help="per-neighbor forwarding rate")
    sub.add_argument("--p-edge", dest="p_edge", type=float,
                     help="edge probability (poisson)")
    sub.add_argument("--mu-d", dest="mu_d", type=float,
                     help="prescribed mean degree (config-model, analytic only)")
    sub.add_argument("--cv-d", dest="cv_d", type=float,
                     help="prescribed degree CV (config-model, analytic only)")
    sub.add_argument("--d-min", dest="d_min", type=int,
                     help="power-law minimum degree (config-model)")
    sub.add_argument("--d-max", dest="d_max", type=int,
                     help="power-law maximum degree (config-model)")
    sub.add_argument("--exponent", type=float,
                     help="power-law exponent (config-model)")
    if tiered_ok:
        _add_tiered_params(sub)


def _add_tiered_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n1", type=int, help="tier-1 size (default 20)")
    sub.add_argument("--n2", type=int, help="tier-2 size (default 100)")
    sub.add_argument("--k1", type=int, help="tier-1 cluster size (default 1)")
    sub.add_argument("--p11", type=float, help="tier-1 peering prob (default 0.5)")
    sub.add_argument("--p12", type=float, help="transit prob (default 0.25)")
    sub.add_argument("--p22", type=float, help="tier-2 peering prob (default 0.2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgpconv",
        description="Convergence-time laboratory for partially centralized "
        "inter-domain routing",
        epilog="Option precedence: explicit flags > --config file > defaults. "
        "Config files hold one `key = value` per line; keys are the long "
        "flag names with dashes as underscores.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analytic", help="closed-form expected convergence time")
    _add_flat_family(p, tiered_ok=True)
    p.add_argument("--degenerate", choices=("error", "clamp"),
                   help="degenerate-tail handling for config models")
    _add_common(p, with_policy=False)
    p.set_defaults(handler=cmd_analytic)

    p = subs.add_parser("simulate", help="Monte Carlo batch on one topology")
    _add_flat_family(p, tiered_ok=True)
    p.add_argument("--announcer", type=_announcer,
                   help="node id or 'uniform' (redraw per run)")
    p.add_argument("--trace", help="write run 0's event trace to this path")
    _add_common(p)
    p.set_defaults(handler=cmd_simulate)

    p = subs.add_parser("sweep", help="penetration sweep, analytic vs simulated")
    _add_flat_family(p, tiered_ok=False)
    p.add_argument("--fractions", type=_list_of(float),
                   help="comma-separated k/N values (default 0.0..1.0 step 0.1)")
    _add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = subs.add_parser("core", help="tiered case-study grid over (p22, k1)")
    _add_tiered_params(p)
    p.add_argument("--lam", type=float, help="per-neighbor forwarding rate")
    p.add_argument("--p22-values", dest="p22_values", type=_list_of(float),
                   help="comma-separated p22 grid (default 0.1,0.3,0.5)")
    p.add_argument("--k1-values", dest="k1_values", type=_list_of(int),
                   help="comma-separated k1 grid (default 1,5,10,20)")
    _add_common(p)
    p.set_defaults(handler=cmd_core)

    p = subs.add_parser("export-graph", help="generate a graph and write it")
    _add_flat_family(p, tiered_ok=True)
    p.add_argument("--out", required=True, help="edge-list destination path")
    p.add_argument("--seed", type=int, help="generation seed (default 0)")
    p.add_argument("--config", help="flat key = value option file")
    p.set_defaults(handler=cmd_export_graph)

    p = subs.add_parser("import-graph", help="read, validate, and summarize a graph")
    p.add_argument("--in", dest="infile", required=True, help="edge-list source path")
    p.add_argument("--out", help="re-export the parsed graph to this path")
    p.add_argument("--format", choices=("csv", "json", "text"))
    p.set_defaults(handler=cmd_import_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(parser, args)
        return args.handler(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnreachableTopologyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
