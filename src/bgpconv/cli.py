"""Command-line harness for the convergence laboratory.

Subcommands: analytic (one-shot closed form), simulate (batch on one
topology), sweep (penetration sweep with analytic-vs-simulation
comparison), core (tiered case-study grid), export-graph /
import-graph (edge-list files).

Each option is declared once, with its type, choices, default and help
(the shared ones in OPTIONS); a subcommand takes only the options its
handler reads, so any other flag, and any abbreviated flag, is a usage
error.  `bgpconv <command> --help` prints every default.  The parser
tree is built once per process and reused by every call of main.

Option precedence: explicit flags > --config file entries > built-in
defaults.  Config files are flat `key = value` lines whose keys match
the long flag names with dashes replaced by underscores; the entries
become the subcommand's defaults on a tree built for that call alone,
and argv is parsed again over them, so a file never changes the shared
tree or a later call's defaults.

Exit codes: 0 success, 2 domain or usage error (an input the model
cannot evaluate, or one whose evaluation does not fit in memory), 3
unreachable topology, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .analytic import convergence_time, core_convergence_time
from .errors import DOMAIN_ERRORS, DomainError, UnreachableTopologyError
from .experiments import (
    _GRAPH_SALT,
    _SIM_SALT,
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

FLAT_FAMILIES = ("full-mesh", "poisson", "config-model")

# emit writes text for one record only; sweep and core emit rows
ROW_FORMATS = ("csv", "json")


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


# Every shared option, once: its flag is the key with dashes for
# underscores.  argparse converts a string default with the option's
# type, so a type that can return a string must return it unchanged
# when given it again (as _announcer does with "uniform").
OPTIONS = {
    "family": dict(choices=FLAT_FAMILIES + ("tiered",), help="topology family"),
    "n": dict(type=int, help="total node count"),
    "k": dict(type=int, default=1, help="SDN cluster size (default %(default)s)"),
    "lam": dict(type=float, default=1.0,
                help="per-neighbor forwarding rate (default %(default)s)"),
    "p_edge": dict(type=float, help="edge probability (poisson)"),
    "mu_d": dict(type=float, help="prescribed mean degree (config-model)"),
    "cv_d": dict(type=float, default=0.0,
                 help="prescribed degree CV (config-model; default %(default)s)"),
    "d_min": dict(type=int, help="power-law minimum degree (config-model)"),
    "d_max": dict(type=int, help="power-law maximum degree (config-model)"),
    "exponent": dict(type=float, help="power-law exponent (config-model)"),
    "n1": dict(type=int, default=20, help="tier-1 size (default %(default)s)"),
    "n2": dict(type=int, default=100, help="tier-2 size (default %(default)s)"),
    "k1": dict(type=int, default=1, help="tier-1 cluster size (default %(default)s)"),
    "p11": dict(type=float, default=0.5,
                help="tier-1 peering prob (default %(default)s)"),
    "p12": dict(type=float, default=0.25, help="transit prob (default %(default)s)"),
    "p22": dict(type=float, default=0.2,
                help="tier-2 peering prob (default %(default)s)"),
    "degenerate": dict(choices=("error", "clamp"), default="error",
                       help="degenerate-tail handling for config models "
                       "(default %(default)s)"),
    "announcer": dict(type=_announcer,
                      help="node id or 'uniform' (redraw per run); unset, a "
                      "regenerated tiered draw keeps the announcer it was "
                      "certified for, and any other draw uses 'uniform'"),
    "trace": dict(help="write run 0's event trace to this path"),
    "fractions": dict(type=_list_of(float), default=DEFAULT_FRACTIONS,
                      help="comma-separated k/N values (default %(default)s)"),
    "p22_values": dict(type=_list_of(float), default=(0.1, 0.3, 0.5),
                       help="comma-separated p22 grid (default %(default)s)"),
    "k1_values": dict(type=_list_of(int), default=(1, 5, 10, 20),
                      help="comma-separated k1 grid (default %(default)s)"),
    "seed": dict(type=int, default=0, help="master seed (default %(default)s)"),
    "runs": dict(type=int, default=200,
                 help="runs per point or batch (default %(default)s)"),
    "policy": dict(choices=tuple(RUN_POLICY), default="regenerate",
                   help="unreachable draws: redraw, or cover what is reachable "
                   "(default %(default)s)"),
    "format": dict(choices=ROW_FORMATS + ("text",), default="text",
                   help="output format (default %(default)s)"),
    "out": dict(help="write output to this path instead of stdout"),
    "config": dict(help="flat key = value option file"),
}


def _commands(parser: argparse.ArgumentParser) -> dict:
    """The subcommand parsers of a tree built by build_parser, by name."""
    return next(a for a in parser._actions if a.dest == "command").choices


def _parse(argv) -> argparse.Namespace:
    """Parse argv, with the --config file's entries as the defaults.

    Each entry goes through its flag's own type and choices.  A key that
    names no subcommand's option (or names --config itself) is an error;
    one that only another subcommand defines is skipped, so one file can
    serve several subcommands.  The entries become defaults on a tree
    built for this call alone, never on the shared one.
    """
    shared = build_parser()
    args = shared.parse_args(argv)
    if getattr(args, "config", None) is None:  # import-graph has no --config
        return args
    commands = _commands(shared)
    own = {a.dest: a for a in commands[args.command]._actions}
    known = {a.dest for s in commands.values() for a in s._actions}
    known -= {"help", "config"}
    entries = {}
    for key, raw in parse_config(args.config).items():
        attr = key.replace("-", "_")
        if attr not in known:
            raise DomainError(f"unknown config key {key!r}")
        if attr not in own:
            continue
        action = own[attr]
        try:
            value = action.type(raw) if action.type else raw
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DomainError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(action.choices)
            raise DomainError(f"config key {key!r}: {value!r} is not one of {choices}")
        entries[attr] = value
    parser = build_parser.__wrapped__()
    _commands(parser)[args.command].set_defaults(**entries)
    return parser.parse_args(argv)


def _require(args: argparse.Namespace, name: str, family: str):
    value = getattr(args, name)
    if value is None:
        flag = "--" + name.replace("_", "-")
        raise DomainError(f"family {family!r} needs {flag}")
    return value


def _flat_spec(args: argparse.Namespace, need_graph: bool):
    """Build a flat topology spec from family flags.

    need_graph forces a concrete degree sequence for config models;
    analytic-only callers may instead pass prescribed --mu-d/--cv-d.
    """
    family = _require(args, "family", "<missing>")
    n = _require(args, "n", family)
    params = ModelParams(n, args.k, args.lam)
    if family == "full-mesh":
        return FullMesh(params)
    if family == "poisson":
        return Poisson(params, _require(args, "p_edge", family))
    if family == "config-model":
        if not need_graph and args.mu_d is not None:
            return ConfigModel(params, mu_d=args.mu_d, cv_d=args.cv_d)
        template = power_law_config_spec(
            n,
            _require(args, "d_min", family),
            _require(args, "d_max", family),
            _require(args, "exponent", family),
            args.seed,
        )
        return ConfigModel(params, degree_seq=template.degree_seq)
    raise DomainError(f"unknown family {family!r}")


def _tiered_spec(args: argparse.Namespace) -> TieredCore:
    return TieredCore(args.n1, args.n2, args.k1, args.p11, args.p12, args.p22, args.lam)


def _graph_spec(args: argparse.Namespace):
    """A spec to draw a graph from: tiered, or flat with a degree sequence."""
    if args.family == "tiered":
        return _tiered_spec(args)
    return _flat_spec(args, need_graph=True)


def _emit(rows, fmt: str, out: str | None) -> None:
    """Serialize through emit, to the --out path or else to stdout."""
    text = emit(rows, fmt, out)
    if out is None:
        sys.stdout.write(text)


def cmd_analytic(args: argparse.Namespace) -> int:
    if args.family == "tiered":
        record = dataclasses.asdict(core_convergence_time(_tiered_spec(args)))
    else:
        spec = _flat_spec(args, need_graph=False)
        est = convergence_time(spec, degenerate=args.degenerate)
        record = {"expected_time": est.expected_time}
    _emit(record, args.format, args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    graph, drawn = draw_point(
        _graph_spec(args), derive_seed(args.seed, _GRAPH_SALT), args.policy
    )
    announcer = args.announcer
    if announcer is None:
        # a regenerated tiered draw is certified reachable from its own
        # announcer only, so pin it; flat coverage is announcer-independent
        announcer = drawn if graph.is_tiered and args.policy == "regenerate" else "uniform"
    cfg = RunConfig(
        graph, announcer, args.lam, derive_seed(args.seed, _SIM_SALT),
        RUN_POLICY[args.policy],
    )
    batch = simulate_batch(cfg, args.runs)
    if args.trace is not None:
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
    _emit(record, args.format, args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        topology=_flat_spec(args, need_graph=True),
        sweep_values=args.fractions,
        runs_per_point=args.runs,
        master_seed=args.seed,
        policy=args.policy,
    )
    _emit(run_sweep(spec), args.format, args.out)
    return 0


def cmd_core(args: argparse.Namespace) -> int:
    result = run_case_study(
        _tiered_spec(args),
        args.p22_values,
        args.k1_values,
        runs_per_point=args.runs,
        master_seed=args.seed,
        policy=args.policy,
    )
    _emit(result, args.format, args.out)
    for p22 in sorted(result.best_k1):
        best = result.best_k1[p22]
        verdict = f"smallest k1 beating the k1=1 baseline: {best}" if best \
            else "no k1 beats the k1=1 baseline"
        print(f"p22={format(p22, '.9g')}: {verdict}", file=sys.stderr)
    return 0


def cmd_export_graph(args: argparse.Namespace) -> int:
    export_graph(gen_graph(_graph_spec(args), args.seed), args.out)
    return 0


def cmd_import_graph(args: argparse.Namespace) -> int:
    graph = import_graph(args.infile)
    record = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "cluster_size": int(graph.cluster.size),
        "tiered": graph.is_tiered,
    }
    _emit(record, args.format, None)
    if args.out is not None:
        export_graph(graph, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and shared by every call.

    Callers must not change it; build_parser.__wrapped__() builds a
    fresh tree that may be changed.
    """
    parser = argparse.ArgumentParser(
        prog="bgpconv",
        description="Convergence-time laboratory for partially centralized "
        "inter-domain routing",
        epilog="Option precedence: explicit flags > --config file > defaults. "
        "Config files hold one `key = value` per line; keys are the long "
        "flag names with dashes as underscores.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, options, choices=None, **defaults):
        """choices narrows the choices of the named options on this subcommand."""
        sub = subs.add_parser(name, help=summary, allow_abbrev=False)
        for option in options.split():
            spec = OPTIONS[option]
            if choices and option in choices:
                spec = {**spec, "choices": choices[option]}
            sub.add_argument("--" + option.replace("_", "-"), **spec)
        sub.set_defaults(handler=handler, **defaults)
        return sub

    # Besides its own defaults, a subcommand fixes placeholders for spec
    # fields its result does not depend on: sweep replaces k at every
    # point, core replaces k1 and p22, and export-graph writes no rate.
    flat = "n k lam p_edge d_min d_max exponent"
    tiered = "n1 n2 k1 p11 p12 p22"
    common = "seed format out config"
    command("analytic", cmd_analytic, "closed-form expected convergence time",
            f"family {flat} mu_d cv_d {tiered} degenerate {common}")
    command("simulate", cmd_simulate, "Monte Carlo batch on one topology",
            f"family {flat} {tiered} announcer trace runs policy {common}")
    p = command("sweep", cmd_sweep, "penetration sweep, analytic vs simulated",
                f"n lam p_edge d_min d_max exponent fractions runs policy {common}",
                choices={"format": ROW_FORMATS}, format="csv", k=1)
    p.add_argument("--family", choices=FLAT_FAMILIES, help="topology family")
    command("core", cmd_core, "tiered case-study grid over (p22, k1)",
            f"n1 n2 p11 p12 lam p22_values k1_values runs policy {common}",
            choices={"format": ROW_FORMATS}, runs=5000, format="csv", k1=1, p22=0.0)
    p = command("export-graph", cmd_export_graph, "generate a graph and write it",
                f"family n k p_edge d_min d_max exponent {tiered} seed config",
                lam=1.0)
    p.add_argument("--out", required=True, help="edge-list destination path")
    p = command("import-graph", cmd_import_graph,
                "read, check, and summarize a graph", "format")
    p.add_argument("--in", dest="infile", required=True, help="edge-list source path")
    p.add_argument("--out", help="re-export the parsed graph to this path")

    return parser


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.handler(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
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
