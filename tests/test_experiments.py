"""Experiment drivers, emission formats, and the command-line surface.

The sweep CSV schema is a contract: downstream tooling parses the header
verbatim, so the column list and the 9-significant-digit float rendering
are pinned byte-for-byte here.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import bgpconv as bc
from bgpconv import cli, errors, experiments
from bgpconv.errors import DomainError, ModelDegenerateError, UnreachableTopologyError
from bgpconv.experiments import (
    _map_points,
    draw_point,
    fraction_to_k,
    power_law_config_spec,
)
from bgpconv.model import ConfigModel, FullMesh, ModelParams, Poisson, TieredCore

SWEEP_HEADER = "sweep_value,analytic,sim_mean,sim_std_err,rel_error,jensen_ok,runs,seed"
CORE_HEADER = (
    "p22,k1,analytic_total,analytic_peering,analytic_transit,"
    "sim_mean,sim_std_err,rel_error,runs,seed,beats_baseline"
)


def small_sweep(**kw):
    spec = bc.SweepSpec(
        Poisson(ModelParams(60, 1, 1.0), 0.2),
        sweep_values=(0.3, 0.6, 1.0),
        runs_per_point=60,
        master_seed=11,
        **kw,
    )
    return bc.run_sweep(spec)


# ----------------------------------------------------------------- sweeps

def test_sweep_row_fields_and_monotone_values():
    rows = small_sweep()
    assert [r.sweep_value for r in rows] == [0.3, 0.6, 1.0]
    for row in rows:
        assert row.runs == 60
        assert row.error is None
        assert row.sim_std_err >= 0.0
    assert rows[-1].analytic == 0.0 and rows[-1].sim_mean == 0.0
    assert rows[-1].rel_error == 0.0


def test_sweep_is_deterministic():
    a = bc.emit(small_sweep(), format="csv")
    b = bc.emit(small_sweep(), format="csv")
    assert a == b


def test_fraction_to_k_mapping():
    assert fraction_to_k(300, 0.0) == 1  # no-centralization label still means one member
    assert fraction_to_k(300, 1.0) == 300
    assert fraction_to_k(300, 0.5) == 150
    assert fraction_to_k(301, 0.5) == 151  # round half up
    with pytest.raises(DomainError):
        fraction_to_k(300, 1.5)


def test_sweep_rejects_bad_specs():
    mesh = FullMesh(ModelParams(10, 1, 1.0))
    cases = [
        (TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 1.0), {}, "flat topology"),
        (mesh, dict(sweep_values=(0.5, 2.0)), "outside"),
        (ConfigModel(ModelParams(10, 1, 1.0), mu_d=3.0, cv_d=0.5), {}, "degree sequence"),
        (mesh, dict(runs_per_point=0), "runs_per_point"),
        (mesh, dict(policy="bogus"), "bogus"),
        (mesh, dict(sweep_values=()), "at least one value"),
    ]
    for topology, kw, message in cases:
        with pytest.raises(DomainError, match=message):
            bc.SweepSpec(topology, **kw)


def test_case_study_rejects_bad_inputs_before_any_point_runs(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(experiments, "core_convergence_time", never)
    monkeypatch.setattr(experiments, "_map_points", never)
    tpl = TieredCore(10, 30, 1, 0.5, 0.25, 0.2, 1.0)
    cases = [
        (dict(runs_per_point=0), "runs_per_point"),
        (dict(policy="bogus"), "bogus"),
        (dict(p22_values=()), "nonempty"),
        (dict(k1_values=()), "nonempty"),
    ]
    for kw, message in cases:
        args = dict(p22_values=(0.2,), k1_values=(1, 2), runs_per_point=5) | kw
        with pytest.raises(DomainError, match=message):
            bc.run_case_study(tpl, **args)


def assert_failed_row(row, keys: dict, nan_fields: str, flags: str, error: str):
    """Every field of a failed row: the keys kept, the named floats NaN,
    the named flags False, and error starting "Type: " plus the given
    start of the exception's message."""
    nan_fields, flags = nan_fields.split(), flags.split()
    names = [f.name for f in dataclasses.fields(row)]
    assert sorted(names) == sorted([*keys, *nan_fields, *flags, "error"])
    for name, value in keys.items():
        assert getattr(row, name) == value, name
    for name in nan_fields:
        assert math.isnan(getattr(row, name)), name
    for name in flags:
        assert getattr(row, name) is False, name
    assert row.error.startswith(error), row.error


SWEEP_NAN_FIELDS = "analytic sim_mean sim_std_err rel_error"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize(
    "topology, fractions, error",
    [
        # p=0 never yields a reachable draw
        (Poisson(ModelParams(12, 1, 1.0), 0.0), (0.25, 0.5), "UnreachableTopologyError: "),
        (FullMesh(ModelParams(5, 1, 6e-309)), (0.2, 0.4), "DomainError: expected "),
        # E[T] is finite, but a run's time overflows
        (FullMesh(ModelParams(5, 1, 2.1e-308)), (0.2, 0.4), "DomainError: run "),
    ],
    ids=["unreachable", "closed-form-overflow", "run-overflow"],
)
def test_sweep_continues_past_failed_points(topology, fractions, error):
    # every point but the last fails, and the sweep still emits one row
    # per requested fraction, then goes on to the full-penetration point
    spec = bc.SweepSpec(topology, sweep_values=(*fractions, 1.0), runs_per_point=20,
                        master_seed=3)
    rows = bc.run_sweep(spec)
    assert len(rows) == 3
    for row, fraction in zip(rows, fractions):
        keys = dict(sweep_value=fraction, runs=20, seed=3)
        assert_failed_row(row, keys, SWEEP_NAN_FIELDS, "jensen_ok", error)
    assert rows[-1].error is None and rows[-1].sim_mean == 0.0
    text = bc.emit(rows, format="csv")
    assert "nan" in text


def test_config_model_sweep_uses_realized_stats():
    spec = power_law_config_spec(80, 3, 20, 2.0, master_seed=5)
    sweep = bc.SweepSpec(spec, sweep_values=(0.2, 0.6), runs_per_point=40, master_seed=5)
    rows = bc.run_sweep(sweep)
    for row in rows:
        assert row.error is None
        assert np.isfinite(row.analytic) and row.analytic > 0.0


def test_jensen_flag_holds_on_sparse_poisson():
    # one-sided check: the closed form must not exceed sim + 2 se.  At 60
    # runs the 2-se margin is narrower than the model's bias on this small
    # graph, so this one runs a deeper batch than the schema tests above.
    spec = bc.SweepSpec(
        Poisson(ModelParams(60, 1, 1.0), 0.2),
        sweep_values=(0.3, 0.6),
        runs_per_point=150,
        master_seed=11,
    )
    assert all(r.jensen_ok for r in bc.run_sweep(spec))


def test_analytic_penetration_curve_drops_faster_past_half():
    # full-mesh closed form: most of the speedup arrives late in the
    # penetration range, so the [0.5, 0.9] drop exceeds the [0.1, 0.5] one
    def at(f):
        k = fraction_to_k(300, f)
        return bc.convergence_time(FullMesh(ModelParams(300, k, 1.0))).expected_time

    early = at(0.1) - at(0.5)
    late = at(0.5) - at(0.9)
    assert late > early > 0.0


# --------------------------------------------------------------- emission

def test_csv_header_and_digits():
    rows = small_sweep()
    text = bc.emit(rows, format="csv")
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "0.3"
    assert first[1] == format(rows[0].analytic, ".9g")
    assert first[5] in ("true", "false")
    assert first[6] == "60"


def test_csv_round_trips_through_float_parsing():
    rows = small_sweep()
    line = bc.emit(rows, format="csv").strip().split("\n")[1].split(",")
    # 9 significant digits carry enough precision for a stable re-read
    assert float(line[1]) == pytest.approx(rows[0].analytic, rel=1e-8)
    assert float(line[2]) == pytest.approx(rows[0].sim_mean, rel=1e-8)


def test_json_mirrors_rows():
    rows = small_sweep()
    doc = json.loads(bc.emit(rows, format="json"))
    assert isinstance(doc, list) and len(doc) == len(rows)
    assert doc[0]["sweep_value"] == 0.3
    assert doc[0]["jensen_ok"] is True
    assert doc[0]["error"] is None
    assert doc[0]["runs"] == 60


def test_emit_writes_files(tmp_path):
    rows = small_sweep()
    dest = tmp_path / "out.csv"
    text = bc.emit(rows, format="csv", path=str(dest))
    assert dest.read_text() == text


def test_emit_rejects_unknown_format_and_empty_input():
    rows = small_sweep()
    with pytest.raises(DomainError):
        bc.emit(rows, format="tsv")
    with pytest.raises(DomainError):
        bc.emit([], format="csv")


def test_golden_full_mesh_sweep_regenerates(request):
    golden = request.path.parent / "data" / "golden_fullmesh_sweep.csv"
    spec = bc.SweepSpec(
        FullMesh(ModelParams(300, 1, 1.0)),
        runs_per_point=50,
        master_seed=1,
    )
    text = bc.emit(bc.run_sweep(spec), format="csv")
    assert text == golden.read_text()


# ------------------------------------------------------------- case study

def test_case_study_small_grid():
    tpl = TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 1.0)
    result = bc.run_case_study(tpl, (0.1, 0.5), (1, 10), runs_per_point=150, master_seed=5)
    assert [(r.p22, r.k1) for r in result.rows] == [(0.1, 1), (0.1, 10), (0.5, 1), (0.5, 10)]
    base = {r.p22: r.analytic_total for r in result.rows if r.k1 == 1}
    for row in result.rows:
        assert row.error is None
        assert row.runs == 150
        assert row.beats_baseline == (row.analytic_total < base[row.p22])
    # smallest k1 that improves on the no-centralization analytic total
    for p22, best in result.best_k1.items():
        winners = [r.k1 for r in result.rows if r.p22 == p22 and r.beats_baseline]
        assert best == (min(winners) if winners else None)


def test_case_study_core_csv_schema():
    tpl = TieredCore(10, 30, 1, 0.5, 0.25, 0.2, 1.0)
    result = bc.run_case_study(tpl, (0.2,), (1,), runs_per_point=30, master_seed=2)
    text = bc.emit(result, format="csv")
    header = text.strip().split("\n")[0]
    assert header == CORE_HEADER
    doc = json.loads(bc.emit(result, format="json"))
    assert "rows" in doc and "best_k1" in doc


@pytest.mark.parametrize(
    "template, p22, k1, error",
    [
        # no transit edges
        (TieredCore(10, 30, 1, 0.5, 0.0, 0.2, 1.0), 0.2, 1, "UnreachableTopologyError: "),
        # k1 > n1: the point's own spec is invalid
        (TieredCore(10, 30, 1, 0.5, 0.25, 0.2, 1.0), 0.2, 11, "DomainError: k1 "),
        (TieredCore(2, 1, 1, 0.6, 1.0, 0.0, 1e-308), 0.0, 1, "DomainError: transit "),
    ],
    ids=["unreachable", "k1-above-n1", "transit-overflow"],
)
def test_case_study_unreachable_grid_point_is_marked(template, p22, k1, error):
    result = bc.run_case_study(template, (p22,), (k1,), runs_per_point=10, master_seed=4)
    (row,) = result.rows
    keys = dict(p22=p22, k1=k1, runs=10, seed=4)
    nan_fields = "analytic_total analytic_peering analytic_transit " \
        "sim_mean sim_std_err rel_error"
    assert_failed_row(row, keys, nan_fields, "beats_baseline", error)
    assert result.best_k1[p22] is None


# ---------------------------------------------------------------- workers

def worker_pid(_):
    return os.getpid()


@pytest.mark.parametrize("n", [1, 2])
def test_map_points_runs_one_worker_per_cpu(n, cpus):
    cpus(n)
    pids = _map_points(worker_pid, range(4))
    if n == 1:
        assert pids == [os.getpid()] * 4
    else:
        assert os.getpid() not in pids and len(set(pids)) <= 2
    assert _map_points(str, range(5)) == [str(i) for i in range(5)]
    assert multiprocessing.active_children() == []


def test_map_points_inherits_fn_without_pickling_it(cpus):
    cpus(2)
    view = memoryview(b"abcd")  # a memoryview cannot pickle
    pairs = _map_points(lambda i: (bytes(view[i : i + 1]), os.getpid()), range(4))
    assert [b for b, _ in pairs] == [b"a", b"b", b"c", b"d"]
    assert os.getpid() not in {pid for _, pid in pairs}
    assert multiprocessing.active_children() == []


def test_map_points_raises_the_error_of_the_lowest_failing_item(cpus):
    cpus(2)

    def fail_odd(i):
        # item 3 fails first
        if i == 1:
            time.sleep(0.2)
        if i % 2:
            raise DomainError(f"item {i}")
        return i

    with pytest.raises(DomainError, match=r"^item 1$"):
        _map_points(fail_odd, range(4))
    assert multiprocessing.active_children() == []


# one point of each fails in-row: the sweep's 0.1 draw never reaches
# every node, and k1 = 11 exceeds n1
WORKER_SWEEP = bc.SweepSpec(Poisson(ModelParams(30, 1, 1.0), 0.05),
                            sweep_values=(0.1, 0.5, 0.9), runs_per_point=20, master_seed=3)
WORKER_DRIVERS = {
    "sweep": lambda: bc.run_sweep(WORKER_SWEEP),
    "core": lambda: bc.run_case_study(TieredCore(10, 30, 1, 0.5, 0.25, 0.2, 1.0),
                                      (0.2,), (1, 5, 11), runs_per_point=20, master_seed=4),
}


def driver_bytes() -> list[str]:
    out = []
    for run in WORKER_DRIVERS.values():
        result = run()
        rows = result.rows if isinstance(result, bc.CaseStudyResult) else result
        assert sum(r.error is not None for r in rows) == 1
        out += [bc.emit(result, format=fmt) for fmt in ("csv", "json")]
    return out


def test_drivers_emit_the_same_bytes_at_one_and_two_workers(cpus, request):
    cpus(1)
    serial = driver_bytes()
    cpus(2)
    assert driver_bytes() == serial
    golden = request.path.parent / "data" / "golden_fullmesh_sweep.csv"
    spec = bc.SweepSpec(FullMesh(ModelParams(300, 1, 1.0)), runs_per_point=50, master_seed=1)
    assert bc.emit(bc.run_sweep(spec), format="csv") == golden.read_text()


@pytest.mark.parametrize("driver,batch", [("sweep", "simulate_batch"),
                                          ("core", "_run_batch")])
def test_no_worker_outlives_a_driver(driver, batch, cpus, monkeypatch):
    cpus(2)
    WORKER_DRIVERS[driver]()
    assert multiprocessing.active_children() == []

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    # not a point error, so the first worker to raise it fails the call
    monkeypatch.setattr(experiments, batch, exhausted)
    with pytest.raises(MemoryError) as exc:
        WORKER_DRIVERS[driver]()
    assert type(exc.value) is MemoryError
    assert str(exc.value) == "Unable to allocate 74.5 GiB for an array"
    assert multiprocessing.active_children() == []


def sweep_in_worker(_):
    return bc.emit(bc.run_sweep(WORKER_SWEEP), format="csv"), \
        multiprocessing.current_process().daemon


def test_daemonic_caller_runs_points_serially(cpus):
    # a pool worker is daemonic and may not fork workers of its own
    cpus(1)
    serial = bc.emit(bc.run_sweep(WORKER_SWEEP), format="csv")
    cpus(2)
    assert _map_points(sweep_in_worker, range(2)) == [(serial, True)] * 2
    assert multiprocessing.active_children() == []


def test_points_run_serially_while_another_thread_runs(cpus):
    cpus(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert _map_points(worker_pid, range(2)) == [os.getpid()] * 2
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()


def test_every_library_error_survives_pickling():
    samples = [
        DomainError("k1 11 exceeds n1 10"),
        UnreachableTopologyError("no reachable draw within 100 attempts"),
        ModelDegenerateError(3, 1, -0.5),
    ]
    defined = {v for v in vars(errors).values() if isinstance(v, type)
               and issubclass(v, Exception) and v.__module__ == errors.__name__}
    assert {type(e) for e in samples} == defined
    for exc in samples:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))


# ---------------------------------------------------------------- config

def test_parse_config_format(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(
        "# sweep options\n"
        "n = 60\n"
        "family = poisson\n"
        "p_edge = 0.2   # trailing comment\n"
        "\n"
        "runs = 15\n"
        "runs = 25\n"
    )
    parsed = bc.parse_config(str(cfg))
    assert parsed == {"n": "60", "family": "poisson", "p_edge": "0.2", "runs": "25"}


def test_parse_config_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 60\nnot a pair\n")
    with pytest.raises(DomainError, match="bad.cfg:2"):
        bc.parse_config(str(cfg))


# ------------------------------------------------------------------- CLI

def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_analytic_full_mesh(capsys):
    assert run_cli("analytic", "--family", "full-mesh", "--n", "4", "--k", "2") == 0
    out = capsys.readouterr().out
    assert "expected_time" in out
    assert "1.33333333" in out


def test_cli_analytic_above_ten_thousand_nodes(capsys):
    assert run_cli("analytic", "--family", "full-mesh", "--n", "10001", "--k", "5") == 0
    assert "expected_time" in capsys.readouterr().out


def run_fresh(*args):
    """`python args...` in a fresh interpreter that imports this bgpconv."""
    src = str(Path(bc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_module(*argv):
    """`python -m bgpconv argv...` in a fresh interpreter."""
    return run_fresh("-m", "bgpconv", *argv)


def test_python_dash_m_runs_the_cli():
    proc = run_module("analytic", "--family", "full-mesh", "--n", "10", "--k", "1",
                      "--format", "json")
    assert proc.returncode == 0, proc.stderr
    h9 = math.fsum(1 / i for i in range(1, 10))
    assert json.loads(proc.stdout)["expected_time"] == pytest.approx(h9, rel=1e-8)


def test_public_names_resolve():
    assert len(set(bc.__all__)) == len(bc.__all__)
    missing = [name for name in bc.__all__ if not hasattr(bc, name)]
    assert missing == []
    namespace = {}
    exec("from bgpconv import *", namespace)
    assert set(bc.__all__) <= set(namespace)


def test_export_list_matches_the_imported_names():
    # each name is written twice in __init__.py, once imported and once
    # in __all__: dropping it from one place only must fail here
    public = {name for name, value in vars(bc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(bc.__all__) == public


def test_cli_analytic_tiered_breakdown(capsys):
    assert run_cli("analytic", "--family", "tiered", "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t_x_tier1"] == 0.2
    assert doc["t_total"] == max(doc["t_peering"], doc["t_transit"])


def test_cli_simulate_matches_library(capsys, tmp_path):
    trace_path = tmp_path / "trace.txt"
    code = run_cli(
        "simulate", "--family", "full-mesh", "--n", "30", "--k", "3",
        "--runs", "40", "--seed", "5", "--format", "json",
        "--trace", str(trace_path),
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"] == 40
    assert doc["ci_low"] <= doc["mean"] <= doc["ci_high"]
    lines = trace_path.read_text().splitlines()
    assert lines and lines[0].startswith("0 ")


def test_cli_sweep_csv_stdout(capsys):
    code = run_cli(
        "sweep", "--family", "poisson", "--n", "60", "--p-edge", "0.2",
        "--fractions", "0.3,0.6", "--runs", "20", "--seed", "11",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(SWEEP_HEADER + "\n")
    assert len(out.strip().split("\n")) == 3


def test_cli_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "family = poisson\nn = 60\np_edge = 0.2\nfractions = 0.3,0.6\nruns = 20\nseed = 11\n"
    )
    assert run_cli("sweep", "--config", str(cfg)) == 0
    base = capsys.readouterr().out
    assert run_cli("sweep", "--config", str(cfg), "--runs", "10") == 0
    overridden = capsys.readouterr().out
    assert base != overridden
    assert ",20," in base.split("\n")[1] and ",10," in overridden.split("\n")[1]


def test_cli_missing_parameter_is_domain_error(capsys):
    assert run_cli("analytic", "--family", "poisson", "--n", "30") == 2
    assert "p" in capsys.readouterr().err.lower()


def test_cli_unknown_config_key_is_domain_error(tmp_path, capsys):
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("family = full-mesh\nn = 10\nwarp_factor = 9\n")
    assert run_cli("analytic", "--config", str(cfg)) == 2


def test_cli_config_values_obey_the_flags_choices(tmp_path, capsys):
    cfg = tmp_path / "bad-format.cfg"
    cfg.write_text("family = full-mesh\nn = 10\nformat = xml\n")
    assert run_cli("analytic", "--config", str(cfg)) == 2
    assert "format" in capsys.readouterr().err
    cfg = tmp_path / "bad-policy.cfg"
    cfg.write_text("family = full-mesh\nn = 12\nruns = 3\npolicy = bogus\n")
    assert run_cli("simulate", "--config", str(cfg)) == 2
    assert "policy" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize(
    "flags",
    [
        "config-model --mu-d 3 --cv-d nan",
        "config-model --mu-d 3 --cv-d inf",
        "config-model --mu-d inf",
        "full-mesh --lam inf",
        "full-mesh --lam 1e-320",
        "tiered --lam inf",
        "tiered --lam 1e-320",
        # finite inputs whose E[T] or t_transit overflows
        "full-mesh --lam 6e-309 --n 5",
        "tiered --lam 1e-308 --n1 2 --p11 0.6 --p12 1 --n2 1 --p22 0",
    ],
)
def test_cli_analytic_rejects_non_finite_inputs(flags, capsys):
    argv = ["analytic", "--n", "50", "--degenerate", "clamp", "--family", *flags.split()]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_simulate_run_that_overflows_exits_2(capsys):
    argv = ["simulate", "--family", "full-mesh", "--n", "5", "--lam", "6e-309", "--runs", "5"]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: run 0: convergence time overflows")


@pytest.mark.parametrize(
    "argv,message",
    [
        ("analytic --family full-mesh --n 5 --lam 6e-309",
         "error: expected convergence time overflows at lam 6e-309\n"),
        ("simulate --family full-mesh --n 5 --lam 6e-309 --runs 5",
         "error: run 0: convergence time overflows at lam 6e-309\n"),
    ],
)
def test_cli_overflow_prints_only_the_error_line(argv, message):
    # the overflow is reported once, by the error line: no numpy
    # RuntimeWarning reaches stderr before it
    proc = run_module(*argv.split())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == message


def test_cli_statistics_are_finite_where_the_mean_is(capsys):
    # run times near 1e200 and 1e300 square past the double range; the
    # spread of the runs must still come out finite
    assert run_cli("simulate", "--family", "full-mesh", "--n", "5", "--lam", "1e-200",
                   "--runs", "5", "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1e199 < doc["mean"] < 1e201
    assert all(math.isfinite(doc[key]) for key in doc), doc
    assert doc["ci_low"] < doc["mean"] < doc["ci_high"]
    assert run_cli("core", "--lam", "1e-300", "--runs", "3", "--p22-values", "0.5",
                   "--k1-values", "20", "--format", "json") == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["error"] is None
    assert 0.0 < row["sim_std_err"] < row["sim_mean"] < math.inf


@pytest.mark.parametrize("lam", ["1e-30", "1e-10"])
def test_cli_tiered_transit_rate_underflow_names_the_inputs(lam, capsys):
    # lam * p12 * n1 is 0 at lam = 1e-30 and the subnormal 2e-309, whose
    # reciprocal overflows, at lam = 1e-10
    assert run_cli("analytic", "--family", "tiered", "--p12", "1e-300", "--lam", lam) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: transit rate n1 * p12 * lam has no finite reciprocal: "
        f"lam {lam}, p12 1e-300, n1 20\n"
    )


@pytest.mark.parametrize("exponent", ["inf", "1e308"])
def test_cli_power_law_exponent_that_underflows_exits_2(exponent, capsys):
    # every d ** -exponent on [2, 10] underflows to 0: no pmf to normalize
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("analytic", "--family", "config-model", "--n", "50",
                       "--d-min", "2", "--d-max", "10", "--exponent", exponent,
                       "--degenerate", "clamp") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exponent ")
    assert "underflows" in captured.err


@pytest.mark.parametrize(
    "exc,message",
    [
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "Unable to allocate 74.5 GiB for an array"),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_cli_memory_error_exits_2(exc, message, monkeypatch, capsys):
    # as numpy raises when a closed form's arrays do not fit in memory
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "convergence_time", exhausted)
    assert run_cli("analytic", "--family", "full-mesh", "--n", "10") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_unreachable_exit_code(capsys):
    code = run_cli(
        "simulate", "--family", "poisson", "--n", "40", "--p-edge", "0.001",
        "--runs", "3", "--seed", "1",
    )
    assert code == 3


def test_cli_io_error_exit_code(capsys):
    code = run_cli(
        "sweep", "--family", "full-mesh", "--n", "10", "--fractions", "0.5",
        "--runs", "2", "--out", "/nonexistent-dir/x.csv",
    )
    assert code == 4


def test_cli_graph_round_trip(tmp_path, capsys):
    # a flat graph, a tiered one (kind column) and a config-model one
    cases = {
        ("--family", "full-mesh", "--n", "12", "--k", "2"): 12,
        ("--family", "tiered"): 120,
        ("--family", "config-model", "--n", "60", "--d-min", "2", "--d-max", "20",
         "--exponent", "2.5"): 60,
    }
    for family, nodes in cases.items():
        dest = tmp_path / "exported.graph"
        assert run_cli("export-graph", *family, "--out", str(dest), "--seed", "3") == 0
        text = dest.read_text()
        assert text.startswith(f"n {nodes}\n")
        assert "cluster" in text
        assert ("transit12" in text) == (family[1] == "tiered")
        again = tmp_path / "again.graph"
        assert run_cli("import-graph", "--in", str(dest), "--out", str(again)) == 0
        assert again.read_text() == text, family
        assert str(nodes) in capsys.readouterr().out


@pytest.mark.parametrize("announcer_flag", [True, False])
def test_cli_bad_announcer_is_a_usage_error(announcer_flag, tmp_path, capsys):
    argv = ["simulate", "--family", "full-mesh", "--n", "8", "--runs", "3"]
    if announcer_flag:
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--announcer", "abc")
        assert exc.value.code == 2
    else:
        cfg = tmp_path / "announcer.cfg"
        cfg.write_text("announcer = abc\n")
        assert run_cli(*argv, "--config", str(cfg)) == 2
    assert "abc" in capsys.readouterr().err
    assert run_cli(*argv, "--announcer", "5") == 0


# one argv per subcommand that parses and runs as it stands
CLI_BASE_ARGV = {
    "analytic": ("analytic", "--family", "full-mesh", "--n", "4"),
    "simulate": ("simulate", "--family", "full-mesh", "--n", "8", "--runs", "3"),
    "sweep": ("sweep", "--family", "full-mesh", "--n", "10", "--fractions", "0.5",
              "--runs", "2"),
    "core": ("core", "--n1", "4", "--n2", "8", "--p22-values", "0.1", "--k1-values", "1",
             "--runs", "2"),
    "export-graph": ("export-graph", "--family", "full-mesh", "--n", "4", "--out", "{out}"),
}


@pytest.mark.parametrize("command,flag", [
    ("analytic", "--runs"),
    ("simulate", "--mu-d"), ("simulate", "--cv-d"),
    ("sweep", "--k"), ("sweep", "--mu-d"), ("sweep", "--cv-d"),
    ("core", "--k1"), ("core", "--p22"),
    ("export-graph", "--lam"), ("export-graph", "--mu-d"), ("export-graph", "--cv-d"),
])
def test_cli_rejects_a_flag_its_subcommand_does_not_read(command, flag, tmp_path, capsys):
    argv = [a.format(out=tmp_path / "g.graph") for a in CLI_BASE_ARGV[command]]
    assert run_cli(*argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, flag, "1")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,runner", [("sweep", "run_sweep"),
                                            ("core", "run_case_study")])
def test_cli_row_commands_reject_text_before_any_run(command, runner, monkeypatch,
                                                     tmp_path, capsys):
    # emit writes text for one record only, so sweep and core offer csv
    # and json, and a text request fails before the grid runs
    def never(*args, **kwargs):
        raise AssertionError(f"{runner} ran")

    monkeypatch.setattr(cli, runner, never)
    with pytest.raises(SystemExit) as exc:
        run_cli(*CLI_BASE_ARGV[command], "--format", "text")
    assert exc.value.code == 2
    assert "invalid choice: 'text'" in capsys.readouterr().err
    cfg = tmp_path / "text.cfg"
    cfg.write_text("format = text\n")
    assert run_cli(*CLI_BASE_ARGV[command], "--config", str(cfg)) == 2
    assert "'text' is not one of csv, json" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("analytic", "--fam", "full-mesh", "--n", "4"),
    ("analytic", "--family", "full-mesh", "--n", "4", "--deg", "clamp"),
    ("core", "--p22-v", "0.3", "--runs", "2"),
    ("--h",),
], ids=["--fam", "--deg", "--p22-v", "--h"])
def test_cli_rejects_abbreviated_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


def test_cli_config_key_of_another_subcommand_is_skipped(tmp_path, capsys):
    # --k is an analytic/simulate/export-graph option, not a sweep one
    cfg = tmp_path / "sweep.cfg"
    options = "family = poisson\nn = 40\np_edge = 0.15\nfractions = 0.2\nruns = 10\n"
    cfg.write_text(options)
    assert run_cli("sweep", "--config", str(cfg)) == 0
    base = capsys.readouterr().out
    cfg.write_text(options + "k = 5\n")
    assert run_cli("sweep", "--config", str(cfg)) == 0
    assert capsys.readouterr().out == base


def test_cli_seed_flag_beats_config_beats_default(tmp_path, capsys):
    argv = ("simulate", "--family", "full-mesh", "--n", "12", "--k", "2", "--runs", "20")

    def stdout(*extra):
        assert run_cli(*argv, *extra) == 0
        return capsys.readouterr().out

    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 3\n")
    default, flag_3 = stdout(), stdout("--seed", "3")
    assert default != flag_3
    assert default == stdout("--seed", "0")
    assert stdout("--config", str(cfg)) == flag_3
    assert stdout("--config", str(cfg), "--seed", "0") == default


SEEDED_ARGV = {
    **CLI_BASE_ARGV,
    "analytic": ("analytic", "--family", "config-model", "--n", "30", "--d-min", "2",
                 "--d-max", "5", "--exponent", "2"),
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(SEEDED_ARGV))
def test_cli_negative_seed_is_a_usage_error(command, via, tmp_path, capsys):
    # numpy refuses a negative seed with a ValueError; the CLI refuses it first
    argv = [a.format(out=tmp_path / "g.graph") for a in SEEDED_ARGV[command]]
    if via == "flag":
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--seed", "-1")
        assert exc.value.code == 2
    else:
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -1\n")
        assert run_cli(*argv, "--config", str(cfg)) == 2
    assert "expected a non-negative integer, got '-1'" in capsys.readouterr().err


def test_cli_builds_one_parser_tree():
    assert cli.build_parser() is cli.build_parser()


def test_cli_config_file_does_not_carry_into_the_next_call(tmp_path, capsys):
    argv = ("analytic", "--family", "full-mesh", "--n", "10")
    assert run_cli(*argv) == 0
    default = capsys.readouterr().out
    cfg = tmp_path / "json.cfg"
    cfg.write_text("k = 3\nformat = json\n")
    assert run_cli(*argv, "--config", str(cfg)) == 0
    from_file = capsys.readouterr().out
    assert json.loads(from_file)["expected_time"] == pytest.approx(
        bc.convergence_time(FullMesh(ModelParams(10, 3, 1.0))).expected_time, rel=1e-8
    )
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == default
    analytic = cli._commands(cli.build_parser())["analytic"]
    assert (analytic.get_default("k"), analytic.get_default("format")) == (1, "text")


@pytest.mark.parametrize("bad", ["warp_factor = 9\n", "format = xml\n", "k = many\n"],
                         ids=["unknown-key", "bad-choice", "bad-type"])
def test_cli_valid_call_succeeds_after_a_rejected_config(bad, tmp_path, capsys):
    argv = ("analytic", "--family", "full-mesh", "--n", "10")
    assert run_cli(*argv) == 0
    default = capsys.readouterr().out
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = 3\n" + bad)
    assert run_cli(*argv, "--config", str(cfg)) == 2
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("command", sorted(CLI_BASE_ARGV) + ["import-graph"])
def test_cli_help_prints_every_default(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    commands = cli._commands(cli.build_parser())
    defaults = [
        a.default for a in commands[command]._actions
        if a.default not in (None, argparse.SUPPRESS)
    ]
    assert defaults
    for default in defaults:
        assert f"default {default})" in text, default


def test_cli_import_graph_rejects_malformed_files(tmp_path, capsys):
    cases = {
        "n abc\ncluster 0\n": "non-integer",
        "n 4\n2 x\ncluster 0\n": "non-integer",
        "n 4\n0 1\ncluster 0 z\n": "non-integer",
        "n -3\ncluster\n": "negative",
        "n 99999999999\ncluster 0\n": "node count 99999999999",
        "n 4\n0 1\ncluster 9\n": "out of range",
        "n 4\n0 1\ncluster 0 0\n": "repeated",
        "n 4\n0 1 peer11\n0 2 transit12\ncluster 2\n": "tier-1",
        "n 3\n0 1\ncluster 0\ncluster 1\n": "second cluster line",
        "n 4\n0 1\ncluster \u00e9\n": "ASCII",
    }
    path = tmp_path / "bad.graph"
    for text, message in cases.items():
        path.write_text(text, encoding="utf-8")
        assert run_cli("import-graph", "--in", str(path)) == 2, text
        assert message in capsys.readouterr().err, text


def test_reachable_only_keeps_attempt_zero_of_the_regenerate_stream():
    # a full mesh is reachable on the first attempt, so both policies
    # must return the same graph, announcer and clock seed
    spec = FullMesh(ModelParams(12, 3, 1.0))
    for seed in range(5):
        g_a, a, clock_a = draw_point(spec, "regenerate", seed)
        g_b, b, clock_b = draw_point(spec, "reachable-only", seed)
        assert a == b
        assert clock_a == clock_b
        np.testing.assert_array_equal(g_a.indices, g_b.indices)
        np.testing.assert_array_equal(g_a.cluster, g_b.cluster)
    # far below the connectivity threshold, attempt 0 is kept unreachable;
    # the clock seed depends on the parts alone
    sparse = Poisson(ModelParams(30, 1, 1.0), 0.02)
    graph, origin, clock = draw_point(sparse, "reachable-only", 3)
    assert not bc.reachable_set(graph, origin).all()
    assert clock == draw_point(FullMesh(ModelParams(30, 1, 1.0)), "regenerate", 3)[2]


def test_reachable_only_draw_runs_no_reachability_search(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("reachable_set ran")

    monkeypatch.setattr("bgpconv.graphs.reachable_set", never)
    graph, origin, _ = draw_point(Poisson(ModelParams(30, 1, 1.0), 0.02), "reachable-only", 3)
    assert graph.node_count == 30 and 0 <= origin < 30


def test_draw_point_rejects_an_unknown_policy():
    with pytest.raises(DomainError, match="bogus"):
        draw_point(Poisson(ModelParams(30, 1, 1.0), 0.02), "bogus", 3)


PINNED_GRAPH = (
    "n 10\n0 1 peer11\n0 2 peer11\n0 4 transit12\n0 5 transit12\n"
    "0 9 transit12\n1 2 peer11\n2 5 transit12\n3 8 transit12\n3 9 transit12\n"
    "4 5 peer22\n5 6 peer22\n6 7 peer22\n7 9 peer22\ncluster 1 3\n"
)

SINGLE_RECORD_COMMANDS = {
    "analytic-full-mesh": ("analytic", "--family", "full-mesh", "--n", "30", "--k", "3"),
    "analytic-tiered": ("analytic", "--family", "tiered"),
    "simulate-full-mesh": (
        "simulate", "--family", "full-mesh", "--n", "12", "--k", "2",
        "--runs", "20", "--seed", "3",
    ),
    "import-graph": ("import-graph", "--in", "{graph}"),
    "simulate-poisson-reachable-only": (
        "simulate", "--family", "poisson", "--n", "30", "--p-edge", "0.08",
        "--k", "2", "--runs", "20", "--seed", "1", "--policy", "reachable-only",
    ),
    "simulate-tiered": (
        "simulate", "--family", "tiered", "--n1", "8", "--n2", "30",
        "--runs", "20", "--seed", "3",
    ),
    "simulate-tiered-reachable-only": (
        "simulate", "--family", "tiered", "--n1", "8", "--n2", "30",
        "--runs", "20", "--seed", "3", "--policy", "reachable-only",
    ),
}

# stdout of each single-record command, byte for byte
SINGLE_RECORD_BYTES = {
    ("analytic-full-mesh", "text"): "expected_time = 3.85820552\n",
    ("analytic-full-mesh", "csv"): "expected_time\n3.85820552\n",
    ("analytic-full-mesh", "json"): '{\n  "expected_time": 3.85820552\n}\n',
    ("analytic-tiered", "text"): (
        "t_peering = 3.54773966\nt_x_tier1 = 0.2\nt_tier1 = 3.63608095\n"
        "t_tier1_tier2 = 0.990595856\nt_transit = 4.82667681\nt_total = 4.82667681\n"
    ),
    ("analytic-tiered", "csv"): (
        "t_peering,t_x_tier1,t_tier1,t_tier1_tier2,t_transit,t_total\n"
        "3.54773966,0.2,3.63608095,0.990595856,4.82667681,4.82667681\n"
    ),
    ("analytic-tiered", "json"): (
        '{\n  "t_peering": 3.54773966,\n  "t_x_tier1": 0.2,\n'
        '  "t_tier1": 3.63608095,\n  "t_tier1_tier2": 0.990595856,\n'
        '  "t_transit": 4.82667681,\n  "t_total": 4.82667681\n}\n'
    ),
    ("simulate-full-mesh", "text"): (
        "runs = 20\nmean = 2.50268394\nstd_dev = 1.02807419\n"
        "std_err = 0.229884378\nci_low = 2.05211056\nci_high = 2.95325732\n"
    ),
    ("simulate-full-mesh", "csv"): (
        "runs,mean,std_dev,std_err,ci_low,ci_high\n"
        "20,2.50268394,1.02807419,0.229884378,2.05211056,2.95325732\n"
    ),
    ("simulate-full-mesh", "json"): (
        '{\n  "runs": 20,\n  "mean": 2.50268394,\n  "std_dev": 1.02807419,\n'
        '  "std_err": 0.229884378,\n  "ci_low": 2.05211056,\n'
        '  "ci_high": 2.95325732\n}\n'
    ),
    ("import-graph", "text"): "nodes = 10\nedges = 13\ncluster_size = 2\ntiered = true\n",
    ("import-graph", "csv"): "nodes,edges,cluster_size,tiered\n10,13,2,true\n",
    ("import-graph", "json"): (
        '{\n  "nodes": 10,\n  "edges": 13,\n  "cluster_size": 2,\n'
        '  "tiered": true\n}\n'
    ),
    ("simulate-poisson-reachable-only", "text"): (
        "runs = 20\nmean = 5.88157201\nstd_dev = 1.45092643\n"
        "std_err = 0.324437012\nci_low = 5.24567546\nci_high = 6.51746855\n"
    ),
    # the default announcer is pinned to the one the reachable draw certified
    ("simulate-tiered", "text"): (
        "runs = 20\nmean = 5.71855248\nstd_dev = 1.25104205\n"
        "std_err = 0.279741506\nci_low = 5.17025913\nci_high = 6.26684583\n"
    ),
    ("simulate-tiered-reachable-only", "text"): (
        "runs = 20\nmean = 4.95313091\nstd_dev = 1.71776945\n"
        "std_err = 0.384104927\nci_low = 4.20028526\nci_high = 5.70597657\n"
    ),
}


@pytest.mark.parametrize("command,fmt", sorted(SINGLE_RECORD_BYTES))
def test_cli_single_record_output_bytes(command, fmt, tmp_path, capsys):
    graph = tmp_path / "pinned.graph"
    graph.write_text(PINNED_GRAPH)
    argv = [a.format(graph=graph) for a in SINGLE_RECORD_COMMANDS[command]]
    assert run_cli(*argv, "--format", fmt) == 0
    assert capsys.readouterr().out == SINGLE_RECORD_BYTES[command, fmt]


# sha256 of the --trace file of two of the single-record commands
TRACE_FILE_DIGESTS = {
    "simulate-full-mesh": "f1ae0d25fe865331738289624f2483b1dce67bbdc26bfb8062b74ae98e77b6ff",
    "simulate-tiered": "a33358f305ab6d65a1e5f51962c66652d3888987ba5ce64efddd5e389c58733a",
}


@pytest.mark.parametrize("command", sorted(TRACE_FILE_DIGESTS))
def test_cli_trace_file_bytes(command, tmp_path, capsys):
    trace_path = tmp_path / "trace.txt"
    argv = SINGLE_RECORD_COMMANDS[command]
    assert run_cli(*argv, "--trace", str(trace_path)) == 0
    assert capsys.readouterr().out == SINGLE_RECORD_BYTES[command, "text"]
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert digest == TRACE_FILE_DIGESTS[command]


def test_cli_simulate_bytes_at_one_and_two_cpus(cpus, tmp_path, capsys):
    trace_path = tmp_path / "trace.txt"
    for n in (1, 2):
        cpus(n)
        for command, fmt in sorted(SINGLE_RECORD_BYTES):
            if command.startswith("simulate"):
                assert run_cli(*SINGLE_RECORD_COMMANDS[command], "--format", fmt) == 0
                assert capsys.readouterr().out == SINGLE_RECORD_BYTES[command, fmt]
        for command, digest in TRACE_FILE_DIGESTS.items():
            argv = SINGLE_RECORD_COMMANDS[command]
            assert run_cli(*argv, "--trace", str(trace_path)) == 0
            assert capsys.readouterr().out == SINGLE_RECORD_BYTES[command, "text"]
            assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == digest
    assert multiprocessing.active_children() == []


# sha256 of the stdout of small sweep and core grids under both policies
GRID_COMMANDS = {
    "sweep-poisson-regenerate": (
        ("sweep", "--family", "poisson", "--n", "40", "--p-edge", "0.15",
         "--fractions", "0.2,0.6", "--runs", "20", "--seed", "4"),
        "fa38135d8551fc57c23ade8e31d7ce96ec219c3b27c5782f59fe2632aefff38e",
    ),
    "sweep-poisson-reachable-only": (
        ("sweep", "--family", "poisson", "--n", "40", "--p-edge", "0.06",
         "--fractions", "0.2,0.6", "--runs", "20", "--seed", "4",
         "--policy", "reachable-only"),
        "12855c35b03227d6232ef9d3023f04941f2f05cbf7ee963b081faff1cae90da2",
    ),
    "sweep-config-reachable-only": (
        ("sweep", "--family", "config-model", "--n", "40", "--d-min", "1",
         "--d-max", "8", "--exponent", "2.2", "--fractions", "0.1,0.5",
         "--runs", "20", "--seed", "2", "--policy", "reachable-only"),
        "f07921ebf2caa30fa3e1f11e539360579b3a1c31de1300dae2d4932e87256d10",
    ),
    "core-regenerate": (
        ("core", "--n1", "6", "--n2", "20", "--p22-values", "0.1,0.4",
         "--k1-values", "1,3", "--runs", "30", "--seed", "2"),
        "2eaa977451ff28bdfa22ff96563eda88efd3b6874dbadb9f012882f661d16ea8",
    ),
    "core-reachable-only": (
        ("core", "--n1", "6", "--n2", "20", "--p12", "0.2", "--p22-values",
         "0.1,0.4", "--k1-values", "1,3", "--runs", "30", "--seed", "2",
         "--policy", "reachable-only"),
        "f33f792cb29d41b4ed6034b1c8248e136674861eee80f9c18f3e48749e0bbdd4",
    ),
}


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
def test_cli_grid_output_digest(command, capsys):
    argv, digest = GRID_COMMANDS[command]
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_cli_core_reports_best_k1(capsys):
    code = run_cli(
        "core", "--p22-values", "0.2", "--k1-values", "1,5",
        "--runs", "40", "--seed", "3",
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(CORE_HEADER + "\n")
    assert "p22=0.2" in captured.err


# Runs the CLI calls in argv[1] (a JSON list) in one fresh interpreter
# with two CPUs in its affinity mask, and prints, as JSON, which of
# multiprocessing and numpy.random were loaded after the import and
# after each call, with each call's exit code and stdout.
NUMPY_RANDOM_PROBE = """
import contextlib, io, json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
def loaded():
    return [m for m in ("multiprocessing", "numpy.random") if m in sys.modules]
import bgpconv
from bgpconv import cli
report = [loaded()]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report.append([loaded(), code, out.getvalue()])
print(json.dumps(report))
"""

DRAW_FREE_CALLS = [
    ["analytic", "--family", "full-mesh", "--n", "300", "--k", "3"],
    ["analytic", "--family", "poisson", "--n", "300", "--k", "3", "--p-edge", "0.05"],
    ["analytic", "--family", "tiered", "--k1", "5"],
    ["analytic", "--family", "config-model", "--n", "300", "--k", "3",
     "--mu-d", "13.4", "--cv-d", "1.05", "--degenerate", "clamp"],
]


def numpy_random_probe(*calls):
    proc = run_fresh("-c", NUMPY_RANDOM_PROBE, json.dumps([list(c) for c in calls]))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("drawing", ["config-model", "simulate"])
def test_only_calls_that_draw_load_numpy_random(drawing, capsys):
    # the closed forms draw nothing, so numpy.random stays unimported
    # until a call needs a generator, and multiprocessing until a call
    # forks workers for its runs
    drawn_config = ("analytic", "--family", "config-model", "--n", "300", "--k", "3",
                    "--d-min", "5", "--d-max", "200", "--exponent", "2.0",
                    "--degenerate", "clamp")
    call = drawn_config if drawing == "config-model" else \
        SINGLE_RECORD_COMMANDS["simulate-full-mesh"]
    imported, *free, (loaded, code, out) = numpy_random_probe(*DRAW_FREE_CALLS, call)
    assert imported == []
    assert [(row[0], row[1]) for row in free] == [([], 0)] * len(DRAW_FREE_CALLS)
    for argv, (_, _, text) in zip(DRAW_FREE_CALLS, free):
        assert run_cli(*argv) == 0
        assert text == capsys.readouterr().out
    if drawing == "simulate":
        assert (loaded, code) == (["multiprocessing", "numpy.random"], 0)
        assert out == SINGLE_RECORD_BYTES["simulate-full-mesh", "text"]
    else:
        assert (loaded, code) == (["numpy.random"], 0)


def test_forked_points_leave_numpy_random_loaded_in_the_parent():
    argv, digest = GRID_COMMANDS["sweep-poisson-regenerate"]
    imported, (loaded, code, out) = numpy_random_probe(argv)
    assert (imported, loaded, code) == ([], ["multiprocessing", "numpy.random"], 0)
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
