"""The names, results and command lines the benchmark harness relies on.

perfbench/spans.py wraps bgpconv functions by dotted path and reads
counts from their results, and perfbench/workloads.py runs the CLI with
fixed argv; a rename, a changed result type or a dropped flag would
only show when the benchmark runs.  These tests load the harness's
tables by path, without importing the harness as a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import bgpconv
import bgpconv._kernels as kernels
from bgpconv import cli, graphs
from bgpconv.analytic import convergence_time
from bgpconv.model import ConfigModel, FullMesh, ModelParams, Poisson, TieredCore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_span_path_names_a_bgpconv_callable(spans):
    for path in spans.SPANS:
        module, attr = path.rsplit(".", 1)
        assert module == "bgpconv" or module.startswith("bgpconv."), path
        assert callable(getattr(importlib.import_module(module), attr, None)), path


@pytest.mark.parametrize(
    "spec",
    [
        FullMesh(ModelParams(40, 6, 1.0)),
        Poisson(ModelParams(50, 1, 2.0), 0.3),
        ConfigModel(ModelParams(50, 1, 0.5), mu_d=1.5, cv_d=0.2),
    ],
    ids=["full-mesh", "poisson", "config-model"],
)
def test_profile_bytes_count_is_the_float64_degree_matrix(spans, spec):
    # analytic.profile_bytes counts the (N-k+1) x (N-k) float64 D(i|x) matrix
    steps = spec.params.steps
    count = spans.COUNTS["analytic.convergence_time"](convergence_time(spec))
    assert count == 8 * (steps + 1) * steps


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_every_workload_argv_parses(workloads, seed):
    parser = cli.build_parser()
    for name, workload in workloads.WORKLOADS.items():
        for invocation in workload.make_pass(seed) + workload.make_checks(seed):
            # the harness appends --out to every invocation
            args = parser.parse_args(list(invocation.argv) + ["--out", "result"])
            assert callable(args.handler), (name, invocation.argv)


def test_bit_identity_call_runs_on_the_numpy_kernel(monkeypatch):
    # perfbench/run.py::bit_identity makes this call, with "numba" and
    # "numpy", only when numba imports; the numpy half runs everywhere,
    # and the "numba" half runs here on the un-jitted scalar kernel
    graph = graphs.gen_tiered_core(TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 1.0), 1)
    times, used = bgpconv.run_dissemination(graph, 25, 1.0, 0, "numpy",
                                            "reachable-only")
    assert times.shape == (graph.node_count,) and times.dtype == np.float64
    assert times[25] == 0.0
    assert isinstance(used, int) and used > 0
    monkeypatch.setattr(kernels, "HAS_NUMBA", True)
    monkeypatch.setattr(kernels, "_scalar_kernel_jit", kernels._scalar_kernel)
    scalar_times, scalar_used = bgpconv.run_dissemination(graph, 25, 1.0, 0, "numba",
                                                          "reachable-only")
    assert scalar_times.tobytes() == times.tobytes()
    assert scalar_used == used
