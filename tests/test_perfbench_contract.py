"""The names and results the benchmark harness relies on.

perfbench/spans.py wraps bgpconv functions by dotted path and reads
counts from their results; a rename or a changed result type would
only show when the benchmark runs.  These tests load the harness's
tables by path, without importing the harness as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from bgpconv.analytic import convergence_time
from bgpconv.model import ConfigModel, FullMesh, ModelParams, Poisson

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
