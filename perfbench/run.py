"""bgpconv benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the bgpconv
package under its src/ (no install needed).  One process runs one
workload on one thread.  A closed-loop client calls
``bgpconv.cli.main(argv)`` in-process for each invocation of a pass (see
workloads.py), writing with ``--out`` to a file, and starts the next pass
only when the last has returned, until ``--seconds`` have passed.  Every
output is checked; a wrong output, a failed unit or a nonzero exit code
makes the script exit 1.  Without src/bgpconv it exits 2 before
printing a result.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (units: sweep points, grid points, or
single-result invocations) and ``metrics``.

Times are reported at a reference host speed: each sample is scaled by
PROBE_REF_S over the time of a fixed speed probe (probe.py, in an
interpreter of its own) run just before and just after it.  On a shared
host, speed drifts by 25% or more over minutes; the scaled times cancel
most of that drift.  The measured pass times, their scale factors and
the medians as measured are printed before the result.  Metric names
and units come from BENCHMARK.json.

--trace 0 reports the end-to-end metrics of untraced passes:
  setup_s      median over fresh interpreters of the time from start
               until bgpconv is imported and, with numba, JIT-warmed
  wall_s       median wall seconds of one pass
  cpu_s        median process CPU seconds of one pass
  runs_per_s   median over passes of simulated runs per wall second; on
               analytic-scale, which simulates nothing, closed-form
               evaluations per wall second
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of spans.py (as measured, not scaled), and
trace.overhead_frac: the median over adjacent (untraced, traced) pass
pairs of their scaled wall-time ratio, minus 1.  Spans are written to
perfbench/_work/trace-<workload>-seed<seed>.jsonl.
"""

import os

# one thread per process, whatever numpy was built with
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SETUP_SAMPLES = 7
# the median of the speed probe's timings over a series of benchmark runs
# on the host the bounds were set on (Intel Xeon at 2.1 GHz, 2 vCPUs)
PROBE_REF_S = 0.12

WARM = """
import bgpconv
if bgpconv.HAS_NUMBA:
    from bgpconv.graphs import gen_full_mesh
    from bgpconv.model import ModelParams
    bgpconv.run_dissemination(gen_full_mesh(ModelParams(3, 1, 1.0), 0), 0, 1.0, 0)
"""


def import_program():
    if not (SRC / "bgpconv" / "__init__.py").is_file():
        print(f"error: no bgpconv package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bgpconv
    import bgpconv.cli

    if Path(bgpconv.__file__).resolve().parent != SRC / "bgpconv":
        print(f"error: imported bgpconv from {bgpconv.__file__}", file=sys.stderr)
        sys.exit(2)
    exec(WARM, {})
    return bgpconv


class SpeedProbe:
    """The host's current speed, from probe.py timed next to each sample.

    Shared hosts drift by 25% or more over minutes, and the probe's time
    moves with them.  A sample times PROBE_REF_S over the mean probe time
    just before and just after it reads as seconds at the reference speed.
    The probe runs in an interpreter of its own that never imports the
    program, so the program under test cannot change the divisor.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py")], cwd=ROOT,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.last = self._run()

    def _run(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe exited {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def scale(self) -> float:
        """Factor to reference speed for the sample since the last call."""
        before, self.last = self.last, self._run()
        return PROBE_REF_S / ((before + self.last) / 2.0)


def measure_setup(probe: SpeedProbe) -> float:
    """Median set-up time of fresh interpreters, at reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    probe.scale()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", WARM], env=env, cwd=ROOT, check=True)
        samples.append((time.perf_counter() - t0) * probe.scale())
    return statistics.median(samples)


def git_sha() -> str:
    """HEAD's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def bit_identity(bgpconv) -> str:
    """numba and numpy kernels must return equal arrays on the same inputs."""
    if not bgpconv.HAS_NUMBA:
        return "skipped: numba not importable"
    from bgpconv import graphs
    from bgpconv.model import ModelParams, TieredCore

    # benchmarks/bench_backends.py's cases; n=3000 is above 2048, where
    # the draw buffer runs out and the run restarts with a doubled buffer
    sparse = graphs.gen_poisson(ModelParams(300, 3, 1.0), 1 / 60, 1)
    big = graphs.gen_poisson(ModelParams(3000, 30, 1.0), 0.004, 1)
    cases = [
        (graphs.gen_full_mesh(ModelParams(300, 3, 1.0), 1), 0),
        (sparse, int(np.argmax(sparse.degrees))),
        (big, int(np.argmax(big.degrees))),
        (graphs.gen_tiered_core(TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 1.0), 1), 25),
    ]
    for graph, announcer in cases:
        for seed in range(3):
            a, used_a = bgpconv.run_dissemination(graph, announcer, 1.0, seed, "numba",
                                                  "reachable-only")
            b, used_b = bgpconv.run_dissemination(graph, announcer, 1.0, seed, "numpy",
                                                  "reachable-only")
            if used_a != used_b or not np.array_equal(a, b):
                raise CheckError(f"numba and numpy differ on seed {seed}")
    return "passed"


def environment(bgpconv) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "has_numba": bgpconv.HAS_NUMBA,
        "backend": bgpconv.active_backend(),
        "bit_identity": bit_identity(bgpconv),
    }


class Client:
    """Runs passes of one workload through bgpconv.cli.main, one at a time."""

    def __init__(self, cli, outdir: Path, tracer: spans.Tracer | None = None):
        self.cli = cli
        self.outdir = outdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.first_outputs: dict[tuple[str, ...], str] = {}

    def run_pass(self, invocations, traced: bool = False) -> tuple[float, float]:
        """Run one pass and check it; return its (wall, cpu) seconds."""
        paths = [self.outdir / f"{i}.out" for i in range(len(invocations))]
        codes = []
        gc.collect()
        if traced:
            self.tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            for inv, path in zip(invocations, paths):
                if traced:
                    self.tracer.invocation += 1
                codes.append(self._invoke(list(inv.argv) + ["--out", str(path)]))
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if traced:
                self.tracer.uninstall()
        for inv, path, code in zip(invocations, paths, codes):
            self.attempted += inv.units
            if code != 0:
                self.failed += inv.units
                continue
            text = path.read_text(encoding="ascii")
            first = self.first_outputs.get(inv.argv)
            if first is None:
                self.first_outputs[inv.argv] = text
                self.failed += inv.check(text)
            elif text != first:
                raise CheckError(f"output of {' '.join(inv.argv)} changed between passes")
        return wall, cpu

    def _invoke(self, argv) -> int:
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception:  # report the program's crash as a failed unit
            code = -1
            stderr.write(traceback.format_exc())
        if code != 0:
            print(f"{' '.join(argv)} exited {code}:\n{stderr.getvalue()}", file=sys.stderr)
        return code


def timed(client: Client, make, seconds: float, trace: bool, probe: SpeedProbe):
    """Closed loop: passes until `seconds` have passed or a unit fails,
    alternating untraced and traced passes when `trace`; returns
    ([(wall, cpu, evaluations, scale)], traced walls at reference speed,
    traced span index ranges)."""
    untraced, traced, ranges = [], [], []
    start = time.perf_counter()
    probe.scale()
    while not client.failed and (len(untraced) < 1 or (trace and len(traced) < 1)
                                 or time.perf_counter() - start < seconds):
        invocations = make()
        evaluations = sum(inv.evaluations for inv in invocations)
        if trace and len(traced) < len(untraced):
            lo = len(client.tracer.spans)
            wall, _ = client.run_pass(invocations, traced=True)
            traced.append(wall * probe.scale())
            ranges.append((lo, len(client.tracer.spans)))
        else:
            wall, cpu = client.run_pass(invocations)
            untraced.append((wall, cpu, evaluations, probe.scale()))
    return untraced, traced, ranges


def as_metrics(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """The measured values under BENCHMARK.json's names, with its units."""
    names = sorted(spec["name"] for spec in specs)
    if sorted(values) != names:
        raise RuntimeError(f"measured {sorted(values)}, but BENCHMARK.json names {names}")
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    bgpconv = import_program()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics: dict[str, dict] = {}
    WORK.mkdir(exist_ok=True)
    outdir = WORK / f"{args.workload}-{os.getpid()}"
    outdir.mkdir()
    tracer = spans.Tracer() if args.trace else None
    client = Client(bgpconv.cli, outdir, tracer)
    correct = True
    probe = SpeedProbe()
    try:
        print("env " + json.dumps(environment(bgpconv)))
        if not args.trace:
            setup_s = measure_setup(probe)
        # untimed warm-up: the workload's extra checks, or else one pass
        client.run_pass(workload.make_checks(args.seed) or workload.make_pass(args.seed))
        if client.failed:
            raise CheckError(f"{client.failed} units failed in the warm-up")
        untraced, traced, ranges = timed(
            client, lambda: workload.make_pass(args.seed), args.seconds, bool(args.trace),
            probe,
        )
        print(f"pass wall seconds, as measured: {[round(w, 3) for w, _, _, _ in untraced]}; "
              f"speed scale: {[round(k, 3) for _, _, _, k in untraced]}")
        print(f"medians as measured: wall_s {statistics.median(w for w, _, _, _ in untraced)}, "
              f"cpu_s {statistics.median(c for _, c, _, _ in untraced)}")
        if args.trace:
            values = spans.layer_metrics(tracer.spans, ranges)
            # each traced pass runs right after an untraced one; pairing
            # them cancels most of the host's drift
            values["trace.overhead_frac"] = statistics.median(
                t / (u * k) for (u, _, _, k), t in zip(untraced, traced)
            ) - 1.0
            tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics = as_metrics(values, bench["per_layer"])
        else:
            metrics = as_metrics({
                "setup_s": setup_s,
                "wall_s": statistics.median(w * k for w, _, _, k in untraced),
                "cpu_s": statistics.median(c * k for _, c, _, k in untraced),
                "runs_per_s": statistics.median(e / (w * k) for w, _, e, k in untraced),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }, bench["end_to_end"])
    except (CheckError, KeyError, ValueError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        probe.close()
        shutil.rmtree(outdir, ignore_errors=True)
    correct = correct and client.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(client.attempted, 1),
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
