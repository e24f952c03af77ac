"""The benchmark's workloads: the CLI invocations of one pass, and the
checks on what they write.

A pass is the list of ``bgpconv`` CLI invocations that make up one
closed-loop request of a workload.  Each invocation carries its argv
(without ``--out``), the number of units it stands for (sweep points,
grid points, or 1 for a single-result command), the number of model
evaluations it performs (simulated dissemination runs, or closed forms
for ``analytic``), and the check for its output.

A check returns the number of failed units (rows that carry ``error``)
and raises CheckError when an output is wrong.

Reference values below are the closed forms of bgpconv 0.1.0,
evaluated at full precision through ``bgpconv.analytic``.  The CLI
rounds every float to nine significant digits, so a value matches its
reference when it is within 1e-9 relative plus half a unit in that
ninth digit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable


class CheckError(Exception):
    """An output of the program under test is wrong."""


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    units: int
    evaluations: int
    check: Callable[[str], int]


@dataclass(frozen=True)
class Workload:
    # seed -> the invocations of one timed pass
    make_pass: Callable[[int], list[Invocation]]
    # seed -> invocations run once per benchmark run, untimed, to check
    # properties that the timed passes cannot carry
    make_checks: Callable[[int], list[Invocation]] = lambda seed: []


# --- reference values --------------------------------------------------

FULL_MESH_6000_K1 = 9.276647077463927
FULL_MESH_6000_K60 = 9.266597583313917
POISSON_6000_K60 = 9.775516829795954
CONFIG_1500_K15 = 8.817120187737707

TIERED_FIELDS = (
    "t_peering", "t_x_tier1", "t_tier1", "t_tier1_tier2", "t_transit", "t_total",
)
# (p22, k1) -> TIERED_FIELDS for the default 20 + 100 template
TIERED = {
    (0.1, 1): (2.828968253968254, 0.2, 3.6360809492212365, 1.014291898347481, 4.850372847568718, 4.850372847568718),
    (0.1, 5): (2.828968253968254, 0.2, 3.325108729273802, 1.014291898347481, 4.5394006276212835, 4.5394006276212835),
    (0.1, 10): (2.828968253968254, 0.2, 2.9109384161711014, 1.014291898347481, 4.125230314518582, 4.125230314518582),
    (0.1, 20): (2.828968253968254, 0.2, 0.0, 1.014291898347481, 1.2142918983474809, 2.828968253968254),
    (0.3, 1): (3.9616537975870583, 0.2, 3.6360809492212365, 0.9637102086704713, 4.799791157891708, 4.799791157891708),
    (0.3, 5): (3.9616537975870583, 0.2, 3.325108729273802, 0.9637102086704713, 4.488818937944274, 4.488818937944274),
    (0.3, 10): (3.9616537975870583, 0.2, 2.9109384161711014, 0.9637102086704713, 4.074648624841573, 4.074648624841573),
    (0.3, 20): (3.9616537975870583, 0.2, 0.0, 0.9637102086704713, 1.1637102086704714, 3.9616537975870583),
    (0.5, 1): (4.479205338329424, 0.2, 3.6360809492212365, 0.8958410676658848, 4.731922016887122, 4.731922016887122),
    (0.5, 5): (4.479205338329424, 0.2, 3.325108729273802, 0.8958410676658848, 4.420949796939687, 4.479205338329424),
    (0.5, 10): (4.479205338329424, 0.2, 2.9109384161711014, 0.8958410676658848, 4.006779483836986, 4.479205338329424),
    (0.5, 20): (4.479205338329424, 0.2, 0.0, 0.8958410676658848, 1.0958410676658847, 4.479205338329424),
}

# Poisson(N=300, p=1/60) closed form at the 11 default sweep fractions
SWEEP_FRACTIONS = tuple(round(i / 10, 1) for i in range(11))
SWEEP_ANALYTIC = (
    7.330509039087174, 6.874721621223491, 6.544894853854481, 6.284752487617801,
    6.04435986220121, 5.798374532893726, 5.52564772127374, 5.197914226928313,
    4.759620575040754, 4.042128770749725, 0.0,
)

P_EDGE_PAPER = repr(1 / 60)


def matches(value: float, ref: float) -> bool:
    """value equals ref to 1e-9 relative, after rounding to nine digits."""
    if ref == 0.0:
        return value == 0.0
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 8)
    return abs(value - ref) <= 1e-9 * abs(ref) + half_digit


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _expect_match(value, ref: float, what: str) -> None:
    _expect(
        isinstance(value, (int, float)) and matches(float(value), ref),
        f"{what}: {value!r} does not match reference {ref!r}",
    )


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# --- sweep-paper ---------------------------------------------------------

# Under a third of the CLI's default 200: short passes give each timed run
# about eight of them to take the median over, where the host's speed
# swings within seconds.  The kernel still does most of the work.
SWEEP_RUNS = 60
CRITERION3_RUNS = 200
CRITERION3_SEED = 1
CRITERION3_FRACTIONS = SWEEP_FRACTIONS[1:]


def _sweep_argv(seed: int, runs: int, fractions: tuple[float, ...] | None) -> tuple[str, ...]:
    argv = (
        "sweep", "--family", "poisson", "--n", "300", "--p-edge", P_EDGE_PAPER,
        "--runs", str(runs), "--seed", str(seed), "--format", "json",
    )
    if fractions is not None:
        argv += ("--fractions", ",".join(repr(f) for f in fractions))
    return argv


def _sweep_rows(text: str, fractions: tuple[float, ...], runs: int, seed: int):
    """Check the seed-independent content of a sweep; return (rows, failed)."""
    rows = json.loads(text)
    _expect(isinstance(rows, list) and len(rows) == len(fractions),
            f"sweep: expected {len(fractions)} rows")
    failed = 0
    for row, fraction in zip(rows, fractions):
        _expect(row["sweep_value"] == fraction, f"sweep: row order {row['sweep_value']}")
        _expect(row["runs"] == runs and row["seed"] == seed, "sweep: runs or seed echoed wrong")
        if row["error"] is not None:
            failed += 1
            continue
        _expect_match(row["analytic"], SWEEP_ANALYTIC[SWEEP_FRACTIONS.index(fraction)],
                      f"sweep analytic at {fraction}")
        _expect(_finite(row["sim_mean"]) and _finite(row["sim_std_err"]),
                f"sweep: non-finite simulation at {fraction}")
        if fraction == 1.0:
            _expect(row["sim_mean"] == 0.0, "sweep: nonzero time at full penetration")
    return rows, failed


def gate_misses(rows) -> int:
    """Rows outside criterion 3's gates: rel_error <= 0.10 and jensen_ok."""
    return sum(1 for r in rows if not (r["rel_error"] <= 0.10 and r["jensen_ok"]))


def _check_sweep(seed: int) -> Callable[[str], int]:
    def check(text: str) -> int:
        rows, failed = _sweep_rows(text, SWEEP_FRACTIONS, SWEEP_RUNS, seed)
        print(f"criterion 3 gates at seed {seed}, {SWEEP_RUNS} runs: "
              f"{gate_misses(rows)} of {len(rows)} points miss (reported, not gated)")
        return failed
    return check


def _check_criterion3(text: str) -> int:
    rows, failed = _sweep_rows(text, CRITERION3_FRACTIONS, CRITERION3_RUNS, CRITERION3_SEED)
    _expect(failed == 0 and gate_misses(rows) == 0,
            "criterion 3: a point misses rel_error <= 0.10 or jensen_ok")
    sim = [r["sim_mean"] for r in rows]
    _expect(all(b <= a + 1e-12 for a, b in zip(sim, sim[1:])),
            "criterion 3: simulated means not monotone in penetration")
    return failed


def sweep_pass(seed: int) -> list[Invocation]:
    return [Invocation(_sweep_argv(seed, SWEEP_RUNS, None), len(SWEEP_FRACTIONS),
                       len(SWEEP_FRACTIONS) * SWEEP_RUNS, _check_sweep(seed))]


def sweep_checks(seed: int) -> list[Invocation]:
    # Criterion 3 draws one graph per point, and jensen_ok ignores the
    # between-graph variance, so its gates miss at some master seeds
    # (3 of seeds 0-11 in bgpconv 0.1.0).  They are gated at the
    # criterion's own seed and run count; timed passes only report misses.
    return [Invocation(_sweep_argv(CRITERION3_SEED, CRITERION3_RUNS, CRITERION3_FRACTIONS),
                       len(CRITERION3_FRACTIONS),
                       len(CRITERION3_FRACTIONS) * CRITERION3_RUNS, _check_criterion3)]


# --- core-grid -------------------------------------------------------------

CORE_RUNS = 40


def _check_core(seed: int) -> Callable[[str], int]:
    def check(text: str) -> int:
        payload = json.loads(text)
        rows = payload["rows"]
        _expect(len(rows) == len(TIERED), f"core: expected {len(TIERED)} rows")
        failed = 0
        for row, key in zip(rows, sorted(TIERED)):
            _expect((row["p22"], row["k1"]) == key, f"core: grid order at {key}")
            _expect(row["runs"] == CORE_RUNS and row["seed"] == seed,
                    "core: runs or seed echoed wrong")
            if row["error"] is not None:
                failed += 1
                continue
            ref = dict(zip(TIERED_FIELDS, TIERED[key]))
            for field, ref_field in (("analytic_total", "t_total"),
                                     ("analytic_peering", "t_peering"),
                                     ("analytic_transit", "t_transit")):
                _expect_match(row[field], ref[ref_field], f"core {field} at {key}")
            _expect(_finite(row["sim_mean"]) and row["sim_mean"] > 0.0,
                    f"core: bad simulated mean at {key}")
        return failed
    return check


def core_pass(seed: int) -> list[Invocation]:
    argv = ("core", "--runs", str(CORE_RUNS), "--seed", str(seed), "--format", "json")
    return [Invocation(argv, len(TIERED), len(TIERED) * CORE_RUNS, _check_core(seed))]


# --- analytic-scale ------------------------------------------------------------

def _check_flat(ref: float, what: str, extra: Callable[[float], None] = lambda v: None):
    def check(text: str) -> int:
        value = json.loads(text)["expected_time"]
        _expect_match(value, ref, what)
        extra(value)
        return 0
    return check


def _harmonic_check(value: float) -> None:
    harmonic = math.fsum(1.0 / i for i in range(1, 6000))  # H_{N-1} / lambda, lambda = 1
    _expect_match(value, harmonic, "full mesh vs H_{N-1}")


def _poisson_check(value: float) -> None:
    _expect(value >= FULL_MESH_6000_K60, "Poisson below the full mesh at the same (N, k)")


def _check_tiered(key: tuple[float, int]) -> Callable[[str], int]:
    def check(text: str) -> int:
        payload = json.loads(text)
        for field, ref in zip(TIERED_FIELDS, TIERED[key]):
            _expect_match(payload[field], ref, f"tiered {field} at {key}")
        return 0
    return check


def analytic_pass(seed: int) -> list[Invocation]:
    fmt = ("--format", "json")
    invocations = [
        Invocation(("analytic", "--family", "full-mesh", "--n", "6000", "--k", "1") + fmt,
                   1, 1, _check_flat(FULL_MESH_6000_K1, "full mesh", _harmonic_check)),
        Invocation(("analytic", "--family", "poisson", "--n", "6000", "--k", "60",
                    "--p-edge", "0.002") + fmt,
                   1, 1, _check_flat(POISSON_6000_K60, "poisson", _poisson_check)),
        Invocation(("analytic", "--family", "config-model", "--n", "1500", "--k", "15",
                    "--mu-d", "13.4", "--cv-d", "1.05", "--degenerate", "clamp") + fmt,
                   1, 1, _check_flat(CONFIG_1500_K15, "config model")),
    ]
    for p22, k1 in sorted(TIERED):
        argv = ("analytic", "--family", "tiered", "--p22", repr(p22), "--k1", str(k1)) + fmt
        invocations.append(Invocation(argv, 1, 1, _check_tiered((p22, k1))))
    # the closed forms take no seed, so the seed orders the invocations
    random.Random(seed).shuffle(invocations)
    return invocations


# --- sparse-large --------------------------------------------------------------

SPARSE_RUNS = 5
POISSON_3000_K30 = 9.049071185731425
# The mean of 5 runs on one graph sits within 14% of the closed form
# over seeds 1-20 (standard error about 5%); the band catches a wrong
# rate or a broken kernel, not small drifts.
SPARSE_BAND = 0.35


def _check_sparse(text: str) -> int:
    # The CLI's default regenerate policy runs strictly: a run that
    # leaves a node unreached raises, and main returns 3.  So a zero
    # exit with `runs` results means every run reached every node.
    payload = json.loads(text)
    _expect(payload["runs"] == SPARSE_RUNS, "sparse: wrong run count")
    mean = payload["mean"]
    _expect(_finite(mean) and abs(mean / POISSON_3000_K30 - 1.0) <= SPARSE_BAND,
            f"sparse: mean {mean!r} outside {SPARSE_BAND:.0%} of the closed form")
    _expect(payload["std_dev"] >= 0.0 and payload["ci_low"] <= mean <= payload["ci_high"],
            "sparse: inconsistent statistics")
    return 0


def sparse_pass(seed: int) -> list[Invocation]:
    argv = ("simulate", "--family", "poisson", "--n", "3000", "--k", "30",
            "--p-edge", "0.004", "--runs", str(SPARSE_RUNS), "--seed", str(seed),
            "--format", "json")
    return [Invocation(argv, 1, SPARSE_RUNS, _check_sparse)]


# Why each workload: BENCHMARK.json.  sweep-paper and sparse-large run the
# same kernel in its two buffer regimes (presized for n <= 2048, grown by
# doubling above); core-grid stresses graph generation, reachability and
# per-call overhead; analytic-scale runs only the closed forms.
WORKLOADS = {
    "sweep-paper": Workload(sweep_pass, sweep_checks),
    "core-grid": Workload(core_pass),
    "analytic-scale": Workload(analytic_pass),
    "sparse-large": Workload(sparse_pass),
}
