"""End-to-end acceptance gate.

Each test drives one published acceptance check at its stated tolerance
and wall-clock budget, then prints a single PASS/FAIL line straight to
the terminal (bypassing capture) so the verdict roll-up is visible in
any pytest invocation.

Budgets measure steady-state runtime: the session fixture below warms
the compiled kernel once so JIT compilation is not billed to whichever
criterion happens to run first.
"""

import math
import time

import numpy as np
import pytest

import bgpconv as bc
import bgpconv.graphs as gg
from bgpconv.model import FullMesh, ModelParams, Poisson, TieredCore

GRID_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
MASTER_SEED = 1


def report(capfd, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[acceptance] {name}: {verdict} ({detail})", flush=True)


@pytest.fixture(scope="module", autouse=True)
def warm_kernel():
    g = gg.gen_full_mesh(ModelParams(3, 1, 1.0), 0)
    bc.run_dissemination(g, 0, 1.0, 0)


def test_criterion_1_hit_distribution_sums(capfd):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 10, 50, 300, 500):
        for k in {1, n // 2, n}:
            if k < 1:
                continue
            dist = bc.p_sdn_distribution(ModelParams(n, k, 1.0))
            worst = max(worst, abs(math.fsum(dist) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    report(capfd, "1 distribution sums", ok, f"max |sum-1|={worst:.2e}, {elapsed:.2f}s of 1s")
    assert worst <= 1e-9
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_2_full_mesh_agreement(capfd):
    t0 = time.perf_counter()
    small = bc.convergence_time(FullMesh(ModelParams(4, 2, 1.0))).expected_time
    small_gap = abs(small - 4 / 3)
    g = gg.gen_full_mesh(ModelParams(4, 2, 1.0), 7)
    res_small = bc.simulate_batch(bc.RunConfig(graph=g, lam=1.0, seed=2), 100_000)
    z_small = abs(res_small.stats.mean - 4 / 3) / res_small.stats.std_err

    h299 = math.fsum(1 / i for i in range(1, 300))
    big = bc.convergence_time(FullMesh(ModelParams(300, 1, 1.0))).expected_time
    big_gap = abs(big - h299) / h299
    g2 = gg.gen_full_mesh(ModelParams(300, 1, 1.0), 8)
    res_big = bc.simulate_batch(bc.RunConfig(graph=g2, lam=1.0, seed=3), 200)
    z_big = abs(res_big.stats.mean - h299) / res_big.stats.std_err

    elapsed = time.perf_counter() - t0
    ok = small_gap <= 1e-12 and big_gap <= 1e-9 and z_small <= 3 and z_big <= 3 and elapsed < 30
    report(
        capfd, "2 full-mesh agreement", ok,
        f"4/3 gap={small_gap:.1e} z={z_small:.2f}; H299 gap={big_gap:.1e} z={z_big:.2f}; "
        f"{elapsed:.1f}s of 30s",
    )
    assert small_gap <= 1e-12
    assert big_gap <= 1e-9
    assert z_small <= 3 and z_big <= 3
    assert elapsed < 30


def test_criterion_3_sparse_random_graph_sweep(capfd):
    t0 = time.perf_counter()
    spec = bc.SweepSpec(
        Poisson(ModelParams(300, 1, 1.0), 1 / 60),
        sweep_values=GRID_FRACTIONS + (1.0,),
        runs_per_point=200,
        master_seed=MASTER_SEED,
    )
    rows = bc.run_sweep(spec)
    rel_max = max(r.rel_error for r in rows)
    jensen = all(r.jensen_ok for r in rows)
    analytic = [r.analytic for r in rows]
    sim = [r.sim_mean for r in rows]
    mono = all(b <= a + 1e-12 for a, b in zip(analytic, analytic[1:])) and all(
        b <= a + 1e-12 for a, b in zip(sim, sim[1:])
    )
    zero = rows[-1].analytic == 0.0 and rows[-1].sim_mean == 0.0
    elapsed = time.perf_counter() - t0
    ok = rel_max <= 0.10 and jensen and mono and zero and elapsed < 120
    report(
        capfd, "3 sparse-graph sweep", ok,
        f"max rel={rel_max:.3f} of 0.10, jensen={'all ok' if jensen else 'violated'}, "
        f"monotone={mono}, zero-at-full={zero}, {elapsed:.1f}s of 120s",
    )
    assert rel_max <= 0.10
    assert jensen and mono and zero
    assert elapsed < 120


def test_criterion_4_heavy_tail_sweep(capfd):
    t0 = time.perf_counter()
    template = bc.power_law_config_spec(300, 5, 200, 2.0, master_seed=MASTER_SEED)
    spec = bc.SweepSpec(
        template,
        sweep_values=GRID_FRACTIONS,
        runs_per_point=200,
        master_seed=MASTER_SEED,
    )
    rows = bc.run_sweep(spec)
    rel_max = max(r.rel_error for r in rows)
    elapsed = time.perf_counter() - t0
    ok = rel_max <= 0.18 and elapsed < 180
    report(
        capfd, "4 heavy-tail sweep", ok,
        f"max rel={rel_max:.3f} of 0.18, {elapsed:.1f}s of 180s",
    )
    assert rel_max <= 0.18
    assert elapsed < 180


def test_criterion_5_rate_scaling(capfd):
    t0 = time.perf_counter()
    g = gg.gen_poisson(ModelParams(50, 4, 1.0), 0.25, 12)
    slow = bc.simulate_batch(bc.RunConfig(graph=g, lam=1.0, seed=6), 50)
    fast = bc.simulate_batch(bc.RunConfig(graph=g, lam=2.0, seed=6), 50)
    batch_ok = np.array_equal(fast.times, slow.times / 2.0)
    trace_ok = True
    for r in range(10):
        ts = bc.simulate_once(bc.RunConfig(graph=g, lam=1.0, seed=6), r)
        tf = bc.simulate_once(bc.RunConfig(graph=g, lam=2.0, seed=6), r)
        trace_ok &= all(b == a / 2.0 for (a, _), (b, _) in zip(ts.events, tf.events))
    elapsed = time.perf_counter() - t0
    ok = batch_ok and trace_ok and elapsed < 1.0
    report(
        capfd, "5 rate scaling", ok,
        f"batch halved={batch_ok}, traces halved={trace_ok}, {elapsed:.2f}s of 1s",
    )
    assert batch_ok and trace_ok
    assert elapsed < 1.0


def test_criterion_6_trace_fuzz(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    traces = 0
    bad = 0
    while traces < 10_000:
        if traces % 5 == 4:
            spec = TieredCore(4, 8, 1, 0.7, 0.6, 0.3, 1.0)
        else:
            n = int(rng.integers(3, 13))
            spec = Poisson(
                ModelParams(n, int(rng.integers(1, n + 1)), 1.0),
                float(rng.uniform(0.3, 0.9)),
            )
        try:
            draw = gg.ensure_reachable(spec, int(rng.integers(1 << 30)), max_retries=15)
        except bc.UnreachableTopologyError:
            continue
        cfg = bc.RunConfig(graph=draw.graph, announcer=draw.announcer, seed=traces)
        cluster = frozenset(int(c) for c in draw.graph.cluster)
        for r in range(20):
            trace = bc.simulate_once(cfg, r)
            informed = frozenset()
            prev_t = -1.0
            for t, fresh in trace.events:
                if t <= prev_t or (fresh & informed):
                    bad += 1
                    break
                informed |= fresh
                if (fresh & cluster) and not cluster <= informed:
                    bad += 1
                    break
                prev_t = t
            traces += 1
            if traces == 10_000:
                break
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60
    report(
        capfd, "6 trace fuzz", ok,
        f"{traces} traces, {bad} violations, {elapsed:.1f}s of 60s",
    )
    assert bad == 0
    assert elapsed < 60


@pytest.mark.slow
def test_criterion_7_case_study_grid(capfd):
    t0 = time.perf_counter()
    template = TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 1.0)
    result = bc.run_case_study(
        template,
        p22_values=(0.1, 0.3, 0.5),
        k1_values=(1, 5, 10, 20),
        runs_per_point=5000,
        master_seed=MASTER_SEED,
    )
    offenders = [
        (r.p22, r.k1, round(r.rel_error, 3)) for r in result.rows if r.rel_error > 0.25
    ]
    mono = True
    for p22 in (0.1, 0.3, 0.5):
        col = [r.analytic_total for r in result.rows if r.p22 == p22]
        mono &= all(b <= a + 1e-12 for a, b in zip(col, col[1:]))
    elapsed = time.perf_counter() - t0
    ok = not offenders and mono and elapsed < 300
    report(
        capfd, "7 case-study grid", ok,
        f"{len(offenders)} of {len(result.rows)} points over 25%"
        f"{': ' + str(offenders) if offenders else ''}, analytic monotone={mono}, "
        f"{elapsed:.0f}s of 300s",
    )
    assert mono
    assert elapsed < 300
    assert not offenders, (
        "analytic within 25% of simulation failed at grid points "
        f"{offenders}: the closed form treats the tier-1-to-tier-2 fill as one "
        "aggregated-rate race while the simulator gives each dark tier-2 node "
        "its own unit-rate clock, so large-k1/low-p22 corners diverge"
    )


def test_criterion_8_reproducible_cli_output(tmp_path, capfd):
    t0 = time.perf_counter()
    from bgpconv import cli

    args = [
        "sweep", "--family", "poisson", "--n", "100", "--p-edge", "0.05",
        "--fractions", "0.2,0.6", "--runs", "50", "--seed", "9",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code1 = cli.main(args + ["--out", str(first)])
    code2 = cli.main(args + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = code1 == code2 == 0 and identical and elapsed < 60
    report(
        capfd, "8 reproducible output", ok,
        f"exit codes=({code1},{code2}), byte-identical={identical}, {elapsed:.1f}s of 60s",
    )
    assert code1 == 0 and code2 == 0
    assert identical
    assert elapsed < 60
