"""Event-driven dissemination simulator.

The statistical anchors (unit-mean exponentials, the 4/3 full-mesh value,
harmonic sums) live in the acceptance module at full sample sizes; this
file runs the same checks at smaller n plus the structural and
determinism properties that must hold run by run.
"""

import decimal
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bgpconv.graphs as gg
import bgpconv._kernels as kernels
from bgpconv._kernels import (
    active_backend,
    run_dissemination,
    unit_exponential_buffer,
)
from bgpconv.errors import DomainError, UnreachableTopologyError
from bgpconv.model import FullMesh, ModelParams, Poisson, TieredCore
from bgpconv.simulate import (
    RunConfig,
    RunStats,
    derive_seed,
    format_trace,
    simulate_batch,
    simulate_once,
)

TIERED = TieredCore(20, 100, 1, 0.5, 0.25, 0.2, 1.0)


def mesh_cfg(n, k, lam=1.0, seed=0, graph_seed=0, **kw):
    g = gg.gen_full_mesh(ModelParams(n, k, lam), graph_seed)
    return RunConfig(graph=g, lam=lam, seed=seed, **kw)


# ------------------------------------------------------------- statistics

def test_two_node_times_are_unit_exponentials():
    res = simulate_batch(mesh_cfg(2, 1, seed=4), 20_000)
    assert res.stats.mean == pytest.approx(1.0, abs=3 * res.stats.std_err)
    assert res.stats.std_dev == pytest.approx(1.0, rel=0.05)


def test_full_mesh_four_two_matches_closed_form():
    res = simulate_batch(mesh_cfg(4, 2, seed=123), 20_000)
    assert abs(res.stats.mean - 4 / 3) <= 3 * res.stats.std_err


def test_full_mesh_harmonic_sum_band():
    h299 = math.fsum(1 / i for i in range(1, 300))
    res = simulate_batch(mesh_cfg(300, 1, seed=3, graph_seed=8), 200)
    assert abs(res.stats.mean - h299) <= 3 * res.stats.std_err


def test_frontier_rate_law_on_the_complete_graph():
    # with i nodes informed every uninformed node is frontier, so the
    # next inter-event gap is Exp(lam * (n - i)); normalized gaps pooled
    # across runs and steps must average 1
    cfg = mesh_cfg(30, 1, seed=17, announcer=0)
    pooled = []
    for r in range(1500):
        trace = simulate_once(cfg, r)
        times = [t for t, _ in trace.events]
        for i in range(1, len(times)):
            pooled.append((times[i] - times[i - 1]) * (30 - i))
    assert float(np.mean(pooled)) == pytest.approx(1.0, abs=0.03)
    assert float(np.var(pooled)) == pytest.approx(1.0, abs=0.1)


def test_stats_from_times():
    stats = RunStats.from_times(np.array([1.0, 3.0]))
    assert stats.mean == 2.0
    assert stats.std_dev == pytest.approx(math.sqrt(2.0))
    assert stats.std_err == pytest.approx(1.0)
    lo, hi = stats.ci95
    assert lo == pytest.approx(2.0 - 1.96) and hi == pytest.approx(2.0 + 1.96)
    single = RunStats.from_times(np.array([2.5]))
    assert single.std_dev == 0.0 and single.std_err == 0.0


# ----------------------------------------------------------- determinism

def test_identical_seeds_reproduce_bitwise():
    cfg = mesh_cfg(50, 4, seed=9)
    a = simulate_batch(cfg, 40)
    b = simulate_batch(cfg, 40)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.announcers, b.announcers)
    assert a.stats == b.stats


def test_runs_are_seeded_independently_by_index():
    cfg = mesh_cfg(20, 2, seed=31)
    long = simulate_batch(cfg, 30)
    short = simulate_batch(cfg, 12)
    np.testing.assert_array_equal(long.times[:12], short.times)


def test_rate_doubling_halves_every_event_time_exactly():
    g = gg.gen_poisson(ModelParams(40, 3, 1.0), 0.3, 5)
    slow = RunConfig(graph=g, lam=1.0, seed=44)
    fast = RunConfig(graph=g, lam=2.0, seed=44)
    for r in range(20):
        ts = simulate_once(slow, r)
        tf = simulate_once(fast, r)
        assert ts.announcer == tf.announcer
        assert len(ts.events) == len(tf.events)
        for (a_t, a_set), (b_t, b_set) in zip(ts.events, tf.events):
            assert b_t == a_t / 2.0  # bitwise: same uniforms, scaled once
            assert a_set == b_set
    rs = simulate_batch(slow, 200)
    rf = simulate_batch(fast, 200)
    np.testing.assert_array_equal(rf.times, rs.times / 2.0)


def test_derive_seed_is_stable_and_order_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)


# ------------------------------------------------------------------ traces

def test_trace_structure_on_full_mesh():
    cfg = mesh_cfg(12, 3, seed=2)
    trace = simulate_once(cfg, 0)
    times = [t for t, _ in trace.events]
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    sets = [s for _, s in trace.events]
    everyone = frozenset().union(*sets)
    assert everyone == frozenset(range(12))
    assert sum(len(s) for s in sets) == 12  # disjoint
    assert trace.convergence_time == times[-1]
    first = sets[0]
    assert trace.announcer in first
    cluster = frozenset(int(c) for c in cfg.graph.cluster)
    if trace.announcer in cluster:
        assert cluster <= first
    else:
        assert first == {trace.announcer}


def informed_after(trace, t: float) -> frozenset:
    """The nodes a trace has informed by time t."""
    out: set[int] = set()
    for when, nodes in trace.events:
        if when > t:
            break
        out |= nodes
    return frozenset(out)


def test_trace_informed_after():
    cfg = mesh_cfg(6, 2, seed=15)
    trace = simulate_once(cfg, 1)
    assert informed_after(trace, -0.1) == frozenset()
    assert informed_after(trace, 0.0) == trace.events[0][1]
    assert informed_after(trace, trace.convergence_time) == frozenset(range(6))


def test_whole_network_cluster_converges_at_zero():
    cfg = mesh_cfg(5, 5, seed=6)
    trace = simulate_once(cfg, 0)
    assert trace.convergence_time == 0.0
    assert trace.events == ((0.0, frozenset(range(5))),)
    res = simulate_batch(cfg, 10)
    assert res.stats.mean == 0.0 and res.stats.std_err == 0.0


def test_format_trace_layout():
    cfg = mesh_cfg(4, 1, seed=8)
    text = format_trace(simulate_once(cfg, 0))
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0].startswith("0 ")
    for line in lines:
        t, *ids = line.split()
        float(t)
        assert ids == sorted(ids, key=int)


@given(
    n=st.integers(min_value=3, max_value=16),
    p=st.floats(min_value=0.3, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=120, deadline=None)
def test_cluster_atomicity_and_monotone_coverage(n, p, seed):
    k = seed % n + 1
    spec = Poisson(ModelParams(n, k, 1.0), p)
    try:
        draw = gg.ensure_reachable(spec, seed, max_retries=10)
    except UnreachableTopologyError:
        assume(False)
    cfg = RunConfig(graph=draw.graph, announcer=draw.announcer, seed=seed)
    trace = simulate_once(cfg, 0)
    cluster = frozenset(int(c) for c in draw.graph.cluster)
    informed = frozenset()
    for t, fresh in trace.events:
        assert not (fresh & informed)  # coverage only grows
        informed |= fresh
        if fresh & cluster:
            # any touch pulls the whole membership in the same instant
            assert cluster <= informed
    assert informed == frozenset(range(n))


# ----------------------------------------------------------- reachability

def split_graph():
    # two components: {0,1} and {2,3}; cluster inside the first
    u = np.array([0, 2])
    v = np.array([1, 3])
    return gg.from_edges(4, u, v, cluster=np.array([0]))


def test_strict_policy_raises_on_partial_coverage():
    cfg = RunConfig(graph=split_graph(), announcer=0, seed=1)
    with pytest.raises(UnreachableTopologyError):
        simulate_once(cfg, 0)
    with pytest.raises(UnreachableTopologyError, match="run 0"):
        simulate_batch(cfg, 5)


def test_reachable_only_policy_reports_partial_component():
    cfg = RunConfig(graph=split_graph(), announcer=0, seed=1, policy="reachable-only")
    trace = simulate_once(cfg, 0)
    covered = frozenset().union(*(s for _, s in trace.events))
    assert covered == {0, 1}
    assert trace.convergence_time > 0.0


# ----------------------------------------------------------------- tiered

def test_tiered_announcer_must_be_tier2():
    g = gg.gen_tiered_core(TIERED, 0)
    with pytest.raises(DomainError):
        RunConfig(graph=g, announcer=0, seed=1)  # node 0 is tier-1
    cfg = RunConfig(graph=g, announcer=25, seed=1)
    trace = simulate_once(cfg, 0)
    assert trace.announcer == 25


def test_tiered_uniform_announcers_stay_in_tier2():
    draw = gg.ensure_reachable(TIERED, 2)
    cfg = RunConfig(graph=draw.graph, seed=7)
    res = simulate_batch(cfg, 30)
    assert (np.asarray(res.announcers) >= 20).all()


def test_tiered_without_transit_cannot_converge():
    spec = TieredCore(20, 100, 1, 0.5, 0.0, 1.0, 1.0)
    g = gg.gen_tiered_core(spec, 3)
    cfg = RunConfig(graph=g, announcer=30, seed=2)
    with pytest.raises(UnreachableTopologyError):
        simulate_once(cfg, 0)


def trace_case(case):
    """(cfg, run index) for the trace pins below."""
    if case.startswith("mesh-"):
        return mesh_cfg(12, 3, seed=2), int(case[5:])
    if case == "split":
        return RunConfig(graph=split_graph(), announcer=0, seed=1,
                         policy="reachable-only"), 0
    return RunConfig(graph=gg.gen_tiered_core(TIERED, 0), announcer=25, seed=1), 0


@pytest.mark.parametrize(
    "case,digest,conv",
    [
        ("mesh-0", "5c050298a1f11ec8d8322418019dc0d44447d0f8355e4d2715e4b69808dd5acc",
         "2.9250151554065926"),
        ("mesh-1", "6ded1bbb0254e94e81435c524fa8abff0ea924f17aee7e86c63cdb2e26e37b9a",
         "1.6031378699380163"),
        ("mesh-2", "e8e79ed9042b902737578b01728e1fd0cabcd0a04a679df94bc71ffc2a4dcf68",
         "0.9166799878022764"),
        ("mesh-3", "6bb68ee0ada5084b3ffd9c4211ea97813cc2eb95e212b97ba55e759eb1d8a485",
         "2.6575682322989396"),
        ("mesh-4", "4801b0c8eda5477d9f0d7fce9c794291e5f2dbe6924df519a642941727b98165",
         "1.3826940086877362"),
        ("split", "b5db48cd83aeaebebc131a0b5a106388323dc9865058f33e7a8fedc35463a1b5",
         "0.6458143036036048"),
        ("tiered", "a11a586743fcc96a607504e09f9386d012a7ea7ad40b5edfc949d1393d381c61",
         "4.361070594888465"),
    ],
)
def test_trace_bytes_are_pinned(case, digest, conv):
    # format_trace bytes and the exact convergence time: full-mesh runs
    # whose first or a later event merges the 3-node cluster, a
    # reachable-only run that leaves nodes 2 and 3 at -1, and a tiered
    # run from tier-2 node 25
    cfg, run = trace_case(case)
    trace = simulate_once(cfg, run)
    assert hashlib.sha256(format_trace(trace).encode("ascii")).hexdigest() == digest
    assert repr(trace.convergence_time) == conv


def test_announcer_policy_validation():
    res = simulate_batch(mesh_cfg(6, 1, seed=0, announcer=2), 8)
    assert (np.asarray(res.announcers) == 2).all()
    # an explicit announcer is checked once, when the config is built
    cfg = mesh_cfg(6, 1, announcer=np.int64(3))
    assert type(cfg.announcer) is int and cfg.announcer == 3
    with pytest.raises(DomainError, match="announcer policy"):
        mesh_cfg(6, 1, announcer="first")


def test_nan_rate_fails_when_the_config_is_built():
    g = gg.gen_full_mesh(ModelParams(6, 1, 1.0), 0)
    for lam in (math.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="lam"):
            RunConfig(graph=g, lam=lam)


@pytest.mark.parametrize("lam", [1e-320, math.inf])
def test_rate_without_a_finite_reciprocal_fails_at_the_first_run(lam):
    # both pass RunConfig's lam > 0; 1 / 1e-320 overflows to inf and
    # 1 / inf is 0, and the kernel accepts neither
    cfg = RunConfig(graph=gg.gen_full_mesh(ModelParams(6, 1), 0), lam=lam)
    with pytest.raises(DomainError, match="1/lam"):
        simulate_batch(cfg, 3)
    with pytest.raises(DomainError, match="1/lam"):
        simulate_once(cfg, 0)


@pytest.mark.parametrize("policy", ["strict", "reachable-only"])
@pytest.mark.parametrize("inv_lam", [math.nan, -1.0, 0.0, math.inf])
def test_kernel_rejects_a_scale_that_is_not_finite_and_positive(inv_lam, policy):
    g = gg.gen_full_mesh(ModelParams(6, 1, 1.0), 0)
    with pytest.raises(DomainError, match="1/lam"):
        run_dissemination(g, 0, inv_lam, 0, "numpy", policy)


@pytest.mark.parametrize("policy", ["strict", "reachable-only"])
@pytest.mark.parametrize("announcer", [-1, 6])
def test_announcer_out_of_range_is_a_domain_error(announcer, policy):
    # one range check for the kernel, the reachability search and RunConfig
    g = gg.gen_full_mesh(ModelParams(6, 1, 1.0), 0)
    with pytest.raises(DomainError, match=f"announcer {announcer} out of range"):
        run_dissemination(g, announcer, 1.0, 0, "numpy", policy)
    with pytest.raises(DomainError, match="out of range"):
        gg.reachable_set(g, announcer)
    with pytest.raises(DomainError, match="out of range"):
        RunConfig(graph=g, announcer=announcer, policy=policy)


# --------------------------------------------------------------- backends

def star_graph(n):
    """Star on n nodes centred at 0, with node 5 a one-member cluster."""
    u = np.zeros(n - 1, dtype=np.int64)
    v = np.arange(1, n, dtype=np.int64)
    return gg.from_edges(n, u, v, cluster=np.array([5]))


def sparse_large():
    """Poisson n=3000 at its max-degree announcer: consumption far past 8n."""
    g = gg.gen_poisson(ModelParams(3000, 30), 0.004, 1)
    return g, int(np.argmax(g.degrees))


def test_backends_are_bit_identical(monkeypatch):
    # the compiled kernel's logic runs un-jitted here, so the check holds
    # without numba; with numba the compiled kernel is checked as well
    scalar = [kernels._scalar_kernel]
    if kernels.HAS_NUMBA:
        scalar.append(kernels._scalar_kernel_jit)
    cases = [
        (gg.gen_full_mesh(ModelParams(25, 3, 1.0), 1), 0),
        (gg.gen_poisson(ModelParams(60, 5, 1.0), 0.15, 2), 0),
        (gg.gen_tiered_core(TIERED, 3), 21),
        (star_graph(2100), 1),
        sparse_large(),
    ]
    monkeypatch.setattr(kernels, "HAS_NUMBA", True)
    for kernel in scalar:
        monkeypatch.setattr(kernels, "_scalar_kernel_jit", kernel)
        for g, ann in cases:
            t_sc, used_sc = run_dissemination(g, ann, 1.0, 909, backend="numba",
                                              policy="reachable-only")
            t_np, used_np = run_dissemination(g, ann, 1.0, 909, backend="numpy",
                                              policy="reachable-only")
            np.testing.assert_array_equal(t_sc, t_np)
            assert used_sc == used_np


def fuzzed_graph(rng, case):
    """A random small tiered (odd case) or Poisson graph, often disconnected."""
    if case % 2:
        n1, n2 = int(rng.integers(1, 10)), int(rng.integers(1, 30))
        p11, p12, p22 = rng.uniform(0.0, 0.6, 3)
        return gg.gen_tiered_core(
            TieredCore(n1, n2, int(rng.integers(1, n1 + 1)), p11, p12, p22), case)
    n = int(rng.integers(1, 60))
    return gg.gen_poisson(ModelParams(n, int(rng.integers(1, n + 1))),
                          float(rng.uniform(0.0, 0.3)), case)


# 1/lambda: plain rates; products that go subnormal (below 2**-969 the
# numpy kernel compares delays on every step); and products near overflow.
# A step whose every delay overflows is left out: the scalar kernel's
# strict d < best never takes inf, so it reports that step as stuck
FUZZ_INV_LAMS = (1.0, 1 / 0.7, 3.0, 0.99, 1e-300, 1e-310, 1e-320, 5e-324, 1e300,
                 1e307)


@pytest.mark.filterwarnings("error")
def test_numpy_kernel_matches_the_scalar_kernel_on_fuzzed_runs(monkeypatch):
    # the numpy kernel picks winners on uniforms, the un-jitted scalar
    # kernel on delays: times (exact bytes) and draws used must agree, and
    # the steps that compare delays (slice minimum >= 7/32, or 1/lambda
    # below 2**-969) must have run, some of them changing the winner
    monkeypatch.setattr(kernels, "HAS_NUMBA", True)
    monkeypatch.setattr(kernels, "_scalar_kernel_jit", kernels._scalar_kernel)
    guarded = {"bound": 0, "rate": 0, "moved": 0}
    delay_winner = kernels._delay_winner

    def watched_delay_winner(u, inv_lam):
        j, uj = delay_winner(u, inv_lam)
        assert u.size > 1
        if inv_lam < kernels._TIE_FREE_SCALE:
            guarded["rate"] += 1
        else:
            assert u.min() >= kernels._TIE_FREE_BELOW
            guarded["bound"] += 1
        guarded["moved"] += j != u.argmin()
        return j, uj

    monkeypatch.setattr(kernels, "_delay_winner", watched_delay_winner)
    rng = np.random.default_rng(2024)
    runs = 0
    for case in range(60):
        g = fuzzed_graph(rng, case)
        ann = gg.draw_announcer(rng, g)
        for inv_lam in FUZZ_INV_LAMS:
            seed = int(rng.integers(2**32))
            # inf delays are results here; a NaN still fails as "invalid"
            with np.errstate(over="ignore"):
                t_sc, used_sc = run_dissemination(g, ann, inv_lam, seed, backend="numba",
                                                  policy="reachable-only")
                t_np, used_np = run_dissemination(g, ann, inv_lam, seed, backend="numpy",
                                                  policy="reachable-only")
            assert t_np.tobytes() == t_sc.tobytes(), (case, inv_lam)
            assert used_np == used_sc
            runs += 1
    assert runs == 600
    assert guarded["bound"] >= 100 and guarded["rate"] >= 100, guarded
    assert guarded["moved"] > 0, guarded


def test_backend_env_selection(monkeypatch):
    monkeypatch.setenv("BGPCONV_BACKEND", "numpy")
    assert active_backend() == "numpy"
    monkeypatch.setenv("BGPCONV_BACKEND", "auto")
    assert active_backend() in ("numba", "numpy")
    monkeypatch.setenv("BGPCONV_BACKEND", "fortran")
    with pytest.raises(DomainError):
        active_backend()


def test_env_selected_backend_matches_explicit(monkeypatch):
    g = gg.gen_full_mesh(ModelParams(15, 2, 1.0), 0)
    explicit, used_explicit = run_dissemination(g, 3, 1.0, 77, backend="numpy")
    monkeypatch.setenv("BGPCONV_BACKEND", "numpy")
    via_env, used_env = run_dissemination(g, 3, 1.0, 77)
    np.testing.assert_array_equal(explicit, via_env)
    assert used_explicit == used_env


@pytest.mark.parametrize("has_numba", [False, True])
def test_explicit_auto_backend_matches_the_environment(monkeypatch, has_numba):
    # one resolver for the argument and BGPCONV_BACKEND, and it reads the
    # numba flag at call time; numba here runs the un-jitted scalar kernel
    monkeypatch.setattr(kernels, "HAS_NUMBA", has_numba)
    monkeypatch.setattr(kernels, "_scalar_kernel_jit", kernels._scalar_kernel)
    monkeypatch.setenv("BGPCONV_BACKEND", "auto")
    assert kernels._backend_name("auto") == ("numba" if has_numba else "numpy")
    g = gg.gen_tiered_core(TIERED, 3)
    auto, used_auto = run_dissemination(g, 21, 0.7, 77, backend="auto",
                                        policy="reachable-only")
    via_env, used_env = run_dissemination(g, 21, 0.7, 77, policy="reachable-only")
    np.testing.assert_array_equal(auto, via_env)
    assert used_auto == used_env
    for bad in ("fortran", "numba" if not has_numba else "jax"):
        with pytest.raises(DomainError, match="backend"):
            run_dissemination(g, 21, 0.7, 77, backend=bad)


# ------------------------------------------------------- draw bookkeeping

def test_unit_exponential_buffer_prefix_stable():
    # chunks drawn from one Generator equal one long draw
    rng = np.random.default_rng(123)
    chunks = [unit_exponential_buffer(rng, m) for m in (100, 1, 399, 500)]
    long = unit_exponential_buffer(np.random.default_rng(123), 1000)
    np.testing.assert_array_equal(np.concatenate(chunks), long)
    assert (long > 0).all()


def grid_window(center, half=64):
    """The points k * 2**-53 (rng.random's grid) around center, ascending."""
    k = round(center * 2.0**53)
    return np.arange(max(k - half, 0), k + half, dtype=np.int64) * 2.0**-53


def log1p_is_faithful(x):
    """np.log1p(x) is one of the two doubles around the exact ln(1 + x)."""
    got = float(np.log1p(np.array([x]))[0])
    with decimal.localcontext(decimal.Context(prec=60)):
        exact = (1 + decimal.Decimal(x)).ln()
    near = float(exact)
    if decimal.Decimal(near) == exact:
        return got == near
    side = math.inf if decimal.Decimal(near) < exact else -math.inf
    return got in (near, math.nextafter(near, side))


def test_delay_map_is_strictly_increasing_where_winners_are_picked_on_uniforms():
    # the numpy kernel's winner on uniforms is the winner on delays where
    # the delay map rises strictly from the slice minimum (module
    # docstring of _kernels).  Check it on windows of the grid at each
    # binade edge of u below 1/4, at each point where the unit delay
    # crosses a binade edge, at the 7/32 bound and at 1/4, for plain
    # rates and 0.99 (a mantissa near 2, the argument's tightest case),
    # and check the faithful rounding of log1p the argument assumes
    edges = [2.0**-k for k in range(3, 54)]
    edges += [-math.expm1(-(2.0**-k)) for k in range(2, 54)]
    edges += [kernels._TIE_FREE_BELOW, 0.25]
    windows = [grid_window(c) for c in edges]
    for inv_lam in (1.0, 1 / 0.7, 3.0, 0.99):
        for u in windows:
            d = kernels._exponentials(u.copy(), inv_lam)
            assert (np.diff(d) > 0).all(), (inv_lam, u[0])
    assert all(log1p_is_faithful(-x) for u in windows for x in u[::4].tolist())
    # a product that overflows is inf, above the finite winner
    u = np.array([0.9, 0.1, 0.95, 0.1])
    with np.errstate(over="ignore"):
        assert kernels._delay_winner(u, 1e308) == (1, 0.1)
        assert kernels._exponentials(u.copy(), 1e308)[[0, 2]].tolist() == [math.inf] * 2


def test_gathered_winners_convert_to_the_bulk_delays():
    # the numpy kernel converts gathered winners, one slice or a batch at
    # a time; each must equal the bulk buffer's value bit for bit, and
    # the written times must be the running sum of those values
    bulk = unit_exponential_buffer(np.random.default_rng(31), 200_000)
    u = np.random.default_rng(31).random(200_000)
    idx = np.random.default_rng(32).integers(0, u.size, 5_000)
    np.testing.assert_array_equal(kernels._exponentials(u[idx], 1.0), bulk[idx])
    for i in idx[:300].tolist():
        assert kernels._exponentials(u[i : i + 7].copy(), 1.0)[0] == bulk[i]
    for inv_lam in (1 / 0.7, 3.0, 1e-300):
        scaled = kernels._delays(np.random.default_rng(31), 200_000, inv_lam)
        np.testing.assert_array_equal(kernels._exponentials(u[idx], inv_lam), scaled[idx])
    out = np.full(u.size, -1.0)
    nodes = np.unique(idx)[:2_000]
    wins = u[nodes].tolist()
    t = kernels._write_times(nodes.tolist(), wins, [(6, [0])], 2.5, 1.0, out)
    running = []
    acc = 2.5
    for i in nodes.tolist():
        acc += bulk[i]
        running.append(acc)
    assert out[nodes].tolist() == running
    assert out[0] == running[6] and t == running[-1]


def test_buffer_regrows_when_a_run_consumes_past_the_estimate():
    # star on 2100 nodes, announced from a leaf: the frontier stays huge
    # for thousands of steps, so consumption (about n^2/2 draws) runs far
    # past the first 8n-draw chunk and the kernel resumes on refills
    n = 2100
    g = star_graph(n)
    times, consumed = run_dissemination(g, 1, 1.0, 77)
    assert consumed > 8 * n
    assert np.isfinite(times).all()
    times_np, consumed_np = run_dissemination(g, 1, 1.0, 77, backend="numpy")
    np.testing.assert_array_equal(times, times_np)
    assert consumed == consumed_np


@pytest.mark.parametrize(
    "case,digest,draws",
    [
        ("star", "4603a1f7f5f304336d168123241361c1f8420c5f20cd70f40f2c41012b7d0d2b",
         2_201_852),
        ("poisson", "91dba291ee87d6206848c4be450db472881340be32ba825fd4f9910510dda097",
         3_762_938),
    ],
)
def test_refill_path_keeps_the_stream(case, digest, draws):
    # times (exact bytes) and draws used, as a run whose one buffer holds
    # every draw gives them: each refill must continue the same stream
    g, ann = (star_graph(2100), 1) if case == "star" else sparse_large()
    times, used = run_dissemination(g, ann, 1.0, 77, backend="numpy")
    assert hashlib.sha256(times.tobytes()).hexdigest() == digest
    assert used == draws


def pinned_case(case):
    """(graph, announcer, lam) for the stream pins below."""
    if case.startswith("poisson"):
        g = gg.gen_poisson(ModelParams(300, 270), 1 / 60, 5)
        ann = g.cluster[0] if case == "poisson-in" else np.flatnonzero(~g.cluster_mask)[0]
        return g, int(ann), 0.7
    if case.startswith("tiered"):
        g = gg.gen_tiered_core(TieredCore(20, 100, 5, 0.5, 0.25, 0.2), 3)
        return g, 21, 1.0 if case == "tiered-1" else 0.7
    return gg.gen_full_mesh(ModelParams(300, 150), 4), 0, 1.0


@pytest.mark.parametrize("kernel", ["numpy", "scalar"])
@pytest.mark.parametrize(
    "case,digest,draws",
    [
        ("poisson-in", "da7bdbed7bb47278d9164b84d46fd2e1f8756cb2c8331a9ad1e31affb399a5e0",
         465),
        ("poisson-out", "140e2d46f46efc442b5fd89d998b93c360ac75e125f60e7cae44b99f86fbcfdf",
         443),
        ("tiered-1", "162e154d22ddfcbc6e77d63ecf2730c3ecf0063923610f3862705c15d658553b",
         5671),
        ("tiered-0.7", "e3b9d8f6a904d55ca8e1991d006d2b35d03d6abdfa87bffecde4ca4800c1f4ec",
         5671),
        ("mesh", "c70b514b824ed9eb664880c81cc0a321996557bd530d27f9ba2fae1b8953d9db",
         11474),
    ],
)
def test_cluster_merge_and_rate_keep_the_stream(monkeypatch, kernel, case, digest, draws):
    # times (exact bytes) and draws used on the paths that scale draws by
    # 1/lam and merge a large cluster: from inside it (k = 270), from
    # outside it, from a tier-2 announcer, and on a full mesh (k = 150)
    g, ann, lam = pinned_case(case)
    backend = "numpy"
    if kernel == "scalar":
        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        monkeypatch.setattr(kernels, "_scalar_kernel_jit", kernels._scalar_kernel)
        backend = "numba"
    times, used = run_dissemination(g, ann, 1.0 / lam, 909, backend=backend,
                                    policy="reachable-only")
    assert hashlib.sha256(times.tobytes()).hexdigest() == digest
    assert used == draws


def tail_case(case):
    """(graph, announcer, lam) for runs whose frontier comes to hold every
    uninformed node before the run ends."""
    if case.startswith("mesh"):
        g = gg.gen_full_mesh(ModelParams(40, 6), 11)
        ann = g.cluster[0] if case == "mesh-in" else np.flatnonzero(~g.cluster_mask)[0]
        return g, int(ann), 0.7
    if case == "tiered":
        return gg.gen_tiered_core(TieredCore(20, 100, 5, 0.5, 0.25, 0.3), 3), 21, 1.0
    if case == "poisson":
        # the 4-member cluster is hit after the frontier saturates
        return gg.gen_poisson(ModelParams(60, 4), 0.15, 0), 0, 0.7
    return star_graph(2100), 1, 1.0


@pytest.mark.parametrize("kernel", ["numpy", "scalar"])
@pytest.mark.parametrize(
    "case,digest,draws",
    [
        ("mesh-in", "d63f6caf1ef85f06928c8080d8564b143143b0d6ca2e7d0cba10c6ff2aa6f7a8",
         595),
        ("mesh-out", "cc6f2dd168ce190fff76b01c19dfa712131f2aaafc1a76e9f24fd7badfb20d7a",
         620),
        ("tiered", "3cd32eaf171e968dc4c45c97017e912cb9ec32b89a6f296cbdb2b9026764df06",
         4_666),
        ("poisson", "98c5074765913f9685c1bd2becce6b8c68ebc6d1720379708b4465e20ce2b7ed",
         1_427),
        ("star", "481dc214e94beb210189d8cee11e51142d838b44fa935bb9ec160a4d0b19f6e4",
         2_201_852),
    ],
)
def test_saturated_frontier_runs_keep_the_stream(monkeypatch, kernel, case, digest, draws):
    # times (exact bytes) and draws used of runs that spend their last
    # steps with every uninformed node on the frontier: a full mesh from
    # inside and outside its cluster, a tiered run, a Poisson run whose
    # cluster is hit in those steps, and the star, whose buffer runs
    # short in them
    g, ann, lam = tail_case(case)
    backend = "numpy"
    if kernel == "scalar":
        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        monkeypatch.setattr(kernels, "_scalar_kernel_jit", kernels._scalar_kernel)
        backend = "numba"
    times, used = run_dissemination(g, ann, 1.0 / lam, 901, backend=backend,
                                    policy="reachable-only")
    assert hashlib.sha256(times.tobytes()).hexdigest() == digest
    assert used == draws


def stuck_runs():
    """(graph, announcer, lam) for 120 runs that leave nodes unreached:
    disconnected Poisson graphs and tiered graphs with sparse transit."""
    rng = np.random.default_rng(4242)
    for seed in range(30):
        flat = gg.gen_poisson(ModelParams(60, 1 + seed % 7), 0.03, seed)
        tiered = gg.gen_tiered_core(TieredCore(10, 40, 1 + seed % 5, 0.3, 0.03, 0.05),
                                    seed)
        for g in (flat, tiered):
            ann = gg.draw_announcer(rng, g)
            for lam in (1.0, 0.7):
                yield g, ann, lam


@pytest.mark.parametrize("kernel", ["numpy", "scalar"])
def test_stuck_path_keeps_the_stream(monkeypatch, kernel):
    # times (exact bytes) and draws used of reachable-only runs that end
    # on an empty frontier, in one digest over all 120 runs
    backend = "numpy"
    if kernel == "scalar":
        monkeypatch.setattr(kernels, "HAS_NUMBA", True)
        monkeypatch.setattr(kernels, "_scalar_kernel_jit", kernels._scalar_kernel)
        backend = "numba"
    h = hashlib.sha256()
    runs = 0
    for run, (g, ann, lam) in enumerate(stuck_runs()):
        times, used = run_dissemination(g, ann, 1.0 / lam, 1000 + run,
                                        backend=backend, policy="reachable-only")
        assert (times < 0).any()
        h.update(times.tobytes())
        h.update(np.int64(used).tobytes())
        runs += 1
    assert runs == 120
    assert h.hexdigest() == "5cf7f10dd92b4072221625d7b75b58fa2657fabe3b0ae706ec88ef4ba4872487"


def frontier_from_csr(g, forwards, uninformed):
    """Uninformed nodes adjacent to an informed forwarder, from the CSR arrays."""
    src = np.repeat(np.arange(g.node_count), g.degrees)
    adjacent = np.zeros(g.node_count, dtype=np.bool_)
    adjacent[g.indices[(~uninformed & forwards)[src]]] = True
    return uninformed & adjacent


def test_kernel_state_invariant_at_every_return():
    # each kernel, called directly on short draw buffers, returns REFILL
    # as well as OK and STUCK; at every return front is exactly the
    # frontier, n_informed counts the informed nodes and out_times holds
    # exactly theirs.  The numpy kernel reads uniforms and takes inv_lam;
    # the scalar kernels read the delays of the same stream
    def uniforms(stream, m, inv_lam):
        return stream.random(m)

    kerns = [(kernels._vector_kernel, uniforms, True),
             (kernels._scalar_kernel, kernels._delays, False)]
    if kernels.HAS_NUMBA:
        kerns.append((kernels._scalar_kernel_jit, kernels._delays, False))
    rng = np.random.default_rng(515)
    seen = {kernels.STATUS_OK: 0, kernels.STATUS_REFILL: 0, kernels.STATUS_STUCK: 0}
    for case in range(120):
        g = fuzzed_graph(rng, case)
        ann = gg.draw_announcer(rng, g)
        forwards = gg.forwarder_mask(g, ann)
        inv_lam = 1.0 if case % 3 else 1 / 0.7
        for kern, draw, takes_rate in kerns:
            uninformed = np.ones(g.node_count, dtype=np.bool_)
            uninformed[g.cluster if g.cluster_mask[ann] else [ann]] = False
            front = frontier_from_csr(g, forwards, uninformed)
            out_times = np.where(uninformed, -1.0, 0.0)
            n_informed, t = int((~uninformed).sum()), 0.0
            stream = np.random.default_rng(case)
            rate = (inv_lam,) if takes_rate else ()
            draws = draw(stream, int(rng.integers(1, 8)), inv_lam)
            while True:
                status, pos, n_informed, t = kern(
                    g.indptr, g.indices, forwards, g.cluster_mask, g.cluster,
                    g.cluster_neighborhood, front, uninformed, n_informed, t,
                    draws, out_times, *rate,
                )
                seen[status] += 1
                np.testing.assert_array_equal(
                    front, frontier_from_csr(g, forwards, uninformed))
                assert n_informed == int((~uninformed).sum())
                np.testing.assert_array_equal(out_times >= 0, ~uninformed)
                if status != kernels.STATUS_REFILL:
                    break
                draws = np.concatenate(
                    (draws[pos:], draw(stream, int(rng.integers(1, 8)), inv_lam)))
    assert min(seen.values()) >= 20, seen
