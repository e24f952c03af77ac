"""Event-driven dissemination simulator.

The statistical anchors (unit-mean exponentials, the 4/3 full-mesh value,
harmonic sums) live in the acceptance module at full sample sizes; this
file runs the same checks at smaller n plus the structural and
determinism properties that must hold run by run.
"""

import hashlib
import io
import math
import multiprocessing
import os
import re
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bgpconv.graphs as gg
import bgpconv._kernels as kernels
import bgpconv.simulate as simulate
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
from graph_reference import relaying_nodes

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


def test_stats_from_times_keep_their_bits_and_stay_finite():
    # statistics that fit unscaled are numpy's bit for bit; above about
    # 1e154 the squared deviations would overflow and below about 1e-154
    # they would underflow, and the statistics are those of the times
    # scaled by a power of two, scaled back: exactly, either way
    times = np.random.default_rng(3).exponential(1.0, 200)
    for scale in (1e-5, 1.0, 3.0, 1e100, 1e150):
        stats = RunStats.from_times(times * scale)
        assert stats.mean == float((times * scale).mean())
        assert stats.std_dev == float((times * scale).std(ddof=1))
    for exp in (-1000, -600, 600, 1000, 1020):
        stats = RunStats.from_times(np.ldexp(times, exp))
        assert stats.mean == math.ldexp(float(times.mean()), exp)
        assert stats.std_dev == math.ldexp(float(times.std(ddof=1)), exp)
        assert math.isfinite(stats.ci95[1])


def test_batch_statistics_scale_exactly_with_the_rate():
    # the same uniforms at rate 2**600 give times 2**-600 as large, so
    # the statistics must scale by that power of two, bit for bit
    unit = simulate_batch(mesh_cfg(30, 5, seed=7), 40).stats
    fast = simulate_batch(mesh_cfg(30, 5, lam=math.ldexp(1.0, 600), seed=7), 40).stats
    for field in ("mean", "std_dev", "std_err"):
        assert getattr(fast, field) == math.ldexp(getattr(unit, field), -600), field


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


@pytest.mark.parametrize("seed,run", [(5, 7), (0, 0), (2**63, 12345)])
def test_run_seeds_are_the_spawned_children(seed, run):
    # _draw_run builds children 0 (announcer) and 1 (clock) of
    # SeedSequence((seed, run)) by spawn key; they must be the ones
    # spawn(2) gives, so every run keeps its stream
    ann_child, clock_child = np.random.SeedSequence((seed, run)).spawn(2)
    g = gg.gen_full_mesh(ModelParams(50, 1), 0)
    drawn = gg.draw_announcer(np.random.default_rng(ann_child), g)
    for announcer, expected in (("uniform", drawn), (3, 3)):
        graph, origin, clock = simulate._draw_run(
            RunConfig(graph=g, announcer=announcer, seed=seed), run)
        assert graph is g and origin == expected
        assert clock.generate_state(8).tolist() == clock_child.generate_state(8).tolist()


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


# -------------------------------------------------------- runs across CPUs

def batch_bytes(batch):
    return batch.times.tobytes(), batch.announcers.tobytes(), batch.stats


@pytest.mark.parametrize("runs", [1, 2, 3, 5, 7])
def test_batch_is_bit_identical_at_one_and_two_cpus(runs, cpus):
    cfg = RunConfig(graph=gg.gen_poisson(ModelParams(60, 3, 1.0), 0.1, 2), seed=8,
                    policy="reachable-only")
    cpus(1)
    serial = batch_bytes(simulate_batch(cfg, runs))
    cpus(2)
    assert batch_bytes(simulate_batch(cfg, runs)) == serial
    assert multiprocessing.active_children() == []


def test_batch_runs_in_forked_workers_at_two_cpus(cpus):
    cpus(2)
    g = gg.gen_full_mesh(ModelParams(12, 2), 0)
    parent = os.getpid()

    def draw(r):
        assert os.getpid() != parent, "a run ran in the calling process"
        return g, r % 12, r

    serial = [run_dissemination(g, r % 12, 1.0, r)[0].max() for r in range(5)]
    assert simulate._run_batch(draw, 5, 1.0, "strict").times.tolist() == serial
    assert multiprocessing.active_children() == []


def test_batch_error_names_the_lowest_failing_run(cpus):
    # at two CPUs the runs split into 0..2 and 3..5: both ranges fail,
    # and the second fails first
    path = gg.from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    split = gg.from_edges(4, np.array([0, 1]), np.array([1, 2]))

    def draw(r):
        if r == 2:
            time.sleep(0.2)
        return (split if r in (2, 3, 5) else path), 0, r

    messages = []
    for n in (1, 2):
        cpus(n)
        with pytest.raises(UnreachableTopologyError, match=r"^run 2: ") as exc:
            simulate._run_batch(draw, 6, 1.0, "strict")
        messages.append(str(exc.value))
        assert multiprocessing.active_children() == []
    assert messages[0] == messages[1]


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


def test_tiered_graph_without_tier2_has_no_uniform_announcer():
    # import_graph reads peer11 endpoints as tier-1, so every node here is
    # tier-1 and a uniform tier-2 announcer cannot be drawn
    g = gg.import_graph(io.StringIO("n 3\n0 1 peer11\n1 2 peer11\ncluster 0\n"))
    assert g.is_tiered and not (g.roles == gg.ROLE_TIER2).any()
    with pytest.raises(DomainError, match="no tier-2 node"):
        simulate_batch(RunConfig(g, "uniform", 1.0, 1), 2)


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
@pytest.mark.parametrize("announcer", [-1, 6, 2.7, math.nan, math.inf, "3"])
def test_announcer_out_of_range_is_a_domain_error(announcer, policy):
    # one check for the kernel, the reachability search and RunConfig: an
    # integer node id in range; a float is not truncated to one, nor a
    # string parsed as one
    g = gg.gen_full_mesh(ModelParams(6, 1, 1.0), 0)
    if isinstance(announcer, int):
        message = config_message = f"announcer {announcer} out of range"
    else:
        message = f"announcer must be an integer node id, got {re.escape(repr(announcer))}"
        # RunConfig reads a string as an announcer policy
        config_message = "unknown announcer policy" if isinstance(announcer, str) else message
    with pytest.raises(DomainError, match=message):
        run_dissemination(g, announcer, 1.0, 0, "numpy", policy)
    with pytest.raises(DomainError, match=message):
        gg.reachable_set(g, announcer)
    with pytest.raises(DomainError, match=config_message):
        RunConfig(graph=g, announcer=announcer, policy=policy)


# --------------------------------------------------------------- backends

@pytest.fixture
def scalar_as_numba(monkeypatch):
    """Make the "numba" backend run the un-jitted scalar kernel, so its
    logic is checked without numba installed; returns "numba"."""
    monkeypatch.setattr(kernels, "HAS_NUMBA", True)
    monkeypatch.setattr(kernels, "_scalar_kernel_jit", kernels._scalar_kernel)
    return "numba"


def star_graph(n):
    """Star on n nodes centred at 0, with node 5 a one-member cluster."""
    u = np.zeros(n - 1, dtype=np.int64)
    v = np.arange(1, n, dtype=np.int64)
    return gg.from_edges(n, u, v, cluster=np.array([5]))


def sparse_large():
    """Poisson n=3000 at its max-degree announcer: consumption far past 9n."""
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


@pytest.mark.parametrize("backend", ["numba", "numpy"])
def test_a_tier2_announcer_relays_its_own_announcement(scalar_as_numba, backend):
    # tier-2 node 3's only edge is a p22 edge to the tier-2 announcer 2,
    # so a strict run converges only if the announcer's neighbors are lit
    # before the event loop, which relays from tier-1 nodes alone
    roles = np.array([gg.ROLE_TIER1, gg.ROLE_TIER1, gg.ROLE_TIER2, gg.ROLE_TIER2],
                     dtype=np.uint8)
    g = gg.from_edges(4, np.array([0, 0, 2]), np.array([1, 2, 3]), roles=roles,
                      cluster=[0])
    assert g.relay_views[2] == () and g.neighbors(3).tolist() == [2]
    assert not g.relay_mask[2] and gg.reachable_set(g, 2).all()
    for seed in range(5):
        times, _ = run_dissemination(g, 2, 1.0, seed, backend=backend, policy="strict")
        assert (times[[0, 1, 3]] > 0).all() and times[2] == 0.0


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


# 1/lambda: plain rates; products that go subnormal, where delays of
# different uniforms round to one value; and products near and past
# overflow (at 1.7e308 every draw above about 0.65 gives an inf delay, so
# some steps hold only inf delays)
FUZZ_INV_LAMS = (1.0, 1 / 0.7, 3.0, 0.99, 1e-300, 1e-310, 1e-320, 5e-324, 1e300,
                 1e307, 1.7e308)


@pytest.mark.filterwarnings("error")
def test_numpy_kernel_matches_the_scalar_kernel_on_fuzzed_runs(scalar_as_numba):
    # the numpy kernel and the un-jitted scalar kernel: times (exact
    # bytes) and draws used must agree
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
    assert runs == 660


def replay_times(g, ann, inv_lam, seed):
    """(times, draws used) of a run by the winner rule, in plain Python.

    Draws the run's stream 8n at a time; each step takes one uniform per
    frontier node in ascending node id, and its winner is the first
    smallest of them.  Times are the running sum of the winners' delays.
    """
    n = g.node_count
    forwards = relaying_nodes(g, ann)
    informed = set(g.cluster.tolist() if g.cluster_mask[ann] else [ann])
    stream = np.random.default_rng(seed)
    buf, used, nodes, wins = [], 0, [], []
    while True:
        front = sorted({v for w in informed if forwards[w]
                        for v in g.neighbors(w).tolist() if v not in informed})
        if not front:
            break
        while len(buf) < len(front):
            buf += stream.random(8 * n).tolist()
        u, buf = buf[: len(front)], buf[len(front):]
        used += len(front)
        j = u.index(min(u))
        nodes.append(front[j])
        wins.append(u[j])
        informed.add(front[j])
        if g.cluster_mask[front[j]]:
            informed.update(g.cluster.tolist())
    times = np.full(n, -1.0)
    times[g.cluster if g.cluster_mask[ann] else ann] = 0.0
    sums = np.cumsum(kernels._exponentials(np.array(wins), inv_lam))
    for k, v in enumerate(nodes):
        times[v] = sums[k]
        if g.cluster_mask[v]:
            times[g.cluster] = sums[k]
    return times, used


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("inv_lam", [5e-324, 1.7e308])
def test_a_step_is_won_by_its_first_smallest_uniform(scalar_as_numba, inv_lam):
    # at these scales delays of different uniforms round to one value (0,
    # the smallest subnormal, or inf), so a rule that compared delays
    # would pick other winners: both kernels must equal the replay
    rng = np.random.default_rng(77)
    for case in range(24):
        g = fuzzed_graph(rng, case)
        ann = gg.draw_announcer(rng, g)
        seed = int(rng.integers(2**32))
        # inf delays are results here; a NaN still fails as "invalid"
        with np.errstate(over="ignore"):
            expected, expected_used = replay_times(g, ann, inv_lam, seed)
            for backend in ("numba", "numpy"):
                times, used = run_dissemination(g, ann, inv_lam, seed, backend=backend,
                                                policy="reachable-only")
                assert times.tobytes() == expected.tobytes(), (case, backend)
                assert used == expected_used


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
def test_explicit_auto_backend_matches_the_environment(monkeypatch, scalar_as_numba,
                                                       has_numba):
    # one resolver for the argument and BGPCONV_BACKEND, and it reads the
    # numba flag at call time; numba here runs the un-jitted scalar kernel
    monkeypatch.setattr(kernels, "HAS_NUMBA", has_numba)
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


def test_gathered_winners_convert_to_the_bulk_delays():
    # _write_times converts gathered winners in one batch; each delay
    # must equal the bulk buffer's value (times 1/lambda, one product per
    # draw) bit for bit, and the written times must be the running sum of
    # those values, with the cluster at its first winner's time
    bulk = unit_exponential_buffer(np.random.default_rng(31), 200_000)
    u = np.random.default_rng(31).random(200_000)
    idx = np.random.default_rng(32).integers(0, u.size, 5_000)
    np.testing.assert_array_equal(kernels._exponentials(u[idx], 1.0), bulk[idx])
    for i in idx[:300].tolist():
        assert kernels._exponentials(u[i : i + 7].copy(), 1.0)[0] == bulk[i]
    for inv_lam in (1 / 0.7, 3.0, 1e-300):
        np.testing.assert_array_equal(kernels._exponentials(u[idx], inv_lam),
                                      bulk[idx] * inv_lam)
    nodes = np.unique(idx)[:2_000]
    cluster = np.sort(np.r_[nodes[6], np.setdiff1d(np.arange(u.size), nodes)[:3]])
    is_cluster = np.zeros(u.size, dtype=np.bool_)
    is_cluster[cluster] = True
    for inv_lam in (1.0, 3.0):
        out = np.full(u.size, -1.0)
        kernels._write_times(nodes, u[nodes], is_cluster, cluster, inv_lam, out)
        running = []
        acc = 0.0
        for i in nodes.tolist():
            acc += bulk[i] * inv_lam
            running.append(acc)
        assert out[nodes].tolist() == running
        assert out[cluster].tolist() == [running[6]] * 4
        assert (out >= 0).sum() == nodes.size + 3


def test_runs_far_past_the_buffer_resume_on_refills():
    # star on 2100 nodes, announced from a leaf: the frontier stays huge
    # for thousands of steps, so consumption (about n^2/2 draws) runs far
    # past the run's 9n-draw buffer and the kernel resumes on refills
    n = 2100
    g = star_graph(n)
    times, consumed = run_dissemination(g, 1, 1.0, 77)
    assert consumed > 9 * n
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
def test_cluster_merge_and_rate_keep_the_stream(scalar_as_numba, kernel, case, digest,
                                                draws):
    # times (exact bytes) and draws used on the paths that scale draws by
    # 1/lam and merge a large cluster: from inside it (k = 270), from
    # outside it, from a tier-2 announcer, and on a full mesh (k = 150)
    g, ann, lam = pinned_case(case)
    backend = scalar_as_numba if kernel == "scalar" else "numpy"
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
def test_saturated_frontier_runs_keep_the_stream(scalar_as_numba, kernel, case, digest,
                                                 draws):
    # times (exact bytes) and draws used of runs that spend their last
    # steps with every uninformed node on the frontier: a full mesh from
    # inside and outside its cluster, a tiered run, a Poisson run whose
    # cluster is hit in those steps, and the star, whose buffer runs
    # short in them
    g, ann, lam = tail_case(case)
    backend = scalar_as_numba if kernel == "scalar" else "numpy"
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
def test_stuck_path_keeps_the_stream(scalar_as_numba, kernel):
    # times (exact bytes) and draws used of reachable-only runs that end
    # on an empty frontier, in one digest over all 120 runs
    backend = scalar_as_numba if kernel == "scalar" else "numpy"
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


def start_state(g, ann):
    """(forwards, state, n_informed) of a run from ann before its first
    step, as run_dissemination sets them up: forwards is the reference
    forwarding rule, state the kernels' byte per node (0 informed, 1
    uninformed, 2 on the frontier)."""
    forwards = relaying_nodes(g, ann)
    uninformed = np.ones(g.node_count, dtype=np.bool_)
    uninformed[g.cluster if g.cluster_mask[ann] else [ann]] = False
    state = uninformed.astype(np.uint8) + frontier_from_csr(g, forwards, uninformed)
    return forwards, state, int((~uninformed).sum())


def check_state(g, ann, forwards, state, n_informed, winners):
    """state holds only 0, 1 and 2, its 0s are exactly the nodes that
    the announcer and the recorded winners inform (a whole cluster once
    one member is in), its 2s are exactly the frontier, and n_informed
    counts the informed nodes."""
    assert state.dtype == np.uint8 and state.max(initial=0) <= 2
    assert len(set(winners)) == len(winners)
    informed = np.zeros(g.node_count, dtype=np.bool_)
    informed[[ann, *winners]] = True
    if informed[g.cluster].any():
        informed[g.cluster] = True
    np.testing.assert_array_equal(state == 0, informed)
    np.testing.assert_array_equal(state == 2, frontier_from_csr(g, forwards, ~informed))
    assert n_informed == int(informed.sum())


def test_kernel_state_invariant_at_every_return():
    # each scalar kernel, called directly on short draw buffers, returns
    # REFILL as well as OK and STUCK, and the state holds at every return.
    # The numpy kernel refills its own buffer, here of n, n + 6 or 9n
    # draws, and returns once per run, OK or STUCK, with the state as above
    scalar = [kernels._scalar_kernel]
    if kernels.HAS_NUMBA:
        scalar.append(kernels._scalar_kernel_jit)
    rng = np.random.default_rng(515)
    seen = {kernels.STATUS_OK: 0, kernels.STATUS_REFILL: 0, kernels.STATUS_STUCK: 0}
    vector_seen = {kernels.STATUS_OK: 0, kernels.STATUS_STUCK: 0}
    for case in range(120):
        g = fuzzed_graph(rng, case)
        ann = gg.draw_announcer(rng, g)
        graph_args = (g.indptr, g.indices, g.relay_mask)
        cluster_args = (g.cluster_mask, g.cluster, g.cluster_neighborhood)
        for kern in scalar:
            forwards, state, n_informed = start_state(g, ann)
            nodes, wins = np.empty(g.node_count, dtype=np.int64), np.empty(g.node_count)
            steps, stream = 0, np.random.default_rng(case)
            draws = stream.random(int(rng.integers(1, 8)))
            while True:
                status, pos, n_informed, steps = kern(
                    *graph_args, *cluster_args, state, n_informed, steps, draws, nodes, wins,
                )
                seen[status] += 1
                check_state(g, ann, forwards, state, n_informed, nodes[:steps].tolist())
                if status != kernels.STATUS_REFILL:
                    break
                draws = np.concatenate((draws[pos:], stream.random(int(rng.integers(1, 8)))))
        forwards, state, n_informed = start_state(g, ann)
        nodes, wins = np.empty(g.node_count, dtype=np.int64), np.empty(g.node_count)
        stream = np.random.default_rng(case)
        n = g.node_count
        draws = stream.random((n, n + 6, 9 * n)[case % 3])
        status, used, n_informed, steps = kernels._vector_kernel(
            g.relay_views, *cluster_args, state, n_informed, draws, stream.random,
            nodes, wins,
        )
        vector_seen[status] += 1
        check_state(g, ann, forwards, state, n_informed, nodes[:steps].tolist())
        assert type(used) is int
    assert min(seen.values()) >= 20, seen
    assert min(vector_seen.values()) >= 20, vector_seen


@pytest.mark.parametrize("refill", [1, 7, None])
def test_numpy_kernel_results_do_not_depend_on_the_draw_size(refill):
    # times (exact bytes) and draws used of the numpy kernel on a buffer
    # of n, n + 6 or 9n draws, whose refills take at least 1, 7 or
    # 8n + 1 uniforms, are those of run_dissemination, on fuzzed runs
    # (some hitting their cluster from outside it) and on runs whose
    # frontier comes to hold every uninformed node
    rng = np.random.default_rng(616)
    runs = [(g, gg.draw_announcer(rng, g), 1 / 0.7)
            for g in (fuzzed_graph(rng, case) for case in range(80))]
    runs += [tail_case(case) for case in ("mesh-in", "mesh-out", "tiered", "poisson")]
    cluster_hits = 0
    for seed, (g, ann, lam) in enumerate(runs):
        expected, expected_used = run_dissemination(g, ann, 1.0 / lam, seed,
                                                    policy="reachable-only", backend="numpy")
        _, state, n_informed = start_state(g, ann)
        out_times = np.where(state == 0, 0.0, -1.0)
        nodes, wins = np.empty(g.node_count, dtype=np.int64), np.empty(g.node_count)
        stream = np.random.default_rng(seed)
        n = g.node_count
        draws = stream.random(n + refill - 1 if refill else 9 * n)
        _, used, _, steps = kernels._vector_kernel(
            g.relay_views, g.cluster_mask, g.cluster, g.cluster_neighborhood,
            state, n_informed, draws, stream.random, nodes, wins,
        )
        kernels._write_times(nodes[:steps], wins[:steps], g.cluster_mask, g.cluster,
                             1.0 / lam, out_times)
        assert out_times.tobytes() == expected.tobytes(), seed
        assert used == expected_used
        cluster_hits += bool(g.cluster.size > 1 and not g.cluster_mask[ann]
                             and (out_times[g.cluster] > 0).any())
    assert cluster_hits >= 10, cluster_hits
