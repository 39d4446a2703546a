"""End-to-end acceptance gate: one test per release criterion.

Each test is self-contained and asserts the exact tolerances of its
criterion, so `pytest -v tests/test_acceptance.py` reads as a pass/fail
checklist. Criterion 8 carries a documented failing sub-assertion on the
fixture's total connection strength; see the repository notes.
"""

import math
import random
import time

import numpy as np
import pytest

import edgeviews
import qstate
from qnetlim import buffersim, netgraph, repeater, scenario, topology
from qnetlim.netgraph import Network, PathStatus, StrategyKind
from qnetlim.buffersim import DecayMode
from qstate import BellKind

NC = StrategyKind.NON_COOPERATIVE


def test_criterion_01_diqkd_threshold_value_and_speed():
    got = repeater.critical_visibility_diqkd(math.pi / 4)
    assert got == pytest.approx(0.7445, abs=5e-4)
    repeater.critical_visibility_diqkd(math.pi / 4)  # warm
    t0 = time.perf_counter()
    repeater.critical_visibility_diqkd(math.pi / 4)
    assert time.perf_counter() - t0 < 1e-3


def test_criterion_02_kraus_oracle_equivalence():
    for p in np.linspace(0.0, 1.0, 11):
        state = qstate.make_bell(BellKind.PSI_PLUS)
        for n in range(6):
            want = buffersim.decayed_fidelity(1.0, p, n, DecayMode.ITERATED)
            assert abs(qstate.fidelity_psi_plus(state) - want) < 1e-10
            state = qstate.apply_pair_channel(state, qstate.Depolarizing(p))
    for eta_g in (0.0, 0.25, 0.5, 0.75, 1.0):
        for kappa_g in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = qstate.apply_pair_channel(
                qstate.make_bell(BellKind.PSI_PLUS), qstate.Thermal(eta_g, kappa_g)
            )
            want = qstate.thermal_yield(eta_g, kappa_g)
            assert abs(qstate.fidelity_psi_plus(out) - want) < 1e-10
    for p in np.linspace(0.0, 1.0, 11):
        for n in (0, 1, 2):
            a = qstate.depol_yield(p, n)
            b = buffersim.decayed_fidelity(1.0, p, n, DecayMode.ITERATED)
            assert abs(a - b) < 1e-12
    assert qstate.depol_yield(0.1, 3) == pytest.approx(0.641271, abs=1e-6)
    assert buffersim.decayed_fidelity(1.0, 0.1, 3, DecayMode.ITERATED) == pytest.approx(
        0.648581, abs=1e-6
    )


def test_criterion_03_bell_swap_grid():
    lams = (0.25, 0.5, 0.8, 1.0)
    qs = (0.5, 0.9, 1.0)
    for lam1 in lams:
        for lam2 in lams:
            for q in qs:
                out = qstate.bell_swap(
                    qstate.make_isotropic(lam1), qstate.make_isotropic(lam2), q
                )
                total = sum(b.probability for b in out.branches)
                assert abs(total - 1.0) < 1e-12
                want = qstate.make_isotropic(q * lam1 * lam2).matrix
                assert np.abs(out.corrected_state.matrix - want).max() < 1e-10


def test_criterion_04_max_repeaters_oracle_and_points():
    tasks = [
        repeater.TaskSpec(repeater.TaskKind.ENTANGLEMENT),
        repeater.TaskSpec(repeater.TaskKind.TELEPORTATION),
        repeater.TaskSpec(repeater.TaskKind.CHSH),
        repeater.TaskSpec(repeater.TaskKind.DIQKD, theta=math.pi / 4),
    ]

    def oracle(lam, q, gamma, cap=10000):
        if lam <= gamma:
            return repeater.NoneFeasible()
        n = 0
        while n < cap:
            if q ** (n + 1) * lam ** (n + 2) <= gamma:
                return n
            n += 1
        return repeater.Unbounded()

    t0 = time.perf_counter()
    for lam in [0.75 + 0.05 * i for i in range(6)]:
        for q in (0.625, 0.9, 0.95, 0.99, 1.0):
            for task in tasks:
                got = repeater.max_repeaters(lam, q, task)
                assert got == oracle(lam, q, task.threshold()), (lam, q, task.kind)
    assert repeater.max_repeaters(0.95, 1.0, tasks[3]) == 4
    assert repeater.max_repeaters(0.9, 1.0, tasks[1]) == 9
    assert repeater.max_repeaters(0.95, 1.0, tasks[2]) == 5
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_lattice_metrics():
    big = netgraph.build_topology(topology.Square1024(0.9))
    assert round(netgraph.link_sparsity(big, 0.5, NC), 4) == 0.9962
    cells = {
        topology.CellKind.OCTAGONAL: 0.75,
        topology.CellKind.SQUARE: 0.5,
        topology.CellKind.HEAVY_HEXAGONAL: 0.8333,
    }
    for kind, want in cells.items():
        net = netgraph.build_topology(topology.ProcessorCell(kind, 0.9))
        assert netgraph.link_sparsity(net, 0.5, NC) == pytest.approx(want, abs=5e-5)
    for p in (0.3, 0.7):
        grid = netgraph.build_topology(topology.Square1024(p))
        strengths = netgraph._all_strengths(grid, NC, 0.1)
        assert strengths[33] == pytest.approx(p / 256, abs=1e-12)
        assert strengths[1] == pytest.approx(3 * p / 1024, abs=1e-12)
        assert strengths[0] == pytest.approx(p / 512, abs=1e-12)
        for kind, denom in [
            (topology.CellKind.SQUARE, 2),
            (topology.CellKind.OCTAGONAL, 4),
            (topology.CellKind.HEAVY_HEXAGONAL, 6),
        ]:
            cell = netgraph.build_topology(topology.ProcessorCell(kind, p))
            assert netgraph._all_strengths(cell, NC, 0.1)[0] == pytest.approx(
                p / denom, abs=1e-12
            )


def test_criterion_06_lattice_budget_numbers():
    assert repeater.max_length_lattice(2, 0.051, 0.5) == pytest.approx(27.18, rel=0.01)
    assert repeater.required_f_lattice(10, 27.18, 0.051, 0.5) == pytest.approx(19.87, rel=0.01)


def test_criterion_07_satellite_yield():
    ideal = scenario.SatelliteYieldParams(
        n=3, eta_e=1.0, eta_s=1.0, q=1.0, p_mem=0.0, s=4,
        alpha=0.0, l_b=0.0, l_m=0.0, eta_g=1.0, kappa_g=0.0,
    )
    assert scenario.satellite_yield(ideal) == 1.0
    fig_point = scenario.SatelliteYieldParams(
        n=2, eta_e=0.95, eta_s=0.9, q=1.0, p_mem=0.1, s=1,
        alpha=1 / 22, l_b=10.0, l_m=10.0, eta_g=0.5, kappa_g=0.5,
    )
    got = scenario.satellite_yield(fig_point)
    oracle = (
        scenario.fiber_factor(1 / 22, 20.0)
        * scenario.erasure_factor(0.95, 2)
        * scenario.source_factor(0.9, 2)
        * scenario.bell_factor(1.0, 2)
        * scenario.memory_factor(0.1, 1)
        * scenario.thermal_factor(0.5, 0.5)
    )
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.15785, abs=1e-4)
    for length in (10.0, 20.0, 40.0):
        vals = [
            scenario.satellite_yield(
                scenario.SatelliteYieldParams(
                    n=n, eta_e=0.95, eta_s=0.9, q=1.0, p_mem=0.1, s=1,
                    alpha=1 / 22, l_b=length / 2, l_m=length / 2,
                    eta_g=0.5, kappa_g=0.5,
                )
            )
            for n in range(2, 11)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    lengths = [
        scenario.satellite_yield(
            scenario.SatelliteYieldParams(
                n=2, eta_e=0.95, eta_s=0.9, q=1.0, p_mem=0.1, s=1,
                alpha=1 / 22, l_b=length / 2, l_m=length / 2,
                eta_g=0.5, kappa_g=0.5,
            )
        )
        for length in (10.0, 20.0, 40.0)
    ]
    assert all(a > b for a, b in zip(lengths, lengths[1:]))


def test_criterion_08_airport_snapshot(airport_summary):
    report, elapsed = airport_summary
    assert report.n_nodes == 3463
    assert report.n_edges == 25482
    assert report.longest_route_km == pytest.approx(15331.0, rel=0.02)
    assert report.mean_route_km == pytest.approx(1952.0, rel=0.02)
    assert report.link_sparsity == pytest.approx(0.99575, abs=0.001)
    assert elapsed < 60.0
    # Known-failing: 0.99787 equals 1 - edges/nodes^2, a sparsity-like
    # quantity, while the summed per-node strength of this fixture is
    # about 11.67. Kept as stated so the gap stays visible.
    assert report.total_connection_strength == pytest.approx(0.99787, abs=0.001)


def test_criterion_09_shortest_path_oracle():
    def enumerate_best(net, source, target, p_star):
        best = None

        def dfs(path, weight):
            nonlocal best
            v = path[-1]
            if v == target:
                key = (weight, tuple(path))
                if best is None or key < best:
                    best = key
                return
            for u in sorted(edgeviews.neighbors(net, v)):
                if u not in path:
                    dfs(path + [u], weight - math.log2(edgeviews.edge_p(net, v, u)))

        dfs([source], 0.0)
        if best is None or best[0] > -math.log2(p_star) + 1e-12:
            return None
        return best

    rng = random.Random(20240824)
    for _ in range(100):
        n = rng.randint(3, 8)
        edges = [
            (i, j, round(rng.uniform(0.3, 1.0), 4))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        net = Network(list(range(n)), edges)
        want = enumerate_best(net, 0, n - 1, 0.3)
        got = netgraph.shortest_path(net, 0, n - 1, 0.3)
        if want is None:
            assert got.status is PathStatus.DISCONNECTED
        else:
            assert got.nodes == want[1]
            assert got.total_weight == pytest.approx(want[0], abs=1e-12)
        # success-matrix entries agree with the per-pair enumeration
        f_star = netgraph._f_star(netgraph._best_weights(net, 0.3), netgraph._budget(0.3))
        for t in range(1, n):
            ref = enumerate_best(net, 0, t, 0.3)
            entry = f_star[0, net.index[t]]
            if ref is None:
                assert entry == 0.0
            else:
                assert entry == pytest.approx(2.0 ** -ref[0], abs=1e-12)
    semantics = Network(
        [1, 2, 3], [(1, 2, 0.198), (1, 3, 0.79), (3, 2, 0.6857)]
    )
    f_star = netgraph._f_star(netgraph._best_weights(semantics, 0.5), netgraph._budget(0.5))
    assert f_star[0, 1] == pytest.approx(0.5417, abs=5e-5)
    assert f_star[0, 1] > 0.198


def test_criterion_10_critical_parameter_example():
    net = Network(
        [1, 2, 3, 4],
        [(1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5), (4, 1, 0.5), (1, 3, 0.5)],
    )
    reports = netgraph.critical_parameters(net, 0.1)
    assert reports[0].critical_parameter == pytest.approx(1.125, abs=1e-9)
    base_values = sorted(
        (r.critical_parameter for r in reports
         if not isinstance(r.critical_parameter, netgraph.Undefined)),
        reverse=True,
    )
    rng = random.Random(10)
    for _ in range(20):
        perm = [1, 2, 3, 4]
        rng.shuffle(perm)
        relabeled = edgeviews.relabeled(net, dict(zip([1, 2, 3, 4], perm)))
        got = netgraph.critical_parameters(relabeled, 0.1)
        assert got[0].critical_parameter == pytest.approx(1.125, abs=1e-9)
        values = sorted(
            (r.critical_parameter for r in got
             if not isinstance(r.critical_parameter, netgraph.Undefined)),
            reverse=True,
        )
        assert values == pytest.approx(base_values, abs=1e-9)


def test_criterion_11_task_reachability():
    chain = Network(list(range(100)), [(i, i + 1, 0.8) for i in range(99)])
    rep = netgraph.task_reachability(chain, 0.5)
    assert rep.counts[50] == 7
    assert rep.max_fraction == 0.07
    fracs = [
        netgraph.task_reachability(
            netgraph.build_topology(topology.Grid(n, n, 0.9)), 0.5
        ).max_fraction
        for n in (10, 20, 40)
    ]
    assert fracs[0] > fracs[1] > fracs[2]


def test_criterion_12_buffer_determinism():
    arrivals = tuple(
        buffersim.Arrival(t, "src", f"p{t:02d}") for t in range(1, 16)
    )
    flows = tuple(
        buffersim.FlowRequest(f"f{i}", 1, 2, n_pairs=5) for i in range(3)
    )
    cfg = buffersim.SimConfig(
        capacity=8, p_mem=0.05, eta_crit=0.4,
        arrivals=arrivals, flows=flows, horizon=25,
    )
    chunks = []
    res = buffersim.run(cfg, chunks.append)
    replay = {}
    for line in "".join(chunks).splitlines()[1:]:
        tick, kind, _pair, flow, _fid = line.split(",")
        if kind == "dispatch":
            prev = replay.setdefault(flow, [0])
            prev.append(buffersim.finish_time(prev[-1], int(tick), 2))
    assert {f: tuple(v[1:]) for f, v in replay.items()} == res.flow_finishes
    assert all(len(v) == 5 for v in res.flow_finishes.values())
    assert buffersim.decayed_fidelity(1.0, 0.1, 5) >= 0.5
    assert buffersim.decayed_fidelity(1.0, 0.1, 6) < 0.5
    heap = buffersim.MemoryHeap(4, 0.1, 0.5)
    heap.insert(buffersim.StoredPair("x", 0, 1.0))
    for s in range(1, 7):
        _, evicted = heap.tick_decay()
        assert bool(evicted) == (s == 6)
    again = []
    assert buffersim.run(cfg, again.append) == res
    assert again == chunks


def test_criterion_13_evolution():
    net = Network([1, 2], [(1, 2, 0.8)])
    seq = netgraph.evolve(net, 0.9, 0.3, 0.1, 2)
    assert edgeviews.edge_p(seq[1][0], 1, 2) == pytest.approx(0.9 * math.exp(-0.3) * 0.8, abs=1e-9)
    assert edgeviews.edge_p(seq[1][0], 1, 2) == pytest.approx(0.533389, abs=1e-6)
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(4, 10)
        edges = [
            (i, j, round(rng.uniform(0.3, 1.0), 4))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = Network(list(range(n)), edges)
        seq = netgraph.evolve(g, 0.95, 0.1, 0.3, 50)
        ups = [u for _, u in seq]
        assert all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))


def test_criterion_14_excluded_scale_items():
    # items beyond desk scale stay out of scope; the one recoverable
    # number is the repeater-count requirement under the unit exponent
    # convention, asserted here in that mode
    got = repeater.required_f_diqkd(0.04, 25.0, 10, 0.01, 1, 0.7445, exponent_factor=1.0)
    assert got == pytest.approx(37.7, abs=0.1)
