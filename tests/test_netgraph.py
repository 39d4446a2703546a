import hashlib
import itertools
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import edgeviews
import test_cli
from qnetlim import netgraph as ng
from qnetlim import topology
from qnetlim.cli import main as cli_main
from qnetlim.topology import CellKind, Circulant, FullMesh, Grid, ProcessorCell, Square1024, Star
from qnetlim.netgraph import (
    Network,
    PathStatus,
    StrategyKind,
    Undefined,
    average_effective_weight,
    build_topology,
    centrality_all,
    critical_parameters,
    critically_large_check,
    evolve,
    link_sparsity,
    load_edge_list,
    shortest_path,
    sparsity_index,
    task_reachability,
    total_connection_strength,
)

NC = StrategyKind.NON_COOPERATIVE
CO = StrategyKind.COOPERATIVE


def square_plus_diagonal():
    return Network(
        [1, 2, 3, 4],
        [(1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5), (4, 1, 0.5), (1, 3, 0.5)],
    )


def random_graph(rng, n_max=8, p_edge=0.5):
    n = rng.randint(3, n_max)
    nodes = list(range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges.append((i, j, round(rng.uniform(0.3, 1.0), 4)))
    return Network(nodes, edges)


def seeded_graph(seed=8, n=60):
    """A connected ring plus random chords, with full-precision p, a few exactly 1."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % n, rng.uniform(0.3, 1.0)) for i in range(n)]
    edges += [
        (i, j, 1.0 if rng.random() < 0.05 else rng.uniform(0.05, 1.0))
        for i in range(n) for j in range(i + 2, n) if rng.random() < 0.06
    ]
    return Network(range(n), edges)


def f_star(net, p_star):
    """net's whole f* matrix at p_star, from its bounded all-pairs pass."""
    return ng._f_star(ng._best_weights(net, p_star), ng._budget(p_star))


def enumerate_best_path(net, source, target, p_star):
    """All-simple-paths oracle with the same lexicographic tie-break."""
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


def pair_paths_oracle(net, p_star):
    """One canonical feasible shortest path per unordered pair.

    The plain enumeration: _lex_dijkstra from every source, each pair
    traversed from its smaller to its larger id, paths whose weight exceeds
    the -log2 p_star budget dropped.
    """
    budget = -math.log2(p_star)
    order = sorted(net.nodes)
    paths = []
    for i, s in enumerate(order):
        reached = ng._lex_dijkstra(net, s)
        for t in order[i + 1:]:
            hit = reached.get(t)
            if hit is not None and hit[0] <= budget:
                paths.append(hit[1])
    return paths


def centrality_oracle(net, p_star):
    tau = {v: 0 for v in net.nodes}
    for path in pair_paths_oracle(net, p_star):
        for u in path[1:-1]:
            tau[u] += 1
    return tau


def source_counts_oracle(net, g, number, p_star):
    """Interior counts, by position in the id-ordered g, of the canonical paths from one source."""
    source = g.nodes[number]
    counts = np.zeros(net.n_nodes, np.int64)
    for t, (d, path) in ng._lex_dijkstra(net, source).items():
        if t > source and d <= -math.log2(p_star):
            for u in path[1:-1]:
                counts[g.index[u]] += 1
    return counts


def id_ordered(net):
    """net with its nodes in id order, the numbering _canonical_sweep works in."""
    return Network(sorted(net.nodes), edgeviews.edges(net))


def canonical_sweep(g, p_star, sources):
    """_canonical_sweep on the id-ordered network g from the given source positions.

    Returns its counts and _tree_counts' mask of the sources that need no fallback.
    """
    budget, sources = -math.log2(p_star), np.asarray(sources)
    graph = ng._graph(g.tail, g.head, g.w, g.n_nodes)
    _, exact = ng._tree_counts(g, ng._distances(graph, sources=sources, limit=budget), sources)
    return ng._canonical_sweep(g, graph, budget, len(sources), sources), exact


def neighbor_subgraph_oracle(net, v):
    """The subgraph induced by all of v's neighbours, nodes in net order."""
    nodes = edgeviews.neighbors(net, v)
    edges = [
        (a, b, edgeviews.edge_p(net, a, b))
        for a, b in itertools.combinations(nodes, 2)
        if edgeviews.edge_p(net, a, b) is not None
    ]
    return Network(nodes, edges)


def usable(p, p_star):
    """Whether an edge of p (None: no edge) is usable at p_star: its weight is within -log2 p_star."""
    return p is not None and -math.log2(p) <= -math.log2(p_star)


def clustering_oracle(net, v, p_star):
    nbrs = set(edgeviews.neighbors(net, v, p_star))
    n_i = len(nbrs)
    if n_i < 2:
        return 0.0
    e_i = sum(
        1
        for a, b in itertools.combinations(nbrs, 2)
        if usable(edgeviews.edge_p(net, a, b), p_star)
    )
    return 2.0 * e_i / (n_i * (n_i - 1))


def strings(net):
    """The same network with string ids, which sort as "10" < "9"."""
    return edgeviews.relabeled(net, {v: str(v) for v in net.nodes})


def shuffled(net, rng):
    """The same network with its edges given in a random order."""
    items = list(edgeviews.edges(net).items())
    rng.shuffle(items)
    return Network(net.nodes, dict(items))


def weight_matrix(net, p_star=None):
    """A, -log2 p per edge, or with p_star A*, its edges usable at p_star; 0 on the diagonal, else +inf."""
    a = np.full((net.n_nodes,) * 2, math.inf)
    np.fill_diagonal(a, 0.0)
    for (u, v), p in edgeviews.edges(net).items():
        if p_star is None or usable(p, p_star):
            a[net.index[u], net.index[v]] = a[net.index[v], net.index[u]] = -math.log2(p)
    return a


def assert_same_network(got, want):
    """got and want hold the same nodes and, bit for bit, the same edge and CSR arrays."""
    assert (got.nodes, got.index) == (want.nodes, want.index)
    for name in ("ends", "p", "ptr", "tail", "head", "edge", "w"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def evolve_oracle(net, w, k, p_star, steps):
    """evolve's networks by its former loop over the edge dict, each step built by the checked constructor."""
    budget = -math.log2(p_star)
    current, out = net, []
    for t in range(steps):
        if t:
            factor = w * math.exp(-k * t)
            new_edges = {}
            for key, p in edgeviews.edges(current).items():
                p_next = factor * p
                if p_next > 0.0 and -math.log2(p_next) <= budget:
                    new_edges[key] = p_next
            current = Network(current.nodes, new_edges)
        out.append(current)
    return out


def direct_sums_oracle(net, p_star):
    """Per node, the p of its edges usable at p_star added up one by one in insertion order."""
    sums = {v: 0.0 for v in net.nodes}
    for (a, b), p in edgeviews.edges(net).items():
        if usable(p, p_star):
            sums[a] += p
            sums[b] += p
    return sums


class TestNetwork:
    def test_arrays_match_edges(self):
        # node 0's edges summed in (tail, head) order, 0.1 + 0.2 + 0.3, give
        # 0.6000000000000001; in insertion order they give 0.6
        fan = Network([0, 1, 2, 3], [(0, 3, 0.3), (0, 2, 0.2), (0, 1, 0.1)])
        assert sum(fan.p[fan.edge[fan.ptr[0]:fan.ptr[1]]]) != direct_sums_oracle(fan, 0.05)[0]
        rng = random.Random(12)
        for net in [fan] + [shuffled(strings(random_graph(rng, n_max=12)), rng) for _ in range(20)]:
            assert net.ptr[-1] == len(net.head) == 2 * net.n_edges
            edges = edgeviews.edges(net)
            for i, v in enumerate(net.nodes):
                span = slice(net.ptr[i], net.ptr[i + 1])
                heads = list(net.head[span])
                assert heads == sorted(heads)
                assert list(net.tail[span]) == [i] * len(heads)
                for j, e, w in zip(heads, net.edge[span], net.w[span]):
                    p = net.p[e]
                    assert sorted(net.ends[e]) == sorted([i, j])
                    assert p == edges[topology.edge_key(v, net.nodes[j])]
                    assert w == -math.log2(p)
            # non-cooperative strengths add up in edge insertion order
            for p_star in (0.05, 0.5, 0.9):
                sums = direct_sums_oracle(net, p_star)
                assert ng._direct_sums(net, p_star).tolist() == [sums[v] for v in net.nodes]
                want = float((np.array([sums[v] for v in net.nodes]) / net.n_nodes).sum())
                assert total_connection_strength(net, NC, p_star) == want

    def test_neighbors_in_net_order(self):
        rng = random.Random(13)
        for _ in range(20):
            net = shuffled(strings(random_graph(rng, n_max=12)), rng)
            for v in net.nodes:
                want = [u for u in net.nodes if edgeviews.edge_p(net, v, u) is not None]
                assert edgeviews.neighbors(net, v) == want
                assert edgeviews.neighbors(net, v, 0.6) == [u for u in want if usable(edgeviews.edge_p(net, v, u), 0.6)]

    def test_repeated_edge_keeps_last_p(self):
        net = Network([1, 2, 3], [(1, 2, 0.5), (2, 3, 0.9), (2, 1, 0.7)])
        assert edgeviews.edges(net) == {(1, 2): 0.7, (2, 3): 0.9}
        assert (net.ends.tolist(), net.p.tolist()) == ([[0, 1], [1, 2]], [0.7, 0.9])
        assert list(net.p[net.edge]) == [0.7, 0.7, 0.9, 0.9]
        assert edgeviews.neighbors(net, 2) == [1, 3]

    @pytest.mark.parametrize("nodes,edges,err", [
        ([1, 2, 1], [], "duplicate node ids"),
        ([1, 2], [(1, 2, 0.5), (2, 2, 0.5)], "self-loop on node 2"),
        ([1, 2], [(1, 3, 0.5)], "edge references unknown node: 1-3"),
    ])
    def test_rejects_bad_input(self, nodes, edges, err):
        with pytest.raises(ValueError, match=err):
            Network(nodes, edges)

    def test_id_order_copy_matches_checked_constructor(self):
        # string ids, where "10" < "9", a record repeated reversed with a new p, and p = 1
        records = [("b", "a", 0.9), ("10", "9", 1.0), ("b", "10", 0.5), ("a", "b", 0.7), ("9", "c", 0.25)]
        cases = [(["b", "10", "a", "9", "c"], records)]
        rng = random.Random(15)
        for _ in range(30):
            net = strings(random_graph(rng, n_max=14))
            items = [(a, b, p) for (a, b), p in edgeviews.edges(net).items()]
            items += [(b, a, rng.choice([1.0, 0.6])) for a, b, _ in rng.sample(items, min(3, len(items)))]
            rng.shuffle(items)
            nodes = list(net.nodes)
            rng.shuffle(nodes)
            cases.append((nodes, items))
        for nodes, items in cases:
            want = Network(sorted(nodes), items)
            assert_same_network(ng._id_ordered(Network(nodes, items)), want)
            assert ng._id_ordered(want) is want

    def test_unknown_node(self):
        net = square_plus_diagonal()
        for call in (lambda: shortest_path(net, 1, 9, 0.5), lambda: shortest_path(net, 9, 1, 0.5)):
            with pytest.raises(KeyError, match="^'unknown node 9'$"):
                call()


class TestWeights:
    def test_effective_weight(self):
        # both CSR entries of an edge weigh -log2 p, usable at p_star when within -log2 p_star
        for p, p_star, weight, ok in [(0.5, 0.25, 1.0, True), (0.2, 0.25, -math.log2(0.2), False),
                                      (0.54173, 0.5, -math.log2(0.54173), True)]:
            net = Network([1, 2], [(1, 2, p)])
            assert net.w.tolist() == [weight] * 2
            assert ng._strong(net, p_star).tolist() == [ok] * 2

    def test_f_star_examples(self):
        net = Network([1, 2, 3], [(1, 2, 0.8), (2, 3, 0.8)])
        assert f_star(net, 0.5)[0, 2] == pytest.approx(0.64, abs=1e-12)
        assert f_star(net, 0.7)[0, 2] == 0.0

    def test_indirect_beats_direct(self):
        net = Network([1, 2, 3], [(1, 2, 0.198), (1, 3, 0.79), (3, 2, 0.6857)])
        f, a = f_star(net, 0.5), weight_matrix(net)
        assert f[0, 1] == pytest.approx(0.541703, abs=1e-6)
        assert 2.0 ** -a[0, 1] == pytest.approx(0.198, abs=1e-12)
        assert f[0, 1] > 2.0 ** -a[0, 1]

    @pytest.mark.parametrize("engine", ["numpy", "scipy"])
    def test_no_pass_outlives_its_reader(self, monkeypatch, engine):
        # each reader makes its own all-pairs pass and frees it on return, so
        # no module global holds an n x n array between calls
        refs = []
        real = ng._distances

        def probe(*args, **kwargs):
            dist = real(*args, **kwargs)
            refs.append(weakref.ref(dist))
            return dist

        monkeypatch.setattr(ng, "_distances", probe)
        if engine == "scipy":
            monkeypatch.setattr(ng, "_NUMPY_ELEMENTS", 0)
        net = square_plus_diagonal()
        for read in (lambda: link_sparsity(net, 0.3, CO), lambda: ng._all_strengths(net, CO, 0.3),
                     lambda: average_effective_weight(net, 0.3), lambda: ng.graph_metrics(net, 0.3)):
            refs.clear()
            read()
            assert len(refs) == 1 and refs[0]() is None

    def test_matrix_invariants(self):
        rng = random.Random(5)
        for _ in range(10):
            net = random_graph(rng)
            f, a_star = f_star(net, 0.4), weight_matrix(net, 0.4)
            assert np.allclose(f, f.T)
            finite = np.isfinite(a_star)
            np.fill_diagonal(finite, False)
            # direct reachability never beats the best path
            assert (f[finite] >= 2.0 ** -a_star[finite] - 1e-12).all()


class TestShortestPath:
    def test_examples(self):
        net = Network([1, 2], [(1, 2, 0.9)])
        res = shortest_path(net, 1, 2, 0.5)
        assert res.status is PathStatus.FOUND
        assert res.probability == pytest.approx(0.9)
        net = Network([1, 2, 3], [(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.7)])
        res = shortest_path(net, 1, 3, 0.5)
        assert res.nodes == (1, 2, 3)
        assert res.probability == pytest.approx(0.81)
        weak = Network([1, 2], [(1, 2, 0.3)])
        assert shortest_path(weak, 1, 2, 0.5).status is PathStatus.DISCONNECTED

    def test_weight_additivity(self):
        rng = random.Random(11)
        for _ in range(20):
            net = random_graph(rng)
            res = shortest_path(net, 0, net.n_nodes - 1, 0.05)
            if res.status is PathStatus.FOUND and len(res.nodes) > 1:
                total = sum(
                    -math.log2(edgeviews.edge_p(net, a, b))
                    for a, b in zip(res.nodes, res.nodes[1:])
                )
                assert res.total_weight == pytest.approx(total, abs=1e-12)
                prod = math.prod(
                    edgeviews.edge_p(net, a, b) for a, b in zip(res.nodes, res.nodes[1:])
                )
                assert res.probability == pytest.approx(prod, abs=1e-12)

    def test_matches_enumeration(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(100):
            net = random_graph(rng)
            s, t = 0, net.n_nodes - 1
            want = enumerate_best_path(net, s, t, 0.3)
            got = shortest_path(net, s, t, 0.3)
            if want is None:
                assert got.status is PathStatus.DISCONNECTED
            else:
                checked += 1
                assert got.nodes == want[1]
                assert got.total_weight == pytest.approx(want[0], abs=1e-12)
        assert checked > 30


class TestThresholdRule:
    """One rule for every metric: an edge or a pair is within p* when w or d <= -log2 p*."""

    # a pair whose only path sits on the boundary: its product equals p*
    PROBES = {
        "one-edge": ([("a", "b", 0.07)], 0.07, ["a", "b"]),
        "two-hop": ([("a", "b", 0.8), ("b", "c", 0.85)], 0.68, ["a", "b", "c"]),
    }

    # edge probabilities, given the graph's uniform p
    DRAWS = {
        "uniform": lambda rng, p: p,
        "power-of-two": lambda rng, p: rng.choice([0.5, 0.25, 0.125]),
        "p-one": lambda rng, p: rng.choice([1.0, 0.5, 0.9]),
        "random": lambda rng, p: rng.uniform(0.05, 1.0),
    }

    # p* at which the edge of p = nextafter(p*, 0) weighs exactly -log2 p*
    TIED = [0.001, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300]

    @staticmethod
    def tied_p(p_star):
        """The p just below p*, if its weight equals the -log2 p* budget, else None."""
        p = math.nextafter(p_star, 0.0)
        return p if -math.log2(p) == -math.log2(p_star) else None

    def random_cases(self, kind, count=50):
        """(net, p*) with p* an edge's p, and the product along a short walk.

        Where some p below p* weighs exactly -log2 p*, the network comes
        again with a few edges of that p added or put in place of others.
        """
        rng, tie_rng = random.Random(kind), random.Random(f"{kind}-tied")
        for _ in range(count):
            n, p = rng.randint(3, 9), rng.uniform(0.3, 0.95)
            edges = [(i, j, self.DRAWS[kind](rng, p))
                     for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            if not edges:
                continue
            net = Network(range(n), edges)
            walk = [rng.choice(edges)[0]]
            for _ in range(rng.randint(2, 4)):
                walk.append(rng.choice(edgeviews.neighbors(net, walk[-1])))
            product = math.prod(edgeviews.edge_p(net, a, b) for a, b in zip(walk, walk[1:]) if a != b)
            for p_star in (rng.choice(edges)[2], product):
                if p_star < 1.0:
                    yield net, p_star
                    tied = self.tied_p(p_star)
                    if tied is not None:
                        extra = [(i, j, tied) for i in range(n) for j in range(i + 1, n)
                                 if tie_rng.random() < 0.2]
                        extra.append((*tie_rng.choice(edges)[:2], tied))
                        yield Network(range(n), edges + extra), p_star

    def mismatches(self, net, p_star):
        """Ordered pairs on which f*, shortest_path and task_reachability disagree,
        and usable edges whose ends are not within p*."""
        f = f_star(net, p_star)
        counts = task_reachability(net, p_star).counts
        bad = []
        for i, s in enumerate(net.nodes):
            found = [shortest_path(net, s, t, p_star).status is PathStatus.FOUND for t in net.nodes]
            found[i] = False
            bad += [(s, t) for j, t in enumerate(net.nodes) if (f[i, j] > 0) != found[j]]
            bad += [(s, t) for t in edgeviews.neighbors(net, s, p_star) if not found[net.index[t]]]
            if counts[s] != 1 + sum(found):
                bad.append((s, "reachability"))
        return bad

    def test_boundary_probes(self):
        for edges, p_star, path in self.PROBES.values():
            net = Network(path, edges)
            weight = sum(-math.log2(p) for *_, p in edges)
            within = weight <= -math.log2(p_star)
            s, t = path[0], path[-1]
            assert (shortest_path(net, s, t, p_star).status is PathStatus.FOUND) == within
            assert (f_star(net, p_star)[0, -1] > 0) == within
            assert task_reachability(net, p_star).counts[s] == (len(path) if within else len(path) - 1)
            assert centrality_all(net, p_star)[path[1]] == (len(path) > 2 and within)
            assert link_sparsity(net, p_star, CO) <= link_sparsity(net, p_star, NC)
            assert self.mismatches(net, p_star) == []
        # the one-edge pair has p = p*, so it counts cooperatively too
        one = Network(["a", "b"], self.PROBES["one-edge"][0])
        assert link_sparsity(one, 0.07, CO) == link_sparsity(one, 0.07, NC) == 0.5

    @staticmethod
    def cli_runner(capsys, tmp_path, edges, p_star):
        """run(*argv): the exit code and the data rows, keyed by first field, of
        a graph command on the edge list edges at p*."""
        (tmp_path / "g.edges").write_text("".join(f"{a},{b},{p!r}\n" for a, b, p in edges))
        common = ["--in", str(tmp_path / "g.edges"), "--p-star", repr(p_star)]

        def run(*argv):
            capsys.readouterr()
            code = cli_main([*argv, *common])
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("#")]
            return code, {row[0]: row[1:] for row in rows[1:]}

        return run

    @pytest.mark.parametrize("name", list(PROBES))
    def test_boundary_probes_cli(self, capsys, tmp_path, name):
        edges, p_star, path = self.PROBES[name]
        run = self.cli_runner(capsys, tmp_path, edges, p_star)
        found = {(s, t): run("path", "--source", s, "--target", t)[0] == 0
                 for s, t in itertools.permutations(path, 2)}
        code, graph = run("graph")
        non_cooperative, cooperative = map(float, graph["link_sparsity"])
        assert code == 0
        assert cooperative == 1 - sum(found.values()) / len(path) ** 2
        assert cooperative <= non_cooperative
        code, nodes = run("critical-nodes")
        assert code == 0
        assert int(nodes[path[1]][1]) == (len(path) > 2 and found[path[0], path[-1]])

    @staticmethod
    def tied_edges(p_star):
        """a-b of p just below p*, which weighs exactly -log2 p*, and b-c of p = 1."""
        tied = TestThresholdRule.tied_p(p_star)
        assert tied is not None and tied < p_star
        return [("a", "b", tied), ("b", "c", 1.0)]

    @pytest.mark.parametrize("p_star", TIED)
    def test_tied_edge_counts(self, p_star):
        edges = self.tied_edges(p_star)
        net = Network(["a", "b", "c"], edges)
        budget = -math.log2(p_star)
        assert -math.log2(edges[0][2]) == budget
        assert edgeviews.neighbors(net, "a", p_star) == ["b"]
        assert edgeviews.neighbors(net, "b", p_star) == ["a", "c"]
        # a -> b, the first CSR entry, weighs the budget and is usable
        assert net.w[0] == budget and ng._strong(net, p_star).all()
        assert shortest_path(net, "a", "c", p_star).status is PathStatus.FOUND
        assert task_reachability(net, p_star).counts == {"a": 3, "b": 3, "c": 3}
        assert link_sparsity(net, p_star, NC) == 1 - 4 / 9
        assert link_sparsity(net, p_star, CO) == 1 - 6 / 9
        assert centrality_all(net, p_star) == {"a": 0, "b": 1, "c": 0}
        for strategy in (NC, CO):
            assert ng._all_strengths(net, strategy, p_star)[0] > 0
        assert self.mismatches(net, p_star) == []
        # closing the triangle: a-b is the link between a's and c's neighbours
        triangle = Network(["a", "b", "c"], edges + [("a", "c", 1.0)])
        assert ng._neighbor_metrics(triangle, p_star)[0].tolist() == [1.0] * 3
        for g in (net, triangle):
            sums = direct_sums_oracle(g, p_star)
            assert ng._all_strengths(g, NC, p_star).tolist() == [sums[v] / 3 for v in "abc"]

    @pytest.mark.parametrize("p_star", TIED)
    def test_tied_edge_counts_cli(self, capsys, tmp_path, p_star):
        run = self.cli_runner(capsys, tmp_path, self.tied_edges(p_star), p_star)
        code, graph = run("graph")
        assert code == 0
        assert list(map(float, graph["link_sparsity"])) == [1 - 4 / 9, 1 - 6 / 9]
        code, path = run("path", "--source", "a", "--target", "c")
        assert code == 0
        assert path["found"][-1] == "a-b-c"
        code, nodes = run("critical-nodes")
        assert code == 0
        assert int(nodes["b"][1]) == 1
        assert float(nodes["a"][2]) > 0

    @pytest.mark.parametrize("kind", list(DRAWS))
    def test_random_graphs(self, kind):
        cases = list(self.random_cases(kind))
        assert len(cases) > 60
        assert sum(any(p == self.tied_p(p_star) for p in edgeviews.edges(net).values())
                   for net, p_star in cases) > 10
        for net, p_star in cases:
            assert self.mismatches(net, p_star) == [], (edgeviews.edges(net), p_star)
            assert link_sparsity(net, p_star, CO) <= link_sparsity(net, p_star, NC)


def hops_over_oracle(step, budget):
    """n0 one hop at a time, the loop _hops_over replaces: its oracle."""
    n0, weight = 1, step
    while weight <= budget:
        n0, weight = n0 + 1, weight + step
    return n0


def unbounded_pass(net, p_star):
    """The all-pairs pass with no budget, by scipy's shortest_path: the oracle of the bounded one."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    keep = net.w <= -math.log2(p_star)
    # p = 1 at the smallest positive float, as csr drops stored zeros
    weight = np.where(net.w > 0.0, net.w, 5e-324)
    graph = csr_matrix((weight[keep], (net.tail[keep], net.head[keep])), shape=(net.n_nodes,) * 2)
    return shortest_path(graph, method="D", directed=False)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestBudgetLimitedPass:
    """The metrics that read only f* give, bit for bit, what they give on the unbounded pass."""

    def cases(self):
        rng = random.Random(14)
        near_one = math.nextafter(1.0, 0.0)
        chain = Network(range(6), [(i, i + 1, 0.5) for i in range(5)])
        yield from ((random_graph(rng), rng.uniform(0.01, 0.9)) for _ in range(20))
        yield from ((seeded_graph(seed), p_star) for seed in (8, 9) for p_star in (0.3, 0.05))
        for spec in (Grid(6, 5, 0.9), Star(9, 0.8), FullMesh(7, 0.5), Circulant(12, 4, 0.9),
                     Grid(5, 5, 1.0), FullMesh(5, 1.0), Square1024(0.9)):
            yield from ((build_topology(spec), p_star) for p_star in (0.5, 0.1))
        # boundary graphs: p* an edge's p and a walk's product
        for kind in TestThresholdRule.DRAWS:
            yield from TestThresholdRule().random_cases(kind, 10)
        # a distance equal to the budget is kept: 0.5 ** 2 and 0.5 ** 4
        yield from ((chain, p_star) for p_star in (0.25, 0.0625))
        mixed = Network(range(5), [(0, 1, 1.0), (1, 2, near_one), (2, 3, 1.0), (3, 4, 0.5)])
        yield from ((g, p_star) for g in (mixed, build_topology(Grid(4, 4, 1.0)))
                    for p_star in (near_one, 1 - 1e-12, 1e-300))
        yield seeded_graph(), 1e-300

    def oracle(self, net, p_star):
        """bounded_readers' values, then the average weight, all from the unbounded pass."""
        n = net.n_nodes
        dist = unbounded_pass(net, p_star)
        budget = -math.log2(p_star)
        f = np.where(dist <= budget, np.power(2.0, -dist), 0.0)
        np.fill_diagonal(f, 0.0)
        strengths = f.sum(axis=1) / n
        z = np.sort(strengths)
        index = 1.0
        if z.sum():
            y = np.concatenate([[0.0], np.cumsum(z) / z.sum()])
            index = float(np.trapezoid(y, dx=1.0 / n)) / 0.5
        counts = np.count_nonzero(dist <= budget, axis=1)
        average = ng._mean_weight(dist[~np.eye(n, dtype=bool)])
        return (f, 1.0 - np.count_nonzero(f) / n**2, float(strengths.sum()), index,
                counts.tolist(), counts.max() / n, average)

    def bounded_readers(self, net, p_star):
        reach = task_reachability(net, p_star)
        return (f_star(net, p_star), link_sparsity(net, p_star, CO),
                total_connection_strength(net, CO, p_star), sparsity_index(net, CO, p_star),
                [reach.counts[v] for v in net.nodes], reach.max_fraction)

    @pytest.mark.parametrize("full_first", [False, True], ids=["bounded-first", "full-first"])
    def test_equals_unbounded_pass(self, full_first):
        # each pass is its own, so neither call order may change a value
        checked = 0
        for net, p_star in self.cases():
            want = self.oracle(net, p_star)
            if full_first:
                average = average_effective_weight(net, p_star)
            got = self.bounded_readers(net, p_star)
            if not full_first:
                average = average_effective_weight(net, p_star)
            got += (average,)
            assert [bits(x) for x in got] == [bits(x) for x in want], (edgeviews.edges(net), p_star)
            strengths = ng._all_strengths(net, CO, p_star)
            assert bits(strengths) == bits(want[0].sum(axis=1) / net.n_nodes), (edgeviews.edges(net), p_star)
            checked += 1
        assert checked > 100, checked


class TestGraphMetrics:
    """graph_metrics' one unbounded pass gives each public function's value, exactly."""

    CASES = {
        "square1024": (lambda: build_topology(Square1024(0.9)), (0.5, 0.1)),
        "random-p": (lambda: seeded_graph(8, 150), (0.5, 0.1)),
        "disconnected": (lambda: Network(range(6), [(0, 1, 0.9), (1, 2, 0.8), (3, 4, 0.9), (4, 5, 0.7)]),
                         (0.5,)),
        "p-one": (lambda: Network(range(5), [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5), (3, 4, 1.0), (0, 4, 0.7)]),
                  (0.5, 0.3)),
        # the 0.5 chain's end-to-end paths weigh 2 and 4 bits, exactly the budget
        "budget-path": (lambda: Network(range(5), [(i, i + 1, 0.5) for i in range(4)]), (0.25, 0.0625)),
    }

    def public(self, net, p_star):
        mean = average_effective_weight(net, p_star)
        return [
            ("link_sparsity", link_sparsity(net, p_star, NC), link_sparsity(net, p_star, CO)),
            ("total_connection_strength", *(total_connection_strength(net, s, p_star) for s in (NC, CO))),
            ("sparsity_index", *(sparsity_index(net, s, p_star) for s in (NC, CO))),
            ("average_effective_weight_bits", mean, mean),
        ]

    @pytest.mark.parametrize("name", list(CASES))
    def test_equals_public_functions(self, monkeypatch, name):
        build, p_stars = self.CASES[name]
        net = build()
        engines = []
        real = ng._distances

        def spy(graph, **kwargs):
            engines.append(isinstance(graph, tuple))
            return real(graph, **kwargs)

        monkeypatch.setattr(ng, "_distances", spy)
        for p_star in p_stars:
            engines.clear()
            got = ng.graph_metrics(net, p_star)
            # one unbounded pass, on numpy unless the weights are random
            assert engines == [name != "random-p"]
            assert got == self.public(net, p_star), p_star
            if name == "disconnected":
                assert got[-1][1:] == (math.inf, math.inf)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError, match="^need at least 2 nodes$"):
            ng.graph_metrics(Network([1], []), 0.5)


def scipy_distances(ptr, head, weight, sources=None, limit=math.inf):
    """scipy's Dijkstra on the same CSR graph: the oracle of _distances' numpy pass."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = len(ptr) - 1
    return dijkstra(csr_matrix((weight, head, ptr), shape=(n, n)), indices=sources, limit=limit)


def on_numpy(net, limit=math.inf):
    """Whether _graph puts net's whole weighted graph on the numpy pass, for passes within limit."""
    return isinstance(ng._graph(net.tail, net.head, net.w, net.n_nodes, limit=limit), tuple)


def edge_weights(net, per_edge):
    """CSR weights from one weight per edge of net, in insertion order: both directions alike."""
    return np.asarray(per_edge, float)[net.edge]


def stored(weight):
    """Weights as _graph stores them: p = 1 as the smallest positive float."""
    return np.where(weight > 0.0, weight, 5e-324)


# the equal edge weights every numpy-pass test runs each structure at: the
# p = 1 placeholder, a tiny normal one, the weight of the largest p below 1,
# and Square1024's, a unit hop's and p = 0.1's
WEIGHTS = [5e-324, 1e-300, -math.log2(math.nextafter(1.0, 0.0)), -math.log2(0.9), 1.0, -math.log2(0.1)]


class TestNumpyDistances:
    """_distances' numpy pass equals scipy's dijkstra bit for bit, inf included.

    Every graph is handed to the pass as ng._hops builds it, whatever
    engine _graph would pick, so exactness does not rest on the rule.
    """

    def networks(self):
        """Structures; each test puts one of WEIGHTS on every edge, and reads p only to restrict."""
        rng = random.Random(18)
        near_one = math.nextafter(1.0, 0.0)
        specs = [Grid(9, 7, 0.9), Grid(6, 6, 1.0), Grid(1, 12, 0.5), Star(12, 0.8), Star(7, 1.0),
                 FullMesh(8, 0.5), FullMesh(6, 1.0), Circulant(40, 2, 0.9), Circulant(31, 2, 0.5),
                 Circulant(24, 5, 0.7), ProcessorCell(CellKind.HEAVY_HEXAGONAL, 0.9),
                 # every node reaches every other at level 1
                 FullMesh(40, 0.5)]
        yield from (build_topology(spec) for spec in specs)
        # a ring of seven
        yield Network(range(7), [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5), (3, 4, 1.0), (4, 5, near_one),
                                 (5, 6, 1e-300), (0, 6, 1.0)])
        # two parts and an isolated node
        yield Network(range(9), [(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9), (4, 5, 0.8), (5, 6, 0.8),
                                 (6, 7, 0.8)])
        yield Network(range(3), [])
        yield from (random_graph(rng, n_max=14) for _ in range(40))
        yield from (seeded_graph(seed) for seed in (8, 9))
        for _ in range(10):
            n = rng.randint(2, 30)
            yield Network(range(n), [(i, j, rng.choice([rng.random(), 1.0, 0.5, 0.9]))
                                     for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2])

    def weighted(self):
        """(network, weight array) for every network at each of WEIGHTS."""
        for net in self.networks():
            yield from ((net, np.full(len(net.head), w)) for w in WEIGHTS)

    def mixed(self):
        """(network, weight array) for every network with some edges off one of WEIGHTS.

        The others weigh less or more, one ulp either side, or are p = 1;
        the structures' own p, some all distinct, come last.
        """
        rng = random.Random(21)
        for net in self.networks():
            for w in WEIGHTS:
                off = [math.nextafter(w, 0.0), math.nextafter(w, math.inf), w / 2, 2 * w, 3 * w, 0.0]
                per_edge = [rng.choice(off) if rng.random() < 0.15 else w for _ in range(net.n_edges)]
                yield net, stored(edge_weights(net, per_edge))
            yield net, stored(net.w)

    def assert_same(self, ptr, head, weight, sources=None, limit=math.inf):
        got = ng._distances(ng._hops(ptr, head, weight), sources=sources, limit=limit)
        want = scipy_distances(ptr, head, weight, sources, limit)
        assert got.shape == want.shape and np.array_equal(got, want), (weight, sources, limit)

    def assert_every_limit(self, ptr, head, weight, every):
        # every distance the pass holds, as the limit: kept, and the next float above and below
        finite = np.unique(every[np.isfinite(every)])
        for limit in [math.inf, 1.0, 0.3, *finite[:: max(1, len(finite) // 12)]]:
            for lim in {limit, math.nextafter(limit, 0.0), math.nextafter(limit, math.inf)}:
                self.assert_same(ptr, head, weight, limit=lim)

    def test_all_pairs_at_every_limit(self):
        for net, weight in self.weighted():
            self.assert_every_limit(net.ptr, net.head, weight, scipy_distances(net.ptr, net.head, weight))

    def test_mixed_weights_at_every_limit(self):
        for net, weight in self.mixed():
            self.assert_every_limit(net.ptr, net.head, weight, scipy_distances(net.ptr, net.head, weight))

    def test_distance_equal_to_limit_is_kept(self):
        chain = Network(range(6), [(i, i + 1, 0.5) for i in range(5)])
        for w in WEIGHTS:
            weight = np.full(len(chain.head), w)
            # d_k, summed hop by hop
            level = [0.0]
            for _ in range(5):
                level.append(level[-1] + w)
            for k in range(1, 5):
                dist = ng._distances(ng._hops(chain.ptr, chain.head, weight), limit=level[k])
                assert dist[0, :k + 1].tolist() == level[:k + 1] and dist[0, k + 1] == math.inf
                self.assert_same(chain.ptr, chain.head, weight, limit=level[k])

    def test_unweighted_hops(self):
        for net in self.networks():
            self.assert_same(net.ptr, net.head, np.ones(len(net.head)))
            self.assert_same(net.ptr, net.head, np.ones(len(net.head)), limit=3.0)

    def test_source_subsets(self):
        rng = random.Random(19)
        for net, weight in itertools.chain(self.weighted(), self.mixed()):
            n = net.n_nodes
            subsets = [np.arange(n)[::-1], *(np.array(rng.sample(range(n), rng.randint(1, n)))
                                             for _ in range(3))]
            for sources in subsets:
                for limit in (math.inf, 0.5):
                    self.assert_same(net.ptr, net.head, weight, sources, limit)

    def test_restricted_to_usable_edges(self):
        for net, weight in itertools.chain(self.weighted(), self.mixed()):
            for p_star in (0.85, 0.5, 0.1):
                keep = net.w <= -math.log2(p_star)
                ptr = np.searchsorted(net.tail[keep], np.arange(net.n_nodes + 1))
                self.assert_same(ptr, net.head[keep], weight[keep], limit=-math.log2(p_star))
                self.assert_same(ptr, net.head[keep], weight[keep])

    def test_modal_weight(self):
        # the step is the most common weight, the first of a tie; the others are repaired
        star = build_topology(Star(7, 0.5))
        for per_edge, step, odd in (([0.0] * 4 + [1.0] * 2, 5e-324, 4), ([1.0] * 4 + [0.0] * 2, 1.0, 4),
                                    ([1.0] * 3 + [0.0] * 3, 5e-324, 6), ([2.0] * 3 + [1.0] * 3, 1.0, 6)):
            weight = stored(edge_weights(star, per_edge))
            graph = ng._hops(star.ptr, star.head, weight)
            assert (graph.step, len(graph.odd)) == (step, odd)
            self.assert_same(star.ptr, star.head, weight)
            self.assert_same(star.ptr, star.head, weight, limit=1.0)

    @pytest.mark.parametrize("chord", [0.5, 0.999, 1.001, 2.0, 0.0])
    def test_repair_travels_many_hops(self, chord):
        # a ring of unit hops with one chord and one edge of other weights: a light
        # chord shortens every pair whose path can use it, a heavy edge drops out of
        # the hop levels, and each repair runs up to ~100 rounds
        n = 240
        per_edge = {(i, i + 1): 1.0 for i in range(n - 1)}
        per_edge[0, n - 1] = 1.0
        per_edge[0, 1] = 1.5
        per_edge[0, n // 2] = chord
        net = Network(range(n), dict.fromkeys(per_edge, 0.5))
        weight = stored(edge_weights(net, [per_edge[key] for key in edgeviews.edges(net)]))
        assert len(ng._hops(net.ptr, net.head, weight).odd) == 4
        self.assert_same(net.ptr, net.head, weight)
        self.assert_same(net.ptr, net.head, weight, np.array([0, n // 2, 1, 7, n - 1]))
        every = scipy_distances(net.ptr, net.head, weight, np.arange(0, n, 5))
        for limit in np.unique(every[np.isfinite(every)])[::9]:
            for lim in (limit, math.nextafter(limit, 0.0), math.nextafter(limit, math.inf)):
                self.assert_same(net.ptr, net.head, weight, np.arange(0, n, 5), lim)

    @pytest.mark.parametrize("count", [1, 3, 40])
    def test_square1024_off_modal_edges(self, count):
        net = build_topology(Square1024(0.9))
        rng = random.Random(count)
        w0 = -math.log2(0.9)
        off = [-math.log2(0.95), -math.log2(0.5), math.nextafter(w0, 0.0), math.nextafter(w0, math.inf), 0.0]
        per_edge = dict.fromkeys(edgeviews.edges(net), w0)
        for key in rng.sample(list(per_edge), count):
            per_edge[key] = rng.choice(off)
        weight = stored(edge_weights(net, list(per_edge.values())))
        self.assert_same(net.ptr, net.head, weight)
        sources = np.array(rng.sample(range(1024), 100))
        for limit in (1.0, -math.log2(0.1), 3 * w0, math.nextafter(3 * w0, math.inf)):
            self.assert_same(net.ptr, net.head, weight, sources, limit)

    def test_random_p(self):
        rng = random.Random(22)
        grid = build_topology(Grid(12, 12, 0.9))
        for net in (Network(grid.nodes, {key: rng.uniform(0.5, 1.0) for key in edgeviews.edges(grid)}),
                    seeded_graph(10, 120)):
            weight = stored(net.w)
            self.assert_same(net.ptr, net.head, weight)
            self.assert_same(net.ptr, net.head, weight, np.arange(net.n_nodes)[::-3], 2.0)

    def test_airport_rows(self, airport_network):
        g = id_ordered(airport_network)
        weight = stored(g.w)
        graph = ng._hops(g.ptr, g.head, weight)
        assert len(graph.odd) == 624 and len(graph.hop_head) == 50340
        rng = random.Random(23)
        for count in (10, 64, 100):
            sources = np.array(rng.sample(range(g.n_nodes), count))
            for limit in (-math.log2(0.1), -math.log2(0.5), math.inf):
                self.assert_same(g.ptr, g.head, weight, sources, limit)

    def test_lanes_of_separate_parts(self):
        # a 2-D sources puts a row of sources, one per part, on each lane
        from scipy.sparse import csr_matrix

        rng = random.Random(24)
        for net, weight in itertools.chain(self.weighted(), self.mixed()):
            k, parts = net.n_nodes, 3
            tails = np.concatenate([net.tail + i * k for i in range(parts)])
            heads = np.concatenate([net.head + i * k for i in range(parts)])
            ptr = np.searchsorted(tails, np.arange(parts * k + 1))
            weights = np.tile(weight, parts)
            lanes = np.arange(parts * k).reshape(parts, k).T
            lanes = lanes[rng.sample(range(k), k)]
            want = scipy_distances(ptr, heads, weights, lanes.ravel()).reshape(k, parts, -1).min(axis=1)
            scipy_side = csr_matrix((weights, heads, ptr), shape=(parts * k,) * 2)
            for graph in (ng._hops(ptr, heads, weights), scipy_side):
                got = ng._distances(graph, sources=lanes)
                assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("spec", [Square1024(0.9), Circulant(1448, 2, 0.9), Grid(1, 1448, 0.9)],
                             ids=["square1024", "ring1448", "path1448"])
    def test_largest_numpy_side_graphs(self, spec):
        net = build_topology(spec)
        graph = ng._graph(net.tail, net.head, net.w, net.n_nodes)
        assert isinstance(graph, tuple)
        self.assert_same(graph.ptr, graph.head, graph.weight)
        self.assert_same(graph.ptr, graph.head, graph.weight, np.arange(0, net.n_nodes, 7), 1.0)

    def test_engine_bound(self, airport_network):
        def work(net, limit=math.inf):
            graph = ng._hops(net.ptr, net.head, stored(net.w))
            rounds = min(net.n_nodes, limit / graph.step)
            return rounds * (len(graph.hop_head) + 64 * len(graph.odd))

        # equal weights without a limit: the old bound, reach x entries
        for spec in (Square1024(0.9), Circulant(1448, 2, 0.9), Grid(1, 1448, 0.9), FullMesh(6, 1.0)):
            net = build_topology(spec)
            assert on_numpy(net) and net.n_nodes * len(net.head) == work(net) <= ng._NUMPY_ELEMENTS
        assert not on_numpy(build_topology(Circulant(1449, 2, 0.9)))
        assert not on_numpy(build_topology(Grid(1, 1449, 0.9)))
        assert on_numpy(Network(range(3), []))
        # a limit bounds the rounds: the airport's 624 other entries cost 64 each
        budget = -math.log2(0.1)
        assert on_numpy(airport_network, budget) and not on_numpy(airport_network)
        assert work(airport_network, budget) <= ng._NUMPY_ELEMENTS < work(airport_network)
        # one edge off Square1024's p stays on numpy, two go to scipy unless a limit bounds the rounds
        net = build_topology(Square1024(0.9))
        edges = edgeviews.edges(net)
        keys = list(edges)
        for p in (0.999999, 1.0, 0.8):
            one = Network(net.nodes, {**edges, keys[0]: p})
            two = Network(net.nodes, {**edges, keys[0]: p, keys[500]: p})
            assert on_numpy(one) and not on_numpy(two) and on_numpy(two, 1.0)
        # random p: every entry is repaired, so scipy at any limit
        rng = random.Random(25)
        grid = build_topology(Grid(32, 32, 0.9))
        noisy = Network(grid.nodes, {key: rng.uniform(0.5, 1.0) for key in edgeviews.edges(grid)})
        assert not on_numpy(noisy) and not on_numpy(noisy, 1.0)

    def test_every_caller_on_either_engine(self, monkeypatch):
        # every caller gives the same answers with each graph on the engine _graph picks,
        # and with every graph forced onto scipy
        seeded = seeded_graph()
        grid = build_topology(Grid(7, 5, 0.9))
        # unequal weights, but at p* = 0.5 the usable edges all weigh the same
        mostly = Network(grid.nodes, {key: 0.3 if sum(key) % 5 == 0 else 0.9 for key in edgeviews.edges(grid)})
        nets = [build_topology(Grid(6, 5, 0.9)), build_topology(Circulant(16, 2, 0.7)),
                build_topology(FullMesh(6, 1.0)), id_ordered(strings(grid)), strings(grid),
                Network(seeded.nodes, dict.fromkeys(edgeviews.edges(seeded), 0.8)), mostly,
                build_topology(Circulant(16, 5, 0.7)),
                Network(range(4), [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 0.5), (2, 3, 0.5)]),
                seeded, strings(seeded_graph(9)), build_topology(Grid(1, 1500, 0.9))]
        assert strings(grid).nodes != sorted(strings(grid).nodes)
        engines = []
        distances = ng._distances

        def spy(graph, **kw):
            engines.append(isinstance(graph, tuple))
            return distances(graph, **kw)

        def answers(net):
            out = []
            for p_star in (0.5, 0.1):
                c = max(0.5, float(net.p.max()))
                if c < 1.0:
                    out.append(critically_large_check(net, p_star, c))
                for full in (False, True):
                    out.append(bits(ng._best_weights(net, p_star, full)))
                out += [bits(ng._neighbor_metrics(net, p_star)), centrality_all(net, p_star)]
            return out

        monkeypatch.setattr(ng, "_distances", spy)
        picked = []
        for net in nets:
            engines.clear()
            picked.append(answers(net))
            assert any(engines)
            with monkeypatch.context() as m:
                m.setattr(ng, "_NUMPY_ELEMENTS", 0)
                engines.clear()
                assert answers(net) == picked[-1]
                assert not any(engines)
        # the 1500-node path's unbounded passes are on scipy, its bounded ones on numpy
        engines.clear()
        assert answers(nets[-1]) == picked[-1]
        assert not all(engines)
        # seeded's random p leaves most entries to the repair, mostly's only its p = 0.3 edges
        assert len(ng._hops(seeded.ptr, seeded.head, stored(seeded.w)).odd) > len(seeded.head) // 2
        assert on_numpy(mostly) and len(ng._hops(mostly.ptr, mostly.head, mostly.w).odd)

    # a block of g subgraphs of k = n - 1 nodes holds g k (k - 1) entries, and one source
    # reaches k of its nodes. FullMesh(40): g = 13, 39 * 19266 <= 1 << 22 < 507 * 19266;
    # FullMesh(95) and (100): g = 5, 94 * 5 * 94 * 93 <= 1 << 22 < 99 * 5 * 99 * 98
    @pytest.mark.parametrize("n,numpy_blocks", [(40, True), (95, True), (100, False)])
    def test_dense_neighbour_blocks(self, monkeypatch, n, numpy_blocks):
        # the neighbour blocks go to numpy by the work of their pass, not by nodes x entries,
        # and give what scipy gives, bit for bit
        net = build_topology(FullMesh(n, 0.9))
        engines = []
        distances = ng._distances

        def spy(graph, **kw):
            engines.append(isinstance(graph, tuple))
            return distances(graph, **kw)

        monkeypatch.setattr(ng, "_distances", spy)
        picked = bits(ng._neighbor_metrics(net, 0.5))
        assert engines and set(engines) == {numpy_blocks}
        monkeypatch.setattr(ng, "_NUMPY_ELEMENTS", 0)
        assert bits(ng._neighbor_metrics(net, 0.5)) == picked


class TestSparsityAndStrength:
    def test_full_mesh(self):
        net = build_topology(FullMesh(6, 0.9))
        assert link_sparsity(net, 0.5, NC) == pytest.approx(1 / 6)

    def test_square1024(self):
        net = build_topology(Square1024(0.9))
        assert net.n_nodes == 1024
        assert net.n_edges == 1984
        assert link_sparsity(net, 0.5, NC) == pytest.approx(1 - 3968 / 1024**2)

    @pytest.mark.parametrize(
        "kind,want",
        [(CellKind.SQUARE, 0.5), (CellKind.OCTAGONAL, 0.75), (CellKind.HEAVY_HEXAGONAL, 5 / 6)],
    )
    def test_unit_cells(self, kind, want):
        net = build_topology(ProcessorCell(kind, 0.9))
        assert link_sparsity(net, 0.5, NC) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_cell_strengths(self, p):
        for kind, denom in [(CellKind.SQUARE, 2), (CellKind.OCTAGONAL, 4), (CellKind.HEAVY_HEXAGONAL, 6)]:
            net = build_topology(ProcessorCell(kind, p))
            assert ng._all_strengths(net, NC, 0.1)[0] == pytest.approx(p / denom, abs=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_grid_strengths(self, p):
        net = build_topology(Square1024(p))
        strengths = ng._all_strengths(net, NC, 0.1)
        assert strengths[33] == pytest.approx(p / 256, abs=1e-12)
        assert strengths[1] == pytest.approx(3 * p / 1024, abs=1e-12)
        assert strengths[0] == pytest.approx(p / 512, abs=1e-12)

    def test_star_closed_form(self):
        net = build_topology(Star(8, 0.5))
        # the closed form counts the unit self term p_ii = 1
        got = ng._all_strengths(net, NC, 0.25)[0] + 1 / 8
        assert got == pytest.approx((1 + 7 * 0.5) / 8)

    def test_total_strength_uniform_mesh(self):
        net = build_topology(FullMesh(5, 0.6))
        per_node = ng._all_strengths(net, NC, 0.1)[0]
        assert total_connection_strength(net, NC, 0.1) == pytest.approx(5 * per_node)

    def test_empty_network_sparsity(self):
        for strategy in (NC, CO):
            with pytest.raises(ValueError, match="^empty network$"):
                link_sparsity(Network([], []), 0.5, strategy)

    def test_total_strength_empty(self):
        net = Network([1, 2, 3], [])
        assert total_connection_strength(net, NC, 0.5) == 0.0

    def test_circulant_closed_forms(self):
        # even degree: 1/N (1 + 2 p (p^{d/2} - 1)/(p - 1)), with the unit self term added
        for n, d, p in [(10, 4, 0.7), (12, 6, 0.5), (9, 2, 0.8)]:
            net = build_topology(Circulant(n, d, p))
            assert all(len(edgeviews.neighbors(net, v)) == d for v in net.nodes)
            want = (1 + 2 * p * (p ** (d // 2) - 1) / (p - 1)) / n
            got = ng._all_strengths(net, NC, 1e-9)[0] + 1 / n
            assert got == pytest.approx(want, abs=1e-12)
        # odd degree adds the antipodal edge
        for n, d, p in [(10, 3, 0.7), (12, 5, 0.6)]:
            net = build_topology(Circulant(n, d, p))
            assert all(len(edgeviews.neighbors(net, v)) == d for v in net.nodes)
            want = (1 + p) * (p ** ((d + 1) // 2) - 1) / (n * (p - 1))
            got = ng._all_strengths(net, NC, 1e-9)[0] + 1 / n
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("p_star", [0.5, 0.1])
    def test_cooperative_strength_reads_one_row(self, p_star):
        # the strengths sum f* a block of rows at a time, and a row sums to the same
        # float alone as in the whole matrix; on the p = 0.5 chain some path products
        # equal p* exactly
        chain = Network(range(12), [(i, i + 1, 0.5) for i in range(11)])
        for net in (build_topology(Square1024(0.9)), seeded_graph(8, 150), chain):
            dist, budget = ng._best_weights(net, p_star), ng._budget(p_star)
            full = ng._f_star(dist, budget)
            for rows in (slice(0, 64), slice(64, 128), slice(7, 8), slice(net.n_nodes - 3, None)):
                assert bits(ng._f_star(dist, budget, rows)) == bits(full[rows])
            assert bits(ng._all_strengths(net, CO, p_star)) == bits(full.sum(axis=1) / net.n_nodes)

    def test_cooperative_strengths_hold_a_row_block(self):
        # beside the pass, a block of f* rows (~1 MB here), not the 8 MB matrix
        dist = ng._best_weights(build_topology(Square1024(0.9)), 0.5)
        tracemalloc.start()
        try:
            ng._co_strengths(dist, ng._budget(0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

    @pytest.mark.parametrize("name, p_star, workers, block, rows, bound", [
        ("square1024", 0.5, 1, 264, 264, 16),
        ("airport", 0.1, 2, 64, 10, 10),
    ])
    def test_sweep_block_holds_its_slices(self, request, name, p_star, workers, block, rows, bound):
        # one centrality block in its production shape: Square1024's one
        # slice, and the airport's with 2 workers. Float gathers of a whole
        # slice, 16 bytes per source x entry, would take 17 and 8 MB alone
        if name == "airport":
            net = id_ordered(request.getfixturevalue("airport_network"))
        else:
            net = build_topology(Square1024(0.9))
        assert rows == ng._SWEEP_ELEMENTS // workers // len(net.w)
        budget = ng._budget(p_star)
        graph = ng._graph(net.tail, net.head, net.w, net.n_nodes, limit=budget)
        tracemalloc.start()
        try:
            ng._canonical_sweep(net, graph, budget, rows, np.arange(block))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound << 20, peak

    def test_coop_at_most_noncoop_sparsity(self):
        rng = random.Random(3)
        for _ in range(15):
            net = random_graph(rng)
            assert link_sparsity(net, 0.4, CO) <= link_sparsity(net, 0.4, NC) + 1e-12


class TestSparsityIndex:
    def test_uniform_is_one(self):
        net = build_topology(FullMesh(6, 0.9))
        assert sparsity_index(net, NC, 0.5) == pytest.approx(1.0)

    def test_point_mass(self):
        # 8 nodes, all strength on a single pair
        net = Network(list(range(8)), [(0, 1, 0.9)])
        z = ng._all_strengths(net, NC, 0.5)
        assert np.count_nonzero(z) == 2
        # analytic two-equal-holders value
        got = sparsity_index(net, NC, 0.5)
        y = np.concatenate([[0.0], np.cumsum(np.sort(z)) / z.sum()])
        want = np.trapezoid(y, dx=1 / 8) / 0.5
        assert got == pytest.approx(want)

    def test_point_mass_analytic(self):
        # a pure one-node point mass comes out at 1/N under this convention
        z = np.array([0.0] * 7 + [1.0])
        y = np.concatenate([[0.0], np.cumsum(z) / 1.0])
        assert np.trapezoid(y, dx=1 / 8) / 0.5 == pytest.approx(1 / 8)


class TestClusteringAndWeights:
    def test_triangle(self):
        net = build_topology(FullMesh(3, 0.9))
        assert ng._neighbor_metrics(net, 0.5)[0][0] == 1.0

    def test_partial_neighborhood(self):
        net = Network([0, 1, 2, 3], [(0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.9), (1, 2, 0.9)])
        assert ng._neighbor_metrics(net, 0.5)[0][0] == pytest.approx(1 / 3)

    def test_leaf(self):
        net = build_topology(Star(5, 0.9))
        assert ng._neighbor_metrics(net, 0.5)[0][1] == 0.0

    def test_threshold_filters_edges(self):
        net = Network([0, 1, 2, 3], [(0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.9), (1, 2, 0.4)])
        assert ng._neighbor_metrics(net, 0.5)[0][0] == 0.0
        assert ng._neighbor_metrics(net, 0.3)[0][0] == pytest.approx(1 / 3)

    def test_average_effective_weight_needs_two_nodes(self):
        with pytest.raises(ValueError, match="^need at least 2 nodes$"):
            average_effective_weight(Network([1], []), 0.5)

    def test_average_effective_weight(self):
        net = Network([1, 2], [(1, 2, 0.5)])
        assert average_effective_weight(net, 0.25) == 1.0
        chain = Network([2, 3, 4], [(2, 3, 0.5), (3, 4, 0.5)])
        assert average_effective_weight(chain, 1e-9) == pytest.approx(4 / 3)
        disc = Network([1, 2, 3], [(1, 2, 0.9)])
        assert average_effective_weight(disc, 0.5) == math.inf

    def test_average_effective_weight_semantics(self):
        net = build_topology(Square1024(0.9))
        # most pairs are far beyond the 1-bit budget of p* = 0.5; all count
        assert average_effective_weight(net, 0.5) == 3.2427326601610655
        path = Network([1, 2, 3, 4], [(1, 2, 0.9), (2, 3, 0.9), (3, 4, 0.4)])
        a, b = -math.log2(0.9), -math.log2(0.4)
        # pairs 1-2, 2-3, 1-3, 3-4, 2-4, 1-4; 1-4 (p = 0.324 < 0.35) still counts
        want = (a + a + 2 * a + b + (a + b) + (2 * a + b)) / 6
        assert average_effective_weight(path, 0.35) == pytest.approx(want, rel=1e-15)
        # dropping the 0.4 edge disconnects node 4
        assert average_effective_weight(path, 0.5) == math.inf


class TestCentrality:
    def test_path_graph(self):
        net = Network(["a", "b", "c"], [("a", "b", 0.9), ("b", "c", 0.9)])
        assert centrality_all(net, 0.5)["b"] == 1

    def test_star_hub(self):
        net = build_topology(Star(8, 0.9))
        assert centrality_all(net, 0.5)[0] == 21

    def test_square_diag_tie_break(self):
        net = square_plus_diagonal()
        # pair {2, 4} has two weight-2 paths; [2,1,4] < [2,3,4]
        assert centrality_all(net, 0.1)[1] == 1
        assert centrality_all(net, 0.1)[3] == 0


class TestCentralityOracle:
    """centrality_all against the pair-path enumeration, exactly."""

    def assert_matches(self, net, p_stars=(0.5, 0.1, 0.01)):
        for p_star in p_stars:
            assert centrality_all(net, p_star) == centrality_oracle(net, p_star)

    def test_grid_string_labels(self):
        net = strings(build_topology(Grid(7, 5, 0.9)))
        assert "10" < "9" and {"10", "9"} <= set(net.nodes)
        self.assert_matches(net)

    def test_square1024_string_labels(self):
        net = strings(build_topology(Square1024(0.9)))
        self.assert_matches(net, (0.5,))

    @pytest.mark.parametrize(
        "spec",
        [Star(9, 0.8), FullMesh(8, 0.6), Circulant(12, 3, 0.9), Circulant(13, 4, 0.8),
         Circulant(16, 5, 0.7), Circulant(10, 2, 0.5)],
        ids=repr,
    )
    def test_reference_topologies(self, spec):
        net = build_topology(spec)
        self.assert_matches(net)
        self.assert_matches(strings(net))

    def test_circulant_exercises_fallback(self):
        net = build_topology(Circulant(16, 5, 0.7))
        _, exact = canonical_sweep(net, 0.01, np.arange(net.n_nodes - 1))
        assert not exact.all()

    def test_uniform_p_random_graphs(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(3, 14)
            edges = [(i, j, 0.7) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
            net = Network(range(n), edges)
            self.assert_matches(net)
            self.assert_matches(strings(net), (0.1,))

    def test_power_of_two_weights(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.randint(3, 14)
            edges = [
                (i, j, rng.choice([0.5, 0.25, 0.125]))
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
            ]
            self.assert_matches(Network(range(n), edges), (0.25, 0.0625, 0.01))

    def test_random_weights(self):
        rng = random.Random(17)
        for _ in range(25):
            self.assert_matches(random_graph(rng, p_edge=0.45), (0.25, 0.01))

    def test_p_one_edges(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(3, 12)
            edges = [
                (i, j, rng.choice([1.0, 0.5, 0.9]))
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
            ]
            self.assert_matches(Network(range(n), edges), (0.5, 0.1))
        net = Network(range(4), [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (0, 3, 0.5)])
        _, exact = canonical_sweep(net, 0.25, np.arange(3))
        assert not exact.any()
        self.assert_matches(net, (0.25,))

    def test_mixed_hop_depths(self):
        # 0-2 direct weighs 2 bits, as does 0-1-2; (0, 1, 2) sorts first
        net = Network(range(3), [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.25)])
        assert centrality_all(net, 0.1) == {0: 0, 1: 1, 2: 0}
        _, exact = canonical_sweep(net, 0.1, np.arange(2))
        assert list(exact) == [False, True]
        flipped = edgeviews.relabeled(net, {0: 0, 1: 2, 2: 1})
        assert centrality_all(flipped, 0.1) == {0: 0, 1: 0, 2: 0}

    def test_weight_equal_to_budget_counts(self):
        # 0-2 weighs 2 bits, exactly the budget of p* = 0.25; 0-3 is over it
        net = Network(range(4), [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        assert centrality_all(net, 0.25) == {0: 0, 1: 1, 2: 1, 3: 0}
        self.assert_matches(net, (0.25,))

    def test_disconnected(self):
        net = Network(range(9), [(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9), (2, 3, 0.9),
                                 (4, 5, 0.8), (5, 6, 0.8), (6, 7, 0.8)])
        self.assert_matches(net)
        self.assert_matches(strings(net))

    def test_airport_sampled_sources(self, airport_network):
        net, p_star = airport_network, 0.1
        g = id_ordered(net)
        sample = sorted(random.Random(11).sample(range(net.n_nodes - 1), 40))
        total = np.zeros(net.n_nodes, np.int64)
        for s in sample:
            counts, exact = canonical_sweep(g, p_star, [s])
            want = source_counts_oracle(net, g, s, p_star)
            assert exact[0]
            assert np.array_equal(counts, want)
            total += want
        counts, exact = canonical_sweep(g, p_star, sample)
        assert exact.all()
        assert np.array_equal(counts, total)

    def test_airport_every_node(self, airport_network):
        # sha256 of the "id,tau" lines of all 3463 airports, in node order
        tau = centrality_all(airport_network, 0.1)
        text = "".join(f"{v},{tau[v]}\n" for v in airport_network.nodes)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "42abba5f4af1145f7dc6071629b822e555f79d1ab02c2682bfafcdeb10fb7762")


class TestLexDijkstraLimit:
    """_lex_dijkstra stopped at a limit equals the unbounded search restricted to d <= limit."""

    def assert_restricts(self, net, sources):
        for source in sources:
            full = ng._lex_dijkstra(net, source)
            for d in sorted({d for d, _ in full.values()}):
                # a limit equal to a path's weight keeps it; one float below drops it
                for limit in (d, math.nextafter(d, -math.inf)) if d > 0 else (d,):
                    want = {t: hit for t, hit in full.items() if hit[0] <= limit}
                    assert ng._lex_dijkstra(net, source, limit) == want

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [0.7, 0.9])
    def test_circulants(self, d, p):
        self.assert_restricts(build_topology(Circulant(24, d, p)), (0, 11))

    def test_random_p_with_p_one_edges(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(3, 12)
            edges = [
                (i, j, rng.choice([1.0, rng.uniform(0.3, 1.0)]))
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
            ]
            self.assert_restricts(Network(range(n), edges), range(n))
        self.assert_restricts(seeded_graph(), (0, 17, 59))

    def test_fallback_stops_at_the_budget(self, monkeypatch):
        # at p* = 0.01 every source of this circulant falls back, and reaches ~44 of its 256 nodes
        net, p_star = build_topology(Circulant(256, 5, 0.7)), 0.01
        budget, lex_dijkstra, reached = -math.log2(p_star), ng._lex_dijkstra, []

        def spy(*args):
            reached.append(lex_dijkstra(*args))
            return reached[-1]

        monkeypatch.setattr(ng, "_lex_dijkstra", spy)
        centrality_all(net, p_star)
        assert len(reached) == net.n_nodes - 1
        assert max(d for hits in reached for d, _ in hits.values()) <= budget
        assert max(map(len, reached)) < net.n_nodes

    def test_reads_rows_in_place(self, monkeypatch):
        # every source of this circulant falls back at p* = 0.01; no search may copy the whole CSR
        net, p_star = build_topology(Circulant(256, 5, 0.7)), 0.01
        budget = -math.log2(p_star)
        want = centrality_all(net, p_star), [ng._lex_dijkstra(net, s, budget) for s in net.nodes]
        edges = len(net.head)

        class RowsOnly(np.ndarray):
            def tolist(self):
                assert self.size < edges, "an edge-sized copy of the CSR"
                return super().tolist()

        for name in ("head", "w"):
            monkeypatch.setattr(net, name, getattr(net, name).view(RowsOnly))
        assert (centrality_all(net, p_star), [ng._lex_dijkstra(net, s, budget) for s in net.nodes]) == want


def force_pool(monkeypatch, workers, elements=1 << 8):
    """Make centrality_all fork workers over blocks of a few sources, whatever its size."""
    monkeypatch.setattr(ng, "_FORK_ELEMENTS", 0)
    monkeypatch.setattr(ng, "_SWEEP_ELEMENTS", elements)
    monkeypatch.setattr(ng, "_workers", lambda: workers)


def count_contexts(monkeypatch):
    """Record each multiprocessing context centrality_all asks for."""
    asked = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        asked.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return asked


class TestParallelSweep:
    """centrality_all in forked workers against the in-process sweep, exactly."""

    def cases(self):
        rng = random.Random(7)
        p_one = [
            Network(range(n), [
                (i, j, rng.choice([1.0, 0.5, 0.9]))
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
            ])
            for n in (9, 12, 12)
        ]
        p_one.append(Network(range(4), [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (0, 3, 0.5)]))
        mixed = Network(range(3), [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.25)])
        disconnected = Network(range(9), [(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9), (2, 3, 0.9),
                                          (4, 5, 0.8), (5, 6, 0.8), (6, 7, 0.8)])
        circulant = build_topology(Circulant(16, 5, 0.7))
        nets = [circulant, strings(circulant), *p_one, mixed, disconnected, strings(disconnected),
                strings(build_topology(Grid(7, 5, 0.9))), seeded_graph()]
        return [(net, p_star) for net in nets for p_star in (0.25, 0.01)]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_matches_in_process(self, monkeypatch, workers):
        cases = self.cases()
        want = [centrality_all(net, p_star) for net, p_star in cases]
        # the circulant at p* = 0.01 leaves sources to the fallback
        net, p_star = cases[1]
        assert not canonical_sweep(id_ordered(net), p_star, np.arange(15))[1].all()
        force_pool(monkeypatch, workers)
        asked = count_contexts(monkeypatch)
        assert [centrality_all(net, p_star) for net, p_star in cases] == want
        assert asked == ["fork"] * len(cases)

    def test_parent_keeps_no_pooled_sweep(self):
        # the workers adopt the sweep, a lambda no pickle could carry, when the
        # pool starts them; the parent's module global stays None between blocks
        blocks = [np.arange(lo, lo + 3) for lo in range(0, 12, 3)]
        seen = [(counts.tolist(), ng._POOLED_SWEEP) for counts in ng._sweeps(lambda s: s * 2, blocks, 2)]
        assert sorted(seen) == [((b * 2).tolist(), None) for b in blocks]

    def test_worker_error_clears_the_pooled_sweep(self, monkeypatch):
        # a block that raises in a worker raises here, and the sweep, with its
        # id-ordered network and graph, never reaches the parent's module global
        def fail(*args):
            raise ValueError("sweep failed")

        force_pool(monkeypatch, 2)
        monkeypatch.setattr(ng, "_canonical_sweep", fail)
        with pytest.raises(ValueError, match="^sweep failed$"):
            centrality_all(build_topology(Grid(6, 6, 0.9)), 0.1)
        assert ng._POOLED_SWEEP is None

    def test_fallback_runs_in_the_workers(self, monkeypatch):
        net, p_star = build_topology(Circulant(16, 5, 0.7)), 0.01
        want = centrality_all(net, p_star)
        parent, lex_dijkstra = os.getpid(), ng._lex_dijkstra

        def spy(*args):
            if os.getpid() == parent:
                raise AssertionError("a fallback source ran in the parent")
            return lex_dijkstra(*args)

        force_pool(monkeypatch, 2)
        monkeypatch.setattr(ng, "_lex_dijkstra", spy)
        assert centrality_all(net, p_star) == want

    @pytest.mark.parametrize("extra", list(test_cli.TestCriticalNodesGolden.DIGESTS),
                             ids=lambda e: " ".join(e) or "default")
    def test_square1024_golden_digests(self, capsys, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["topology", "--kind", "square1024", "--p", "0.9", "--edges-out", "sq.edges"]) == 0
        force_pool(monkeypatch, 2, elements=1 << 16)
        asked = count_contexts(monkeypatch)
        capsys.readouterr()
        assert cli_main(["critical-nodes", "--in", "sq.edges", *extra]) == 0
        out = capsys.readouterr().out
        assert asked == ["fork"]
        assert hashlib.sha256(out.encode()).hexdigest() == test_cli.TestCriticalNodesGolden.DIGESTS[extra]

    def test_below_gate_starts_no_process(self, monkeypatch):
        def refuse(method=None):
            raise AssertionError("a sweep below the gate asked for a process")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        net = build_topology(Square1024(0.9))
        assert (net.n_nodes - 1) * len(net.w) < ng._FORK_ELEMENTS
        monkeypatch.setattr(ng, "_workers", lambda: 4)
        want = centrality_all(net, 0.5)
        assert sum(want.values()) > 0
        # one usable core runs in process whatever the size
        force_pool(monkeypatch, 1)
        assert centrality_all(net, 0.5) == want

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert ng._workers() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
        assert ng._workers() == 4
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ng._workers() == 1

    def test_buffered_stdout_written_once(self):
        script = (
            "import sys\n"
            "from qnetlim import netgraph as ng, topology\n"
            "ng._FORK_ELEMENTS, ng._SWEEP_ELEMENTS, ng._workers = 0, 1 << 8, lambda: 2\n"
            "sys.stdout.write('before\\n')\n"
            "tau = ng.centrality_all(ng.build_topology(topology.Grid(6, 6, 0.9)), 0.1)\n"
            "print('after', sum(tau.values()))\n"
        )
        src = os.path.dirname(os.path.dirname(ng.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        want = sum(centrality_all(build_topology(Grid(6, 6, 0.9)), 0.1).values())
        assert proc.stdout == f"before\nafter {want}\n"


class TestNeighborMetrics:
    """Batched clustering and subgraph weights against their per-node oracles."""

    def assert_matches(self, net, p_star):
        clustering, w_avg = ng._neighbor_metrics(net, p_star)
        for i, v in enumerate(net.nodes):
            assert clustering[i] == clustering_oracle(net, v, p_star)
            sub = neighbor_subgraph_oracle(net, v)
            if sub.n_nodes < 2:
                assert math.isnan(w_avg[i])
            else:
                # bit for bit, not approximately
                assert w_avg[i] == average_effective_weight(sub, p_star)

    def test_airport_every_node(self, airport_network):
        self.assert_matches(airport_network, 0.1)

    def test_random_graphs(self):
        rng = random.Random(8)
        for _ in range(30):
            net = random_graph(rng, n_max=12, p_edge=0.5)
            for p_star in (0.5, 0.3, 0.01):
                self.assert_matches(net, p_star)

    def test_p_one_edges(self):
        net = Network(range(4), [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 0.5), (2, 3, 0.5)])
        for p_star in (0.6, 0.25):
            self.assert_matches(net, p_star)

    @pytest.mark.parametrize("p_star", TestThresholdRule.TIED)
    def test_tied_edges(self, p_star):
        # a-b of p just below p* weighs exactly the budget, so it closes the triangle
        edges = TestThresholdRule.tied_edges(p_star)
        for net in (Network("abc", edges), Network("abc", edges + [("a", "c", 1.0)])):
            self.assert_matches(net, p_star)

    @pytest.mark.parametrize("rim", [0.9, 0.4])
    def test_wheel_hub(self, rim):
        # the hub's 600 neighbours are a ring, usable at p* = 0.5 or not: their
        # 179700 wedges come in chunks, and a ring of unusable edges reads inf
        k = 600
        net = Network(range(k + 1), [(0, v, 0.9) for v in range(1, k + 1)]
                      + [(v, v % k + 1, rim) for v in range(1, k + 1)])
        assert k > ng._SUBGRAPH_BLOCK and k * (k - 1) // 2 > ng._WEDGES
        self.assert_matches(net, 0.5)
        assert math.isinf(ng._neighbor_metrics(net, 0.5)[1][0]) == (rim < 0.5)

    def test_star_hub_memory(self):
        # Star(1500)'s hub holds 1123251 wedges, none closed; its neighbour
        # subgraph has no edge, so it reads inf without an all-pairs pass
        net = build_topology(Star(1500, 0.9))
        tracemalloc.start()
        try:
            clustering, w_avg = ng._neighbor_metrics(net, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak
        assert clustering.tolist() == [0.0] * 1500
        assert w_avg[0] == math.inf and np.isnan(w_avg[1:]).all()


class TestCriticalParameters:
    def test_worked_example(self):
        reports = critical_parameters(square_plus_diagonal(), 0.1)
        by_node = {r.node: r for r in reports}
        assert by_node[1].critical_parameter == pytest.approx(1.125, abs=1e-9)
        assert reports[0].node == 1

    def test_perfect_neighbors_undefined(self):
        net = Network([0, 1, 2], [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        reports = {r.node: r for r in critical_parameters(net, 0.5)}
        assert reports[0].critical_parameter == Undefined()

    def test_leaf_undefined(self):
        net = build_topology(Star(4, 0.9))
        reports = {r.node: r for r in critical_parameters(net, 0.5)}
        assert reports[1].critical_parameter == Undefined()

    def test_relabeling_invariance(self):
        # a graph with distinct edge weights, so no tie-break ambiguity
        net = Network(
            [1, 2, 3, 4],
            [(1, 2, 0.51), (2, 3, 0.52), (3, 4, 0.53), (4, 1, 0.54), (1, 3, 0.55)],
        )
        base = {r.node: r for r in critical_parameters(net, 0.01)}
        rng = random.Random(9)
        for _ in range(20):
            perm = [1, 2, 3, 4]
            rng.shuffle(perm)
            mapping = dict(zip([1, 2, 3, 4], perm))
            relabeled = edgeviews.relabeled(net, mapping)
            got = {r.node: r for r in critical_parameters(relabeled, 0.01)}
            for v, rep in base.items():
                other = got[mapping[v]]
                assert other.clustering == pytest.approx(rep.clustering)
                assert other.strength == pytest.approx(rep.strength)
                assert other.centrality == rep.centrality
                if isinstance(rep.critical_parameter, Undefined):
                    assert isinstance(other.critical_parameter, Undefined)
                else:
                    assert other.critical_parameter == pytest.approx(rep.critical_parameter)

    def test_tie_break_depends_on_labels(self):
        # equal-weight paths are broken lexicographically, so relabeling a
        # tied graph can shift centrality between the tied interior nodes
        net = square_plus_diagonal()
        base = centrality_all(net, 0.1)
        assert (base[1], base[3]) == (1, 0)
        swapped = edgeviews.relabeled(net, {1: 3, 2: 2, 3: 1, 4: 4})
        got = centrality_all(swapped, 0.1)
        assert (got[3], got[1]) == (0, 1)

    def test_metric_relabeling_invariance(self):
        rng = random.Random(23)
        for _ in range(8):
            net = random_graph(rng)
            perm = list(net.nodes)
            rng.shuffle(perm)
            mapping = dict(zip(net.nodes, perm))
            other = edgeviews.relabeled(net, mapping)
            assert link_sparsity(net, 0.4, CO) == pytest.approx(link_sparsity(other, 0.4, CO))
            assert total_connection_strength(net, NC, 0.4) == pytest.approx(
                total_connection_strength(other, NC, 0.4)
            )
            assert sparsity_index(net, NC, 0.4) == pytest.approx(sparsity_index(other, NC, 0.4))


class TestTopologies:
    def test_star(self):
        net = build_topology(Star(8, 0.5))
        assert net.n_edges == 7
        assert len(edgeviews.neighbors(net, 0)) == 7

    def test_unknown_spec(self):
        with pytest.raises(TypeError, match="^unknown topology spec 'ring'$"):
            topology.topology_edges("ring")

    def test_cell_square(self):
        net = build_topology(ProcessorCell(CellKind.SQUARE, 0.9))
        assert (net.n_nodes, net.n_edges) == (4, 4)

    def test_circulant_validation(self):
        with pytest.raises(ValueError):
            build_topology(Circulant(9, 3, 0.5))  # odd degree, odd node count

    def test_specs_live_in_topology_alone(self):
        names = ("CellKind", "Circulant", "FullMesh", "Grid", "ProcessorCell", "Square1024", "Star")
        assert all(hasattr(topology, name) for name in names)
        assert not any(hasattr(ng, name) for name in names)


class TestPercolation:
    def test_critically_large(self):
        grid = build_topology(Grid(10, 10, 0.9))
        res = critically_large_check(grid, 0.5, 0.9)
        assert res.n0 == 7
        assert res.required_distance == 8
        assert res.is_critically_large
        assert res.witness_pair is not None

    def test_low_c(self):
        tri = build_topology(FullMesh(3, 0.4))
        res = critically_large_check(tri, 0.5, 0.45)
        assert res.n0 == 1
        assert not res.is_critically_large

    def test_n0_probe(self):
        # two hops of p = c weigh more than -log2 c**2, although c * c == c**2
        c = 0.9219849457519236
        chain = Network(range(3), [(0, 1, c), (1, 2, c)])
        assert shortest_path(chain, 0, 2, c**2).status is PathStatus.DISCONNECTED
        assert critically_large_check(chain, c**2, c).n0 == 2

    def test_n0_follows_the_weight_rule(self):
        # a chain of n0 - 1 edges of p = c is within p*, one of n0 edges is not
        rng = random.Random(26)
        for _ in range(200):
            c = rng.uniform(0.3, 0.95)
            p_star = rng.choice([rng.uniform(1e-3, 0.99), c ** rng.randint(1, 6)])
            n0 = critically_large_check(Network([0, 1], [(0, 1, c)]), p_star, c).n0
            for hops, status in ((n0 - 1, PathStatus.FOUND), (n0, PathStatus.DISCONNECTED)):
                chain = Network(range(hops + 1), [(i, i + 1, c) for i in range(hops)])
                assert shortest_path(chain, 0, hops, p_star).status is status, (c, p_star, n0)

    @pytest.mark.parametrize("p_star", [0.25, 0.125])
    def test_required_distance_at_an_exact_power(self, p_star):
        # 0.5 ** 2 and 0.5 ** 3 are exact, so log p* / log c is a whole number
        res = critically_large_check(Network([0, 1], [(0, 1, 0.5)]), p_star, 0.5)
        assert res.required_distance == res.n0 + 1

    def test_required_distance_follows_n0(self):
        # p* = c**k, exact or rounded: a chain of n0 hops is not critically
        # large, one of n0 + 1 hops is, with its ends as the witness
        rng = random.Random(27)
        for _ in range(200):
            c = rng.uniform(0.3, 0.95)
            p_star = c ** rng.randint(1, 6)
            res = critically_large_check(Network([0, 1], [(0, 1, c)]), p_star, c)
            assert res.required_distance == res.n0 + 1, (c, p_star)
            for hops in (res.n0, res.n0 + 1):
                chain = Network(range(hops + 1), [(i, i + 1, c) for i in range(hops)])
                far = critically_large_check(chain, p_star, c)
                assert far.witness_pair == ((0, hops) if hops > res.n0 else None), (c, p_star)
                assert far.is_critically_large == (hops > res.n0)

    def test_validation(self):
        net = build_topology(FullMesh(3, 0.95))
        with pytest.raises(ValueError):
            critically_large_check(net, 0.5, 0.9)

    @staticmethod
    def unbounded_check(net, p_star, c):
        """critically_large_check's result from a hop pass with no bound: scipy's breadth-first search."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        n0 = hops_over_oracle(-math.log2(c), -math.log2(p_star))
        graph = csr_matrix((np.ones(len(net.head)), net.head, net.ptr), shape=(net.n_nodes,) * 2)
        far = np.argwhere(np.triu(shortest_path(graph, unweighted=True) > n0, 1))
        witness = (net.nodes[far[0, 0]], net.nodes[far[0, 1]]) if len(far) else None
        return ng.CriticalSizeResult(witness is not None, n0, n0 + 1, witness)

    @pytest.mark.parametrize("engine", ["numpy", "scipy"])
    def test_bounded_hop_pass_matches_unbounded(self, monkeypatch, engine):
        # the hop pass stops at n0 hops; the verdict, n0 and witness are those of a pass with no bound
        if engine == "scipy":
            monkeypatch.setattr(ng, "_NUMPY_ELEMENTS", 0)
        rng = random.Random(29)
        randoms = [random_graph(rng, 12, rng.choice([0.15, 0.3, 0.6])) for _ in range(12)]
        nets = [build_topology(Square1024(0.9)), build_topology(Grid(10, 10, 0.9)),
                build_topology(Grid(1, 40, 0.8)), build_topology(Star(12, 0.9)),
                build_topology(FullMesh(8, 0.9)), build_topology(Circulant(30, 2, 0.9)),
                build_topology(Circulant(24, 5, 0.7)),
                # two components and an isolated node
                Network(range(7), [(0, 1, 0.9), (1, 2, 0.9), (3, 4, 0.9), (4, 5, 0.9)]),
                *(net for net in randoms if net.n_edges and net.p.max() < 1.0)]
        assert sum(not self.unbounded_check(net, 0.5, 0.99).is_critically_large for net in nets) >= 3
        checked = 0
        for net in nets:
            c = max(0.5, float(net.p.max()))
            for p_star in (0.5, 0.1, c**3, 1e-3):
                assert critically_large_check(net, p_star, c) == self.unbounded_check(net, p_star, c), (
                    edgeviews.edges(net), p_star)
                checked += 1
        assert checked > 60

    @pytest.mark.parametrize("engine", ["numpy", "scipy"])
    def test_bounded_hop_pass_keeps_a_pair_exactly_n0_hops_apart(self, monkeypatch, engine):
        if engine == "scipy":
            monkeypatch.setattr(ng, "_NUMPY_ELEMENTS", 0)
        for c, p_star in ((0.9, 0.5), (0.8, 0.8**4), (0.5, 0.25), (0.7, 0.01)):
            n0 = hops_over_oracle(-math.log2(c), -math.log2(p_star))
            for hops in (n0, n0 + 1):
                chain = Network(range(hops + 1), [(i, i + 1, c) for i in range(hops)])
                res = critically_large_check(chain, p_star, c)
                assert res == self.unbounded_check(chain, p_star, c)
                assert res.witness_pair == ((0, hops) if hops > n0 else None), (c, p_star, hops)

    def test_airport_check_loads_no_scipy(self):
        # at p* = 0.1 and c = the largest route p, n0 = 39 bounds the hop pass's rounds
        # far below the snapshot's 3463 nodes, which keeps it on numpy
        code = (
            "import sys\n"
            "from qnetlim import netgraph, scenario\n"
            "ds = scenario.load_airport_dataset(sys.argv[1], sys.argv[2])\n"
            "net = scenario.load_airport_network(ds)\n"
            "res = netgraph.critically_large_check(net, 0.1, float(net.p.max()))\n"
            "print(res.is_critically_large, res.n0, 'scipy' in sys.modules)\n"
        )
        data = os.path.join(os.path.dirname(__file__), "..", "data", "airport_snapshot")
        proc = subprocess.run(
            [sys.executable, "-c", code, os.path.join(data, "airports.csv"), os.path.join(data, "routes.csv")],
            env=test_cli.src_env(), capture_output=True, text=True, check=True,
        )
        assert proc.stdout.split() == ["False", "39", "False"]

    def test_airport_check_holds_a_block_of_rows(self, airport_network):
        # the snapshot's 3463 x 3463 hop matrix alone would take 91.5 MiB
        net = airport_network
        tracemalloc.start()
        try:
            res = critically_large_check(net, 0.1, float(net.p.max()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, peak
        assert (res.is_critically_large, res.n0) == (False, 39)

    def test_witness_in_a_later_block(self):
        # a 64-node clique listed first fills the first block of sources; the
        # only pair more than n0 = 2 hops apart is the two pendants 64 and 65
        clique = [(i, j, 0.5) for i in range(64) for j in range(i + 1, 64)]
        net = Network(range(66), clique + [(0, 64, 0.5), (1, 65, 0.5)])
        res = critically_large_check(net, 0.3, 0.5)
        assert res == ng.CriticalSizeResult(True, 2, 3, (64, 65))
        assert res == self.unbounded_check(net, 0.3, 0.5)

    def n0_cases(self):
        """(step, budget) pairs whose n0 is at most 1e6."""
        rng = random.Random(28)
        for _ in range(300):
            c = rng.uniform(0.01, 0.999)
            yield -math.log2(c), -math.log2(rng.choice([rng.uniform(1e-6, 0.99), c ** rng.randint(1, 9)]))
        # steps exactly on a half-ulp tie of the budget's binade or one below it
        for _ in range(300):
            budget = rng.uniform(0.01, 40)
            ulp = math.ldexp(1.0, math.frexp(budget)[1] - rng.randint(0, 3) - 53)
            yield (int(budget / rng.uniform(10, 1e5) / ulp) + 0.5) * ulp, budget
        # exact steps and budgets, and the budget at a multiple of the step
        for step in (1.0, 0.5, 0.25, 3.0):
            yield from ((step, budget) for budget in (0.25, 1.0, 2.0, 7.0, 64.0))
        yield -math.log2(0.999999), 1.0
        yield -math.log2(0.5 ** 2e-6), 1.0

    def test_n0_against_hop_by_hop(self):
        checked = 0
        for step, budget in self.n0_cases():
            want = hops_over_oracle(step, budget)
            assert want <= 10**6
            assert ng._hops_over(step, budget) == want, (step.hex(), budget)
            checked += 1
        assert checked > 600

    def test_n0_of_many_hops_returns_at_once(self):
        # about 7e8 hops; the value is a sequential numpy cumsum's, hop by hop
        start = time.perf_counter()
        net = Network([0, 1], [(0, 1, 0.5)])
        assert critically_large_check(net, 0.5, 1 - 1e-9).n0 == 693147208
        # the weight sticks at 2.0: every further hop adds less than half an ulp
        with pytest.raises(ValueError, match="unchanged"):
            critically_large_check(net, 0.25, 1 - 2**-53)
        assert time.perf_counter() - start < 1.0

    def test_chain_reachability(self):
        chain = Network(list(range(100)), [(i, i + 1, 0.8) for i in range(99)])
        rep = task_reachability(chain, 0.5)
        assert rep.counts[50] == 7
        assert rep.max_fraction == pytest.approx(0.07)

    def test_everything_reachable(self):
        net = build_topology(FullMesh(5, 0.9))
        assert task_reachability(net, 0.5).max_fraction == 1.0

    @pytest.mark.parametrize("p_star", [0.5, 0.1])
    def test_reachability_counts_row_by_row(self, p_star):
        # on the p = 0.5 chain some path products equal p* exactly
        chain = Network(range(12), [(i, i + 1, 0.5) for i in range(11)])
        for net in (build_topology(Square1024(0.9)), seeded_graph(), chain):
            within = ng._best_weights(net, p_star) <= -math.log2(p_star)
            want = {v: int(np.count_nonzero(within[i])) for i, v in enumerate(net.nodes)}
            assert task_reachability(net, p_star).counts == want

    def test_grid_fraction_decreases(self):
        fracs = [
            task_reachability(build_topology(Grid(n, n, 0.9)), 0.5).max_fraction
            for n in (10, 20, 40)
        ]
        assert fracs[0] > fracs[1] > fracs[2]


class TestEvolve:
    def test_matches_dict_oracle(self):
        rng = random.Random(42)
        cases = [(random_graph(rng, n_max=12), 0.9, 0.25, 0.35, 8) for _ in range(10)]
        cases += [
            # p = 1 edges among full-precision ones, closing over several steps
            (seeded_graph(), 0.95, 0.1, 0.1, 12),
            (strings(seeded_graph(seed=3, n=40)), 1.0, 0.05, 0.2, 10),
            # 0.5 decays onto p* = 0.25, the budget, and stays a step; its neighbour of p = 1 closes a step later
            (Network([0, 1, 2], [(0, 1, 0.5), (1, 2, 1.0)]), 0.5, 0.0, 0.25, 5),
            # p underflows to 0
            (Network([0, 1], [(0, 1, 0.5)]), 0.5, 1000.0, 0.25, 3),
        ]
        for net, w, k, p_star, steps in cases:
            got, want = evolve(net, w, k, p_star, steps), evolve_oracle(net, w, k, p_star, steps)
            assert len(got) == len(want) == steps
            for (g, sparsity), h in zip(got, want):
                hexes = [[(key, p.hex()) for key, p in edgeviews.edges(x).items()] for x in (g, h)]
                assert hexes[0] == hexes[1]
                assert_same_network(g, h)
                assert sparsity == link_sparsity(h, p_star, CO)
        counts = [g.n_edges for g, _ in evolve(seeded_graph(), 0.95, 0.1, 0.1, 12)]
        assert len(set(counts)) > 3
        assert [g.n_edges for g, _ in evolve(cases[-2][0], 0.5, 0.0, 0.25, 5)] == [2, 2, 1, 0, 0]

    def test_single_step_value(self):
        net = Network([1, 2], [(1, 2, 0.8)])
        seq = evolve(net, 0.9, 0.3, 0.1, 2)
        assert edgeviews.edge_p(seq[1][0], 1, 2) == pytest.approx(0.9 * math.exp(-0.3) * 0.8, abs=1e-12)
        assert edgeviews.edge_p(seq[1][0], 1, 2) == pytest.approx(0.533389, abs=1e-6)

    def test_strict_decrease_and_closure(self):
        net = build_topology(FullMesh(4, 0.9))
        seq = evolve(net, 0.95, 0.2, 0.3, 12)
        for (g1, _), (g2, _) in zip(seq, seq[1:]):
            e1, e2 = edgeviews.edges(g1), edgeviews.edges(g2)
            for key, p in e2.items():
                assert p < e1[key]
            # closed edges never reopen
            assert set(e2) <= set(e1)

    def test_edge_landing_on_the_budget_stays(self):
        # at t = 2, p = 0.5 * 0.5 is exactly p* = 0.25: it weighs 2 bits, the
        # budget, so the edge stays as _strong would keep it; at t = 3 it weighs 3
        seq = evolve(Network([0, 1], [(0, 1, 0.5)]), 0.5, 0.0, 0.25, 3)
        assert edgeviews.edges(seq[1][0]) == {(0, 1): 0.25}
        assert ng._strong(seq[1][0], 0.25).all()
        assert seq[2][0].n_edges == 0
        # a decay that underflows p to 0 closes the edge
        assert evolve(Network([0, 1], [(0, 1, 0.5)]), 0.5, 1000.0, 0.25, 2)[1][0].n_edges == 0

    def test_sparsity_nondecreasing(self):
        rng = random.Random(31)
        for _ in range(10):
            net = random_graph(rng)
            seq = evolve(net, 0.9, 0.25, 0.35, 15)
            ups = [u for _, u in seq]
            assert all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))


class TestIO:
    def test_roundtrip(self, tmp_path):
        net = Network(["x", "y", "z"], [("x", "y", 0.5), ("y", "z", 0.7125)])
        path = tmp_path / "g.edges"
        topology.write_edge_list(edgeviews.edges(net), path)
        back = load_edge_list(path)
        assert edgeviews.edges(back) == edgeviews.edges(net)

    def test_utf8_ids(self, tmp_path):
        net = Network(["Zürich", "Genève"], [("Zürich", "Genève", 0.5)])
        path = tmp_path / "g.edges"
        topology.write_edge_list(edgeviews.edges(net), path)
        assert path.read_bytes().decode("utf-8").endswith("Genève,Zürich,0.5\n")
        assert edgeviews.edges(load_edge_list(path)) == edgeviews.edges(net)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a comment\na,b,0.5\n\nb,c,0.25\n")
        net = load_edge_list(path)
        assert net.n_edges == 2
