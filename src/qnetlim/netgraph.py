"""Weighted undirected networks and robustness metrics.

Edges carry a success probability p in (0, 1]. All weights are in bits,
w = -log2 p, and a path weighs the sum of its edge weights. One rule,
with no epsilon, decides what p_star admits: an edge is usable when its
w <= -log2 p_star, and a pair of nodes is task-connected when its best
path weighs d <= -log2 p_star. Every metric reads it through _budget, and
every edge test is the mask _strong or, in evolve, its rule. A usable
edge is a path within budget, so it always counts cooperatively too.
Neither p nor 2**(-d) is compared with p_star: an edge of p just below
p_star can weigh exactly -log2 p_star, and 2**(-d) is a path's
probability only up to rounding (for p = 0.07 it gives
0.06999999999999999).

Every multi-source shortest-path pass comes from _distances, over a graph
that _graph builds from edge arrays and whose engine it picks from them.
The numpy pass runs a bit-parallel breadth-first pass over the edges of
the most common weight, each path of k such hops weighing the same float,
then repairs from the other edges, by relaxation, to exactly the floats
Dijkstra gives. A graph gets it when its work, which grows with the other
edges, is within _NUMPY_ELEMENTS: equal weights, the airport snapshot and
lattices with a few odd edges. Only other graphs, such as those of random
p, import scipy, whose ~0.4 s import is most of a small network's run.
The pass reads each CSR row as the node's in-edges, which holds because
every caller passes both directions of each edge. build_topology wraps
a reference topology of the numpy-free topology module in a Network, which
holds each edge once, as arrays.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import EVOLVE_K, EVOLVE_W, P_STAR, Range, Sentinel
from .topology import NodeId, TopologySpec, edge_table, topology_edges


def _budget(p_star: float) -> float:
    """-log2 p_star, the most a path may weigh to connect a pair at p_star."""
    P_STAR.check("p_star", p_star)
    return -math.log2(p_star)


def _strong(net: Network, p_star: float) -> np.ndarray:
    """Per CSR entry of net, whether the edge is usable at p_star: w <= -log2 p_star."""
    return net.w <= _budget(p_star)


# the most work, per lane word of 64 sources, that _distances' numpy pass
# may do on a graph: any graph within it is settled in numpy, any other in
# scipy (see _graph). Each round of its breadth-first pass ORs a word per
# entry of the modal weight, and its repair may relax every other entry once
# for each of the 64 sources, so the work is (modal entries + 64 x other
# entries) x rounds, the rounds at most reach and at most what a limit
# allows. Its state holds a word per node, so nodes count as well. An
# equal-weight graph needs no repair, and its unbounded passes keep the
# bound reach x entries: at most 1447 rounds, on the 1448-node path.
# Square1024 (1024 x 3968) is below it, and so is the airport snapshot
# (624 of its 50964 entries off the modal weight) at p* = 0.1, whose budget
# allows 10 rounds. A graph of random p, whose every entry is repaired, is
# far above.
_NUMPY_ELEMENTS = 1 << 22


class Network:
    """Undirected graph with per-edge success probabilities, held as arrays.

    Nodes keep their insertion order and index maps each id to its
    position. Each edge is held once, in the order first given: ends[e]
    holds its two ends' positions, the smaller id first, and p[e] its
    probability. From them the adjacency is derived once, in both
    directions and sorted by (tail, head), as CSR arrays: the entries
    leaving node i are ptr[i]:ptr[i + 1] of tail and head, edge[k] is the
    edge of entry k, and w[k] its weight -log2 p (math.log2 per edge, the
    step every path sum adds). A Network is the graph alone, with no
    scenario data (an airport route's length stays in the dataset) and no
    engine: each shortest-path pass over it, or over a graph derived from
    it, runs on the engine _graph picks from that graph's own edges.

    A Network is immutable after construction: its arrays assume that it
    never changes. Metrics that need a total order on node ids
    (tie-breaking) compare the ids directly, so a single network should
    use one orderable id type throughout.
    """

    def __init__(
        self,
        nodes: Iterable[NodeId],
        edges: Dict[Tuple[NodeId, NodeId], float] | Iterable[Tuple[NodeId, NodeId, float]],
    ):
        self.nodes: List[NodeId] = list(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node ids")
        self.index = {v: i for i, v in enumerate(self.nodes)}
        items = ((a, b, p) for (a, b), p in edges.items()) if isinstance(edges, dict) else edges
        table = edge_table(items, self.index)
        self.n_nodes, self.n_edges = n, m = len(self.nodes), len(table)
        self.ends = np.fromiter((self.index[v] for key in table for v in key), np.int64, 2 * m).reshape(m, 2)
        self.p = np.fromiter(table.values(), float, m)
        tails, heads = self.ends.ravel(), self.ends[:, ::-1].ravel()
        order = np.lexsort((heads, tails))
        self.edge = order // 2
        self.tail, self.head = tails[order], heads[order]
        self.ptr = np.searchsorted(self.tail, np.arange(n + 1))
        self.w = np.array([-math.log2(p) for p in table.values()])[self.edge]


def _records(net: Network) -> List[Tuple[NodeId, NodeId, float]]:
    """net's edges as (id, id, p) records, in insertion order."""
    return [(net.nodes[a], net.nodes[b], p) for (a, b), p in zip(net.ends.tolist(), net.p.tolist())]


class StrategyKind(str, Enum):
    NON_COOPERATIVE = "non-cooperative"
    COOPERATIVE = "cooperative"


class _Hops(NamedTuple):
    """A _graph on the numpy side: its CSR arrays, split by the modal weight step."""

    ptr: np.ndarray
    head: np.ndarray
    weight: np.ndarray
    step: float
    # the CSR of the entries that weigh step
    hop_ptr: np.ndarray
    hop_head: np.ndarray
    # the other entries' CSR positions, and their tails
    odd: np.ndarray
    odd_tail: np.ndarray


def _hops(ptr: np.ndarray, head: np.ndarray, weight: np.ndarray) -> _Hops:
    """The numpy-side graph of CSR arrays whose weights are positive: their split by the modal weight."""
    values, counts = np.unique(weight, return_counts=True)
    # the first of any tie; +inf, which no pass adds, without entries
    step = float(values[counts.argmax()]) if len(values) else math.inf
    modal = weight == step
    n = len(ptr) - 1
    tail = np.repeat(np.arange(n), np.diff(ptr))
    odd = np.flatnonzero(~modal)
    return _Hops(ptr, head, weight, step, np.searchsorted(tail[modal], np.arange(n + 1)),
                 head[modal], odd, tail[odd])


def _graph(
    tail: np.ndarray, head: np.ndarray, weight: np.ndarray, n: int, reach: Optional[int] = None,
    limit: float = math.inf,
):
    """The shortest-path graph of the edges tail -> head over nodes 0 .. n - 1.

    The edges come sorted by tail, and the graph's edges leaving node i
    are head[ptr[i]:ptr[i + 1]]. Weight 0 (p = 1) is stored as the smallest
    positive float: zero-weight edges need an explicit entry, and csr drops
    stored zeros on some ops. The graph is a _Hops, for _distances' numpy
    pass, when that pass's work per lane word of 64 sources is within
    _NUMPY_ELEMENTS: (modal entries + 64 x other entries) x rounds, the
    rounds being at most reach (the most nodes one source reaches: n, or k
    for a block of k-node subgraphs) and, for passes bounded by limit, at
    most limit / step. Its state holds a word per node, so n counts as
    well. Any other graph gives a scipy csr_matrix. Either is built once
    for every pass _distances makes over it within limit.
    """
    ptr = np.searchsorted(tail, np.arange(n + 1))
    weight = np.where(weight > 0.0, weight, 5e-324)
    graph = _hops(ptr, head, weight)
    rounds = reach or n
    if limit < math.inf:
        rounds = min(rounds, limit / graph.step)
    if max(n, rounds * (len(graph.hop_head) + 64 * len(graph.odd))) <= _NUMPY_ELEMENTS:
        return graph
    # csgraph, which _distances runs, is loaded here: once, before any sweep forks its workers
    from scipy.sparse import csgraph, csr_matrix  # noqa: F401

    return csr_matrix((weight, head, ptr), shape=(n, n))


def _distances(graph, *, sources: Optional[np.ndarray] = None, limit: float = math.inf) -> np.ndarray:
    """Least path weight from each source (default: every node) to every node of a _graph.

    Rows follow sources; a node farther than limit reads +inf and one at
    exactly limit is kept, as scipy keeps it. A 2-D sources gives a row
    per row of sources, whose sources must lie in separate components:
    each node reads its distance from the row's source in its own. A scipy
    matrix goes to scipy's Dijkstra. A _Hops goes to a numpy pass that
    gives the same floats in three steps. _hop_levels finds each node's
    hop level h over the entries of the modal weight w0, reading each CSR
    row as the node's in-edges: every caller passes both directions of
    each edge. The node then reads D[h], with D[0] = 0 and D[h] =
    fl(D[h - 1] + w0), summed hop by hop as Dijkstra sums. _repair then
    relaxes from the entries of other weights. This is exact:

    - each D[h] is the weight of a real path, so it bounds the distance
      from above;
    - no w0 entry u -> v can lower D[h(v)], as h(v) <= h(u) + 1 and D
      never decreases;
    - relaxation from upper bounds that real paths reach ends at the
      least hop-by-hop float sum, which is the float Dijkstra returns:
      rounding is monotone, fl(a + w) >= a and never falls as a grows;
    - a sum over limit is never admitted, as sums only grow along a path.

    An equal-weight graph has no other entries, so it needs no repair.
    """
    if not isinstance(graph, tuple):
        from scipy.sparse.csgraph import dijkstra

        if sources is None or np.ndim(sources) == 1:
            return dijkstra(graph, indices=sources, limit=limit)
        lanes = np.asarray(sources)
        rows = dijkstra(graph, indices=lanes.ravel(), limit=limit)
        return rows.reshape(*lanes.shape, -1).min(axis=1)
    n = len(graph.ptr) - 1
    lanes = np.arange(n) if sources is None else np.asarray(sources, np.int64)
    if lanes.ndim == 1:
        lanes = lanes[:, None]
    level, table = _hop_levels(graph, lanes, limit)
    dist = table[level]
    if len(graph.odd):
        _repair(graph, dist, limit)
    return dist


def _hop_levels(graph: _Hops, lanes: np.ndarray, limit: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per lane and node, the index into table of the node's hop level over graph's step entries.

    A bit-parallel breadth-first pass from every lane's sources at once
    (Then et al., PVLDB 8(4), 2014): bit j % 64 of word j // 64 of a
    node's row stands for lane j, and each round ORs the frontier rows
    along the node's CSR row, read as its in-edges. table[h] is the
    weight of h steps summed hop by hop; the pass stops before the first
    level that weighs more than limit, and a node it leaves unreached
    reads the last entry, +inf.
    """
    ptr, head, step = graph.hop_ptr, graph.hop_head, graph.step
    n, k = len(ptr) - 1, len(lanes)
    frontier = np.zeros((n, -(-k // 64)), np.uint64)
    lane = np.repeat(np.arange(k), lanes.shape[1])
    np.bitwise_or.at(frontier, (lanes.ravel(), lane // 64), np.uint64(1) << (lane % 64).astype(np.uint64))
    unseen = ~frontier
    rows = np.flatnonzero(np.diff(ptr))
    starts = ptr[rows]
    # planes[b] holds bit b of every entry's level, written once per entry
    planes: List[np.ndarray] = []
    table = [0.0]
    while rows.size and table[-1] + step <= limit:
        reached = np.zeros_like(frontier)
        reached[rows] = np.bitwise_or.reduceat(np.take(frontier, head, axis=0), starts, axis=0)
        reached &= unseen
        if not reached.any():
            break
        unseen ^= reached
        table.append(table[-1] + step)
        _write_level(planes, reached, len(table) - 1)
        frontier = reached
    table.append(math.inf)
    _write_level(planes, unseen, len(table) - 1)
    level = np.zeros((n, k), np.min_scalar_type(len(table)))
    for bit, plane in enumerate(planes):
        flags = np.unpackbits(plane.astype("<u8", copy=False).view(np.uint8), axis=1, count=k, bitorder="little")
        flags = flags.astype(level.dtype, copy=False)
        level |= np.left_shift(flags, bit, out=flags)
    return np.ascontiguousarray(level.T), np.array(table)


def _write_level(planes: List[np.ndarray], entries: np.ndarray, level: int) -> None:
    """Give the entries set in entries the level: OR them into the planes of its set bits."""
    for bit in range(level.bit_length()):
        if bit == len(planes):
            planes.append(np.zeros_like(entries))
        if level >> bit & 1:
            planes[bit] |= entries


def _repair(graph: _Hops, dist: np.ndarray, limit: float) -> None:
    """Lower dist in place, in rounds, to the least path sums within limit.

    The first round relaxes the entries that do not weigh graph.step, in
    every row; each later round relaxes the entries leaving the row
    entries the round before changed. It ends when a round changes none.
    """
    ptr, head, weight = graph.ptr, graph.head, graph.weight
    rows, n = dist.shape
    flat = dist.ravel()
    at = (np.arange(rows)[:, None] * n + head[graph.odd]).ravel()
    cand = (dist[:, graph.odd_tail] + weight[graph.odd]).ravel()
    degree = np.diff(ptr)
    while True:
        keep = (cand < flat[at]) & (cand <= limit)
        at, cand = at[keep], cand[keep]
        if not at.size:
            return
        np.minimum.at(flat, at, cand)
        changed = np.unique(at)
        u = changed % n
        count = degree[u]
        ends = np.cumsum(count)
        idx = np.arange(ends[-1]) + np.repeat(ptr[u] - ends + count, count)
        at = np.repeat(changed - u, count) + head[idx]
        cand = np.repeat(flat[changed], count) + weight[idx]


def _best_weights(net: Network, p_star: float, full: bool = False) -> np.ndarray:
    """All-pairs minimum path weight over the edges usable at p_star, from a pass the caller owns.

    The pass is bounded by the -log2 p_star budget, as f* reads only the
    pairs within it: a pair over budget may read +inf (scipy keeps a
    distance equal to its limit). full=True, for the mean weight, lifts it.
    """
    limit = math.inf if full else _budget(p_star)
    keep = _strong(net, p_star)
    graph = _graph(net.tail[keep], net.head[keep], net.w[keep], net.n_nodes, limit=limit)
    return _distances(graph, limit=limit)


def _f_star(dist: np.ndarray, budget: float, rows: slice = slice(None)) -> np.ndarray:
    """f* on the given rows of all-pairs distances dist: 2**-d within budget, else 0, and 0 on the diagonal.

    The power is taken only within the budget, by the same ufunc on the
    same weights, so the values depend neither on whether the pass was
    bounded nor on which rows are asked for.
    """
    dist = dist[rows]
    f = np.zeros(dist.shape)
    np.power(2.0, -dist, out=f, where=dist <= budget)
    np.fill_diagonal(f[:, rows.start or 0:], 0.0)
    return f


class PathStatus(str, Enum):
    FOUND = "found"
    DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class PathResult:
    nodes: Tuple[NodeId, ...]
    total_weight: float
    probability: float
    status: PathStatus


def _lex_dijkstra(
    net: Network, source: NodeId, limit: float = math.inf
) -> Dict[NodeId, Tuple[float, Tuple[NodeId, ...]]]:
    """Single-source shortest paths with deterministic tie-breaking, up to weight limit.

    Among weight-minimal paths the lexicographically smallest node-id
    sequence wins; heap entries carry the path so equal-weight pops come
    out in lexicographic order. No path over limit is pushed: weights are
    non-negative, so the result is the unbounded one restricted to
    d <= limit. The centrality fallback and shortest_path stop at the
    -log2 p_star budget this way. Each node's CSR row is read as the node
    settles, so a search copies only the rows it reaches.
    """
    best: Dict[NodeId, Tuple[float, Tuple[NodeId, ...]]] = {}
    heap = [(0.0, (source,))]
    while heap:
        d, path = heapq.heappop(heap)
        v = path[-1]
        if v in best:
            continue
        best[v] = (d, path)
        i = net.index[v]
        row = slice(net.ptr[i], net.ptr[i + 1])
        for k, wk in zip(net.head[row].tolist(), net.w[row].tolist()):
            u = net.nodes[k]
            du = d + wk
            if u not in best and du <= limit:
                heapq.heappush(heap, (du, path + (u,)))
    return best


def shortest_path(net: Network, source: NodeId, target: NodeId, p_star: float) -> PathResult:
    """Minimum-weight path, Found only within the -log2 p_star budget, where its search stops."""
    budget = _budget(p_star)
    for v in (source, target):
        if v not in net.index:
            raise KeyError(f"unknown node {v!r}")
    reached = _lex_dijkstra(net, source, budget)
    if target not in reached:
        return PathResult((), math.inf, 0.0, PathStatus.DISCONNECTED)
    d, path = reached[target]
    return PathResult(path, d, 2.0**-d, PathStatus.FOUND)


def link_sparsity(net: Network, p_star: float, strategy: StrategyKind) -> float:
    """1 - n*/N^2 with n* the off-diagonal connected-pair count."""
    n = net.n_nodes
    if n == 0:
        raise ValueError("empty network")
    if strategy is StrategyKind.COOPERATIVE:
        return _co_sparsity(_best_weights(net, p_star), _budget(p_star))
    return 1.0 - int(np.count_nonzero(_strong(net, p_star))) / n**2


def _co_sparsity(dist: np.ndarray, budget: float) -> float:
    """Cooperative link sparsity from all-pairs distances dist, n* its off-diagonal pairs within budget."""
    # those are the pairs with f* > 0: 2**-d > 0 for every d <= budget <= 1074
    n = len(dist)
    return 1.0 - (int(np.count_nonzero(dist <= budget)) - n) / n**2


def _direct_sums(net: Network, p_star: float) -> np.ndarray:
    """Per node, the sum of the p of its edges usable at p_star, in edge insertion order."""
    strong = np.empty(net.n_edges, bool)
    strong[net.edge] = _strong(net, p_star)
    return np.bincount(net.ends[strong].ravel(), np.repeat(net.p[strong], 2), minlength=net.n_nodes)


# rows of f* that the cooperative strengths hold at a time, beside the pass
_STRENGTH_ROWS = 64


def _all_strengths(net: Network, strategy: StrategyKind, p_star: float) -> np.ndarray:
    """Per node, the p of its usable edges (non-cooperative) or its f* row (cooperative), summed, over n."""
    if strategy is StrategyKind.NON_COOPERATIVE:
        return _direct_sums(net, p_star) / net.n_nodes
    return _co_strengths(_best_weights(net, p_star), _budget(p_star))


def _co_strengths(dist: np.ndarray, budget: float) -> np.ndarray:
    """Per row of all-pairs distances dist, its f* row summed, over n.

    f* is summed _STRENGTH_ROWS rows at a time: a row sums to the same
    float alone as in the whole matrix.
    """
    # one empty block when there are no rows, so there is an array to join
    starts = range(0, max(len(dist), 1), _STRENGTH_ROWS)
    return np.concatenate([_f_star(dist, budget, slice(i, i + _STRENGTH_ROWS)).sum(axis=1) for i in starts]) / len(dist)


def total_connection_strength(net: Network, strategy: StrategyKind, p_star: float) -> float:
    return float(_all_strengths(net, strategy, p_star).sum())


def sparsity_index(net: Network, strategy: StrategyKind, p_star: float) -> float:
    """Lorenz-curve area ratio of the per-node strengths.

    Nodes are sorted by ascending strength, the cumulative-share curve is
    integrated by the trapezoid rule from the origin, and the area is
    divided by 1/2 so that perfectly uniform strengths give 1.
    """
    return _lorenz(_all_strengths(net, strategy, p_star))


def _lorenz(strengths: np.ndarray) -> float:
    """sparsity_index of the per-node strengths."""
    z = np.sort(strengths)
    total = z.sum()
    if total == 0.0:
        return 1.0
    y = np.concatenate([[0.0], np.cumsum(z) / total])
    area = float(np.trapezoid(y, dx=1.0 / len(z)))
    return area / 0.5


# node count of one block-diagonal all-pairs call over neighbour subgraphs
_SUBGRAPH_BLOCK = 512
# the most wedges held at once: a full block's, so a hub's come in chunks
_WEDGES = _SUBGRAPH_BLOCK * (_SUBGRAPH_BLOCK - 1) // 2


def _neighbor_metrics(net: Network, p_star: float) -> Tuple[np.ndarray, np.ndarray]:
    """Clustering coefficient and neighbour-subgraph average weight of every node, in net order.

    Both metrics read the wedges (a, v, b) of each node v, a before b in
    net order, up to _WEDGES at a time. Clustering counts the wedges
    closed at threshold p_star. The average weight is
    average_effective_weight of the subgraph induced by all of v's
    neighbours, in net order, bit for bit: the subgraphs of nodes of equal
    degree are laid out block-diagonally, up to _SUBGRAPH_BLOCK nodes at a
    time, for one all-pairs call. A subgraph of k nodes with fewer than
    k - 1 usable edges is disconnected, so it reads +inf without the call.
    It is nan for a node with fewer than two neighbours.
    """
    n = net.n_nodes
    tail, head, ptr = net.tail, net.head, net.ptr
    keys = tail * n + head
    strong = _strong(net, p_star)
    n_i = np.bincount(tail[strong], minlength=n)
    deg = np.diff(ptr)
    clustering = np.zeros(n)
    w_avg = np.full(n, np.nan)
    for k in np.unique(deg[deg >= 2]):
        # pair number first[i] is (i, i + 1) in np.triu_indices(k, 1)'s order; first[-1] counts the pairs
        first = np.arange(k) * (2 * k - np.arange(k) - 1) // 2
        members = np.flatnonzero(deg == k)
        per = max(1, _SUBGRAPH_BLOCK // k)
        for start in range(0, len(members), per):
            group = members[start:start + per]
            e_i = np.zeros(len(group), np.int64)
            links = []
            step = _WEDGES // len(group)
            for lo in range(0, first[-1], step):
                pair = np.arange(lo, min(lo + step, first[-1]))
                i = np.searchsorted(first, pair, side="right") - 1
                j = pair - first[i] + i + 1
                ea, eb = ptr[group, None] + i, ptr[group, None] + j
                ab = head[ea] * n + head[eb]
                hit = np.minimum(np.searchsorted(keys, ab), len(keys) - 1)
                linked = (keys[hit] == ab) & strong[hit]
                e_i += (linked & strong[ea] & strong[eb]).sum(axis=1)
                slot, at = np.nonzero(linked)
                links.append((slot, i[at], j[at], net.w[hit[slot, at]]))
            pairs = n_i[group] * (n_i[group] - 1)
            clustering[group] = np.where(pairs > 0, 2.0 * e_i / np.maximum(pairs, 1), 0.0)
            slot, i, j, w = map(np.concatenate, zip(*links))
            whole = np.bincount(slot, minlength=len(group)) >= k - 1
            w_avg[group[~whole]] = math.inf
            group, keep = group[whole], whole[slot]
            if not len(group):
                continue
            # the subgraphs that may be connected, renumbered
            slot = (np.cumsum(whole) - 1)[slot[keep]]
            a, b, w = slot * k + i[keep], slot * k + j[keep], w[keep]
            tails = np.r_[a, b]
            by_tail = np.argsort(tails, kind="stable")
            graph = _graph(tails[by_tail], np.r_[b, a][by_tail], np.r_[w, w][by_tail], len(group) * k, k)
            # lane a holds node a of every subgraph: dist[a, s * k + b] is subgraph s's a -> b
            dist = _distances(graph, sources=np.arange(len(group) * k).reshape(len(group), k).T)
            blocks = dist.reshape(k, len(group), k).transpose(1, 0, 2)
            for g, off in zip(group, blocks[:, ~np.eye(k, dtype=bool)]):
                w_avg[g] = _mean_weight(off)
    return clustering, w_avg


def _mean_weight(off: np.ndarray) -> float:
    """Mean of the off-diagonal distances off; +inf if any of them is."""
    if np.isinf(off).any():
        return math.inf
    mean = float(off.mean())
    # denormal placeholders for zero-weight edges collapse back to zero
    return 0.0 if mean < 1e-300 else mean


def average_effective_weight(net: Network, p_star: float) -> float:
    """Mean shortest-path weight in bits over ordered pairs of distinct nodes.

    Paths use only the edges usable at p_star, w <= -log2 p_star, but no
    budget bounds a path: a pair joined only by a path over budget counts
    its full weight. The result is +inf exactly when the thresholded graph is
    disconnected.
    """
    n = net.n_nodes
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return _mean_weight(_best_weights(net, p_star, full=True)[~np.eye(n, dtype=bool)])


def graph_metrics(net: Network, p_star: float) -> List[Tuple[str, float, float]]:
    """The graph command's rows, (metric, non-cooperative, cooperative), from one unbounded all-pairs pass.

    Each value is its public function's, as within the budget that pass
    gives the bounded pass's distances bit for bit; the mean weight fills
    both columns.
    """
    n = net.n_nodes
    if n < 2:
        raise ValueError("need at least 2 nodes")
    dist, budget = _best_weights(net, p_star, full=True), _budget(p_star)
    mean = _mean_weight(dist[~np.eye(n, dtype=bool)])
    nc, co = _all_strengths(net, StrategyKind.NON_COOPERATIVE, p_star), _co_strengths(dist, budget)
    return [
        ("link_sparsity", link_sparsity(net, p_star, StrategyKind.NON_COOPERATIVE), _co_sparsity(dist, budget)),
        ("total_connection_strength", float(nc.sum()), float(co.sum())),
        ("sparsity_index", _lorenz(nc), _lorenz(co)),
        ("average_effective_weight_bits", mean, mean),
    ]


# upper bound on sources x directed edges that centrality_all's tight-edge
# passes hold at once, summed over its worker processes. Such a slice holds
# ~9 bytes per source x entry while it tests for tight edges (a bool mask,
# and the float gathers of half its rows), ~9 MB at the bound, and then its
# tight-edge CSR, always int32: a slice's rows x max(n, entries) is at most
# this bound unless it is one row, and one row overflows int32 only at 2**31
# nodes or directed entries, far more than a Network can hold in memory
_SWEEP_ELEMENTS = 1 << 20
# a sweep over at least this many sources x directed edges runs in forked
# worker processes, on either engine; a smaller one is not worth the fork
_FORK_ELEMENTS = 1 << 24
_MAX_WORKERS = 4


def _workers() -> int:
    """Processes for a large sweep: the usable cores, at most _MAX_WORKERS."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)


def centrality_all(net: Network, p_star: float) -> Dict[NodeId, int]:
    """Per node, the number of canonical pair paths with it strictly interior.

    Each unordered pair {s, t} counts once, traversed from the smaller id
    s to the larger id t, and only when its shortest-path weight is within
    the -log2 p_star budget (a weight equal to the budget counts). Its
    canonical path is the one _lex_dijkstra returns: minimum weight, summed
    in path order, with ties going to the lexicographically smallest
    node-id sequence.

    Sources are swept a block at a time over net with its nodes in id order
    (net itself when they already are), so that paths compare as index
    sequences. _distances gives those within the budget; the tight edges
    (d[u] + w == d[v], exactly) form a DAG. When all tight predecessors of
    every reached node share one hop depth, a node's canonical parent is
    the predecessor whose path sorts first, so the canonical tree grows one
    hop level at a time: read in (parent path order, id) order, a child's
    first tight edge has its parent as tail. Subtree sizes over the targets
    after the source then give the interior counts: the single-predecessor
    form of Brandes' dependency accumulation (J. Math. Sociol. 25(2),
    2001). A source falls back to _lex_dijkstra, stopped at the budget,
    when some reached node cannot be placed on a level: its tight
    predecessors differ in hop depth, or a step that leaves the distance
    unchanged (p = 1, or a weight lost to rounding) makes the tight edges
    cyclic. The choice depends only on the weights.

    A sweep of at least _FORK_ELEMENTS (sources x directed edges) runs its
    blocks in forked worker processes, one per usable core and at most
    _MAX_WORKERS, where the platform reports its cores (Linux); smaller
    sweeps, and every sweep elsewhere, run in this process. The workers
    share _SWEEP_ELEMENTS: a block's tight-edge passes take as many
    sources at once as 1/workers of it holds, so the summed working set,
    ~9 bytes per source x entry while a slice tests for tight edges and 8
    per tight edge after (an int32 CSR; see _SWEEP_ELEMENTS), stays the
    same. Its one distance pass takes the whole block, up to a lane word
    of 64 sources whose distances fit in that share. The workers adopt the
    sweep as the pool starts them, and a block counts its own fallback
    sources, in the worker that runs it. Blocks are independent and their
    counts are integers, so the totals do not depend on the split or on
    the order of summation: source-parallel Brandes, as in Bader and
    Madduri (ICPP 2006).
    """
    n = net.n_nodes
    budget = _budget(p_star)
    g = _id_ordered(net)
    width = max(len(g.w), n, 1)
    workers = _workers() if (n - 1) * width >= _FORK_ELEMENTS else 1
    rows = max(1, _SWEEP_ELEMENTS // workers // width)
    # a block's one distance pass fills up to a lane word of 64 sources, within the share
    block = max(rows, min(64, _SWEEP_ELEMENTS // workers // max(n, 1)))
    blocks = [np.arange(start, min(start + block, n - 1)) for start in range(0, n - 1, block)]
    sweep = functools.partial(_canonical_sweep, g, _graph(g.tail, g.head, g.w, n, limit=budget), budget, rows)
    tau = sum(_sweeps(sweep, blocks, workers), np.zeros(n, np.int64))
    return {v: int(tau[g.index[v]]) for v in net.nodes}


def _id_ordered(net: Network) -> Network:
    """net with its nodes in id order, through the checked constructor (net itself when they already are)."""
    ids = sorted(net.nodes)
    return net if ids == net.nodes else Network(ids, _records(net))


def _sweeps(sweep: Callable[[np.ndarray], np.ndarray], blocks: List[np.ndarray], workers: int):
    """Each block's counts by sweep, a _canonical_sweep given all but the sources, as it finishes.

    The blocks run here, or in forked workers that adopt sweep.
    """
    if workers == 1:
        yield from map(sweep, blocks)
        return
    import multiprocessing

    # a fork hands the initializer's arguments to the workers, never by pickle
    with multiprocessing.get_context("fork").Pool(workers, _adopt_sweep, (sweep,)) as pool:
        yield from pool.imap_unordered(_pooled_sweep, blocks)


# set only in a worker of _sweeps' pool: its sweep
_POOLED_SWEEP: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _adopt_sweep(sweep: Callable[[np.ndarray], np.ndarray]) -> None:
    global _POOLED_SWEEP
    _POOLED_SWEEP = sweep


def _pooled_sweep(sources: np.ndarray) -> np.ndarray:
    return _POOLED_SWEEP(sources)


def _canonical_sweep(g: Network, graph, budget: float, rows: int, sources: np.ndarray) -> np.ndarray:
    """Interior counts of the canonical paths from a block of sources.

    g is a network whose nodes are in id order, graph is the _graph of
    its edges and weights, and sources and the nodes of the counts are
    g.index positions. One distance pass within budget serves the block,
    and the tight edges are found rows sources at a time. A source the
    tight edges do not resolve falls back to its _lex_dijkstra paths within
    the budget, counted here, in the process that runs the block; that
    search reads each node's row of g as the node settles.
    """
    dist = _distances(graph, sources=sources, limit=budget)
    # a slice holds 1 byte per source x entry for its tight-edge mask, 8 more
    # while it tests (the float gathers of half its rows, in one buffer), then
    # only the int32 CSR its level loop reads, 8 bytes per tight edge. The
    # buffer is a slice's largest block. Once it is freed from mmap, glibc's
    # dynamic mmap threshold rises to its size and the heap trim threshold to
    # twice that, above what a slice adds to the heap, so the heap is not
    # trimmed and faulted in again between slices. Gathers of an eighth of the
    # rows, or allocated per chunk, raised the airport sweep's minor faults
    # from ~20 k to 0.1-0.4 M. Every slice's result is kept until the block is
    # done: freeing each as the next was built raised them as well
    parts = [_tree_counts(g, dist[i:i + rows], sources[i:i + rows]) for i in range(0, len(sources), rows)]
    tau = sum(counts for counts, _ in parts)
    for s in sources[~np.concatenate([exact for _, exact in parts])]:
        source = g.nodes[s]
        for t, (_, path) in _lex_dijkstra(g, source, budget).items():
            if t > source:
                for u in path[1:-1]:
                    tau[g.index[u]] += 1
    return tau


def _tight_edges(g: Network, dist: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The tight edges of the rows of dist, d[u] + w == d[v] exactly, as int32 tails and heads.

    An edge of row r is numbered r x n + node at both ends, and the edges
    come sorted by tail, as in g's CSR. The test runs half the rows at a
    time into a mask, 1 byte per source x entry; both float gathers of a
    half share one buffer, 8 bytes per source x entry of the slice, freed
    before the edges are read. They are read half the rows at a time too,
    through tables of every entry's ends in each row of a half, so that no
    flat position is divided.
    """
    tail, head, w = g.tail, g.head, g.w
    n, rows = g.n_nodes, len(dist)
    half = -(-rows // 2)
    tight = np.empty((rows, len(w)), bool)
    pair = np.empty((2, half, len(w)))
    for lo in range(0, rows, half):
        part = dist[lo:lo + half]
        du, dv = pair[:, :len(part)]
        # mode="clip" writes into out unbuffered; every index is in range
        np.take(part, tail, axis=1, out=du, mode="clip")
        du += w
        np.take(part, head, axis=1, out=dv, mode="clip")
        np.equal(dv, du, out=tight[lo:lo + half])
    del pair, du, dv
    offsets = np.arange(half, dtype=np.int32)[:, None] * n
    tail_at, head_at = (np.add(offsets, ends, dtype=np.int32).ravel() for ends in (tail, head))
    tails = np.empty(np.count_nonzero(tight), np.int32)
    heads = np.empty_like(tails)
    end = 0
    for lo in range(0, rows, half):
        k = np.flatnonzero(tight[lo:lo + half])
        start, end = end, end + len(k)
        for table, out in ((tail_at, tails), (head_at, heads)):
            np.take(table, k, out=out[start:end], mode="clip")
            out[start:end] += lo * n
    return tails, heads


def _tree_counts(g: Network, dist: np.ndarray, sources: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """_canonical_sweep's counts and mask of the sources it resolves, from their distances dist.

    A placed child's parent is the tail of its first tight edge.
    """
    n, rows = g.n_nodes, len(sources)
    reached = np.isfinite(dist)
    # nan never compares equal, so edges with an unreached end drop out
    dist[~reached] = np.nan
    tails, heads = _tight_edges(g, dist)
    size = rows * n
    indeg = np.bincount(heads, minlength=size)
    out_ptr = np.zeros(size + 1, np.int32)
    np.cumsum(np.bincount(tails, minlength=size), out=out_ptr[1:])

    # hop levels of the canonical trees, each in path order
    frontier = np.arange(rows) * n + sources
    levels = []
    latest = np.full(size, -1, np.int64)
    for level in range(1, n):
        first = out_ptr[frontier]
        fan = out_ptr[frontier + 1] - first
        at = np.arange(fan.sum())
        idx = np.repeat(first - np.cumsum(fan) + fan, fan) + at
        # in intp, which every index below would otherwise convert it to
        out = heads[idx].astype(np.intp, copy=False)
        # out runs in (parent path order, child id) order, so a child's
        # first hit is the tight edge from its parent, in path order
        tag = level * len(heads) - at
        np.maximum.at(latest, out, tag)
        first_hit = latest[out] == tag
        hits = np.bincount(out)
        child, firsts = out[first_hit], idx[first_hit]
        # only a child whose tight predecessors all sit on this level
        whole = hits[child] == indeg[child]
        child, parent = child[whole], tails[firsts[whole]]
        if not child.size:
            break
        levels.append((child.astype(np.int32), parent))
        frontier = child
    # the accumulation reads only the levels
    del tails, heads, indeg, out_ptr, latest
    placed = sum(np.bincount(c // n, minlength=rows) for c, _ in levels)
    exact = placed + 1 == reached.sum(axis=1)

    later = reached & (np.arange(n) > sources[:, None])
    below = later.astype(np.int64).ravel()
    for child, parent in reversed(levels):
        starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
        below[parent[starts]] += np.add.reduceat(below[child], starts)
    inner = below.reshape(rows, n) - later
    inner[np.arange(rows), sources] = 0
    return inner[exact].sum(axis=0), exact


class Undefined(Sentinel):
    """Sentinel for an undefined critical parameter."""


@dataclass(frozen=True)
class NodeReport:
    node: NodeId
    clustering: float
    centrality: int
    strength: float
    critical_parameter: Union[float, Undefined]


def critical_parameters(
    net: Network,
    p_star: float,
    strategy: StrategyKind = StrategyKind.COOPERATIVE,
) -> List[NodeReport]:
    """Per-node criticality nu = tau / (C * w_avg) ranked descending.

    tau is centrality_all. w_avg is the average effective weight of the
    subgraph induced by the node's neighbours, with paths confined to that
    subgraph. Nodes where the ratio degenerates (C = 0, or w_avg zero or
    infinite) are flagged Undefined. One stable sort ranks them: Undefined
    last, then by descending nu, then by descending centrality. The
    strengths make their own all-pairs pass, after the sweep.
    """
    tau = centrality_all(net, p_star)
    clustering, w_avg = _neighbor_metrics(net, p_star)
    strengths = _all_strengths(net, strategy, p_star)
    ranked = []
    for i, v in enumerate(net.nodes):
        c, w = float(clustering[i]), float(w_avg[i])
        undefined = c == 0.0 or w == 0.0 or math.isinf(w)
        nu = Undefined() if undefined else tau[v] / (c * w)
        report = NodeReport(v, c, tau[v], float(strengths[i]), nu)
        ranked.append(((undefined, 0.0 if undefined else -nu, -tau[v]), report))
    return [report for _, report in sorted(ranked, key=lambda item: item[0])]


def build_topology(spec: TopologySpec) -> Network:
    """The Network of a named reference topology; see topology.topology_edges."""
    n, edges = topology_edges(spec)
    return Network(range(n), edges)


# ---------------------------------------------------------------------------
# Percolation-style checks and evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalSizeResult:
    is_critically_large: bool
    n0: int
    required_distance: int
    witness_pair: Optional[Tuple[NodeId, NodeId]]


def _hops_over(step: float, budget: float) -> int:
    """The fewest hops of weight step whose weight, summed hop by hop, exceeds budget.

    It is found a binade at a time. Inside one, every hop adds step rounded
    to the binade's ulp, ties to even; a hop that lands there makes the sum
    even on a tie, so from a sum a hop in the same binade gave, every hop
    that stays adds the same increment, and the run up to the binade's top
    or the budget is one jump in ulps. Raises ValueError when a hop leaves
    the sum unchanged below the budget, where it would never exceed it.
    """
    n0, weight, came_from = 1, step, None
    while weight <= budget:
        nxt = weight + step
        if nxt == weight:
            raise ValueError("a hop of p = c leaves the path weight unchanged below the budget")
        exp = math.frexp(weight)[1]
        if came_from == exp == math.frexp(nxt)[1]:
            # in ulps: hops up to the budget, and while a hop's exact sum
            # stays more than half an ulp below the binade's top
            ulp = math.ldexp(1.0, exp - 53)
            units, inc = int(nxt / ulp), int((nxt - weight) / ulp)
            last = min(int(budget / ulp), (1 << 53) - 2)
            jump = max(0, (last - units) // inc)
            n0, weight = n0 + 1 + jump, (units + jump * inc) * ulp
        else:
            n0, weight = n0 + 1, nxt
        came_from = exp
    return n0


def critically_large_check(net: Network, p_star: float, c: float) -> CriticalSizeResult:
    """Whether some node pair is too far apart to ever reach p_star.

    c must upper-bound every edge probability. n0 is the smallest hop
    count whose chain of p = c edges, its weights summed hop by hop as a
    path sums them, weighs more than the -log2 p_star budget. A pair more
    than n0 hops apart, required_distance = n0 + 1, certifies the network
    critically large; the witness is the first such pair in net order, a
    disconnected pair included. The hop pass stops at n0 hops, so such a
    pair reads +inf. It runs over blocks of 64 sources in net order and
    stops at the first block that holds such a pair, so it holds 64 rows of
    hops at a time. Raises ValueError when c is so close to 1 that a hop
    leaves the summed weight unchanged within the budget.
    """
    Range("(0, 1)").check("c", c)
    if (net.p > c).any():
        raise ValueError("some edge probability exceeds c")
    budget = _budget(p_star)
    n0 = _hops_over(-math.log2(c), budget)
    graph = _graph(net.tail, net.head, np.ones(len(net.head)), net.n_nodes, limit=n0)
    for lo in range(0, net.n_nodes, 64):
        hops = _distances(graph, sources=np.arange(lo, min(lo + 64, net.n_nodes)), limit=n0)
        far = np.argwhere(np.triu(hops > n0, lo + 1))
        if len(far):
            return CriticalSizeResult(True, n0, n0 + 1, (net.nodes[lo + far[0, 0]], net.nodes[far[0, 1]]))
    return CriticalSizeResult(False, n0, n0 + 1, None)


@dataclass(frozen=True)
class ReachabilityReport:
    counts: Dict[NodeId, int]
    max_fraction: float


def task_reachability(net: Network, p_star: float) -> ReachabilityReport:
    """Per-node size of the ball reachable within the -log2 p_star budget.

    Counts include the node itself; connectivity at threshold is not
    transitive, so these balls are the honest analogue of components.
    """
    balls = np.count_nonzero(_best_weights(net, p_star) <= _budget(p_star), axis=1)
    counts = dict(zip(net.nodes, balls.tolist()))
    return ReachabilityReport(counts, max(counts.values()) / net.n_nodes)


def evolve(
    net: Network, w: float, k: float, p_star: float, steps: int
) -> List[Tuple[Network, float]]:
    """Discrete-time decay p(t+1) = w exp(-k t) p(t), edges closing at p_star.

    An edge closes permanently (probability 0, removed) once its updated
    weight -log2 p leaves the -log2 p_star budget, the rule of _strong.
    Returns the network and its cooperative link sparsity for t = 1 ..
    steps, starting from the given network at t = 1; none for steps = 0.
    """
    EVOLVE_W.check("w", w)
    EVOLVE_K.check("k", k)
    budget = _budget(p_star)
    current, out = net, []
    for t in range(steps):
        if t:
            factor = w * math.exp(-k * t)
            records = []
            for a, b, p in _records(current):
                p_next = factor * p
                if p_next > 0.0 and -math.log2(p_next) <= budget:
                    records.append((a, b, p_next))
            current = Network(current.nodes, records)
        out.append((current, link_sparsity(current, p_star, StrategyKind.COOPERATIVE)))
    return out


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def load_edge_list(path) -> Network:
    """Read UTF-8 `node_a,node_b,p` records, after any byte-order mark; `#` starts a comment line.

    A malformed record, a self-loop or a p outside EDGE_P among them,
    raises ValueError naming its file and line."""
    edges = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                # a byte that is not UTF-8 is a malformed record of its line
                line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                a, b, p = (field.strip() for field in line.split(","))
                edges.append((a, b, float(p)))
                # Network's own checks of the record, run here to name its line
                edge_table(edges[-1:], (a, b))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed edge record ({exc})")
    return Network(dict.fromkeys(v for a, b, _ in edges for v in (a, b)), edges)
