"""The named reference topologies and the edge-list writer, without numpy.

A spec (Star ... Square1024) names a topology. topology_edges checks it
and gives its node count and its edges, keyed as a Network keys them, and
write_edge_list writes such edges. netgraph.build_topology wraps them in
a Network; the topology command writes them without one, so it loads no
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Dict, Iterable, Tuple, Union

from . import EDGE_P, GRID_SIDE, TOPOLOGY_D, TOPOLOGY_N

NodeId = Union[int, str]
Edges = Dict[Tuple[NodeId, NodeId], float]


def edge_key(a: NodeId, b: NodeId) -> Tuple[NodeId, NodeId]:
    return (a, b) if a <= b else (b, a)


def edge_table(items: Iterable[Tuple[NodeId, NodeId, float]], nodes: Collection[NodeId]) -> Edges:
    """Each edge of items once, keyed (smaller id, larger id) in the order first given.

    The last p given for an edge wins. Raises ValueError on a self-loop, an
    end not in nodes, or a p outside EDGE_P.
    """
    edges: Edges = {}
    for a, b, p in items:
        if a == b:
            raise ValueError(f"self-loop on node {a!r}")
        if a not in nodes or b not in nodes:
            raise ValueError(f"edge references unknown node: {a!r}-{b!r}")
        EDGE_P.check("edge probability", p)
        edges[edge_key(a, b)] = p
    return edges


def write_edge_list(edges: Edges, path) -> None:
    """Writes `node_a,node_b,p` records in UTF-8, sorted by edge, under a `#` header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# node_a,node_b,p\n")
        fh.writelines(f"{a},{b},{p}\n" for (a, b), p in sorted(edges.items()))


class CellKind(str, Enum):
    SQUARE = "square"
    OCTAGONAL = "octagonal"
    HEAVY_HEXAGONAL = "heavy-hexagonal"


_CELL_SIZES = {
    CellKind.SQUARE: 4,
    CellKind.OCTAGONAL: 8,
    CellKind.HEAVY_HEXAGONAL: 12,
}


@dataclass(frozen=True)
class Star:
    n: int
    p: float


@dataclass(frozen=True)
class FullMesh:
    n: int
    p: float


@dataclass(frozen=True)
class Circulant:
    n: int
    d: int
    p: float


@dataclass(frozen=True)
class Grid:
    width: int
    height: int
    p: float


@dataclass(frozen=True)
class ProcessorCell:
    kind: CellKind
    p: float


@dataclass(frozen=True)
class Square1024:
    p: float


def _grid_edges(w: int, h: int, p: float) -> Iterable[Tuple[int, int, float]]:
    """Row by row, each node's edge to the right, then its edge down."""
    for y in range(h):
        for x in range(w):
            i = y * w + x
            if x + 1 < w:
                yield i, i + 1, p
            if y + 1 < h:
                yield i, i + w, p


_TOPOLOGY_SPECS = (Star, FullMesh, Circulant, Grid, ProcessorCell, Square1024)
TopologySpec = Union[_TOPOLOGY_SPECS]


def topology_edges(spec: TopologySpec) -> Tuple[int, Edges]:
    """The node count n of a named reference topology, whose nodes are 0 .. n - 1, and its edges.

    Star(n, p) has hub node 0. Circulant(n, d, p) gives every node degree
    d: ring offsets m carry probability p**m; an odd d adds the antipodal
    edge at probability p**((d+1)/2) and needs even n. A star's or mesh's
    n must lie in TOPOLOGY_N, a circulant's d in TOPOLOGY_D and below n, a
    grid's sides in GRID_SIDE and every p in EDGE_P, a circulant's powers
    of p included.
    """
    if not isinstance(spec, _TOPOLOGY_SPECS):
        raise TypeError(f"unknown topology spec {spec!r}")
    if isinstance(spec, (Star, FullMesh)) and spec.n not in TOPOLOGY_N:
        raise ValueError(f"{'star' if isinstance(spec, Star) else 'mesh'} needs n {TOPOLOGY_N.text}")
    if isinstance(spec, Circulant):
        if spec.d not in TOPOLOGY_D or spec.d >= spec.n:
            raise ValueError("circulant needs 1 <= d < n")
        if spec.d % 2 == 1 and spec.n % 2 != 0:
            raise ValueError("odd-degree circulant needs an even node count")
    if isinstance(spec, Grid) and (spec.width not in GRID_SIDE or spec.height not in GRID_SIDE):
        raise ValueError("grid needs positive dimensions")
    # also where no edge carries p, as in a 1 x 1 grid
    EDGE_P.check("edge probability", spec.p)
    if isinstance(spec, Square1024):
        spec = Grid(32, 32, spec.p)
    elif isinstance(spec, ProcessorCell):
        # a unit cell is the ring of its size, the circulant of degree 2
        spec = Circulant(_CELL_SIZES[CellKind(spec.kind)], 2, spec.p)
    p = spec.p
    if isinstance(spec, Star):
        n, items = spec.n, ((0, i, p) for i in range(1, spec.n))
    elif isinstance(spec, FullMesh):
        n, items = spec.n, ((i, j, p) for i in range(spec.n) for j in range(i + 1, spec.n))
    elif isinstance(spec, Circulant):
        n, d = spec.n, spec.d
        offsets = [(m, p**m) for m in range(1, d // 2 + 1)]
        if d % 2 == 1:
            offsets.append((n // 2, p ** ((d + 1) // 2)))
        items = ((i, (i + m) % n, q) for i in range(n) for m, q in offsets)
    else:
        n, items = spec.width * spec.height, _grid_edges(spec.width, spec.height, p)
    return n, edge_table(items, range(n))
