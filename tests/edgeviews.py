"""Views of a Network's edges, rebuilt from its arrays for the tests.

A Network holds each edge once, as the arrays ends and p, and no command
reads an edge any other way. The tests still ask for the edges keyed by
id, one edge's p, a node's neighbours and a relabelled copy; this module
derives each of them from those arrays.
"""

import weakref
from typing import Dict, List, Optional, Tuple

from qnetlim.netgraph import Network, NodeId, _strong
from qnetlim.topology import edge_key


def edges(net: Network) -> Dict[Tuple[NodeId, NodeId], float]:
    """net's edges, keyed (smaller id, larger id), in the order first given."""
    return {(net.nodes[a], net.nodes[b]): p for (a, b), p in zip(net.ends.tolist(), net.p.tolist())}


# each net's edges(net), built once: a Network never changes
_tables: "weakref.WeakKeyDictionary[Network, Dict[Tuple[NodeId, NodeId], float]]" = weakref.WeakKeyDictionary()


def edge_p(net: Network, a: NodeId, b: NodeId) -> Optional[float]:
    """The p of the edge a-b, None when there is none, read from ends and p alone, not from the CSR."""
    if net not in _tables:
        _tables[net] = edges(net)
    return _tables[net].get(edge_key(a, b))


def neighbors(net: Network, v: NodeId, p_star: Optional[float] = None) -> List[NodeId]:
    """v's neighbours, over the edges usable at p_star if given, in net order."""
    i = net.index[v]
    row = slice(net.ptr[i], net.ptr[i + 1])
    heads = net.head[row]
    if p_star is not None:
        heads = heads[_strong(net, p_star)[row]]
    return [net.nodes[j] for j in heads]


def relabeled(net: Network, mapping: Dict[NodeId, NodeId]) -> Network:
    """net with each node v renamed mapping[v], through the checked constructor."""
    return Network([mapping[v] for v in net.nodes],
                   {edge_key(mapping[a], mapping[b]): p for (a, b), p in edges(net).items()})
