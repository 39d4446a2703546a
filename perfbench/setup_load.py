"""Import qnetlim.cli and load one workload's input through the public loaders.

usage: python3 perfbench/setup_load.py WORKLOAD [INPUT_FILES...]

The benchmark times this script as a whole, from a fresh interpreter, to
give ``setup_s``: the cost every command pays before it computes.
"""

from __future__ import annotations

import json
import sys

import qnetlim.cli  # noqa: F401  (the import is what is measured)
from qnetlim import buffersim, netgraph, scenario


def load_sim_config(path) -> buffersim.SimConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return buffersim.SimConfig(
        capacity=raw["capacity"],
        p_mem=raw["p_mem"],
        eta_crit=raw["eta_crit"],
        arrivals=tuple(buffersim.Arrival(**a) for a in raw["arrivals"]),
        flows=tuple(buffersim.FlowRequest(**f) for f in raw["flows"]),
        horizon=raw["horizon"],
        decay_mode=buffersim.DecayMode(raw["decay_mode"]),
        service_order=buffersim.ServiceOrder(raw["service_order"]),
    )


def main(argv) -> int:
    workload, files = argv[0], argv[1:]
    if workload == "airport":
        net = scenario.load_airport_network(scenario.load_airport_dataset(*files))
        return 0 if net.n_nodes > 0 else 1
    if workload == "lattice":
        return 0 if netgraph.load_edge_list(files[0]).n_nodes > 0 else 1
    if workload == "buffer":
        return 0 if all(load_sim_config(f).arrivals for f in files) else 1
    return 0 if workload == "closed-form" else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
