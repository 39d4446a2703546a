"""Command-line front end.

Every subcommand writes CSV (or a short text report) with the resolved
parameters echoed as `#` comment lines, either to stdout or to --out.
Exit codes: 0 success, 1 data error (bad files, infeasible parameters,
unwritable output), 2 usage error.

Each subcommand's option builder and handler import the module they read
when they run, and `main` builds the options of the one subcommand it
runs, so a command loads only its own layer.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import math
import os
import sys
from dataclasses import MISSING, fields
from typing import IO, TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple, get_type_hints

from . import EDGE_P, EVOLVE_K, EVOLVE_W, GRID_SIDE, P_STAR, TOPOLOGY_D, TOPOLOGY_N

if TYPE_CHECKING:
    from . import repeater, scenario
    from .netgraph import Network, NodeReport

DATA_DIR_ENV = "QNETLIM_DATA_DIR"


class DataError(Exception):
    pass


def _emit(lines: Iterable[str], out: Optional[str], rows: Optional[IO[str]] = None) -> None:
    """Writes the lines, then the spooled `rows` file if any, to --out or stdout.

    --out is written as UTF-8. `rows` is closed in every case; an OSError,
    or text the stream cannot encode, is a DataError.
    """
    try:
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write("\n".join(lines) + "\n")
            if rows is not None:
                rows.seek(0)
                while chunk := rows.read(1 << 20):
                    fh.write(chunk)
    except (OSError, UnicodeEncodeError) as exc:
        raise DataError(f"cannot write output: {exc}")
    finally:
        if rows is not None:
            rows.close()


def _header(cmd: str, params: dict) -> List[str]:
    lines = [f"# command: {cmd}"]
    for k in sorted(params):
        lines.append(f"# {k} = {params[k]}")
    return lines


def _field_values(args, cls) -> dict:
    """The parsed value of each field of the dataclass cls, by field name."""
    return {f.name: getattr(args, f.name) for f in fields(cls)}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_chain(args) -> List[str]:
    from . import repeater

    task = repeater.TaskSpec(repeater.TaskKind(args.task), theta=args.theta, p_star=args.p_star,
                             entanglement_mode=repeater.EntanglementMode(args.ent_mode))
    params = {
        "lambda": args.lam, "q": args.q, "task": args.task,
        "theta": args.theta, "p_star": args.p_star, "threshold": task.threshold(),
    }
    lines = _header("chain", params)
    if args.n is not None:
        vis = repeater.chain_visibility(repeater.ChainConfig(args.lam, args.q, args.n))
        feasible = vis > task.threshold()
        lines.append("n,visibility,feasible")
        lines.append(f"{args.n},{vis!r},{feasible}")
    else:
        exact = repeater.max_repeaters(args.lam, args.q, task)
        floor = repeater.max_repeaters_floor_form(args.lam, args.q, task)
        lines.append("max_repeaters,max_repeaters_floor_form")
        lines.append(f"{exact},{floor}")
    return lines


def cmd_tradeoff(args) -> List[str]:
    from . import repeater

    params = _field_values(args, repeater.LinkBudget)
    bound = repeater.critical_length_time_bound(repeater.LinkBudget(**params))
    lines = _header("tradeoff", dict(params, f=args.f))
    lines.append("bound,feasible_at_zero,f_fold_bound")
    fb = repr(repeater.f_fold_bound(args.f, args.p_star)) if args.f is not None else ""
    lines.append(f"{bound.bound!r},{bound.feasible_at_zero},{fb}")
    if not bound.feasible_at_zero:
        raise DataError("infeasible even at zero distance: bound is not positive")
    return lines


def cmd_nqi(args) -> List[str]:
    from . import repeater

    params = {"length_km": args.length, "n": args.n, "q": args.q}
    lines = _header("nqi", params)
    bound = repeater.nqi_alpha_bound(args.length, args.n, args.q)
    if bound is None:
        raise DataError("no positive loss-rate bound: 3 q^n <= 1")
    lines.append("alpha_bound_per_km")
    lines.append(repr(bound))
    return lines


def _load_net(path) -> Network:
    from . import netgraph

    try:
        net = netgraph.load_edge_list(path)
    except OSError as exc:
        raise DataError(f"cannot read graph file: {exc}")
    except ValueError as exc:
        raise DataError(f"bad graph file: {exc}")
    if not net.n_edges:
        raise DataError(f"bad graph file: no edges in {path}")
    return net


def cmd_graph(args) -> List[str]:
    from . import netgraph

    net = _load_net(args.infile)
    params = {"in": args.infile, "p_star": args.p_star, "weights": "bits (-log2 p)"}
    lines = _header("graph", params)
    lines.append("metric,non_cooperative,cooperative")
    lines.extend(f"{name},{nc!r},{co!r}" for name, nc, co in netgraph.graph_metrics(net, args.p_star))
    return lines


def _node_rows(reports: Sequence[NodeReport]) -> List[str]:
    from .netgraph import Undefined

    lines = ["node,clustering,centrality,strength,critical_parameter"]
    for r in reports:
        nu = "undefined" if isinstance(r.critical_parameter, Undefined) else repr(r.critical_parameter)
        lines.append(f"{r.node},{r.clustering!r},{r.centrality},{r.strength!r},{nu}")
    return lines


def cmd_critical_nodes(args) -> List[str]:
    from . import netgraph

    net = _load_net(args.infile)
    params = {"in": args.infile, "p_star": args.p_star, "top": args.top}
    reports = netgraph.critical_parameters(net, args.p_star)
    return _header("critical-nodes", params) + _node_rows(reports[: args.top])


def cmd_path(args) -> List[str]:
    from . import netgraph

    net = _load_net(args.infile)
    params = {"in": args.infile, "source": args.source, "target": args.target, "p_star": args.p_star}
    lines = _header("path", params)
    try:
        res = netgraph.shortest_path(net, args.source, args.target, args.p_star)
    except KeyError as exc:
        raise DataError(exc.args[0])
    lines.append("status,probability,total_weight_bits,path")
    lines.append(
        f"{res.status.value},{res.probability!r},{res.total_weight!r},"
        + "-".join(str(v) for v in res.nodes)
    )
    if res.status is netgraph.PathStatus.DISCONNECTED:
        raise DataError("no path meets the threshold")
    return lines


# topology kind -> spec(topology module, args)
_TOPOLOGIES = {
    "star": lambda tp, a: tp.Star(a.n, a.p),
    "mesh": lambda tp, a: tp.FullMesh(a.n, a.p),
    "circulant": lambda tp, a: tp.Circulant(a.n, a.d, a.p),
    "grid": lambda tp, a: tp.Grid(a.width, a.height, a.p),
    "cell-square": lambda tp, a: tp.ProcessorCell(tp.CellKind.SQUARE, a.p),
    "cell-octagonal": lambda tp, a: tp.ProcessorCell(tp.CellKind.OCTAGONAL, a.p),
    "cell-heavy-hex": lambda tp, a: tp.ProcessorCell(tp.CellKind.HEAVY_HEXAGONAL, a.p),
    "square1024": lambda tp, a: tp.Square1024(a.p),
}


def cmd_topology(args) -> List[str]:
    from . import topology

    n, edges = topology.topology_edges(_TOPOLOGIES[args.kind](topology, args))
    if args.edges_out:
        try:
            topology.write_edge_list(edges, args.edges_out)
        except OSError as exc:
            raise DataError(f"cannot write output: {exc}")
    params = {"kind": args.kind, "p": args.p, "nodes": n, "edges": len(edges)}
    lines = _header("topology", params)
    lines.append("nodes,edges,edge_file")
    lines.append(f"{n},{len(edges)},{args.edges_out or ''}")
    return lines


def cmd_satellite(args) -> List[str]:
    from . import scenario

    params = _field_values(args, scenario.SatelliteYieldParams)
    p = scenario.SatelliteYieldParams(**params)
    conv = scenario.YieldConvention(args.convention)
    lines = _header("satellite", dict(params, convention=args.convention))
    lines.append("yield")
    lines.append(repr(scenario.satellite_yield(p, conv)))
    return lines


def cmd_atmosphere(args) -> List[str]:
    from . import scenario

    params = _field_values(args, scenario.AtmosphereParams)
    p = scenario.AtmosphereParams(**params)
    lines = _header("atmosphere", params)
    lines.append("transmittance")
    lines.append(repr(scenario.atmospheric_transmittance(p)))
    return lines


def cmd_airport(args) -> List[str]:
    from . import scenario

    data_dir = (
        args.data_dir
        or os.environ.get(DATA_DIR_ENV)
        or os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "data", "airport_snapshot"
        )
    )
    airports = args.airports or os.path.join(data_dir, "airports.csv")
    routes = args.routes or os.path.join(data_dir, "routes.csv")
    try:
        ds = scenario.load_airport_dataset(airports, routes)
    except OSError as exc:
        raise DataError(f"cannot read dataset: {exc}")
    except ValueError as exc:
        raise DataError(str(exc))
    if not ds.airports:
        raise DataError(f"bad dataset: no airports in {airports}")
    if not ds.routes:
        raise DataError(f"bad dataset: no usable routes in {routes}")
    rep = scenario.airport_report(ds, p_star=args.p_star, top_n=args.top)
    params = {
        "airports": airports, "routes": routes, "p_star": args.p_star,
        "skipped_routes": ds.skipped_routes,
    }
    return _header("airport", params) + _airport_lines(rep)


def _airport_lines(rep: scenario.AirportReport) -> List[str]:
    return [
        "metric,value",
        f"n_nodes,{rep.n_nodes}",
        f"n_edges,{rep.n_edges}",
        f"longest_route_km,{rep.longest_route_km!r}",
        f"longest_route_pair,{rep.longest_route_pair[0]}|{rep.longest_route_pair[1]}",
        f"mean_route_km,{rep.mean_route_km!r}",
        f"link_sparsity,{rep.link_sparsity!r}",
        f"total_connection_strength,{rep.total_connection_strength!r}",
        "# top critical airports",
    ] + _node_rows(rep.top_critical_airports)


def cmd_buffer(args) -> Tuple[List[str], IO[str]]:
    import json
    import tempfile

    from . import buffersim

    try:
        cfg = buffersim.load_config(args.config)
    except OSError as exc:
        raise DataError(f"cannot read config: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"bad config file: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad config contents: {exc}")
    # the header's counters are known only at the end, so the rows are spooled
    rows = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    try:
        res = buffersim.run(cfg, rows.write)
    except BaseException:
        rows.close()
        raise
    params = {
        "config": args.config, "inserts": res.inserts, "dispatches": res.dispatches,
        "evictions": res.evictions, "rejects": res.rejects, "residual": res.residual,
    }
    return _header("buffer", params), rows


def cmd_evolve(args) -> List[str]:
    from . import netgraph

    net = _load_net(args.infile)
    seq = netgraph.evolve(net, args.w, args.k, args.p_star, args.steps)
    params = {"in": args.infile, "w": args.w, "k": args.k, "p_star": args.p_star, "steps": args.steps}
    lines = _header("evolve", params)
    lines.append("t,edges,cooperative_link_sparsity")
    for t, (g, ups) in enumerate(seq, start=1):
        lines.append(f"{t},{g.n_edges},{ups!r}")
    return lines


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def _frange(start: float, stop: float, step: float) -> List[float]:
    out = []
    x = start
    while x <= stop + 1e-12:
        out.append(round(x, 10))
        x += step
    return out


def _table(x: str, xs: Iterable, curve: str, values: Sequence, cell: Callable[..., str]) -> List[str]:
    """A figure series: the header x,curve=v,..., then per point at of xs the row at,cell(at, v),..."""
    lines = [",".join([x, *(f"{curve}={v}" for v in values)])]
    lines.extend(",".join([str(at), *(cell(at, v) for v in values)]) for at in xs)
    return lines


def _fig_max_relays(kind: str, qs: Sequence[float], **params) -> List[str]:
    from . import repeater

    task = repeater.TaskSpec(repeater.TaskKind(kind), **params)
    # a sentinel count's cell; a repeater count prints as itself
    cells = {repeater.Unbounded: "unbounded", repeater.NoneFeasible: "0"}

    def cell(lam, q):
        n = repeater.max_repeaters_floor_form(lam, q, task)
        return cells.get(type(n), str(n))

    return _table("lambda", _frange(0.7, 1.0, 0.005), "n_max_q", qs, cell)


def _fig_tradeoff(curve: str, bounds: dict, budget: repeater.LinkBudget) -> List[str]:
    """Storage time t against fiber length l on each budget line alpha*l + beta*t = bounds[v]."""

    def cell(l, v):
        t = (bounds[v] - budget.alpha * l) / budget.beta
        return repr(t) if t >= 0 else ""

    return _table("l_km", _frange(0.0, 30.0, 0.5), curve, bounds, cell)


def _fig_satellite(curve_key: str, values: Sequence[float], **base) -> List[str]:
    from . import scenario

    def cell(n, v):
        swept = {"l_b": v / 2.0, "l_m": v / 2.0} if curve_key == "L" else {curve_key: v}
        return repr(scenario.satellite_yield(scenario.SatelliteYieldParams(n=n, **{**base, **swept})))

    return _table("n", range(2, 21), f"yield_{curve_key}", values, cell)


def _fig_airport(curve_key: str, values: Sequence[float]) -> List[str]:
    from . import scenario

    return _table("l0_km", _frange(250.0, 2000.0, 50.0), f"yield_{curve_key}", values,
                  lambda l0, v: repr(scenario.airport_yield(l0_km=l0, **{**_AIRPORT, curve_key: v})))


def _fig_budget_sweep(field: str, values: Sequence[float], **base) -> List[str]:
    """Tradeoff lines for one LinkBudget field swept over values, from LinkBudget(**base)."""
    from . import repeater

    bounds = {v: repeater.critical_length_time_bound(repeater.LinkBudget(**{**base, field: v})).bound
              for v in values}
    return _fig_tradeoff(f"t_s_{field}", bounds, repeater.LinkBudget(**base))


def _fig12() -> List[str]:
    from . import repeater

    alpha = repeater.LinkBudget().alpha
    return _table("l_km", _frange(0.0, 100.0, 2.0), "eta_R_f", (1, 2, 4),
                  lambda l, f: repr(math.exp(-alpha * l / f)))


def _fig13() -> List[str]:
    from . import repeater

    budget = repeater.LinkBudget()
    return _fig_tradeoff("t_s_f", {f: repeater.f_fold_bound(f, budget.p_star) for f in (1, 2, 4)}, budget)


# the swept key of a satellite or airport figure overrides its base value;
# a satellite figure's base is SatelliteYieldParams' defaults, a tradeoff
# figure's LinkBudget's
_AIRPORT = dict(length_km=4000.0, q=1.0, eta_e=0.95, eta_g=0.5, kappa_g=0.5)
_RELAY_QS = (0.625, 0.95, 0.99)

# figure id -> builder of its CSV lines, in the order the CLI lists them
_FIGURES = {
    "fig4": lambda: _fig_max_relays("diqkd", (0.95, 0.99, 1.0), theta=math.pi / 4),
    "fig7": lambda: _fig_budget_sweep("eta_s", (0.9, 0.95, 1.0)),
    "fig8": lambda: _fig_budget_sweep("r", (1, 2, 4), eta_s=0.95),
    "fig12": _fig12,
    "fig13": _fig13,
    "fig17": lambda: _fig_satellite("L", (10.0, 20.0, 40.0)),
    "fig18": lambda: _fig_satellite("eta_s", (0.95, 0.99, 1.0), p_mem=0.95, l_b=5.0, l_m=5.0),
    "fig19": lambda: _fig_satellite("q", (0.9, 0.95, 1.0)),
    "fig20": lambda: _fig_airport("length_km", (4000.0, 8000.0, 12000.0)),
    "fig21": lambda: _fig_airport("q", (0.9, 0.95, 1.0)),
    "fig34": lambda: _fig_max_relays("teleportation", _RELAY_QS),
    "fig35": lambda: _fig_max_relays("chsh", _RELAY_QS),
    "fig36": lambda: _fig_max_relays("entanglement", _RELAY_QS),
}
FIGURE_IDS = tuple(_FIGURES)


def cmd_figure(args) -> List[str]:
    lines = _header("figure", {"id": args.fig_id})
    lines.extend(_FIGURES[args.fig_id]())
    return lines


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _count(text: str) -> int:
    """argparse type of a count option: an int >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _add_fields(p: argparse.ArgumentParser, cls) -> None:
    """One --field-name option per field of the dataclass cls.

    Each option takes its field's type and default; a field without a default
    is required. Its help adds the field's range. The class docstring, with
    the units, is the description.
    """
    p.description = inspect.cleandoc(cls.__doc__)
    p.formatter_class = argparse.RawDescriptionHelpFormatter
    hints = get_type_hints(cls)
    for f in fields(cls):
        required = f.default is MISSING
        p.add_argument("--" + f.name.replace("_", "-"), type=hints[f.name], required=required,
                       default=None if required else f.default,
                       help=("required" if required else "default %(default)s")
                       + ", " + f.metadata["range"].text)


# the graph commands' --p-star, checked by netgraph against P_STAR
_P_STAR_HELP = "critical success probability, default %(default)s, " + P_STAR.text


def _chain_options(p: argparse.ArgumentParser) -> None:
    from . import repeater

    chain = {f.name: f.metadata["range"].text for f in fields(repeater.ChainConfig)}
    task = {kind: rng.text for kind, (_, rng) in repeater.TASK_PARAMETERS.items()}
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="link visibility, " + chain["lam"])
    p.add_argument("--q", type=float, default=1.0,
                   help="Bell measurement success probability, " + chain["q"])
    p.add_argument("--task", choices=[t.value for t in repeater.TaskKind], default="entanglement")
    p.add_argument("--theta", type=float, help="DIQKD angle, radians, " + task[repeater.TaskKind.DIQKD])
    p.add_argument("--p-star", type=float,
                   help="custom critical probability, " + task[repeater.TaskKind.CUSTOM])
    p.add_argument("--ent-mode", choices=[m.value for m in repeater.EntanglementMode],
                   default="ppt-threshold")
    p.add_argument("--n", type=int, help="evaluate a fixed repeater count instead of the maximum")


def _tradeoff_options(p: argparse.ArgumentParser) -> None:
    from . import repeater

    _add_fields(p, repeater.LinkBudget)
    p.add_argument("--f", type=float, help="also report the f-fold advantage bound")


def _nqi_options(p: argparse.ArgumentParser) -> None:
    from . import repeater

    p.add_argument("--length", type=float, required=True,
                   help="length of the line, km, " + repeater.NQI_LENGTH.text)
    p.add_argument("--n", type=int, required=True, help="number of links, " + repeater.NQI_N.text)
    p.add_argument("--q", type=float, default=1.0,
                   help="Bell measurement success probability, default %(default)s, "
                   + repeater.NQI_Q.text)


def _net_options(p: argparse.ArgumentParser, p_star: float) -> None:
    """The edge-list commands' --in and their --p-star, whose default is p_star."""
    p.add_argument("--in", dest="infile", required=True, help="edge list file (a,b,p per line)")
    p.add_argument("--p-star", type=float, default=p_star, help=_P_STAR_HELP)


def _critical_nodes_options(p: argparse.ArgumentParser) -> None:
    _net_options(p, 0.5)
    p.add_argument("--top", type=_count, default=10)


def _path_options(p: argparse.ArgumentParser) -> None:
    _net_options(p, 0.5)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)


def _topology_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=_TOPOLOGIES, required=True)
    p.add_argument("--n", type=int, default=8,
                   help="star, mesh and circulant node count, default %(default)s, " + TOPOLOGY_N.text)
    p.add_argument("--d", type=int, default=2,
                   help="circulant degree, default %(default)s, " + TOPOLOGY_D.text + " and < n")
    p.add_argument("--width", type=int, default=4,
                   help="grid width, default %(default)s, " + GRID_SIDE.text)
    p.add_argument("--height", type=int, default=4,
                   help="grid height, default %(default)s, " + GRID_SIDE.text)
    p.add_argument("--p", type=float, default=0.9,
                   help="edge probability, default %(default)s, " + EDGE_P.text)
    p.add_argument("--edges-out", help="write the edge list here")


def _satellite_options(p: argparse.ArgumentParser) -> None:
    from . import scenario

    _add_fields(p, scenario.SatelliteYieldParams)
    p.add_argument("--convention", choices=[c.value for c in scenario.YieldConvention],
                   default="derivation")


def _atmosphere_options(p: argparse.ArgumentParser) -> None:
    from . import scenario

    _add_fields(p, scenario.AtmosphereParams)


def _airport_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--airports", help="airports.csv (default from data dir)")
    p.add_argument("--routes", help="routes.csv (default from data dir)")
    p.add_argument("--data-dir", help=f"snapshot directory (default ${DATA_DIR_ENV})")
    p.add_argument("--p-star", type=float, default=0.1, help=_P_STAR_HELP)
    p.add_argument("--top", type=_count, default=10)


def _buffer_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON simulation config")


def _evolve_options(p: argparse.ArgumentParser) -> None:
    _net_options(p, 0.1)
    p.add_argument("--w", type=float, default=0.9,
                   help="weight per step, default %(default)s, " + EVOLVE_W.text)
    p.add_argument("--k", type=float, default=0.3,
                   help="decay rate, default %(default)s, " + EVOLVE_K.text)
    p.add_argument("--steps", type=_count, default=10)


def _figure_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("fig_id", choices=FIGURE_IDS)


# subcommand -> (help line, builder of its options, handler), in the order the CLI lists them
_COMMANDS = {
    "chain": ("linear repeater chain feasibility", _chain_options, cmd_chain),
    "tradeoff": ("fiber length / storage time budget", _tradeoff_options, cmd_tradeoff),
    "nqi": ("fiber loss bound for an n-node line", _nqi_options, cmd_nqi),
    "graph": ("robustness metrics of an edge-list graph", lambda p: _net_options(p, 0.5), cmd_graph),
    "critical-nodes": ("critical-parameter node ranking", _critical_nodes_options, cmd_critical_nodes),
    "path": ("best path between two nodes", _path_options, cmd_path),
    "topology": ("generate a reference topology", _topology_options, cmd_topology),
    "satellite": ("satellite chain entanglement yield", _satellite_options, cmd_satellite),
    "atmosphere": ("free-space link transmittance", _atmosphere_options, cmd_atmosphere),
    "airport": ("airport route network report", _airport_options, cmd_airport),
    "buffer": ("entanglement buffer simulation", _buffer_options, cmd_buffer),
    "evolve": ("time-varying network decay", _evolve_options, cmd_evolve),
    "figure": ("regenerate a figure data series as CSV", _figure_options, cmd_figure),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The qnetlim parser, with the options of every subcommand or of `command` alone.

    Every other subcommand keeps its name and help line, which is all that
    `qnetlim --help` and an invalid-choice error print.
    """
    parser = argparse.ArgumentParser(
        prog="qnetlim",
        description="Feasibility limits and robustness analysis of quantum networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_options, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command in (None, name):
            add_options(p)
            p.add_argument("--out", help="write output here instead of stdout")
            p.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option that takes a value, so its first
    # positional argument, the subcommand, is the first one without a dash
    command = next((a for a in argv if not a.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    try:
        lines = args.func(args)
        lines, rows = lines if isinstance(lines, tuple) else (lines, None)  # buffer spools its rows
        _emit(lines, args.out, rows)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
