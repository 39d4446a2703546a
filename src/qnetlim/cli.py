"""Command-line front end.

Every subcommand writes CSV (or a short text report) with the resolved
parameters echoed as `#` comment lines, either to stdout or to --out.
Exit codes: 0 success, 1 data error (bad files, infeasible parameters),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import IO, Iterable, List, Optional, Sequence, Tuple

from . import buffersim, netgraph, qstate, repeater, scenario

DATA_DIR_ENV = "QNETLIM_DATA_DIR"


class DataError(Exception):
    pass


def _emit(lines: Iterable[str], out: Optional[str], rows: Optional[IO[str]] = None) -> None:
    """Writes the lines, then the spooled `rows` file if any, to --out or stdout."""
    fh = open(out, "w") if out else sys.stdout
    try:
        fh.write("\n".join(lines) + "\n")
        if rows is not None:
            with rows:
                rows.seek(0)
                while chunk := rows.read(1 << 20):
                    fh.write(chunk)
    finally:
        if out:
            fh.close()


def _header(cmd: str, params: dict) -> List[str]:
    lines = [f"# command: {cmd}"]
    for k in sorted(params):
        lines.append(f"# {k} = {params[k]}")
    return lines


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _make_task(args) -> repeater.TaskSpec:
    kind = repeater.TaskKind(args.task)
    mode = repeater.EntanglementMode(args.ent_mode)
    return repeater.TaskSpec(kind, theta=args.theta, p_star=args.p_star, entanglement_mode=mode)


def cmd_chain(args) -> List[str]:
    task = _make_task(args)
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
    budget = repeater.LinkBudget(
        alpha=args.alpha, beta=args.beta, eta_s=args.eta_s,
        r=args.r, q=args.q, p_star=args.p_star,
    )
    bound = repeater.critical_length_time_bound(budget)
    params = {
        "alpha": args.alpha, "beta": args.beta, "eta_s": args.eta_s,
        "r": args.r, "q": args.q, "p_star": args.p_star, "f": args.f,
    }
    lines = _header("tradeoff", params)
    lines.append("bound,feasible_at_zero,f_fold_bound")
    fb = repeater.f_fold_bound(args.f, args.p_star) if args.f else ""
    lines.append(f"{bound.bound!r},{bound.feasible_at_zero},{_fmt(fb)}")
    if not bound.feasible_at_zero:
        raise DataError("infeasible even at zero distance: bound is not positive")
    return lines


def cmd_nqi(args) -> List[str]:
    params = {"length_km": args.length, "n": args.n, "q": args.q}
    lines = _header("nqi", params)
    bound = repeater.nqi_alpha_bound(args.length, args.n, args.q)
    if bound is None:
        raise DataError("no positive loss-rate bound: 3 q^n <= 1")
    lines.append("alpha_bound_per_km")
    lines.append(repr(bound))
    return lines


def _load_net(path) -> netgraph.Network:
    try:
        net = netgraph.load_edge_list(path)
    except OSError as exc:
        raise DataError(f"cannot read graph file: {exc}")
    except ValueError as exc:
        raise DataError(f"bad graph file: {exc}")
    if not net.n_edges:
        raise DataError(f"bad graph file: no edges in {path}")
    return net


# graph's rows: name, metric(net, strategy, p_star)
_GRAPH_METRICS = (
    ("link_sparsity", lambda net, s, p: netgraph.link_sparsity(net, p, s)),
    ("total_connection_strength", netgraph.total_connection_strength),
    ("sparsity_index", netgraph.sparsity_index),
)


def cmd_graph(args) -> List[str]:
    net = _load_net(args.infile)
    params = {"in": args.infile, "p_star": args.p_star, "weights": "bits (-log2 p)"}
    lines = _header("graph", params)
    lines.append("metric,non_cooperative,cooperative")
    nc, co = netgraph.StrategyKind.NON_COOPERATIVE, netgraph.StrategyKind.COOPERATIVE
    for name, metric in _GRAPH_METRICS:
        lines.append(f"{name},{metric(net, nc, args.p_star)!r},{metric(net, co, args.p_star)!r}")
    avg = netgraph.average_effective_weight(net, args.p_star)
    lines.append(f"average_effective_weight_bits,{avg!r},{avg!r}")
    return lines


def _node_rows(reports: Sequence[netgraph.NodeReport]) -> List[str]:
    lines = ["node,clustering,centrality,strength,critical_parameter"]
    for r in reports:
        nu = "undefined" if isinstance(r.critical_parameter, netgraph.Undefined) else repr(r.critical_parameter)
        lines.append(f"{r.node},{r.clustering!r},{r.centrality},{r.strength!r},{nu}")
    return lines


def cmd_critical_nodes(args) -> List[str]:
    net = _load_net(args.infile)
    params = {"in": args.infile, "p_star": args.p_star, "top": args.top}
    reports = netgraph.critical_parameters(net, args.p_star)
    return _header("critical-nodes", params) + _node_rows(reports[: args.top])


def cmd_path(args) -> List[str]:
    net = _load_net(args.infile)
    params = {"in": args.infile, "source": args.source, "target": args.target, "p_star": args.p_star}
    lines = _header("path", params)
    try:
        res = netgraph.shortest_path(net, args.source, args.target, args.p_star)
    except KeyError as exc:
        raise DataError(f"unknown node: {exc}")
    lines.append("status,probability,total_weight_bits,path")
    lines.append(
        f"{res.status.value},{res.probability!r},{res.total_weight!r},"
        + "-".join(str(v) for v in res.nodes)
    )
    if res.status is netgraph.PathStatus.DISCONNECTED:
        raise DataError("no path meets the threshold")
    return lines


_TOPOLOGIES = {
    "star": lambda a: netgraph.Star(a.n, a.p),
    "mesh": lambda a: netgraph.FullMesh(a.n, a.p),
    "circulant": lambda a: netgraph.Circulant(a.n, a.d, a.p),
    "grid": lambda a: netgraph.Grid(a.width, a.height, a.p),
    "cell-square": lambda a: netgraph.ProcessorCell(netgraph.CellKind.SQUARE, a.p),
    "cell-octagonal": lambda a: netgraph.ProcessorCell(netgraph.CellKind.OCTAGONAL, a.p),
    "cell-heavy-hex": lambda a: netgraph.ProcessorCell(netgraph.CellKind.HEAVY_HEXAGONAL, a.p),
    "square1024": lambda a: netgraph.Square1024(a.p),
}


def cmd_topology(args) -> List[str]:
    net = netgraph.build_topology(_TOPOLOGIES[args.kind](args))
    if args.edges_out:
        netgraph.save_edge_list(net, args.edges_out)
    params = {"kind": args.kind, "p": args.p, "nodes": net.n_nodes, "edges": net.n_edges}
    lines = _header("topology", params)
    lines.append("nodes,edges,edge_file")
    lines.append(f"{net.n_nodes},{net.n_edges},{args.edges_out or ''}")
    return lines


def cmd_satellite(args) -> List[str]:
    p = scenario.SatelliteYieldParams(
        n=args.n, eta_e=args.eta_e, eta_s=args.eta_s, q=args.q,
        p_mem=args.p_mem, s=args.s, alpha=args.alpha,
        l_b=args.l_b, l_m=args.l_m, eta_g=args.eta_g, kappa_g=args.kappa_g,
        eta_crit=args.eta_crit,
    )
    conv = scenario.YieldConvention(args.convention)
    params = {k: getattr(args, k) for k in (
        "n", "eta_e", "eta_s", "q", "p_mem", "s", "alpha", "l_b", "l_m",
        "eta_g", "kappa_g", "eta_crit", "convention",
    )}
    lines = _header("satellite", params)
    lines.append("yield")
    lines.append(repr(scenario.satellite_yield(p, conv)))
    return lines


def cmd_atmosphere(args) -> List[str]:
    p = scenario.AtmosphereParams(
        omega0=args.omega0, z_rayleigh=args.z_rayleigh, z=args.z, r=args.r,
        sigma_r=args.sigma_r, fresnel_ratio=args.fresnel_ratio,
        xi_t=args.xi_t, xi_r=args.xi_r, xi_as=args.xi_as, eta=args.eta,
    )
    params = {k: getattr(args, k) for k in (
        "omega0", "z_rayleigh", "z", "r", "sigma_r", "fresnel_ratio",
        "xi_t", "xi_r", "xi_as", "eta",
    )}
    lines = _header("atmosphere", params)
    lines.append("transmittance")
    lines.append(repr(scenario.atmospheric_transmittance(p)))
    return lines


def _default_data_dir() -> str:
    return os.environ.get(
        DATA_DIR_ENV,
        os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "data"),
    )


def cmd_airport(args) -> List[str]:
    data_dir = args.data_dir or os.path.join(_default_data_dir(), "airport_snapshot")
    airports = args.airports or os.path.join(data_dir, "airports.csv")
    routes = args.routes or os.path.join(data_dir, "routes.csv")
    try:
        ds = scenario.load_airport_dataset(airports, routes)
    except OSError as exc:
        raise DataError(f"cannot read dataset: {exc}")
    except ValueError as exc:
        raise DataError(str(exc))
    net = scenario.load_airport_network(ds)
    rep = scenario.airport_report(net, p_star=args.p_star, top_n=args.top)
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
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise DataError(f"bad config file: {exc}")
    try:
        cfg = buffersim.SimConfig(
            capacity=raw["capacity"],
            p_mem=raw["p_mem"],
            eta_crit=raw["eta_crit"],
            arrivals=tuple(buffersim.Arrival(**a) for a in raw["arrivals"]),
            flows=tuple(buffersim.FlowRequest(**f) for f in raw["flows"]),
            horizon=raw["horizon"],
            decay_mode=buffersim.DecayMode(raw.get("decay_mode", "iterated")),
            service_order=buffersim.ServiceOrder(raw.get("service_order", "highest-fidelity")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad config contents: {exc}")
    import tempfile  # already loaded through numpy

    # the header's counters are known only at the end, so the rows are spooled
    rows = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    try:
        rows.write(buffersim.TRACE_HEADER)
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


def _fig_max_relays(task: repeater.TaskSpec, qs: Sequence[float]) -> List[str]:
    lines = ["lambda," + ",".join(f"n_max_q={q}" for q in qs)]
    for lam in _frange(0.7, 1.0, 0.005):
        row = [f"{lam}"]
        for q in qs:
            n = repeater.max_repeaters_floor_form(lam, q, task)
            if isinstance(n, repeater.Unbounded):
                row.append("unbounded")
            elif isinstance(n, repeater.NoneFeasible):
                row.append("0")
            else:
                row.append(str(n))
        lines.append(",".join(row))
    return lines


def _fig_tradeoff_lines(curves: Sequence[Tuple[str, float]], alpha: float, beta: float) -> List[str]:
    """Storage time t against fiber length l on the budget line alpha*l + beta*t = B."""
    lines = ["l_km," + ",".join(name for name, _ in curves)]
    for l in _frange(0.0, 30.0, 0.5):
        row = [f"{l}"]
        for _, bound in curves:
            t = (bound - alpha * l) / beta
            row.append(repr(t) if t >= 0 else "")
        lines.append(",".join(row))
    return lines


def _fig_satellite(curve_key: str, values: Sequence[float], base: dict) -> List[str]:
    lines = ["n," + ",".join(f"yield_{curve_key}={v}" for v in values)]
    for n in range(2, 21):
        row = [str(n)]
        for v in values:
            kw = dict(base)
            if curve_key == "L":
                kw["l_b"] = v / 2.0
                kw["l_m"] = v / 2.0
            else:
                kw[curve_key] = v
            p = scenario.SatelliteYieldParams(n=n, **kw)
            row.append(repr(scenario.satellite_yield(p)))
        lines.append(",".join(row))
    return lines


def _fig_airport(curve_key: str, values: Sequence[float], base: dict) -> List[str]:
    lines = ["l0_km," + ",".join(f"yield_{curve_key}={v}" for v in values)]
    for l0 in _frange(250.0, 2000.0, 50.0):
        row = [str(l0)]
        for v in values:
            kw = dict(base)
            kw[curve_key] = v
            row.append(repr(scenario.airport_yield(l0_km=l0, **kw)))
        lines.append(",".join(row))
    return lines


def _fig_budget_sweep(field: str, values: Sequence[float], base: repeater.LinkBudget) -> List[str]:
    """Tradeoff lines for one LinkBudget field swept over values."""
    curves = [
        (f"t_s_{field}={v}", repeater.critical_length_time_bound(replace(base, **{field: v})).bound)
        for v in values
    ]
    return _fig_tradeoff_lines(curves, base.alpha, base.beta)


def _fig12() -> List[str]:
    lines = ["l_km," + ",".join(f"eta_R_f={f}" for f in (1, 2, 4))]
    for l in _frange(0.0, 100.0, 2.0):
        lines.append(",".join([f"{l}"] + [repr(math.exp(-0.051 * l / f)) for f in (1, 2, 4)]))
    return lines


_BUDGET = repeater.LinkBudget(alpha=0.051, beta=0.001, eta_s=1.0, r=1, q=1.0, p_star=0.5)
# the swept key of a satellite or airport figure overrides its base value
_SATELLITE = dict(eta_e=0.95, eta_s=0.9, q=1.0, p_mem=0.1, s=1, alpha=1 / 22,
                  l_b=10.0, l_m=10.0, eta_g=0.5, kappa_g=0.5)
_AIRPORT = dict(length_km=4000.0, q=1.0, eta_e=0.95, eta_g=0.5, kappa_g=0.5)
_RELAY_QS = (0.625, 0.95, 0.99)

# figure id -> builder of its CSV lines, in the order the CLI lists them
_FIGURES = {
    "fig4": lambda: _fig_max_relays(
        repeater.TaskSpec(repeater.TaskKind.DIQKD, theta=math.pi / 4), (0.95, 0.99, 1.0)
    ),
    "fig7": lambda: _fig_budget_sweep("eta_s", (0.9, 0.95, 1.0), _BUDGET),
    "fig8": lambda: _fig_budget_sweep("r", (1, 2, 4), replace(_BUDGET, eta_s=0.95)),
    "fig12": _fig12,
    "fig13": lambda: _fig_tradeoff_lines(
        [(f"t_s_f={f}", repeater.f_fold_bound(f, 0.5)) for f in (1, 2, 4)], 0.051, 0.001
    ),
    "fig17": lambda: _fig_satellite("L", (10.0, 20.0, 40.0), _SATELLITE),
    "fig18": lambda: _fig_satellite(
        "eta_s", (0.95, 0.99, 1.0), dict(_SATELLITE, p_mem=0.95, l_b=5.0, l_m=5.0)
    ),
    "fig19": lambda: _fig_satellite("q", (0.9, 0.95, 1.0), _SATELLITE),
    "fig20": lambda: _fig_airport("length_km", (4000.0, 8000.0, 12000.0), _AIRPORT),
    "fig21": lambda: _fig_airport("q", (0.9, 0.95, 1.0), _AIRPORT),
    "fig34": lambda: _fig_max_relays(repeater.TaskSpec(repeater.TaskKind.TELEPORTATION), _RELAY_QS),
    "fig35": lambda: _fig_max_relays(repeater.TaskSpec(repeater.TaskKind.CHSH), _RELAY_QS),
    "fig36": lambda: _fig_max_relays(repeater.TaskSpec(repeater.TaskKind.ENTANGLEMENT), _RELAY_QS),
}
FIGURE_IDS = tuple(_FIGURES)


def cmd_figure(args) -> List[str]:
    lines = _header("figure", {"id": args.fig_id})
    lines.extend(_FIGURES[args.fig_id]())
    return lines


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetlim",
        description="Feasibility limits and robustness analysis of quantum networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chain", help="linear repeater chain feasibility")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="link visibility in [0,1]")
    p.add_argument("--q", type=float, default=1.0, help="Bell measurement success probability")
    p.add_argument("--task", choices=[t.value for t in repeater.TaskKind], default="entanglement")
    p.add_argument("--theta", type=float, help="DIQKD angle in radians, (0, pi/2)")
    p.add_argument("--p-star", type=float, help="custom critical probability in (0,1)")
    p.add_argument("--ent-mode", choices=[m.value for m in repeater.EntanglementMode],
                   default="ppt-threshold")
    p.add_argument("--n", type=int, help="evaluate a fixed repeater count instead of the maximum")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("tradeoff", help="fiber length / storage time budget")
    p.add_argument("--alpha", type=float, default=0.051, help="fiber loss, 1/km")
    p.add_argument("--beta", type=float, default=0.001, help="memory loss, 1/s")
    p.add_argument("--eta-s", type=float, default=1.0, help="source efficiency")
    p.add_argument("--r", type=int, default=1, help="repeater count >= 1")
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--p-star", type=float, default=0.5)
    p.add_argument("--f", type=float, help="also report the f-fold advantage bound")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("nqi", help="fiber loss bound for an n-node line")
    p.add_argument("--length", type=float, required=True, help="end-to-end length, km")
    p.add_argument("--n", type=int, required=True, help="number of links")
    p.add_argument("--q", type=float, default=1.0)
    p.set_defaults(func=cmd_nqi)

    p = sub.add_parser("graph", help="robustness metrics of an edge-list graph")
    p.add_argument("--in", dest="infile", required=True, help="edge list file (a,b,p per line)")
    p.add_argument("--p-star", type=float, default=0.5)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("critical-nodes", help="critical-parameter node ranking")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p-star", type=float, default=0.5)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_critical_nodes)

    p = sub.add_parser("path", help="best path between two nodes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--p-star", type=float, default=0.5)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("topology", help="generate a reference topology")
    p.add_argument("--kind", choices=_TOPOLOGIES, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--d", type=int, default=2, help="circulant degree")
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--p", type=float, default=0.9)
    p.add_argument("--edges-out", help="write the edge list here")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("satellite", help="satellite chain entanglement yield")
    p.add_argument("--n", type=int, required=True, help="satellite-satellite links")
    p.add_argument("--eta-e", type=float, default=0.95)
    p.add_argument("--eta-s", type=float, default=0.9)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--p-mem", type=float, default=0.1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1 / 22)
    p.add_argument("--l-b", type=float, default=10.0, help="fiber to first endpoint, km")
    p.add_argument("--l-m", type=float, default=10.0, help="fiber to second endpoint, km")
    p.add_argument("--eta-g", type=float, default=0.5)
    p.add_argument("--kappa-g", type=float, default=0.5)
    p.add_argument("--eta-crit", type=float, default=0.0)
    p.add_argument("--convention", choices=[c.value for c in scenario.YieldConvention],
                   default="derivation")
    p.set_defaults(func=cmd_satellite)

    p = sub.add_parser("atmosphere", help="free-space link transmittance")
    p.add_argument("--omega0", type=float, default=0.0021, help="beam waist, m")
    p.add_argument("--z-rayleigh", type=float, default=17.8, help="Rayleigh range, m")
    p.add_argument("--z", type=float, default=0.0, help="link distance, m")
    p.add_argument("--r", type=float, default=0.1, help="aperture radius, m")
    p.add_argument("--sigma-r", type=float, default=0.1)
    p.add_argument("--fresnel-ratio", type=float, default=0.1)
    p.add_argument("--xi-t", type=float, default=1.0)
    p.add_argument("--xi-r", type=float, default=1.0)
    p.add_argument("--xi-as", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1.0)
    p.set_defaults(func=cmd_atmosphere)

    p = sub.add_parser("airport", help="airport route network report")
    p.add_argument("--airports", help="airports.csv (default from data dir)")
    p.add_argument("--routes", help="routes.csv (default from data dir)")
    p.add_argument("--data-dir", help=f"snapshot directory (default ${DATA_DIR_ENV})")
    p.add_argument("--p-star", type=float, default=0.1)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_airport)

    p = sub.add_parser("buffer", help="entanglement buffer simulation")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.set_defaults(func=cmd_buffer)

    p = sub.add_parser("evolve", help="time-varying network decay")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--w", type=float, default=0.9)
    p.add_argument("--k", type=float, default=0.3)
    p.add_argument("--p-star", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("figure", help="regenerate a figure data series as CSV")
    p.add_argument("fig_id", choices=FIGURE_IDS)
    p.set_defaults(func=cmd_figure)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="write output here instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines = args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    lines, rows = lines if isinstance(lines, tuple) else (lines, None)  # buffer spools its rows
    _emit(lines, args.out, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
