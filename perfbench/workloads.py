"""Seeded inputs, command lists and output checks for the four workloads.

Each workload is a function ``make_<name>(seed, root, work)`` that writes
its inputs into ``work`` and returns a :class:`Plan`: the ``qnetlim``
commands of one pass, each with a check of its output, and the argument
list for ``setup_load.py``. Seed 0 reproduces the reference inputs
exactly (the bundled airport snapshot, Square1024 with its own labels);
other seeds relabel or redraw them.

Checks compare against ``reference.json``, which holds seed-0 values
recorded from the program. Label-invariant floats are compared on every
seed at a relative tolerance of 1e-9 (relabeling changes summation
order); byte digests only on seed 0, and only for outputs that do not
depend on scipy's tie order.

Run ``python3 perfbench/workloads.py --record`` from the repository root
to rewrite ``reference.json``, and only when an output change is
intended.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REL_TOL = 1e-9


class CheckError(Exception):
    """An output that differs from what the workload expects."""


@dataclass
class Command:
    tag: str
    argv: List[str]
    check: Callable[[str, dict], None]
    # "a"/"b" for the two buffer configs; splits buffersim.run_s
    config: str = ""


@dataclass
class Plan:
    workload: str
    commands: List[Command]
    load_args: List[str]
    # seed-0 outputs keyed by command tag -> this workload's reference.json entry
    record: Callable[[Dict[str, str]], dict]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output parsing and comparison
# ---------------------------------------------------------------------------


def header(text: str) -> Dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            k, v = line[2:].split(" = ", 1)
            out[k] = v
    return out


def data_rows(text: str) -> List[List[str]]:
    return [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith("#")]


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def expect_close(name: str, got: float, want: float) -> None:
    expect(
        math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-300),
        f"{name}: got {got!r}, want {want!r} (rel {REL_TOL})",
    )


def expect_digest(name: str, text: str, want: str) -> None:
    expect(sha256(text) == want, f"{name}: output digest differs from seed-0 reference")


def check_ranking(rows: List[List[str]], valid_ids, top: int) -> None:
    """Form of a critical-node table: `top` rows, valid ids, documented order.

    Defined critical parameters come first in descending order (ties by
    descending centrality); undefined ones follow by descending centrality.
    """
    expect(len(rows) == top, f"ranking has {len(rows)} rows, want {top}")
    ids = [r[0] for r in rows]
    expect(len(set(ids)) == len(ids), "ranking repeats a node")
    expect(all(i in valid_ids for i in ids), "ranking names an unknown node")
    keys = []
    for node, _clust, cent, _strength, nu in rows:
        defined = nu != "undefined"
        keys.append((0 if defined else 1, -float(nu) if defined else 0.0, -int(cent)))
    expect(keys == sorted(keys), "ranking is not in the documented order")


# ---------------------------------------------------------------------------
# airport
# ---------------------------------------------------------------------------


AIRPORT_FLOATS = ("longest_route_km", "mean_route_km", "link_sparsity", "total_connection_strength")


def _read_csv(path: Path) -> List[List[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_csv(path: Path, rows: List[List[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _verified_snapshot(root: Path) -> Path:
    snap = root / "data" / "airport_snapshot"
    for line in (snap / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        if sha256((snap / name).read_bytes()) != digest:
            raise RuntimeError(f"{snap / name} does not match SHA256SUMS")
    return snap


def make_airport(seed: int, root: Path, work: Path) -> Plan:
    snap = _verified_snapshot(root)
    airports = _read_csv(snap / "airports.csv")
    routes = _read_csv(snap / "routes.csv")
    ids = [row[0] for row in airports[1:]]
    if seed == 0:
        shutil.copyfile(snap / "airports.csv", work / "airports.csv")
        shutil.copyfile(snap / "routes.csv", work / "routes.csv")
        mapping = {i: i for i in ids}
    else:
        rng = random.Random(seed)
        perm = ids[:]
        rng.shuffle(perm)
        mapping = dict(zip(ids, perm))
        body = [[mapping[r[0]]] + r[1:] for r in airports[1:]]
        rng.shuffle(body)
        _write_csv(work / "airports.csv", [airports[0]] + body)
        edges = [[mapping[a], mapping[b]] for a, b in routes[1:]]
        rng.shuffle(edges)
        _write_csv(work / "routes.csv", [routes[0]] + edges)
    inverse = {v: k for k, v in mapping.items()}
    valid = set(mapping.values())

    def parse(text):
        metrics, table = {}, []
        for row in data_rows(text):
            if row[0] in ("metric", "node"):
                continue
            if len(row) == 2:
                metrics[row[0]] = row[1]
            else:
                table.append(row)
        return metrics, table

    def check(text, ref):
        metrics, table = parse(text)
        expect(header(text).get("skipped_routes") == str(ref["skipped_routes"]), "skipped_routes")
        for k in ("n_nodes", "n_edges"):
            expect(int(metrics[k]) == ref[k], f"{k}: got {metrics[k]}, want {ref[k]}")
        for k in AIRPORT_FLOATS:
            expect_close(k, float(metrics[k]), ref[k])
        pair = {inverse.get(v) for v in metrics["longest_route_pair"].split("|")}
        expect(pair == set(ref["longest_route_pair"]), "longest_route_pair")
        # the order is a scipy tie-order artifact: check form only
        check_ranking(table, valid, ref["top"])

    def record(outputs):
        metrics, table = parse(outputs["airport"])
        ref = {k: int(metrics[k]) for k in ("n_nodes", "n_edges")}
        ref.update({k: float(metrics[k]) for k in AIRPORT_FLOATS})
        ref["longest_route_pair"] = metrics["longest_route_pair"].split("|")
        ref["skipped_routes"] = int(header(outputs["airport"])["skipped_routes"])
        ref["top"] = len(table)
        return ref

    cmd = Command("airport", ["airport", "--airports", "airports.csv", "--routes", "routes.csv"], check)
    return Plan("airport", [cmd], ["airport", "airports.csv", "routes.csv"], record)


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


LATTICE_SIDE = 32
LATTICE_P = "0.9"


def lattice_edges(side: int = LATTICE_SIDE):
    """Grid edges in Square1024's labels: node y*side + x."""
    for y in range(side):
        for x in range(side):
            v = y * side + x
            if x + 1 < side:
                yield v, v + 1
            if y + 1 < side:
                yield v, v + side


def make_lattice(seed: int, root: Path, work: Path) -> Plan:
    n = LATTICE_SIDE * LATTICE_SIDE
    perm = list(range(n))
    if seed != 0:
        random.Random(seed).shuffle(perm)
    edges = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in lattice_edges())
    with open(work / "lattice.edges", "w") as fh:
        fh.write("# node_a,node_b,p\n")
        fh.writelines(f"{a},{b},{LATTICE_P}\n" for a, b in edges)
    adjacent = {(str(a), str(b)) for a, b in edges} | {(str(b), str(a)) for a, b in edges}
    labels = {str(v) for v in perm}
    source, target = str(perm[0]), str(perm[n - 1])

    def check_topology(text, ref):
        h = header(text)
        expect((int(h["nodes"]), int(h["edges"])) == (n, len(edges)), "topology counts")
        expect_digest("topology edge file", (work / "topology.edges").read_text(), ref["topology_edges"])

    def graph_values(text):
        return {r[0]: (float(r[1]), float(r[2])) for r in data_rows(text)[1:]}

    def check_graph(text, ref):
        got = graph_values(text)
        expect(sorted(got) == sorted(ref["graph"]), "graph metric names")
        for k, (nc, co) in got.items():
            expect_close(f"{k} non-cooperative", nc, ref["graph"][k][0])
            expect_close(f"{k} cooperative", co, ref["graph"][k][1])
        if seed == 0:
            expect_digest("graph", text, ref["sha256"]["graph"])

    def check_critical(text, ref):
        check_ranking(data_rows(text)[1:], labels, ref["top"])
        if seed == 0:
            expect_digest("critical-nodes", text, ref["sha256"]["critical-nodes"])

    def evolve_values(text):
        return [[int(r[1]), float(r[2])] for r in data_rows(text)[1:]]

    def check_evolve(text, ref):
        got = evolve_values(text)
        expect(len(got) == len(ref["evolve"]), "evolve step count")
        for t, ((e, s), (re_, rs)) in enumerate(zip(got, ref["evolve"]), start=1):
            expect(e == re_, f"evolve t={t} edges: got {e}, want {re_}")
            expect_close(f"evolve t={t} sparsity", s, rs)
        if seed == 0:
            expect_digest("evolve", text, ref["sha256"]["evolve"])

    def path_values(text):
        status, prob, weight, path = data_rows(text)[1]
        return status, float(prob), float(weight), path.split("-")

    def check_path(text, ref):
        status, prob, weight, nodes = path_values(text)
        expect(status == "found", f"path status {status}")
        expect_close("path probability", prob, ref["path"]["probability"])
        expect_close("path weight", weight, ref["path"]["total_weight"])
        expect(len(nodes) == ref["path"]["hops"] + 1, "path length")
        expect(nodes[0] == source and nodes[-1] == target, "path endpoints")
        expect(all(pair in adjacent for pair in zip(nodes, nodes[1:])), "path uses a non-edge")
        if seed == 0:
            expect_digest("path", text, ref["sha256"]["path"])

    def record(outputs):
        status, prob, weight, nodes = path_values(outputs["path"])
        return {
            "topology_edges": sha256((work / "topology.edges").read_text()),
            "graph": graph_values(outputs["graph"]),
            "top": len(data_rows(outputs["critical-nodes"])) - 1,
            "evolve": evolve_values(outputs["evolve"]),
            "path": {"probability": prob, "total_weight": weight, "hops": len(nodes) - 1},
            "sha256": {k: sha256(outputs[k]) for k in ("graph", "critical-nodes", "evolve", "path")},
        }

    commands = [
        Command("topology", ["topology", "--kind", "square1024", "--p", LATTICE_P,
                             "--edges-out", "topology.edges"], check_topology),
        Command("graph", ["graph", "--in", "lattice.edges", "--p-star", "0.5"], check_graph),
        Command("critical-nodes", ["critical-nodes", "--in", "lattice.edges"], check_critical),
        Command("evolve", ["evolve", "--in", "lattice.edges", "--steps", "10"], check_evolve),
        Command("path", ["path", "--in", "lattice.edges", "--source", source,
                         "--target", target, "--p-star", "0.001"], check_path),
    ]
    return Plan("lattice", commands, ["lattice", "lattice.edges"], record)


# ---------------------------------------------------------------------------
# buffer
# ---------------------------------------------------------------------------


BUFFER_COUNTERS = ("inserts", "dispatches", "evictions", "rejects", "residual")


def buffer_config(rng: random.Random, decay_mode: str, service_order: str, f0: Callable[[], float]) -> dict:
    """Capacity 512, horizon 2000, 4 arrivals per tick, 3 flows."""
    horizon, producers = 2000, 4
    flows = [
        {"flow_id": f"F{i}", "arrival_tick": start + rng.randint(0, 100),
         "t_p": rng.randint(1, 3), "n_pairs": 1500}
        for i, start in enumerate((1, 250, 550))
    ]
    arrivals = [
        {"tick": t, "producer_id": f"P{k}", "pair_id": f"t{t}p{k}", "f0": f0()}
        for t in range(1, horizon + 1)
        for k in range(producers)
    ]
    return {
        "capacity": 512, "p_mem": 0.0025, "eta_crit": 0.5, "horizon": horizon,
        "decay_mode": decay_mode, "service_order": service_order,
        "arrivals": arrivals, "flows": flows,
    }


def check_buffer_counts(text: str) -> Dict[str, int]:
    """Header counters agree with the trace rows; returns the counters."""
    h = header(text)
    counts = {k: int(h[k]) for k in BUFFER_COUNTERS}
    events = {"insert": 0, "dispatch": 0, "evict": 0, "reject": 0, "decay": 0}
    lines = text.splitlines()
    start = lines.index("tick,event,pair_id,flow_id,fidelity") + 1
    for line in lines[start:]:
        kind = line.split(",", 2)[1]
        expect(kind in events, f"unknown trace event {kind!r}")
        events[kind] += 1
    for k, ev in (("inserts", "insert"), ("dispatches", "dispatch"),
                  ("evictions", "evict"), ("rejects", "reject")):
        expect(counts[k] == events[ev], f"{k}: header {counts[k]}, trace rows {events[ev]}")
    expect(
        counts["inserts"] - counts["dispatches"] - counts["evictions"] == counts["residual"],
        "inserts - dispatches - evictions != residual",
    )
    return counts


def make_buffer(seed: int, root: Path, work: Path) -> Plan:
    rng = random.Random(seed)
    configs = {
        # heap order never changes: ROADMAP item 4's closed-form case
        "a": buffer_config(rng, "iterated", "highest-fidelity", lambda: rng.uniform(0.8, 1.0)),
        # the fallback: latest-first scan and sift_ticks, f0 = 1 as documented
        "b": buffer_config(rng, "paper-formula", "latest-first", lambda: 1.0),
    }
    for name, cfg in configs.items():
        with open(work / f"{name}.json", "w") as fh:
            json.dump(cfg, fh)

    def checker(name):
        def check(text, ref):
            check_buffer_counts(text)
            if seed == 0:
                expect_digest(f"buffer trace {name}", text, ref["sha256"][name])
        return check

    def record(outputs):
        return {"sha256": {name: sha256(outputs[f"buffer.{name}"]) for name in configs}}

    commands = [
        Command(f"buffer.{name}", ["buffer", "--config", f"{name}.json"], checker(name), config=name)
        for name in configs
    ]
    return Plan("buffer", commands, ["buffer", "a.json", "b.json"], record)


def probe_config() -> dict:
    """paper-formula decay with f0 < 1: reorders pairs without an eviction."""
    return {
        "capacity": 8, "p_mem": 0.1, "eta_crit": 0.3, "horizon": 5,
        "decay_mode": "paper-formula", "service_order": "highest-fidelity",
        "arrivals": [
            {"tick": 1, "producer_id": "P0", "pair_id": "x1", "f0": 0.9},
            {"tick": 1, "producer_id": "P1", "pair_id": "x2", "f0": 0.95},
            {"tick": 2, "producer_id": "P0", "pair_id": "x3", "f0": 0.85},
        ],
        "flows": [{"flow_id": "F0", "arrival_tick": 4, "t_p": 1, "n_pairs": 2}],
    }


def non_max_dispatches(text: str) -> int:
    """Highest-fidelity dispatches of a pair that was not the best stored one."""
    stored: Dict[str, float] = {}
    bad = 0
    lines = text.splitlines()
    start = lines.index("tick,event,pair_id,flow_id,fidelity") + 1
    for line in lines[start:]:
        _tick, kind, pair, _flow, fid = line.split(",")
        if kind in ("insert", "decay"):
            stored[pair] = float(fid)
        elif kind == "evict":
            stored.pop(pair, None)
        elif kind == "dispatch":
            if float(fid) < max(stored.values()):
                bad += 1
            stored.pop(pair, None)
    return bad


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------


FIGURES = ("fig4", "fig7", "fig17", "fig20", "fig34")


def _visibility(lam: float, q: float, n: int) -> float:
    return q**n * lam ** (n + 1)


def make_closed_form(seed: int, root: Path, work: Path) -> Plan:
    rng = random.Random(seed)

    def draw():
        return rng.uniform(0.9, 0.99), rng.uniform(0.95, 1.0)

    def check_max(text, ref):
        h = header(text)
        lam, q, thr = float(h["lambda"]), float(h["q"]), float(h["threshold"])
        exact, floor = (int(x) for x in data_rows(text)[1])
        expect(_visibility(lam, q, exact) > thr >= _visibility(lam, q, exact + 1),
               f"max_repeaters {exact} is not the largest feasible count")
        expect(floor in (exact, exact - 1), f"floor form {floor} vs exact {exact}")

    def check_fixed_n(text, ref):
        h = header(text)
        lam, q, thr = float(h["lambda"]), float(h["q"]), float(h["threshold"])
        n, vis, feasible = data_rows(text)[1]
        want = _visibility(lam, q, int(n))
        expect_close("visibility", float(vis), want)
        expect(feasible == str(want > thr), "feasible flag")

    def check_digest(tag):
        def check(text, ref):
            expect_digest(tag, text, ref["sha256"][tag])
        return check

    commands = []
    for task, extra in (
        ("entanglement", []),
        ("entanglement", ["--ent-mode", "paper-appendix-h"]),
        ("teleportation", []),
        ("chsh", []),
        ("diqkd", ["--theta", repr(rng.uniform(0.5, 1.07))]),
        ("custom", ["--p-star", repr(rng.uniform(0.3, 0.7))]),
    ):
        lam, q = draw()
        tag = f"chain.{task}" + (".appendix" if extra[:1] == ["--ent-mode"] else "")
        commands.append(Command(tag, ["chain", "--lambda", repr(lam), "--q", repr(q),
                                      "--task", task] + extra, check_max))
    lam, q = draw()
    commands.append(Command("chain.n", ["chain", "--lambda", repr(lam), "--q", repr(q),
                                        "--n", str(rng.randint(1, 20))], check_fixed_n))
    fixed = [
        ("tradeoff", ["tradeoff", "--eta-s", "0.97", "--p-star", "0.5", "--f", "2"]),
        ("nqi", ["nqi", "--length", "952", "--n", "10", "--q", "0.99"]),
        ("satellite", ["satellite", "--n", "4"]),
        ("atmosphere", ["atmosphere", "--eta", "0.95", "--xi-as", "0.5", "--xi-r", "0.99", "--xi-t", "0.99"]),
    ] + [(f"figure.{fig}", ["figure", fig]) for fig in FIGURES]
    for tag, argv in fixed:
        commands.append(Command(tag, argv, check_digest(tag)))

    def record(outputs):
        return {"sha256": {tag: sha256(outputs[tag]) for tag, _ in fixed}}

    return Plan("closed-form", commands, ["closed-form"], record)


WORKLOADS: Dict[str, Callable[[int, Path, Path], Plan]] = {
    "airport": make_airport,
    "lattice": make_lattice,
    "buffer": make_buffer,
    "closed-form": make_closed_form,
}


def make(workload: str, seed: int, root: Path, work: Path) -> Plan:
    return WORKLOADS[workload](seed, root, work)


def _record(root: Path) -> None:
    """Run seed 0 of every workload once and write reference.json."""
    import subprocess

    sys.path.insert(0, str(HERE))
    import run  # noqa: E402  (sibling module; only needed here)

    reference = {}
    for name in WORKLOADS:
        work = run.fresh_dir(root / run.WORK_DIR / f"record-{name}")
        plan = make(name, 0, root, work)
        outputs = {}
        for cmd in plan.commands:
            out = work / f"{cmd.tag}.out"
            with open(out, "wb") as fh:
                subprocess.run(run.qnetlim_argv(cmd.argv), cwd=work, env=run.child_env(root),
                               stdout=fh, check=True)
            outputs[cmd.tag] = out.read_text()
        reference[name] = plan.record(outputs)
        shutil.rmtree(work)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/workloads.py --record")
    _record(Path.cwd())
