import argparse
import codecs
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

import edgeviews
import qnetlim
from qnetlim import buffersim, cli, netgraph, repeater, scenario, topology
from qnetlim.cli import FIGURE_IDS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def write_seeded_edges(path):
    """300 string ids, full-precision p (a few exactly 1), unsorted edge order."""
    rng = random.Random(4)
    n = 300
    ids = [f"n{k}" for k in rng.sample(range(1000), n)]
    lines = []
    for i in range(n):
        for _ in range(rng.randint(1, 4)):
            j = rng.randrange(n)
            if j != i:
                p = 1.0 if rng.random() < 0.03 else rng.uniform(0.05, 1.0)
                lines.append(f"{ids[i]},{ids[j]},{p!r}\n")
    path.write_text("".join(lines))


@pytest.fixture
def lattice_dir(capsys, tmp_path, monkeypatch):
    """Work in tmp_path, which holds the Square1024 edge list as sq.edges."""
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        capsys, "topology", "--kind", "square1024", "--p", "0.9", "--edges-out", "sq.edges"
    )
    assert code == 0


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "g.edges"
    net = netgraph.Network(
        [1, 2, 3], [(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.7)]
    )
    topology.write_edge_list(edgeviews.edges(net), path)
    return str(path)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--lambda", "0.95", "--task", "chsh")
        assert code == 0
        assert out

    def test_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "graph", "--in", str(tmp_path / "missing.edges")
        )
        assert code == 1
        assert "error" in err

    def test_value_error(self, capsys):
        code, _, err = run_cli(capsys, "chain", "--lambda", "1.5", "--task", "chsh")
        assert code == 2

    def test_bad_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "not-a-figure"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cmd", ["graph", "critical-nodes", "evolve", "path"])
    def test_edge_file_without_edges(self, capsys, tmp_path, cmd):
        f = tmp_path / "empty.edges"
        f.write_text("# node_a,node_b,p\n")
        extra = ["--source", "a", "--target", "b"] if cmd == "path" else []
        code, out, err = run_cli(capsys, cmd, "--in", str(f), *extra)
        assert (code, out) == (1, "")
        assert "no edges" in err

    @pytest.mark.parametrize("option", ["--q", "--eta-s"])
    def test_tradeoff_zero_efficiency(self, capsys, option):
        code, out, err = run_cli(capsys, "tradeoff", option, "0")
        assert (code, out) == (1, "")
        assert err == "error: infeasible even at zero distance: bound is not positive\n"

    def test_nqi_infeasible(self, capsys):
        code, _, err = run_cli(capsys, "nqi", "--length", "952", "--n", "10", "--q", "0.8")
        assert code == 1
        assert "bound" in err

    @pytest.mark.parametrize("f", ["0", "0.5"])
    def test_tradeoff_f_below_one(self, capsys, f):
        code, out, err = run_cli(capsys, "tradeoff", "--f", f)
        assert (code, out, err) == (2, "", "usage error: f must be >= 1\n")

    @pytest.mark.parametrize("p_mem", ["3", "-1"])
    def test_satellite_p_mem_out_of_range(self, capsys, p_mem):
        code, out, err = run_cli(capsys, "satellite", "--n", "2", "--p-mem", p_mem)
        assert (code, out, err) == (2, "", "usage error: p_mem must be in [0, 1]\n")

    @pytest.mark.parametrize("argv", [
        ["critical-nodes", "--top", "-1"],
        ["airport", "--top", "-1"],
        ["evolve", "--steps", "-1"],
    ], ids=" ".join)
    def test_negative_count_is_a_usage_error(self, capsys, edge_file, argv):
        extra = [] if argv[0] == "airport" else ["--in", edge_file]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *extra])
        assert exc.value.code == 2
        assert f"argument {argv[1]}: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("task,err", [
        ("diqkd", "DIQKD requires theta in (0, pi/2)"),
        ("custom", "Custom requires p_star in (0, 1)"),
    ])
    def test_task_without_its_parameter(self, capsys, task, err):
        code, out, got = run_cli(capsys, "chain", "--lambda", "0.9", "--task", task)
        assert (code, out, got) == (2, "", f"usage error: {err}\n")

    def test_top_zero_prints_no_rows(self, capsys, edge_file):
        code, out, _ = run_cli(capsys, "critical-nodes", "--top", "0", "--in", edge_file)
        assert (code, data_rows(out)) == (0, ["node,clustering,centrality,strength,critical_parameter"])

    def test_steps_zero_prints_no_rows(self, capsys, edge_file):
        code, out, _ = run_cli(capsys, "evolve", "--steps", "0", "--in", edge_file)
        assert (code, data_rows(out)) == (0, ["t,edges,cooperative_link_sparsity"])

    @pytest.mark.parametrize("text,err", [
        ("a,b\n", "bad.edges:1: malformed edge record (not enough values"),
    ])
    def test_bad_graph_file(self, capsys, tmp_path, text, err):
        f = tmp_path / "bad.edges"
        f.write_text(text)
        code, out, stderr = run_cli(capsys, "graph", "--in", str(f))
        assert (code, out) == (1, "")
        assert err in stderr

    @pytest.mark.parametrize("text,line,why", [
        ("a,b,0.5\n1,2\n", 2, "not enough values to unpack (expected 3, got 2)"),
        ("# node_a,node_b,p\na,b,0.5\n\nb,c,high\n", 4, "could not convert string to float: 'high'"),
        ("a,b,0.5,0.7\n", 1, "too many values to unpack"),
        # Latin-1, not UTF-8
        (b"a,b,0.5\nZ\xfcrich,b,0.5\n", 2, "'utf-8' codec can't decode byte 0xfc in position 1"),
        # topology.edge_table's checks, per record
        ("a,b,0.5\nb,c,1.5\n", 2, "edge probability must be in (0, 1])"),
        ("a,b,0.5\nb,c,nan\n", 2, "edge probability must be in (0, 1])"),
        ("a,b,0.5\nb,b,0.5\n", 2, "self-loop on node 'b')"),
    ])
    def test_malformed_record_names_its_line(self, capsys, tmp_path, text, line, why):
        f = tmp_path / "bad.edges"
        if isinstance(text, bytes):
            f.write_bytes(text)
        else:
            f.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "graph", "--in", str(f))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: bad graph file: {f}:{line}: malformed edge record ({why}")
        assert err.endswith(")\n") and err.count("\n") == 1

    def test_path_unknown_node(self, capsys, edge_file):
        code, out, err = run_cli(
            capsys, "path", "--in", edge_file, "--source", "1", "--target", "9"
        )
        assert (code, out, err) == (1, "", "error: unknown node '9'\n")

    @pytest.mark.parametrize("text,err", [
        (None, "cannot read config"),
        ('{"capacity": 4', "bad config file"),
        (b"\xff\xfe{}", "bad config file"),  # not text in any UTF encoding
    ])
    def test_unreadable_buffer_config(self, capsys, tmp_path, text, err):
        path = tmp_path / "sim.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        code, out, stderr = run_cli(capsys, "buffer", "--config", str(path))
        assert (code, out) == (1, "")
        assert f"error: {err}" in stderr


class TestRangeProbes:
    """Values outside a parameter's range, NaN and +inf included, are usage errors."""

    PROBES = [
        ("graph --p-star 2", "p_star must be in (0, 1)"),
        ("graph --p-star nan", "p_star must be in (0, 1)"),
        ("critical-nodes --p-star nan", "p_star must be in (0, 1)"),
        ("path --source 1 --target 3 --p-star nan", "p_star must be in (0, 1)"),
        ("evolve --p-star nan", "p_star must be in (0, 1)"),
        ("airport --p-star nan", "p_star must be in (0, 1)"),
        ("evolve --k nan", "k must be >= 0"),
        ("satellite --n 2 --alpha nan", "alpha must be >= 0"),
        ("satellite --n 2 --l-b nan", "l_b must be >= 0"),
        ("atmosphere --eta nan", "eta must be > 0"),
        ("atmosphere --z nan", "z must be >= 0"),
        ("tradeoff --alpha nan", "alpha must be >= 0"),
        ("tradeoff --alpha inf", "alpha must be >= 0"),
        ("tradeoff --f nan", "f must be >= 1"),
        ("nqi --length nan --n 3", "length_km must be > 0"),
        ("topology --kind star --n 1", "star needs n >= 2"),
        ("topology --kind mesh --n 1", "mesh needs n >= 2"),
        ("topology --kind circulant --n 4 --d 0", "circulant needs 1 <= d < n"),
        ("topology --kind circulant --n 4 --d 4", "circulant needs 1 <= d < n"),
        ("topology --kind grid --height 0", "grid needs positive dimensions"),
        ("topology --kind star --p nan", "edge probability must be in (0, 1]"),
        ("topology --kind cell-square --p 0", "edge probability must be in (0, 1]"),
        # no edge carries p in a 1 x 1 grid, and p is still checked
        ("topology --kind grid --width 1 --height 1 --p 1.5", "edge probability must be in (0, 1]"),
    ]

    @pytest.mark.parametrize("argv,err", PROBES, ids=[p[0] for p in PROBES])
    def test_usage_error(self, capsys, edge_file, argv, err):
        command, *rest = argv.split()
        graph = command in ("graph", "critical-nodes", "path", "evolve")
        code, out, got = run_cli(capsys, command, *rest, *(["--in", edge_file] if graph else []))
        assert (code, out, got) == (2, "", f"usage error: {err}\n")

    @pytest.mark.parametrize("edit,err", [
        ({"f0": math.nan}, "f0 must be in [0, 1]"),
        ({"f0": 1.5}, "f0 must be in [0, 1]"),
        ({"horizon": 5.5}, "horizon must be an integer"),
        ({"tick": 1.5}, "tick must be an integer"),
        ({"tick": 0}, "tick must be >= 1"),
        ({"arrival_tick": -1}, "arrival_tick must be >= 0"),
        ({"t_p": -3}, "t_p must be >= 0"),
        ({"n_pairs": 2.5}, "n_pairs must be an integer"),
        ({"capacity": 0}, "capacity must be >= 1"),
        ({"capacity": 1.5}, "capacity must be an integer"),
        ({"p_mem": math.nan}, "p_mem must be in [0, 1]"),
        ({"eta_crit": 2}, "eta_crit must be in [0, 1]"),
        ({"tick": True, "f0": True}, "tick must be an integer"),
        ({"f0": True}, "f0 must be a number"),
        # next to "F1" and "F2", which sorting the flows would compare it with
        ({"flow_id": 7}, "flow_id must be a string"),
        ({"producer_id": None}, "producer_id must be a string"),
        ({"p_mem": "0.05"}, "p_mem must be a number"),
    ], ids=["f0-nan", "f0-above-1", "fractional-horizon", "fractional-tick", "tick-0",
            "negative-arrival-tick", "negative-t-p", "fractional-n-pairs", "capacity-0",
            "fractional-capacity", "p-mem-nan", "eta-crit-above-1", "boolean-tick-and-f0",
            "boolean-f0", "integer-flow-id", "null-producer-id", "string-p-mem"])
    def test_bad_buffer_config_is_a_data_error(self, capsys, tmp_path, edit, err):
        cfg = buffer_config(1, 3, 10)
        if edit.keys() & {"f0", "tick", "producer_id"}:
            cfg["arrivals"][0].update(edit)
        elif edit.keys() & {"flow_id", "arrival_tick", "t_p", "n_pairs"}:
            cfg["flows"][0].update(edit)
        else:
            cfg.update(edit)
        (tmp_path / "sim.json").write_text(json.dumps(cfg))
        code, out, got = run_cli(capsys, "buffer", "--config", str(tmp_path / "sim.json"))
        assert (code, out, got) == (1, "", f"error: bad config contents: {err}\n")

    @pytest.mark.parametrize("command,cls", [
        ("tradeoff", repeater.LinkBudget),
        ("satellite", scenario.SatelliteYieldParams),
        ("atmosphere", scenario.AtmosphereParams),
    ])
    def test_help_prints_each_range(self, capsys, command, cls):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        # one line per option, whatever the terminal width
        text = " ".join(capsys.readouterr().out.split())
        for f in dataclasses.fields(cls):
            rng = f.metadata["range"].text
            assert re.search(f"--{f.name.replace('_', '-')} {f.name.upper()} [^-]*, {re.escape(rng)} ", text)

    # (command, option, Range that checks the option's value)
    OPTION_RANGES = [
        ("chain", "--lambda LAM", repeater.ChainConfig.__dataclass_fields__["lam"].metadata["range"]),
        ("chain", "--theta THETA", repeater.TASK_PARAMETERS[repeater.TaskKind.DIQKD][1]),
        ("chain", "--p-star P_STAR", repeater.TASK_PARAMETERS[repeater.TaskKind.CUSTOM][1]),
        *((command, "--p-star P_STAR", qnetlim.P_STAR)
          for command in ("graph", "critical-nodes", "path", "evolve", "airport")),
        ("evolve", "--w W", qnetlim.EVOLVE_W),
        ("evolve", "--k K", qnetlim.EVOLVE_K),
        ("nqi", "--length LENGTH", repeater.NQI_LENGTH),
        ("nqi", "--n N", repeater.NQI_N),
        ("nqi", "--q Q", repeater.NQI_Q),
        ("topology", "--n N", qnetlim.TOPOLOGY_N),
        ("topology", "--d D", qnetlim.TOPOLOGY_D),
        ("topology", "--width WIDTH", qnetlim.GRID_SIDE),
        ("topology", "--height HEIGHT", qnetlim.GRID_SIDE),
        ("topology", "--p P", qnetlim.EDGE_P),
    ]

    @pytest.mark.parametrize("command,option,rng", OPTION_RANGES,
                             ids=[f"{c} {o.split()[0]}" for c, o, _ in OPTION_RANGES])
    def test_help_prints_option_range(self, capsys, command, option, rng):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert re.search(f"{option} [^-]*, {re.escape(rng.text)} ", text)

    def test_topology_help_states_d_below_n(self, capsys):
        with pytest.raises(SystemExit):
            main(["topology", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"--d D circulant degree, default 2, {qnetlim.TOPOLOGY_D.text} and < n " in text


class TestChain:
    def test_max_repeaters_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain", "--lambda", "0.95", "--task", "diqkd", "--theta", str(math.pi / 4)
        )
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "max_repeaters,max_repeaters_floor_form"
        assert rows[1] == "4,3"

    def test_fixed_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain", "--lambda", "0.9", "--q", "0.9", "--task", "teleportation", "--n", "2"
        )
        rows = data_rows(out)
        assert rows[0] == "n,visibility,feasible"
        n, vis, feasible = rows[1].split(",")
        assert float(vis) == pytest.approx(0.59049)
        assert feasible == "True"

    def test_zero_q(self, capsys):
        code, out, err = run_cli(capsys, "chain", "--lambda", "0.9", "--q", "0")
        assert (code, data_rows(out)[1], err) == (0, "0,NoneFeasible", "")

    def test_header_lines(self, capsys):
        _, out, _ = run_cli(capsys, "chain", "--lambda", "0.9", "--task", "chsh")
        headers = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert headers[0] == "# command: chain"
        assert any("lambda = 0.9" in h for h in headers)
        assert any("threshold" in h for h in headers)


class TestGraphCommands:
    def test_graph_metrics(self, capsys, edge_file):
        code, out, _ = run_cli(capsys, "graph", "--in", edge_file, "--p-star", "0.5")
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "metric,non_cooperative,cooperative"
        metrics = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
        assert set(metrics) == {
            "link_sparsity", "total_connection_strength",
            "sparsity_index", "average_effective_weight_bits",
        }

    def test_path(self, capsys, edge_file):
        code, out, _ = run_cli(
            capsys, "path", "--in", edge_file, "--source", "1", "--target", "3", "--p-star", "0.5"
        )
        rows = data_rows(out)
        status, prob, _, path = rows[1].split(",")
        assert (code, status, path) == (0, "found", "1-2-3")
        assert float(prob) == pytest.approx(0.81)

    @pytest.mark.parametrize("p_star", ["0.5", "0.99"])
    def test_path_to_itself(self, capsys, edge_file, p_star):
        # the path of no edges: found, probability 1.0, weight 0.0 bits
        code, out, _ = run_cli(
            capsys, "path", "--in", edge_file, "--source", "2", "--target", "2", "--p-star", p_star
        )
        assert (code, data_rows(out)) == (0, ["status,probability,total_weight_bits,path", "found,1.0,0.0,2"])

    def test_path_disconnected(self, capsys, tmp_path):
        f = tmp_path / "weak.edges"
        f.write_text("a,b,0.2\n")
        code, _, err = run_cli(
            capsys, "path", "--in", str(f), "--source", "a", "--target", "b"
        )
        assert code == 1

    def test_critical_nodes(self, capsys, tmp_path):
        f = tmp_path / "sq.edges"
        topology.write_edge_list(
            edgeviews.edges(netgraph.Network(
                [1, 2, 3, 4],
                [(1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5), (4, 1, 0.5), (1, 3, 0.5)],
            )),
            f,
        )
        code, out, _ = run_cli(
            capsys, "critical-nodes", "--in", str(f), "--p-star", "0.1"
        )
        rows = data_rows(out)
        assert rows[0] == "node,clustering,centrality,strength,critical_parameter"
        top = rows[1].split(",")
        assert top[0] == "1"
        assert float(top[4]) == pytest.approx(1.125)

    def test_topology_roundtrip(self, capsys, tmp_path):
        edges = tmp_path / "cell.edges"
        code, out, _ = run_cli(
            capsys, "topology", "--kind", "cell-octagonal", "--p", "0.9",
            "--edges-out", str(edges),
        )
        assert code == 0
        assert data_rows(out)[1].startswith("8,8,")
        back = netgraph.load_edge_list(edges)
        assert (back.n_nodes, back.n_edges) == (8, 8)
        assert netgraph.link_sparsity(
            back, 0.5, netgraph.StrategyKind.NON_COOPERATIVE
        ) == pytest.approx(0.75)

    def test_evolve(self, capsys, tmp_path):
        f = tmp_path / "pair.edges"
        f.write_text("1,2,0.8\n")
        code, out, _ = run_cli(
            capsys, "evolve", "--in", str(f), "--w", "0.9", "--k", "0.3",
            "--p-star", "0.1", "--steps", "3",
        )
        assert code == 0
        rows = data_rows(out)
        # sparsity column is nondecreasing over time
        ups = [float(r.split(",")[-1]) for r in rows[1:]]
        assert ups == sorted(ups)


def bom_copy(path):
    """A copy of path beside it, behind a UTF-8 byte-order mark."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


class TestByteOrderMark:
    """An input file behind a UTF-8 byte-order mark prints the plain file's data rows."""

    def assert_same_rows(self, capsys, plain, *argv):
        code, out, err = run_cli(capsys, *argv, str(plain))
        assert (code, err) == (0, "")
        code, bom_out, err = run_cli(capsys, *argv, str(bom_copy(plain)))
        assert (code, err) == (0, "")
        assert data_rows(bom_out) == data_rows(out)

    def test_edge_list_under_its_header(self, capsys, tmp_path):
        # line 1 is the `# node_a,node_b,p` header topology --edges-out writes
        plain = tmp_path / "cell.edges"
        run_cli(capsys, "topology", "--kind", "cell-octagonal", "--edges-out", str(plain))
        assert plain.read_text().startswith("# node_a,node_b,p\n")
        self.assert_same_rows(capsys, plain, "graph", "--in")

    def test_edge_list_without_header(self, capsys, tmp_path):
        # line 1 is a record, whose first node id must not take in the mark
        plain = tmp_path / "abc.edges"
        plain.write_text("a,b,0.9\nb,c,0.8\n")
        self.assert_same_rows(capsys, plain, "path", "--source", "a", "--target", "c", "--in")

    def test_buffer_config(self, capsys, tmp_path):
        plain = tmp_path / "sim.json"
        plain.write_text(json.dumps(TestBufferGoldens.CONFIGS["capacity-pressure"]()))
        self.assert_same_rows(capsys, plain, "buffer", "--config")


class TestCriticalNodesGolden:
    """critical-nodes on the Square1024 edge list, pinned byte for byte.

    The edge file round-trips the lattice's integer labels as strings, so
    the lexicographic tie rule sees "10" < "9". The full tables pin every
    node's centrality, strength and clustering.
    """

    DIGESTS = {
        (): "bf3469f9022252f69131087851a4a3e4c97271868fb92714e9661d7d259a0a74",
        ("--top", "1024"): "11005652e92ccb23ef96c4dfacd142397c55d3f9151e325e53d243308b82a1e7",
        ("--top", "1024", "--p-star", "0.25"):
            "d8ef0d73e0c0181399cc9ee50acb99a47765b350327baedff177f96d4d4e1772",
    }

    @pytest.mark.parametrize("extra", list(DIGESTS), ids=lambda e: " ".join(e) or "default")
    def test_square1024_output_digest(self, capsys, tmp_path, monkeypatch, extra):
        import hashlib

        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "topology", "--kind", "square1024", "--p", "0.9", "--edges-out", "sq.edges"
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "critical-nodes", "--in", "sq.edges", *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[extra]


class TestGraphGoldens:
    """graph, evolve, path and critical-nodes output, pinned byte for byte.

    The lattice has uniform p; the seeded edge list has non-uniform p and
    an unsorted edge order, so it also pins the order in which per-node
    sums are taken.
    """

    LATTICE = {
        ("graph", "--p-star", "0.5"):
            "386e670e651eb3bee8f8cb3e1c8d918f7f5fc6ba9787e077237c25df0b9ac63c",
        ("graph", "--p-star", "0.25"):
            "211f7f94102a1eaf3face11a057977cdc71146e7a253930939cda3339e01456d",
        ("evolve", "--steps", "10"):
            "9c93a3f14f6258a07947b8c65d2ce6685217454625568b162b4dfd871dfd1025",
        ("path", "--source", "0", "--target", "1023", "--p-star", "0.001"):
            "a9bcd7870f06100dd09f2b43bf4eb6b9d9cd0b2da26dbc6583bf7aff94916fc7",
    }
    SEEDED = {
        ("graph", "--p-star", "0.5"):
            "b2181361a2e8c3d947b3a371593d18a8ae3a89840d766aacef5226a1cb54ef2c",
        ("graph", "--p-star", "0.1"):
            "734677ca4643bf26ca53e974683cd904e547499f25e3cc5bc6e30977c3513303",
        ("critical-nodes", "--top", "300", "--p-star", "0.1"):
            "d7def668e18547995b88022663225472d8410aef9e4b6f326a6fbc2f7f4163ec",
        ("evolve", "--steps", "6"):
            "ba3a3b4ce5ab29a1cc7cafb095d6fefdac0d4da1f06ebce2a268c3a0973bc336",
    }

    @pytest.mark.parametrize("argv", list(LATTICE), ids=" ".join)
    def test_square1024(self, capsys, lattice_dir, argv):
        code, out, _ = run_cli(capsys, argv[0], "--in", "sq.edges", *argv[1:])
        assert code == 0
        assert sha256(out) == self.LATTICE[argv]

    @pytest.mark.parametrize("argv", list(SEEDED), ids=" ".join)
    def test_seeded_edge_list(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_seeded_edges(tmp_path / "mixed.edges")
        code, out, _ = run_cli(capsys, argv[0], "--in", "mixed.edges", *argv[1:])
        assert code == 0
        assert sha256(out) == self.SEEDED[argv]

    def test_airport_report(self, airport_summary):
        report, _ = airport_summary
        lines = cli._airport_lines(report)
        assert lines[0] == "metric,value"
        assert sha256("\n".join(lines) + "\n") == (
            "8a033195867a666e7e847d5f19dda9e4c8ff9aee895048bfb5c13acfe0c7a519"
        )


class TestAllPairsPasses:
    """Each command makes one all-pairs pass per (network, p_star), and path makes none.

    The pass is bounded by the -log2 p_star budget unless
    average_effective_weight needs every distance. Each pass is recorded
    by its limit; the centrality sweep's per-source calls and the
    neighbour subgraphs' calls, over fewer nodes, are not passes.
    """

    @pytest.mark.parametrize("argv,limits", [
        (("graph",), [math.inf]),
        (("evolve", "--steps", "10"), [-math.log2(0.1)] * 10),
        (("critical-nodes",), [-math.log2(0.5)]),
        (("path", "--source", "0", "--target", "1"), []),
    ], ids=["graph", "evolve", "critical-nodes", "path"])
    def test_square1024(self, capsys, monkeypatch, lattice_dir, argv, limits):
        calls = []
        real = netgraph._distances

        def counted(graph, **kwargs):
            nodes = len(graph[0]) - 1 if isinstance(graph, tuple) else graph.shape[0]
            if nodes == 1024 and kwargs.get("sources") is None:
                calls.append(kwargs["limit"])
            return real(graph, **kwargs)

        monkeypatch.setattr(netgraph, "_distances", counted)
        code, _, _ = run_cli(capsys, argv[0], "--in", "sq.edges", *argv[1:])
        assert (code, calls) == (0, limits)


def buffer_config(seed, capacity, n_arrivals, unit_f0=False, **kw):
    """A small seeded buffer config: arrivals over 25 ticks, three flows."""
    rng = random.Random(seed)
    cfg = {
        "capacity": capacity, "p_mem": 0.05, "eta_crit": 0.4, "horizon": 30,
        "arrivals": [
            {"tick": rng.randint(1, 25), "producer_id": f"P{i % 3}", "pair_id": f"x{i:03d}",
             "f0": 1.0 if unit_f0 else round(rng.uniform(0.5, 1.0), 6)}
            for i in range(n_arrivals)
        ],
        "flows": [
            {"flow_id": f"F{j}", "arrival_tick": rng.randint(1, 10), "t_p": rng.randint(1, 3),
             "n_pairs": rng.randint(2, 8)}
            for j in range(3)
        ],
    }
    cfg.update(kw)
    return cfg


class TestBufferGoldens:
    """buffer output for small seeded configs, pinned byte for byte."""

    CONFIGS = {
        "capacity-pressure": lambda: buffer_config(1, 3, 60),
        "iterated-f0-below-1": lambda: buffer_config(2, 32, 40, p_mem=0.1, eta_crit=0.5),
        "paper-formula-latest-first": lambda: buffer_config(
            3, 16, 40, unit_f0=True, p_mem=0.05, eta_crit=0.3,
            decay_mode="paper-formula", service_order="latest-first",
        ),
        "no-decay": lambda: buffer_config(4, 8, 40, p_mem=0.0),
    }
    DIGESTS = {
        "capacity-pressure":
            "5bc798deaaa4e3f97d3fef1c778c80b538d8f5bf73b4903db76ae50fc67b08f0",
        "iterated-f0-below-1":
            "820cc164e1a4a9ecb4958d9c05ef2e6c3bc0ce99dbf4c20853bc619c57dbe416",
        "paper-formula-latest-first":
            "5ac86114b40b7b6cd5f376c8e7fc62cc26bde3aeb707a495b309c86203150c9a",
        "no-decay":
            "0fe35cc2e3d94c6d570fe96c65583d710323dd8223e640eddee9b44dc039c78d",
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_trace_digest(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sim.json").write_text(json.dumps(self.CONFIGS[name]()))
        code, out, _ = run_cli(capsys, "buffer", "--config", "sim.json")
        assert code == 0
        assert sha256(out) == self.DIGESTS[name]


class TestBufferStreaming:
    """buffer spools its rows and copies them to stdout or --out, the same bytes either way."""

    @pytest.mark.parametrize("name", list(TestBufferGoldens.CONFIGS))
    def test_out_file_equals_stdout(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sim.json").write_text(json.dumps(TestBufferGoldens.CONFIGS[name]()))
        code, out, _ = run_cli(capsys, "buffer", "--config", "sim.json")
        assert code == 0
        assert sha256(out) == TestBufferGoldens.DIGESTS[name]
        code, stdout, _ = run_cli(capsys, "buffer", "--config", "sim.json", "--out", "trace.csv")
        assert (code, stdout) == (0, "")
        assert (tmp_path / "trace.csv").read_bytes() == out.encode()

    @pytest.mark.parametrize("cfg, want", [
        ({"capacity": 4}, 1),  # bad contents
        (dict(buffer_config(1, 3, 10), capacity=0), 1),  # a value out of range is bad contents too
        (None, 2),  # a valid config whose run fails after writing rows
    ])
    def test_failed_run_writes_no_file(self, capsys, tmp_path, monkeypatch, cfg, want):
        if cfg is None:
            cfg = buffer_config(1, 3, 10)

            def fail(config, write):
                write("1,insert,x000,,0.9\n")
                raise ValueError("the run failed")

            monkeypatch.setattr(buffersim, "run", fail)
        (tmp_path / "sim.json").write_text(json.dumps(cfg))
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "buffer", "--config", str(tmp_path / "sim.json"), "--out", str(out_path))
        assert code == want
        assert not out_path.exists()


def mid_buffer_config(decay_mode, service_order):
    """Capacity 64, horizon 400, 4 arrivals per tick: the heap is full and evicts most ticks."""
    rng = random.Random(f"{decay_mode}/{service_order}")
    return {
        "capacity": 64, "p_mem": 0.02, "eta_crit": 0.5, "horizon": 400,
        "decay_mode": decay_mode, "service_order": service_order,
        "arrivals": [
            {"tick": t, "producer_id": f"P{k}", "pair_id": f"t{t}p{k}",
             "f0": 1.0 if rng.random() < 0.3 else round(rng.uniform(0.5, 1.0), 6)}
            for t in range(1, 401) for k in range(4)
        ],
        "flows": [
            {"flow_id": f"F{j}", "arrival_tick": rng.randint(1, 40), "t_p": rng.randint(1, 3), "n_pairs": 300}
            for j in range(3)
        ],
    }


class TestBufferMidGolden:
    """A mid-size buffer run per decay mode and service order, pinned byte for byte.

    The CLI trace does not show flow_finishes, which latest-first service
    derives from heap positions, so run's flow_finishes is pinned too.
    """

    CASES = [(mode.value, order.value) for mode in buffersim.DecayMode for order in buffersim.ServiceOrder]
    # (trace sha256, sha256 of flow_finishes as sorted-key JSON)
    DIGESTS = {
        ("iterated", "highest-fidelity"): (
            "c184f4e038ba6dea9eee181dbe88740e695de424bc9b41bd2669bacc2290d270",
            "3265d993e45349a8c1f536b0dfe10af355ce19707b7a6a56e525231500424f6c",
        ),
        ("iterated", "latest-first"): (
            "71dc660516591019c850e0ea3ec2fd5d51184bab93290f8fef82b0f20aff6ad1",
            "25fe16c20373baf13eaa91de8ba70a7e474fc1ae1aea05b38f8fce900547e897",
        ),
        ("paper-formula", "highest-fidelity"): (
            "c110bfda646d0a5f473abfd0834f480033f3f775db14227e18115cef7d96ba71",
            "121ed5ca118fa0f64f1c85190458086ef0f14cc2f049f680c70d8a8bb9e2c868",
        ),
        ("paper-formula", "latest-first"): (
            "423cfefa71b67c07c07a549a88e01cb3e20b3eca16095162e0906f36eb8e3a5e",
            "c3a16581a4f524d3eaae97c781c811bcbcc488040d13a5c68a9322f3539d6813",
        ),
    }

    @pytest.mark.parametrize("mode,order", CASES, ids=[f"{m}/{o}" for m, o in CASES])
    def test_trace_and_finishes(self, capsys, tmp_path, monkeypatch, mode, order):
        raw = mid_buffer_config(mode, order)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sim.json").write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "buffer", "--config", "sim.json")
        assert code == 0
        cfg = buffersim.SimConfig(
            raw["capacity"], raw["p_mem"], raw["eta_crit"],
            tuple(buffersim.Arrival(**a) for a in raw["arrivals"]),
            tuple(buffersim.FlowRequest(**f) for f in raw["flows"]),
            raw["horizon"], buffersim.DecayMode(mode), buffersim.ServiceOrder(order),
        )
        rows = []
        finishes = buffersim.run(cfg, rows.append).flow_finishes
        assert out.endswith("".join(rows))  # the same rows after the # header
        assert (sha256(out), sha256(json.dumps(finishes, sort_keys=True))) == self.DIGESTS[(mode, order)]


class TestScenarioCommands:
    def test_satellite(self, capsys):
        code, out, _ = run_cli(capsys, "satellite", "--n", "2")
        rows = data_rows(out)
        assert rows[0] == "yield"
        assert float(rows[1]) == pytest.approx(0.1578459, abs=1e-6)

    def test_atmosphere_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys, "atmosphere", "--eta", "0.95", "--xi-r", "0.99",
            "--xi-t", "0.99", "--xi-as", "0.5",
        )
        rows = data_rows(out)
        assert float(rows[1]) == pytest.approx(0.3837485, abs=1e-6)

    @pytest.mark.parametrize("command,units,default", [
        ("tradeoff", "alpha   fiber loss rate, 1/km", "default 0.051"),
        ("satellite", "l_b, l_m        fiber to the first and to the second endpoint, km",
         "default 0.045454545454545456"),
        ("atmosphere", "z_rayleigh     Rayleigh range, m", "default 17.8"),
    ])
    def test_help_prints_units_and_defaults(self, capsys, monkeypatch, command, units, default):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert units in out.splitlines() and default in out

    def test_buffer(self, capsys, tmp_path):
        cfg = {
            "capacity": 4,
            "p_mem": 0.05,
            "eta_crit": 0.4,
            "arrivals": [
                {"tick": t, "producer_id": "src", "pair_id": f"p{t}"} for t in range(1, 5)
            ],
            "flows": [{"flow_id": "f0", "arrival_tick": 1, "t_p": 2, "n_pairs": 2}],
            "horizon": 6,
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "buffer", "--config", str(path))
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "tick,event,pair_id,flow_id,fidelity"
        assert any(",dispatch," in r for r in rows)

    def test_buffer_bad_config(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"capacity\": 4}")
        code, _, err = run_cli(capsys, "buffer", "--config", str(path))
        assert code == 1


class TestAirportCommand:
    """airport on a six-airport snapshot given by --airports and --routes."""

    AIRPORTS = [
        ("A", "Alpha", 0.0, 0.0), ("B", "Bravo", 0.0, 0.3), ("C", "Charlie", 0.0, 1.0),
        ("D", "Delta", 1.0, 0.0), ("E", "Echo", 1.0, 1.0), ("F", "Foxtrot", 0.2, 0.2),
    ]
    # B-A repeats A-B, and A-Z names an unknown airport
    ROUTES = ["A,B", "B,C", "C,D", "D,E", "E,F", "F,A", "A,C", "B,A", "A,Z"]

    def write(self, tmp_path, airports=None, routes=None):
        if airports is None:
            airports = [f"{a},{name},{lat},{lon}" for a, name, lat, lon in self.AIRPORTS]
        routes = self.ROUTES if routes is None else routes
        (tmp_path / "airports.csv").write_text("\n".join(["id,name,lat,lon", *airports]) + "\n")
        (tmp_path / "routes.csv").write_text("\n".join(["src_id,dst_id", *routes]) + "\n")
        return ["--airports", str(tmp_path / "airports.csv"),
                "--routes", str(tmp_path / "routes.csv")]

    def test_report(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "airport", *self.write(tmp_path), "--top", "4")
        assert code == 0
        assert "# skipped_routes = 1" in out.splitlines()
        rows = data_rows(out)
        assert rows[:3] == ["metric,value", "n_nodes,6", "n_edges,7"]
        nodes = rows[rows.index("node,clustering,centrality,strength,critical_parameter") + 1:]
        assert len(nodes) == 4
        ds = scenario.load_airport_dataset(tmp_path / "airports.csv", tmp_path / "routes.csv")
        rep = scenario.airport_report(ds, p_star=0.1, top_n=4)
        assert f"link_sparsity,{rep.link_sparsity!r}" in rows
        assert [r.split(",")[0] for r in nodes] == [r.node for r in rep.top_critical_airports]

    @pytest.mark.parametrize("via", ["--data-dir", "QNETLIM_DATA_DIR"])
    def test_snapshot_directory(self, capsys, tmp_path, monkeypatch, via):
        # the option and the variable both name the directory holding the CSVs
        self.write(tmp_path, ["A,Alpha,0.0,0.0", "B,Bravo,0.0,1.0"], ["A,B"])
        if via == "--data-dir":
            argv = [via, str(tmp_path)]
        else:
            monkeypatch.setenv(via, str(tmp_path))
            argv = []
        code, out, _ = run_cli(capsys, "airport", *argv)
        assert code == 0
        assert f"# airports = {tmp_path / 'airports.csv'}" in out.splitlines()

    def test_byte_order_mark(self, capsys, tmp_path):
        # the mark goes with each file's header line
        code, out, _ = run_cli(capsys, "airport", *self.write(tmp_path))
        bom = tmp_path / "bom"
        bom.mkdir()
        for name in ("airports.csv", "routes.csv"):
            bom_copy(tmp_path / name).rename(bom / name)
        code_bom, out_bom, _ = run_cli(capsys, "airport", "--data-dir", str(bom))
        assert (code, code_bom) == (0, 0)
        assert data_rows(out_bom) == data_rows(out)

    def test_missing_file(self, capsys, tmp_path):
        argv = self.write(tmp_path)
        (tmp_path / "routes.csv").unlink()
        code, out, err = run_cli(capsys, "airport", *argv)
        assert (code, out) == (1, "")
        assert "error: cannot read dataset" in err

    def test_malformed_record(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "airport", *self.write(tmp_path, ["A,Alpha,north,0.0"]))
        assert (code, out) == (1, "")
        assert "airports.csv:2: malformed airport record" in err

    @pytest.mark.parametrize("name, record, line, kind, at", [
        # Latin-1, not UTF-8, after an id quoted round its comma
        ("airports.csv", b"G,Z\xfcrich,47.4,8.5", 9, "airport", 3),
        ("routes.csv", b"A,\xfcB", 11, "route", 2),
    ])
    def test_byte_not_utf8_names_its_line(self, capsys, tmp_path, name, record, line, kind, at):
        argv = self.write(tmp_path, [*(f"{a},{n},{lat},{lon}" for a, n, lat, lon in self.AIRPORTS),
                                     '"H, Hotel",Hotel,2.0,2.0'])
        with open(tmp_path / name, "ab") as fh:
            fh.write(record + b"\n")
        code, out, err = run_cli(capsys, "airport", *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: {tmp_path / name}:{line}: malformed {kind} record "
                       f"('utf-8' codec can't decode byte 0xfc in position {at}: invalid start byte)\n")

    @pytest.mark.parametrize("name, record, line, kind", [
        ("airports.csv", "G,{},2.0,2.0", 8, "airport"),
        ("routes.csv", "A,{}", 11, "route"),
    ], ids=["airports.csv", "routes.csv"])
    def test_field_over_the_limit_names_its_line(self, capsys, tmp_path, name, record, line, kind):
        # csv rejects a field over its limit of 131072 characters
        argv = self.write(tmp_path)
        with open(tmp_path / name, "a") as fh:
            fh.write(record.format("x" * 200000) + "\n")
        code, out, err = run_cli(capsys, "airport", *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: {tmp_path / name}:{line}: malformed {kind} record "
                       "(field larger than field limit (131072))\n")

    @pytest.mark.parametrize("airports, routes, want", [
        (["A,Alpha,95,0.0"], None,
         "airports.csv:2: malformed airport record (lat must be in [-90, 90])"),
        (["A,Alpha,nan,0.0"], None,
         "airports.csv:2: malformed airport record (lat must be in [-90, 90])"),
        (["A,Alpha,0.0,200"], None,
         "airports.csv:2: malformed airport record (lon must be in [-180, 180])"),
        ([], None, "bad dataset: no airports in"),
        (None, [], "bad dataset: no usable routes in"),
        (None, ["A,Z", "B,B"], "bad dataset: no usable routes in"),
        (None, ["A"], "routes.csv:2: malformed route record (list index out of range)"),
    ], ids=["lat-95", "lat-nan", "lon-200", "header-only", "header-only-routes",
            "unknown-or-self-routes", "one-field-route"])
    def test_bad_dataset_is_a_data_error(self, capsys, tmp_path, airports, routes, want):
        code, out, err = run_cli(capsys, "airport", *self.write(tmp_path, airports, routes))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and want in err


class TestOutput:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "res.csv"
        code, out, _ = run_cli(
            capsys, "chain", "--lambda", "0.9", "--task", "chsh", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert "max_repeaters" in out_path.read_text()

    @staticmethod
    def run_in_c_locale(tmp_path, *out):
        """critical-nodes on an edge list with the id 東京, in a process whose locale encodes only ASCII."""
        (tmp_path / "g.edges").write_text("東京,b,0.9\nb,c,0.9\n", encoding="utf-8")
        env = dict(src_env(), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        env.pop("PYTHONIOENCODING", None)
        return subprocess.run([sys.executable, "-m", "qnetlim", "critical-nodes", "--in", "g.edges", *out],
                              cwd=tmp_path, env=env, capture_output=True)

    def test_out_is_utf8_in_any_locale(self, tmp_path):
        proc = self.run_in_c_locale(tmp_path, "--out", "nodes.csv")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert "\n東京," in (tmp_path / "nodes.csv").read_bytes().decode("utf-8")

    def test_stdout_that_cannot_encode_is_a_data_error(self, tmp_path):
        proc = self.run_in_c_locale(tmp_path)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"error: cannot write output: 'ascii' codec can't encode"), proc.stderr

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_figures_deterministic(self, capsys, tmp_path, fig_id):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(capsys, "figure", fig_id, "--out", str(a))[0] == 0
        assert run_cli(capsys, "figure", fig_id, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) > 3


class TestUnwritableOutput:
    """An output path that cannot be opened is a data error, and no file is left behind."""

    def expect_unwritable(self, capsys, tmp_path, target, *argv):
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write output: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_chain_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "res.csv"
        self.expect_unwritable(capsys, tmp_path, target, "chain", "--lambda", "0.9", "--out", str(target))

    def test_buffer_out_closes_its_rows(self, capsys, tmp_path, monkeypatch):
        import tempfile

        spooled = []
        make = tempfile.TemporaryFile

        def spool(*args, **kwargs):
            spooled.append(make(*args, **kwargs))
            return spooled[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", spool)
        (tmp_path / "sim.json").write_text(json.dumps(buffer_config(1, 3, 10)))
        target = tmp_path / "missing" / "trace.csv"
        self.expect_unwritable(capsys, tmp_path, target,
                               "buffer", "--config", str(tmp_path / "sim.json"), "--out", str(target))
        assert len(spooled) == 1 and spooled[0].closed

    def test_topology_edges_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "g.edges"
        self.expect_unwritable(capsys, tmp_path, target,
                               "topology", "--kind", "grid", "--edges-out", str(target))


class TestParserPerCommand:
    """main builds one subcommand's options; what it prints matches the full parser."""

    def parse(self, capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return (exc.value.code, *capsys.readouterr())

    (SUB,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    ARGVS = [
        *([command, "--help"] for command in SUB.choices),
        ["--help"], [], ["nosuch"], ["nosuch", "--help"], ["--bogus", "chain", "--lambda", "0.9"],
        ["chain"], ["chain", "--bogus"], ["figure", "nosuch"], ["topology", "--kind", "ring"],
        ["-h", "chain"], ["--", "tradeoff", "--help"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_same_output_as_full_parser(self, capsys, argv):
        full = self.parse(capsys, cli.build_parser().parse_args, argv)
        assert self.parse(capsys, main, argv) == full


class TestFigureGoldens:
    """Every figure's stdout, pinned byte for byte."""

    DIGESTS = {
        "fig4": "1d975f79cf3271979336c502dcad05ac61494ac234dc8b5713809aea69bc1767",
        "fig7": "c1badb9b202963561a94a8868c14e29488ce01ba57162202dda547338151c1f8",
        "fig8": "fe8430a73bebed537b4b3d5e30a7480c3cbd74808ac7a0c0bc77b6d86ce0dfb2",
        "fig12": "b4365c0218135cf059ed98fb474c6d0aaf058cfd2d489a8cf499e513eb4579cb",
        "fig13": "7cd92fb2df76aa1c89b97fbd219f21b1470092ccbbf463916f84b7bb91ac80ed",
        "fig17": "3b420ec073d1a6fb2b6b0830b1d310c70cbdef6a98e6961b400c0ce918c39baf",
        "fig18": "ba7cf966c71eb69fb73a3456ed4ee075f129a864a2a90d5a60a16a1f09c8578b",
        "fig19": "be1ad3e668834cc17851e1d38da7667f0ff55094ddbdfcc029c3a62fee71ccb3",
        "fig20": "08e32d00934d657c10f2990a8a24a51b6da3ff2a0b0ee34ae0bf05bdd2f778c5",
        "fig21": "57a8dfd4a17892d72e867a31dd192567bbd4bbe41f158a0fd7f96fa52dbf0b10",
        "fig34": "850380d0b19bb1e222cf36e3e26f815a991ee2cc9fb19ede38b9be333aaab4ef",
        "fig35": "b17ba37ff6a7caf61372a8ca6bf50b9afe5cc5e9c70a00499d709373cbbc61fd",
        "fig36": "d02c41e4f28a60a2a73489756594641bc5bd6b9a71af4facf1f07d1dc8550aff",
    }

    def test_every_figure_is_pinned(self):
        assert tuple(self.DIGESTS) == FIGURE_IDS

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_output_digest(self, capsys, fig_id):
        code, out, _ = run_cli(capsys, "figure", fig_id)
        assert code == 0
        assert sha256(out) == self.DIGESTS[fig_id]


class TestClosedFormGoldens:
    """tradeoff, satellite and atmosphere: output, exit code and stderr, and the parser, pinned."""

    RUNS = [
        ("tradeoff", 0, "8c413671c1fb184b2f2e5ef8e4c7b6adf3459c1761abac0e14fe2eb3887914fe", ""),
        ("tradeoff --alpha 0.04 --beta 0.002 --eta-s 0.97 --r 2 --q 0.99 --p-star 0.4 --f 2", 0,
         "91b2ee6d8aa374526ed564dea27d4d796acfc85424538e8bc91d264c9a2df652", ""),
        ("tradeoff --eta-s 0.5", 1, sha256(""),
         "error: infeasible even at zero distance: bound is not positive\n"),
        ("tradeoff --r 0", 2, sha256(""), "usage error: r must be >= 1\n"),
        ("satellite --n 1", 0, "a27e86d16e47fb4ed6e8456ab5f83a9c7e0d8d338517491f7db9a94592345103", ""),
        ("satellite --n 3 --eta-e 0.9 --eta-s 0.8 --q 0.95 --p-mem 0.05 --s 3 --alpha 0.05 "
         "--l-b 7.5 --l-m 12.5 --eta-g 0.7 --kappa-g 0.2 --eta-crit 0.1 --convention derivation", 0,
         "047e21505c81db6089e2747e1e7c2a786e86a181c3b1830392830720f6e01824", ""),
        ("satellite --n 4 --convention summary", 0,
         "09a9f3601b0d2126c5ae01420075c3aee61c28d1192a01c73a451efcec231581", ""),
        ("satellite --n 2 --s 5 --eta-crit 0.9", 0,
         "bb14d73baf09e01953ec4ac04568bc1d072b5efbac5651fbf2e6a2f30a54ae51", ""),
        ("satellite --n 2 --eta-e 1.5", 2, sha256(""), "usage error: eta_e must be in [0, 1]\n"),
        ("satellite --n 0", 2, sha256(""), "usage error: n must be >= 1\n"),
        ("atmosphere", 0, "87a9bd502b3d16785b9bfb8d3fe35efe40a3090a07c25558086d21b27f08e6ea", ""),
        ("atmosphere --omega0 0.02 --z-rayleigh 1000 --z 20000 --r 0.75 --sigma-r 1 "
         "--fresnel-ratio 1 --xi-t 0.9 --xi-r 0.8 --xi-as 0.7 --eta 2", 0,
         "5ab228a62aeff39d418735eea0f74a21100686c3a635e5d9c53242a21993cf3d", ""),
        ("atmosphere --xi-t 1.5", 2, sha256(""), "usage error: xi_t must be in [0, 1]\n"),
        ("atmosphere --omega0 0", 2, sha256(""),
         "usage error: beam waist and Rayleigh range must be positive\n"),
    ]

    # (option strings, dest, type, default, required, choices), --help left out
    OPTIONS = {
        "tradeoff": [
            (("--alpha",), "alpha", "float", 0.051, False, None),
            (("--beta",), "beta", "float", 0.001, False, None),
            (("--eta-s",), "eta_s", "float", 1.0, False, None),
            (("--r",), "r", "int", 1, False, None),
            (("--q",), "q", "float", 1.0, False, None),
            (("--p-star",), "p_star", "float", 0.5, False, None),
            (("--f",), "f", "float", None, False, None),
            (("--out",), "out", None, None, False, None),
        ],
        "satellite": [
            (("--n",), "n", "int", None, True, None),
            (("--eta-e",), "eta_e", "float", 0.95, False, None),
            (("--eta-s",), "eta_s", "float", 0.9, False, None),
            (("--q",), "q", "float", 1.0, False, None),
            (("--p-mem",), "p_mem", "float", 0.1, False, None),
            (("--s",), "s", "int", 1, False, None),
            (("--alpha",), "alpha", "float", 0.045454545454545456, False, None),
            (("--l-b",), "l_b", "float", 10.0, False, None),
            (("--l-m",), "l_m", "float", 10.0, False, None),
            (("--eta-g",), "eta_g", "float", 0.5, False, None),
            (("--kappa-g",), "kappa_g", "float", 0.5, False, None),
            (("--eta-crit",), "eta_crit", "float", 0.0, False, None),
            (("--convention",), "convention", None, "derivation", False, ["derivation", "summary"]),
            (("--out",), "out", None, None, False, None),
        ],
        "atmosphere": [
            (("--omega0",), "omega0", "float", 0.0021, False, None),
            (("--z-rayleigh",), "z_rayleigh", "float", 17.8, False, None),
            (("--z",), "z", "float", 0.0, False, None),
            (("--r",), "r", "float", 0.1, False, None),
            (("--sigma-r",), "sigma_r", "float", 0.1, False, None),
            (("--fresnel-ratio",), "fresnel_ratio", "float", 0.1, False, None),
            (("--xi-t",), "xi_t", "float", 1.0, False, None),
            (("--xi-r",), "xi_r", "float", 1.0, False, None),
            (("--xi-as",), "xi_as", "float", 1.0, False, None),
            (("--eta",), "eta", "float", 1.0, False, None),
            (("--out",), "out", None, None, False, None),
        ],
    }

    # value (a function by name) and type name of every parsed option
    NAMESPACES = {
        "tradeoff": {
            "alpha": (0.051, "float"), "beta": (0.001, "float"), "command": ("tradeoff", "str"),
            "eta_s": (1.0, "float"), "f": (None, "NoneType"), "func": ("cmd_tradeoff", "function"),
            "out": (None, "NoneType"), "p_star": (0.5, "float"), "q": (1.0, "float"), "r": (1, "int"),
        },
        "satellite --n 1": {
            "alpha": (0.045454545454545456, "float"), "command": ("satellite", "str"),
            "convention": ("derivation", "str"), "eta_crit": (0.0, "float"),
            "eta_e": (0.95, "float"), "eta_g": (0.5, "float"), "eta_s": (0.9, "float"),
            "func": ("cmd_satellite", "function"), "kappa_g": (0.5, "float"),
            "l_b": (10.0, "float"), "l_m": (10.0, "float"), "n": (1, "int"),
            "out": (None, "NoneType"), "p_mem": (0.1, "float"), "q": (1.0, "float"), "s": (1, "int"),
        },
        "atmosphere": {
            "command": ("atmosphere", "str"), "eta": (1.0, "float"),
            "fresnel_ratio": (0.1, "float"), "func": ("cmd_atmosphere", "function"),
            "omega0": (0.0021, "float"), "out": (None, "NoneType"), "r": (0.1, "float"),
            "sigma_r": (0.1, "float"), "xi_as": (1.0, "float"), "xi_r": (1.0, "float"),
            "xi_t": (1.0, "float"), "z": (0.0, "float"), "z_rayleigh": (17.8, "float"),
        },
    }

    @pytest.mark.parametrize("argv,code,digest,err", RUNS, ids=[r[0] for r in RUNS])
    def test_run(self, capsys, argv, code, digest, err):
        got_code, out, got_err = run_cli(capsys, *argv.split())
        assert (got_code, sha256(out), got_err) == (code, digest, err)

    @pytest.mark.parametrize("command", OPTIONS)
    def test_options(self, command):
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = [
            (tuple(a.option_strings), a.dest, getattr(a.type, "__name__", None), a.default,
             a.required, a.choices)
            for a in sub.choices[command]._actions if a.dest != "help"
        ]
        assert got == self.OPTIONS[command]

    @pytest.mark.parametrize("argv", NAMESPACES)
    def test_parsed_namespace(self, argv):
        ns = vars(cli.build_parser().parse_args(argv.split()))
        got = {k: (v.__name__ if callable(v) else v, type(v).__name__) for k, v in ns.items()}
        assert got == self.NAMESPACES[argv]


_LOADED_AFTER = """
import contextlib, io, json, sys
from qnetlim.cli import main
HEAVY = {"numpy", "scipy", "qnetlim.netgraph"}
loaded = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded[" ".join(argv)] = [code, *sorted(HEAVY & sys.modules.keys())]
print(json.dumps(loaded))
"""


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def loaded_after(*argvs):
    """Exit code and heavy modules loaded after each command, in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, json.dumps(argvs)],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


class TestTopologyGoldens:
    """topology: exit code, stdout, --edges-out file and stderr of every kind, pinned.

    A failed spec writes no edge file (digest None); a circulant power that
    underflows to 0 is an edge probability out of range.
    """

    # (options, exit code, stdout sha256, edge file sha256, stderr)
    RUNS = [
        ("--kind star", 0,
         "f20ed1e8fa796fe1329fe86b4ba34856d2c88fd3ff9990aaee2592a20640a375",
         "43b5a5f0ce506a096722a68b0b747d6c7bc823e18c989b37cc741d47cc59c9ec", ""),
        ("--kind star --n 2 --p 1", 0,
         "9ed6fec0fa1e533d5379ba542d0464c9154510e552cba104b473492cad844efc",
         "f511459d4629ff9559c5f7c954e403ca21f97c5b28448c7b8c6efee652559f77", ""),
        ("--kind mesh", 0,
         "cafeb6a8ac057fcf43fe2c6f1f58ade3001ac37485cbf033d3fe8e6037041e65",
         "131a8604466c53e2d3e4976e3f8583372b451b63497e737af63346696832c8c6", ""),
        ("--kind mesh --n 12 --p 0.3", 0,
         "75e0f4ed6ade221e7cc4deb8f344079887b0c09ddbb02f673730c3da83db4cc9",
         "873331589c74b84e5355d5c67a9b462100c61a025d54beb622545435bc549366", ""),
        ("--kind circulant", 0,
         "c8ac3603ac468d8e574f1b09c0a8573154ac14944ca6e7a45ebb89857d2358bc",
         "2b096afef36bdd5e5ca30929304391a860b559de03e64c17de68fbc282d64b42", ""),
        ("--kind circulant --n 6 --d 3 --p 0.8", 0,
         "c8abfedf51634fa6f68e4acfe36594460053d7b10c78c3cc95dc14831739087b",
         "f719b5b6c0ca337bf1e780d31fef3daf76dad7e003c96af86f1cc6e1d0496b00", ""),
        ("--kind circulant --n 2 --d 1", 0,
         "7169c03469d0d7f10a847a468aa2578b1d6f6a5f4f60e0c5f7de571946bcc12d",
         "184a805ac137ced808dbf1ebace81f7bf3db2b4ed995df347c0c5a24857c2c46", ""),
        ("--kind circulant --n 9 --d 4 --p 1e-160", 0,
         "7999af4b19b54066dc19a91f09ef21d2744abea1004e526ae4a60ab160356085",
         "8a1c9409f5576485c36a85fd5948c397f7d81928c4f831b8a9d0f19654889eab", ""),
        ("--kind circulant --n 8 --d 6 --p 1e-200", 2, sha256(""), None,
         "usage error: edge probability must be in (0, 1]\n"),
        ("--kind circulant --n 9 --d 3", 2, sha256(""), None,
         "usage error: odd-degree circulant needs an even node count\n"),
        ("--kind circulant --n 4 --d 4", 2, sha256(""), None,
         "usage error: circulant needs 1 <= d < n\n"),
        ("--kind grid", 0,
         "478be7dceaa705873d5edbd87b29b38ee5ee7cb246bf6e6db205e63f3b1f9359",
         "514a20ab33e61873af85a0cf25d78fe0f7af381a8553811ceceb36743f77daf8", ""),
        ("--kind grid --width 1 --height 1", 0,
         "3eabceac257f77675f83aba32407f3f1cca545d65b8c795516bb7bf4810ae2ef",
         "9363400197ebb6d869f1dcc4833685aa95343473043d1f49cf8a0fa3fd960dcf", ""),
        ("--kind grid --width 7 --height 3 --p 0.07", 0,
         "fb43433f6a82509c5f0afa6b364852335f7e43a296b5e8339c53466de47c8f2d",
         "e58fd3f40397fa86f234c5db30bedb5c266580d2e9230716d8c2e3d28d917c85", ""),
        ("--kind grid --height 0", 2, sha256(""), None,
         "usage error: grid needs positive dimensions\n"),
        ("--kind cell-square", 0,
         "8300d31230879ee2a32c832c4452e1c8259ae0836e95a1a8f20ac405c32451e3",
         "b7471d2e75428a68f33977cc4ffc7bec3de0e9753d252a72ec4871b7d8fc559f", ""),
        ("--kind cell-octagonal --p 0.5", 0,
         "cab00d1a66e1ce2e5d4b1d98dede0593d7b997d3ceab5975d968d7161eb19638",
         "0e6abe92b74fc920fe860cedfe76085acc4dd4cca83e82dc7d7d934c1a452762", ""),
        ("--kind cell-heavy-hex", 0,
         "c182c927aee3096efb3aa57eb8df1fe92e76babe668be189095ac23b50f4c60e",
         "93b440ec3dbd4f8180c3e17c285943b895bd2534419bddb4883c68c2a3e7ea8f", ""),
        ("--kind square1024", 0,
         "4bab23af1ef57b6907e15cf2a1f1610bb7626cb9285ee1d5db61ea7fd432a192",
         "303e06f70a9491275a3cdadebb43e660a6336a7036aa202a430dee20664520cd", ""),
        ("--kind square1024 --p 0.5", 0,
         "b912310027df8ccea5f108bd74dfeedff232d86e0d8299e40e3287e950208261",
         "1e53ba6a0666ae1a56a67a06d7f7418ee53d9852ea8e2093454c0648a8d28aa0", ""),
        ("--kind star --p nan", 2, sha256(""), None,
         "usage error: edge probability must be in (0, 1]\n"),
        ("--kind mesh --n 1", 2, sha256(""), None,
         "usage error: mesh needs n >= 2\n"),
    ]

    @pytest.mark.parametrize("argv,code,out_digest,edges_digest,err", RUNS, ids=[r[0] for r in RUNS])
    def test_run(self, capsys, tmp_path, monkeypatch, argv, code, out_digest, edges_digest, err):
        monkeypatch.chdir(tmp_path)
        got_code, out, got_err = run_cli(capsys, "topology", *argv.split(), "--edges-out", "t.edges")
        edges = tmp_path / "t.edges"
        got_edges = hashlib.sha256(edges.read_bytes()).hexdigest() if edges.exists() else None
        assert (got_code, sha256(out), got_edges, got_err) == (code, out_digest, edges_digest, err)

    def test_every_kind_is_pinned(self):
        pinned = {r[0].split()[1] for r in self.RUNS if r[1] == 0}
        assert pinned == set(cli._TOPOLOGIES)


class TestImportHygiene:
    """Commands that never build a graph leave numpy, scipy and netgraph unimported."""

    def test_closed_form_commands(self, tmp_path):
        (tmp_path / "sim.json").write_text(json.dumps(buffer_config(1, 3, 60)))
        argvs = [
            ["chain", "--lambda", "0.99"],
            ["tradeoff"],
            ["nqi", "--length", "100", "--n", "4"],
            ["satellite", "--n", "3"],
            ["atmosphere"],
            *(["figure", fig_id] for fig_id in FIGURE_IDS),
            ["buffer", "--config", str(tmp_path / "sim.json")],
        ]
        loaded = loaded_after(*argvs)
        assert loaded == {" ".join(argv): [0] for argv in argvs}

    def test_topology_loads_neither_numpy_nor_scipy(self, tmp_path):
        argvs = [["topology", "--kind", kind, "--edges-out", str(tmp_path / f"{kind}.edges")]
                 for kind in cli._TOPOLOGIES]
        assert loaded_after(*argvs) == {" ".join(argv): [0] for argv in argvs}

    def test_lattice_commands_load_numpy_not_scipy(self, tmp_path):
        edges = str(tmp_path / "sq.edges")
        topology.write_edge_list(edgeviews.edges(netgraph.build_topology(topology.Square1024(0.9))), edges)
        argvs = [
            ["graph", "--in", edges],
            ["critical-nodes", "--in", edges],
            ["evolve", "--in", edges, "--steps", "3"],
            ["path", "--in", edges, "--source", "0", "--target", "1023", "--p-star", "0.001"],
        ]
        loaded = loaded_after(*argvs)
        assert loaded == {" ".join(argv): [0, "numpy", "qnetlim.netgraph"] for argv in argvs}

    @pytest.mark.parametrize("n,scipy_loaded", [(1448, False), (1449, True)])
    def test_rings_either_side_of_the_bound(self, tmp_path, n, scipy_loaded):
        # graph's unbounded pass over a ring of equal weights does at most n rounds
        # over its 2n entries: 1448 * 2896 <= 1 << 22 < 1449 * 2898
        edges = str(tmp_path / "ring.edges")
        topology.write_edge_list(edgeviews.edges(netgraph.build_topology(topology.Circulant(n, 2, 0.9))), edges)
        (loaded,) = loaded_after(["graph", "--in", edges]).values()
        assert loaded[0] == 0 and ("scipy" in loaded) == scipy_loaded

    @pytest.mark.parametrize("n,scipy_loaded", [(40, False), (95, False), (96, True)])
    def test_meshes_either_side_of_the_bound(self, tmp_path, n, scipy_loaded):
        # critical-nodes' neighbour blocks of g subgraphs of k = n - 1 nodes hold
        # g k (k - 1) entries of equal weight, and their unbounded passes do at most
        # k rounds. FullMesh(40): g = 13, 39 * 19266 <= 1 << 22 < 507 * 19266;
        # FullMesh(95) and (96): g = 5, 94 * 5 * 94 * 93 <= 1 << 22 < 95 * 5 * 95 * 94
        edges = str(tmp_path / "mesh.edges")
        topology.write_edge_list(edgeviews.edges(netgraph.build_topology(topology.FullMesh(n, 0.9))), edges)
        (loaded,) = loaded_after(["critical-nodes", "--in", edges]).values()
        assert loaded[:3] == [0, "numpy", "qnetlim.netgraph"] and ("scipy" in loaded) == scipy_loaded

    def test_unequal_weights(self, tmp_path):
        # numpy repairs edges off Square1024's p = 0.9: one on every pass, and ten
        # on the passes a budget bounds; a random-p grid loads scipy
        net = netgraph.build_topology(topology.Square1024(0.9))
        edges = edgeviews.edges(net)
        keys = list(edges)
        rng = random.Random(26)
        grid = netgraph.build_topology(topology.Grid(32, 32, 0.9))
        files = {
            "one": netgraph.Network(net.nodes, {**edges, keys[0]: 0.999999}),
            "ten": netgraph.Network(net.nodes, {**edges, **dict.fromkeys(keys[::199], 0.8)}),
            "noisy": netgraph.Network(grid.nodes, {key: rng.uniform(0.5, 1.0) for key in edgeviews.edges(grid)}),
        }
        for name, graph in files.items():
            topology.write_edge_list(edgeviews.edges(graph), str(tmp_path / f"{name}.edges"))
        numpy_side = [("graph", "one"), ("critical-nodes", "one"), ("critical-nodes", "ten"),
                      ("evolve", "ten")]
        for cmd, name in numpy_side:
            (loaded,) = loaded_after([cmd, "--in", str(tmp_path / f"{name}.edges")]).values()
            assert loaded == [0, "numpy", "qnetlim.netgraph"], (cmd, name)
        for cmd in ("graph", "critical-nodes"):
            (loaded,) = loaded_after([cmd, "--in", str(tmp_path / "noisy.edges")]).values()
            assert loaded[0] == 0 and "scipy" in loaded

    def test_airport_loads_numpy_not_scipy(self):
        (loaded,) = loaded_after(["airport"]).values()
        assert loaded == [0, "numpy", "qnetlim.netgraph"]

    def test_package_attribute_imports_netgraph(self):
        code = (
            "import sys, qnetlim.cli, qnetlim\n"
            "assert 'qnetlim.topology' not in sys.modules\n"
            "assert getattr(qnetlim, 'topology') is sys.modules['qnetlim.topology']\n"
            "assert 'qnetlim.netgraph' not in sys.modules and 'numpy' not in sys.modules\n"
            "assert getattr(qnetlim, 'netgraph') is sys.modules['qnetlim.netgraph']\n"
            "assert getattr(qnetlim, 'no_such_module', None) is None\n"
        )
        subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)


_MODULES_AFTER = """
import contextlib, io, sys
from qnetlim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "json" in sys.modules, "numpy" in sys.modules,
      *sorted(m for m in sys.modules if m.startswith("qnetlim.")))
"""

_REPEATER = ("qnetlim.repeater", "qnetlim.yields")
_SCENARIO = ("qnetlim.scenario", "qnetlim.yields")
_GRAPH = ("qnetlim.netgraph", "qnetlim.topology")


class TestModuleSets:
    """Each command, in its own fresh interpreter, loads only the qnetlim modules it runs.

    Of the commands that load no numpy (and so no scipy, which loads json),
    only buffer loads json.
    """

    COMMANDS = [
        ("chain --lambda 0.99", _REPEATER),
        ("chain --lambda 0.99 --n 3", _REPEATER),
        ("tradeoff --f 2", _REPEATER),
        ("nqi --length 100 --n 4", _REPEATER),
        *((f"figure {fig}", _REPEATER) for fig in ("fig4", "fig7", "fig8", "fig12", "fig13",
                                                    "fig34", "fig35", "fig36")),
        ("satellite --n 3", _SCENARIO),
        ("atmosphere", _SCENARIO),
        *((f"figure {fig}", _SCENARIO) for fig in ("fig17", "fig18", "fig19", "fig20", "fig21")),
        ("buffer --config {sim}", ("qnetlim.buffersim", "qnetlim.yields")),
        ("graph --in {edges}", _GRAPH),
        ("critical-nodes --in {edges}", _GRAPH),
        ("path --in {edges} --source 1 --target 3", _GRAPH),
        ("evolve --in {edges} --steps 2", _GRAPH),
        ("topology --kind grid", ("qnetlim.topology",)),
        ("airport --airports {airports} --routes {routes}", _GRAPH + _SCENARIO),
    ]

    def test_every_figure_is_listed(self):
        assert sorted(c.split()[1] for c, _ in self.COMMANDS if c.startswith("figure")) == sorted(FIGURE_IDS)

    def test_every_submodule_is_run_by_a_command(self):
        # the installed package is what the commands run: a module no row loads belongs in tests
        run = {module for _, modules in self.COMMANDS for module in modules}
        assert {f"qnetlim.{name}" for name in qnetlim._SUBMODULES if name != "cli"} <= run

    @pytest.mark.parametrize("command,modules", COMMANDS, ids=[c for c, _ in COMMANDS])
    def test_loads_only_its_modules(self, tmp_path, edge_file, command, modules):
        (tmp_path / "sim.json").write_text(json.dumps(buffer_config(1, 3, 10)))
        files = dict(zip(("airports", "routes"), TestAirportCommand().write(tmp_path)[1::2]))
        argv = command.format(sim=tmp_path / "sim.json", edges=edge_file, **files).split()
        proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, *argv], env=src_env(),
                              capture_output=True, text=True, check=True)
        code, json_loaded, numpy_loaded, *loaded = proc.stdout.split()
        assert (code, loaded) == ("0", sorted({"qnetlim.cli", *modules}))
        assert numpy_loaded == str("qnetlim.netgraph" in modules)
        if numpy_loaded == "False":
            assert json_loaded == str(argv[0] == "buffer")

