import hashlib
import json
import math
import random

import pytest

from qnetlim import buffersim, cli, netgraph
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
    netgraph.save_edge_list(net, path)
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

    def test_nqi_infeasible(self, capsys):
        code, _, err = run_cli(capsys, "nqi", "--length", "952", "--n", "10", "--q", "0.8")
        assert code == 1
        assert "bound" in err


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

    def test_path_disconnected(self, capsys, tmp_path):
        f = tmp_path / "weak.edges"
        f.write_text("a,b,0.2\n")
        code, _, err = run_cli(
            capsys, "path", "--in", str(f), "--source", "a", "--target", "b"
        )
        assert code == 1

    def test_critical_nodes(self, capsys, tmp_path):
        f = tmp_path / "sq.edges"
        netgraph.save_edge_list(
            netgraph.Network(
                [1, 2, 3, 4],
                [(1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5), (4, 1, 0.5), (1, 3, 0.5)],
            ),
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
    """Cooperative metrics share one scipy all-pairs pass per (network, p_star)."""

    @pytest.mark.parametrize(
        "argv,passes", [(("graph",), 1), (("evolve", "--steps", "10"), 10)], ids=["graph", "evolve"]
    )
    def test_square1024(self, capsys, monkeypatch, lattice_dir, argv, passes):
        calls = []
        real = netgraph._sp_shortest_path

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(netgraph, "_sp_shortest_path", counted)
        code, _, _ = run_cli(capsys, argv[0], "--in", "sq.edges", *argv[1:])
        assert (code, len(calls)) == (0, passes)


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
    """buffer streams its rows: no TraceEvent, no trace_csv string, the same bytes."""

    @pytest.fixture(autouse=True)
    def no_per_row_objects(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("buffer built the trace in memory")

        monkeypatch.setattr(buffersim, "TraceEvent", refuse)
        monkeypatch.setattr(buffersim, "trace_csv", refuse)

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
        (dict(buffer_config(1, 3, 10), capacity=0), 2),  # rejected once the run starts
    ])
    def test_failed_run_writes_no_file(self, capsys, tmp_path, cfg, want):
        (tmp_path / "sim.json").write_text(json.dumps(cfg))
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "buffer", "--config", str(tmp_path / "sim.json"), "--out", str(out_path))
        assert code == want
        assert not out_path.exists()

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


class TestOutput:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "res.csv"
        code, out, _ = run_cli(
            capsys, "chain", "--lambda", "0.9", "--task", "chsh", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert "max_repeaters" in out_path.read_text()

    @pytest.mark.parametrize("fig_id", FIGURE_IDS)
    def test_figures_deterministic(self, capsys, tmp_path, fig_id):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(capsys, "figure", fig_id, "--out", str(a))[0] == 0
        assert run_cli(capsys, "figure", fig_id, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) > 3


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
