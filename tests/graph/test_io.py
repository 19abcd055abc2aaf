"""Graph serialization round trips and SNAP edge-list parsing."""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph import io
from repro.graph.builder import GraphBuilder


def assert_same_graph(a, b):
    assert a.num_vertices == b.num_vertices
    assert a.undirected == b.undirected
    assert sorted(a.iter_edges()) == sorted(b.iter_edges())


class TestEdgeList:
    def test_round_trip_undirected(self, tmp_path, small_world):
        p = tmp_path / "g.txt"
        io.write_edge_list(small_world, p)
        back = io.read_edge_list(p)
        assert_same_graph(small_world, back)

    def test_round_trip_directed(self, tmp_path):
        g = gen.erdos_renyi(30, 0.1, seed=1, directed=True)
        p = tmp_path / "g.txt"
        io.write_edge_list(g, p)
        assert_same_graph(g, io.read_edge_list(p))

    def test_round_trip_preserves_name(self, tmp_path, ring10):
        ring10.name = "myring"
        p = tmp_path / "g.txt"
        io.write_edge_list(ring10, p)
        assert io.read_edge_list(p).name == "myring"

    def test_round_trip_isolated_vertices(self, tmp_path):
        from repro.graph.builder import from_edges
        g = from_edges(10, [(0, 1)], undirected=True)
        p = tmp_path / "g.txt"
        io.write_edge_list(g, p)
        assert io.read_edge_list(p).num_vertices == 10

    def test_headerless_snap_format(self):
        data = b"# SNAP comment\n0\t1\n1\t2\n4\t2\n"
        g = io.from_edge_list_bytes(data)
        assert g.num_vertices == 5
        assert not g.undirected
        assert sorted(g.iter_edges()) == [(0, 1), (1, 2), (4, 2)]

    def test_space_separated_accepted(self):
        g = io.from_edge_list_bytes(b"0 1\n1 2\n")
        assert g.num_arcs == 2

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            io.from_edge_list_bytes(b"0\n")

    def test_empty_input(self):
        g = io.from_edge_list_bytes(b"")
        assert g.num_vertices == 0

    def test_bytes_round_trip(self, k5):
        data = io.to_edge_list_bytes(k5)
        assert_same_graph(k5, io.from_edge_list_bytes(data))

    def test_undirected_file_stores_each_edge_once(self, ring10):
        data = io.to_edge_list_bytes(ring10).decode()
        edges = [l for l in data.splitlines() if not l.startswith("#")]
        assert len(edges) == 10


def line_loop_reference(data: bytes):
    """The parser ``from_edge_list_bytes`` was before ``np.loadtxt``: one
    Python pass over the decoded lines.  Kept as the reference."""
    name = ""
    undirected = False
    weighted = False
    declared_n = None
    src, dst, wts = [], [], []
    for raw in data.decode().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("repro graph:"):
                name = body.split(":", 1)[1].strip()
                if name == "unnamed":
                    name = ""
            elif body.startswith("kind:"):
                undirected = body.split(":", 1)[1].strip() == "undirected"
            elif body.startswith("nodes:"):
                declared_n = int(body.split()[1])
            elif body.startswith("weighted:"):
                weighted = body.split(":", 1)[1].strip() == "true"
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"malformed edge line: {raw!r}")
        src.append(int(parts[0]))
        dst.append(int(parts[1]))
        if len(parts) >= 3:
            weighted = True
            wts.append(float(parts[2]))
        elif weighted:
            raise ValueError(f"missing weight on line: {raw!r}")
    n = declared_n if declared_n is not None else (max(src + dst) + 1 if src else 0)
    b = GraphBuilder(n, undirected=undirected)
    if src:
        b.add_edges(
            np.array(src), np.array(dst), np.array(wts) if weighted else None
        )
    return b.build(name=name)


def random_edge_list(rng) -> bytes:
    """A seeded edge list in every layout a SNAP file or our writer uses."""
    n = int(rng.integers(1, 40))
    count = int(rng.integers(0, 120))
    weighted = bool(rng.integers(2))
    eol = "\r\n" if rng.integers(2) else "\n"
    lines = []
    if rng.integers(2):
        lines.append(f"# repro graph: {rng.choice(['unnamed', 'g-1', 'a: b'])}")
    if rng.integers(2):
        lines.append(f"# kind: {rng.choice(['directed', 'undirected'])}")
    if rng.integers(2):  # ids past the largest endpoint: isolated vertices
        lines.append(f"#nodes: {n + int(rng.integers(0, 5))} arcs: {count}")
    if weighted and rng.integers(2):
        lines.append("#  weighted: true")
    for _ in range(count):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        sep = str(rng.choice(["\t", " ", "  ", " \t"]))
        pad = str(rng.choice(["", " ", "\t"]))
        fields = [str(u), str(v)]
        if weighted:
            w = float(rng.choice([0.5, 2.0, 1e-3, 1e21, -1.25, rng.random()]))
            fields.append(str(rng.choice([repr(w), f"{w:.17g}", f"{w:e}"])))
        lines.append(pad + sep.join(fields) + pad)
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", "   ", "# SNAP comment", "  # x: y"])))
    text = eol.join(lines)
    if lines and rng.integers(2):
        text += eol
    return text.encode()


class TestAgainstLineLoop:
    def test_random_edge_lists_parse_to_equal_graphs(self):
        rng = np.random.default_rng(31)
        weighted_seen = 0
        for _ in range(300):
            data = random_edge_list(rng)
            want, got = line_loop_reference(data), io.from_edge_list_bytes(data)
            assert (got.num_vertices, got.undirected, got.name) == (
                want.num_vertices, want.undirected, want.name), data
            assert np.array_equal(got.indptr, want.indptr), data
            assert np.array_equal(got.indices, want.indices), data
            assert got.weighted == want.weighted, data
            if want.weighted:
                assert np.array_equal(got.weights, want.weights), data
                weighted_seen += 1
        assert weighted_seen > 50

    @pytest.mark.parametrize("data", [
        b"0\n",
        b"0 1\n2\n",
        b"0 1.5\n",
        b"0 1e3\n",
        b"0 0x10\n",
        b"a b\n",
        b"0 1\n1 b\n",
        b"0,1\n",
        b"\xef\xbb\xbf0 1\n",  # a byte-order mark is not a digit
        b"0 \xff\n",
        b"0 1 x\n",
        b"0 1 2.5\n1 2\n",
        b"# weighted: true\n0 1\n",
        b"0 -1\n",
        b"# nodes: 2\n0 5\n",
        b"# nodes: many\n0 1\n",
        b"0 18446744073709551615\n",
    ])
    def test_malformed_input_is_refused_by_both(self, data):
        for parse in (line_loop_reference, io.from_edge_list_bytes):
            with pytest.raises(ValueError):
                parse(data)

    @pytest.mark.parametrize("data, match", [
        (b"0 1\n1 2 0.5\n", "malformed"),  # ref: refused later, by the builder
        (b"0 1 2.5\n1 2 0.5 9\n", "malformed"),  # ref: ignored the extras
        (b"0 1 2 3\n", "malformed"),
        (b"0 1_0\n", "malformed"),  # ref: int() reads 1_0 as 10
        (b"0 99999999999999999999\n", "malformed"),  # ref: OverflowError
        (b"0 1 2.5\n1 2\n", "missing weight"),
        (b"# nodes:\n0 1\n", "invalid literal"),  # ref: IndexError
    ])
    def test_field_count_and_ids_are_strict(self, data, match):
        with pytest.raises(ValueError, match=match):
            io.from_edge_list_bytes(data)

    def test_trailing_comment_on_an_edge_line_is_accepted(self):
        g = io.from_edge_list_bytes(b"0 1 # note\n1 2\t#x\n")
        assert sorted(g.iter_edges()) == [(0, 1), (1, 2)]

    def test_comments_only(self):
        g = io.from_edge_list_bytes(b"# kind: undirected\n# nodes: 3 arcs: 0\n\n")
        assert (g.num_vertices, g.num_arcs, g.undirected) == (3, 0, True)


class TestNpz:
    def test_round_trip(self, tmp_path, small_world):
        p = tmp_path / "g.npz"
        io.write_npz(small_world, p)
        back = io.read_npz(p)
        assert_same_graph(small_world, back)
        assert np.array_equal(back.indptr, small_world.indptr)

    def test_round_trip_directed_with_name(self, tmp_path):
        g = gen.erdos_renyi(20, 0.2, seed=2, directed=True)
        g.name = "er-directed"
        p = tmp_path / "g.npz"
        io.write_npz(g, p)
        back = io.read_npz(p)
        assert back.name == "er-directed"
        assert not back.undirected
