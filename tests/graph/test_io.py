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


def random_edge_list(rng, canonical: bool = False) -> bytes:
    """A seeded edge list in every layout a SNAP file or our writer uses.

    ``canonical``: the layout ``write_edge_list`` emits (``#`` lines, then
    ``u SEP v\\n`` rows with one tab or one space), which the loader parses
    without ``np.loadtxt``.
    """
    n = int(rng.integers(1, 40))
    count = int(rng.integers(1 if canonical else 0, 120))
    weighted = not canonical and bool(rng.integers(2))
    eol = "\r\n" if not canonical and rng.integers(2) else "\n"
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
        if canonical:
            lines.append(str(rng.choice(["\t", " "])).join([str(u), str(v)]))
            continue
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
    if lines and (canonical or rng.integers(2)):
        text += eol
    return text.encode()


def assert_identical(got, want, data=b""):
    assert (got.num_vertices, got.undirected, got.name) == (
        want.num_vertices, want.undirected, want.name), data
    assert np.array_equal(got.indptr, want.indptr), data
    assert np.array_equal(got.indices, want.indices), data
    assert got.weighted == want.weighted, data
    if want.weighted:
        assert np.array_equal(got.weights, want.weights), data


def refuse_loadtxt(monkeypatch):
    def loadtxt(*args, **kwargs):
        raise AssertionError("a canonical edge list reached np.loadtxt")
    monkeypatch.setattr(np, "loadtxt", loadtxt)


class TestAgainstLineLoop:
    def test_random_edge_lists_parse_to_equal_graphs(self):
        rng = np.random.default_rng(31)
        weighted_seen = canonical_seen = 0
        for _ in range(300):
            canonical = rng.random() < 0.4
            data = random_edge_list(rng, canonical)
            want, got = line_loop_reference(data), io.from_edge_list_bytes(data)
            assert_identical(got, want, data)
            weighted_seen += want.weighted
            canonical_seen += canonical
        assert weighted_seen > 50
        assert canonical_seen >= 100

    def test_canonical_edge_lists_never_reach_loadtxt(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(32)
        cases = [random_edge_list(rng, canonical=True) for _ in range(100)]
        wants = [line_loop_reference(data) for data in cases]
        refuse_loadtxt(monkeypatch)
        path = tmp_path / "g.txt"
        for data, want in zip(cases, wants):
            assert_identical(io.from_edge_list_bytes(data), want, data)
            path.write_bytes(data)
            assert_identical(io.read_edge_list(path), want, data)

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


# Inputs at the edges of the canonical path.  Each must give the graph
# line_loop_reference gives, or the ValueError the np.loadtxt path (the
# parser before the canonical path existed, kept verbatim) raises.
EDGE_CASES = [
    # ids of 9, 10, 18, 19 and 20 digits (int32 parse, int64 parse, and
    # np.loadtxt past 18), leading zeros included
    b"000000001\t000000004\n",
    b"# nodes: 5\n0\t999999999\n",
    b"0000000001\t2\n",
    b"# nodes: 5\n0\t1000000000\n",
    b"000000000000000003\t1\n",
    b"# nodes: 5\n0\t999999999999999999\n",
    b"0000000000000000003\t1\n",
    b"# nodes: 5\n0\t1000000000000000000\n",
    b"# nodes: 5\n0\t9999999999999999999\n",  # past int64: np.loadtxt refuses
    b"00000000000000000003\t1\n",
    b"# nodes: 5\n0\t99999999999999999999\n",
    # the int32 limit and one past it
    b"# nodes: 5\n2147483647\t0\n",
    b"# nodes: 5\n2147483648\t0\n",
    b"# nodes: 5\n3000000000 1\n",
    # tab and space mixed across lines
    b"0\t1\n1 2\n2\t0\n",
    # separators and newlines alternate, but a token is empty
    b"0\t\n\t1\n",
    b"\t1\n",
    b"0\n1\n",  # a newline where the separator goes
    # not canonical: CRLF, a blank line, a # line after the first edge,
    # no final newline, an empty body after the header, weights missing
    b"0\t1\r\n1\t2\r\n",
    b"0\t1\n\n1\t2\n",
    b"0\t1\n# c\n1\t2\n",
    b"0\t1\n1\t2",
    b"# kind: undirected\n# nodes: 3 arcs: 0\n",
    b"# weighted: true\n0\t1\n",
    b"# nodes: many\n0\t1\n",
]


class TestCanonicalPath:
    @pytest.mark.parametrize("data", EDGE_CASES)
    def test_edge_cases_match_the_reference_or_the_old_error(self, data, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        try:
            want = line_loop_reference(data)
        except (ValueError, OverflowError):
            with pytest.raises(ValueError) as old:
                io._parse_loadtxt(data)
            for parse, source in ((io.from_edge_list_bytes, data),
                                  (io.read_edge_list, path)):
                with pytest.raises(ValueError) as got:
                    parse(source)
                assert str(got.value) == str(old.value)
        else:
            assert_identical(io.from_edge_list_bytes(data), want, data)
            assert_identical(io.read_edge_list(path), want, data)

    @pytest.mark.parametrize("data, saw", [
        (b"# nodes: 5\n0\t999999999\n", "[0, 999999999]"),
        (b"# nodes: 5\n2147483647\t0\n", "[0, 2147483647]"),
        (b"# nodes: 5\n2147483648\t0\n", "[0, 2147483648]"),
        # np.fromstring(b"3000000000 1", dtype=np.int32, sep=" ") wraps
        (b"# nodes: 5\n3000000000 1\n", "[1, 3000000000]"),
        (b"# nodes: 5\n0\t999999999999999999\n", "[0, 999999999999999999]"),
    ])
    def test_large_ids_are_parsed_without_wrapping(self, data, saw, monkeypatch):
        refuse_loadtxt(monkeypatch)
        with pytest.raises(ValueError) as got:
            io.from_edge_list_bytes(data)
        assert str(got.value) == f"edge endpoint out of range [0, 5): saw {saw}"

    @pytest.mark.parametrize("big", [b"2147483647", b"2147483648", b"3000000000"])
    def test_ids_past_the_int32_csr_are_refused(self, big):
        # without a nodes line the vertex count is max id + 1 > 2**31 - 1
        for parse in (line_loop_reference, io.from_edge_list_bytes):
            with pytest.raises(ValueError, match="int32 CSR limit"):
                parse(b"0\t" + big + b"\n")

    def test_canonical_inputs_skip_loadtxt_at_both_widths(self, monkeypatch):
        refuse_loadtxt(monkeypatch)
        g = io.from_edge_list_bytes(b"# kind: undirected\n0\t1\n1 000000000000000002\n")
        assert sorted(g.iter_edges()) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_load_peak_is_under_thirty_bytes_per_arc(self, tmp_path):
        # the body text, the parsed ids and the builder's int64 keys, plus
        # the shape check's fixed ~1 MB chunk; np.loadtxt peaked at 51 B
        import tracemalloc

        g = gen.rmat(15, 8, seed=3)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        tracemalloc.start()
        try:
            back = io.read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_identical(back, g)
        assert peak <= 30 * g.num_arcs, peak / g.num_arcs


def row_loop_writer(graph) -> bytes:
    """``to_edge_list_bytes`` before it joined rows: one f-string per row.
    Kept as the reference for byte equality."""
    import io as stdio

    buf = stdio.StringIO()
    kind = "undirected" if graph.undirected else "directed"
    buf.write(f"# repro graph: {graph.name or 'unnamed'}\n")
    buf.write(f"# kind: {kind}\n")
    buf.write(f"# nodes: {graph.num_vertices} arcs: {graph.num_arcs}\n")
    if graph.weighted:
        buf.write("# weighted: true\n")
        for v in range(graph.num_vertices):
            nbrs = graph.neighbors(v)
            ws = graph.neighbor_weights(v)
            for u, w in zip(nbrs, ws):
                if not graph.undirected or v < int(u):
                    buf.write(f"{v}\t{int(u)}\t{float(w)!r}\n")
        return buf.getvalue().encode()
    edges = graph.edge_array()
    if graph.undirected:
        edges = edges[edges[:, 0] < edges[:, 1]]
    for u, v in edges:
        buf.write(f"{u}\t{v}\n")
    return buf.getvalue().encode()


class TestWriter:
    @pytest.mark.parametrize("rows_per_join", [7, 1 << 18])
    def test_bytes_equal_the_row_loop(self, rows_per_join, monkeypatch, tmp_path):
        from repro.graph.builder import from_edges

        monkeypatch.setattr(io, "_WRITE_ROWS", rows_per_join)
        weighted = from_edges(4, [(0, 1), (1, 2), (3, 0)], weights=[0.5, 2.0, 1e-3])
        graphs = (
            gen.rmat(9, 8, seed=1),
            gen.erdos_renyi(40, 0.1, seed=2, directed=True),
            from_edges(10, [(0, 1)], undirected=True),
            GraphBuilder(0).build(),
            GraphBuilder(3).build(name="empty"),
            weighted,
        )
        for g in graphs:
            want = row_loop_writer(g)
            assert io.to_edge_list_bytes(g) == want
            io.write_edge_list(g, tmp_path / "g.txt")
            assert (tmp_path / "g.txt").read_bytes() == want


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
