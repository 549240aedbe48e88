import random
import re
import sys
import tracemalloc

import pytest
from conftest import all_labeled_graphs, assert_equal_graphs, graph_from_mask

from orcov import (
    CapacityError,
    Coloring,
    Graph,
    Orientation,
    ParseError,
    chromatic_number,
    complete_graph,
    cycle_graph,
    encode_graph6,
    exact_coloring,
    parse_edge_list,
    parse_graph6,
    path_graph,
    petersen_graph,
    proper_coloring,
    verify_cover,
    wheel_graph,
)
from orcov.graphs import _bits, _transpose, is_proper_coloring


class TestParseEdgeList:
    def test_single_edge(self):
        g = parse_edge_list("0 1")
        assert (g.n, g.m) == (2, 1)

    def test_triangle(self):
        assert_equal_graphs(parse_edge_list("0 1\n1 2\n0 2"), complete_graph(3))

    def test_duplicates_and_reversals_collapse(self):
        g = parse_edge_list("0 1\n1 0\n0 1")
        assert g.m == 1

    def test_header_pins_vertex_count(self):
        g = parse_edge_list("n 5\n0 1")
        assert (g.n, g.m) == (5, 1)

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 1.*self-loop"):
            parse_edge_list("0 0")
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("0 1\n1 2\n2 2")

    def test_non_integer_token(self):
        # int() alone would read 1_0 as 10 and +0 as 0
        for text, message in [
            ("0 1\n1 x", "line 2: non-integer token 'x'"),
            ("0 1\n0 1_0", "line 2: non-integer token '1_0'"),
            ("0 1\n+0 1", "line 2: non-integer token '+0'"),
            ("0 1\n0 +1", "line 2: non-integer token '+1'"),
            ("0 1\n--1 2", "line 2: non-integer token '--1'"),
            ("n x\n0 1", "line 1: non-integer vertex count 'x'"),
            ("n 1_2\n0 1", "line 1: non-integer vertex count '1_2'"),
            ("n +12\n0 1", "line 1: non-integer vertex count '+12'"),
        ]:
            with pytest.raises(ParseError, match=re.escape(message)):
                parse_edge_list(text)

    def test_non_ascii_text_rejected_on_its_line(self):
        # str.split() separates on U+00A0 and U+2003, and int() reads
        # non-ASCII digits; lines are numbered as str.splitlines numbers
        # them, so U+001C and U+2028 end a line
        for text, message in [
            ("0\u00a01\n", "line 1: non-ASCII character '\\xa0'"),
            ("n 4\n0 1\n1\u00a02\n2 3", "line 3: non-ASCII character '\\xa0'"),
            ("0\u20031\n-1 2", "line 1: non-ASCII character '\\u2003'"),
            ("0 1\n0 \u0663", "line 2: non-ASCII character '\\u0663'"),  # ARABIC-INDIC THREE
            ("n \u0661\u0662\n0 1", "line 1: non-ASCII character '\\u0661'"),
            ("0 1\r\n1 2\x1c2 3\n3 \u00e9", "line 4: non-ASCII character '\\xe9'"),
            ("0 1\n1 2\u20282 3", "line 2: non-ASCII character '\\u2028'"),
        ]:
            with pytest.raises(ParseError, match=re.escape(message)):
                parse_edge_list(text)

    def test_negative_endpoint(self):
        with pytest.raises(ParseError, match="negative"):
            parse_edge_list("0 -1")

    def test_endpoint_beyond_pinned_count(self):
        with pytest.raises(ParseError, match="line 2.*out of range"):
            parse_edge_list("n 2\n0 5")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_edge_list("")
        with pytest.raises(ParseError):
            parse_edge_list("   \n  ")

    def test_header_only_gives_edgeless_graph(self):
        g = parse_edge_list("n 3")
        assert (g.n, g.m) == (3, 0)


class TestGraph6:
    def test_known_encodings(self):
        assert_equal_graphs(parse_graph6("A_"), complete_graph(2))
        assert_equal_graphs(parse_graph6("Bw"), complete_graph(3))
        g = parse_graph6("A?")
        assert (g.n, g.m) == (2, 0)

    def test_header_stripped(self):
        assert_equal_graphs(parse_graph6(">>graph6<<Bw"), complete_graph(3))

    def test_byte_out_of_range(self):
        with pytest.raises(ParseError, match="outside graph6 range"):
            parse_graph6("B!")
        with pytest.raises(ParseError, match="not ASCII"):
            parse_graph6("B" + chr(200))

    def test_truncated_payload(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_graph6("D")

    def test_trailing_data(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_graph6("Bww")

    def test_long_form_rejected(self):
        with pytest.raises(ParseError, match="long-form"):
            parse_graph6(chr(126) + "???")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip_all_graphs(self, n):
        for g in all_labeled_graphs(n):
            assert_equal_graphs(parse_graph6(encode_graph6(g)), g)

    def test_reference_bit_layout(self):
        # independent codec: bits fill the upper triangle column-major,
        # six to a byte from the high bit, the last byte padded with zeros
        rng = random.Random(62)
        graphs = list(all_labeled_graphs(4))
        for n in (1, 2, 6, 7, 12, 13, 33, 61, 62):
            for _ in range(4):
                graphs.append(graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2)))
        for g in graphs:
            s = encode_graph6(g)
            n = ord(s[0]) - 63
            bits = "".join(format(ord(ch) - 63, "06b") for ch in s[1:])
            edges = []
            i = 0
            for v in range(1, n):
                for u in range(v):
                    if bits[i] == "1":
                        edges.append((u, v))
                    i += 1
            assert tuple(sorted(edges)) == g.edges

            want = "".join(
                "1" if g.has_edge(u, v) else "0" for v in range(1, g.n) for u in range(v)
            )
            pad = -len(want) % 6
            ref = chr(63 + g.n) + "".join(
                chr(63 + int((want + "0" * pad)[i:i + 6], 2)) for i in range(0, len(want), 6)
            )
            assert s == ref
            assert parse_graph6(ref) == g
            if pad:
                # nonzero padding bits in the last byte are ignored
                noisy = ref[:-1] + chr(63 + ((ord(ref[-1]) - 63) | (1 << pad) - 1))
                assert noisy != ref and parse_graph6(noisy) == g

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 9)
            mask = rng.getrandbits(n * (n - 1) // 2)
            g = graph_from_mask(n, mask)
            theirs = nx.to_graph6_bytes(
                nx.Graph([(u, v) for u, v in g.edges] or None)
                if g.m
                else nx.empty_graph(n),
                header=False,
            ).strip().decode()
            if g.m:
                got = nx.from_graph6_bytes(encode_graph6(g).encode())
                assert set(got.edges()) == {tuple(e) for e in g.edges}
            else:
                assert encode_graph6(g) == theirs


class TestConstructions:
    def test_complete_graph(self):
        assert complete_graph(1).m == 0
        assert complete_graph(2).m == 1
        assert complete_graph(5).m == 10
        with pytest.raises(ValueError):
            complete_graph(0)

    def test_named_shapes(self):
        assert cycle_graph(5).m == 5
        assert path_graph(4).m == 3
        assert path_graph(1).m == 0
        w5 = wheel_graph(5)
        assert (w5.n, w5.m) == (5, 8)
        assert w5.degree(0) == 4
        p = petersen_graph()
        assert (p.n, p.m) == (10, 15)
        assert all(p.degree(v) == 3 for v in range(10))

    def test_invalid_graphs_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges([(1, 1)], n=2)
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (2, 0))
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            Graph(2, (1, 0))
        with pytest.raises(ValueError, match=">= n"):
            Graph(2, (4, 0))

    def test_asymmetric_adjacency_names_first_pair(self):
        # 0 lists 2 and 3, but only 3 lists 0; 2 lists 1, 1 lists nobody
        with pytest.raises(ValueError, match="between 0 and 2$"):
            Graph(4, (0b1100, 0, 0b0010, 0b0001))
        # only the lower triangle holds the stray bit: 2 lists 0 alone
        with pytest.raises(ValueError, match="between 2 and 0$"):
            Graph(3, (0, 0, 0b001))

    def test_invariants_on_dense_and_sparse_rows(self):
        for g in (complete_graph(70), cycle_graph(300), petersen_graph()):
            assert Graph(g.n, g.adj) == g
            for u, v in g.edges[:: max(1, g.m // 7)]:
                adj = list(g.adj)
                adj[u] ^= 1 << v
                with pytest.raises(ValueError, match=f"between {v} and {u}$"):
                    Graph(g.n, tuple(adj))
        # edges are derived from the rows, in canonical order, however
        # from_edges received them
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert Graph(g.n, g.adj) == g
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)]
                assert g.edges == tuple(pairs)
                assert Graph.from_edges([(v, u) for u, v in reversed(pairs)], n=n).edges == g.edges

    def test_relabel(self):
        g = path_graph(3)  # edges (0,1), (1,2)
        h = g.relabel([2, 0, 1])
        assert h.edges == ((0, 1), (0, 2))


class TestColoring:
    def test_chromatic_examples(self):
        assert chromatic_number(complete_graph(4)) == 4
        assert chromatic_number(cycle_graph(5)) == 3
        assert chromatic_number(path_graph(4)) == 2
        assert chromatic_number(petersen_graph()) == 3
        assert chromatic_number(path_graph(1)) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chromatic_complete(self, n):
        assert chromatic_number(complete_graph(n)) == n

    def test_proper_coloring_examples(self):
        c = proper_coloring(complete_graph(3), 3)
        assert c is not None and sorted(c.colors) == [0, 1, 2]
        assert proper_coloring(complete_graph(3), 2) is None
        c = proper_coloring(cycle_graph(5), 3)
        assert c is not None and is_proper_coloring(cycle_graph(5), c.colors)

    def test_matches_exhaustive_t_sweep_small(self):
        for n in (2, 3, 4):
            for g in all_labeled_graphs(n):
                swept = min(
                    t for t in range(1, n + 1) if proper_coloring(g, t) is not None
                )
                assert chromatic_number(g) == swept

    def test_matches_exhaustive_t_sweep_sampled(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(5, 7)
            g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            swept = min(
                t for t in range(1, n + 1) if proper_coloring(g, t) is not None
            )
            assert chromatic_number(g) == swept

    def test_exact_coloring_is_first_chi_coloring(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 12)
            g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            c = exact_coloring(g)
            assert c.t == chromatic_number(g)
            assert is_proper_coloring(g, c.colors)
            if g.m:
                assert c == proper_coloring(g, c.t)
                assert proper_coloring(g, c.t - 1) is None

    def test_long_cycle_without_recursion_limit(self):
        assert chromatic_number(cycle_graph(1501), max_vertices=2000) == 3

    def test_vertex_bound_guard(self):
        big = complete_graph(33)
        with pytest.raises(CapacityError, match="33"):
            chromatic_number(big)
        assert chromatic_number(big, max_vertices=33) == 33

    def test_coloring_invariants(self):
        with pytest.raises(ValueError):
            Coloring((0, 2), 3)  # color 1 unused
        with pytest.raises(ValueError):
            Coloring((), 0)


class TestOrientation:
    def test_dir_round_trip(self):
        o = Orientation.from_dir(3, [True, False, True])
        assert o.dir == (True, False, True)
        assert o.bits == 0b101

    def test_dir_with_leading_zeros_and_no_edges(self):
        assert Orientation(5, 4, 0b0010).dir == (False, True, False, False)
        assert Orientation.from_dir(5, [False] * 4).bits == 0
        assert Orientation.from_dir(1, []) == Orientation(1, 0, 0)
        assert Orientation(1, 0, 0).dir == ()
        assert Orientation.from_dir(3, [1, 0, 2]).bits == 0b101  # truthy flags
        rng = random.Random(8)
        for m in (1, 63, 64, 65, 500):
            bits = rng.getrandbits(m) >> rng.randrange(m)
            o = Orientation(2, m, bits)
            assert o.dir == tuple(bool(bits >> e & 1) for e in range(m))
            assert Orientation.from_dir(2, list(o.dir)) == o

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Orientation(3, 2, 0b100)
        with pytest.raises(ValueError):
            verify_cover(complete_graph(3), [Orientation(3, 2, 0)])


# int() refuses more digits than sys.get_int_max_str_digits() (4300 by default)
INT_DIGIT_LIMIT = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", int)() < 4400, reason="int() reads 4400 digits")
LONG_TOKENS = {
    "long-first-token": ("9" * 4400 + " 1\n",
                         "line 1: token '99999999...' is too long (4400 digits)"),
    "long-second-token": ("1 " + "9" * 4400 + "\n",
                          "line 1: token '99999999...' is too long (4400 digits)"),
    "long-vertex-count": ("n " + "9" * 4400 + "\n",
                          "line 1: vertex count '99999999...' is too long (4400 digits)"),
}


@pytest.mark.parametrize("call, error, message", [
    *[pytest.param(lambda text=text: parse_edge_list(text), ParseError, message, id=case,
                   marks=INT_DIGIT_LIMIT) for case, (text, message) in LONG_TOKENS.items()],
    pytest.param(lambda: parse_edge_list("0 +" + "9" * 4400), ParseError,
                 "line 1: non-integer token '+9999999...' (4401 characters)",
                 id="long-non-decimal-token"),
    pytest.param(lambda: parse_edge_list("n 3 4\n0 1"), ParseError,
                 "line 1: header must be 'n <count>'", id="header-length"),
    pytest.param(lambda: parse_edge_list("\nn 0\n"), ParseError,
                 "line 2: vertex count must be positive", id="header-zero"),
    pytest.param(lambda: parse_edge_list("0 1\n1 2 3"), ParseError,
                 "line 2: expected 'u v', got '1 2 3'", id="three-tokens"),
    pytest.param(lambda: parse_graph6(" \n"), ParseError, "empty graph6 input", id="g6-empty"),
    pytest.param(lambda: parse_graph6(">>graph6<<\n"), ParseError, "empty graph6 input",
                 id="g6-header-only"),
    pytest.param(lambda: parse_graph6("?"), ParseError, "graph6 encodes an empty vertex set",
                 id="g6-no-vertices"),
    pytest.param(lambda: Graph.from_edges([(0, 1), (2, -1)], n=3), ValueError,
                 "negative endpoint in edge (2, -1)", id="from-edges-negative"),
    pytest.param(lambda: Graph.from_edges([], n=-1), ValueError,
                 "graph needs at least one vertex", id="from-edges-empty"),
    pytest.param(lambda: Graph.from_edges([(0, 3)], n=3), ValueError,
                 "endpoint 3 out of range for n=3", id="from-edges-above-n"),
    pytest.param(lambda: Graph(0, ()), ValueError, "graph needs at least one vertex",
                 id="no-vertices"),
    pytest.param(lambda: Graph(2, (0,)), ValueError, "adjacency row count does not match n",
                 id="row-count"),
    pytest.param(lambda: path_graph(3).relabel([0, 0, 1]), ValueError,
                 "perm must be a permutation of 0..n-1", id="relabel"),
    pytest.param(lambda: proper_coloring(path_graph(2), 0), ValueError, "t must be positive",
                 id="no-colors"),
    pytest.param(lambda: encode_graph6(Graph.from_edges([], n=63)), CapacityError,
                 "graph6 short form supports at most 62 vertices", id="g6-encode-63"),
    pytest.param(lambda: cycle_graph(2), ValueError, "cycle_graph needs n >= 3", id="cycle"),
    pytest.param(lambda: path_graph(0), ValueError, "path_graph needs n >= 1", id="path"),
    pytest.param(lambda: wheel_graph(3), ValueError, "wheel_graph needs n >= 4", id="wheel"),
])
def test_input_error_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("pair", [(0, 1 << 27), (1 << 27, 0)])
def test_endpoint_above_n_sizes_no_shift(pair):
    """A far endpoint fails as a row index: no 16 MB shift 1 << 2**27 is built first."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            Graph.from_edges([pair], n=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"endpoint {1 << 27} out of range for n=3"
    assert peak < 2**20


def test_coloring_of_the_wrong_length_is_not_proper():
    g = path_graph(3)
    assert is_proper_coloring(g, [0, 1, 0])
    assert not is_proper_coloring(g, [0, 1])
    assert not is_proper_coloring(g, [0, 1, 0, 1])


def test_bits_matches_shift_loop():
    rng = random.Random(6)
    masks = [0, 1, 2, 1 << 200, (1 << 1200) - 1, (1 << 1200) - 2]
    masks += [rng.getrandbits(rng.randint(1, 300)) << rng.randrange(300) for _ in range(300)]
    for mask in masks:
        want = [b for b in range(mask.bit_length()) if mask >> b & 1]
        assert _bits(mask) == want


def test_transpose_matches_shift_loop():
    rng = random.Random(11)
    shapes = [(0, 0), (0, 5), (3, 0), (1, 1), (17, 70)]
    # every shape branch (<= 8 rows, <= 8 columns, the rest) and its edges
    shapes += [(r, w) for r in (0, 1, 7, 8, 9, 17) for w in (0, 1, 7, 8, 9, 70)]
    shapes += [(rng.randint(0, 17), rng.randint(0, 70)) for _ in range(300)]
    for nrows, width in shapes:
        rows = [rng.getrandbits(width) for _ in range(nrows)]
        want = [sum((rows[r] >> j & 1) << r for r in range(nrows)) for j in range(width)]
        assert _transpose(rows, width) == want
        assert _transpose(want, nrows) == rows
