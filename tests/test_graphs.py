import random
import re
import sys
import tracemalloc

import pytest
from conftest import (
    all_labeled_graphs,
    assert_equal_graphs,
    graph_from_mask,
    reference_dsatur,
    reference_edge_list_rows,
    reference_neighbor_lists,
    reference_priorities,
    relabeled,
)

from orcov import (
    CapacityError,
    Coloring,
    Graph,
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
    wheel_graph,
)
from orcov.graphs import (
    _bits,
    _canonical_rows,
    _degree_rows,
    _dsatur,
    _edge_list_graph,
    _edge_list_rows,
    _greedy_clique,
    _transpose,
    is_proper_coloring,
)


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
        # the rows reach the largest endpoint; the graph pads them to n
        assert _unbounded_rows("n 5\n0 1") == ([0b10, 0b01], 5, 1)

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
        assert _unbounded_rows("n 3") == ([], 3, 0)

    def test_rows_stop_at_the_bound(self):
        """Past the bound the rows are None, and the vertex count is still the largest
        endpoint's; a later fault is still found."""
        text = "0 1\n40 2\n2 40\n3 4\n50 1\n1 0\n"
        assert _edge_list_rows(text, 32)[:2] == (None, 51)
        assert _edge_list_rows(text, 51) == _unbounded_rows(text)
        assert _unbounded_rows(text)[1:] == (51, 4)
        with pytest.raises(ParseError, match="line 7: self-loop 9 9"):
            _edge_list_rows(text + "9 9\n", 32)
        assert _edge_list_rows("n 60\n0 1\n", 32) == ([0b10, 0b01], 60, 1)

    def test_rows_stop_where_they_cannot_be_allocated(self):
        text = "0 1\n0 100000000000000000000\n1 100000000000000000000\n1 2\n"
        assert _unbounded_rows(text) == (None, 10**20 + 1, 4)
        with pytest.raises(CapacityError, match=f"rows for n={10**20 + 1} vertices"):
            _edge_list_graph(*_unbounded_rows(text))

    def test_rows_are_padded_to_the_header(self):
        g = _edge_list_graph([0b10, 0b01], 4, 1)
        assert (g.n, g.adj, g.m, g.edges) == (4, (0b10, 0b01, 0, 0), 1, ((0, 1),))
        assert g == Graph(4, (0b10, 0b01, 0, 0))


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
                "1" if g.adj[u] >> v & 1 else "0" for v in range(1, g.n) for u in range(v)
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
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if g.adj[u] >> v & 1]
                assert g.edges == tuple(pairs)
                assert Graph.from_edges([(v, u) for u, v in reversed(pairs)], n=n).edges == g.edges


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
    pytest.param(lambda: proper_coloring(path_graph(2), 0), ValueError, "t must be positive",
                 id="no-colors"),
    pytest.param(lambda: chromatic_number(path_graph(2), max_vertices=0), ValueError,
                 "max_vertices must be positive", id="chromatic-vertex-bound-zero"),
    pytest.param(lambda: exact_coloring(path_graph(2), max_vertices=-5), ValueError,
                 "max_vertices must be positive", id="coloring-vertex-bound-negative"),
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


def test_a_clash_on_any_edge_is_not_proper():
    for g in (path_graph(2), cycle_graph(5), petersen_graph(), complete_graph(4)):
        proper = list(exact_coloring(g).colors)
        assert is_proper_coloring(g, proper)
        for u, v in g.edges:
            colors = proper.copy()
            colors[v] = colors[u]
            assert not is_proper_coloring(g, colors), (g, u, v)


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


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p], n=n
    )


def _chi_pool() -> list[Graph]:
    """The benchmark's ten chi-search graphs: G(n, 1/2), n in 38..44, from its pool seed."""
    rng = random.Random(2010_04450)
    return [_gnp(rng, rng.randint(38, 44), 0.5) for _ in range(10)]


def _kernel_graphs() -> dict[str, Graph]:
    rng = random.Random(2323)
    graphs = {f"gnp{i}-p{p}": _gnp(rng, rng.randint(2, 30), p)
              for p in (0.2, 0.5, 0.8) for i in range(8)}
    graphs.update({f"chi{i:02d}": g for i, g in enumerate(_chi_pool())})
    for parts, size in [(1, 5), (6, 1), (5, 3), (9, 2), (4, 6)]:
        n = parts * size
        g = Graph.from_edges([(u, v) for u in range(n) for v in range(u + 1, n)
                              if u // size != v // size], n=n)
        graphs[f"K{parts}x{size}"] = relabeled(g, rng.sample(range(n), n))
    return graphs


KERNEL_GRAPHS = _kernel_graphs()


@pytest.mark.parametrize("g", KERNEL_GRAPHS.values(), ids=KERNEL_GRAPHS.keys())
def test_dsatur_matches_the_neighbour_list_reference(g):
    """The bitmask kernel finds the reference's coloring, or none, in both orders.

    Every t from one below the greedy clique size to chi + 2: refutations
    below chi and colorings from chi up.  Bit r of the relabelled rows
    holds the vertex of priority r, so a vertex's color is read at its
    priority.
    """
    nbrs = reference_neighbor_lists(g)
    prios = reference_priorities(g)
    rows = {"canonical": _canonical_rows(g), "degree": _degree_rows(g)}
    chi = chromatic_number(g, max_vertices=64)
    for t in range(max(1, len(_greedy_clique(g)) - 1), chi + 3):
        for order, prio in prios.items():
            want = reference_dsatur(nbrs, t, prio)
            got = _dsatur(rows[order], t)
            assert (t < chi) == (want is None), (t, order)
            assert (got and [got[p] for p in prio]) == want, (t, order)


def _faulty_edge_list(rng: random.Random) -> str:
    """A random edge list, sometimes with a header, with up to two injected faults."""
    n = rng.randint(1, 12)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    lines = [f"{v}\t{u}" if rng.random() < 0.5 else f"{u} {v}"
             for u, v in pairs + rng.sample(pairs, min(len(pairs), 3))]
    rng.shuffle(lines)
    if rng.random() < 0.6:
        lines.insert(0, f"n {rng.choice([n, n + 2, max(1, n - 2)])}")
    faults = [
        lambda u, v: f"0{u} {v}", lambda u, v: f"{u} 0{u}", lambda u, v: f"+{u} {v}",
        lambda u, v: f"{u} {v}_0", lambda u, v: f"-{u} {v}", lambda u, v: f"{u} {u}",
        lambda u, v: f"{u} {n + rng.randint(0, 3)}", lambda u, v: f"n {n}",
        lambda u, v: f"{u} {v} {u}", lambda u, v: f"{u}", lambda u, v: "",
        lambda u, v: f"{u} x", lambda u, v: f"{u} \u00a0{v}", lambda u, v: f"  {u}\t{v}  ",
    ]
    for _ in range(rng.choice([0, 0, 1, 2])):
        u, v = rng.randrange(n + 1), rng.randrange(n + 1)
        lines.insert(rng.randint(0, len(lines)), rng.choice(faults)(u, v))
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n"])


def _unbounded_rows(text):
    return _edge_list_rows(text)


def _rows_or_error(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def test_edge_list_pairs_match_the_reference_on_faulty_texts():
    rng = random.Random(2302)
    outcomes = set()
    for _ in range(3000):
        text = _faulty_edge_list(rng)
        want = _rows_or_error(reference_edge_list_rows, text)
        assert _rows_or_error(_unbounded_rows, text) == want, text
        outcomes.add(want if isinstance(want, str) else "ok")
    # every fault above reached its message, and clean texts parsed
    kinds = {re.sub(r"line \d+: |[ '\d].*", "", o) for o in outcomes}
    assert kinds >= {"ok", "non-integer", "negative", "self-loop", "endpoint", "expected",
                     "non-ASCII"}, kinds


@pytest.mark.parametrize("text, want", [
    ("5 6\n05 5\n", "line 2: self-loop 5 5"),
    ("5 6\n6 5\n5 5\n", "line 3: self-loop 5 5"),
    ("n 3\n0 1\n1 2\n2 3\n", "line 4: endpoint 3 out of range for n=3"),
    ("0 1\n+1 0\n", "line 2: non-integer token '+1'"),
    ("0 1\n1 1_0\n", "line 2: non-integer token '1_0'"),
    ("0 1\n1 -0\n1 -1\n", "line 3: negative endpoint"),
    ("0 1\nn 4\n", "line 2: non-integer token 'n'"),
    ("0 1\n1 2\n\n  \n2 0\n1 0\n", ([0b110, 0b101, 0b011], 3, 3)),
    ("n 4\n0 1\n0 1\n1 0\n", ([0b10, 0b01], 4, 1)),
])
def test_edge_list_faults_behind_known_tokens(text, want):
    """A line of known tokens skips only checks those tokens have passed."""
    assert _rows_or_error(_unbounded_rows, text) == want
    assert _rows_or_error(reference_edge_list_rows, text) == want
