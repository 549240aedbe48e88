"""Property tests of graph construction, graph6 and colouring, judged by naive loops."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from conftest import reference_edge_list_pairs, relabeled  # noqa: E402

from orcov import (  # noqa: E402
    CapacityError,
    Graph,
    ParseError,
    brute_chromatic,
    chromatic_number,
    encode_graph6,
    exact_coloring,
    parse_edge_list,
    parse_graph6,
    proper_coloring,
)

# derandomized: the suite draws the same examples on every run
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def symmetric_rows(draw, max_n):
    """(n, rows) of a loop-free symmetric bit matrix, built from its upper triangle."""
    n = draw(st.integers(1, max_n))
    adj = [0] * n
    for v in range(1, n):
        low = draw(st.integers(0, (1 << v) - 1))
        adj[v] |= low
        for u in range(v):
            if low >> u & 1:
                adj[u] |= 1 << v
    return n, adj


@st.composite
def rows_with_stray_bits(draw):
    """Symmetric rows, or the same rows with one or two bits flipped.

    A flipped bit may sit on the diagonal, above n - 1 or in the sign of
    the row, so every row invariant is exercised.  Two flips can keep
    the number of set bits even, or make a mirrored pair.
    """
    n, adj = draw(symmetric_rows(70))
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.integers(0, n - 1))
        if draw(st.integers(0, 9)) == 0:
            adj[u] = ~adj[u]
        else:
            adj[u] ^= 1 << draw(st.integers(0, n))
    return n, tuple(adj)


def reference_row_error(n, adj):
    """The message Graph(n, adj) gives, from a literal row-by-row check, or None."""
    for u in range(n):
        if adj[u] < 0 or adj[u] >= 1 << n:
            return f"adjacency row of vertex {u} addresses vertices >= n"
        if adj[u] >> u & 1:
            return f"self-loop at vertex {u}"
    for u in range(n):
        for v in range(n):
            if adj[u] >> v & 1 and not adj[v] >> u & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


@st.composite
def any_rows(draw):
    """n <= 6 and n arbitrary rows: negative, over-wide, looped or asymmetric ones included."""
    n = draw(st.integers(1, 6))
    row = st.integers(-(1 << n + 1), (1 << n + 1) - 1)
    return n, tuple(draw(st.lists(row, min_size=n, max_size=n)))


@PROPERTY
@given(st.one_of(any_rows(), rows_with_stray_bits()))
def test_graph_accepts_exactly_the_valid_rows(case):
    """Graph accepts exactly what the row-by-row check accepts, and rejects with its message."""
    n, adj = case
    message = reference_row_error(n, adj)
    if message is not None:
        with pytest.raises(ValueError) as exc:
            Graph(n, adj)
        assert str(exc.value) == message
        return
    g = Graph(n, adj)
    assert g.adj == adj
    assert g.edges == tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1
    )


def reference_from_edges(edges, n):
    """Graph.from_edges with its checks first: both endpoint scans, then the build.

    The out-of-range scan names an endpoint only when there is one, and the
    build reads both rows of a pair before either shift, as from_edges does.
    """
    pairs = list(edges)
    if min(map(min, pairs), default=0) < 0:
        u, v = next((u, v) for u, v in pairs if u < 0 or v < 0)
        raise ValueError(f"negative endpoint in edge ({u}, {v})")
    top = max(map(max, pairs), default=-1)
    if pairs and top >= n:
        raise ValueError(f"endpoint {top} out of range for n={n}")
    try:
        adj = [0] * n
        for u, v in pairs:
            row = adj[v]
            adj[u] |= 1 << v
            adj[v] = row | 1 << u
        return Graph(n, tuple(adj))
    except (MemoryError, OverflowError):
        raise CapacityError(f"cannot allocate adjacency rows for n={n} vertices") from None


def outcome(build):
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


# 10**20 is past every index and shift size, so it fails without allocating
ENDPOINTS = st.one_of(
    st.integers(-3, 8), st.sampled_from([10**20, -10**20]), st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5, -1.0]),
)
PAIRS = st.one_of(
    st.tuples(ENDPOINTS, ENDPOINTS), st.tuples(ENDPOINTS, ENDPOINTS, ENDPOINTS),
    st.tuples(ENDPOINTS), st.just(()),
)


@settings(PROPERTY, max_examples=600)
@given(st.lists(PAIRS, max_size=6), st.one_of(st.integers(-1, 8), st.just(10**20)))
# an in-range float at either end of a pair fails as a row index, not as a shift count
@example([(0, 1.0)], 2)
@example([(1.0, 0)], 2)
def test_from_edges_matches_the_checks_first_order(pairs, n):
    """The same graph, or the same exception type and message, as the checks-first build."""
    assert outcome(lambda: Graph.from_edges(pairs, n)) == outcome(
        lambda: reference_from_edges(pairs, n))


def test_in_range_float_endpoint_is_a_type_error():
    """A float is no row index: Python's own TypeError."""
    with pytest.raises(TypeError):
        Graph.from_edges([(0, 1.0)], n=2)


# a token of an endpoint: plain or with leading zeros, else signed or with a '_'
TOKEN_FORMS = ["{}"] * 6 + ["0{}", "00{}"]
FAULTY_TOKEN_FORMS = TOKEN_FORMS * 3 + ["+{}", "-{}", "{}_0"]


@st.composite
def edge_list_texts(draw):
    """An edge list of at most 8 vertices in any of the forms the parser must read or refuse.

    A text has an optional header; pairs that repeat and reverse; blank
    and whitespace-only lines; space or tab separators, LF or CRLF line
    ends; tokens with leading zeros.  Half of the texts may also hold
    one kind of fault: a faulty header, signed tokens or ones with a
    '_', self-loops, endpoints past the header's n, lines of the wrong
    shape or a non-ASCII character.
    """
    fault = draw(st.sampled_from([None] * 6 + ["header", "token", "loop", "past", "shape",
                                               "ascii"]))
    n = draw(st.integers(1, 8))
    lines = []
    if draw(st.booleans()):
        counts = [n, n + 2] + ([max(1, n - 2), 0, -1, "+3", "03", "1_0", "x"]
                               if fault == "header" else [])
        lines.append(f"n {draw(st.sampled_from(counts))}")
    kinds = ["pair"] * 4 + ["again", "blank"] + (["shape"] if fault == "shape" else [])
    top = n + 1 if fault == "past" else n - 1
    forms = st.sampled_from(FAULTY_TOKEN_FORMS if fault == "token" else TOKEN_FORMS)
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "pair" and (top > 0 or fault == "loop"):
            u = draw(st.integers(0, top))
            v = draw(st.integers(0, top) if fault == "loop" else
                     st.integers(0, top).filter(u.__ne__))
            pair = u, v
        elif kind == "again" and pairs:
            u, v = draw(st.sampled_from(pairs))
            pair = (v, u) if draw(st.booleans()) else (u, v)
        elif kind == "shape":
            lines.append(draw(st.sampled_from(["0", "0 1 2", "n 3", "x 1", "1 y", " 0\t1 "])))
            continue
        else:
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t "])))
            continue
        pairs.append(pair)
        u, v = (draw(forms).format(x) for x in pair)
        lines.append(u + draw(st.sampled_from([" ", "\t", "  ", " \t"])) + v)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    if fault == "ascii":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(["\u00a0", "\u0663", "\u00e9"])) + text[i:]
    return text


def graph_fields(build):
    """(n, adj, m, edges) of the graph build makes, or the text of its ParseError."""
    try:
        g = build()
    except ParseError as exc:
        return str(exc)
    return g.n, g.adj, g.m, g.edges


@settings(PROPERTY, max_examples=400)
@given(edge_list_texts())
def test_one_pass_parser_matches_the_reference(text):
    """parse_edge_list gives the graph of the fully checked pairs, or the same error."""
    assert graph_fields(lambda: parse_edge_list(text)) == graph_fields(
        lambda: Graph.from_edges(*reference_edge_list_pairs(text)))


@PROPERTY
@given(symmetric_rows(62))
def test_graph6_round_trip(case):
    n, adj = case
    g = Graph(n, tuple(adj))
    assert parse_graph6(encode_graph6(g)) == g


@st.composite
def small_graphs(draw):
    """A graph on at most 8 vertices, in reach of the exhaustive oracle."""
    n, adj = draw(symmetric_rows(8))
    return Graph(n, tuple(adj))


@PROPERTY
@given(small_graphs())
def test_chromatic_number_matches_oracle(g):
    assert chromatic_number(g) == brute_chromatic(g)


@PROPERTY
@given(small_graphs(), st.randoms(use_true_random=False))
def test_chromatic_number_is_label_free(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert chromatic_number(relabeled(g, perm)) == chromatic_number(g)


@PROPERTY
@given(small_graphs())
def test_exact_coloring_is_the_first_chi_coloring(g):
    """The degree-order proofs never change the certificate coloring."""
    chi = chromatic_number(g)
    assert exact_coloring(g) == proper_coloring(g, chi)
    if chi > 1:
        assert proper_coloring(g, chi - 1) is None
