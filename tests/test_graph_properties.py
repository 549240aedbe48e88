"""Property tests of graph construction, graph6 and colouring, judged by naive loops."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from orcov import (  # noqa: E402
    Graph,
    brute_chromatic,
    chromatic_number,
    encode_graph6,
    exact_coloring,
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


def naive_valid(n, adj):
    if any(row < 0 or row >= 1 << n for row in adj):
        return False
    for u in range(n):
        if adj[u] >> u & 1:
            return False
        for v in range(n):
            if (adj[u] >> v & 1) != (adj[v] >> u & 1):
                return False
    return True


@PROPERTY
@given(rows_with_stray_bits())
def test_graph_accepts_exactly_the_valid_rows(case):
    n, adj = case
    if not naive_valid(n, adj):
        with pytest.raises(ValueError):
            Graph(n, adj)
        return
    g = Graph(n, adj)
    assert g.adj == adj
    assert g.edges == tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1
    )


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
    assert chromatic_number(g.relabel(perm)) == chromatic_number(g)


@PROPERTY
@given(small_graphs())
def test_exact_coloring_is_the_first_chi_coloring(g):
    """The degree-order proofs never change the certificate coloring."""
    chi = chromatic_number(g)
    assert exact_coloring(g) == proper_coloring(g, chi)
    if chi > 1:
        assert proper_coloring(g, chi - 1) is None
