"""Property tests of cover_from_families: a checked cover or a ValueError, never a non-cover,
with the direction sets and the message that a literal scan of the assignment gives."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from orcov import FamilyAssignment, Graph, SetFamily, cover_from_families, verify_cover  # noqa: E402
from orcov.families import _disjoint_members, format_subset, sorted_mif_masks  # noqa: E402


@st.composite
def graphs_with_assignments(draw):
    """A graph on at most 6 vertices and one arbitrary member vector over [k] per vertex, k <= 3."""
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    k = draw(st.integers(1, 3))
    members = draw(st.lists(st.integers(0, (1 << (1 << k)) - 1), min_size=n, max_size=n))
    return Graph.from_edges(edges, n), FamilyAssignment(k, tuple(SetFamily(k, m) for m in members))


@given(graphs_with_assignments())
@settings(max_examples=400, deadline=None)
def test_cover_from_families_builds_a_cover_or_raises(case):
    g, fa = case
    try:
        cert = cover_from_families(g, fa)
    except ValueError as exc:
        assert str(exc).startswith(("condition 1 violated at edge", "condition 2 violated at vertex"))
    else:
        assert cert.k == fa.k
        assert verify_cover(g, cert.orientations) is None


@st.composite
def graphs_with_colour_classes(draw):
    """A graph on at most 6 vertices, a pool of at most three families over [k], k <= 3, and a
    pick from the pool per vertex, so that pairs of families repeat across edges.  Half the
    draws pool distinct maximal intersecting families and join only vertices with different
    picks, so they pass both conditions; the other half pool the members of a maximal
    intersecting family, or of all sets, that a mask keeps, and join any vertices."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    every = (1 << (1 << k)) - 1
    mifs = sorted_mif_masks(k)
    passing = draw(st.booleans())
    if passing:
        pool = draw(st.lists(st.sampled_from(mifs), min_size=1, max_size=3, unique=True))
    else:
        family = st.builds(int.__and__, st.sampled_from([*mifs, every]), st.integers(0, every))
        pool = draw(st.lists(family, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if not passing or picks[u] != picks[v]]
    edges = list(itertools.compress(pairs, draw(st.lists(st.booleans(), min_size=len(pairs)))))
    families = tuple(SetFamily(k, pool[c]) for c in picks)
    return Graph.from_edges(edges, n), FamilyAssignment(k, families)


def _literal_failure(g, families):
    """The message of the first failed condition, found by scanning edges, then vertices."""
    for u, v in g.edges:
        if _disjoint_members(families[u], families[v]) is None:
            return f"condition 1 violated at edge ({u}, {v}): no disjoint direction sets"
    for x, f in enumerate(families):
        pair = _disjoint_members(f, f)
        if pair is not None:
            s, t = map(format_subset, pair)
            return f"condition 2 violated at vertex {x}: members {s} and {t} are disjoint"
    return None


_STAR_1, _STAR_2 = (SetFamily.from_masks(2, [i, 0b11]) for i in (0b01, 0b10))
_ALL_SETS = SetFamily.from_masks(2, range(4))


@given(graphs_with_colour_classes())
# the path 0-1-2 meets the families of 0 and 1 in both orders: (0, 1), then (1, 0)
@example((Graph.from_edges([(0, 1), (1, 2)], 3), FamilyAssignment(2, (_STAR_1, _STAR_2, _STAR_1))))
# the second distinct family, not intersecting, is first held by vertex 2
@example((Graph.from_edges([], 3), FamilyAssignment(2, (_STAR_1, _STAR_1, _ALL_SETS))))
@settings(max_examples=400, deadline=None)
def test_each_edge_gets_the_disjoint_members_of_its_own_two_families(case):
    """Each edge's (S_(u,v), S_(v,u)) is _disjoint_members(A_u, A_v), not the pair memoised for
    (A_v, A_u) or another edge's; a failure is the first one a literal scan finds."""
    g, fa = case
    expected = _literal_failure(g, fa.per_vertex)
    try:
        cert = cover_from_families(g, fa)
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert verify_cover(g, cert.orientations) is None
    rows = cert.meta.direction_sets
    neighbours = [[w for w in range(g.n) if g.adj[x] >> w & 1] for x in range(g.n)]
    for u, v in g.edges:
        got = (rows[u][neighbours[u].index(v)], rows[v][neighbours[v].index(u)])
        assert got == _disjoint_members(fa.per_vertex[u], fa.per_vertex[v])
