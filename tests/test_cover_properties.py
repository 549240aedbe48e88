"""Property test of cover_from_families: a checked cover or a ValueError, never a non-cover."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from orcov import FamilyAssignment, Graph, SetFamily, cover_from_families, verify_cover  # noqa: E402


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
