"""Slow cross-check of the brute-force oracle against sigma_of_graph.

Run from the root of a checkout:

    python -m pytest -q tests_slow

Tier-1 sweeps every class with at most 6 vertices
(tests/test_oracle.py); this sweep takes the 7-vertex ones, from
networkx's graph atlas, which Tier-1 checks against its own class
listing up to 6 vertices.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import atlas_graphs  # noqa: E402

from orcov import SearchBudget, brute_sigma, sigma_of_graph  # noqa: E402


def test_matches_sigma_on_every_seven_vertex_class():
    # under a second to list the classes and about 10 s of searches on
    # one core; the slowest class takes under a second
    graphs = [g for g in atlas_graphs(7) if g.m]  # all but the empty graph
    assert len(graphs) == 1043
    budget = SearchBudget(max_edges=21, max_k=4)
    for g in graphs:
        assert brute_sigma(g, budget) == sigma_of_graph(g).value, g.edges
