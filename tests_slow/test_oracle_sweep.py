"""Slow cross-check of the brute-force oracle against sigma_of_graph.

Run from the root of a checkout:

    python -m pytest -q tests_slow

Tier-1 sweeps every class with at most 6 vertices
(tests/test_oracle.py); this sweep takes the 7-vertex ones.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import graph_from_mask, iso_class_masks  # noqa: E402

from orcov import SearchBudget, brute_sigma, sigma_of_graph  # noqa: E402


def test_matches_sigma_on_every_seven_vertex_class():
    # about 10 s to list the classes and 10 s of searches on one core;
    # the slowest class takes under a second
    masks = [mask for mask in iso_class_masks(7) if mask]  # all but the empty graph
    assert len(masks) == 1043
    budget = SearchBudget(max_edges=21, max_k=4)
    for mask in masks:
        g = graph_from_mask(7, mask)
        assert brute_sigma(g, budget) == sigma_of_graph(g).value, g.edges
