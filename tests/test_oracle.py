import itertools
import random
import time
from types import SimpleNamespace

import pytest
from conftest import (
    all_labeled_graphs,
    graph_from_mask,
    iso_class_masks,
    k4_minus_edge,
    reference_neighbor_lists,
    relabeled,
)

from orcov import (
    BudgetError,
    CapacityError,
    Graph,
    SearchBudget,
    SetFamily,
    brute_chromatic,
    brute_mifs,
    brute_sigma,
    chromatic_number,
    complete_graph,
    cycle_graph,
    enumerate_mifs,
    path_graph,
    petersen_graph,
    sigma_of_graph,
    wheel_graph,
)
from orcov import oracle


class TestBruteMifs:
    def test_k1(self):
        assert brute_mifs(1) == (SetFamily.from_masks(1, [0b1]),)

    def test_k2_hand_listing(self):
        assert brute_mifs(2) == (
            SetFamily.from_masks(2, [0b01, 0b11]),
            SetFamily.from_masks(2, [0b10, 0b11]),
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_enumeration_set_for_set(self, k):
        assert brute_mifs(k) == enumerate_mifs(k).families

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_mifs(5)


class TestBruteSigma:
    def test_k2(self):
        assert brute_sigma(complete_graph(2)) == 2

    def test_k3(self):
        assert brute_sigma(complete_graph(3)) == 3

    def test_k4(self):
        assert brute_sigma(complete_graph(4)) == 3

    def test_exhaustion_returns_none(self):
        assert brute_sigma(complete_graph(3), SearchBudget(max_k=2)) is None

    def test_minimality_below_sigma(self):
        for g in (cycle_graph(5), k4_minus_edge()):
            sigma = sigma_of_graph(g).value
            assert brute_sigma(g, SearchBudget(max_k=sigma - 1)) is None

    def test_edge_budget(self):
        with pytest.raises(BudgetError, match="edges"):
            brute_sigma(petersen_graph())  # 15 edges > default 8

    def test_timeout_is_typed(self):
        with pytest.raises(BudgetError, match="budget"):
            brute_sigma(wheel_graph(5), SearchBudget(timeout=1e-9))

    def test_timeout_inside_the_edge_search(self, monkeypatch):
        """The deadline holds while direction sets are chosen, not only between values of k.

        A clock that gains a second per reading: the deadline is read at
        0 + 1.5, node 0 reads 1 and node 0x4000 reads 2, a quarter of the
        way through the 65,131 nodes that the search takes on K_7 up to k = 3.
        """
        clock = itertools.count()
        monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        with pytest.raises(BudgetError, match="exhausted at k=3"):
            brute_sigma(complete_graph(7), SearchBudget(max_edges=21, max_k=3, timeout=1.5))
        assert next(clock) == 3

    def test_k5_needs_four(self):
        assert brute_sigma(complete_graph(5), SearchBudget(max_edges=10, max_k=4)) == 4
        assert brute_sigma(complete_graph(5), SearchBudget(max_edges=10, max_k=3)) is None

    def test_matches_sigma_on_every_six_vertex_class(self):
        masks = [mask for mask in iso_class_masks(6) if mask]  # all but the empty graph
        assert len(masks) == 155
        budget = SearchBudget(max_edges=15, max_k=4)
        for mask in masks:
            g = graph_from_mask(6, mask)
            assert brute_sigma(g, budget) == sigma_of_graph(g).value, g.edges

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            brute_sigma(path_graph(1))

    def test_relabeling_invariance(self):
        rng = random.Random(3)
        g = graph_from_mask(4, 0b010111)
        base = brute_sigma(g)
        for _ in range(5):
            perm = list(range(4))
            rng.shuffle(perm)
            assert brute_sigma(relabeled(g, perm)) == base

    def test_a_wide_graph_with_one_edge(self):
        """The literal check after the search walks each row's own bits, not all n of them
        per row, so one edge among 200,000 vertices is answered in well under a second."""
        g = Graph.from_edges([(0, 1)], n=200_000)
        start = time.perf_counter()
        assert brute_sigma(g) == 2
        assert time.perf_counter() - start < 10

    def test_budget_fields_validated(self):
        with pytest.raises(ValueError):
            SearchBudget(max_k=0)
        with pytest.raises(ValueError):
            SearchBudget(timeout=0)
        with pytest.raises(ValueError):
            SearchBudget(timeout=float("nan"))


@pytest.mark.parametrize("g", [
    complete_graph(1), complete_graph(7), cycle_graph(5), path_graph(1), path_graph(6),
    wheel_graph(6), petersen_graph(), Graph.from_edges([(1, 3), (0, 1)], n=9),
], ids=["K1", "K7", "C5", "P1", "P6", "W6", "petersen", "isolated-vertices"])
def test_neighbor_lists_match_the_reference(g):
    assert oracle._neighbor_lists(g) == reference_neighbor_lists(g)


class TestVerifierAgreement:
    def test_literal_check_matches_cover_verifier(self):
        # the oracle's triple loop and cover.verify_cover are written
        # independently; they must agree on arbitrary orientation lists
        from orcov import verify_cover
        from orcov.oracle import _covers, _neighbor_lists

        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(2, 6)
            g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            k = rng.randint(1, 3)
            bits = [rng.getrandbits(g.m) for _ in range(k)]
            fast = verify_cover(g, bits) is None
            rowset = []
            for b in bits:
                rows = [0] * g.n
                for e, (u, v) in enumerate(g.edges):
                    if (b >> e) & 1:
                        rows[u] |= 1 << v
                    else:
                        rows[v] |= 1 << u
                rowset.append(rows)
            literal = _covers(_neighbor_lists(g), g.n, rowset)
            assert fast == literal


class TestBruteChromatic:
    def test_examples(self):
        assert brute_chromatic(complete_graph(3)) == 3
        assert brute_chromatic(cycle_graph(5)) == 3
        assert brute_chromatic(cycle_graph(6)) == 2
        assert brute_chromatic(path_graph(1)) == 1

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_chromatic(complete_graph(9))

    def test_matches_exact_exhaustively_to_six_vertices(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert brute_chromatic(g) == chromatic_number(g)
        for mask in iso_class_masks(6):
            g = graph_from_mask(6, mask)
            assert brute_chromatic(g) == chromatic_number(g)

    def test_matches_exact_sampled_seven_eight(self):
        rng = random.Random(9)
        for n in (7, 8):
            for _ in range(8):
                g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
                assert brute_chromatic(g) == chromatic_number(g)
