import enum
import hashlib
import itertools
import json
import random
import re
import tracemalloc

import pytest
from conftest import all_labeled_graphs, random_graph, reference_counterexample
from hypothesis import given, settings
from hypothesis import strategies as st

import orcov.graphs
from orcov import oracle
from orcov import (
    CapacityError,
    CertificateMeta,
    CoverCertificate,
    FamilyAssignment,
    Graph,
    ParseError,
    SetFamily,
    certificate_from_json,
    certificate_to_json,
    chromatic_number,
    complete_graph,
    construct_cover,
    cover_from_families,
    cycle_graph,
    enumerate_mifs,
    families_from_cover,
    path_graph,
    petersen_graph,
    proper_coloring,
    sigma_complete,
    sigma_of_graph,
    verify_cover,
)
from orcov.cover import _edge_masks, _edges_json, _ints_json, _meta_fault
from orcov.families import _disjoint_members, sorted_mif_masks
from orcov.graphs import _bits


def orient(g, *flags):
    """The orientation of g that sends canonical edge e u -> v iff flags[e] is true."""
    assert len(flags) == g.m
    return sum(1 << e for e, flag in enumerate(flags) if flag)


def transitive_rotation_covers_k3():
    """Orders abc, bca, cab as orientations of K_3 (edges 01, 02, 12)."""
    g = complete_graph(3)
    # abc: 0->1, 0->2, 1->2 ; bca: 1->2, 1->0, 2->0 ; cab: 2->0, 2->1, 0->1
    return g, [
        orient(g, True, True, True),
        orient(g, False, False, True),
        orient(g, True, False, False),
    ]


class TestVerify:
    def test_k2_both_directions_accept(self):
        g = complete_graph(2)
        assert verify_cover(g, [orient(g, True), orient(g, False)]) is None

    def test_k2_single_orientation_fails_y_equals_z(self):
        g = complete_graph(2)
        assert verify_cover(g, [orient(g, True)]) == (1, 0, 0)

    def test_k3_transitive_rotations_accept(self):
        g, cover = transitive_rotation_covers_k3()
        assert verify_cover(g, cover) is None

    def test_counterexample_is_lex_smallest(self):
        g = complete_graph(3)
        # single orientation: vertex 0 source; 1 and 2 uncovered as sources
        cover = [orient(g, True, True, True)]
        assert verify_cover(g, cover) == (1, 0, 0)

    def test_order_invariance(self):
        g, cover = transitive_rotation_covers_k3()
        for perm in itertools.permutations(cover):
            assert verify_cover(g, list(perm)) is None

    def test_empty_cover_rejected_on_first_edge(self):
        g = path_graph(3)
        assert verify_cover(g, []) == (0, 1, 1)


def _flags(o, m):
    return [bool(o >> e & 1) for e in range(m)]


def _reference_families(g, orientations):
    """A_v = {S_(v,w)}, each S read off the orientations one edge at a time."""
    member = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        forward = sum(1 << i for i, o in enumerate(orientations) if o >> e & 1)
        backward = sum(1 << i for i, o in enumerate(orientations) if not o >> e & 1)
        member[u] |= 1 << forward
        member[v] |= 1 << backward
    return [SetFamily(len(orientations), mv) for mv in member]


class TestVerifyAgainstReference:
    """verify_cover and families_from_cover against literal definitions."""

    def cases(self):
        rng = random.Random(4242)
        for _ in range(120):
            g = random_graph(rng, n_max=8)
            k = rng.randint(0, 5)
            yield g, [rng.getrandbits(g.m) for _ in range(k)]
            cover = list(construct_cover(g).orientations)
            while len(cover) < 5 and rng.random() < 0.5:
                cover.append(rng.getrandbits(g.m))
            rng.shuffle(cover)
            yield g, cover
            i, e = rng.randrange(len(cover)), rng.randrange(g.m)
            yield g, [o ^ 1 << e if j == i else o for j, o in enumerate(cover)]

    def test_counterexample_matches_triple_by_triple(self):
        rejected = 0
        for g, cover in self.cases():
            want = reference_counterexample(g.n, g.edges, [_flags(o, g.m) for o in cover])
            assert verify_cover(g, cover) == want
            rejected += want is not None
        assert 100 < rejected < 360  # both verdicts are exercised

    def test_families_match_direction_sets(self):
        for g, cover in self.cases():
            if cover:
                fa = families_from_cover(g, cover)
                assert list(fa.per_vertex) == _reference_families(g, cover)

    def test_dense_cover_with_flipped_edges(self):
        g = complete_graph(14)
        cover = list(construct_cover(g).orientations)
        rng = random.Random(99)
        for _ in range(20):
            i, e = rng.randrange(len(cover)), rng.randrange(g.m)
            bad = [o ^ 1 << e if j == i else o for j, o in enumerate(cover)]
            want = reference_counterexample(g.n, g.edges, [_flags(o, g.m) for o in bad])
            assert verify_cover(g, bad) == want


class TestEdgeMasks:
    def test_out_rows_from_masks(self):
        g = complete_graph(3)  # edges 01, 02, 12
        o = 0b011  # 0->1, 0->2, 2->1
        assert _edge_masks(g.m, [o]) == [1, 1, 0]
        rows = [0] * g.n  # out-neighbour rows read back from the masks
        for (u, v), s in zip(g.edges, _edge_masks(g.m, [o])):
            if s & 1:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
        assert rows == [0b110, 0, 0b010]

    def test_bit_i_is_orientation_i(self):
        g = complete_graph(3)
        cover = [0b011, 0b100, 0]
        assert _edge_masks(g.m, cover) == [0b001, 0b001, 0b010]
        assert _edge_masks(g.m, []) == [0, 0, 0]
        assert _edge_masks(0, [0]) == []


class TestFamiliesFromCover:
    def test_k2_example(self):
        g = complete_graph(2)
        fa = families_from_cover(g, [orient(g, True), orient(g, False)])
        assert fa.per_vertex[0] == SetFamily.from_masks(2, [0b01])
        assert fa.per_vertex[1] == SetFamily.from_masks(2, [0b10])

    def test_valid_cover_gives_intersecting_families(self):
        g, cover = transitive_rotation_covers_k3()
        fa = families_from_cover(g, cover)
        assert verify_cover(g, cover_from_families(g, fa).orientations) is None

    def test_orientation_count_bounds(self):
        # SetFamily holds the bounds 1 <= k <= KMAX_HARD (7)
        g = complete_graph(2)
        with pytest.raises(ValueError, match="k must be positive"):
            families_from_cover(g, [])
        assert families_from_cover(g, [orient(g, True)] * 7).k == 7
        with pytest.raises(CapacityError, match="k <= 7"):
            families_from_cover(g, [orient(g, True)] * 8)

    def test_missing_direction_shows_empty_set(self):
        g = complete_graph(2)
        fa = families_from_cover(g, [orient(g, True)])
        assert fa.per_vertex[1] == SetFamily.from_masks(1, [0])
        with pytest.raises(ValueError, match=r"^condition 2 violated at vertex 1: "):
            cover_from_families(g, fa)


class TestValidateAssignment:
    """cover_from_families validates an assignment: the first failed condition raises."""

    def test_same_star_on_an_edge_is_condition_1(self):
        g = complete_graph(2)
        s1 = SetFamily.from_masks(2, [0b01, 0b11])
        with pytest.raises(ValueError, match=r"^condition 1 violated at edge \(0, 1\): "):
            cover_from_families(g, FamilyAssignment(2, (s1, s1)))

    def test_disjoint_members_is_condition_2(self):
        g = complete_graph(2)
        f_ok = SetFamily.from_masks(2, [0b01])
        f_bad = SetFamily.from_masks(2, [0b01, 0b10])
        with pytest.raises(
            ValueError, match=r"^condition 2 violated at vertex 0: members \{1\} and \{2\} are"
        ):
            cover_from_families(g, FamilyAssignment(2, (f_bad, f_ok)))

    def test_size_mismatch(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="assignment size does not match vertex count"):
            cover_from_families(g, FamilyAssignment(2, ()))

    def test_path_with_a_non_intersecting_centre_is_condition_2(self):
        # every edge has disjoint members, so only condition 2 catches the
        # centre: built anyway, the orientations miss the triple (0, 1, 2)
        g = Graph.from_edges([(0, 1), (0, 2)], 3)
        fa = FamilyAssignment(2, (
            SetFamily.from_masks(2, [0b01, 0b10]),
            SetFamily.from_masks(2, [0b10]),
            SetFamily.from_masks(2, [0b01]),
        ))
        with pytest.raises(ValueError, match=r"^condition 2 violated at vertex 0: "):
            cover_from_families(g, fa)

    def test_condition_1_is_reported_before_condition_2(self):
        # vertex 0 fails condition 2, but the edge scan comes first
        g = complete_graph(2)
        f_bad = SetFamily.from_masks(2, [0b01, 0b10])
        f_full = SetFamily.from_masks(2, [0b11])
        with pytest.raises(ValueError, match=r"^condition 1 violated at edge \(0, 1\): "):
            cover_from_families(g, FamilyAssignment(2, (f_bad, f_full)))

    def test_condition_2_names_the_first_bad_vertex(self):
        # vertices 1 and 3 share a family, vertex 2 holds another bad one
        g = Graph.from_edges([], 4)
        ok = SetFamily.from_masks(2, [0b01])
        empty_set = SetFamily.from_masks(2, [0])
        split = SetFamily.from_masks(2, [0b01, 0b10])
        fa = FamilyAssignment(2, (ok, empty_set, split, empty_set))
        with pytest.raises(
            ValueError, match=r"^condition 2 violated at vertex 1: members \{\} and \{\} are"
        ):
            cover_from_families(g, fa)


class TestDisjointMembers:
    def test_always_disjoint_over_catalog(self):
        # distinct maximal intersecting families always admit disjoint
        # members; the pair is the smallest S, then the smallest T
        fams = enumerate_mifs(4).families
        for f1, f2 in itertools.permutations(fams, 2):
            want = min((s, t) for s in _bits(f1.member) for t in _bits(f2.member) if not s & t)
            assert _disjoint_members(f1, f2) == want


class TestCoverFromFamilies:
    def test_k2_example(self):
        g = complete_graph(2)
        fa = FamilyAssignment(
            2, (SetFamily.from_masks(2, [0b01]), SetFamily.from_masks(2, [0b10]))
        )
        cert = cover_from_families(g, fa)
        assert cert.k == 2
        assert cert.orientations == (1, 0)  # edge 0->1 in orientation 1, 1->0 in 2
        assert verify_cover(g, cert.orientations) is None

    def test_three_stars_cover_k3(self):
        g = complete_graph(3)
        stars = tuple(
            SetFamily.from_masks(3, [s for s in range(8) if (s >> i) & 1])
            for i in range(3)
        )
        cert = cover_from_families(g, FamilyAssignment(3, stars))
        assert cert.k == 3
        assert verify_cover(g, cert.orientations) is None

    def test_condition_1_violation_names_edge(self):
        g = complete_graph(2)
        same = SetFamily.from_masks(2, [0b01, 0b11])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            cover_from_families(g, FamilyAssignment(2, (same, same)))


def test_distinct_families_on_every_vertex_keep_the_pair_memo_small():
    """A path through all 2,646 maximal intersecting families over [6], each on its own
    vertex: 2,645 edges meet 2,645 of the 2646^2 family pairs, so the memo holds only the
    pairs met, not a slot per pair (56.8 MB as a flat list of that size)."""
    masks = sorted_mif_masks(6)
    g = path_graph(len(masks))
    fa = FamilyAssignment(6, tuple(SetFamily(6, m) for m in masks))
    tracemalloc.start()
    try:
        cert = cover_from_families(g, fa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert verify_cover(g, cert.orientations) is None


class TestConstructCover:
    def test_k2(self):
        g = complete_graph(2)
        cert = construct_cover(g)
        assert cert.k == 2
        assert verify_cover(g, cert.orientations) is None

    def test_k12_uses_four_orientations(self):
        g = complete_graph(12)
        cert = construct_cover(g)
        assert cert.k == 4
        assert verify_cover(g, cert.orientations) is None

    def test_petersen(self):
        g = petersen_graph()
        cert = construct_cover(g)
        assert cert.k == 3
        assert verify_cover(g, cert.orientations) is None

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            construct_cover(path_graph(1))

    def test_bound_before_the_edgeless_refusal(self):
        with pytest.raises(CapacityError, match="limited to 32 vertices"):
            construct_cover(Graph.from_edges([], n=40))

    def test_meta_records_construction(self):
        g = cycle_graph(5)
        cert = construct_cover(g)
        assert cert.meta is not None
        assert cert.meta.coloring is not None and len(cert.meta.coloring) == 5
        assert cert.meta.family_indices == (0, 1, 2)
        assert cert.meta.direction_sets is not None

    def test_meta_rows_witness_condition_1(self):
        """Each edge's two sets are disjoint members of the endpoints' catalog families,
        and the orientations direct the edge out of each endpoint on that endpoint's set."""
        rng = random.Random(17)
        for g in [random_graph(rng, n_max=8) for _ in range(15)] + [petersen_graph()]:
            cert = construct_cover(g)
            meta, neighbours = cert.meta, _neighbours(g)
            catalog = sorted_mif_masks(cert.k)
            family = [SetFamily(cert.k, catalog[meta.family_indices[c]]) for c in meta.coloring]
            for (u, v), forward in zip(g.edges, _edge_masks(g.m, cert.orientations)):
                s = meta.direction_sets[u][neighbours[u].index(v)]
                t = meta.direction_sets[v][neighbours[v].index(u)]
                assert s in family[u] and t in family[v]
                assert s & t == 0
                assert s & ~forward == 0 and t & forward == 0

    def test_every_directed_edge_appears(self):
        for g in (complete_graph(4), cycle_graph(5), petersen_graph()):
            cert = construct_cover(g)
            fa = families_from_cover(g, cert.orientations)
            for v in range(g.n):
                assert 0 not in fa.per_vertex[v]

    def test_matches_sigma(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_graph(rng, n_max=8)
            cert = construct_cover(g)
            assert cert.k == sigma_of_graph(g).value
            assert verify_cover(g, cert.orientations) is None

    def test_all_graphs_up_to_five_vertices(self):
        for n in (2, 3, 4, 5):
            for g in all_labeled_graphs(n, nonempty=True):
                cert = construct_cover(g)
                assert cert.k == sigma_of_graph(g).value
                assert verify_cover(g, cert.orientations) is None

    def test_named_graphs(self):
        from orcov import wheel_graph

        for g, want in [
            (cycle_graph(5), 3),
            (cycle_graph(7), 3),
            (wheel_graph(5), 3),
            (petersen_graph(), 3),
        ]:
            cert = construct_cover(g)
            assert cert.k == want
            assert verify_cover(g, cert.orientations) is None

    def test_deterministic(self):
        g = petersen_graph()
        a = certificate_to_json(g, construct_cover(g))
        b = certificate_to_json(g, construct_cover(g))
        assert a == b

    def test_colors_once(self, monkeypatch):
        """Proofs that t < chi run in degree order; the certificate is one canonical pass.

        On Petersen the greedy clique has 2 vertices and chi is 3.  The
        graph is regular, so its degree order ranks vertices as the
        canonical order does; test_proofs_in_degree_order tells them apart.
        """
        g = petersen_graph()
        calls = _record_dsatur(monkeypatch)
        deg, canon = _orders(g)
        chromatic_number(g)
        assert calls == [(2, deg), (3, deg)]
        calls.clear()
        construct_cover(g)
        assert calls == [(2, canon), (3, deg), (3, canon)]

    def test_proofs_in_degree_order(self, monkeypatch):
        g = _gnp_half(30, seed=23)  # greedy clique 4, chi 7
        calls = _record_dsatur(monkeypatch)
        deg, canon = _orders(g)
        assert deg != canon
        chromatic_number(g)
        assert calls == [(4, deg), (5, deg), (6, deg), (7, deg)]
        calls.clear()
        construct_cover(g)
        assert calls == [(4, canon), (5, deg), (6, deg), (7, deg), (7, canon)]

    @pytest.mark.parametrize("parts, size", [(12, 1), (6, 3)], ids=["K12", "K6x3"])
    def test_clique_bound_colors_in_one_pass(self, monkeypatch, parts, size):
        """K_12 and a complete 6-partite graph: the clique bound is chi, no proof runs."""
        g = _shuffled_multipartite(parts, size, seed=7)
        calls = _record_dsatur(monkeypatch)
        construct_cover(g)
        assert calls == [(parts, _orders(g)[1])]


def _record_dsatur(monkeypatch) -> list:
    """Patch graphs._dsatur to log (t, relabelled rows) of every pass; returns the log."""
    calls = []
    dsatur = orcov.graphs._dsatur

    def counting(rows, t):
        calls.append((t, list(rows)))
        return dsatur(rows, t)

    monkeypatch.setattr(orcov.graphs, "_dsatur", counting)
    return calls


def _orders(g: Graph) -> tuple[list[int], list[int]]:
    """g's rows relabelled in degree and in canonical DSATUR order."""
    return orcov.graphs._degree_rows(g), orcov.graphs._canonical_rows(g)


def _shuffled_multipartite(parts: int, size: int, seed: int) -> Graph:
    n = parts * size
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(
        [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n) if u // size != v // size],
        n=n,
    )


def _gnp_half(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5], n=n
    )


# sha256 of certificate_to_json(g, construct_cover(g)), recorded with the
# recursive rescanning DSATUR this search replaced; any change in the
# colouring, the family assignment or the serialisation shows here.
GOLDEN_CERTIFICATES = [
    (complete_graph(12), "63c66478eff91d982fdb8bbe9b725667b6f646a5d45ef470594c41f9d1cf69ac"),
    (_shuffled_multipartite(6, 3, seed=7),
     "aff6107b865851e871c7c56c15afecc9df027055de79f1b732221e73651f8d6d"),
    (petersen_graph(), "249a7e27e4f488c18c5bac4ac6f62a499c98bd087dc74a4fb5327d7079e55608"),
    (_gnp_half(20, seed=2020), "76ae21f8d15f16f1a42c88bd1af84bba92f13891ab05cec4b85e4440755d2e71"),
    # greedy clique 4, chi 7: construct_cover runs degree-order passes at
    # t = 5, 6 and 7 between its canonical passes at 4 and 7 (recorded
    # with the index-order proofs they replaced)
    (_gnp_half(30, seed=23), "5ed7929f70331e4b709c9853f9bd135a4afaf488e668e9f6645d718e7fd6626a"),
]


GOLDEN_IDS = ["K12", "K6x3", "petersen", "gnp20", "gnp30"]


@pytest.mark.parametrize("g, digest", GOLDEN_CERTIFICATES, ids=GOLDEN_IDS)
def test_golden_certificate(g, digest):
    """construct_cover's certificate, and the one the benchmark's traced replay composes from
    the public steps: the colouring at chi, the catalog's first chi families spread over the
    vertices, cover_from_families, and the meta rebuilt with the colouring and range(chi).
    verify-cover's meta check finds no false claim in it."""
    text = certificate_to_json(g, construct_cover(g))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    assert _meta_fault(g, certificate_from_json(text, g)) is None
    chi = chromatic_number(g)
    k = sigma_complete(chi).value
    colors = proper_coloring(g, chi).colors
    catalog = enumerate_mifs(k).families
    assigned = cover_from_families(g, FamilyAssignment(k, tuple(catalog[c] for c in colors)))
    meta = CertificateMeta(colors, tuple(range(chi)), assigned.meta.direction_sets)
    composed = certificate_to_json(g, CoverCertificate(assigned.k, assigned.orientations, meta))
    assert hashlib.sha256(composed.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("k, index, fault", [
    (1, 0, False), (1, 1, True), (3, 3, False), (3, 4, True), (3, -1, True),
    (7, 1422563, False), (7, 1422564, True),
    (8, 10**30, False), (8, -1, False),  # lambda(8) is not computed, so not checked
], ids=["k1-last", "k1-past", "k3-last", "k3-past", "k3-negative", "k7-last", "k7-past",
        "k8-past", "k8-negative"])
def test_family_indices_lie_below_lambda_where_it_is_computed(k, index, fault):
    g = complete_graph(2)
    cert = CoverCertificate(k, (0,) * k, CertificateMeta(family_indices=(index,)))
    message = f"certificate meta.family_indices lists {index}, outside [0, lambda({k}))"
    assert _meta_fault(g, cert) == (message if fault else None)


def _odd_cycle(g: Graph) -> list[int] | None:
    """A shortest odd cycle of g, its vertices in cycle order, found on the adjacency bits."""
    def extend(path: list[int], length: int) -> list[int] | None:
        if len(path) == length:
            return path if g.adj[path[-1]] >> path[0] & 1 else None
        for v in range(path[0] + 1, g.n):  # path[0] is the cycle's smallest vertex
            if g.adj[path[-1]] >> v & 1 and v not in path:
                found = extend(path + [v], length)
                if found:
                    return found
        return None
    for length in range(3, g.n + 1, 2):
        for start in range(g.n):
            found = extend([start], length)
            if found:
                return found
    return None


def _clique(g: Graph, size: int) -> list[int] | None:
    """A clique of g on size vertices, grown vertex by vertex on the adjacency bits."""
    def extend(clique: list[int], candidates: int) -> list[int] | None:
        if len(clique) == size:
            return clique
        for v in range(g.n):
            if candidates >> v & 1:
                found = extend(clique + [v], candidates & g.adj[v] & -(2 << v))
                if found:
                    return found
        return None
    return extend([], (1 << g.n) - 1)


@pytest.mark.parametrize("g", [g for g, _ in GOLDEN_CERTIFICATES] + [
    complete_graph(8), _shuffled_multipartite(4, 3, seed=5),
], ids=["K12", "K6x3", "petersen", "gnp20", "gnp30", "tiny-K8", "tiny-4-partite"])
def test_a_small_subgraph_needs_as_many_orientations(g):
    """The certificate's k is minimal: a cover of g restricts to one of each subgraph H, so
    sigma(g) >= sigma(H), and the oracle refutes k - 1 on a small H.  H is an odd cycle for
    k = 3 and K_5 for k = 4, found here on g's adjacency bits, with no colouring, family or
    cover code.  The golden certificates and the cover-dense shapes at tiny size have k <= 4.
    k = 5 would need a subgraph with sigma >= 5, the smallest complete one K_13, which the
    oracle has not refuted at k = 4; k >= 5 rests on the paper's theorem, and this test
    claims nothing there."""
    k = construct_cover(g).k
    if k == 3:
        vertices = _odd_cycle(g)
        pairs = [(i, (i + 1) % len(vertices)) for i in range(len(vertices))]
    else:
        assert k == 4
        vertices = _clique(g, 5)
        pairs = list(itertools.combinations(range(5), 2))
    assert all(g.adj[vertices[a]] >> vertices[b] & 1 for a, b in pairs)
    h = Graph.from_edges(pairs, n=len(vertices))
    assert oracle.brute_sigma(h, oracle.SearchBudget(max_edges=h.m, max_k=k)) == k


class TestRoundTrip:
    def test_cover_family_round_trip(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_graph(rng, n_max=7)
            cert = construct_cover(g)
            cover = list(cert.orientations)
            rng.shuffle(cover)
            fa = families_from_cover(g, cover)
            rebuilt = cover_from_families(g, fa)
            assert rebuilt.k == len(cover)
            assert verify_cover(g, rebuilt.orientations) is None


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: FamilyAssignment(3, (SetFamily.from_masks(2, [0b01]),)),
                 "family ground set does not match assignment k", id="assignment-k"),
    pytest.param(lambda: CoverCertificate(2, (0,)),
                 "k does not match the number of orientations", id="certificate-k"),
    pytest.param(lambda: cover_from_families(
                     complete_graph(3), FamilyAssignment(2, (SetFamily.from_masks(2, [0b01]),) * 2)),
                 "assignment size does not match vertex count", id="assignment-size"),
])
def test_record_error_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def _written_without_meta(g, orientations):
    return certificate_to_json(g, CoverCertificate(len(orientations), tuple(orientations)))


@pytest.mark.parametrize("entry", [verify_cover, families_from_cover, _written_without_meta],
                         ids=["verify", "families", "to-json"])
@pytest.mark.parametrize("bad", [True, -1, 1.0, "1", 1 << 3],
                         ids=["bool", "negative", "float", "str", "past-m-bits"])
def test_each_entry_point_checks_orientations_are_m_bit_ints(entry, bad):
    # K_3 has m = 3, so 1 << 3 is the first int too wide for it
    g = complete_graph(3)
    with pytest.raises(ValueError) as exc:
        entry(g, [0b101, bad])
    assert str(exc.value) == "orientation 1 is not an int in [0, 2^m) for m = 3"


# Edits of a K_2 certificate document, and the message each one gives.
MISSHAPEN_CERTIFICATES = {
    "root-not-object": (lambda doc: [doc], "certificate must be a JSON object"),
    "edges-not-pairs": (lambda doc: {**doc, "edges": [5]}, "certificate edges must be [u, v] pairs"),
    "edge-order": (lambda doc: {**doc, "edges": [[1, 0]]},
                   "certificate edge list does not match the graph's canonical edges"),
}


class TestCertificateJson:
    def test_round_trip(self):
        g = petersen_graph()
        cert = construct_cover(g)
        text = certificate_to_json(g, cert)
        loaded = certificate_from_json(text, g)
        assert loaded.k == cert.k
        assert loaded.orientations == cert.orientations
        assert loaded.meta is not None
        assert loaded.meta.coloring == cert.meta.coloring
        assert loaded.meta.direction_sets == cert.meta.direction_sets

    def test_shape_mismatch_detected(self):
        g = complete_graph(3)
        cert = construct_cover(g)
        text = certificate_to_json(g, cert)
        with pytest.raises(ParseError, match="does not match"):
            certificate_from_json(text, complete_graph(4))

    def test_bad_json(self):
        with pytest.raises(ParseError, match="JSON"):
            certificate_from_json("{", complete_graph(2))
        with pytest.raises(ParseError, match="missing"):
            certificate_from_json("{}", complete_graph(2))

    @pytest.mark.parametrize("case", sorted(MISSHAPEN_CERTIFICATES))
    def test_document_shape(self, case):
        edit, message = MISSHAPEN_CERTIFICATES[case]
        g = complete_graph(2)
        doc = json.loads(certificate_to_json(g, construct_cover(g)))
        with pytest.raises(ParseError) as exc:
            certificate_from_json(json.dumps(edit(doc)), g)
        assert str(exc.value) == message

    def test_direction_set_elements(self):
        g = complete_graph(2)
        doc = json.loads(certificate_to_json(g, construct_cover(g)))
        doc["meta"]["direction_sets"] = {"0->1": [1], "1->0": [1, 0]}
        with pytest.raises(ParseError, match="'1->0' lists 0"):
            certificate_from_json(json.dumps(doc), g)
        doc["meta"]["direction_sets"] = {"0->1": [2, 1], "1->0": [2, 1]}
        meta = certificate_from_json(json.dumps(doc), g).meta
        assert meta.direction_sets == ((0b11,), (0b11,))

    @pytest.mark.parametrize("bad, key", [
        ("\u0661->1", "0->1"),  # ARABIC-INDIC DIGIT ONE: int() reads the self-loop (1, 1)
        ("\uff10->1", "0->1"),  # FULLWIDTH DIGIT ZERO
        ("01->2", "1->2"),  # int() reads (1, 2), the key it replaces
    ])
    def test_direction_set_key_only_in_writer_form(self, bad, key):
        g = complete_graph(3)
        doc = json.loads(certificate_to_json(g, construct_cover(g)))
        sets = doc["meta"]["direction_sets"]
        sets[bad] = sets.pop(key)
        text = json.dumps(doc)
        assert text.isascii()
        with pytest.raises(ParseError, match=re.escape(f"set {bad!a} must map 'x->y' to a list")):
            certificate_from_json(text, g)

    @pytest.mark.parametrize("bad", [
        "0->4",  # vertex 4 >= n
        "3->0",  # vertex 3 has no edges
        "0->2",  # both vertices have edges, but 0 2 is not one
        "1->1",
    ])
    def test_direction_set_key_names_an_edge(self, bad):
        g = Graph.from_edges([(0, 1), (1, 2)], n=4)
        doc = json.loads(certificate_to_json(g, construct_cover(g)))
        doc["meta"]["direction_sets"][bad] = [1]
        with pytest.raises(ParseError, match=re.escape(f"set {bad!a} names no edge of the graph")):
            certificate_from_json(json.dumps(doc), g)

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"a": ' * 100_000 + "1" + "}" * 100_000,
    ], ids=["arrays", "objects"])
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError) as exc:
            certificate_from_json(text, complete_graph(2))
        assert str(exc.value) == "certificate nests arrays or objects too deeply to read"

    @pytest.mark.parametrize("m", [1, 39, 63, 64, 65, 500])
    def test_orientations_with_leading_zeros_round_trip(self, m):
        # a null meta takes the json.loads path, which reads each row's flags last first
        g = path_graph(m + 1)
        rng = random.Random(3)
        cover = tuple(rng.getrandbits(m) >> s for s in (0, 5, 20, 39))
        cert = CoverCertificate(len(cover), cover)
        loaded = certificate_from_json(certificate_to_json(g, cert), g)
        assert loaded == cert


# certificate_to_json text recorded with the json.dumps serialiser it
# replaced: no meta, meta without direction sets, direction sets with
# empty sets and keys whose numeric order differs from their string
# order, orientations whose high edges are 0, no orientations, no edges.
CERTIFICATE_TEXT = [
    (path_graph(3), CoverCertificate(2, (0b01, 0b00)),
     '{\n  "n": 3,\n  "m": 2,\n  "k": 2,\n  "edges": [[0, 1], [1, 2]],\n  "orientations": [\n'
     '    [true, false],\n    [false, false]\n  ],\n  "meta": null\n}'),
    (path_graph(3), CoverCertificate(
        2, (0b01, 0b00),
        CertificateMeta(coloring=(0, 1, 0), family_indices=(0, 1))),
     '{\n  "n": 3,\n  "m": 2,\n  "k": 2,\n  "edges": [[0, 1], [1, 2]],\n  "orientations": [\n'
     '    [true, false],\n    [false, false]\n  ],\n'
     '  "meta": {"coloring": [0, 1, 0], "family_indices": [0, 1], "direction_sets": null}\n}'),
    (path_graph(3), CoverCertificate(
        3, (0b00, 0b01, 0b00),
        CertificateMeta(direction_sets=((0b101,), (0, 0b111), (0,)))),
     '{\n  "n": 3,\n  "m": 2,\n  "k": 3,\n  "edges": [[0, 1], [1, 2]],\n  "orientations": [\n'
     '    [false, false],\n    [true, false],\n    [false, false]\n  ],\n'
     '  "meta": {"coloring": null, "family_indices": null, "direction_sets": '
     '{"0->1": [1, 3], "1->0": [], "1->2": [1, 2, 3], "2->1": []}}\n}'),
    (Graph.from_edges([(1, 9), (2, 10)], n=11), CoverCertificate(
        1, (0b10,),
        CertificateMeta(coloring=(), direction_sets=(
            (), (0,), (0,), (), (), (), (), (), (), (1,), (1,)))),
     '{\n  "n": 11,\n  "m": 2,\n  "k": 1,\n  "edges": [[1, 9], [2, 10]],\n  "orientations": [\n'
     '    [false, true]\n  ],\n  "meta": {"coloring": [], "family_indices": null, '
     '"direction_sets": {"1->9": [], "2->10": [], "9->1": [1], "10->2": [1]}}\n}'),
    (path_graph(3), CoverCertificate(0, ()),
     '{\n  "n": 3,\n  "m": 2,\n  "k": 0,\n  "edges": [[0, 1], [1, 2]],\n  "orientations": [\n'
     '\n  ],\n  "meta": null\n}'),
    (path_graph(1), CoverCertificate(1, (0,)),
     '{\n  "n": 1,\n  "m": 0,\n  "k": 1,\n  "edges": [],\n  "orientations": [\n'
     '    []\n  ],\n  "meta": null\n}'),
]


@pytest.mark.parametrize(
    "g, cert, text", CERTIFICATE_TEXT,
    ids=["no-meta", "no-direction-sets", "empty-sets", "key-order", "k0", "m0"],
)
def test_certificate_text(g, cert, text):
    assert certificate_to_json(g, cert) == text
    assert certificate_from_json(text, g) == cert


def _written(g):
    cert = construct_cover(g)
    return g, cert, certificate_to_json(g, cert)


@pytest.mark.parametrize("g, cert, text", [_written(g) for g, _ in GOLDEN_CERTIFICATES],
                         ids=GOLDEN_IDS)
def test_the_writer_and_the_text_reader_share_one_layout(g, cert, text, monkeypatch):
    """The writer renders its layout from _LAYOUTS, which the text reader compares against,
    so every certificate construct_cover writes, and its json.dumps copy, reads back from
    the text alone."""
    dumped = _dumps(text)
    monkeypatch.setattr(json, "loads", _no_json_loads)
    assert orcov.cover._certificate_from_text(text, g) == cert
    assert orcov.cover._certificate_from_text(dumped, g) == cert


@pytest.mark.parametrize("g, cert, text", [case for case in CERTIFICATE_TEXT if case[0].m],
                         ids=["no-meta", "no-direction-sets", "empty-sets", "key-order", "k0"])
def test_the_text_reader_declines_what_only_the_library_writes(g, cert, text):
    """No command writes a null meta, coloring or direction-set block, an empty list or
    set, or k = 0: the text path declines those texts and json.loads reads them back."""
    for layout in (str, _dumps):
        assert orcov.cover._certificate_from_text(layout(text), g) is None
        assert certificate_from_json(layout(text), g) == cert


class _Index(enum.IntEnum):
    ONE = 1
    BIG = 2**70


@given(st.none() | st.lists(st.integers() | st.sampled_from(_Index)).map(tuple))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_int_lists_are_written_as_json_dumps_writes_them(values):
    """meta.coloring and family_indices: null, or ints with an int subclass as its value."""
    assert _ints_json(values) == json.dumps(values)


@pytest.mark.parametrize("element", [True, False, 1.0, float("nan"), float("inf"), "1", None])
def test_int_lists_holding_anything_else_are_refused(element):
    """Both readers refuse such a list, and NaN and Infinity are not JSON at all, so the
    writer raises a one-line ValueError instead of writing it."""
    with pytest.raises(ValueError) as exc:
        _ints_json((0, element, 2))
    assert "\n" not in str(exc.value)


def _neighbours(g):
    """Each vertex's neighbours in ascending order, read off the edge list."""
    return [sorted({w for e in g.edges if x in e for w in e} - {x}) for x in range(g.n)]


class TestDirectionSetsBlock:
    """certificate_to_json's direction-set block, row by row over each vertex's neighbours."""

    @pytest.mark.parametrize("dropped", [[(0, 5)], [(7, 2)], [(4, v) for v in range(10)]],
                             ids=["one-key", "other-direction", "whole-row"])
    def test_a_none_entry_raises(self, dropped):
        """A None entry is refused; written as it stands, it would be an empty set."""
        g = petersen_graph()
        cert = construct_cover(g)
        neighbours = _neighbours(g)
        rows = list(map(list, cert.meta.direction_sets))
        assert any(y in neighbours[x] for x, y in dropped)
        for x, y in dropped:
            if y in neighbours[x]:
                rows[x][neighbours[x].index(y)] = None
        meta = CertificateMeta(cert.meta.coloring, cert.meta.family_indices,
                               tuple(map(tuple, rows)))
        with pytest.raises(ValueError) as exc:
            certificate_to_json(g, CoverCertificate(cert.k, cert.orientations, meta))
        assert str(exc.value) == "direction-set rows must hold a set for every neighbour"

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:4] + (rows[4] + (1,),) + rows[5:],
        lambda rows: rows[:4] + (rows[4][:-1],) + rows[5:],
        lambda rows: rows + ((),),
        lambda rows: rows[:-1],
        lambda rows: rows[:-1] + ((1,),),
    ], ids=["row-one-long", "row-one-short", "n-plus-one-rows", "n-minus-one-rows",
            "entry-on-an-isolated-vertex"])
    def test_rows_of_the_wrong_shape_raise(self, edit):
        g = Graph.from_edges(petersen_graph().edges, n=11)  # vertex 10 has no edges
        cert = construct_cover(g)
        assert cert.meta.direction_sets[10] == ()
        meta = CertificateMeta(direction_sets=edit(cert.meta.direction_sets))
        with pytest.raises(ValueError, match="rows do not match the graph's neighbours"):
            certificate_to_json(g, CoverCertificate(cert.k, cert.orientations, meta))


TRIANGLE_AND_PENDANT = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], n=4)
KEY_ORDER = Graph.from_edges([(1, 9), (2, 10)], n=11)


class TestMissingDirectionSets:
    """The reader needs every directed edge's key and names the first missing one in the
    writer's key order."""

    @pytest.mark.parametrize("g, dropped, first", [
        (TRIANGLE_AND_PENDANT, ["1->2"], "1->2"),
        (TRIANGLE_AND_PENDANT, ["2->1"], "2->1"),
        (TRIANGLE_AND_PENDANT, ["2->0", "2->1", "2->3"], "2->0"),
        (TRIANGLE_AND_PENDANT, ["3->2", "0->2"], "0->2"),
        (TRIANGLE_AND_PENDANT, None, "0->1"),
        (petersen_graph(), None, "0->1"),
        (KEY_ORDER, ["10->2", "9->1"], "9->1"),
    ], ids=["one-key", "other-direction", "whole-row", "two-rows", "empty", "empty-petersen",
            "numeric-order"])
    def test_names_the_first_missing_key(self, g, dropped, first):
        doc = json.loads(certificate_to_json(g, construct_cover(g)))
        sets = doc["meta"]["direction_sets"]
        assert len(sets) == 2 * g.m
        for key in sets.copy() if dropped is None else dropped:
            del sets[key]
        with pytest.raises(ParseError) as exc:
            certificate_from_json(json.dumps(doc), g)
        assert str(exc.value) == f"certificate is missing direction set '{first}'"

    @pytest.mark.parametrize("dropped", [
        ["0->1"], ["4->3"], ["9->7"], ["7->5", "3->4"],
    ], ids=["first", "middle", "last", "two"])
    def test_a_shuffled_block_names_the_first_missing_key_in_writer_order(self, dropped):
        g = petersen_graph()
        text = _shuffle_keys(certificate_to_json(g, construct_cover(g)), None)
        doc = json.loads(text)
        for key in dropped:
            del doc["meta"]["direction_sets"][key]
        first = min(dropped, key=_writer_keys(g).index)
        with pytest.raises(ParseError) as exc:
            certificate_from_json(json.dumps(doc), g)
        assert str(exc.value) == f"certificate is missing direction set '{first}'"

    def test_a_bad_key_is_named_before_a_missing_one(self):
        g = TRIANGLE_AND_PENDANT
        doc = json.loads(certificate_to_json(g, construct_cover(g)))
        sets = doc["meta"]["direction_sets"]
        del sets["0->1"]
        sets["3->2"] = [0]
        with pytest.raises(ParseError, match="'3->2' lists 0"):
            certificate_from_json(json.dumps(doc), g)

    @pytest.mark.parametrize("n", [1, 3])
    def test_an_empty_map_on_an_edgeless_graph(self, n):
        g = Graph.from_edges([], n=n)
        cert = CoverCertificate(1, (0,), CertificateMeta(
            direction_sets=((),) * n))
        text = certificate_to_json(g, cert)
        assert '"direction_sets": {}' in text
        assert certificate_from_json(text, g) == cert


def _writer_keys(g: Graph) -> list[str]:
    """The writer's direction-set keys, in its order: ascending (x, y)."""
    return [f"{x}->{y}" for x in range(g.n) for y in range(g.n) if g.adj[x] >> y & 1]


def _read(text: str, g: Graph):
    """certificate_from_json's record, or its ParseError text."""
    try:
        return certificate_from_json(text, g)
    except ParseError as exc:
        return str(exc)


def _set_value(key: str, value):
    """An edit that gives the direction-set key the value."""
    def edit(text, k):
        doc = json.loads(text)
        doc["meta"]["direction_sets"][key] = value(k) if callable(value) else value
        return json.dumps(doc)
    return edit


def _reverse_keys(text, k):
    doc = json.loads(text)
    doc["meta"]["direction_sets"] = dict(reversed(doc["meta"]["direction_sets"].items()))
    return json.dumps(doc)


def _shuffle_keys(text, k):
    doc = json.loads(text)
    items = list(doc["meta"]["direction_sets"].items())
    random.Random(7).shuffle(items)
    doc["meta"]["direction_sets"] = dict(items)
    return json.dumps(doc)


def _nul_key(text, k):
    """Petersen's first two writer keys merged, where the first stood, into one that holds a
    NUL: in the writer's order the keys joined by NUL read as the writer's, and only the key
    count tells them apart."""
    doc = json.loads(text)
    sets = doc["meta"]["direction_sets"]
    del sets["0->4"]
    doc["meta"]["direction_sets"] = {
        "0->1" + "\0" + "0->4" if key == "0->1" else key: value for key, value in sets.items()}
    return json.dumps(doc)


def _true_beside_one(text, k):
    """[1] at Petersen's first writer key and [true] at its last, so that (True,) == (1,)
    meets a seen set."""
    return _set_value("9->7", [True])(_set_value("0->1", [1])(text, k), k)


def _fault(key: str, what: str) -> str:
    return f"certificate direction set '{key}' {what}"


_NOT_A_LIST = "must map 'x->y' to a list (ASCII decimal, no leading zeros)"

# Each edit of Petersen's certificate, and its outcome as the per-key reader gave it before
# whole-block passes read every key order: a ParseError text, or the record, given as the
# changes {(x, i): mask} to the writer's direction-set rows.
WRITER_ORDER_EDITS = {
    "true-beside-1": (_true_beside_one, _fault("9->7", "lists True, not a positive integer")),
    "float": (_set_value("9->7", [1.0]), _fault("9->7", "lists 1.0, not a positive integer")),
    "empty-string": (_set_value("1->0", ""), _fault("1->0", _NOT_A_LIST)),
    "empty-object": (_set_value("1->0", {}), _fault("1->0", _NOT_A_LIST)),
    "repeated-element": (_set_value("1->0", [1, 1]), {(1, 0): 0b1}),
    "above-k": (_set_value("1->6", lambda k: [k + 1]), _fault("1->6", "lists 4, outside [1, 3]")),
    "zero": (_set_value("1->6", [0]), _fault("1->6", "lists 0, not a positive integer")),
    "huge": (_set_value("1->6", [2**64]),
             _fault("1->6", "lists 18446744073709551616, outside [1, 3]")),
    "keys-reversed": (_reverse_keys, {}),
    "duplicate-json-key": (lambda text, k: text.replace('"0->1": ', '"0->1": [2], "0->1": ', 1),
                           {}),
    "nul-in-key": (_nul_key, _fault("0->1\\x000->4", _NOT_A_LIST)),
    "escaped-hyphen": (lambda text, k: text.replace('"0->1"', '"0\\u002d>1"', 1), {}),
}

KEY_ORDERS = {"reversed": _reverse_keys, "shuffled": _shuffle_keys}

_READ_GRAPHS = {
    "petersen": petersen_graph(),
    # 10 and 13 isolated
    "isolated-vertices": Graph.from_edges(petersen_graph().edges + ((11, 12),), n=14),
    "multipartite": _shuffled_multipartite(6, 5, 11),
}
READ_GRAPHS = pytest.mark.parametrize("g", _READ_GRAPHS.values(), ids=_READ_GRAPHS)


class TestWriterOrderedBlock:
    """A parsed direction-set block is read by one key walk, _direction_set_rows, in the
    block's own key order; it raises at the first fault.  Each edit gives the outcome pinned
    in WRITER_ORDER_EDITS, the one the per-key reader gave, in the writer's key order and in
    any other."""

    @staticmethod
    def check(case: str, reorder=None) -> None:
        edit, outcome = WRITER_ORDER_EDITS[case]
        g = petersen_graph()
        cert = construct_cover(g)
        text = certificate_to_json(g, cert)
        if reorder is not None:
            text = reorder(text, cert.k)
            assert list(json.loads(text)["meta"]["direction_sets"]) != _writer_keys(g)
        got = _read(edit(text, cert.k), g)
        if isinstance(outcome, str):
            assert got == outcome
            return
        rows = list(map(list, cert.meta.direction_sets))
        for (x, i), mask in outcome.items():
            assert rows[x][i] != mask
            rows[x][i] = mask
        meta = CertificateMeta(cert.meta.coloring, cert.meta.family_indices,
                               tuple(map(tuple, rows)))
        assert got == CoverCertificate(cert.k, cert.orientations, meta)

    @pytest.mark.parametrize("case", sorted(WRITER_ORDER_EDITS))
    def test_same_outcome_as_the_key_loop_alone(self, case):
        self.check(case)

    @pytest.mark.parametrize("order", sorted(KEY_ORDERS))
    @pytest.mark.parametrize("case", sorted(WRITER_ORDER_EDITS))
    def test_same_outcome_in_another_key_order(self, case, order):
        self.check(case, KEY_ORDERS[order])

    @READ_GRAPHS
    def test_the_writers_certificates_skip_the_key_loop(self, g, monkeypatch):
        """The writer's text and its json.dumps copy never reach the parsed-block reader:
        their block is read from the text."""
        cert = construct_cover(g)
        text = certificate_to_json(g, cert)
        monkeypatch.setattr(orcov.cover, "_direction_set_rows", None)  # a call raises TypeError
        assert certificate_from_json(text, g) == cert
        assert certificate_from_json(_dumps(text), g) == cert

    @pytest.mark.parametrize("order", sorted(KEY_ORDERS))
    @READ_GRAPHS
    def test_other_key_orders_read_back_the_record(self, g, order):
        cert = construct_cover(g)
        text = KEY_ORDERS[order](certificate_to_json(g, cert), cert.k)
        assert list(json.loads(text)["meta"]["direction_sets"]) != _writer_keys(g)
        assert certificate_from_json(text, g) == cert


class TestEdgesField:
    """certificate_to_json's edges field, row by row: the text of json.dumps(g.edges)."""

    @staticmethod
    def check(g: Graph) -> None:
        assert _edges_json(g, list(map(str, range(g.n)))) == json.dumps(g.edges)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_edgeless(self, n):
        self.check(Graph.from_edges([], n=n))

    @pytest.mark.parametrize("n, edge", [(2, (0, 1)), (5, (3, 4)), (12, (10, 11))])
    def test_one_edge(self, n, edge):
        self.check(Graph.from_edges([edge], n=n))

    def test_isolated_vertices(self):
        self.check(Graph.from_edges([(1, 3), (3, 7), (1, 7), (9, 11)], n=14))

    def test_seeded_random_graphs(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 40)
            p = rng.choice([0.05, 0.3, 0.9])
            self.check(Graph.from_edges(
                [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p], n=n))


def _meta_first(text, k):
    doc = json.loads(text)
    return json.dumps({"meta": doc.pop("meta"), **doc})


def _compact_rows(text, k):
    """The writer's text with each orientation row written [true,false,...]."""
    return re.sub(r"\[(?:true|false)(?:, (?:true|false))*\]",
                  lambda row: row[0].replace(", ", ","), text)


# Layouts that the text path declines; json.loads and the parsed-block reader read them.
DICT_PATH_FORMS = {
    "indent-2": lambda text, k: json.dumps(json.loads(text), indent=2),
    "compact": lambda text, k: json.dumps(json.loads(text), separators=(",", ":")),
    "reversed-keys": _reverse_keys,
    "meta-not-last": _meta_first,
    "compact-rows": _compact_rows,
}


def _dumps(text: str) -> str:
    return json.dumps(json.loads(text))


def _swap_keys(a: str, b: str):
    return lambda text: text.replace(f'"{a}"', '"\0"').replace(f'"{b}"', f'"{a}"').replace(
        '"\0"', f'"{b}"')


# Head fields the writer would not write, each read as json.loads reads it
HEAD_EDITS = {
    **{f"{field}-{value}": lambda text, field=field, value=value: re.sub(
        rf'"{field}": \[[^]]*\]', f'"{field}": {value}', text)
       for field in ("coloring", "family_indices")
       for value in ("[01]", "[-0]", "[+1]", "[1_0]", "[ 1]", "[1 ]", "[1,2]", "[\u0661]",
                     "[true]", "[1.5]", "[1e1]", "[null]")},
    "n-renamed": lambda text: text.replace('"n"', '"N"'),
    "meta-renamed": lambda text: text.replace('"meta"', '"Meta"'),
    "coloring-and-family-indices-swapped": _swap_keys("coloring", "family_indices"),
    "edges-and-orientations-swapped": _swap_keys("edges", "orientations"),
}


def _from_families(g):
    return cover_from_families(g, families_from_cover(g, construct_cover(g).orientations))


def _without_meta(g):
    cert = construct_cover(g)
    return CoverCertificate(cert.k, cert.orientations)


def _without_direction_sets(g):
    cert = construct_cover(g)
    return CoverCertificate(cert.k, cert.orientations,
                            CertificateMeta(cert.meta.coloring, cert.meta.family_indices))


def _no_json_loads(*args, **kwargs):
    raise AssertionError("json.loads called")


# The graphs whose construct_cover certificates the tests read: the golden ones, the read
# ones and the cover-dense shapes at tiny size
WRITTEN_GRAPHS = {
    **dict(zip(GOLDEN_IDS, [g for g, _ in GOLDEN_CERTIFICATES])),
    **_READ_GRAPHS,
    "tiny-K8": complete_graph(8),
    "tiny-4-partite": _shuffled_multipartite(4, 3, seed=5),
}


class TestBlockTextPath:
    """certificate_from_json reads what construct_cover writes, in the writer's layout and as
    json.dumps, whole from the text (_certificate_from_text); every other text is parsed
    whole by json.loads."""

    @staticmethod
    def check_text_path(g, cert, text, monkeypatch):
        """No part of text, edges and orientation rows included, goes through json.loads."""
        monkeypatch.setattr(json, "loads", _no_json_loads)
        monkeypatch.setattr(orcov.cover, "_direction_set_rows", None)  # a call raises TypeError
        assert certificate_from_json(text, g) == cert

    @pytest.mark.parametrize("layout", [str, _dumps], ids=["writer", "dumps"])
    @pytest.mark.parametrize("g", WRITTEN_GRAPHS.values(), ids=WRITTEN_GRAPHS)
    def test_the_writers_certificates_take_the_text_path(self, g, layout, monkeypatch):
        cert = construct_cover(g)
        self.check_text_path(g, cert, layout(certificate_to_json(g, cert)), monkeypatch)

    @pytest.mark.parametrize("build, layout", [
        # null coloring and family indices
        (_from_families, str),
        (_from_families, _dumps),
        # null meta, and null direction sets
        (_without_meta, str),
        (_without_meta, _dumps),
        (_without_direction_sets, str),
        (_without_direction_sets, _dumps),
    ], ids=["from-families-writer", "from-families-dumps", "no-meta-writer",
            "no-meta-dumps", "no-direction-sets-writer", "no-direction-sets-dumps"])
    @READ_GRAPHS
    def test_the_library_certificates_take_the_dict_path(self, g, build, layout):
        """No command writes these records; json.loads reads them back."""
        cert = build(g)
        text = layout(certificate_to_json(g, cert))
        assert orcov.cover._certificate_from_text(text, g) is None
        assert certificate_from_json(text, g) == cert

    @pytest.mark.parametrize("form", sorted(DICT_PATH_FORMS))
    @READ_GRAPHS
    def test_other_layouts_take_the_dict_path(self, g, form, monkeypatch):
        cert = construct_cover(g)
        text = DICT_PATH_FORMS[form](certificate_to_json(g, cert), cert.k)
        assert orcov.cover._certificate_from_text(text, g) is None
        calls = []
        rows = orcov.cover._direction_set_rows
        monkeypatch.setattr(orcov.cover, "_direction_set_rows",
                            lambda *args: calls.append(1) or rows(*args))
        assert certificate_from_json(text, g) == cert
        assert calls == [1]

    @staticmethod
    def check_dict_path(g, text):
        """The text path declines text, which reads as the dict path alone reads it."""
        assert orcov.cover._certificate_from_text(text, g) is None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orcov.cover, "_certificate_from_text", lambda text, g: None)
            expected = _read(text, g)
        assert _read(text, g) == expected

    @pytest.mark.parametrize("edit", sorted(HEAD_EDITS))
    def test_heads_the_writer_would_not_write_take_the_dict_path(self, edit):
        g = petersen_graph()
        self.check_dict_path(g, HEAD_EDITS[edit](certificate_to_json(g, construct_cover(g))))

    @pytest.mark.parametrize("value", ["1null", "{}null", "{} null", "null null", "-null"])
    @pytest.mark.parametrize("build, key", [(_without_meta, "meta"),
                                            (_without_direction_sets, "direction_sets")],
                             ids=["meta", "direction-sets"])
    @pytest.mark.parametrize("layout", [str, _dumps], ids=["writer", "dumps"])
    def test_a_null_the_writer_would_not_write_takes_the_dict_path(self, layout, build, key,
                                                                   value):
        """The text still ends as a null meta or null direction sets end."""
        g = petersen_graph()
        text = layout(certificate_to_json(g, build(g))).replace(f'"{key}": null',
                                                                f'"{key}": {value}')
        assert f'"{key}": {value}' in text
        self.check_dict_path(g, text)


def _set_text(value: str):
    """An edit that writes value in place of one drawn direction set's "[...]"."""
    def edit(text, k, draw):
        sets = [m.span(1) for m in re.finditer(r'"\d+->\d+": (\[[^]]*\])', text)]
        start, end = draw(st.sampled_from(sets))
        return text[:start] + value.replace("K1", str(k + 1)) + text[end:]
    return edit


def _insert_one_of(pieces: list[str]):
    """An edit that puts a drawn piece at a drawn position."""
    def edit(text, k, draw):
        piece = draw(st.sampled_from(pieces))
        at = draw(st.integers(0, len(text)))
        return text[:at] + piece + text[at:]
    return edit


def _around_the_braces(text, k, draw):
    """A drawn piece just after the block's opening brace or before one of the last three
    closing braces."""
    ends = [m.start() for m in re.finditer("}", text)][-3:]
    at = draw(st.sampled_from([text.rfind('"direction_sets": {') + 19, *ends]))
    piece = draw(st.sampled_from([" ", "\n", "\x0b", "\x0c", "\xa0", "1", "]"]))
    return text[:at] + piece + text[at:]


def _in_meta(text: str, piece: str) -> str:
    """piece put just before meta's closing brace, the second to last."""
    end = len(text.rstrip()[:-1].rstrip()) - 1
    return text[:end] + piece + text[end:]


def _block(text: str) -> str:
    """The direction-set block of a text that ends in it."""
    return text[text.rfind('"direction_sets": {') + 18:].rstrip()[:-1].rstrip()[:-1]


def _empty_meta_block(text: str, first: dict) -> str:
    """The document after the keys first, its meta's block {}, and the text's block under
    a key "x" after meta."""
    doc = json.loads(text)
    doc = {**first, **doc, "meta": {**doc.pop("meta"), "direction_sets": {}}}
    return json.dumps(doc)[:-1] + ', "x": {"direction_sets": ' + _block(text) + "}}"


def _replace_once(old: str, new: str):
    return lambda text, k, draw: text.replace(old, new, 1)


def _drawn_match(pattern: str, within: str, values: list[str]):
    """An edit that writes a drawn value in place of a drawn match of pattern inside the
    value of the field within; {0} in a value stands for the match."""
    def edit(text, k, draw):
        field = re.search(FIELD_VALUE[within], text)
        spans = [(field.start(1) + m.start(), field.start(1) + m.end())
                 for m in re.finditer(pattern, field[1])]
        start, end = draw(st.sampled_from(spans))
        value = draw(st.sampled_from(values)).format(text[start:end])
        return text[:start] + value + text[end:]
    return edit


# Each head field's value, up to the comma after it
FIELD_VALUE = {
    "n": r'"n": (\d+)', "m": r'"m": (\d+)', "k": r'"k": (\d+)',
    "edges": r'"edges": (\[.*?\]\])',
    "orientations": r'"orientations": (\[[^"]*\])',
    "coloring": r'"coloring": (\[[^]]*\]|null)',
    "family_indices": r'"family_indices": (\[[^]]*\]|null)',
}
ROW = r"\[(?:true|false)(?:, (?:true|false))*\]"


def _add_row(text, k, draw):
    """A drawn orientation row written twice, k kept or raised by one."""
    row = draw(st.sampled_from(list(re.finditer(ROW, text))))
    joint = ",\n    " if text.startswith("{\n") else ", "
    text = text[:row.end()] + joint + row[0] + text[row.end():]
    return text.replace(f'"k": {k}', f'"k": {k + 1}', draw(st.integers(0, 1)))


def _drop_row(text, k, draw):
    rows = list(re.finditer(ROW, text))
    i = draw(st.integers(0, len(rows) - 1))
    if i:
        return text[:rows[i - 1].end()] + text[rows[i].end():]
    return text[:rows[0].start()] + text[rows[1].start():]


def _swap_edge(text, k, draw):
    """A drawn edge pair [u, v] written [v, u]."""
    field = re.search(FIELD_VALUE["edges"], text)
    pair = draw(st.sampled_from(list(re.finditer(r"\[(\d+), (\d+)\]", field[1]))))
    at = field.start(1) + pair.start()
    return text[:at] + f"[{pair[2]}, {pair[1]}]" + text[at + len(pair[0]):]


def _drop_edge(text, k, draw):
    """A drawn edge pair cut with the separator before it, or after the first."""
    field = re.search(FIELD_VALUE["edges"], text)
    pair = draw(st.sampled_from(list(re.finditer(r"(, )?\[\d+, \d+\](?(1)|, )", field[1]))))
    return text[:field.start(1) + pair.start()] + text[field.start(1) + pair.end():]


def _head_separators(text, k, draw):
    """Other whitespace, or none, around the colon and comma of a drawn head field."""
    key = draw(st.sampled_from(["m", "k", "edges", "orientations", "meta"]))
    comma = draw(st.sampled_from([",", ", ", ",\n  ", ",\n", ",\n\t", ", \n  "]))
    colon = draw(st.sampled_from([":", ": ", ":  ", ":\n"]))
    return re.sub(rf',\s*"{key}":\s*', f'{comma}"{key}"{colon}', text, count=1)


def _meta_null_text(text, k, draw):
    head = text[:text.index('"meta": ') + 8]
    return head + "null" + ("\n}" if text.startswith("{\n") else "}")


def _drop_field(field: str):
    return lambda text, k, draw: re.sub(rf'"{field}": (\[[^]]*\]|null), ', "", text, count=1)


def _end_replaced(text, k, draw):
    """One of the last three closing braces written as a drawn piece."""
    at = draw(st.sampled_from([m.start() for m in re.finditer("}", text)][-3:]))
    return text[:at] + draw(st.sampled_from(["]", "", "}}", " }", "x"])) + text[at + 1:]


def _object_opening(text, k, draw):
    """The opening brace of meta or of its block written as a drawn piece."""
    key = draw(st.sampled_from(["meta", "direction_sets"]))
    piece = draw(st.sampled_from(["[", "", "{{", "{\n", "{ "]))
    return text.replace(f'"{key}": {{', f'"{key}": {piece}', 1)


def _last_key_past_the_end(text, k, draw):
    """The block's last entry cut, and its key written after the end with no closing quote."""
    cut = text.rindex(', "')
    key = text[cut + 2:].split('"')[1]
    return text[:cut] + text.rstrip()[-3:].lstrip() + draw(st.sampled_from(["", "\n"])) + '"' + key


TEXT_EDITS = {
    "whitespace": _insert_one_of([" ", "\n", "\t", "\r", "\x0b", "\x0c", "\xa0"]),
    "duplicate-meta": _replace_once('"n": ', '"meta": null, "n": '),
    "duplicate-top-level-key": _replace_once('"m": ', '"k": 1, "m": '),
    "duplicate-in-meta": _replace_once('"coloring": ', '"direction_sets": null, "coloring": '),
    "meta-not-last": lambda text, k, draw: text.rstrip()[:-1] + ', "x": 1}',
    "block-after-meta": lambda text, k, draw: (
        text.rstrip()[:-1] + ', "x": {"direction_sets": ' + _block(text) + "}}"),
    # meta's own block empty, the text's last block under a later key
    "block-under-a-later-key": lambda text, k, draw: _empty_meta_block(text, {}),
    "block-under-a-repeated-key": lambda text, k, draw: _empty_meta_block(text, {"x": 1}),
    "block-head-in-a-string": lambda text, k, draw: _in_meta(
        text, ', "note": "\\"direction_sets\\": {\\"0->1\\": [1]}"'),
    "block-head-in-a-key": _replace_once('"direction_sets": {', '"x\\"direction_sets": {'),
    "escaped-quote-in-key": lambda text, k, draw: text.replace(
        '"0->1"', draw(st.sampled_from(['"0->1\\""', '"0\\"->1"', '"0\\u002d>1"'])), 1),
    # two keys merged into one that holds a raw NUL, where the keys joined by NUL read as
    # the writer's
    "raw-nul-in-key": lambda text, k, draw: re.sub(
        r'(\d+->\d+)": \[[^]]*\], "', "\\1\0", text, count=1),
    "leading-zero": _set_text("[01]"),
    "space-in-set": _set_text("[ 1]"),
    "float": _set_text("[1.0]"),
    "true": _set_text("[true]"),
    "empty": _set_text("[]"),
    "above-k": _set_text("[K1]"),
    "long-element": _set_text("[" + "9" * 4400 + "]"),
    "nan": _set_text("[NaN]"),
    "around-the-braces": _around_the_braces,
    "truncated": lambda text, k, draw: text[:draw(st.integers(0, len(text) - 1))],
    "any-character": _insert_one_of(list('{}[]",: 019\\-> ')),
    "last-key-past-the-end": _last_key_past_the_end,
    "end-replaced": _end_replaced,
    "object-opening": _object_opening,
    # the head fields
    "edge-swapped": _swap_edge,
    "edge-dropped": _drop_edge,
    "edge-not-int": _drawn_match(r"(?<=\[0, )1(?=\])", "edges", ["1.0", "true"]),
    "flag": _drawn_match(r"true|false", "orientations", ["1", "0", "null", '"{0}"', "True"]),
    "flag-more-or-fewer": _drawn_match(r"(?:, )?(?:true|false)", "orientations",
                                       ["", "{0}{0}", "{0}, true"]),
    "row-added": _add_row,
    "row-dropped": _drop_row,
    "n-m-k": lambda text, k, draw: _drawn_match(
        r"\d+", draw(st.sampled_from(["n", "m", "k"])),
        ["{0}.0", "true", "0{0}", "-0", "-{0}", "{0}0", "1e1"])(text, k, draw),
    "coloring-or-indices": lambda text, k, draw: _drawn_match(
        r".+", draw(st.sampled_from(["coloring", "family_indices"])),
        ["[true]", "[1.5]", "null", "[]", "[-0]", "[01]", "[1 ]", "[1,2]", "{0}"])(text, k, draw),
    "coloring-or-indices-deleted": lambda text, k, draw: _drop_field(
        draw(st.sampled_from(["coloring", "family_indices"])))(text, k, draw),
    "head-separators": _head_separators,
    "meta-null": _meta_null_text,
    "head-edit": lambda text, k, draw: HEAD_EDITS[draw(st.sampled_from(sorted(HEAD_EDITS)))](text),
}

# Petersen and K_7 certificates (k = 3 and 4), in the writer's layout and as json.dumps
BASE_TEXTS = [(g, layout(certificate_to_json(g, construct_cover(g))))
              for g in (petersen_graph(), complete_graph(7))
              for layout in (str, lambda text: json.dumps(json.loads(text)))]


# The same certificates with a null meta or null direction sets, and the edits that need
# neither a block nor the coloring and family_indices fields
BLOCKLESS_TEXTS = [(g, layout(certificate_to_json(g, build(g))))
                   for g in (petersen_graph(), complete_graph(7))
                   for build in (_without_meta, _without_direction_sets)
                   for layout in (str, _dumps)]
BLOCKLESS_EDITS = [
    "whitespace", "duplicate-meta", "duplicate-top-level-key", "duplicate-in-meta",
    "meta-not-last", "truncated", "any-character", "end-replaced", "object-opening",
    "edge-swapped", "edge-dropped", "edge-not-int", "flag", "flag-more-or-fewer", "row-added",
    "row-dropped", "n-m-k", "coloring-or-indices-deleted", "head-separators", "meta-null",
    "head-edit",
]


def _check_both_paths(data, texts, edits) -> tuple[Graph, str]:
    """A drawn edit of a drawn text gives the same record or ParseError text with the text
    path on and declined; the graph and the edited text are returned."""
    g, text = data.draw(st.sampled_from(texts))
    k = json.loads(text)["k"]
    case = data.draw(st.sampled_from(sorted(edits)))
    edited = TEXT_EDITS[case](text, k, data.draw)
    got = _read(edited, g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orcov.cover, "_certificate_from_text", lambda text, g: None)
        assert got == _read(edited, g)
    return g, edited


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_the_text_path_reads_as_the_dict_path(data):
    _check_both_paths(data, BASE_TEXTS, TEXT_EDITS)


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_the_text_path_reads_blockless_texts_as_the_dict_path(data):
    """The text path reads no text without a direction-set block, so it declines each edit."""
    g, edited = _check_both_paths(data, BLOCKLESS_TEXTS, BLOCKLESS_EDITS)
    assert orcov.cover._certificate_from_text(edited, g) is None
