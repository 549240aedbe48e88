import hashlib
import itertools
import json
import random
import re

import pytest
from conftest import all_labeled_graphs, random_graph, reference_counterexample

import orcov.graphs
from orcov import (
    CapacityError,
    CertificateMeta,
    CoverCertificate,
    FamilyAssignment,
    Graph,
    Orientation,
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
    sigma_of_graph,
    validate_assignment,
    verify_cover,
)
from orcov.cover import _edge_masks
from orcov.families import _disjoint_members


def orient(g, *flags):
    return Orientation.from_dir(g.n, list(flags))


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

    def test_shape_mismatch(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="shape"):
            verify_cover(g, [Orientation(2, 1, 0)])

    def test_empty_cover_rejected_on_first_edge(self):
        g = path_graph(3)
        assert verify_cover(g, []) == (0, 1, 1)


def _flags(o):
    return [bool(o.bits >> e & 1) for e in range(o.m)]


def _flip(o, e):
    return Orientation(o.n, o.m, o.bits ^ 1 << e)


def _reference_families(g, orientations):
    """A_v = {S_(v,w)}, each S read off the orientations one edge at a time."""
    member = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        forward = sum(1 << i for i, o in enumerate(orientations) if o.bits >> e & 1)
        backward = sum(1 << i for i, o in enumerate(orientations) if not o.bits >> e & 1)
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
            yield g, [Orientation(g.n, g.m, rng.getrandbits(g.m)) for _ in range(k)]
            cover = list(construct_cover(g).orientations)
            while len(cover) < 5 and rng.random() < 0.5:
                cover.append(Orientation(g.n, g.m, rng.getrandbits(g.m)))
            rng.shuffle(cover)
            yield g, cover
            i, e = rng.randrange(len(cover)), rng.randrange(g.m)
            yield g, [_flip(o, e) if j == i else o for j, o in enumerate(cover)]

    def test_counterexample_matches_triple_by_triple(self):
        rejected = 0
        for g, cover in self.cases():
            want = reference_counterexample(g.n, g.edges, [_flags(o) for o in cover])
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
            bad = [_flip(o, e) if j == i else o for j, o in enumerate(cover)]
            want = reference_counterexample(g.n, g.edges, [_flags(o) for o in bad])
            assert verify_cover(g, bad) == want


class TestEdgeMasks:
    def test_out_rows_from_masks(self):
        g = complete_graph(3)  # edges 01, 02, 12
        o = Orientation(3, 3, 0b011)  # 0->1, 0->2, 2->1
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
        cover = [Orientation(3, 3, 0b011), Orientation(3, 3, 0b100), Orientation(3, 3, 0)]
        assert _edge_masks(g.m, cover) == [0b001, 0b001, 0b010]
        assert _edge_masks(g.m, []) == [0, 0, 0]
        assert _edge_masks(0, [Orientation(1, 0, 0)]) == []

    def test_families_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            families_from_cover(complete_graph(3), [Orientation(3, 2, 0)])


class TestFamiliesFromCover:
    def test_k2_example(self):
        g = complete_graph(2)
        fa = families_from_cover(g, [orient(g, True), orient(g, False)])
        assert fa.per_vertex[0] == SetFamily.from_sets(2, [{1}])
        assert fa.per_vertex[1] == SetFamily.from_sets(2, [{2}])

    def test_valid_cover_gives_intersecting_families(self):
        g, cover = transitive_rotation_covers_k3()
        fa = families_from_cover(g, cover)
        assert validate_assignment(g, fa) is None

    def test_orientation_count_bounds(self):
        # SetFamily holds the bounds 1 <= k <= FAMILY_KMAX (16)
        g = complete_graph(2)
        with pytest.raises(ValueError, match="k must be positive"):
            families_from_cover(g, [])
        assert families_from_cover(g, [orient(g, True)] * 16).k == 16
        with pytest.raises(CapacityError, match="k <= 16"):
            families_from_cover(g, [orient(g, True)] * 17)

    def test_missing_direction_shows_empty_set(self):
        g = complete_graph(2)
        fa = families_from_cover(g, [orient(g, True)])
        assert fa.per_vertex[1] == SetFamily.from_masks(1, [0])
        violation = validate_assignment(g, fa)
        assert violation is not None
        assert violation.condition == 2 and violation.vertex == 1


class TestValidateAssignment:
    def test_same_star_on_an_edge_is_condition_1(self):
        g = complete_graph(2)
        s1 = SetFamily.from_sets(2, [{1}, {1, 2}])
        violation = validate_assignment(g, FamilyAssignment(2, (s1, s1)))
        assert violation is not None
        assert violation.condition == 1 and violation.edge == (0, 1)

    def test_disjoint_members_is_condition_2(self):
        g = complete_graph(2)
        f_ok = SetFamily.from_sets(2, [{1}])
        f_bad = SetFamily.from_sets(2, [{1}, {2}])
        violation = validate_assignment(g, FamilyAssignment(2, (f_bad, f_ok)))
        assert violation is not None
        assert violation.condition == 2 and violation.vertex == 0

    def test_size_mismatch(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            validate_assignment(g, FamilyAssignment(2, ()))


class TestDisjointMembers:
    def test_always_disjoint_over_catalog(self):
        # distinct maximal intersecting families always admit disjoint
        # members; the pair is the smallest S, then the smallest T
        fams = enumerate_mifs(4).families
        for f1, f2 in itertools.permutations(fams, 2):
            want = min((s, t) for s in f1.members() for t in f2.members() if not s & t)
            assert _disjoint_members(f1, f2) == want


class TestCoverFromFamilies:
    def test_k2_example(self):
        g = complete_graph(2)
        fa = FamilyAssignment(
            2, (SetFamily.from_sets(2, [{1}]), SetFamily.from_sets(2, [{2}]))
        )
        cert = cover_from_families(g, fa)
        assert cert.k == 2
        assert cert.orientations[0].bits == 1  # edge 0->1 in orientation 1
        assert cert.orientations[1].bits == 0  # edge 1->0 in orientation 2
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
        same = SetFamily.from_sets(2, [{1}, {1, 2}])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            cover_from_families(g, FamilyAssignment(2, (same, same)))


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

    def test_meta_records_construction(self):
        g = cycle_graph(5)
        cert = construct_cover(g)
        assert cert.meta is not None
        assert cert.meta.coloring is not None and len(cert.meta.coloring) == 5
        assert cert.meta.family_indices == (0, 1, 2)
        assert cert.meta.direction_sets is not None

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
    """Patch graphs._dsatur to log (t, priorities) of every pass; returns the log."""
    calls = []
    dsatur = orcov.graphs._dsatur

    def counting(nbrs, t, prio):
        calls.append((t, list(prio)))
        return dsatur(nbrs, t, prio)

    monkeypatch.setattr(orcov.graphs, "_dsatur", counting)
    return calls


def _orders(g: Graph) -> tuple[list[int], list[int]]:
    """The degree and canonical DSATUR priorities of g."""
    return orcov.graphs._degree_order(g), orcov.graphs._canonical_order(g.n)


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


@pytest.mark.parametrize(
    "g, digest", GOLDEN_CERTIFICATES, ids=["K12", "K6x3", "petersen", "gnp20", "gnp30"]
)
def test_golden_certificate(g, digest):
    text = certificate_to_json(g, construct_cover(g))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


class TestRoundTrip:
    def test_cover_family_round_trip(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_graph(rng, n_max=7)
            cert = construct_cover(g)
            cover = list(cert.orientations)
            rng.shuffle(cover)
            fa = families_from_cover(g, cover)
            assert validate_assignment(g, fa) is None
            rebuilt = cover_from_families(g, fa)
            assert rebuilt.k == len(cover)
            assert verify_cover(g, rebuilt.orientations) is None


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: FamilyAssignment(3, (SetFamily.from_sets(2, [{1}]),)),
                 "family ground set does not match assignment k", id="assignment-k"),
    pytest.param(lambda: CoverCertificate(2, (Orientation(2, 1, 0),)),
                 "k does not match the number of orientations", id="certificate-k"),
    pytest.param(lambda: cover_from_families(
                     complete_graph(3), FamilyAssignment(2, (SetFamily.from_sets(2, [{1}]),) * 2)),
                 "assignment size does not match vertex count", id="assignment-size"),
])
def test_record_error_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


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
        assert meta.direction_sets == {(0, 1): 0b11, (1, 0): 0b11}

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

    def test_orientations_with_leading_zeros_round_trip(self):
        g = path_graph(40)
        rng = random.Random(3)
        cover = tuple(Orientation(g.n, g.m, rng.getrandbits(g.m) >> s) for s in (0, 5, 20, 39))
        cert = CoverCertificate(len(cover), cover)
        loaded = certificate_from_json(certificate_to_json(g, cert), g)
        assert loaded == cert


def _path3_orientation(bits):
    return Orientation(3, 2, bits)


# certificate_to_json text recorded with the json.dumps serialiser it
# replaced: no meta, meta without direction sets, direction sets with
# empty sets and keys whose numeric order differs from their string
# order, orientations whose high edges are 0, no orientations, no edges.
CERTIFICATE_TEXT = [
    (path_graph(3), CoverCertificate(2, (_path3_orientation(0b01), _path3_orientation(0b00))),
     '{\n  "n": 3,\n  "m": 2,\n  "k": 2,\n  "edges": [[0, 1], [1, 2]],\n  "orientations": [\n'
     '    [true, false],\n    [false, false]\n  ],\n  "meta": null\n}'),
    (path_graph(3), CoverCertificate(
        2, (_path3_orientation(0b01), _path3_orientation(0b00)),
        CertificateMeta(coloring=(0, 1, 0), family_indices=(0, 1))),
     '{\n  "n": 3,\n  "m": 2,\n  "k": 2,\n  "edges": [[0, 1], [1, 2]],\n  "orientations": [\n'
     '    [true, false],\n    [false, false]\n  ],\n'
     '  "meta": {"coloring": [0, 1, 0], "family_indices": [0, 1], "direction_sets": null}\n}'),
    (path_graph(3), CoverCertificate(
        3, (_path3_orientation(0b00), _path3_orientation(0b01), _path3_orientation(0b00)),
        CertificateMeta(direction_sets={(1, 0): 0, (0, 1): 0b101, (1, 2): 0b111, (2, 1): 0})),
     '{\n  "n": 3,\n  "m": 2,\n  "k": 3,\n  "edges": [[0, 1], [1, 2]],\n  "orientations": [\n'
     '    [false, false],\n    [true, false],\n    [false, false]\n  ],\n'
     '  "meta": {"coloring": null, "family_indices": null, "direction_sets": '
     '{"0->1": [1, 3], "1->0": [], "1->2": [1, 2, 3], "2->1": []}}\n}'),
    (Graph.from_edges([(1, 9), (2, 10)], n=11), CoverCertificate(
        1, (Orientation(11, 2, 0b10),),
        CertificateMeta(coloring=(), direction_sets={(10, 2): 1, (2, 10): 0, (9, 1): 1})),
     '{\n  "n": 11,\n  "m": 2,\n  "k": 1,\n  "edges": [[1, 9], [2, 10]],\n  "orientations": [\n'
     '    [false, true]\n  ],\n  "meta": {"coloring": [], "family_indices": null, '
     '"direction_sets": {"2->10": [], "9->1": [1], "10->2": [1]}}\n}'),
    (path_graph(3), CoverCertificate(0, ()),
     '{\n  "n": 3,\n  "m": 2,\n  "k": 0,\n  "edges": [[0, 1], [1, 2]],\n  "orientations": [\n'
     '\n  ],\n  "meta": null\n}'),
    (path_graph(1), CoverCertificate(1, (Orientation(1, 0, 0),)),
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
