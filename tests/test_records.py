"""Value semantics of the immutable records, and what importing orcov loads."""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import orcov
from orcov import (
    CertificateMeta,
    Coloring,
    CoverCertificate,
    EstimateResult,
    FamilyAssignment,
    Graph,
    MifCatalog,
    SearchBudget,
    SetFamily,
    SigmaResult,
    certificate_from_json,
    certificate_to_json,
    complete_graph,
    construct_cover,
    cycle_graph,
    parse_edge_list,
    path_graph,
    petersen_graph,
    wheel_graph,
)

F10, F12 = SetFamily(2, 0b1010), SetFamily(2, 0b1100)
ONE_EDGE = (1,)

# name: (make a record, make it with one field changed, a record of another
# class with the same field values, repr text recorded before the records
# stopped being dataclasses; Graph's since it holds m in place of its edges)
RECORDS = {
    "Graph": (
        lambda: Graph(2, (2, 1)),
        lambda: Graph(3, (2, 1, 0)),
        CertificateMeta(2, (2, 1), 1),
        "Graph(n=2, adj=(2, 1), m=1)",
    ),
    "Coloring": (
        lambda: Coloring((0, 1, 0), 2),
        lambda: Coloring((0, 1, 1), 2),
        EstimateResult((0, 1, 0), 2),
        "Coloring(colors=(0, 1, 0), t=2)",
    ),
    "SetFamily": (
        lambda: SetFamily(2, 0b1010),
        lambda: SetFamily(2, 0b1100),
        EstimateResult(2, 0b1010),
        "SetFamily(k=2, member=10)",
    ),
    "MifCatalog": (
        lambda: MifCatalog(2, (F10, F12)),
        lambda: MifCatalog(2, (F12, F10)),
        FamilyAssignment(2, (F10, F12)),
        "MifCatalog(k=2, families=(SetFamily(k=2, member=10), SetFamily(k=2, member=12)))",
    ),
    "FamilyAssignment": (
        lambda: FamilyAssignment(2, (F10,)),
        lambda: FamilyAssignment(2, (F12,)),
        MifCatalog(2, (F10,)),
        "FamilyAssignment(k=2, per_vertex=(SetFamily(k=2, member=10),))",
    ),
    "CertificateMeta": (
        lambda: CertificateMeta(coloring=(0, 1)),
        lambda: CertificateMeta(coloring=(0, 1), family_indices=(0, 1)),
        ((0, 1), None, None),
        "CertificateMeta(coloring=(0, 1), family_indices=None, direction_sets=None)",
    ),
    "CoverCertificate": (
        lambda: CoverCertificate(1, ONE_EDGE),
        lambda: CoverCertificate(1, ONE_EDGE, CertificateMeta()),
        CertificateMeta(1, ONE_EDGE, None),
        "CoverCertificate(k=1, orientations=(1,), meta=None)",
    ),
    "SigmaResult": (
        lambda: SigmaResult(value=3, chi=3, witness_k=3, provenance="computed"),
        lambda: SigmaResult(value=3, chi=3, witness_k=3, provenance="literature"),
        (3, 3, 3, "computed"),
        "SigmaResult(value=3, chi=3, witness_k=3, provenance='computed')",
    ),
    "EstimateResult": (
        lambda: EstimateResult(raw=1.5, rounded=2),
        lambda: EstimateResult(raw=1.25, rounded=2),
        MifCatalog(1.5, 2),
        "EstimateResult(raw=1.5, rounded=2)",
    ),
    "SearchBudget": (
        lambda: SearchBudget(max_k=2),
        lambda: SearchBudget(max_k=2, timeout=1.0),
        CertificateMeta(8, 2, 300.0),
        "SearchBudget(max_edges=8, max_k=2, timeout=300.0)",
    ),
}

names = pytest.mark.parametrize("name", sorted(RECORDS))


@names
def test_equal_fields_compare_and_hash_equal(name):
    make, changed, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != changed() and not a == changed()


@names
def test_another_class_with_equal_values_is_unequal(name):
    make, _, twin, _ = RECORDS[name]
    assert make() != twin and twin != make()


@names
def test_repr(name):
    make, _, _, text = RECORDS[name]
    assert repr(make()) == text


@names
def test_immutable_and_without_dict(name):
    record = RECORDS[name][0]()
    field = record.__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before
    assert not hasattr(record, "__dict__")


@names
def test_copy_and_pickle_round_trip(name):
    record = RECORDS[name][0]()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is type(record)


def test_keyword_construction_with_defaults():
    assert CertificateMeta(coloring=(0,)).family_indices is None
    assert SearchBudget(max_k=2) == SearchBudget(8, 2, 300.0)
    assert SearchBudget() == SearchBudget(max_edges=8, max_k=3, timeout=300.0)
    assert Graph(n=1, adj=(0,)).edges == ()
    assert CoverCertificate(k=0, orientations=()).meta is None


NAMED_GRAPHS = {
    "K1": lambda: complete_graph(1), "K7": lambda: complete_graph(7),
    "C5": lambda: cycle_graph(5), "P1": lambda: path_graph(1), "P6": lambda: path_graph(6),
    "W6": lambda: wheel_graph(6), "petersen": petersen_graph,
}


def _literal_edges(g):
    return tuple((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1)


def _seeded_graphs():
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 40)
        p = rng.random()
        yield Graph.from_edges(
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p], n=n)


@pytest.mark.parametrize("make", NAMED_GRAPHS.values(), ids=NAMED_GRAPHS)
def test_graph_edges_are_built_from_the_rows(make):
    g = make()
    assert g.edges == _literal_edges(g)
    assert g.m == len(g.edges) == sum(map(int.bit_count, g.adj)) // 2


def test_seeded_graph_edges_are_built_from_the_rows():
    for g in _seeded_graphs():
        assert g.edges == _literal_edges(g)
        assert g.m == len(g.edges)
        assert parse_edge_list(f"n {g.n}\n" + "".join(f"{v} {u}\n" for u, v in g.edges)) == g


@pytest.mark.parametrize("adj, message", [
    ((0b100, 0b000), "adjacency row of vertex 0 addresses vertices >= n"),
    ((0b01, 0b00), "self-loop at vertex 0"),
    ((0b10, 0b00), "asymmetric adjacency between 0 and 1"),
    # every row's range and diagonal are checked before any mirror
    ((0b10, 0b110), "adjacency row of vertex 1 addresses vertices >= n"),
    ((0b10, 0b10), "self-loop at vertex 1"),
], ids=["out-of-range", "self-loop", "asymmetric", "out-of-range-after-asymmetric",
        "self-loop-after-asymmetric"])
def test_graph_called_directly_checks_its_rows(adj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(2, adj)


def test_graph_value_semantics_over_n_adj_and_m():
    g = petersen_graph()
    assert g.__slots__ == ("n", "adj", "m")
    assert hash(g) == hash((g.n, g.adj, g.m))
    assert g == Graph(g.n, g.adj) == parse_edge_list(
        "".join(f"{v} {u}\n" for u, v in reversed(g.edges)))
    assert g != Graph(11, g.adj + (0,))
    clone = pickle.loads(pickle.dumps(g))
    assert (clone.n, clone.adj, clone.m, clone.edges) == (g.n, g.adj, g.m, g.edges)
    assert clone == g and hash(clone) == hash(g)
    with pytest.raises(AttributeError):
        g.edges = ()


@pytest.mark.parametrize("g", [petersen_graph(), Graph.from_edges([(1, 2), (2, 4)], n=6)],
                         ids=["petersen", "isolated-vertices"])
def test_a_certificate_hashes_as_its_read_back_copy(g):
    cert = construct_cover(g)
    loaded = certificate_from_json(certificate_to_json(g, cert), g)
    assert loaded == cert and hash(loaded) == hash(cert)


def _loaded_by(names, code, *flags):
    """Which of names code loads in a fresh interpreter run with flags, printed after its output."""
    src = str(Path(orcov.__file__).resolve().parents[1])
    script = (
        f"import sys; before = set(sys.modules); {code}; "
        f"print(sorted(set({sorted(names)!r}) & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_import_loads_no_dataclasses():
    """import orcov.cli loads neither dataclasses nor inspect nor json (start-up cost)."""
    assert _loaded_by({"dataclasses", "inspect", "json"}, "import orcov.cli") == (0, "[]\n", "")


def test_import_without_site_loads_only_what_runs():
    """Under python -S, where site preloads nothing, import orcov.cli loads none of these."""
    names = {"typing", "pathlib", "threading", "dataclasses", "inspect", "json"}
    assert _loaded_by(names, "import orcov.cli", "-S") == (0, "[]\n", "")


@pytest.mark.parametrize("flags", [(), ("-S",)])
def test_cover_commands_load_no_json(flags, tmp_path):
    """construct-cover, and verify-cover of its certificate and of a json.dumps copy, run
    without the json module."""
    graph = tmp_path / "petersen.el"
    graph.write_text("".join(f"{u} {v}\n" for u, v in petersen_graph().edges))
    cert, dumps = tmp_path / "cert.json", tmp_path / "dumps.json"
    main = "from orcov import cli; cli.main({!r})".format
    construct = main(["construct-cover", str(graph), "--out", str(cert)])
    assert _loaded_by({"json"}, construct, *flags) == (0, "3 accept\n[]\n", "")
    dumps.write_text(json.dumps(json.loads(cert.read_text())))
    for path in (cert, dumps):
        verify = main(["verify-cover", str(graph), str(path)])
        assert _loaded_by({"json"}, verify, *flags) == (0, "accept\n[]\n", "")


@pytest.mark.parametrize("flags", [(), ("-S",)])
def test_a_command_loads_no_argument_parser(flags):
    """A whole command, argv parsing included, loads neither argparse nor what it imports."""
    code = "from orcov import cli; cli.main(['lambda', '1'])"
    result = _loaded_by({"argparse", "gettext", "locale"}, code, *flags)
    assert result == (0, "1 computed\n[]\n", "")
