"""Property tests of the CLI input boundary: argv, mutated graph files and certificates."""

import contextlib
import functools
import io
import json
import re
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import reference_commands, reference_counterexample, reference_parser  # noqa: E402

from orcov import Graph, certificate_to_json, cli, construct_cover, encode_graph6  # noqa: E402
from orcov.cli import main  # noqa: E402

# derandomized: the suite draws the same examples on every run
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


REFERENCE = reference_parser()
COMMANDS = reference_commands(REFERENCE)

# well-formed values of each type, and some the reference reads as options
_VALUES = {
    int: st.one_of(
        st.integers(-(10**6), 10**6).map(str),
        st.sampled_from(["+5", "1_000", "-0", "007", " 3", "\u0663", "-1_0", "-3.", "x"]),
    ),
    float: st.one_of(
        st.floats().map(repr),
        st.sampled_from(["nan", "-inf", "+inf", "1_0.5", "-.5", "-5.", "-1e3", "1e3", "-2", "x"]),
    ),
    None: st.sampled_from(["-", "g.el", "cert.json", "", "a=b", "-g"]),
}


@st.composite
def argvs(draw, command):
    """argv for command from the reference's own table: exact option names, value after the
    option or after =, repeated options, options and positionals in any order, and a --
    before the last positionals."""
    positionals, items = [], []
    for action in COMMANDS[command]._actions:
        if not action.option_strings:
            positionals.append(draw(_VALUES[action.type]))
            continue
        option = action.option_strings[0]
        if option == "-h":
            continue
        values = st.sampled_from([*action.choices, "xyz"]) if action.choices else _VALUES[action.type]
        for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
            if action.nargs == 0:
                items.append([option])
            elif draw(st.booleans()):
                items.append([option, draw(values)])
            else:
                items.append([f"{option}={draw(values)}"])
    tail = draw(st.integers(0, len(positionals))) if draw(st.booleans()) else 0
    items += [[None]] * (len(positionals) - tail)
    items = draw(st.permutations(items))
    argv = [command]
    order = iter(positionals)
    for item in items:
        argv += [next(order)] if item == [None] else item
    if tail:
        argv += ["--", *order]
    return argv


def _attributes(namespace):
    """Each attribute's type and repr, so that nan equals nan."""
    return {name: (type(value), repr(value)) for name, value in vars(namespace).items()}


@PROPERTY
@pytest.mark.parametrize("command", list(COMMANDS))
@given(data=st.data())
def test_parser_agrees_with_argparse(command, data):
    """Where the argparse reference reads argv, the parser gives the same attributes; where it
    refuses argv, main exits 2 with one error line and runs no command."""
    argv = data.draw(argvs(command))
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            want = REFERENCE.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "_run_command", side_effect=AssertionError("parsed")), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1
    else:
        assert _attributes(cli.build_parser().parse_args(argv)) == _attributes(want)


@st.composite
def graph_texts(draw):
    """A well-formed edge list (with or without header) or graph6 text of a small graph."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=20))
    if draw(st.booleans()):
        text = encode_graph6(Graph.from_edges(pairs, n=n))
        return draw(st.sampled_from(["", ">>graph6<<"])) + text + "\n"
    lines = [f"{u} {v}" for u, v in pairs]
    if not pairs or draw(st.booleans()):
        lines.insert(0, f"n {n}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


_INSERTS = ["+", "_", "-", " ", "\n", "\r", "\x0c", "\x1c", "n", "0", "?", "~", "\x00",
            " ", "٣", "\xe9", " ", "０"]
_HUGE = st.one_of(
    st.integers(2**53 - 2, 10**30).map(str),
    st.integers(-(10**30), -1).map(str),
    st.integers(4290, 4310).map(lambda d: "9" * d),  # about int()'s digit limit
)


@st.composite
def mutated(draw, text):
    """text after up to three edits: truncation, swapped or replaced tokens, inserted characters."""
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["truncate", "swap", "huge", "insert"]))
        parts = re.split(r"(\s+)", text)  # tokens at the even indices
        tokens = range(0, len(parts), 2)
        if kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif kind == "swap":
            i, j = draw(st.sampled_from(tokens)), draw(st.sampled_from(tokens))
            parts[i], parts[j] = parts[j], parts[i]
            text = "".join(parts)
        elif kind == "huge":
            parts[draw(st.sampled_from(tokens))] = draw(_HUGE)
            text = "".join(parts)
        else:
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(_INSERTS)) + text[i:]
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(data)))
        data = data[:i] + bytes([draw(st.integers(128, 255))]) + data[i:]
    return data


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary") / "graph"


@PROPERTY
@given(
    graph_texts().flatmap(mutated),
    st.sampled_from(["chromatic", "sigma"]),
    st.sampled_from(["auto", "graph6", "edgelist"]),
)
def test_mutated_graph_file_ends_in_one_line(graph_file, data, command, fmt):
    """Exit 0 with a result and no stderr, or exit 2 or 3 with one error line and no stdout."""
    graph_file.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(graph_file), "--format", fmt])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and out.endswith("\n") and len(out.splitlines()) == 1
    else:
        assert code in (2, 3)
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1


@functools.cache
def _certificate(g):
    return certificate_to_json(g, construct_cover(g))


def _scalar_slots(node):
    """(container, key) for every int and bool leaf of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _scalar_slots(value)
        elif isinstance(value, int):
            yield node, key


_META_KEYS = ["coloring", "family_indices", "direction_sets", "0->1", "1->0", "01->1",
              "0->1->2", " 0->1", "0->9", "x", "\xe9"]
_NOT_INTS = [1.0, True, False, "1", 1, 0, -1, None, [], 2**64, 10**30]
# direction-set values: all but [1, 1] are refused; "k + 1" is one past the orientation count
_SET_VALUES = [[True], [1.0], "", {}, [1, 1], "k + 1", [0], [2**64]]


@st.composite
def certificates(draw):
    """A graph with an edge, its construct-cover certificate after flag flips and other
    edits, and whether the edits keep it well formed (flips and duplicates counted in k)."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=12))
    g = Graph.from_edges(pairs, n=n)
    doc = json.loads(_certificate(g))
    orientations, meta = doc["orientations"], doc["meta"]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(orientations))
        e = draw(st.integers(0, g.m - 1))
        row[e] = not row[e]
    well_formed = True
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        kind = draw(st.sampled_from(["drop", "duplicate", "shape", "type", "meta", "sets"]))
        if kind in ("drop", "duplicate"):
            i = draw(st.integers(0, len(orientations) - 1))
            recount = draw(st.booleans())
            if kind == "drop":
                del orientations[i]
                well_formed = False
            else:
                orientations.insert(i, list(orientations[i]))
                well_formed &= recount
            if recount:
                doc["k"] = len(orientations)
        elif kind == "shape":
            key = draw(st.sampled_from(["n", "m", "k"]))
            doc[key] = draw(st.one_of(st.integers(-2, 13), st.integers(2**53 - 2, 10**30)))
            well_formed = False
        elif kind == "type":
            container, key = draw(st.sampled_from(list(_scalar_slots(doc))))
            container[key] = draw(st.sampled_from(_NOT_INTS))
            well_formed = False
        elif kind == "meta":
            tables = [meta, meta.get("direction_sets")]
            table = draw(st.sampled_from([t for t in tables if isinstance(t, dict)]))
            if table:
                key = draw(st.sampled_from(sorted(table)))
                value = table.pop(key)
                if draw(st.booleans()):
                    table[draw(st.sampled_from(_META_KEYS))] = value
                well_formed = False
        elif kind == "sets":  # the direction-set keys shuffled, or one value replaced
            sets = meta.get("direction_sets")
            if not isinstance(sets, dict) or not sets:
                continue
            if draw(st.booleans()):
                items = draw(st.permutations(list(sets.items())))
                sets.clear()
                sets.update(items)
            else:
                value = draw(st.sampled_from(_SET_VALUES))
                sets[draw(st.sampled_from(sorted(sets)))] = (
                    [len(orientations) + 1] if value == "k + 1" else value)
                well_formed &= value == [1, 1]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        numbers = [m.span() for m in re.finditer(r"\d+", text)]
        if numbers:
            start, end = draw(st.sampled_from(numbers))
            text = text[:start] + draw(_HUGE) + text[end:]
            well_formed = False
    data = text.encode("ascii")
    if draw(st.integers(0, 9)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
        well_formed = False
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(data)))
        data = data[:i] + bytes([draw(st.integers(128, 255))]) + data[i:]
        well_formed = False
    return g, data, well_formed


@PROPERTY
@given(certificates())
def test_mutated_certificate_verdict_matches_the_reference(graph_file, case):
    """verify-cover ends in exit 0, 1 or 2 with one line; a read certificate gets the
    reference's verdict, and exit 1 prints the reference's smallest bad triple."""
    g, data, well_formed = case
    graph_file.write_text(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    cert_file = graph_file.with_suffix(".json")
    cert_file.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify-cover", str(graph_file), str(cert_file)])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert not well_formed
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1
        return
    assert code in (0, 1) and err == ""
    want = reference_counterexample(g.n, g.edges, json.loads(data)["orientations"])
    if want is None:
        assert (code, out) == (0, "accept\n")
    else:
        assert (code, out) == (1, "counterexample {} {} {}\n".format(*want))
