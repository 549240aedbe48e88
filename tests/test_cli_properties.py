"""Property test of the CLI input boundary: mutated graph files end in exit 0, 2 or 3."""

import contextlib
import io
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from orcov import Graph, encode_graph6  # noqa: E402
from orcov.cli import main  # noqa: E402

# derandomized: the suite draws the same examples on every run
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


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
