import gc
import hashlib
import io
import json
import os
import random
import select
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import reference_commands, reference_counterexample, reference_parser
from test_cover import GOLDEN_CERTIFICATES, GOLDEN_IDS, MISSHAPEN_CERTIFICATES
from test_families import brace_lists
from test_graphs import INT_DIGIT_LIMIT, LONG_TOKENS

import orcov
from orcov import Graph, cli, encode_graph6
from orcov.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.el"
    p.write_text("0 1\n1 2\n0 2\n")
    return str(p)


@pytest.fixture
def k2_g6(tmp_path):
    p = tmp_path / "k2.g6"
    p.write_text("A_\n")
    return str(p)


class TestLambda:
    def test_computed(self, capsys):
        assert run(capsys, "lambda", "6") == (0, "2646 computed\n", "")

    def test_literature_requires_flag(self, capsys):
        code, out, err = run(capsys, "lambda", "9")
        assert code == 3 and out == "" and "literature" in err

    def test_literature_value(self, capsys):
        code, out, _ = run(capsys, "lambda", "9", "--literature-table")
        value, provenance = out.split()
        assert code == 0 and provenance == "literature"
        assert 10**20 < int(value) < 10**21


class TestEnumerate:
    def test_k2_output(self, capsys):
        code, out, _ = run(capsys, "enumerate-mifs", "2")
        assert code == 0
        assert out == "{1}{1,2}\n{2}{1,2}\n"

    @pytest.mark.parametrize("k", range(1, 7))
    def test_stream_matches_catalog(self, capsys, k):
        _, plain, _ = run(capsys, "enumerate-mifs", str(k))
        _, streamed, _ = run(capsys, "enumerate-mifs", str(k), "--stream")
        assert plain == streamed
        assert plain == self.listing(k)
        assert len(plain.splitlines()) == orcov.hosten_morris(k)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_text_stdout(self, monkeypatch, k):
        """A text stream in place of stdout, with no bytes below it, gets the same text."""
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["enumerate-mifs", str(k)]) == 0
        assert out.getvalue() == self.listing(k)

    K6_SHA256 = "355cd14007830ebfa45fb9abcfe73db3d80d067c8c7ef0c971b893f878e2f1c5"

    def test_k6_bytes_in_a_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "orcov", "enumerate-mifs", "6"], capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(orcov.__file__).resolve().parents[1])},
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == self.K6_SHA256

    @pytest.mark.parametrize("flags, command", [
        (["-u"], "enumerate-mifs"), ([], "enumerate-mifs"),
        (["-u"], "construct-cover"), ([], "construct-cover"),
    ], ids=["enumerate-mifs-6--u", "enumerate-mifs-6",
            "construct-cover-json--u", "construct-cover-json"])
    def test_k6_through_a_nonblocking_pipe(self, tmp_path, flags, command):
        """Into a full non-blocking pipe a write takes part of the bytes, or none: all arrive."""
        argv = ["enumerate-mifs", "6"] if command == "enumerate-mifs" else [
            "construct-cover", str(write_k12x5(tmp_path)[0]), "--max-chi-vertices", "60", "--json"]
        # buffered unless -u says otherwise
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(orcov.__file__).resolve().parents[1])
        blocking = subprocess.run([sys.executable, "-m", "orcov", *argv],
                                  capture_output=True, env=env, timeout=60)
        assert (blocking.returncode, blocking.stderr) == (0, b"")
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        try:
            proc = subprocess.Popen(
                [sys.executable, *flags, "-m", "orcov", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        digest = hashlib.sha256()
        with open(read_end, "rb", buffering=0) as reader:
            while chunk := reader.read(1 << 14):
                digest.update(chunk)
                time.sleep(0.001)  # a slow reader, so that the pipe fills
        with proc.stderr:
            assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")
        assert digest.hexdigest() == hashlib.sha256(blocking.stdout).hexdigest()

    def test_waits_for_room_after_a_refused_write(self, monkeypatch):
        """A raw write that takes no bytes (None) is followed by one wait for room, then a retry."""
        class FullOnce:
            """Takes nothing on the first write, then at most 4 bytes a write."""

            def __init__(self):
                self.data = bytearray()
                self.full = True

            def write(self, view):
                if self.full:
                    self.full = False
                    return None
                self.data += view[:4]
                return len(view[:4])

        raw = FullOnce()
        waits = []
        monkeypatch.setattr(select, "select", lambda *files: waits.append(files) or files)
        stdout = SimpleNamespace(buffer=SimpleNamespace(raw=raw), flush=lambda: None)
        monkeypatch.setattr(sys, "stdout", stdout)
        cli._write_ascii([b"{1}{1,2}\n", b"{2}{1,2}\n"])
        assert waits == [((), (raw,), ())]
        assert raw.data == b"{1}{1,2}\n{2}{1,2}\n"

    @staticmethod
    def listing(k):
        return "".join(brace_lists(k, f.member) + "\n" for f in orcov.enumerate_mifs(k).families)


class TestSigma:
    def test_sigma_complete(self, capsys):
        assert run(capsys, "sigma-complete", "13") == (0, "5\n", "")

    def test_sigma_complete_capacity(self, capsys):
        code, _, err = run(capsys, "sigma-complete", str(10**9))
        assert code == 3 and "supported" in err

    @pytest.mark.parametrize("argv, message", [
        (("enumerate-mifs", "8"), "enumeration capacity is k <= 7"),
        (("lambda", "10", "--literature-table"),
         "lambda(10) is beyond the enumeration capacity k <= 7 and the literature table (k <= 9)"),
        (("sigma-complete", "1422565"),
         "sigma(K_n) supported up to n = lambda(7) = 1422564; got n=1422565"),
        (("sigma-complete", str(10**21), "--literature-table"),
         "sigma(K_n) supported up to n = lambda(9) = 423295099074735261880; "
         f"got n={10**21}"),
    ])
    def test_capacity_exit_3(self, capsys, argv, message):
        assert run(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_sigma_graph(self, capsys, k3_file):
        assert run(capsys, "sigma", k3_file) == (0, "3 3 3\n", "")

    def test_estimate(self, capsys):
        code, out, _ = run(capsys, "estimate", "2646")
        raw, rounded = out.split()
        assert code == 0 and rounded == "6"
        assert abs(float(raw) - 5.738) < 1e-3

    def test_chromatic(self, capsys, k2_g6):
        assert run(capsys, "chromatic", k2_g6) == (0, "2\n", "")


class TestFormats:
    def test_graph6_sniffed(self, capsys, tmp_path):
        p = tmp_path / "c5"
        p.write_text("DqK\n")  # C_5 in graph6
        code, out, _ = run(capsys, "sigma", str(p))
        assert (code, out) == (0, "3 3 3\n")

    def test_explicit_format_wins(self, capsys, tmp_path):
        p = tmp_path / "amb"
        p.write_text("0 1\n")
        code, out, _ = run(capsys, "sigma", str(p), "--format", "edgelist")
        assert (code, out) == (0, "2 2 2\n")

    @pytest.mark.parametrize("text, fmt", [
        ("A_", "graph6"), ("0 1", "edgelist"), ("\n>>graph6<<A_\n", "graph6"),
        ("0", "edgelist"),  # first byte below 63
        # the first line ends at any of str.splitlines' breaks
        ("A_\r0 1", "graph6"), ("A_\r\n0 1", "graph6"), ("A_\v0 1", "graph6"),
        ("A_\f0 1", "graph6"), ("A_\x1c0 1", "graph6"), ("~" * 200 + "\r\n0 1", "graph6"),
        ("~" * 63 + "\r\n0 1", "graph6"), ("0 1\x1c" + "~" * 200, "edgelist"),
    ])
    def test_sniff_format(self, text, fmt):
        assert cli.sniff_format(text) == fmt

    @pytest.mark.parametrize("command", ["chromatic", "sigma"])
    @pytest.mark.parametrize("text, message", [
        ("", "empty graph input"),
        (" \n\n", "empty graph input"),
        ("n 3 4\n0 1\n", "line 1: header must be 'n <count>'"),
        ("n 0\n", "line 1: vertex count must be positive"),
        ("0 1 2\n", "line 1: expected 'u v', got '0 1 2'"),
        ("0\n", "line 1: expected 'u v', got '0'"),
        (">>graph6<<\n", "empty graph6 input"),
        ("?\n", "graph6 encodes an empty vertex set"),
    ])
    def test_input_error_exit_2(self, capsys, tmp_path, command, text, message):
        p = tmp_path / "bad"
        p.write_text(text)
        assert run(capsys, command, str(p)) == (2, "", f"error: {message}\n")

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("0 0\n")
        code, _, err = run(capsys, "chromatic", str(p))
        assert code == 2 and "self-loop" in err

    @pytest.mark.parametrize("text", ["0 1_0\n", "n 1_2\n0 1\n"])
    def test_non_decimal_token_exit_2_from_stdin_and_file(
        self, capsys, monkeypatch, tmp_path, text
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "chromatic", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: non-integer ") and err.count("\n") == 1
        p = tmp_path / "bad.el"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "chromatic", str(p))
        assert (code, out) == (2, "") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["0\u00a01\n", "0 \u0663\n"])
    def test_non_ascii_text_exit_2_from_stdin_and_file(self, capsys, monkeypatch, tmp_path, text):
        """A text stream in place of stdin has no bytes to decode: the parser rejects it."""
        bad = next(c for c in text if not c.isascii())
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "chromatic", "-") == (
            2, "", f"error: line 1: non-ASCII character {bad!a}\n")
        p = tmp_path / "bad.el"
        p.write_text(text, encoding="utf-8")
        assert run(capsys, "chromatic", str(p)) == (
            2, "", f"error: {p}: line 1: non-ASCII byte 0x{bad.encode()[0]:02x}\n")

    def test_non_ascii_byte_exit_2_from_stdin_and_file(self, capsys, monkeypatch, tmp_path):
        """Stdin and a file decode the same bytes the same way.

        The no-break space on line 2 is whitespace to str.split, so a
        locale-decoded stdin would read the edge 0 2.
        """
        data = b"0 1\n0\xc2\xa02\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert run(capsys, "chromatic", "-") == (
            2, "", "error: stdin: line 2: non-ASCII byte 0xc2\n")
        p = tmp_path / "nbsp.el"
        p.write_bytes(data)
        assert run(capsys, "chromatic", str(p)) == (
            2, "", f"error: {p}: line 2: non-ASCII byte 0xc2\n")

    @INT_DIGIT_LIMIT
    @pytest.mark.parametrize("case", sorted(LONG_TOKENS))
    def test_long_token_exit_2(self, capsys, tmp_path, case):
        text, message = LONG_TOKENS[case]
        p = tmp_path / "long.el"
        p.write_text(text)
        assert run(capsys, "chromatic", str(p)) == (2, "", f"error: {message}\n")

    def test_long_non_decimal_token_exit_2(self, capsys, tmp_path):
        """A token int() cannot read is named by its head and length, whatever its size."""
        p = tmp_path / "long.el"
        p.write_text("0 +" + "9" * 4400 + "\n")
        assert run(capsys, "chromatic", str(p)) == (
            2, "", "error: line 1: non-integer token '+9999999...' (4401 characters)\n")

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "chromatic", "/nonexistent/file")
        assert code == 2 and err

    @pytest.mark.parametrize("text, n", [
        ("n 1000000000000000000\n", 10**18),
        ("n 100000000000000000000\n", 10**20),
        ("0 100000000000000000000\n", 10**20 + 1),
    ])
    def test_unallocatable_vertex_count_exit_3(self, capsys, tmp_path, text, n):
        """verify-cover has no vertex bound, so it tries to build the rows, before it reads
        the certificate (here the graph file, never read)."""
        p = tmp_path / "huge.el"
        p.write_text(text)
        code, out, err = run(capsys, "verify-cover", str(p), str(p))
        assert (code, out) == (3, "")
        assert err == f"error: cannot allocate adjacency rows for n={n} vertices\n"

    @pytest.mark.parametrize("command", ["chromatic", "sigma", "construct-cover"])
    @pytest.mark.parametrize("text, n", [
        ("n 2000000\n0 1\n", 2000000), ("0 1\n1999999 0\n", 2000000), ("n 2000000\n", 2000000),
        ("n 100000000000000000000\n", 10**20),
    ], ids=["header", "endpoint", "edgeless", "unallocatable"])
    def test_vertex_bound_before_rows(self, capsys, tmp_path, command, text, n):
        """The bound is held to the header or the largest endpoint; the rows never grow past it."""
        p = tmp_path / "wide.el"
        p.write_text(text)
        tracemalloc.start()
        try:
            result = run(capsys, command, str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (3, "", "error: exact chromatic number limited to 32 vertices "
                                 f"(graph has {n}); raise max_vertices to override\n")
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("command", ["chromatic", "sigma", "construct-cover"])
    @pytest.mark.parametrize("text", ["n 40\n", encode_graph6(Graph.from_edges([], n=40))],
                             ids=["edgelist", "graph6"])
    def test_edgeless_graph_above_the_bound(self, capsys, tmp_path, command, text):
        """The bound comes before sigma's and construct-cover's refusal of an edgeless graph."""
        p = tmp_path / "edgeless"
        p.write_text(text)
        assert run(capsys, command, str(p)) == (
            3, "", "error: exact chromatic number limited to 32 vertices (graph has 40); "
                   "raise max_vertices to override\n")

    @pytest.mark.parametrize("command, message", [
        ("sigma", "sigma is defined only for non-empty graphs (m >= 1)"),
        ("construct-cover", "cover construction requires a non-empty graph"),
    ])
    @pytest.mark.parametrize("text", ["n 32\n", encode_graph6(Graph.from_edges([], n=32))],
                             ids=["edgelist", "graph6"])
    def test_edgeless_graph_within_the_bound(self, capsys, tmp_path, command, message, text):
        p = tmp_path / "edgeless"
        p.write_text(text)
        assert run(capsys, command, str(p)) == (2, "", f"error: {message}\n")

    def test_bound_is_the_option(self, capsys, tmp_path):
        p = tmp_path / "wide.el"
        p.write_text("n 40\n0 39\n")
        assert run(capsys, "chromatic", str(p), "--max-chi-vertices", "40") == (0, "2\n", "")
        assert run(capsys, "chromatic", str(p), "--max-chi-vertices", "39")[0] == 3

    @pytest.mark.parametrize("command", ["chromatic", "sigma", "construct-cover"])
    @pytest.mark.parametrize("text", ["0 1\n", "A_\n"], ids=["edgelist", "graph6"])
    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_bound_below_one_is_a_usage_fault(self, capsys, tmp_path, command, text, bound):
        """Not a capacity error: no graph fits a bound below one vertex."""
        p = tmp_path / "k2"
        p.write_text(text)
        assert run(capsys, command, str(p), "--max-chi-vertices", bound) == (
            2, "", "error: max_vertices must be positive\n")


class TestCover:
    def test_construct_then_verify_file(self, capsys, k3_file, tmp_path):
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "construct-cover", k3_file, "--out", str(cert))
        assert code == 0 and out == "3 accept\n"
        code, out, _ = run(capsys, "verify-cover", k3_file, str(cert))
        assert code == 0 and out == "accept\n"

    def test_json_to_stdout_round_trips(self, capsys, k3_file, tmp_path):
        code, out, _ = run(capsys, "construct-cover", k3_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 3 and len(doc["orientations"]) == 3
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        assert run(capsys, "verify-cover", k3_file, str(cert))[0] == 0

    def test_bad_certificate_exit_1(self, capsys, k2_g6, tmp_path):
        code, out, _ = run(capsys, "construct-cover", k2_g6, "--json")
        doc = json.loads(out)
        doc["k"] = 1
        doc["orientations"] = doc["orientations"][:1]
        doc["meta"] = None  # its direction sets name the dropped orientation 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify-cover", k2_g6, str(bad))
        assert code == 1
        assert out.startswith("counterexample ")
        assert out.split()[1:] in (["0", "1", "1"], ["1", "0", "0"])

    def test_mismatched_certificate_exit_2(self, capsys, k3_file, k2_g6, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "construct-cover", k3_file, "--out", str(cert))
        code, _, err = run(capsys, "verify-cover", k2_g6, str(cert))
        assert code == 2 and "does not match" in err

    def test_non_ascii_certificate_exit_2_from_stdin_and_file(
        self, capsys, monkeypatch, k3_file, tmp_path
    ):
        code, out, _ = run(capsys, "construct-cover", k3_file, "--json")
        assert code == 0
        lines = out.encode("ascii").split(b"\n")
        lines[3] += b" \xe2\x80\x83"  # an em space after the edges
        data = b"\n".join(lines)
        cert = tmp_path / "cert.json"
        cert.write_bytes(data)
        assert run(capsys, "verify-cover", k3_file, str(cert)) == (
            2, "", f"error: {cert}: line 4: non-ASCII byte 0xe2\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert run(capsys, "verify-cover", k3_file, "-") == (
            2, "", "error: stdin: line 4: non-ASCII byte 0xe2\n")

    @pytest.mark.parametrize("g, digest", GOLDEN_CERTIFICATES, ids=GOLDEN_IDS)
    def test_out_file_holds_the_golden_certificate(self, capsys, tmp_path, g, digest):
        """The file is the golden certificate, and verify-cover accepts it, its meta included."""
        graph = tmp_path / "g.el"
        graph.write_text(f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        cert = tmp_path / "cert.json"
        assert run(capsys, "construct-cover", str(graph), "--out", str(cert))[0] == 0
        data = cert.read_bytes()
        assert data.endswith(b"}\n") and hashlib.sha256(data[:-1]).hexdigest() == digest
        assert run(capsys, "verify-cover", str(graph), str(cert)) == (0, "accept\n", "")

    @pytest.mark.parametrize("argv", [
        ("construct-cover", "{graph}", "--out", "{tmp}/missing/cert.json"),
        ("chromatic", "{tmp}"),
        ("verify-cover", "{graph}", "{tmp}"),
    ], ids=["out-in-missing-directory", "graph-is-directory", "certificate-is-directory"])
    def test_file_errors_exit_2_in_a_process(self, k3_file, tmp_path, argv):
        proc = run_process(*(a.format(graph=k3_file, tmp=tmp_path) for a in argv))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_deterministic_output(self, capsys, k3_file):
        first = run(capsys, "construct-cover", k3_file, "--json")
        second = run(capsys, "construct-cover", k3_file, "--json")
        assert first == second


def write_k12x5(tmp_path):
    """The complete 12-partite graph on 60 vertices, parts shuffled, as an edge list file.

    Returns the file and its edges in canonical order; the file lists them
    reversed and each one backwards.
    """
    n, parts = 60, 12
    part = [v % parts for v in range(n)]
    random.Random(60).shuffle(part)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    graph = tmp_path / "k12x5.el"
    graph.write_text(f"n {n}\n" + "".join(f"{v} {u}\n" for u, v in reversed(edges)))
    return graph, edges


def run_process(*argv, entry=("-m", "orcov"), stdin=None):
    src = str(Path(orcov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *entry, *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )


# main() with an address-space limit 64 MB above what the process maps
# after its imports
_MAIN_UNDER_RLIMIT = """
import resource, sys
from orcov.cli import main
with open("/proc/self/statm") as f:
    mapped = int(f.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (mapped + 64 * 2**20, hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
def test_row_build_out_of_memory_exit_3(tmp_path):
    """The 40 MB row list of n = 5,000,000 fits under the limit; its 40 MB tuple does not."""
    p = tmp_path / "wide.el"
    p.write_text("n 5000000\n")
    proc = run_process("verify-cover", str(p), str(p), entry=("-c", _MAIN_UNDER_RLIMIT))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: cannot allocate adjacency rows for n=5000000 vertices\n"


class TestClosedStdout:
    """A reader that closed stdout is an output error (exit 2), not a rejection."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize(
        "argv", [("lambda", "3"), ("enumerate-mifs", "6"), ("enumerate-mifs", "2")])
    def test_exit_2_with_one_line(self, argv, unbuffered):
        src = str(Path(orcov.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "orcov", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes stderr in a POSIX shell")
@pytest.mark.parametrize("argv", ["lambda x", "chromatic /nonexistent/file"])
def test_closed_stderr_keeps_the_exit_code(argv):
    """With stderr closed the error line is lost, but not exit 2."""
    src = str(Path(orcov.__file__).resolve().parents[1])
    command = shlex.join([sys.executable, "-m", "orcov", *argv.split()])
    proc = subprocess.run(f"{command} 2>&-", shell=True,
                          capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.skipif(os.name != "posix", reason="closes stdout in a POSIX shell")
@pytest.mark.parametrize("argv", ["lambda 4", "enumerate-mifs 3", "--help"])
def test_stdout_closed_at_start_is_exit_2(argv):
    """sys.stdout is None: one error line and exit 2, no traceback."""
    src = str(Path(orcov.__file__).resolve().parents[1])
    command = shlex.join([sys.executable, "-m", "orcov", *argv.split()])
    proc = subprocess.run(f"{command} >&-", shell=True, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout is closed\n"


class TestClosedStdin:
    """sys.stdin is None where stdin was closed at start: a read of - is exit 2, one line."""

    GRAPH_COMMANDS = [name for name, (_, positionals, _) in cli.COMMANDS.items()
                      if positionals[0][0] == "graph"]

    @pytest.mark.parametrize("command", GRAPH_COMMANDS)
    def test_graph_from_stdin(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sys, "stdin", None)
        argv = [command, "-"] + (["-"] if command == "verify-cover" else [])
        assert run(capsys, *argv) == (2, "", "error: stdin is closed\n")

    def test_certificate_from_stdin(self, capsys, monkeypatch, k3_file):
        monkeypatch.setattr(sys, "stdin", None)
        assert run(capsys, "verify-cover", k3_file, "-") == (2, "", "error: stdin is closed\n")


class TestCoverInAProcess:
    """construct-cover --out, then verify-cover on the certificate and on a tampered copy."""

    def test_multipartite_60(self, tmp_path):
        graph, edges = write_k12x5(tmp_path)
        n = 60
        cert = tmp_path / "cert.json"
        proc = run_process("construct-cover", str(graph), "--max-chi-vertices", "60",
                           "--out", str(cert))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4 accept\n", "")
        proc = run_process("verify-cover", str(graph), str(cert))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "accept\n", "")

        doc = json.loads(cert.read_text())
        assert [tuple(e) for e in doc["edges"]] == edges
        rows = doc["orientations"]
        # flip the only orientation sending some edge forward: its backward
        # direction set stays, its forward one becomes empty
        e = next(e for e in range(len(edges)) if sum(row[e] for row in rows) == 1)
        i = next(i for i, row in enumerate(rows) if row[e])
        rows[i][e] = False
        want = reference_counterexample(n, edges, rows)
        assert want is not None
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        proc = run_process("verify-cover", str(graph), str(bad))
        assert proc.returncode == 1 and proc.stderr == ""
        assert proc.stdout == "counterexample {} {} {}\n".format(*want)

    def test_json_on_stdout_verifies_from_stdin(self, k3_file):
        """construct-cover --json | verify-cover graph -: stdout is a whole certificate."""
        cert = run_process("construct-cover", k3_file, "--json")
        assert (cert.returncode, cert.stderr) == (0, "")
        proc = run_process("verify-cover", k3_file, "-", stdin=cert.stdout)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "accept\n", "")

    def test_nine_orientations(self, capsys, tmp_path):
        """k > 8: duplicated orientations still cover; emptying one direction set does not."""
        n = 24
        part = [v % 6 for v in range(n)]
        random.Random(9).shuffle(part)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
        graph = tmp_path / "k6x4.el"
        graph.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        code, out, _ = run(capsys, "construct-cover", str(graph), "--json")
        assert code == 0
        doc = json.loads(out)
        rows = doc["orientations"]
        rows += (rows * 9)[:9 - len(rows)]
        doc["k"] = len(rows)
        assert doc["k"] == 9
        cert = tmp_path / "cert.json"
        for tamper in (False, True):
            if tamper:  # no orientation sends edge 0 forward
                for row in rows:
                    row[0] = False
            cert.write_text(json.dumps(doc))
            want = reference_counterexample(n, edges, rows)
            verdict = "accept\n" if want is None else "counterexample {} {} {}\n".format(*want)
            assert (want is None) is not tamper
            assert run(capsys, "verify-cover", str(graph), str(cert)) == (
                int(tamper), verdict, "")


# Field overrides that make a construct-cover certificate of K_2 malformed.
MALFORMED_CERTIFICATES = {
    "orientation-not-list": {"k": 1, "orientations": [5]},
    "k-not-int": {"k": True, "orientations": [[True]]},
    "meta-not-object": {"meta": 5},
    "coloring-not-list": {"meta": {"coloring": 5}},
    "coloring-entry": {"meta": {"coloring": [0, "1"]}},
    "family-indices-not-list": {"meta": {"family_indices": 5}},
    "direction-sets-not-object": {"meta": {"direction_sets": [1]}},
    "direction-set-not-list": {"meta": {"direction_sets": {"0->1": 5}}},
    "direction-set-key": {"meta": {"direction_sets": {"a->b": [1]}}},
    # json.dumps writes these keys as ASCII escapes, so the file is ASCII
    "direction-set-key-arabic-indic-digit": {"meta": {"direction_sets": {"\u0661->0": [1]}}},
    "direction-set-key-fullwidth-digit": {"meta": {"direction_sets": {"\uff10->1": [1]}}},
    "direction-set-key-leading-zero": {"meta": {"direction_sets": {"01->0": [1]}}},
    "direction-set-key-vertex-above-n": {"meta": {"direction_sets": {"0->2": [1]}}},
    "direction-set-key-not-an-edge": {"meta": {"direction_sets": {"1->1": [1]}}},
    "direction-set-element": {"meta": {"direction_sets": {"0->1": [0]}}},
    "direction-set-element-above-k": {"meta": {"direction_sets": {"0->1": [3]}}},
    "direction-set-element-huge": {"meta": {"direction_sets": {"0->1": [10**18]}}},
    "n-float": {"n": 2.0},
    "m-bool": {"m": True},
    "edge-endpoint-bool": {"edges": [[False, True]]},
    "edge-endpoint-float": {"edges": [[0, 1.0]]},
}


class TestMalformedCertificate:
    """Every malformed certificate field ends in exit 2 and one error line."""

    @pytest.fixture
    def k2_cert(self, capsys, k2_g6):
        code, out, _ = run(capsys, "construct-cover", k2_g6, "--json")
        assert code == 0
        return json.loads(out)

    def write(self, tmp_path, doc, case):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**doc, **MALFORMED_CERTIFICATES[case]}))
        return str(p)

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_exit_2_with_one_line(self, capsys, k2_g6, k2_cert, tmp_path, case):
        bad = self.write(tmp_path, k2_cert, case)
        code, out, err = run(capsys, "verify-cover", k2_g6, bad)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(MISSHAPEN_CERTIFICATES))
    def test_document_shape_exit_2(self, capsys, k2_g6, k2_cert, tmp_path, case):
        edit, message = MISSHAPEN_CERTIFICATES[case]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(edit(k2_cert)))
        assert run(capsys, "verify-cover", k2_g6, str(p)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("key", ["0->3", "2->0", "0->2"])
    def test_direction_set_key_names_an_edge(self, capsys, tmp_path, key):
        """A vertex >= n, a vertex without edges and a pair that is not an edge."""
        graph = tmp_path / "g.el"
        graph.write_text("n 3\n0 1\n")
        code, out, _ = run(capsys, "construct-cover", str(graph), "--json")
        assert code == 0
        doc = json.loads(out)
        doc["meta"]["direction_sets"][key] = [1]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        assert run(capsys, "verify-cover", str(graph), str(cert)) == (
            2, "", f"error: certificate direction set '{key}' names no edge of the graph\n")

    @pytest.mark.parametrize("dropped, first", [
        (["1->2"], "1->2"), (["2->1"], "2->1"), (["2->0", "2->1", "2->3"], "2->0"), (None, "0->1"),
    ], ids=["one-key", "other-direction", "whole-row", "empty"])
    def test_missing_direction_set_exit_2(self, capsys, tmp_path, dropped, first):
        graph = tmp_path / "g.el"
        graph.write_text("0 1\n1 2\n2 0\n2 3\n")
        code, out, _ = run(capsys, "construct-cover", str(graph), "--json")
        assert code == 0
        doc = json.loads(out)
        sets = doc["meta"]["direction_sets"]
        for key in list(sets) if dropped is None else dropped:
            del sets[key]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        assert run(capsys, "verify-cover", str(graph), str(cert)) == (
            2, "", f"error: certificate is missing direction set '{first}'\n")

    @INT_DIGIT_LIMIT
    @pytest.mark.parametrize("text, long", [
        pytest.param('"k": 2', '"k": ' + "9" * 4400, id="k"),
        pytest.param('"edges": [[0, 1]]', '"edges": [[0, ' + "9" * 4400 + "]]", id="edge-endpoint"),
        pytest.param('"0->1": [1]', '"0->1": [' + "9" * 4400 + "]", id="direction-set-element"),
    ])
    def test_long_integer_exit_2(self, capsys, k2_g6, tmp_path, text, long):
        code, out, _ = run(capsys, "construct-cover", k2_g6, "--json")
        assert code == 0 and out.count(text) == 1
        p = tmp_path / "long.json"
        p.write_text(out.replace(text, long))
        assert run(capsys, "verify-cover", k2_g6, str(p)) == (
            2, "", "error: certificate holds an integer too long to read\n")

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"a": ' * 100_000 + "1" + "}" * 100_000,
    ], ids=["arrays", "objects"])
    def test_deep_nesting_exit_2_in_a_process(self, k2_g6, tmp_path, text):
        p = tmp_path / "deep.json"
        p.write_text(text)
        proc = run_process("verify-cover", k2_g6, str(p))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: certificate nests arrays or objects too deeply to read\n")

    @pytest.mark.parametrize("case", ["orientation-not-list", "coloring-not-list"])
    def test_no_traceback_in_a_process(self, k2_g6, k2_cert, tmp_path, case):
        bad = self.write(tmp_path, k2_cert, case)
        proc = run_process("verify-cover", k2_g6, bad)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestColoringClaim:
    """verify-cover checks meta.coloring against the graph: a false claim is exit 2."""

    WRITTEN = '"coloring": [0, 1, 2, 0]'

    @pytest.fixture
    def pendant_triangle(self, capsys, tmp_path):
        """A triangle with a pendant edge, and construct-cover's certificate of it."""
        graph = tmp_path / "g.el"
        graph.write_text("0 1\n1 2\n2 0\n2 3\n")
        code, out, _ = run(capsys, "construct-cover", str(graph), "--json")
        assert code == 0 and out.count(self.WRITTEN) == 1
        return str(graph), out

    @pytest.mark.parametrize("layout", ["writer", "indent-2"])
    @pytest.mark.parametrize("coloring, message", [
        ("[0, 0, 0, 0]", "gives two adjacent vertices one colour"),
        ("[0, 1, 1, 0]", "gives two adjacent vertices one colour"),
        ("[0, 1, 2]", "has 3 entries for 4 vertices"),
        ("[0, 1, 2, 0, 1]", "has 5 entries for 4 vertices"),
    ], ids=["all-zero", "one-edge", "short", "long"])
    def test_false_claim_exit_2(self, capsys, tmp_path, pendant_triangle, coloring, message,
                                layout):
        graph, text = pendant_triangle
        text = text.replace(self.WRITTEN, f'"coloring": {coloring}')
        if layout == "indent-2":
            text = json.dumps(json.loads(text), indent=2)
        cert = tmp_path / "cert.json"
        cert.write_text(text)
        assert run(capsys, "verify-cover", graph, str(cert)) == (
            2, "", f"error: certificate meta.coloring {message}\n")

    def test_written_claim_accepted(self, capsys, tmp_path, pendant_triangle):
        graph, text = pendant_triangle
        cert = tmp_path / "cert.json"
        for copy in (text, json.dumps(json.loads(text), indent=2)):
            cert.write_text(copy)
            assert run(capsys, "verify-cover", graph, str(cert)) == (0, "accept\n", "")

    def test_null_coloring_of_cover_from_families_read(self, capsys, tmp_path):
        """cover_from_families records no colouring, so there is no claim to check."""
        g = orcov.petersen_graph()
        catalog = orcov.sorted_mif_masks(3)
        fa = orcov.FamilyAssignment(3, tuple(
            orcov.SetFamily(3, catalog[c]) for c in orcov.exact_coloring(g).colors))
        cert = orcov.cover_from_families(g, fa)
        assert cert.meta.coloring is None
        graph = tmp_path / "g.el"
        graph.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        path = tmp_path / "cert.json"
        path.write_text(orcov.certificate_to_json(g, cert))
        assert '"coloring": null' in path.read_text()
        assert run(capsys, "verify-cover", str(graph), str(path)) == (0, "accept\n", "")


class TestCollector:
    """The process entry runs without the cyclic GC; main() leaves it alone."""

    def test_main_leaves_the_collector_as_it_finds_it(self, capsys, k3_file):
        was = gc.isenabled()
        try:
            for switch, enabled in ((gc.enable, True), (gc.disable, False)):
                switch()
                assert run(capsys, "sigma", k3_file)[0] == 0
                assert gc.isenabled() is enabled
        finally:
            if was:
                gc.enable()

    def test_run_calls_main_with_the_collector_off(self, monkeypatch):
        seen, exits = [], []
        monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 3)
        # the real call would end this process
        monkeypatch.setattr(cli.os, "_exit", exits.append)
        try:
            cli.run()
        finally:
            gc.enable()
        assert seen == [False] and exits == [3]


class TestBruteSigmaCli:
    def test_value(self, capsys, k2_g6):
        assert run(capsys, "brute-sigma", k2_g6) == (0, "2\n", "")

    def test_exhausted_prints_threshold(self, capsys, k3_file):
        code, out, _ = run(capsys, "brute-sigma", k3_file, "--max-k", "2")
        assert (code, out) == (0, "> 2\n")

    def test_nan_timeout_is_a_usage_error(self, capsys, k2_g6):
        code, out, err = run(capsys, "brute-sigma", k2_g6, "--timeout", "nan")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_budget_exit_3(self, capsys, tmp_path):
        p = tmp_path / "big.el"
        p.write_text("\n".join(f"{u} {v}" for u in range(5) for v in range(u + 1, 5)))
        code, _, err = run(capsys, "brute-sigma", str(p), "--max-edges", "4")
        assert code == 3 and "budget" in err.lower()

    @pytest.mark.parametrize("text, options, result", [
        ("0 x\n", ["--max-k", "0"], (2, "error: line 1: non-integer token 'x'\n")),
        ("n 2000000\n", ["--max-k", "0"], (2, "error: budget fields must be positive\n")),
        ("n 2000000\n", [], (2, "error: sigma is defined only for non-empty graphs\n")),
        ("".join(f"{u} {v}\n{v} {u}\n" for u in range(5) for v in range(u + 1, 5)),
         ["--max-edges", "9"], (3, "error: graph has 10 edges; the search budget allows 9\n")),
    ], ids=["parse", "budget-fields", "edgeless", "edge-count"])
    def test_refused_before_any_rows(self, capsys, tmp_path, monkeypatch, text, options, result):
        """An edge list is refused in the search's order (parse, budget fields, no edges,
        distinct pairs over the budget) before its rows are padded to n."""
        p = tmp_path / "refused.el"
        p.write_text(text)

        def build(adj, n, m):
            raise AssertionError("rows were padded")

        monkeypatch.setattr(cli, "_edge_list_graph", build)
        code, out, err = run(capsys, "brute-sigma", str(p), *options)
        assert (code, err) == result and out == ""

    def test_pairs_past_unallocatable_rows_count(self, capsys, tmp_path):
        """Pairs beyond rows that cannot be allocated still count toward --max-edges, which
        refuses first."""
        p = tmp_path / "far.el"
        far = 10**20
        p.write_text(f"0 1\n0 {far}\n{far} 0\n1 {far}\n")
        assert run(capsys, "brute-sigma", str(p), "--max-edges", "2") == (
            3, "", "error: graph has 3 edges; the search budget allows 2\n")
        assert run(capsys, "brute-sigma", str(p), "--max-edges", "3") == (
            3, "", f"error: cannot allocate adjacency rows for n={far + 1} vertices\n")

    def test_a_repeated_pair_is_one_edge(self, capsys, tmp_path):
        p = tmp_path / "k2.el"
        p.write_text("0 1\n1 0\n0 1\n")
        assert run(capsys, "brute-sigma", str(p), "--max-edges", "1") == (0, "2\n", "")

    def test_defaults_are_the_search_budget_defaults(self):
        args = cli.build_parser().parse_args(["brute-sigma", "-"])
        budget = orcov.SearchBudget()
        assert (args.max_k, args.max_edges, args.timeout) == (
            budget.max_k, budget.max_edges, budget.timeout)


class TestUsage:
    """A usage fault is one error: line on stderr, nothing on stdout and exit 2, in a process."""

    @staticmethod
    def assert_one_error_line(*argv):
        proc = run_process(*argv, stdin="0 1\n")  # a graph, for a command that runs
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_no_subcommand(self):
        self.assert_one_error_line()

    def test_unknown_subcommand(self):
        self.assert_one_error_line("frobnicate")

    def test_bad_flag_value(self):
        self.assert_one_error_line("lambda", "notanumber")

    @pytest.mark.parametrize("argv", [
        ("lambda", "3", "--frobnicate"),
        ("construct-cover", "-", "--out"),
        ("brute-sigma", "-", "--max-k", "--max-edges", "4"),
        ("lambda", "3", "4"),
        ("sigma", "-", "--format", "xyz"),
        ("lambda", "9", "--literature"),  # an abbreviation
        ("lambda", "3", "--literature-table=yes"),
    ], ids=["unknown-option", "missing-value", "option-for-value", "extra-positional",
            "bad-choice", "abbreviation", "flag-with-value"])
    def test_one_error_line(self, argv):
        self.assert_one_error_line(*argv)

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_command(self, flag):
        proc = run_process(flag)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: orcov ")
        for command in reference_commands(reference_parser()):
            assert f"  orcov {command} " in proc.stdout

    def test_help_for_one_command(self, capsys):
        code, out, err = run(capsys, "brute-sigma", "-", "--help", "--max-k", "x")
        assert (code, err) == (0, "")
        assert out.startswith("usage: orcov brute-sigma graph ") and "--timeout" in out
