"""Command-line frontend.

Machine-readable results go to stdout, diagnostics to stderr.  Exit
codes: 0 success or accept, 1 cover verification rejected, 2 usage,
input or output error (a reader that closed stdout included), 3
capacity or budget error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterable, Sequence

from .cover import (
    certificate_from_json,
    certificate_to_json,
    construct_cover,
    verify_cover,
)
from .errors import BudgetError, CapacityError, ParseError
from .families import (
    family_lines,
    hosten_morris,
    lambda_provenance,
    sorted_mif_masks,
)
from .graphs import (
    DEFAULT_CHI_VERTEX_BOUND,
    Graph,
    Orientation,
    _check_vertex_bound,
    _edge_list_pairs,
    chromatic_number,
    parse_graph6,
)
from .oracle import SearchBudget, brute_sigma
from .sigma import sigma_complete, sigma_estimate, sigma_of_graph

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _read_source(path: str) -> str:
    """The text of a file, or of stdin for "-": both read as bytes and decoded as ASCII.

    A non-ASCII byte is a ParseError naming its line, on either path.
    A text stream put in place of stdin in-process has no bytes to
    decode, so its text is taken as it is.
    """
    if path == "-":
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
        if isinstance(data, str):
            return data
    else:
        with open(path, "rb") as f:
            data = f.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        name = "stdin" if path == "-" else path
        raise ParseError(f"{name}: line {line}: non-ASCII byte 0x{data[exc.start]:02x}") from None


def _write_ascii(chunks: Iterable[bytes]) -> None:
    """Write ASCII chunks to stdout's bytes, or as text where stdout has none.

    Every write to stdout goes through here.  A text stream put in place
    of stdout in-process has no buffer, so it gets the decoded text, as
    _read_source does for stdin.
    """
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        for chunk in chunks:
            out.write(chunk.decode("ascii"))
        return
    out.flush()  # text already written goes first
    # Into a full non-blocking pipe a buffered writer raises after keeping
    # part of a write in its buffer; the raw file below it takes part of
    # the bytes, or none of them (None), and says so.  An unbuffered
    # stdout is raw already.
    raw = getattr(buffer, "raw", buffer)
    for chunk in chunks:
        view = memoryview(chunk)
        while view:
            view = view[raw.write(view):]


def _write_line(line: str) -> None:
    """One line of ASCII text to stdout."""
    _write_ascii([line.encode("ascii"), b"\n"])


def sniff_format(text: str) -> str:
    """Graph6 iff the first line has no whitespace and starts >= byte 63."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty graph input")
    first = stripped.splitlines()[0].rstrip()
    if first.startswith(">>graph6<<") or ord(first[0]) >= 63 and not any(map(str.isspace, first)):
        return "graph6"
    return "edgelist"


def _load_graph(args: argparse.Namespace) -> Graph:
    """The graph of args.graph in args.format (sniffed for "auto"), for every graph command.

    A command with --max-chi-vertices holds an edge list to that bound
    after the parse and before any rows exist; graph6 (n <= 62) is built
    first and meets the bound in the library, before any other refusal.
    """
    text = _read_source(args.graph)
    fmt = sniff_format(text) if args.format == "auto" else args.format
    if fmt == "graph6":
        return parse_graph6(text)
    edges, n = _edge_list_pairs(text)
    if hasattr(args, "max_chi_vertices"):
        _check_vertex_bound(n, args.max_chi_vertices)
    return Graph.from_edges(edges, n)


def _print_verdict(g: Graph, orientations: Sequence[Orientation], accept: str) -> int:
    """Print the accept line or the counterexample verify_cover finds; return the exit code."""
    verdict = verify_cover(g, orientations)
    if verdict is None:
        _write_line(accept)
        return EXIT_OK
    _write_line(f"counterexample {verdict[0]} {verdict[1]} {verdict[2]}")
    return EXIT_REJECTED


def _add_graph_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", help="graph file (edge list or graph6), or - for stdin")
    sub.add_argument(
        "--format",
        choices=["auto", "graph6", "edgelist"],
        default="auto",
        help="input format (default: sniff)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orcov",
        description="Orientation covering numbers, maximal intersecting families, "
        "and verified minimum covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="count maximal intersecting families over [k]")
    p.add_argument("k", type=int)
    p.add_argument("--literature-table", action="store_true")

    p = sub.add_parser("enumerate-mifs", help="list all maximal intersecting families")
    p.add_argument("k", type=int)
    p.add_argument(
        "--stream",
        action="store_true",
        help="accepted for compatibility: the output is always streamed",
    )

    p = sub.add_parser("sigma-complete", help="covering number of the complete graph K_n")
    p.add_argument("n", type=int)
    p.add_argument("--literature-table", action="store_true")

    p = sub.add_parser("sigma", help="covering number of a graph: prints sigma chi witness_k")
    _add_graph_arg(p)
    p.add_argument("--literature-table", action="store_true")
    p.add_argument("--max-chi-vertices", type=int, default=DEFAULT_CHI_VERTEX_BOUND)

    p = sub.add_parser("estimate", help="closed-form estimate of sigma(K_n): prints raw rounded")
    p.add_argument("n", type=int)

    p = sub.add_parser("construct-cover", help="build a verified minimum cover")
    _add_graph_arg(p)
    p.add_argument("--out", help="write the certificate JSON to this file")
    p.add_argument("--json", action="store_true", help="print the certificate JSON to stdout")
    p.add_argument("--max-chi-vertices", type=int, default=DEFAULT_CHI_VERTEX_BOUND)

    p = sub.add_parser("verify-cover", help="check a certificate against a graph")
    _add_graph_arg(p)
    p.add_argument("certificate", help="certificate JSON file, or - for stdin")

    p = sub.add_parser("brute-sigma", help="exhaustive-search covering number (oracle)")
    _add_graph_arg(p)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-edges", type=int, default=8)
    p.add_argument("--timeout", type=float, default=300.0)

    p = sub.add_parser("chromatic", help="exact chromatic number")
    _add_graph_arg(p)
    p.add_argument("--max-chi-vertices", type=int, default=DEFAULT_CHI_VERTEX_BOUND)

    return parser


def _run_command(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "lambda":
        value = hosten_morris(args.k, literature_table=args.literature_table)
        _write_line(f"{value} {lambda_provenance(args.k)}")
        return EXIT_OK
    if cmd == "enumerate-mifs":
        _write_ascii(family_lines(args.k, sorted_mif_masks(args.k)))
        return EXIT_OK
    if cmd == "sigma-complete":
        res = sigma_complete(args.n, literature_table=args.literature_table)
        _write_line(str(res.value))
        return EXIT_OK
    if cmd == "sigma":
        g = _load_graph(args)
        res = sigma_of_graph(
            g,
            literature_table=args.literature_table,
            max_chi_vertices=args.max_chi_vertices,
        )
        _write_line(f"{res.value} {res.chi} {res.witness_k}")
        return EXIT_OK
    if cmd == "estimate":
        est = sigma_estimate(args.n)
        _write_line(f"{est.raw:.6f} {est.rounded}")
        return EXIT_OK
    if cmd == "construct-cover":
        g = _load_graph(args)
        cert = construct_cover(g, max_chi_vertices=args.max_chi_vertices)
        text = certificate_to_json(g, cert)
        if args.out:
            with open(args.out, "w", encoding="ascii") as f:
                f.write(text + "\n")
        if args.json:
            _write_line(text)
            return EXIT_OK
        return _print_verdict(g, cert.orientations, f"{cert.k} accept")
    if cmd == "verify-cover":
        g = _load_graph(args)
        cert = certificate_from_json(_read_source(args.certificate), g)
        return _print_verdict(g, cert.orientations, "accept")
    if cmd == "brute-sigma":
        g = _load_graph(args)
        budget = SearchBudget(
            max_edges=args.max_edges, max_k=args.max_k, timeout=args.timeout
        )
        result = brute_sigma(g, budget)
        _write_line(f"> {args.max_k}" if result is None else str(result))
        return EXIT_OK
    if cmd == "chromatic":
        g = _load_graph(args)
        _write_line(str(chromatic_number(g, max_vertices=args.max_chi_vertices)))
        return EXIT_OK
    raise AssertionError(f"unhandled command {cmd}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = _run_command(args)
        # a block-buffered stdout is written here, so that a closed one
        # is reported below instead of at shutdown
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader closed stdout: keep the flush at shutdown quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Process entry: one command, then exit.

    orcov's hot paths build no reference cycles, so the cyclic collector
    would only scan the certificate and graph objects; the process runs
    without it.  main() leaves the collector as it finds it, for callers
    in-process.
    """
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    run()
