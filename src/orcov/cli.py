"""Command-line frontend.

Machine-readable results go to stdout, diagnostics to stderr.  Exit
codes: 0 success or accept, 1 cover verification rejected, 2 usage,
input or output error (a reader that closed stdout, and a stdin or
stdout closed at start, included), 3 capacity or budget error.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Iterable, Sequence
from types import SimpleNamespace

from .cover import (
    _meta_fault,
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
    _check_vertex_bound,
    _edge_list_graph,
    _edge_list_rows,
    chromatic_number,
    parse_graph6,
)
from .oracle import SearchBudget, _check_search_size, brute_sigma
from .sigma import sigma_complete, sigma_estimate, sigma_of_graph

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _read_source(path: str) -> str:
    """The text of a file, or of stdin for "-": both read as bytes and decoded as ASCII.

    A non-ASCII byte is a ParseError naming its line, on either path.
    A text stream put in place of stdin in-process has no bytes to
    decode, so its text is taken as it is.  Where stdin was closed at
    start (sys.stdin is None) the read is an OSError, as _write_ascii's
    write is for stdout.
    """
    if path == "-":
        if sys.stdin is None:
            raise OSError("stdin is closed")
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
    _read_source does for stdin.  Where stdout was closed at start
    (sys.stdout is None) the write is an OSError, as into a closed pipe.
    """
    out = sys.stdout
    if out is None:
        raise OSError("stdout is closed")
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        for chunk in chunks:
            out.write(chunk.decode("ascii"))
        return
    out.flush()  # text already written goes first
    # Into a full non-blocking pipe a buffered writer raises after keeping
    # part of a write in its buffer; the raw file below it takes part of
    # the bytes, or none of them (None), and says so.  After None, wait
    # until the pipe has room.  An unbuffered stdout is raw already.
    raw = getattr(buffer, "raw", buffer)
    for chunk in chunks:
        view = memoryview(chunk)
        while view:
            if (written := raw.write(view)) is None:
                import select
                select.select((), (raw,), ())
            view = view[written:]


def _write_line(line: str) -> None:
    """One line of ASCII text to stdout."""
    _write_ascii([line.encode("ascii"), b"\n"])


def sniff_format(text: str) -> str:
    """Graph6 iff the first line has no whitespace and starts >= byte 63."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty graph input")
    # the first line of a prefix that holds a line break, or of the whole text
    end = 64
    while len(lines := stripped[:end].splitlines()) == 1 and end < len(stripped):
        end *= 2
    first = lines[0].rstrip()
    if first.startswith(">>graph6<<") or ord(first[0]) >= 63 and not any(map(str.isspace, first)):
        return "graph6"
    return "edgelist"


def _load_graph(args: SimpleNamespace) -> Graph:
    """The graph of args.graph in args.format (sniffed for "auto"), for every graph command.

    A command with --max-chi-vertices holds an edge list to that bound
    after the parse, whose rows stop growing past it, and before the
    rows are padded to n; graph6 (n <= 62) is built first and meets the
    bound in the library, before any other refusal.  brute-sigma refuses
    an edge list there too, in the search's order: its budget fields,
    then no edges, then more distinct pairs than --max-edges ("0 1" and
    "1 0" are one edge).
    """
    text = _read_source(args.graph)
    fmt = sniff_format(text) if args.format == "auto" else args.format
    if fmt == "graph6":
        return parse_graph6(text)
    bound = getattr(args, "max_chi_vertices", None)
    adj, n, m = _edge_list_rows(text, bound)
    if bound is not None:
        _check_vertex_bound(n, bound)
    if hasattr(args, "max_edges"):
        _check_search_size(m, _search_budget(args))
    return _edge_list_graph(adj, n, m)


def _search_budget(args: SimpleNamespace) -> SearchBudget:
    return SearchBudget(max_edges=args.max_edges, max_k=args.max_k, timeout=args.timeout)


def _print_verdict(g: Graph, orientations: Sequence[int], accept: str) -> int:
    """Print the accept line or the counterexample verify_cover finds; return the exit code."""
    verdict = verify_cover(g, orientations)
    if verdict is None:
        _write_line(accept)
        return EXIT_OK
    _write_line(f"counterexample {verdict[0]} {verdict[1]} {verdict[2]}")
    return EXIT_REJECTED


# command: (description, positionals, options).  A positional is
# (name, convert); an option maps its name to (convert, default), where
# convert None marks a flag (default False) and a tuple lists the values
# the option takes.  An argument is stored under its name with - as _.
_FORMAT = {"--format": (("auto", "graph6", "edgelist"), "auto")}
_LITERATURE = {"--literature-table": (None, False)}
_BOUND = {"--max-chi-vertices": (int, DEFAULT_CHI_VERTEX_BOUND)}
_BUDGET = SearchBudget()
COMMANDS = {
    "lambda": ("count maximal intersecting families over [k]", (("k", int),), _LITERATURE),
    "enumerate-mifs": (
        "list all maximal intersecting families (always streamed: --stream changes nothing)",
        (("k", int),),
        {"--stream": (None, False)},
    ),
    "sigma-complete": ("covering number of the complete graph K_n", (("n", int),), _LITERATURE),
    "sigma": (
        "covering number of a graph: prints sigma chi witness_k",
        (("graph", str),),
        {**_FORMAT, **_LITERATURE, **_BOUND},
    ),
    "estimate": ("closed-form estimate of sigma(K_n): prints raw rounded", (("n", int),), {}),
    "construct-cover": (
        "build a verified minimum cover: prints k accept, --json the certificate;"
        " --out writes it",
        (("graph", str),),
        {**_FORMAT, "--out": (str, None), "--json": (None, False), **_BOUND},
    ),
    "verify-cover": (
        "check a certificate against a graph: prints accept or counterexample x y z",
        (("graph", str), ("certificate", str)),
        _FORMAT,
    ),
    "brute-sigma": (
        "exhaustive-search covering number (oracle)",
        (("graph", str),),
        {
            **_FORMAT,
            "--max-k": (int, _BUDGET.max_k),
            "--max-edges": (int, _BUDGET.max_edges),
            "--timeout": (float, _BUDGET.timeout),
        },
    ),
    "chromatic": ("exact chromatic number", (("graph", str),), {**_FORMAT, **_BOUND}),
}


def _is_option(arg: str) -> bool:
    """Whether a word names an option: it starts with - and is neither - nor a negative number.

    Negative numbers are argparse's: -N and -N.N or -.N, in decimal digits.
    """
    if arg[:1] != "-" or arg == "-":
        return False
    whole, dot, fraction = arg[1:].partition(".")
    return not ((whole + fraction).isdecimal() and (fraction or not dot))


def _convert(command: str, name: str, convert, text: str):
    if isinstance(convert, tuple):
        if text in convert:
            return text
        raise ValueError(f"{command}: {name} must be one of {', '.join(convert)}, not {text!r}")
    try:
        return convert(text)
    except ValueError:
        message = f"{command}: {name} takes {convert.__name__} values, not {text!r}"
        raise ValueError(message) from None


_METAVARS = {int: "N", float: "SECONDS", str: "FILE"}


def _synopsis(command: str) -> str:
    _, positionals, options = COMMANDS[command]
    words = [command, *(name for name, _ in positionals)]
    for option, (convert, _) in options.items():
        if convert is None:
            words.append(f"[{option}]")
        elif isinstance(convert, tuple):
            words.append(f"[{option} {'|'.join(convert)}]")
        else:
            words.append(f"[{option} {_METAVARS[convert]}]")
    return " ".join(words)


class Parser:
    """The argv parser of COMMANDS: every usage fault is a one-line ValueError.

    After the command, options and positionals come in any order, an
    option's value follows it or an = sign, and -- ends the options.
    Option names must be given whole.
    """

    def usage(self, command: str | None = None) -> str:
        """The -h text: every command, or one."""
        if command is not None:
            return f"usage: orcov {_synopsis(command)}\n\n{COMMANDS[command][0]}\n"
        lines = [
            "usage: orcov <command> [arguments]",
            "",
            "Orientation covering numbers, maximal intersecting families, "
            "and verified minimum covers.",
            "",
            "commands:",
        ]
        for command, (text, _, _) in COMMANDS.items():
            lines += [f"  orcov {_synopsis(command)}", f"      {text}"]
        lines += [
            "",
            "A graph or certificate is a file path, or - for stdin; --format auto sniffs",
            "the graph's format.  orcov <command> -h shows one command.",
        ]
        return "\n".join(lines) + "\n"

    def parse_args(self, argv: Sequence[str]) -> SimpleNamespace:
        """The command and its arguments by name; command None and the text under usage for -h."""
        choose = f"choose from {', '.join(COMMANDS)}"
        if not argv:
            raise ValueError(f"missing command; {choose}")
        command = argv[0]
        if command in ("-h", "--help"):
            return SimpleNamespace(command=None, usage=self.usage())
        if command not in COMMANDS:
            raise ValueError(f"unknown command {command!r}; {choose}")
        _, positionals, options = COMMANDS[command]
        values = {"command": command}
        for option, (_, default) in options.items():
            values[option[2:].replace("-", "_")] = default
        words = []
        rest = iter(argv[1:])
        for arg in rest:
            if arg == "--":
                words += rest
            elif not _is_option(arg):
                words.append(arg)
            elif arg in ("-h", "--help"):
                return SimpleNamespace(command=None, usage=self.usage(command))
            else:
                option, eq, value = arg.partition("=")
                if option not in options:
                    raise ValueError(f"{command}: unknown option {option!r}")
                convert = options[option][0]
                if convert is None:
                    if eq:
                        raise ValueError(f"{command}: {option} takes no value")
                    value = True
                else:
                    if not eq:
                        value = next(rest, "--")  # reads as a missing value
                        if _is_option(value):
                            raise ValueError(f"{command}: {option} needs a value")
                    value = _convert(command, option, convert, value)
                values[option[2:].replace("-", "_")] = value
        if len(words) > len(positionals):
            raise ValueError(f"{command}: unexpected argument {words[len(positionals)]!r}")
        if len(words) < len(positionals):
            raise ValueError(f"{command}: missing argument {positionals[len(words)][0]}")
        for (name, convert), word in zip(positionals, words):
            values[name] = _convert(command, name, convert, word)
        return SimpleNamespace(**values)


def build_parser() -> Parser:
    return Parser()


def _run_command(args: SimpleNamespace) -> int:
    cmd = args.command
    if cmd is None:
        _write_ascii([args.usage.encode("ascii")])
        return EXIT_OK
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
                f.write(text)
                f.write("\n")
        if args.json:
            _write_line(text)
            return EXIT_OK
        return _print_verdict(g, cert.orientations, f"{cert.k} accept")
    if cmd == "verify-cover":
        g = _load_graph(args)
        cert = certificate_from_json(_read_source(args.certificate), g)
        fault = _meta_fault(g, cert)
        if fault is not None:
            raise ParseError(fault)
        return _print_verdict(g, cert.orientations, "accept")
    if cmd == "brute-sigma":
        g = _load_graph(args)
        result = brute_sigma(g, _search_budget(args))
        _write_line(f"> {args.max_k}" if result is None else str(result))
        return EXIT_OK
    if cmd == "chromatic":
        g = _load_graph(args)
        _write_line(str(chromatic_number(g, max_vertices=args.max_chi_vertices)))
        return EXIT_OK
    raise AssertionError(f"unhandled command {cmd}")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run_command(build_parser().parse_args(sys.argv[1:] if argv is None else argv))
        # a block-buffered stdout is written here, so that a closed one
        # is reported below instead of at shutdown
        sys.stdout.flush()
        return code
    except ValueError as exc:
        code, error = EXIT_USAGE, exc
    except (CapacityError, BudgetError) as exc:
        code, error = EXIT_CAPACITY, exc
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader closed stdout: keep the last flush quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        code, error = EXIT_USAGE, exc
    try:
        sys.stderr.write(f"error: {error}\n")
    except (AttributeError, OSError):
        pass  # stderr is closed (None if it was at start): the line is lost, not the code
    return code


def run() -> None:
    """Process entry: one command, then exit without interpreter teardown.

    orcov's hot paths build no reference cycles, so the cyclic collector
    would only scan the certificate and graph objects; the process runs
    without it.  Freeing the interpreter's modules and objects at exit
    would change no output, so the process flushes stdout and stderr
    (files it wrote are closed already) and ends at once.  main() leaves
    the collector as it finds it and does not exit, for callers
    in-process.
    """
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None where the file was closed at start
            stream.flush()
    os._exit(code)
