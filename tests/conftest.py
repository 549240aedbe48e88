"""Shared helpers: small-graph generators, named test graphs and reference implementations."""

from __future__ import annotations

import argparse
import functools
import itertools
import random

from collections.abc import Iterator, Sequence

from orcov import Graph
from orcov.errors import ParseError
from orcov.families import _closure_tables, _upsets
from orcov.graphs import DEFAULT_CHI_VERTEX_BOUND, _int_error, _is_decimal


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = all_pairs(n)
    return Graph.from_edges(
        [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1], n=n
    )


def atlas_graphs(n: int) -> list[Graph]:
    """One graph per isomorphism class of n-vertex graphs, n <= 7, from networkx's atlas.

    The atlas lists every graph on at most 7 vertices, up to
    isomorphism, on the vertices 0..n-1.
    """
    import networkx as nx  # a test extra, loaded only where the atlas is read

    return [Graph.from_edges(list(a.edges), n=n)
            for a in nx.graph_atlas_g() if a.number_of_nodes() == n]


def all_labeled_graphs(n: int, nonempty: bool = False):
    """Every labeled graph on n vertices (optionally skipping the empty one)."""
    npairs = n * (n - 1) // 2
    start = 1 if nonempty else 0
    for mask in range(start, 1 << npairs):
        yield graph_from_mask(n, mask)


def iso_class_masks(n: int) -> list[int]:
    """One edge-mask per isomorphism class of n-vertex graphs."""
    pairs = all_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    perm_maps = []
    for perm in itertools.permutations(range(n)):
        perm_maps.append(
            [index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        )
    seen = bytearray(1 << len(pairs))
    reps = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        reps.append(mask)
        for pmap in perm_maps:
            image = 0
            rest = mask
            while rest:
                lsb = rest & -rest
                image |= 1 << pmap[lsb.bit_length() - 1]
                rest ^= lsb
            seen[image] = 1
    return reps


def k4_minus_edge() -> Graph:
    return Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], n=4)


def random_graph(rng: random.Random, n_max: int = 10) -> Graph:
    """Random non-empty graph on 2..n_max vertices."""
    while True:
        n = rng.randint(2, n_max)
        edges = [p for p in all_pairs(n) if rng.random() < 0.5]
        if edges:
            return Graph.from_edges(edges, n=n)


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed perm[v]."""
    return Graph.from_edges([(perm[u], perm[v]) for u, v in g.edges], n=g.n)


def assert_equal_graphs(a: Graph, b: Graph) -> None:
    assert a.n == b.n and a.edges == b.edges


def reference_counterexample(n: int, edges, rows):
    """Smallest bad triple (x, y, z), checked one triple at a time, or None.

    rows[i][e] is true when orientation i directs edges[e] = (u, v) as
    u -> v.  Written from the definition alone, so that it shares no
    code with verify_cover.
    """
    away = [set() for _ in rows]
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        nbrs[u].append(v)
        nbrs[v].append(u)
        for i, row in enumerate(rows):
            away[i].add((u, v) if row[e] else (v, u))
    for x in range(n):
        for y in sorted(nbrs[x]):
            for z in sorted(nbrs[x]):
                if not any((x, y) in a and (x, z) in a for a in away):
                    return (x, y, z)
    return None


def _add_graph_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", help="graph file (edge list or graph6), or - for stdin")
    sub.add_argument(
        "--format",
        choices=["auto", "graph6", "edgelist"],
        default="auto",
        help="input format (default: sniff)",
    )


def reference_parser() -> argparse.ArgumentParser:
    """orcov's command line in argparse: the reference that cli.Parser is tested against."""
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


def reference_commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The parser of each command in reference_parser(), by command name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def reference_dsatur(nbrs: list[list[int]], t: int, prio: Sequence[int]) -> list[int] | None:
    """Per-vertex colors of the first proper coloring with at most t colors, or None.

    The neighbour-list DSATUR that graphs._dsatur replaced, kept verbatim
    as its reference.  The next vertex is the uncolored one with the most
    distinct neighbor colors, ties broken by the highest prio (a
    permutation of 0..n-1, see reference_priorities); its colors are
    tried in ascending order below min(t, max_used + 2).

    Saturation is kept incrementally: count[w * t + c] is the number of
    colored neighbors of w with color c, sat[w] the mask of colors with
    a nonzero count and key[w] = popcount(sat[w]) * n + prio[w] (-1
    once w is colored), so the largest key picks the next vertex.  Only
    uncolored neighbors are updated; the stack unwinds in LIFO order,
    so a vertex's counts are current again by the time it is uncolored.
    """
    n = len(nbrs)
    t = min(t, n)  # colors >= n are never reached: limit <= colored + 1
    colors = [-1] * n
    key = list(prio)
    sat = [0] * n
    count = [0] * (n * t)
    stack: list[tuple[int, int, int]] = []  # (vertex, color, max_used before it)
    max_used = -1
    v, c = key.index(n - 1), 0
    while True:
        limit = min(t, max_used + 2)
        blocked = sat[v]
        while c < limit and (blocked >> c) & 1:
            c += 1
        if c < limit:
            colors[v] = c
            key[v] = -1
            stack.append((v, c, max_used))
            if c > max_used:
                max_used = c
            bit = 1 << c
            for w in nbrs[v]:
                if colors[w] < 0:
                    i = w * t + c
                    if not count[i]:
                        sat[w] |= bit
                        key[w] += n
                    count[i] += 1
            if len(stack) == n:
                return colors
            v = key.index(max(key))
            c = 0
            continue
        if not stack:
            return None
        v, c, max_used = stack.pop()
        bit = 1 << c
        for w in nbrs[v]:
            if colors[w] < 0:
                i = w * t + c
                count[i] -= 1
                if not count[i]:
                    sat[w] ^= bit
                    key[w] -= n
        colors[v] = -1
        key[v] = sat[v].bit_count() * n + prio[v]
        c += 1


def reference_priorities(g: Graph) -> dict[str, list[int]]:
    """reference_dsatur's priority vectors of g, by order name.

    canonical: the lowest index wins a tie; degree: the highest degree
    wins, then the lowest index.
    """
    degree = [0] * g.n
    for rank, v in enumerate(sorted(range(g.n), key=lambda v: (g.adj[v].bit_count(), -v))):
        degree[v] = rank
    return {"canonical": list(range(g.n - 1, -1, -1)), "degree": degree}


def reference_mif_terms(k: int) -> Iterator[int]:
    """The unweighted terms of lambda(k)'s up-set sum, one per up-set on [k-2].

    The loop that families._mif_terms ran before it took one up-set b
    per symmetry class, weighted by the size of the class, kept as its
    reference: for every pair a <= b of up-sets on [k-3], in _upsets
    order with b outermost, the antichain count of
    P(a, b) = (a & blocker(b)) | (b & blocker(a)) << 2^(k-3).
    """
    if k < 3:
        yield from [1] * k
        return
    sup = _closure_tables(k - 2)[0]

    @functools.cache
    def antichains(p: int) -> int:
        if not p:
            return 1
        x = (p & -p).bit_length() - 1
        return antichains(p ^ (1 << x)) + antichains(p & ~sup[x])

    level = _upsets(k - 3)
    half = 1 << (k - 3)
    for b, bb in level:
        for a, ba in level:
            if not a & ~b:
                yield antichains((a & bb) | (b & ba) << half)


def reference_neighbor_lists(g: Graph) -> list[list[int]]:
    return [[v for v in range(g.n) if row >> v & 1] for row in g.adj]


def reference_edge_list_pairs(text: str) -> tuple[list[tuple[int, int]], int]:
    """The pairs and vertex count of an edge list, every line checked in full.

    graphs._edge_list_rows gives the same errors from one pass that sets
    row bits and skips the checks of a line of known tokens.
    """
    if not text.isascii():
        # str.split would take U+00A0 and the like for whitespace
        i = next(i for i, ch in enumerate(text) if not ch.isascii())
        lineno = len(text[: i + 1].splitlines())
        raise ParseError(f"line {lineno}: non-ASCII character {text[i]!a}")
    plain = "_" not in text and "+" not in text
    pinned: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split()
        if not toks:
            continue
        if toks[0] == "n" and pinned is None and not edges:
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: header must be 'n <count>'")
            try:
                if not (plain or _is_decimal(toks[1])):
                    raise ValueError
                pinned = int(toks[1])
            except ValueError:
                raise _int_error(lineno, toks[1:], "vertex count") from None
            if pinned < 1:
                raise ParseError(f"line {lineno}: vertex count must be positive")
            continue
        if len(toks) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            if not (plain or _is_decimal(toks[0]) and _is_decimal(toks[1])):
                raise ValueError
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise _int_error(lineno, toks, "token") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative endpoint")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        if pinned is not None and (u >= pinned or v >= pinned):
            raise ParseError(f"line {lineno}: endpoint {max(u, v)} out of range for n={pinned}")
        edges.append((u, v))
    if pinned is not None:
        return edges, pinned
    if not edges:
        raise ParseError("empty edge-list input")
    return edges, 1 + max(map(max, edges))


def reference_edge_list_rows(text: str) -> tuple[list[int], int, int]:
    """graphs._edge_list_rows(text) without a vertex bound, from reference_edge_list_pairs.

    The rows of 1 + the largest endpoint (not padded to a header's n), the
    vertex count and the number of distinct pairs.
    """
    pairs, n = reference_edge_list_pairs(text)
    rows = [0] * (1 + max(map(max, pairs), default=-1))
    for u, v in pairs:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows, n, len({(min(u, v), max(u, v)) for u, v in pairs})
