"""Shared helpers: small-graph generators and named test graphs."""

from __future__ import annotations

import itertools
import random

from orcov import Graph


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = all_pairs(n)
    return Graph.from_edges(
        [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1], n=n
    )


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
