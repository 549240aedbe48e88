"""Brute-force reference implementations for small instances.

These recompute the library's answers from the bare definitions:
maximality of a family means no intersecting proper superset (not the
size shortcut), covers are checked triple by triple with a verifier
written here rather than the one in the cover module, and the minimum
cover size is found by choosing direction sets edge by edge, with no
pruning beyond the definition and one permutation symmetry.  Slow on
purpose; shared code with the fast paths is what these exist to catch.
"""

from __future__ import annotations

import itertools
import time

from .errors import BudgetError, CapacityError
from .families import SetFamily
from .graphs import Graph, _Value, _set

_TIMEOUT_STRIDE = 0x3FFF


class SearchBudget(_Value):
    """Limits for the exhaustive cover search."""

    __slots__ = ("max_edges", "max_k", "timeout")
    max_edges: int
    max_k: int
    timeout: float

    def __init__(self, max_edges: int = 8, max_k: int = 3, timeout: float = 300.0) -> None:
        if max_edges < 1 or max_k < 1 or not timeout > 0:  # rejects nan
            raise ValueError("budget fields must be positive")
        _set(self, "max_edges", max_edges)
        _set(self, "max_k", max_k)
        _set(self, "timeout", timeout)


def _check_search_size(m: int, budget: SearchBudget) -> None:
    """The search's refusals of a graph with m edges: none, then more than the budget allows."""
    if m == 0:
        raise ValueError("sigma is defined only for non-empty graphs")
    if m > budget.max_edges:
        raise BudgetError(f"graph has {m} edges; the search budget allows {budget.max_edges}")


def brute_mifs(k: int) -> tuple[SetFamily, ...]:
    """All maximal intersecting families over [k] by exhaustive filter.

    Tries every one of the 2^(2^k) candidate families, keeping those
    that are intersecting and admit no intersecting proper superset.
    Returned in ascending member-vector order.
    """
    if not 1 <= k <= 4:
        raise CapacityError("the exhaustive family filter supports k <= 4")
    size = 1 << k
    found = []
    for fam in range(1 << size):
        members = [s for s in range(size) if (fam >> s) & 1]
        intersecting = True
        for a in members:
            for b in members:
                if a & b == 0:
                    intersecting = False
                    break
            if not intersecting:
                break
        if not intersecting:
            continue
        maximal = True
        for s in range(size):
            if (fam >> s) & 1:
                continue
            if s != 0 and all(s & m for m in members):
                maximal = False
                break
        if maximal:
            found.append(SetFamily(k, fam))
    return tuple(found)


def _neighbor_lists(g: Graph) -> list[list[int]]:
    return [[y for y in range(row.bit_length()) if row >> y & 1] for row in g.adj]


def _covers(nbrs: list[list[int]], n: int, rowset: list[list[int]]) -> bool:
    """Literal covering check: every (x, y, z) with y, z neighbors of x
    must have an orientation directing both edges away from x."""
    for x in range(n):
        for y in nbrs[x]:
            yb = 1 << y
            for z in nbrs[x]:
                zb = 1 << z
                for rows in rowset:
                    rx = rows[x]
                    if rx & yb and rx & zb:
                        break
                else:
                    return False
    return True


def brute_sigma(g: Graph, budget: SearchBudget | None = None) -> int | None:
    """Exact sigma(g) by exhaustive search, or None if above max_k.

    k orientations cover g iff at every vertex x the direction sets
    S_(x,y), the orientations sending x to y, meet pairwise (y = z
    included).  For k = 1, 2, ... each edge (u, v) in canonical order
    gets a set S_(u,v) other than {} and [k], S_(v,u) being the rest,
    that meets every set already chosen at u and whose rest meets every
    set chosen at v.  The first edge takes only {1..j}, as permuting [k]
    maps any set onto one of those.  A cover must pass the literal
    triple check.  None proves sigma(g) > max_k, not a budget failure.
    """
    if budget is None:
        budget = SearchBudget()
    _check_search_size(g.m, budget)
    deadline = time.monotonic() + budget.timeout
    n, m, edges = g.n, g.m, g.edges
    nodes = 0
    for k in range(1, budget.max_k + 1):
        full = (1 << k) - 1
        chosen = [0] * m  # S_(u,v) of each edge (u, v), 0 while undecided
        out: list[list[int]] = [[] for _ in range(n)]  # S_(x,y) chosen so far at x
        e = 0
        while 0 <= e < m:
            if nodes & _TIMEOUT_STRIDE == 0 and time.monotonic() > deadline:
                raise BudgetError(f"search budget of {budget.timeout}s exhausted at k={k}")
            nodes += 1
            u, v = edges[e]
            if chosen[e]:
                out[u].pop()
                out[v].pop()
            s = chosen[e] * 2 + 1 if e == 0 else chosen[e] + 1
            while s < full and not (all(s & a for a in out[u]) and all(b & ~s for b in out[v])):
                s += 1
            chosen[e] = s if s < full else 0
            if chosen[e]:
                out[u].append(s)
                out[v].append(full ^ s)
            e += 1 if chosen[e] else -1
        if e == m:
            rowset = [[0] * n for _ in range(k)]
            for (u, v), s in zip(edges, chosen):
                for i, rows in enumerate(rowset):
                    x, y = (u, v) if s >> i & 1 else (v, u)
                    rows[x] |= 1 << y
            if not _covers(_neighbor_lists(g), n, rowset):
                raise AssertionError(f"the edge search accepted a non-cover at k={k}")
            return k
    return None


def brute_chromatic(g: Graph) -> int:
    """Exact chromatic number by enumerating all color assignments."""
    if g.n > 8:
        raise CapacityError("the exhaustive coloring filter supports n <= 8")
    edges = g.edges
    for t in range(1, g.n + 1):
        for assignment in itertools.product(range(t), repeat=g.n):
            for u, v in edges:
                if assignment[u] == assignment[v]:
                    break
            else:
                return t
    raise AssertionError("n colors always suffice")
