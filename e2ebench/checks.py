"""Output checks written from the definitions, without importing orcov.

Each check returns None when a command's exit code and stdout are right
and a one-line reason otherwise.  Graphs are (n, edges) with edges the
sorted (u, v) pairs, u < v, that the workload generated.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

# lambda(k), the number of maximal intersecting families over [k], k = 1..7
# (Brouwer, Mills, Mills and Verbeek 2013, Table 1).
LAMBDA = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646, 7: 1422564}

# Above this vertex count chi is only bounded (clique <= chi <= greedy),
# not recomputed.
EXACT_CHI_MAX_N = 20


def sigma_for(chi: int) -> int:
    """min{k : lambda(k) >= chi}."""
    for k in sorted(LAMBDA):
        if LAMBDA[k] >= chi:
            return k
    raise ValueError(f"chi = {chi} exceeds lambda(7)")


def _adjacency(g: tuple) -> list[int]:
    n, edges = g
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def clique_number(g: tuple) -> int:
    """Largest clique, by Bron-Kerbosch with pivoting on bitmasks."""
    adj = _adjacency(g)
    best = 0

    def expand(size: int, cand: int, excl: int) -> None:
        nonlocal best
        if not cand and not excl:
            best = max(best, size)
            return
        if size + cand.bit_count() <= best:
            return
        pivot = max(_bits(cand | excl), key=lambda u: (adj[u] & cand).bit_count())
        for v in _bits(cand & ~adj[pivot]):
            expand(size + 1, cand & adj[v], excl & adj[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand(0, (1 << g[0]) - 1, 0)
    return best


def greedy_colors(g: tuple) -> int:
    """Colours used by largest-degree-first greedy colouring (>= chi)."""
    adj = _adjacency(g)
    colors: dict[int, int] = {}
    for v in sorted(range(g[0]), key=lambda v: (-adj[v].bit_count(), v)):
        taken = {colors[w] for w in _bits(adj[v]) if w in colors}
        colors[v] = next(c for c in range(g[0]) if c not in taken)
    return max(colors.values()) + 1


def exact_chi(g: tuple) -> int:
    """Chromatic number by plain backtracking over colour assignments."""
    n = g[0]
    adj = _adjacency(g)
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    colors = [-1] * n

    def place(i: int, used: int, t: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for c in range(min(t, used + 1)):
            if all(colors[w] != c for w in _bits(adj[v])):
                colors[v] = c
                if place(i + 1, max(used, c + 1), t):
                    return True
        colors[v] = -1
        return False

    t = max(1, clique_number(g))
    while not place(0, 0, t):
        t += 1
    return t


def _expect_exit(code: int, want: int) -> Optional[str]:
    return None if code == want else f"exit code {code}, expected {want}"


def check_lambda(code: int, out: bytes, k: int) -> Optional[str]:
    want = f"{LAMBDA[k]} computed\n".encode()
    return _expect_exit(code, 0) or (None if out == want else f"lambda {k} printed {out[:80]!r}")


def check_sigma_complete(code: int, out: bytes, n: int) -> Optional[str]:
    want = f"{sigma_for(n)}\n".encode()
    return _expect_exit(code, 0) or (
        None if out == want else f"sigma-complete {n} printed {out[:80]!r}"
    )


def _parse_family(line: str, k: int) -> list[int]:
    """Subset masks of one brace-list line; raises ValueError unless canonical."""
    if not (line.startswith("{") and line.endswith("}")):
        raise ValueError(f"not a brace list: {line[:60]!r}")
    masks = []
    for part in line[1:-1].split("}{"):
        elems = [int(x) for x in part.split(",")] if part else []
        if elems != sorted(set(elems)) or any(not 1 <= x <= k for x in elems):
            raise ValueError(f"subset {{{part}}} is not ascending within [1, {k}]")
        masks.append(sum(1 << (x - 1) for x in elems))
    if masks != sorted(set(masks)):
        raise ValueError("subsets are not in strictly ascending mask order")
    return masks


def enumeration_error(out: bytes, k: int) -> Optional[str]:
    """Every maximal intersecting family over [k] once, ascending by member vector."""
    text = out.decode("ascii", errors="replace")
    if not text.endswith("\n"):
        return "output does not end with a newline"
    lines = text[:-1].split("\n")
    if len(lines) != LAMBDA[k]:
        return f"{len(lines)} families, expected lambda({k}) = {LAMBDA[k]}"
    previous = -1
    for i, line in enumerate(lines, 1):
        try:
            masks = _parse_family(line, k)
        except ValueError as exc:
            return f"line {i}: {exc}"
        if len(masks) != 1 << (k - 1):
            return f"line {i}: {len(masks)} sets, a maximal family has {1 << (k - 1)}"
        for a in masks:
            if not all(a & b for b in masks):
                return f"line {i}: two members are disjoint"
        member = sum(1 << s for s in masks)
        if member <= previous:
            return f"line {i}: families not strictly ascending"
        previous = member
    return None


def check_enumeration(code: int, out: bytes, k: int) -> Optional[str]:
    return _expect_exit(code, 0) or enumeration_error(out, k)


def chi_error(g: tuple, chi: int) -> Optional[str]:
    """Exact chi for small graphs, clique and greedy bounds for large ones."""
    if g[0] <= EXACT_CHI_MAX_N:
        want = exact_chi(g)
        return None if chi == want else f"chi {chi}, expected {want}"
    lo, hi = clique_number(g), greedy_colors(g)
    return None if lo <= chi <= hi else f"chi {chi} outside clique/greedy bounds [{lo}, {hi}]"


def check_sigma(code: int, out: bytes, g: tuple) -> Optional[str]:
    err = _expect_exit(code, 0)
    if err:
        return err
    try:
        value, chi, witness = (int(x) for x in out.decode("ascii").split())
    except ValueError:
        return f"sigma printed {out[:80]!r}"
    if not out.endswith(b"\n") or out.count(b"\n") != 1:
        return "sigma output is not one line"
    if not value == witness == sigma_for(chi):
        return f"sigma line {value} {chi} {witness}: min{{k : lambda(k) >= {chi}}} is {sigma_for(chi)}"
    return chi_error(g, chi)


def cover_counterexample(g: tuple, orientations: list) -> Optional[tuple[int, int, int]]:
    """Lexicographically smallest uncovered triple (x, y, z), or None.

    Orientation rows are the certificate's boolean lists: True sends
    edge (u, v) from u to v.  For each x and neighbour y, the z covered
    together with y are the out-neighbours of x in every orientation
    that sends x to y; any other neighbour z is a bad triple.
    """
    n, edges = g
    adj = _adjacency(g)
    outs = []
    for row in orientations:
        out = [0] * n
        for (u, v), forward in zip(edges, row):
            if forward:
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
        outs.append(out)
    for x in range(n):
        for y in _bits(adj[x]):
            covered = 0
            for out in outs:
                if (out[x] >> y) & 1:
                    covered |= out[x]
            missing = adj[x] & ~covered
            if missing:
                return x, y, (missing & -missing).bit_length() - 1
    return None


def certificate_error(text: str, g: tuple, chi: Optional[int]) -> Optional[str]:
    """A construct-cover certificate: shape, k = sigma, proper colouring, covering."""
    n, edges = g
    try:
        doc = json.loads(text)
        shape = (doc["n"], doc["m"], [tuple(e) for e in doc["edges"]])
        rows, coloring = doc["orientations"], doc["meta"]["coloring"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"certificate unreadable: {exc}"
    if shape != (n, len(edges), edges):
        return "certificate n, m or edge list differs from the graph"
    if not (isinstance(rows, list) and all(
        isinstance(r, list) and len(r) == len(edges) and all(isinstance(b, bool) for b in r)
        for r in rows
    )):
        return "orientations are not k lists of m booleans"
    if not (isinstance(coloring, list) and len(coloring) == n):
        return "meta.coloring is not one colour per vertex"
    if any(coloring[u] == coloring[v] for u, v in edges):
        return "meta.coloring is not proper"
    used = len(set(coloring))
    if set(coloring) != set(range(used)):
        return "meta.coloring does not use colours 0..t-1"
    err = chi_error(g, used) if chi is None else (
        None if used == chi else f"colouring uses {used} colours, chi is {chi}"
    )
    if err:
        return err
    if doc["k"] != len(rows) or doc["k"] != sigma_for(used):
        return f"k = {doc['k']} with {len(rows)} orientations, sigma is {sigma_for(used)}"
    bad = cover_counterexample(g, rows)
    return None if bad is None else f"certificate misses triple {bad}"


def check_construct(
    code: int, out: bytes, cert: Path, g: tuple, chi: Optional[int]
) -> Optional[str]:
    err = _expect_exit(code, 0)
    if err:
        return err
    try:
        text = cert.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        return f"certificate unreadable: {exc}"
    err = certificate_error(text, g, chi)
    if err:
        return err
    k = json.loads(text)["k"]
    return None if out == f"{k} accept\n".encode() else f"construct-cover printed {out[:80]!r}"


def check_accept(code: int, out: bytes) -> Optional[str]:
    return _expect_exit(code, 0) or (None if out == b"accept\n" else f"verify printed {out[:80]!r}")


def tamper(text: str, g: tuple, edge: int, forward: bool) -> tuple[str, tuple[int, int, int]]:
    """Send edge `edge` the same way in every orientation of a certificate.

    Returns the tampered certificate and the counterexample it must
    produce.  A cover needs both directions of every edge (the y = z
    triples), so the tampered copy never covers.
    """
    doc = json.loads(text)
    for row in doc["orientations"]:
        row[edge] = forward
    witness = cover_counterexample(g, doc["orientations"])
    if witness is None:
        raise ValueError("tampered certificate still covers the graph")
    return json.dumps(doc), witness


def check_rejected(code: int, out: bytes, witness: tuple[int, int, int]) -> Optional[str]:
    want = "counterexample {} {} {}\n".format(*witness).encode()
    return _expect_exit(code, 1) or (
        None if out == want else f"tampered verify printed {out[:80]!r}, expected {want!r}"
    )
