"""Simple undirected graphs, parsers, and exact coloring.

Graphs are immutable: vertices are 0..n-1 and a graph is its tuple of
bitmask adjacency rows.  The edge list is derived from the rows when
asked for, in canonical order (lexicographically sorted pairs (u, v)
with u < v).  An orientation (orcov.cover) is an m-bit mask over that
canonical edge order, which makes certificates bit-exact and diffable.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
from collections.abc import Iterable, Sequence

from .errors import CapacityError, ParseError

DEFAULT_CHI_VERTEX_BOUND = 32


# '0'/'1' digits -> 0/1 byte values
_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_string(mask: int, width: int) -> str:
    """Bits 0..width-1 of mask as '0'/'1' characters, bit 0 first (mask < 2**width)."""
    return bin(mask | 1 << width)[:2:-1]


def _flags(mask: int, width: int) -> bytes:
    """Bits 0..width-1 of mask as 0/1 byte values, bit 0 first (mask < 2**width)."""
    return _bit_string(mask, width).encode("ascii").translate(_FLAG_BYTES)


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Bit matrix transpose: bit r of out[j] is bit j of rows[r] (rows < 2**width).

    Three shapes, one per caller that has it:
    - at most 8 rows (k orientations x m edges): each row spread to one
      byte per bit and added in shifted r places, so byte j of the sum
      is out[j];
    - at most 8 columns (m forward masks x k): the rows as bytes, last
      row first, and per column one translate to its '0'/'1' digits;
    - otherwise all rows as one base-2 string, last row first, so column
      j is every width-th digit from offset j and costs one slice.
    """
    if len(rows) <= 8:
        acc = 0
        for r, row in enumerate(rows):
            acc += int.from_bytes(_flags(row, width), "little") << r
        return list(acc.to_bytes(width, "little"))
    if width <= 8:
        data = bytes(reversed(rows))
        # byte b -> b"1" iff bit j of b is set: runs of 2**j digits
        return [int(data.translate((b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j)), 2)
                for j in range(width)]
    digits = "".join(_bit_string(r, width) for r in reversed(rows))
    return [int(digits[j::width] or "0", 2) for j in range(width)]


def _bits(mask: int) -> list[int]:
    """Set bit positions of a non-negative mask in ascending order.

    One pass over the base-2 digits from the lowest set bit up, so a
    dense row of n bits costs O(n) rather than a shift per set bit.
    """
    if not mask:
        return []
    low = (mask & -mask).bit_length() - 1
    top = mask.bit_length()
    return list(compress(range(low, top), _flags(mask >> low, top - low)))


_set = object.__setattr__


class _Value:
    """Base of the immutable records: value equality, hash and repr over the fields.

    A record lists its fields in __slots__ (at least two, in repr
    order) and sets each one in __init__ with _set.  Instances compare
    equal when they are of the same class with equal fields, hash their
    field tuple, and refuse assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle: a slotted class has no __dict__ to restore, and
    # the default restore would go through the refused __setattr__
    def __getstate__(self) -> tuple:
        return self._fields(self)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            _set(self, name, value)


def _upper_bits(row: int, u: int) -> list[int]:
    """The bits v > u of row u, ascending: the far ends of u's edges in canonical order."""
    return _bits(row >> (u + 1) << (u + 1))


class Graph(_Value):
    """Simple undirected graph with bitmask adjacency rows.

    Invariants (checked on construction): adjacency is symmetric and
    has no self-loops.  m is the number of edges, half the rows' bits;
    `edges` is built from the rows on each access: the sorted pairs
    (u, v) with u < v.
    """

    __slots__ = ("n", "adj", "m")
    n: int
    adj: tuple[int, ...]
    m: int

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
        for u, row in enumerate(adj):
            if row < 0 or row >> n:
                raise ValueError(f"adjacency row of vertex {u} addresses vertices >= n")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u, row in enumerate(adj):
            for v in _bits(row):
                if not (adj[v] >> u) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        _set(self, "n", n)
        _set(self, "adj", adj)
        _set(self, "m", sum(map(int.bit_count, adj)) >> 1)

    @classmethod
    def _of_rows(cls, n: int, adj: tuple[int, ...], m: int) -> "Graph":
        """The graph of n rows in range, symmetric and loop-free by construction, with m edges."""
        g = cls.__new__(cls)
        g.__setstate__((n, adj, m))
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical edge tuple, built from the rows on each access.

        (u, v) for every bit v > u of row u, empty rows skipped.
        """
        adj = self.adj
        return tuple((u, v) for u in compress(range(self.n), adj) for v in _upper_bits(adj[u], u))

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int) -> "Graph":
        """Build a graph on n vertices from (u, v) pairs; duplicates collapse.

        The endpoint scans come first, so the build meets only endpoints
        in 0..n-1; self-loops are left to the row checks of Graph.  Both
        rows of a pair are read before either shift, so a non-int endpoint
        fails as a row index wherever it sits in the pair.
        """
        pairs = list(edges)
        if min(map(min, pairs), default=0) < 0:
            u, v = next((u, v) for u, v in pairs if u < 0 or v < 0)
            raise ValueError(f"negative endpoint in edge ({u}, {v})")
        top = max(map(max, pairs), default=-1)
        if pairs and top >= n:
            raise ValueError(f"endpoint {top} out of range for n={n}")
        try:
            adj = [0] * n
            for u, v in pairs:
                row = adj[v]
                adj[u] |= 1 << v
                adj[v] = row | 1 << u
        except (MemoryError, OverflowError):
            raise CapacityError(f"cannot allocate adjacency rows for n={n} vertices") from None
        # both bits of every pair are set, so the rows need no mirror walk;
        # a self-loop, a bit on the diagonal, is the one fault they can hold
        if n < 1 or any(row >> u & 1 for u, row in enumerate(adj)):
            return cls(n, tuple(adj))  # names the fault
        return cls._of_rows(n, tuple(adj), sum(map(int.bit_count, adj)) >> 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()


class Coloring(_Value):
    """Proper vertex coloring using color indices 0..t-1, all occupied."""

    __slots__ = ("colors", "t")
    colors: tuple[int, ...]
    t: int

    def __init__(self, colors: tuple[int, ...], t: int) -> None:
        if t < 1:
            raise ValueError("coloring needs at least one color")
        used = set(colors)
        if used != set(range(t)):
            raise ValueError("color indices must occupy exactly 0..t-1")
        _set(self, "colors", colors)
        _set(self, "t", t)


def is_proper_coloring(g: Graph, colors: Sequence[int]) -> bool:
    """True iff colors has one entry per vertex of g and no edge joins two of one colour.

    One mask per colour class, then one AND per row: row u meets the
    class of u's own colour iff an edge of u stays inside that class.
    """
    if len(colors) != g.n:
        return False
    classes: dict[int, int] = {}
    for u, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << u
    return not any(row & classes[c] for row, c in zip(g.adj, colors))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _is_decimal(tok: str) -> bool:
    """tok (ASCII) is decimal digits with an optional leading '-'."""
    return tok.removeprefix("-").isdigit()


def _int_error(lineno: int, toks: list[str], what: str) -> ParseError:
    """The error for the first of toks that is not decimal or that int() refuses."""
    for tok in toks:
        # a token too long to echo in full is named by its head and its length
        head = tok[:8] + "..."
        if not _is_decimal(tok):
            shown = f"{head!r} ({len(tok)} characters)" if len(tok) > 20 else repr(tok)
            return ParseError(f"line {lineno}: non-integer {what} {shown}")
        try:
            int(tok)
        except ValueError:  # above int()'s digit limit
            digits = len(tok.removeprefix("-"))
            return ParseError(f"line {lineno}: {what} {head!r} is too long ({digits} digits)")
    raise AssertionError("int() read every token")


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" lines into a graph.

    An optional first line "n <count>" pins the vertex count (needed
    for trailing isolated vertices); otherwise n = 1 + max endpoint.
    Duplicate edges collapse; self-loops are rejected with their line
    number.  ASCII text only; integers are decimal digits with an optional '-'.
    """
    return _edge_list_graph(*_edge_list_rows(text))


def _edge_list_rows(text: str, bound: int | None = None) -> tuple[list[int] | None, int, int]:
    """The adjacency rows of an edge list's lines, its vertex count and its distinct pairs.

    The count is the header's, or 1 + the largest endpoint.  Each line
    read sets its two row bits, and the rows grow to 1 + the largest
    endpoint read so far, not to the header's count (_edge_list_graph
    pads them).  The rows are None where they stopped short: at an
    endpoint >= bound, if one is given, after which the pair count is
    partial, as the caller refuses the vertex count first; or where they
    could not be allocated, after which the pairs past them are counted
    apart.  Every error of parse_edge_list except the row allocation
    comes from here, so a caller can bound the vertex and pair counts
    before the rows are padded.
    """
    if not text.isascii():
        # str.split would take U+00A0 and the like for whitespace
        i = next(i for i, ch in enumerate(text) if not ch.isascii())
        lineno = len(text[: i + 1].splitlines())
        raise ParseError(f"line {lineno}: non-ASCII character {text[i]!a}")
    # int() also reads '+' and '_'; in a text without them, a token int()
    # accepts is already decimal, and the per-token check is skipped.  The
    # token memo below leaves an accepted list few tokens to check; the skip
    # pays on the lines past a vertex bound, whose tokens are never
    # memoised, and saves about a sixth of such a parse
    plain = "_" not in text and "+" not in text
    pinned: int | None = None
    adj: list[int] = []
    top = -1  # the largest endpoint read
    past: set[tuple[int, int]] = set()  # the pairs beyond rows that could not grow
    # every token of a line whose bits are set -> its endpoint: such a
    # token is decimal, non-negative and below the header count, which is
    # fixed once an edge is read, so a line of two known tokens with
    # different values needs no further check
    checked: dict[str, int] = {}
    known = checked.get
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split()
        if len(toks) == 2:
            u = known(toks[0])
            v = known(toks[1])
            if u != v and u is not None and v is not None:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                continue
        elif not toks:
            continue
        if toks[0] == "n" and pinned is None and top < 0:
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
        if u >= len(adj) or v >= len(adj):
            top = max(top, u, v)
            if bound is not None and top >= bound:  # the caller refuses n: the rows stop
                continue
            if not past:
                try:
                    adj += [0] * (top + 1 - len(adj))
                except (MemoryError, OverflowError):
                    pass
            if top >= len(adj):  # out of memory: the rows stop, and pairs past them count apart
                past.add((u, v) if u < v else (v, u))
                continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        checked[toks[0]] = u
        checked[toks[1]] = v
    if pinned is None and top < 0:
        raise ParseError("empty edge-list input")
    m = (sum(map(int.bit_count, adj)) >> 1) + len(past)
    return adj if len(adj) > top else None, top + 1 if pinned is None else pinned, m


def _edge_list_graph(adj: list[int] | None, n: int, m: int) -> Graph:
    """The graph of _edge_list_rows' rows, padded to n; CapacityError where they cannot be.

    The parser sets both bits of a pair and refuses a self-loop and an
    endpoint >= n, so the rows need no check.
    """
    if adj is not None:
        try:
            adj += [0] * (n - len(adj))
            return Graph._of_rows(n, tuple(adj), m)
        except (MemoryError, OverflowError):
            pass
    raise CapacityError(f"cannot allocate adjacency rows for n={n} vertices")


_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6-encoded graph (short form, n <= 62).

    The payload is one bit string, six bits per byte from the high bit
    down, that fills the upper triangle column by column: (0,1), (0,2),
    (1,2), (0,3), ...  Every byte must lie in 63..126; the padding bits
    of the last byte are ignored.
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise ParseError("empty graph6 input")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise ParseError("graph6 input is not ASCII") from None
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise ParseError(f"byte {b} at position {i} outside graph6 range 63..126")
    if data[0] == 126:
        raise ParseError("long-form graph6 (n >= 63) is not supported")
    n = data[0] - 63
    if n == 0:
        raise ParseError("graph6 encodes an empty vertex set")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    payload = data[1:]
    if len(payload) < nbytes:
        raise ParseError(f"truncated graph6 payload: need {nbytes} bytes, got {len(payload)}")
    if len(payload) > nbytes:
        raise ParseError("trailing data after graph6 payload")
    digits = "".join(format(b - 63, "06b") for b in payload)
    # column v is the digits of (0, v) .. (v-1, v), so low[v] holds the
    # neighbours u < v of v and its transpose those above
    low = [int(digits[v * (v - 1) // 2:v * (v + 1) // 2][::-1] or "0", 2) for v in range(n)]
    return Graph(n, tuple(lo | hi for lo, hi in zip(low, _transpose(low, n))))


def encode_graph6(g: Graph) -> str:
    """Encode a graph in graph6 short form (n <= 62)."""
    if g.n > 62:
        raise CapacityError("graph6 short form supports at most 62 vertices")
    digits = "".join(_bit_string(row & ((1 << v) - 1), v) for v, row in enumerate(g.adj))
    digits += "0" * (-len(digits) % 6)
    return chr(63 + g.n) + "".join(
        chr(63 + int(digits[i:i + 6], 2)) for i in range(0, len(digits), 6)
    )


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete_graph needs n >= 1")
    return Graph.from_edges(
        [(u, v) for u in range(n) for v in range(u + 1, n)], n=n
    )


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle_graph needs n >= 3")
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)], n=n)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path_graph needs n >= 1")
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)], n=n)


def wheel_graph(n: int) -> Graph:
    """Wheel on n vertices: hub 0 joined to the cycle 1..n-1."""
    if n < 4:
        raise ValueError("wheel_graph needs n >= 4")
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    spokes = [(0, i) for i in range(1, n)]
    return Graph.from_edges(rim + spokes, n=n)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(outer + inner + spokes, n=10)


# ---------------------------------------------------------------------------
# exact coloring
# ---------------------------------------------------------------------------

def _greedy_clique(g: Graph) -> list[int]:
    """Deterministic greedy clique; its size lower-bounds chi."""
    clique: list[int] = []
    cand = (1 << g.n) - 1
    while cand:
        best, best_score = -1, -1
        for v in _bits(cand):
            score = (g.adj[v] & cand).bit_count()
            if score > best_score:
                best, best_score = v, score
        clique.append(best)
        cand &= g.adj[best]
    return clique


def _dsatur(rows: list[int], t: int) -> list[int] | None:
    """Colors, by bit position, of the first proper coloring of rows with at most t colors, or None.

    Iterative DSATUR branch and bound on adjacency bitmasks whose bit
    positions are the vertex priorities (see _canonical_rows and
    _degree_rows).  The next vertex is the uncolored one with the
    most distinct neighbor colors, ties broken by the highest bit; its
    colors are tried in ascending order below min(t, max_used + 2), so
    a fresh color class is opened at most once per vertex.  The order
    decides which coloring is found first and how fast an infeasible t
    is refuted, never whether one exists.

    The state is a few masks: unc holds the uncolored vertices, forb[c]
    those of them next to color c, and level[j] those with exactly j
    neighbor colors, so the next vertex is the top bit of the highest
    non-empty level.  Coloring p with c gives the vertices
    nbrs = rows[p] & unc & ~forb[c] their first neighbor of color c and
    moves each of them up one level; the frame (p, c, max_used, nbrs, top)
    undoes exactly that, top being the level p was taken from.
    """
    n = len(rows)
    t = min(t, n)  # colors >= n are never reached: limit <= colored + 1
    colors = [0] * n
    unc = (1 << n) - 1
    forb = [0] * t
    level = [0] * (t + 2)  # a saturation is at most t
    level[0] = unc
    stack: list[tuple[int, int, int, int, int]] = []
    max_used = -1
    top = 0
    p, c = n - 1, 0
    while True:
        limit = min(t, max_used + 2)
        bit = 1 << p
        while c < limit and forb[c] & bit:
            c += 1
        if c < limit:
            colors[p] = c
            unc ^= bit
            if not unc:
                return colors
            nbrs = rows[p] & unc & ~forb[c]
            forb[c] |= nbrs
            level[top] ^= bit
            stack.append((p, c, max_used, nbrs, top))
            if c > max_used:
                max_used = c
            # each neighbor in nbrs moves up one level, taken from the top down
            j = top
            while nbrs:
                moved = level[j] & nbrs
                if moved:
                    level[j] ^= moved
                    level[j + 1] |= moved
                    nbrs ^= moved
                j -= 1
            if level[top + 1]:
                top += 1
            else:
                while not level[top]:
                    top -= 1
            p = level[top].bit_length() - 1
            c = 0
            continue
        if not stack:
            return None
        p, c, max_used, nbrs, top = stack.pop()
        forb[c] ^= nbrs
        j = top + 1
        while nbrs:
            moved = level[j] & nbrs
            if moved:
                level[j] ^= moved
                level[j - 1] |= moved
                nbrs ^= moved
            j -= 1
        bit = 1 << p
        unc |= bit
        level[top] |= bit
        c += 1


def _canonical_rows(g: Graph) -> list[int]:
    """g's rows for the certificate order: v at bit n - 1 - v, so the lowest index wins a tie."""
    n = g.n
    return [int(_bit_string(row, n), 2) if row else 0 for row in reversed(g.adj)]


def _degree_rows(g: Graph) -> list[int]:
    """g's rows for proofs: the vertex of rank r at bit r, ranked by (degree, -index).

    Brelaz's tie-break: the highest degree wins a tie, then the lowest
    index.  On G(n, 1/2) it refutes t < chi about four times faster than
    the canonical order; it finds other colorings, so it is used only
    where the answer is a number.
    """
    order = sorted(range(g.n), key=lambda v: (g.adj[v].bit_count(), -v))
    rank = sorted(range(g.n), key=order.__getitem__)  # the inverse of order
    rows = [0] * g.n
    for u, row in enumerate(g.adj):
        bit = 1 << rank[u]
        for v in _bits(row):
            rows[rank[v]] |= bit
    return rows


def proper_coloring(g: Graph, t: int) -> Coloring | None:
    """First proper coloring with at most t colors, or None.

    Branch and bound in saturation order, ties to the lowest index (see
    _dsatur): deterministic and symmetry-reduced, since color classes
    are introduced in order.
    """
    if t < 1:
        raise ValueError("t must be positive")
    colors = _dsatur(_canonical_rows(g), t)
    if colors is None:
        return None
    return Coloring(tuple(reversed(colors)), max(colors) + 1)


def _check_vertex_bound(n: int, max_vertices: int) -> None:
    if max_vertices < 1:
        raise ValueError("max_vertices must be positive")
    if n > max_vertices:
        raise CapacityError(f"exact chromatic number limited to {max_vertices} vertices "
                            f"(graph has {n}); raise max_vertices to override")


def _least_colorable(g: Graph, t: int) -> int:
    """The smallest t' >= t with a t'-coloring, for t <= chi(g): degree-order passes."""
    rows = _degree_rows(g)
    while _dsatur(rows, t) is None:
        t += 1
    return t


def exact_coloring(g: Graph, max_vertices: int = DEFAULT_CHI_VERTEX_BOUND) -> Coloring:
    """proper_coloring(g, chi(g)): the certificate coloring, with exactly chi colors.

    The greedy clique size q bounds chi from below, so a canonical pass
    at t = q that succeeds needs no proof; on K_n and complete
    multipartite graphs that one pass is all the work.  Otherwise chi
    is found as in chromatic_number, from q + 1 up in degree order, and
    one canonical pass at chi gives the coloring.  Refuses graphs above
    the vertex bound.
    """
    _check_vertex_bound(g.n, max_vertices)
    if g.m == 0:
        return Coloring((0,) * g.n, 1)
    q = len(_greedy_clique(g))
    return proper_coloring(g, q) or proper_coloring(g, _least_colorable(g, q + 1))


def chromatic_number(g: Graph, max_vertices: int = DEFAULT_CHI_VERTEX_BOUND) -> int:
    """Exact chromatic number (refuses graphs above the vertex bound).

    DSATUR passes in degree order at t = greedy clique size, t + 1, ...;
    the first t that colors is chi.  No coloring is kept, so the search
    never needs the canonical order.
    """
    _check_vertex_bound(g.n, max_vertices)
    if g.m == 0:
        return 1
    return _least_colorable(g, len(_greedy_clique(g)))
