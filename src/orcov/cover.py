"""Orientation coverings: verification, construction, and certificates.

A list of orientations covers a graph when, for every vertex x and
every ordered pair of its neighbors y, z (y = z included), some
orientation directs both xy and xz away from x.  Covers translate to
per-vertex set families and back: the direction set of a directed
edge (x, y) collects the orientation indices sending x to y, and a
valid cover makes every vertex's collection of direction sets an
intersecting family.  Minimum covers are built by coloring the graph
and handing each color class its own maximal intersecting family.

An orientation is an m-bit int over the graph's canonical edge order
(CoverCertificate).  The three entry points that take orientations
from a caller, verify_cover, families_from_cover and
certificate_to_json, each check them once (_check_shapes).
"""

from __future__ import annotations

from itertools import chain, compress, islice
from operator import add
from collections.abc import Sequence

from .errors import ParseError
from .families import SetFamily, _avoiders, _disjoint_pair, format_subset, sorted_mif_masks
from .graphs import (
    DEFAULT_CHI_VERTEX_BOUND,
    Graph,
    _Value,
    _bit_string,
    _bits,
    _set,
    _transpose,
    _upper_bits,
    exact_coloring,
    is_proper_coloring,
)
from .sigma import sigma_complete


class FamilyAssignment(_Value):
    """One set family over [k] per vertex."""

    __slots__ = ("k", "per_vertex")
    k: int
    per_vertex: tuple[SetFamily, ...]

    def __init__(self, k: int, per_vertex: tuple[SetFamily, ...]) -> None:
        for f in per_vertex:
            if f.k != k:
                raise ValueError("family ground set does not match assignment k")
        _set(self, "k", k)
        _set(self, "per_vertex", per_vertex)


class CertificateMeta(_Value):
    """Construction provenance: coloring, catalog indices, direction sets.

    Row x of direction_sets holds S_(x,y) for every neighbour y of x, in
    ascending order of y.
    """

    __slots__ = ("coloring", "family_indices", "direction_sets")
    coloring: tuple[int, ...] | None
    family_indices: tuple[int, ...] | None
    direction_sets: tuple[tuple[int, ...], ...] | None

    def __init__(
        self,
        coloring: tuple[int, ...] | None = None,
        family_indices: tuple[int, ...] | None = None,
        direction_sets: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        _set(self, "coloring", coloring)
        _set(self, "family_indices", family_indices)
        _set(self, "direction_sets", direction_sets)


class CoverCertificate(_Value):
    """k orientations plus optional construction metadata.

    An orientation of g is an m-bit int: bit e is set iff canonical edge
    e = (u, v) of g (u < v, the order of g.edges) is directed u -> v.
    """

    __slots__ = ("k", "orientations", "meta")
    k: int
    orientations: tuple[int, ...]
    meta: CertificateMeta | None

    def __init__(
        self,
        k: int,
        orientations: tuple[int, ...],
        meta: CertificateMeta | None = None,
    ) -> None:
        if k != len(orientations):
            raise ValueError("k does not match the number of orientations")
        _set(self, "k", k)
        _set(self, "orientations", orientations)
        _set(self, "meta", meta)


def _check_shapes(g: Graph, orientations: Sequence[int]) -> None:
    """Raise ValueError unless every orientation is an int (bool excluded) in [0, 2^m)."""
    bound = 1 << g.m
    for i, o in enumerate(orientations):
        if not (_is_int(o) and 0 <= o < bound):
            raise ValueError(f"orientation {i} is not an int in [0, 2^m) for m = {g.m}")


def _edge_masks(m: int, orientations: Sequence[int]) -> list[int]:
    """Per canonical edge e = (u, v), the set of orientations directing it u -> v.

    Bit i of mask[e] is bit e of orientations[i], so mask[e] is the
    direction set S_(u,v) and its complement in [k] is S_(v,u).
    """
    return _transpose(list(orientations), m)


def _direction_sets_by_vertex(
    g: Graph, orientations: Sequence[int]
) -> list[dict[int, int]]:
    """Per vertex x, each distinct direction set S_(x,y) -> its smallest y.

    Canonical edge order visits every vertex's neighbours in ascending
    order (all (u, x) with u < x come before all (x, v)), so the first
    neighbour stored for a set is its smallest, and each dict lists its
    sets in ascending order of that neighbour.  The edges are walked row
    by row, in that order.
    """
    full = (1 << len(orientations)) - 1
    masks = iter(_edge_masks(g.m, orientations))
    first: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, row in enumerate(g.adj):
        at_u = first[u].setdefault
        # zip reads its arguments left to right, so it takes one mask per
        # upper neighbour of u and leaves the rest for the next row
        for v, s in zip(_upper_bits(row, u), masks):
            at_u(s, v)
            first[v].setdefault(full ^ s, u)
    return first


def verify_cover(
    g: Graph, orientations: Sequence[int]
) -> tuple[int, int, int] | None:
    """None iff the orientations cover g; else the smallest bad triple.

    A triple (x, y, z) with xy, xz edges is bad when no orientation
    directs both away from x; y = z counts, so every directed edge
    must appear somewhere.  The returned counterexample is the
    lexicographically smallest one.

    The triple is bad iff the direction sets S_(x,y) and S_(x,z) are
    disjoint, so only the distinct sets at each vertex are compared:
    O(k * m + sum over x of D_x^2), D_x <= min(deg x, 2^k) the number
    of distinct sets at x.  The sets come in ascending order of their
    smallest neighbour, so the first disjoint pair met is the smallest
    triple.
    """
    _check_shapes(g, orientations)
    for x, first in enumerate(_direction_sets_by_vertex(g, orientations)):
        for s, y in first.items():
            for t, z in first.items():
                if not s & t:
                    return (x, y, z)
    return None


def families_from_cover(
    g: Graph, orientations: Sequence[int]
) -> FamilyAssignment:
    """Direction-set families of a cover: A_v = {S_(v,w) : vw an edge}.

    S_(v,w) is the set of orientation indices (1-based elements of
    [k]) directing v to w.  For a valid cover every A_v comes out
    intersecting; an invalid cover shows up as a failed condition in
    cover_from_families, not as an error here.
    """
    _check_shapes(g, orientations)
    k = len(orientations)  # SetFamily refuses k < 1 and k > KMAX_HARD
    return FamilyAssignment(k, tuple(
        SetFamily.from_masks(k, first) for first in _direction_sets_by_vertex(g, orientations)
    ))


def _orient(
    g: Graph, k: int, colors: Sequence[int], families: Sequence[SetFamily]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """cover_from_families' orientations and direction-set rows, x holding families[colors[x]]."""
    count = len(families)
    avoid = list(map(_avoiders, families))
    rows: list[list[int]] = [[] for _ in range(g.n)]  # canonical edge order fills them sorted
    chosen: dict[int, tuple[int, int]] = {}  # the pair of colours cu, cv at cu * count + cv
    # Orientation i directs uv as u -> v unless i is in T = S_(v,u)
    # (S and T are disjoint); forward[e] is that mask of [k] for edge e.
    forward: list[int] = []
    full = (1 << k) - 1
    for u, row in enumerate(g.adj):
        cu = colors[u]
        for v in _upper_bits(row, u):
            cv = colors[v]
            pair = chosen.get(key := cu * count + cv)
            if pair is None:
                pair = chosen[key] = _disjoint_pair(
                    k, families[cu].member, families[cv].member, avoid[cv])
                if pair is None:
                    raise ValueError(
                        f"condition 1 violated at edge ({u}, {v}): no disjoint direction sets"
                    )
            s, t = pair
            rows[u].append(s)
            rows[v].append(t)
            forward.append(full & ~t)
    # condition 2 once per family, named at the first vertex of its colour
    for c, f in enumerate(families):
        pair = _disjoint_pair(k, f.member, f.member, avoid[c])
        if pair is not None:
            s, t = map(format_subset, pair)
            raise ValueError(
                f"condition 2 violated at vertex {colors.index(c)}: "
                f"members {s} and {t} are disjoint"
            )
    # bit e of orientation i is bit i of forward[e]
    return tuple(_transpose(forward, k)), tuple(map(tuple, rows))


def cover_from_families(g: Graph, fa: FamilyAssignment) -> CoverCertificate:
    """Build a k-orientation cover from a family assignment, or raise ValueError.

    The families-to-cover direction of the lemma: the orientations
    cover g when every edge uv admits disjoint S in A_u, T in A_v
    (condition 1) and every A_v is intersecting (condition 2).  All
    edges are checked first, then all vertices, and the first failure
    raises with its witness.  Each edge uv gets deterministic disjoint
    direction sets (_disjoint_pair's smallest-mask choices, memoised
    per colour pair, each family's avoiders computed once); orientation
    i then directs uv by membership of i, and slots claimed by neither
    set default to low -> high.  The distinct families, numbered in
    first-vertex order, are _orient's colours.
    """
    if len(fa.per_vertex) != g.n:
        raise ValueError("assignment size does not match vertex count")
    number = {f: c for c, f in enumerate(dict.fromkeys(fa.per_vertex))}
    orientations, rows = _orient(g, fa.k, [number[f] for f in fa.per_vertex], list(number))
    return CoverCertificate(fa.k, orientations, CertificateMeta(direction_sets=rows))


def construct_cover(
    g: Graph, max_chi_vertices: int = DEFAULT_CHI_VERTEX_BOUND
) -> CoverCertificate:
    """Minimum orientation covering of g, with provenance metadata.

    Colors g once with chi colors (exact_coloring) and builds the cover
    by colour classes (_orient): class c holds the c-th maximal
    intersecting family over [sigma(K_chi)] in canonical order.  The
    certificate has exactly sigma(g) orientations and passes
    verify_cover.  The vertex bound comes before the edgeless refusal.
    """
    coloring = exact_coloring(g, max_vertices=max_chi_vertices)
    if g.m == 0:
        raise ValueError("cover construction requires a non-empty graph")
    k = sigma_complete(coloring.t).value
    families = [SetFamily(k, member) for member in sorted_mif_masks(k)[: coloring.t]]
    orientations, direction_sets = _orient(g, k, coloring.colors, families)
    meta = CertificateMeta(coloring.colors, tuple(range(coloring.t)), direction_sets)
    return CoverCertificate(k, orientations, meta)


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------

def _edges_json(g: Graph, names: list[str]) -> str:
    """json.dumps(g.edges), written row by row: row u is "[u, v]" for each upper neighbour v."""
    rows = []
    for u, row in enumerate(g.adj):
        vs = _upper_bits(row, u)
        if vs:
            head = f"[{names[u]}, "
            rows.append(head + f"], {head}".join(map(names.__getitem__, vs)) + "]")
    return "[" + ", ".join(rows) + "]"


def _ints_json(values: Sequence[int] | None) -> str:
    """json.dumps(values) for None or a sequence of ints, bools excluded, without the json module.

    An int subclass is written as its value, as json.dumps does; any
    other element raises ValueError, as both readers would refuse it.
    """
    if values is None:
        return "null"
    if not all(map(_is_int, values)):
        raise ValueError("certificate meta lists must hold integers and no bools")
    return "[" + ", ".join(map(int.__repr__, values)) + "]"


def _set_json(s: int) -> str:
    """The elements of the mask s as the writer lists them: ascending, 1-based."""
    return "[" + ", ".join([str(b + 1) for b in _bits(s)]) + "]"


def _direction_sets_json(
    g: Graph, direction_sets: tuple[tuple[int, ...], ...] | None, names: list[str]
) -> str:
    """The meta.direction_sets object, its "x->y" keys in ascending (x, y) order.

    Row x of direction_sets pairs with x's neighbours in ascending
    order, which is that key order, so nothing is sorted.  Rows that do
    not match g's neighbour counts, or that hold None, raise ValueError.
    """
    if direction_sets is None:
        return "null"
    if list(map(len, direction_sets)) != list(map(int.bit_count, g.adj)):
        raise ValueError("direction-set rows do not match the graph's neighbours")
    # each distinct set is formatted once, and each key's "y": part once
    distinct = set(chain.from_iterable(direction_sets))
    if None in distinct:
        raise ValueError("direction-set rows must hold a set for every neighbour")
    elements = {s: _set_json(s) for s in distinct}
    tails = [name + '": ' for name in names]
    rows = []
    for x, (row, sets) in enumerate(zip(g.adj, direction_sets)):
        if sets:
            entries = map(add, map(tails.__getitem__, _bits(row)), map(elements.__getitem__, sets))
            rows.append(f'"{names[x]}->' + f', "{names[x]}->'.join(entries))
    return "{" + ", ".join(rows) + "}"


# The text before the first key names a layout, the writer's or json.dumps': the separator
# after a head field; the orientation list's opening, row indent, joint and close; and the
# text after the meta value.  The writer renders from here; the text reader compares with it.
_WRITER = "{\n  "
_LAYOUTS = {
    _WRITER: (",\n  ", ": [\n", "    ", ",\n", "\n  ]", "\n}"),
    "{": (", ", ": [", "", ", ", "]", "}"),
}


def _orientation_json(bits: int, m: int, indent: str) -> str:
    # bit e of bits is the e-th flag; "1" is replaced first because
    # "true, " holds no "0"
    flags = _bit_string(bits, m).replace("1", "true, ").replace("0", "false, ")
    return f"{indent}[{flags[:-2]}]"


def _orientations_json(layout: tuple[str, ...], orientations: Sequence[int], m: int) -> str:
    """The text between the "orientations" and "meta" keys in a layout, a row per orientation."""
    comma, opening, indent, joint, close, _ = layout
    rows = joint.join([_orientation_json(o, m, indent) for o in orientations])
    return f"{opening}{rows}{close}{comma}"


def certificate_to_json(g: Graph, cert: CoverCertificate) -> str:
    """Serialize a certificate against its graph.

    Field order is fixed (n, m, k, edges, orientations, meta) and the
    output is byte-identical across runs; each orientation sits on its
    own line.  The text is what json.dumps gives for the same document,
    built directly without the json module in the _LAYOUTS entry of
    _WRITER: each orientation row in one string pass and each distinct
    direction set formatted once.
    """
    _check_shapes(g, cert.orientations)
    names = list(map(str, range(g.n)))
    meta = cert.meta
    if meta is None:
        meta_json = "null"
    else:
        meta_json = (
            f'{{"coloring": {_ints_json(meta.coloring)}, '
            f'"family_indices": {_ints_json(meta.family_indices)}, '
            f'"direction_sets": {_direction_sets_json(g, meta.direction_sets, names)}}}'
        )
    layout = _LAYOUTS[_WRITER]
    comma, end = layout[0], layout[-1]
    return (f'{_WRITER}"n": {g.n}{comma}"m": {g.m}{comma}"k": {cert.k}{comma}'
            f'"edges": {_edges_json(g, names)}{comma}'
            f'"orientations"{_orientations_json(layout, cert.orientations, g.m)}'
            f'"meta": {meta_json}{end}')


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_tuple(raw: dict, field: str) -> tuple[int, ...] | None:
    value = raw.get(field)
    if value is None:
        return None
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise ParseError(f"certificate meta.{field} must be a list of integers")
    return tuple(value)


def _edge_key_text(g: Graph) -> str:
    """The writer's direction-set keys joined by NUL: "x->y" in ascending (x, y) order.

    The keys hold no NUL, so the text holds exactly 2m - 1, all
    separators: a text of 2m keys joined by NUL that equals it is the
    writer's key list.
    """
    names = list(map(str, range(g.n)))
    adj = g.adj
    parts = []
    for x in compress(range(g.n), adj):
        head = names[x] + "->"
        parts.append(head + ("\0" + head).join(map(names.__getitem__, _bits(adj[x]))))
    return "\0".join(parts)


def _direction_set_rows(raw_ds: dict, k: int, g: Graph) -> tuple[tuple[int, ...], ...]:
    """The direction-set rows of a parsed block in any key order; a fault raises ParseError.

    One walk over the block in its own order raises at the first fault.
    Each key must be one of the writer's (_edge_key_text) and map to a
    list.  Every element must then be exactly an int (bool, float and
    None fail) before the element tuple is looked up, since (True,) ==
    (1,); each distinct tuple is range-checked in [1, k] and turned into
    a mask once.  A block with no fault that lacks a key names the first
    missing one in the writer's order.  The rows are the masks in the
    writer's key order, cut by the vertex degrees.
    """
    text = _edge_key_text(g)
    keys = text.split("\0") if text else []
    edge_keys = set(keys)
    only_ints = {int}.issuperset
    masks: dict[tuple[int, ...], int] = {}
    for key, elems in raw_ds.items():
        if key not in edge_keys or type(elems) is not list:
            # int() also reads non-ASCII digits and leading zeros, so
            # that two keys could name one edge
            x, arrow, y = key.partition("->")
            if not (arrow and key.isascii() and x.isdecimal() and y.isdecimal()
                    and (x[0] != "0" or x == "0") and (y[0] != "0" or y == "0")
                    and type(elems) is list):
                raise ParseError(f"certificate direction set {key!a} must map 'x->y' to a"
                                 " list (ASCII decimal, no leading zeros)")
            raise ParseError(f"certificate direction set {key!a} names no edge of the graph")
        if only_ints(map(type, elems)) and tuple(elems) in masks:
            continue
        for i in elems:
            if type(i) is not int or not 0 < i <= k:
                if type(i) is int and i > k:
                    reason = f"outside [1, {k}]"
                else:
                    reason = "not a positive integer"
                raise ParseError(f"certificate direction set {key!r} lists {i!r}, {reason}")
        masks[tuple(elems)] = sum(1 << (i - 1) for i in set(elems))
    if len(raw_ds) < len(keys):
        missing = next(key for key in keys if key not in raw_ds)
        raise ParseError(f"certificate is missing direction set {missing!r}")
    it = map(masks.__getitem__, map(tuple, map(raw_ds.__getitem__, keys)))
    return tuple(tuple(islice(it, row.bit_count())) for row in g.adj)


_FIELD_KEYS = "n\0m\0k\0edges\0orientations\0meta\0coloring\0family_indices\0direction_sets"
# "1" for each true and "0" for each false of the writer's orientation rows
_FLAG_BITS = str.maketrans("tf", "10", ":[], \nruelas")
# "1" for each True and "0" for each False of a parsed orientation row as bytes
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _certificate_from_text(text: str, g: Graph) -> CoverCertificate | None:
    """The record of a construct_cover certificate in a _LAYOUTS layout, read from the text.

    None for any other text and for one that fails a step; the caller
    then parses it whole.  The text before the first '"' picks the
    layout, and the text, JSON whitespace after it dropped, must end as
    the layout ends a direction-set block: a text in another indent
    mostly fails there, before it is split on '"'.  The 4m + 19 parts
    of the split must hold, in their odd places joined by NUL, the head
    and meta keys in writer order and then _edge_key_text(g)'s 2m keys.
    Each even part must be the layout's piece for the value read from
    it: n, m and the edges (_edges_json) are g's; the orientation list
    is one translate to bits, cut into rows of m, whose text
    (_orientations_json) it must be, with k their count; coloring and
    family_indices are _ints_json of the ints int() reads from them;
    each distinct block separator, the last read as if ", " followed it,
    is _set_json of the ints in [1, k] that int() reads from it, so it
    lists no other.  int() reads no null and no empty list, so a text
    with either is declined, and so is k = 0, whose sets are all empty.
    Why the record is the one json.loads(text) and the checks after it
    give: every odd part is an expected key, which holds no backslash,
    so every '"' opens or closes a string and the even parts are all
    the text outside strings.  Each is the layout's piece for the value
    read from it, so the text is that layout's text of one document, the
    record's.  Its keys are distinct, and every value has the type the
    checks ask for.
    """
    m = g.m
    layout = _LAYOUTS.get(text[:text.find('"')])
    if not m or layout is None:
        return None
    comma, end = layout[0], layout[-1]
    text = text.rstrip(" \t\n\r")
    if not text.endswith("}}" + end):
        return None
    parts = text.split('"')
    keys = _FIELD_KEYS + "\0" + _edge_key_text(g)
    if len(parts) != 4 * m + 19 or "\0".join(parts[1::2]) != keys:
        return None
    seps = parts[2::2]
    if not (seps[0] == f": {g.n}{comma}" and seps[1] == f": {m}{comma}"
            and seps[3] == f": {_edges_json(g, list(map(str, range(g.n))))}{comma}"):
        return None
    flags = seps[4].translate(_FLAG_BITS)
    try:  # int() refuses what is not a number, and a decimal past its digit limit
        orientations = tuple(int(flags[i:i + m][::-1], 2) for i in range(0, len(flags), m))
        lists = [tuple(map(int, sep[3:-3].split(", "))) for sep in seps[6:8]]
    except ValueError:
        return None
    k = len(orientations)
    if not (seps[2] == f": {k}{comma}" and seps[4] == _orientations_json(layout, orientations, m)
            and seps[5] == seps[8] == ": {"
            and seps[6:8] == [f": {_ints_json(ints)}, " for ints in lists]):
        return None
    block = seps[9:]
    block[-1] = block[-1][:-len(end) - 2] + ", "
    masks = {}
    for sep in set(block):
        try:
            ints = set(map(int, sep[3:-3].split(", ")))
        except ValueError:
            return None
        # an element outside [1, k] is left out, so the writer's text of the set differs
        masks[sep] = sum(1 << (i - 1) for i in ints if 0 < i <= k)
        if sep != f": {_set_json(masks[sep])}, ":
            return None
    it = map(masks.__getitem__, block)
    direction_sets = tuple(tuple(islice(it, row.bit_count())) for row in g.adj)
    return CoverCertificate(k, orientations, CertificateMeta(*lists, direction_sets))


def _meta_from_json(raw: object, k: int, g: Graph) -> CertificateMeta | None:
    """Type-checked meta block; a missing or null field stays None.

    The parsed direction-set block is read by _direction_set_rows: one
    walk in the block's key order, which raises at its first fault.
    """
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ParseError("certificate meta must be an object or null")
    raw_ds = raw.get("direction_sets")
    direction_sets = None
    if raw_ds is not None:
        if not isinstance(raw_ds, dict):
            raise ParseError("certificate meta.direction_sets must be an object")
        direction_sets = _direction_set_rows(raw_ds, k, g)
    coloring = _int_tuple(raw, "coloring")
    return CertificateMeta(coloring, _int_tuple(raw, "family_indices"), direction_sets)


def _meta_fault(g: Graph, cert: CoverCertificate) -> str | None:
    """The first false claim that cert's meta block makes about g, or None.

    The readers check only the block's form; this checks its claims, on
    the record either reader returns.  A coloring that is not null must
    give each of g's n vertices a colour, and no edge may join two
    vertices of one colour.
    """
    coloring = cert.meta.coloring if cert.meta is not None else None
    if coloring is None:
        return None
    if len(coloring) != g.n:
        return f"certificate meta.coloring has {len(coloring)} entries for {g.n} vertices"
    if not is_proper_coloring(g, coloring):
        return "certificate meta.coloring gives two adjacent vertices one colour"
    return None


def certificate_from_json(text: str, g: Graph) -> CoverCertificate:
    """Parse, type-check and shape-check a certificate against g.

    Every malformed field raises ParseError with a one-line reason.
    What construct_cover writes, a full meta block of non-empty decimal
    lists, in the layouts of _LAYOUTS, the writer's and json.dumps', is
    read from the text (_certificate_from_text).  Any other text (a null
    meta, coloring or direction-set block, an empty list, another
    layout), and one that fails a step there, is parsed whole and
    checked below, which gives the same record, or else the message.
    """
    cert = _certificate_from_text(text, g)
    if cert is not None:
        return cert
    import json  # only here: the writer's text and json.dumps' are read without it

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"certificate is not valid JSON: {exc}") from None
    except ValueError:  # int() refuses a JSON integer above its digit limit
        raise ParseError("certificate holds an integer too long to read") from None
    except RecursionError:
        raise ParseError("certificate nests arrays or objects too deeply to read") from None
    if not isinstance(doc, dict):
        raise ParseError("certificate must be a JSON object")
    for key in ("n", "m", "k", "edges", "orientations"):
        if key not in doc:
            raise ParseError(f"certificate is missing field {key!r}")
    if not (_is_int(doc["n"]) and _is_int(doc["m"])):
        raise ParseError("certificate n and m must be integers")
    if doc["n"] != g.n or doc["m"] != g.m:
        raise ParseError(
            f"certificate shape ({doc['n']}, {doc['m']}) does not match graph ({g.n}, {g.m})"
        )
    try:
        edges = list(map(tuple, doc["edges"]))
    except TypeError:
        raise ParseError("certificate edges must be [u, v] pairs") from None
    if edges != list(g.edges):
        raise ParseError("certificate edge list does not match the graph's canonical edges")
    # == lets 1.0 and true stand for 1, so the endpoint types are checked too
    if not set(map(type, chain.from_iterable(edges))) <= {int}:
        raise ParseError("certificate edge endpoints must be integers")
    k = doc["k"]
    raw_orients = doc["orientations"]
    if not _is_int(k) or not isinstance(raw_orients, list) or len(raw_orients) != k:
        raise ParseError("orientation count does not match k")
    orientations = []
    for flags in raw_orients:
        if (
            not isinstance(flags, list)
            or len(flags) != g.m
            or not set(map(type, flags)) <= {bool}
        ):
            raise ParseError("each orientation must list m booleans")
        # bit e is flag e, so the digits are the flags last first
        orientations.append(int(bytes(flags)[::-1].translate(_FLAG_DIGITS) or b"0", 2))
    meta = _meta_from_json(doc.get("meta"), k, g)
    return CoverCertificate(k, tuple(orientations), meta)
