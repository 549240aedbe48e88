"""Set families over [k] as bitmasks, and maximal intersecting families.

A subset S of [k] = {1, ..., k} is a k-bit mask (bit i-1 set means
i in S).  A family of subsets is a 2^k-bit member vector (bit s set
means the subset with mask s belongs to the family).  The member
vectors of the subsets and of the supersets of every mask come from
one cached pair of tables per k (_closure_tables); upward closure and
the disjoint-pair choice read them.  The disjoint members of two
families and the intersecting test rest on one more vector, the sets
that avoid some member of a family (_avoiders), which is the upward
closure reversed.  Maximal intersecting families are
listed by one pure-Python walk (_mif_walk); their counts lambda(k),
the Hosten-Morris numbers, come from an independent up-set
decomposition: _mif_terms yields the terms of lambda(k)'s sum from
up-sets built level by level with their blockers (_upsets), and
_mif_count adds them up.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat

from .errors import CapacityError
from .graphs import _Value, _bit_string, _bits, _set

KMAX_HARD = 7

# Reported as orcov.KERNEL_BACKEND: the package has one pure-Python kernel.
KERNEL_BACKEND = "pure"

# Counts for k = 8, 9 transcribed from Brouwer, Mills, Mills and
# Verbeek, "Counting families of mutually intersecting sets" (2013).
# Served only on request and flagged with "literature" provenance;
# everything below k = 8 is recomputed here.
LITERATURE_LAMBDA = {
    8: 229809982112,
    9: 423295099074735261880,
}

def format_subset(mask: int) -> str:
    """Render a subset mask as a brace list, e.g. 0b101 -> "{1,3}"."""
    return "{" + ",".join([str(b + 1) for b in _bits(mask)]) + "}"


@functools.cache
def _family_table(k: int) -> tuple[list[bytes], ...]:
    """Row p: the 256 ASCII brace lists of the values of byte p of a member vector.

    Byte p of the little-endian member vector holds masks 8p..8p+7, so
    entry b of row p concatenates format_subset of 8p + j for every bit
    j of b, ascending.  Each mask doubles the row: the entries so far,
    then the same entries with its brace list appended.  Below k = 3 a
    vector has 2^k < 8 bits, one row of 2^(2^k) entries.
    """
    table = []
    for p in range(max(1, (1 << k) >> 3)):
        row = [b""]
        for s in range(8 * p, min(8 * p + 8, 1 << k)):
            brace = format_subset(s).encode("ascii")
            row += [r + brace for r in row]
        table.append(row)
    return tuple(table)


def family_lines(k: int, members: Sequence[int]) -> Iterator[bytes]:
    """Each member vector as one ASCII line, joined in batches of about 64 KB.

    A line is the brace lists of the vector's members in ascending mask
    order, then a newline.  For k <= KMAX_HARD, where families are
    enumerated.  A batch is the bytes of its vectors, each one byte
    wider than the table, mapped through the rows of the table once:
    the byte above a vector is 0, and its row maps 0 to the newline.
    A line holds 2^(k-1) brace lists of about 9 bytes at k = 6, 7, so
    2^(14-k) lines are about 64 KB; a bounded batch keeps a long
    listing's memory flat.
    """
    table = _family_table(k)
    batch = 1 << (14 - k)
    rows = (*table, [b"\n"]) * min(batch, len(members))
    width = repeat(len(table) + 1)
    order = repeat("little")
    getitem = list.__getitem__
    join = b"".join
    for i in range(0, len(members), batch):
        yield join(map(getitem, rows, join(map(int.to_bytes, members[i:i + batch], width, order))))


def format_family(k: int, member: int) -> str:
    """A 2^k-bit member vector as concatenated brace lists, ascending: its family_lines line."""
    return next(family_lines(k, [member]))[:-1].decode("ascii")


class SetFamily(_Value):
    """Family of subsets of [k], stored as a 2^k-bit member vector."""

    __slots__ = ("k", "member")
    k: int
    member: int

    def __init__(self, k: int, member: int) -> None:
        if k < 1:
            raise ValueError("ground-set size k must be positive")
        if k > KMAX_HARD:
            raise CapacityError(f"set families support k <= {KMAX_HARD}")
        if member < 0 or member >> (1 << k):
            raise ValueError("member vector wider than 2^k bits")
        _set(self, "k", k)
        _set(self, "member", member)

    @classmethod
    def from_masks(cls, k: int, masks: Iterable[int]) -> "SetFamily":
        cls(k, 0)  # refuses a bad k before a 2^k-bit vector is built
        member = 0
        for s in masks:
            if s < 0 or s >> k:
                raise ValueError(f"subset mask {s} out of range for k={k}")
            member |= 1 << s
        return cls(k, member)

    @classmethod
    def from_sets(cls, k: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """Build from element collections, e.g. from_sets(2, [{1}, {1, 2}])."""
        masks = []
        for elems in sets:
            s = 0
            for i in elems:
                if not 1 <= i <= k:
                    raise ValueError(f"element {i} outside [1, {k}]")
                s |= 1 << (i - 1)
            masks.append(s)
        return cls.from_masks(k, masks)

    @property
    def size(self) -> int:
        return self.member.bit_count()

    def members(self) -> Iterator[int]:
        """Member subset masks in ascending order."""
        return iter(_bits(self.member))

    def __contains__(self, mask: int) -> bool:
        return 0 <= mask < (1 << self.k) and bool((self.member >> mask) & 1)

    def format(self) -> str:
        """Members as concatenated brace lists in ascending mask order."""
        return format_family(self.k, self.member)


class MifCatalog(_Value):
    """All maximal intersecting families over [k], canonically ordered."""

    __slots__ = ("k", "families")
    k: int
    families: tuple[SetFamily, ...]

    def __init__(self, k: int, families: tuple[SetFamily, ...]) -> None:
        _set(self, "k", k)
        _set(self, "families", families)

    @property
    def count(self) -> int:
        return len(self.families)


def _avoiders(f: SetFamily) -> int:
    """Member vector of the masks S disjoint from at least one member T of f.

    S misses T iff T lies inside [k] \\ S, so S avoids f iff [k] \\ S is
    in the upward closure of f.  Reversing the 2^k bits of a member
    vector moves position X to (2^k - 1) - X = [k] \\ X, so the avoiders
    are the upward closure's vector reversed.
    """
    return int(_bit_string(upward_closure(f).member, 1 << f.k), 2)


def _disjoint_members(fu: SetFamily, fv: SetFamily) -> tuple[int, int] | None:
    """Smallest-mask S in fu admitting a disjoint T in fv, then smallest T."""
    return _disjoint_pair(fu.k, fu.member, fv.member, _avoiders(fv))


def _disjoint_pair(k: int, mu: int, mv: int, avoid_v: int) -> tuple[int, int] | None:
    """_disjoint_members on member vectors, with the avoiders of fv given.

    The S in fu that admit a disjoint T in fv are fu's members among
    fv's avoiders; T is the smallest member of fv inside [k] \\ S.  A
    caller that pairs one family with many computes its avoiders once.
    """
    hits = mu & avoid_v
    if not hits:
        return None
    s = (hits & -hits).bit_length() - 1
    hits = mv & _closure_tables(k)[1][((1 << k) - 1) ^ s]
    return (s, (hits & -hits).bit_length() - 1)


def is_intersecting(f: SetFamily) -> bool:
    """True iff every pair of members (a set with itself included) meets."""
    return _disjoint_members(f, f) is None


def is_maximal_intersecting(f: SetFamily) -> bool:
    """Intersecting of the extremal size 2^(k-1)."""
    return f.size == 1 << (f.k - 1) and is_intersecting(f)


def upward_closure(f: SetFamily) -> SetFamily:
    """Smallest superset-closed family containing f."""
    vec = f.member
    full = (1 << f.k) - 1
    sub = _closure_tables(f.k)[1]
    for i in range(f.k):
        # the members without element i, each shifted onto its union with {i}
        vec |= (vec & sub[full ^ 1 << i]) << (1 << i)
    return SetFamily(f.k, vec)


def _pair_reps(k: int) -> list[int]:
    """One representative per complementary pair, ordered by (size, mask)."""
    full = (1 << k) - 1
    reps = []
    for s in range(1 << k):
        c = full ^ s
        if (s.bit_count(), s) <= (c.bit_count(), c):
            reps.append(s)
    reps.sort(key=lambda s: (s.bit_count(), s))
    return reps


@functools.cache
def _closure_tables(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """sup[s] / sub[s]: 2^k-bit masks of the supersets / subsets of s.

    sub doubles from {empty set}: the masks with top element i are
    those below 2^i with i added, and the subsets of s + 2^i are those
    of s plus the same shifted 2^i positions, i added.
    """
    sub: tuple[int, ...] = (1,)
    for i in range(k):
        sub += tuple([v | v << (1 << i) for v in sub])
    full = (1 << k) - 1
    # the supersets of s are s + T for the subsets T of [k] \ s
    return tuple([sub[full ^ s] << s for s in range(full + 1)]), sub


def _mif_walk(k: int, reverse_pairs: bool = False) -> list[int]:
    """All maximal intersecting families over [k] as 2^k-bit member vectors.

    A family over [k] is maximal intersecting iff it is upward-closed
    and holds exactly one side of every complementary pair {S, [k] \\ S}.
    The walk decides the pairs in a fixed order; each decision
    propagates (all supersets of the chosen set join, everything inside
    its complement is shut out) and a clash between the state vectors
    `inn` and `out` prunes the branch.  Order is the search order, not
    canonical; reverse_pairs decides the pairs in the opposite order and
    must find the same families.
    """
    reps = _pair_reps(k)
    if reverse_pairs:
        reps.reverse()
    sup, sub = _closure_tables(k)
    full = (1 << k) - 1
    npairs = len(reps)
    found: list[int] = []
    stack = [(0, 0, 0)]
    while stack:
        inn, out, idx = stack.pop()
        decided = inn | out
        while idx < npairs and (decided >> reps[idx]) & 1:
            idx += 1
        if idx == npairs:
            found.append(inn)
            continue
        r = reps[idx]
        rc = full ^ r
        idx += 1
        ni = inn | sup[rc]
        no = out | sub[r]
        if not ni & no:
            stack.append((ni, no, idx))
        ni = inn | sup[r]
        no = out | sub[rc]
        if not ni & no:
            stack.append((ni, no, idx))
    return found


def _upsets(j: int) -> list[tuple[int, int]]:
    """Every up-set U on [j] as a 2^j-bit member vector, with its blocker.

    blocker(U) is the family of the sets that meet every member of U.
    The up-sets on [0] are {} and {empty set}, whose blockers are
    {empty set} and {}.  An up-set on [i+1] is a pair a <= b of up-sets
    on [i]: a | b << 2^i holds a's members, and b's members with i+1
    added.  A set without i+1 meets every member iff it meets every
    member of b (a <= b), and a set with i+1 iff its part in [i] meets
    every member of a, so the blocker is blocker(b) | blocker(a) << 2^i.
    """
    level = [(0, 1), (1, 0)]
    for i in range(j):
        half = 1 << i
        level = [(a | b << half, bb | ba << half) for b, bb in level for a, ba in level if not a & ~b]
    return level


def _mif_terms(k: int) -> Iterator[int]:
    """The terms of lambda(k)'s up-set sum, one per up-set on [k-2], each at least 1.

    A maximal intersecting family over [k] is fixed by its members
    without k, which form an intersecting up-set on [k-1], and every
    such up-set arises.  With m = k - 2, an up-set on [m+1] splits into
    U0 (members without m+1) and U1 (the others, m+1 removed); it is
    intersecting iff U0 is contained in U1 and in blocker(U1).  So the
    term of U1 is the number of up-sets inside P = U1 & blocker(U1),
    i.e. of antichains of the poset P, the empty one included.  The
    up-sets U1 = a | b << 2^(m-1) on [m] are never stored: each term
    is read off the pair a <= b of up-sets on [m-1] and their blockers,
    P = (a & blocker(b)) | (b & blocker(a)) << 2^(m-1), in _upsets order.
    """
    if k < 3:
        # lambda(1) = 1; over [0] both up-sets have P = {}, one antichain each
        yield from [1] * k
        return
    sup = _closure_tables(k - 2)[0]

    @functools.cache
    def antichains(p: int) -> int:
        # Antichains without x plus those with x.  x is the lowest mask in
        # P, hence minimal in P, so the members of P comparable with x are
        # its supersets.
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


def _mif_count(k: int) -> int:
    """lambda(k): the sum of _mif_terms(k), sharing no search with _mif_walk."""
    return sum(_mif_terms(k))


# an alias, not a decorator: _mif_count stays uncached, so timing it times a count
_lambda = functools.cache(_mif_count)


def sorted_mif_masks(k: int) -> list[int]:
    """Member vectors of all maximal intersecting families, ascending."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > KMAX_HARD:
        raise CapacityError(f"enumeration capacity is k <= {KMAX_HARD}")
    masks = _mif_walk(k)
    masks.sort()
    return masks


def enumerate_mifs(k: int) -> MifCatalog:
    """Catalog of all maximal intersecting families over [k].

    Canonical order is ascending member vector.  At k = 7 the catalog
    holds ~1.4 million families; prefer sorted_mif_masks for streaming.
    """
    masks = sorted_mif_masks(k)
    return MifCatalog(k, tuple(SetFamily(k, m) for m in masks))


def hosten_morris(k: int, literature_table: bool = False) -> int:
    """lambda(k): the number of maximal intersecting families over [k].

    Values within the enumeration capacity are computed (and memoized
    per process); k = 8, 9 are served from LITERATURE_LAMBDA only when
    literature_table is set.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k <= KMAX_HARD:
        return _lambda(k)
    if k in LITERATURE_LAMBDA:
        if literature_table:
            return LITERATURE_LAMBDA[k]
        raise CapacityError(
            f"lambda({k}) is only served from the literature table; pass literature_table=True"
        )
    raise CapacityError(
        f"lambda({k}) is beyond the enumeration capacity k <= {KMAX_HARD} "
        f"and the literature table (k <= {max(LITERATURE_LAMBDA)})"
    )


def lambda_provenance(k: int) -> str:
    """Where hosten_morris(k) comes from: "computed" or "literature"."""
    return "literature" if k > KMAX_HARD else "computed"

