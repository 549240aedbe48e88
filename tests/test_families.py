import itertools
import random
import tracemalloc

import pytest

from orcov import (
    CapacityError,
    SetFamily,
    enumerate_mifs,
    hosten_morris,
    is_intersecting,
    sorted_mif_masks,
    upward_closure,
)
import orcov
from conftest import reference_mif_terms
from orcov.families import (
    LITERATURE_LAMBDA,
    _avoiders,
    _closure_tables,
    _mif_terms,
    _mif_walk,
    _swap,
    _transpositions,
    _upset_orbits,
    _upsets,
    family_lines,
    format_subset,
    lambda_provenance,
)
from orcov.graphs import _bit_string, _bits

LAMBDA_SMALL = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}


def permuted(u: int, perm) -> int:
    """The member vector u over [j] with element e renamed perm[e], mask by mask."""
    return sum(1 << sum(1 << perm[e] for e in _bits(s)) for s in _bits(u))


def star(k: int, i: int) -> SetFamily:
    return SetFamily.from_masks(
        k, [s for s in range(1 << k) if (s >> (i - 1)) & 1]
    )


def apply_perm(k: int, member: int, perm: dict[int, int]) -> int:
    out = 0
    for s in range(1 << k):
        if (member >> s) & 1:
            image = 0
            for i in range(1, k + 1):
                if (s >> (i - 1)) & 1:
                    image |= 1 << (perm[i] - 1)
            out |= 1 << image
    return out


def brace_lists(k: int, member: int) -> str:
    """The members of a family as brace lists, one shift per bit: the formatter's reference."""
    return "".join(
        "{" + ",".join(str(i + 1) for i in range(k) if s >> i & 1) + "}"
        for s in range(1 << k) if member >> s & 1
    )


def pairwise_intersecting(f: SetFamily) -> bool:
    members = _bits(f.member)
    return all(a & b for a in members for b in members)


def seeded_families(seed: int, kmax: int, per_k: int) -> list[SetFamily]:
    """Families over [k], k = 1..kmax: members kept at random densities,
    half of them drawn from the sets holding one element (mostly
    intersecting), half from all sets (mostly not)."""
    rng = random.Random(seed)
    families = []
    for k in range(1, kmax + 1):
        for i in range(per_k):
            p = rng.choice([0.02, 0.1, 0.3, 0.6])
            e = rng.randrange(k)
            pool = [s for s in range(1 << k) if i % 2 or (s >> e) & 1]
            masks = [s for s in pool if rng.random() < p]
            if i % 4 == 0 and k > 1:
                masks.append(rng.randrange(1 << k))  # one stray set
            families.append(SetFamily.from_masks(k, masks))
    return families


class TestSubsetVectors:
    @pytest.mark.parametrize("k", range(9))
    def test_closure_tables_match_definitions(self, k):
        size = 1 << k
        sup, sub = _closure_tables(k)
        assert len(sup) == len(sub) == size
        for s in range(size):
            assert sub[s] == sum(1 << t for t in range(size) if t & s == t)
            assert sup[s] == sum(1 << t for t in range(size) if t & s == s)

    def test_avoiders_match_definition(self):
        """The sets S with S & T == 0 for some member T: every family for k <= 3, then seeded."""
        families = [SetFamily(k, member) for k in (1, 2, 3) for member in range(1 << (1 << k))]
        families += [f for f in seeded_families(seed=24, kmax=7, per_k=24) if f.k >= 4]
        for f in families:
            want = sum(1 << s for s in range(1 << f.k) if any(s & t == 0 for t in _bits(f.member)))
            assert _avoiders(f) == want


class TestPredicates:
    def test_empty_set_breaks_intersecting(self):
        assert not is_intersecting(SetFamily.from_masks(2, [0b00]))

    def test_star_is_intersecting(self):
        assert is_intersecting(star(3, 1))

    def test_disjoint_pair_breaks_intersecting(self):
        assert not is_intersecting(SetFamily.from_masks(2, [0b01, 0b10]))

    def test_intersecting_matches_pairwise_definition(self):
        families = [SetFamily(3, member) for member in range(1 << 8)]
        families += seeded_families(seed=9, kmax=7, per_k=40)
        answers = set()
        for f in families:
            answers.add(is_intersecting(f))
            assert is_intersecting(f) == pairwise_intersecting(f)
        assert answers == {True, False}


class TestClosure:
    def test_upward_closure_examples(self):
        assert upward_closure(SetFamily.from_masks(2, [0b01])) == SetFamily.from_masks(
            2, [0b01, 0b11]
        )
        full = SetFamily(2, 0b1111)
        assert upward_closure(full) == full
        assert upward_closure(SetFamily.from_masks(3, [0b011])) == SetFamily.from_masks(
            3, [0b011, 0b111]
        )

    def test_upward_closure_is_least_fixed_point(self):
        families = [SetFamily(3, member) for member in range(1 << 8)]
        families += seeded_families(seed=6, kmax=6, per_k=12)
        rng = random.Random(16)
        families.append(SetFamily.from_masks(7, [rng.getrandbits(7) | 0b1001 for _ in range(5)]))
        for f in families:
            c = upward_closure(f)
            assert c.member & f.member == f.member
            assert upward_closure(c) == c
            # a set is in the closure iff it contains a member of f
            for s in range(1 << f.k):
                assert (s in c) == any((s | m) == s for m in _bits(f.member))


class TestEnumeration:
    def test_k1(self):
        cat = enumerate_mifs(1)
        assert cat.count == 1
        assert cat.families[0] == SetFamily.from_masks(1, [0b1])

    def test_k2_exact(self):
        cat = enumerate_mifs(2)
        assert cat.families == (
            SetFamily.from_masks(2, [0b01, 0b11]),
            SetFamily.from_masks(2, [0b10, 0b11]),
        )

    def test_k3_exact(self):
        cat = enumerate_mifs(3)
        want = {star(3, i).member for i in (1, 2, 3)}
        want.add(sum(1 << s for s in range(8) if s.bit_count() >= 2))
        assert {f.member for f in cat.families} == want

    @pytest.mark.parametrize("k,count", sorted(LAMBDA_SMALL.items()))
    def test_counts(self, k, count):
        assert enumerate_mifs(k).count == count
        assert hosten_morris(k) == count

    def test_canonical_order_strictly_increasing(self):
        for k in range(1, 6):
            masks = sorted_mif_masks(k)
            assert all(a < b for a, b in zip(masks, masks[1:]))

    def test_lambda_strictly_increasing(self):
        values = [hosten_morris(k) for k in range(1, 7)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            sorted_mif_masks(0)
        with pytest.raises(CapacityError, match="k <= 7"):
            sorted_mif_masks(8)
        with pytest.raises(CapacityError):
            hosten_morris(8)

    def test_backend_is_pure(self):
        assert orcov.KERNEL_BACKEND == "pure"

    def test_counter_counts(self):
        assert [hosten_morris(k) for k in range(1, 7)] == list(LAMBDA_SMALL.values())

    # the number of up-sets on [j], j = 0..5 (Dedekind numbers), and of
    # their S_j-orbits
    UPSETS = [2, 3, 6, 20, 168, 7581]
    ORBITS = [2, 3, 5, 10, 30, 210]
    # the number of orbit-weighted terms of lambda(k), k = 2..7
    TERMS = [2, 3, 6, 17, 90, 1568]

    @pytest.mark.parametrize("k", range(2, 8))
    def test_one_positive_term_per_orbit_pair(self, k):
        # one term per pair a <= b of up-sets on [k-3] with b the first of
        # its orbit, where the unweighted reference has one per up-set on
        # [k-2]; both sum to the walk's count (k = 7: test_acceptance's
        # criterion 01 checks hosten_morris(7) against the walk)
        terms = list(_mif_terms(k))
        pairs = k
        if k >= 3:
            level = _upsets(k - 3)
            pairs = sum(not a & ~b for b, _, _ in _upset_orbits(k - 3, level) for a, _ in level)
        assert len(terms) == pairs == self.TERMS[k - 2]
        assert min(terms) >= 1
        reference = list(reference_mif_terms(k))
        assert len(reference) == self.UPSETS[k - 2]
        assert min(reference) >= 1
        assert sum(terms) == sum(reference) == hosten_morris(k)
        if k in LAMBDA_SMALL:
            assert sum(terms) == len(_mif_walk(k)) == LAMBDA_SMALL[k]

    @pytest.mark.parametrize("k", range(3, 8))
    def test_every_upset_of_an_orbit_sums_the_same_terms(self, k):
        # the weighting's premise, on the unweighted reference: each b in
        # one orbit has the same sum over its a <= b, and b's weighted
        # terms are |orbit(b)| times that sum
        level = _upsets(k - 3)
        reference = reference_mif_terms(k)
        per_b = {b: sum(next(reference) for a, _ in level if not a & ~b) for b, _ in level}
        terms = _mif_terms(k)
        for b, _, orbit in _upset_orbits(k - 3, level):
            assert {per_b[u] for u in orbit} == {per_b[b]}
            assert sum(next(terms) for a, _ in level if not a & ~b) == len(orbit) * per_b[b]
        assert next(terms, None) is None

    def test_lambda_8_is_the_literature_value(self):
        # the orbit-weighted sum at k = 8: 268,989 terms, about 2 s and 150 MB
        assert sum(_mif_terms(8)) == LITERATURE_LAMBDA[8]

    @pytest.mark.parametrize("j", range(6))
    def test_upset_orbits_partition_the_upsets(self, j):
        level = _upsets(j)
        orbits = list(_upset_orbits(j, level))
        assert len(orbits) == self.ORBITS[j]
        assert sum(len(orbit) for _, _, orbit in orbits) == self.UPSETS[j]
        assert set().union(*(orbit for _, _, orbit in orbits)) == {u for u, _ in level}
        blockers = dict(level)
        order = {u: i for i, (u, _) in enumerate(level)}
        for b, bb, orbit in orbits:
            assert bb == blockers[b]
            assert order[b] == min(order[u] for u in orbit)

    @pytest.mark.parametrize("j", range(6))
    def test_each_delta_swap_is_its_transposition(self, j):
        upsets = {u for u, _ in _upsets(j)}
        swaps = _transpositions(j)
        assert len(swaps) == max(j - 1, 0)
        for i, (m, d) in enumerate(swaps):
            perm = list(range(j))
            perm[i], perm[i + 1] = i + 1, i
            for u in upsets:
                w = _swap(u, m, d)
                assert w == permuted(u, perm)
                assert w in upsets
                assert _swap(w, m, d) == u

    @pytest.mark.parametrize("j", range(5))
    def test_each_orbit_is_the_image_under_every_permutation(self, j):
        for b, _, orbit in _upset_orbits(j, _upsets(j)):
            assert orbit == {permuted(b, perm) for perm in itertools.permutations(range(j))}

    @pytest.mark.parametrize("j", range(6))
    def test_carried_blocker_is_the_reversed_complement(self, j):
        # S meets every member of an up-set U iff [j] \ S is not in U,
        # and reversing the 2^j bits maps position S to [j] \ S
        level = _upsets(j)
        width = (1 << (1 << j)) - 1
        assert len({u for u, _ in level}) == len(level) == self.UPSETS[j]
        for u, blocker in level:
            assert blocker == width ^ int(_bit_string(u, 1 << j), 2)
            if j:
                assert upward_closure(SetFamily(j, u)).member == u

    @pytest.mark.parametrize("k", sorted(LAMBDA_SMALL))
    def test_walk_matches_counter(self, k):
        # two independent methods: the pair walk, both orders, and the up-set count
        walk = _mif_walk(k)
        reverse = _mif_walk(k, reverse_pairs=True)
        assert len(set(walk)) == len(walk) == hosten_morris(k)
        assert len(set(reverse)) == len(reverse) == len(walk)
        assert set(reverse) == set(walk)

    def test_literature_values(self):
        with pytest.raises(CapacityError, match="literature"):
            hosten_morris(9)
        v9 = hosten_morris(9, literature_table=True)
        assert v9 == LITERATURE_LAMBDA[9]
        assert 10**20 < v9 < 10**21
        assert hosten_morris(8, literature_table=True) == LITERATURE_LAMBDA[8]
        with pytest.raises(CapacityError):
            hosten_morris(10, literature_table=True)
        with pytest.raises(ValueError):
            hosten_morris(0)

    def test_provenance_labels(self):
        assert lambda_provenance(7) == "computed"
        assert lambda_provenance(9) == "literature"

    def test_reverse_pair_order_self_consistent_k5(self):
        assert sorted(_mif_walk(5, reverse_pairs=True)) == sorted_mif_masks(5)
        assert len(sorted_mif_masks(5)) == 81


class TestMifInvariants:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_structure(self, k):
        full = (1 << k) - 1
        for f in enumerate_mifs(k).families:
            assert f.size == 1 << (k - 1)
            assert full in f
            assert 0 not in f
            assert upward_closure(f) == f
            for s in range(1 << k):
                assert (s in f) != ((full ^ s) in f)
            assert is_intersecting(f)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_all_stars_present(self, k):
        members = {f.member for f in enumerate_mifs(k).families}
        for i in range(1, k + 1):
            assert star(k, i).member in members

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_permutation_closure(self, k):
        members = {f.member for f in enumerate_mifs(k).families}
        for perm_tuple in itertools.permutations(range(1, k + 1)):
            perm = dict(zip(range(1, k + 1), perm_tuple))
            for m in members:
                assert apply_perm(k, m, perm) in members


class TestPairChoiceOracle:
    """Second independent count: pick one side of every complementary
    pair outright (2^(2^(k-1)) choices) and keep the upward-closed
    results.  No propagation, no search order; feasible through k = 5.
    """

    @staticmethod
    def _count_by_pair_choice(k: int) -> int:
        size = 1 << k
        full = size - 1
        pairs = sorted(
            {(min(s, full ^ s), max(s, full ^ s)) for s in range(size)}
        )
        count = 0
        for choice in range(1 << len(pairs)):
            member = 0
            for i, (lo, hi) in enumerate(pairs):
                member |= 1 << (hi if (choice >> i) & 1 else lo)
            up_closed = True
            for s in range(size):
                if (member >> s) & 1:
                    t = s
                    while t != full:
                        t = (t + 1) | s
                        if not (member >> t) & 1:
                            up_closed = False
                            break
                if not up_closed:
                    break
            if up_closed:
                count += 1
        return count

    @pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 4), (4, 12), (5, 81)])
    def test_matches_enumeration(self, k, count):
        assert self._count_by_pair_choice(k) == count == hosten_morris(k)


class TestSerialization:
    def test_format_subset(self):
        assert format_subset(0) == "{}"
        assert format_subset(0b101) == "{1,3}"
        # every subset of [k] for k <= 6, against a shift-by-shift formatter
        for mask in range(1 << 6):
            elems = [str(i + 1) for i in range(6) if (mask >> i) & 1]
            assert format_subset(mask) == "{" + ",".join(elems) + "}"

    def test_family_format(self):
        assert SetFamily.from_masks(2, [0b01, 0b11]).format() == "{1}{1,2}"
        assert SetFamily.from_masks(2, [0b10, 0b11]).format() == "{2}{1,2}"

    @pytest.mark.parametrize("k", range(1, 8))
    def test_format_any_family(self, k):
        """Empty, full and random member vectors, not only maximal intersecting ones."""
        rng = random.Random(k)
        members = [0, (1 << (1 << k)) - 1] + [rng.getrandbits(1 << k) for _ in range(300)]
        want = [brace_lists(k, m) for m in members]
        assert [SetFamily(k, m).format() for m in members] == want
        # 302 lines cross the batch boundary from k = 6 on
        lines = b"".join(family_lines(k, members)).decode("ascii")
        assert lines == "".join(w + "\n" for w in want)

    def test_from_masks_checks_k_before_building_the_vector(self):
        # the member vector of a set over [26] would take 2^25 bits (4 MB)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                SetFamily.from_masks(26, [1 << 25])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_constructors_validate(self):
        with pytest.raises(ValueError):
            SetFamily.from_masks(2, [4])
        with pytest.raises(ValueError):
            SetFamily(2, 1 << 16)
