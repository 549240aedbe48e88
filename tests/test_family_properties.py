"""Property tests of the pair choice: _disjoint_members against a literal scan."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from orcov import SetFamily, is_intersecting  # noqa: E402
from orcov.families import _disjoint_members  # noqa: E402


@st.composite
def member_vectors(draw, k):
    """Any member vector over [k]: empty, a few masks (rarely an up-set) or arbitrary bits."""
    size = 1 << k
    return draw(st.one_of(
        st.just(0),
        st.sets(st.integers(0, size - 1), max_size=4).map(lambda masks: sum(1 << s for s in masks)),
        st.integers(0, (1 << size) - 1),
    ))


@st.composite
def family_pairs(draw):
    k = draw(st.integers(1, 7))
    return SetFamily(k, draw(member_vectors(k))), SetFamily(k, draw(member_vectors(k)))


def scan_disjoint_members(fu, fv):
    """The smallest S in fu with a disjoint T in fv, then the smallest T: member by member."""
    for s in range(1 << fu.k):
        if fu.member >> s & 1:
            for t in range(1 << fv.k):
                if fv.member >> t & 1 and not s & t:
                    return (s, t)
    return None


@given(family_pairs())
@settings(max_examples=500, deadline=None)
def test_disjoint_members_matches_the_scan(pair):
    fu, fv = pair
    assert _disjoint_members(fu, fv) == scan_disjoint_members(fu, fv)


@given(family_pairs())
@settings(max_examples=300, deadline=None)
def test_intersecting_iff_no_disjoint_members_with_itself(pair):
    f, _ = pair
    assert is_intersecting(f) == (_disjoint_members(f, f) is None) == (
        scan_disjoint_members(f, f) is None)
