"""Ulrich verification, classification, enumeration and Veronese tables."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_scrolls
from scrollcoh import (DivClass, FormalSheaf, NotDiagonalError, NotUlrichError,
                       Scroll, atom_rank, block, block_atom, classify, deg_slope,
                       enumerate_types, is_ulrich, line_atom, type_info,
                       type_sheaf, veronese_classify, veronese_table)
from scrollcoh.p1 import MAX_SUMMANDS


def test_block_normalisations():
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((2, 3, 4, 5))]:
        assert block_atom(S, 0).twist.pair() == (0, 1)
        assert block_atom(S, S.n).twist.pair() == (S.c - 1, 0)
    S = Scroll((1, 1, 1))
    mid = block_atom(S, 1)
    assert not mid.is_line
    assert atom_rank(S, mid) == 2
    with pytest.raises(ValueError):
        block_atom(S, 3)
    with pytest.raises(ValueError):
        block_atom(S, -1)


def test_blocks_are_ulrich():
    for S in all_scrolls(4, 10):
        for i in range(S.n + 1):
            verdict = is_ulrich(S, block(S, i))
            assert verdict.passed, (S.degrees, i, verdict.failures)
            assert verdict.h0 == S.c * comb(S.n, i)


def test_structure_sheaf_is_not_ulrich():
    S = Scroll((1, 2))
    verdict = is_ulrich(S, FormalSheaf.of(line_atom(DivClass(0, 0))))
    assert not verdict.passed
    assert verdict.h0 == 1 and verdict.expected_h0 == S.c


def test_block_sum_verdict():
    S = Scroll((1, 1, 2))
    verdict = is_ulrich(S, block(S, 0) + block(S, S.n))
    assert verdict.passed
    assert (verdict.rank, verdict.h0) == (2, 2 * S.c)


def test_ulrich_closure_scales_linearly():
    # nonnegative block combinations stay Ulrich, with rank and h^0 scaling
    S = Scroll((1, 2, 2))
    base = type_sheaf(S, (1, 1, 0))
    one = is_ulrich(S, base)
    three = is_ulrich(S, base.scaled(3))
    assert one.passed and three.passed
    assert three.rank == 3 * one.rank
    assert three.h0 == 3 * one.h0 == S.c * three.rank


def test_signed_input_rejected():
    S = Scroll((1, 2))
    with pytest.raises(ValueError):
        is_ulrich(S, block(S, 0).scaled(-1))


def test_classify_roundtrip():
    S = Scroll((1, 2))
    assert classify(S, sheaf=type_sheaf(S, (2, 1))) == (2, 1)
    assert classify(S, sheaf=block(S, 0)) == (1, 0)
    S3 = Scroll((1, 1, 1, 1))
    assert classify(S3, sheaf=type_sheaf(S3, (0, 1, 0, 2))) == (0, 1, 0, 2)


def test_classify_rejects_non_ulrich():
    S = Scroll((1, 2))
    with pytest.raises(NotUlrichError) as err:
        classify(S, sheaf=FormalSheaf.of(line_atom(DivClass(1, 0))))
    assert err.value.verdict.failures
    with pytest.raises(ValueError):
        classify(S)
    with pytest.raises(ValueError):
        classify(S, sheaf=block(S, 0), profile={"entries": []})


def test_classify_from_profile():
    S = Scroll((1, 1, 1))
    profile = {"entries": [{"j": 1, "q": 1, "h": 2}, {"j": 2, "q": 2, "h": 1}]}
    assert classify(S, profile=profile) == (2, 1, 0)


def test_enumerate_rank_one_is_the_two_line_bundles():
    for S in all_scrolls(4, 8):
        infos = enumerate_types(S, rank=1)
        assert [t.multiplicities for t in infos] == [
            (0,) * S.n + (1,), (1,) + (0,) * S.n]
        for t in infos:
            assert t.line_block_positions in ((0,), (S.n,))


def test_enumerate_rank_two_surface_case():
    S = Scroll((1, 1, 1))
    infos = enumerate_types(S, rank=2)
    assert [t.multiplicities for t in infos] == [
        (0, 0, 2), (0, 1, 0), (1, 0, 1), (2, 0, 0)]


def test_enumerate_rank_two_avoids_inner_blocks_in_higher_dimension():
    for S in [Scroll((1, 1, 1, 1)), Scroll((1, 2, 3, 4)), Scroll((1, 1, 1, 1, 1))]:
        infos = enumerate_types(S, rank=2)
        for t in infos:
            assert all(a == 0 for a in t.multiplicities[1:-1]), t
        assert len(infos) == 3


def test_enumerate_annotations():
    S = Scroll((1, 2))
    infos = enumerate_types(S, rank=2)
    for t in infos:
        assert t.h0 == S.c * t.rank
        assert t.slope == Fraction(S.c - 1, 1)


def test_enumerate_by_section_count():
    S = Scroll((1, 2))
    assert [t.multiplicities for t in enumerate_types(S, h0=6)] == [
        t.multiplicities for t in enumerate_types(S, rank=2)]
    assert enumerate_types(S, h0=7) == []
    assert enumerate_types(S, rank=0) == []
    with pytest.raises(ValueError):
        enumerate_types(S)
    with pytest.raises(ValueError):
        enumerate_types(S, rank=1, h0=3)


def count_types(n, rank):
    """The number of a_0, ..., a_n with sum a_i C(n, i) = rank, by counting
    the ways to make each total from the block ranks one block at a time."""
    ways = [1] + [0] * rank
    for w in (comb(n, i) for i in range(n + 1)):
        for t in range(w, rank + 1):
            ways[t] += ways[t - w]
    return ways[rank]


def brute_types(n, rank):
    """Every type of the rank: a_0 .. a_{n-1} drawn from a product of ranges,
    and a_n, of block rank 1, taking what is left."""
    weights = [comb(n, i) for i in range(n)]
    return sorted((*head, rank - sum(a * w for a, w in zip(head, weights)))
                  for head in product(*(range(rank // w + 1) for w in weights))
                  if sum(a * w for a, w in zip(head, weights)) <= rank)


def test_count_types_small_cases():
    # rank one is the two line bundles; rank two on a surface scroll is
    # (0,0,2), (0,1,0), (1,0,1), (2,0,0); on P^1-bundles a_0 + a_1 = rank
    assert [count_types(n, 1) for n in range(1, 6)] == [2] * 5
    assert count_types(2, 2) == 4
    assert [count_types(1, r) for r in range(6)] == [1, 2, 3, 4, 5, 6]


scrolls_for_types = st.one_of(
    st.lists(st.integers(1, 4), min_size=2, max_size=8).map(Scroll),
    st.integers(1, 60).map(lambda n: Scroll((1,) * (n + 1))))


@settings(deadline=None, max_examples=150)
@given(scrolls_for_types, st.integers(0, 40))
def test_enumerate_types_against_the_counting_oracle(S, rank):
    n = S.n
    infos = enumerate_types(S, rank=rank)
    types = [t.multiplicities for t in infos]
    assert all(a < b for a, b in zip(types, types[1:]))
    assert all(sum(comb(n, i) * a for i, a in enumerate(t)) == rank for t in types)
    assert len(types) == (count_types(n, rank) if rank else 0)
    if n <= 4 and rank:
        assert types == brute_types(n, rank)
    for t in infos:
        assert t.rank == rank and len(t.multiplicities) == n + 1
        assert t.line_block_positions == tuple(i for i in sorted({0, n})
                                               if t.multiplicities[i])


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=6).map(Scroll), st.integers(1, 12))
def test_listed_types_carry_what_deg_slope_reads_off_their_block_sums(S, rank):
    # the listing sums block invariants; the oracle builds each type's sheaf
    for t in enumerate_types(S, rank=rank):
        sheaf_rank, c1, _deg, slope = deg_slope(S, type_sheaf(S, t.multiplicities))
        assert (t.rank, t.c1, t.h0, t.slope) == (sheaf_rank, c1, S.c * sheaf_rank, slope)
        assert type_info(S, t.multiplicities) == t


def test_type_info_refuses_a_bad_type_with_its_own_message():
    S = Scroll((1, 2, 2))
    for mults, message in [((1, 1), "a type needs n \\+ 1 multiplicities"),
                           ((1, -1, 1), "multiplicities must be nonnegative"),
                           ((0, 0, 0), "slope undefined for rank zero")]:
        with pytest.raises(ValueError, match=message):
            type_info(S, mults)


@pytest.mark.parametrize("degrees,rank,limit", [
    ((1, 2), 10 ** 20, "MAX_TYPES"),
    ((1,) * 6, 200, "MAX_TYPES"),
    ((1,) * 1001, 999, "MAX_SUMMANDS"),
    ((1,) * 2001, 1999, "MAX_SUMMANDS"),
])
def test_enumerate_refuses_listings_above_its_limits(degrees, rank, limit):
    with pytest.raises(ValueError, match=f"above the limit {limit} = "):
        enumerate_types(Scroll(degrees), rank=rank)


def test_type_listing_at_its_edge():
    # 999 types of 1001 entries stay within MAX_SUMMANDS; rank 999 passes it
    infos = enumerate_types(Scroll((1,) * 1001), rank=998)
    assert len(infos) == 999 and 999 * 1001 <= MAX_SUMMANDS < 1000 * 1001


def test_veronese_surface_table():
    table = veronese_table(2, atom=(1, 1))
    assert dict(table.entries) == {(1, 1): 1}
    assert table.is_diagonal
    assert veronese_classify(table) == 1


def test_veronese_surface_other_columns_vanish():
    # the two line-bundle columns see the twists Omega^1(1) and Omega^1(-1),
    # both inside the empty Bott band
    table = veronese_table(2, atom=(1, 1))
    for j in (0, 2):
        for q in range(3):
            assert table.entry(j, q) == 0


def test_veronese_threefold_profile():
    profile = {"entries": [{"j": 1, "q": 1, "h": 4}, {"j": 3, "q": 2, "h": 4}]}
    table = veronese_table(3, profile=profile)
    assert table.off_diagonal() == [(3, 2, 4)]
    with pytest.raises(NotDiagonalError):
        veronese_classify(table)


def test_veronese_classify_rejects_other_diagonal_slots():
    # (2, 2) is on the diagonal but column 2 holds no Ulrich bundle
    table = veronese_table(2, profile={"entries": [{"j": 2, "q": 2, "h": 1}]})
    assert table.is_diagonal
    with pytest.raises(NotDiagonalError):
        veronese_classify(table)


def test_veronese_zero_profile():
    table = veronese_table(3, profile={"entries": []})
    assert not table.entries
    assert table.is_diagonal


def test_veronese_input_validation():
    with pytest.raises(ValueError):
        veronese_table(4, atom=(1, 1))
    with pytest.raises(ValueError):
        veronese_table(2)
    with pytest.raises(ValueError):
        veronese_table(2, atom=(1, 1), profile={"entries": []})

