"""Exceptional collections, the Kronecker pairing and Beilinson tables."""

import random
from itertools import combinations_with_replacement, product

import pytest

from scrollcoh import (Atom, BeilinsonTable, Collection, CollectionMember, DivClass, F,
                       FormalSheaf, H, NotDiagonalError, Scroll, beilinson_table,
                       beilinson_table_from_profile, block, block_atom,
                       build_collections, diagonal_type, duality_report, line_atom,
                       omega_atom, sheaf_chi, sigma, type_sheaf, verify_duality)
from scrollcoh.beilinson import _block_columns
from scrollcoh.ulrich import veronese_table


def test_sigma_examples():
    assert sigma(0) == (0, 0)
    assert sigma(1) == (1, 0)
    assert sigma(-3) == (-1, -2)
    for i in range(-9, 10):
        s1, s2 = sigma(i)
        assert s1 + s2 == i and s1 - s2 in (0, 1)


def test_collection_display_for_threefolds():
    S = Scroll((1, 1, 1, 1))  # any n = 3 scroll has the same shape
    e, f = build_collections(S)
    pairs = [(m.atom.twist.pair(), m.shift) for m in e]
    assert pairs == [((0, 0), 0), ((-1, 0), 0),
                     ((0, -1), -1), ((-1, -1), -1),
                     ((-1, -2), -2), ((-2, -2), -2),
                     ((-2, -3), -3), ((-3, -3), -3)]
    assert f[2].atom == omega_atom(S, 1, DivClass.from_pair(0, 1))
    assert f[3].atom == omega_atom(S, 1, DivClass.from_pair(-1, 1))
    assert f[2 * S.n].atom.twist.pair() == (S.c - 2, -1)
    assert f[2 * S.n + 1].atom.twist.pair() == (S.c - 3, -1)


def test_collections_have_length_2n_plus_2():
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((2, 3, 4, 5))]:
        e, f = build_collections(S)
        assert len(e) == len(f) == len(list(e)) == 2 * S.n + 2


def test_top_dual_member_is_normalised_differential():
    # the next-to-last dual member equals the top relative differential with
    # its standard twist, after line normalisation
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((2, 3, 4, 5))]:
        _, f = build_collections(S)
        assert f[2 * S.n].atom == omega_atom(S, S.n, DivClass.from_pair(S.n - 1, S.n))


def test_dual_block_columns_are_the_blocks_twisted_down():
    # diagonal_type reads a_i from column col(i) of [1, 2, 4, ..., 2n] and
    # verify.required_hom_pairs takes the same members as twisted blocks; the
    # member after each even one is its fibre twist down
    def twisted(atom, div):
        return Atom(atom.p, atom.twist - div)

    for n in range(1, 6):
        for degrees in combinations_with_replacement((1, 2, 3), n + 1):
            S = Scroll(degrees)
            _, f = build_collections(S)
            col = [1, *range(2, 2 * n + 1, 2)]
            for i in range(n + 1):
                assert f[col[i]].atom == twisted(block_atom(S, i), H), (degrees, i)
            for t in range(n + 1):
                assert f[2 * t + 1].atom == twisted(f[2 * t].atom, F), (degrees, t)


def test_duality_holds_across_scrolls():
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((1, 1, 2)),
              Scroll((2, 3)), Scroll((1, 2, 3, 4)), Scroll((1, 1, 1, 1, 2))]:
        report = verify_duality(S)
        assert report.passed, (S.degrees, report.violations[:5])
        size = 2 * S.n + 2
        assert len(report.dims) == size and len(report.dims[0]) == size


def test_duality_negative_control():
    # swapping two dual members must fail loudly with named violations
    S = Scroll((1, 1, 2))
    e, f = build_collections(S)
    swapped = list(f.members)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    report = duality_report(S, e, Collection("F", tuple(swapped)))
    assert not report.passed
    assert report.violations
    assert all(len(v) == 4 for v in report.violations)


def test_each_block_twisted_down_is_the_dual_member_at_its_block_column():
    # the identity that lets classify read a type off the diagonal; both
    # sides are in normal form
    for degrees in [(1, 2), (1, 1, 1), (1, 2, 3), (2, 2, 3, 3), (1, 1, 2, 2, 3)]:
        S = Scroll(degrees)
        _, f = build_collections(S)
        for i, col in enumerate(_block_columns(S.n)):
            b = block_atom(S, i)
            assert Atom(b.p, b.twist - H) == f[col].atom, (degrees, i)


def _pairing(S, e_member, f_atom):
    return duality_report(S, Collection("E", (e_member,)),
                          Collection("F", (CollectionMember(f_atom),)))


def test_duality_checks_negative_degrees():
    # E = O shifted by 1: h^0(O(2H - 4F)) = 1 on S(1, 2) is Ext^{-1}
    S = Scroll((1, 2))
    O = line_atom(DivClass(0, 0))
    report = _pairing(S, CollectionMember(O, 1), line_atom(DivClass(2, -4)))
    assert not report.passed
    assert report.violations == ((0, 0, -1, 1),)
    assert report.dims == (((1, 1, 0),),)


def test_duality_checks_the_diagonal_slot_past_the_table():
    # E = O shifted by 3 on S(1, 2): h^0(O) = 1 is Ext^{-3}, and Ext^0 would
    # be h^3, which lies past the table and is zero
    S = Scroll((1, 2))
    O = line_atom(DivClass(0, 0))
    report = _pairing(S, CollectionMember(O, 3), O)
    assert not report.passed
    assert report.violations == ((0, 0, -3, 1), (0, 0, 0, 0))
    assert report.dims == (((1, 0, 0),),)


def test_single_block_table_is_a_unit_slot():
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((1, 2, 3, 4))]:
        for i in range(S.n + 1):
            table = beilinson_table(S, block(S, i).twist(-H))
            slot = (1, 1) if i == 0 else (2 * i, 2 * i)
            assert dict(table.entries) == {slot: 1}, (S.degrees, i)


def test_two_ended_type_fills_the_extreme_slots():
    # the type supported on the two line-bundle blocks puts its weight in
    # column 1 and column 2n only
    S = Scroll((1, 1, 2, 3))
    mults = (2,) + (0,) * (S.n - 1) + (3,)
    table = beilinson_table(S, type_sheaf(S, mults).twist(-H))
    assert dict(table.entries) == {(1, 1): 2, (2 * S.n, 2 * S.n): 3}


def test_table_additivity_over_block_sums():
    rng = random.Random(19)
    for S in [Scroll((1, 2)), Scroll((1, 1, 2))]:
        for _ in range(10):
            mults = tuple(rng.randint(0, 2) for _ in range(S.n + 1))
            if not any(mults):
                continue
            total = beilinson_table(S, type_sheaf(S, mults).twist(-H))
            summed: dict = {}
            for i, a in enumerate(mults):
                if not a:
                    continue
                part = beilinson_table(S, block(S, i).twist(-H))
                for key, v in part.entries.items():
                    summed[key] = summed.get(key, 0) + a * v
            assert dict(total.entries) == summed


def test_roundtrip_of_types():
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((2, 2, 3))]:
        for mults in product(range(3), repeat=S.n + 1):
            if not 1 <= sum(mults) <= 4:
                continue
            table = beilinson_table(S, type_sheaf(S, mults).twist(-H))
            assert diagonal_type(S, table) == mults


def test_column_chi_conservation():
    S = Scroll((1, 1, 2))
    sheaf = type_sheaf(S, (1, 2, 1)).twist(-H)
    table = beilinson_table(S, sheaf)
    e, _ = build_collections(S)
    for j, em in enumerate(e):
        column = sum((-1) ** q * v for (jj, q), v in table.entries.items() if jj == j)
        want = (-1) ** em.shift * sheaf_chi(S, sheaf.twist(em.atom.twist))
        assert column == want, j


def test_zero_sheaf_gives_zero_table():
    S = Scroll((1, 1, 1))
    table = beilinson_table(S, FormalSheaf())
    assert not table.entries
    assert diagonal_type(S, table) == (0, 0, 0)


def test_profile_ingestion_and_validation():
    S = Scroll((1, 1, 1))
    profile = {"n": 2, "entries": [{"j": 1, "q": 1, "h": 3}, {"j": 4, "q": 4, "h": 2}]}
    table = beilinson_table_from_profile(S, profile)
    assert diagonal_type(S, table) == (3, 0, 2)
    with pytest.raises(ValueError):
        beilinson_table_from_profile(S, {"n": 3, "entries": []})
    with pytest.raises(ValueError):
        beilinson_table_from_profile(S, {"entries": [{"j": 99, "q": 0, "h": 1}]})
    with pytest.raises(ValueError):
        beilinson_table_from_profile(S, {"entries": [{"j": 0, "q": 0, "h": -1}]})


def test_payload_entries_read_back_as_a_profile_give_the_same_table():
    # to_payload's entries are a profile's: every table of a type with
    # multiplicities <= 2, before and after the -H twist, and every Veronese
    # table of an atom twisted by at most 3
    for degrees in [(1, 2), (1, 1, 2), (1, 2, 3), (2, 2, 3, 3)]:
        S = Scroll(degrees)
        for mults in product(range(3), repeat=S.n + 1):
            sheaf = type_sheaf(S, mults)
            for table in (beilinson_table(S, sheaf), beilinson_table(S, sheaf.twist(-H))):
                profile = {"n": S.n, "entries": table.to_payload()["entries"]}
                assert beilinson_table_from_profile(S, profile) == table, (degrees, mults)
    for dim in (2, 3):
        for p, k in product(range(dim + 1), range(-3, 4)):
            table = veronese_table(dim, atom=(p, k))
            profile = {"entries": table.to_payload()["entries"]}
            assert veronese_table(dim, profile=profile) == table, (dim, p, k)


def test_diagonal_type_rejects_stray_entries():
    S = Scroll((1, 1, 1))
    off = beilinson_table_from_profile(S, {"entries": [{"j": 3, "q": 1, "h": 1}]})
    with pytest.raises(NotDiagonalError):
        diagonal_type(S, off)
    on_wrong_slot = beilinson_table_from_profile(S, {"entries": [{"j": 3, "q": 3, "h": 1}]})
    with pytest.raises(NotDiagonalError):
        diagonal_type(S, on_wrong_slot)


def test_diagonal_type_refuses_a_table_of_another_size():
    # a surface's table read on a threefold, and a Veronese table read on a
    # surface scroll; the message names both sizes
    small = Scroll((1, 2))
    cases = [(Scroll((1, 1, 2)), beilinson_table(small, type_sheaf(small, (1, 1)).twist(-H)),
              "size 4", "is 6"),
             (small, veronese_table(2, atom=(1, 1)), "size 3", "is 4")]
    for S, table, got, want in cases:
        with pytest.raises(ValueError) as err:
            diagonal_type(S, table)
        assert not isinstance(err.value, NotDiagonalError)
        assert got in str(err.value) and want in str(err.value)


@pytest.mark.parametrize("field, bad", [
    (0, (0, 1, 2)), (1, ("a",)), (2, ("c", "d", "e")), (4, ()), (5, ("C",)),
    (3, {(5, 0): 1}), (3, {(0, 2): 1}), (3, {(-1, 0): 1}), (3, {(0, 1.5): 1}),
    (3, {(0, 0): -3}), (3, {(0, 0): 1.5}), (3, {(0, 0): "1"}), (3, {(0, 0): True}),
])
def test_table_refuses_a_shape_it_cannot_print(field, bad):
    # labels one per shift, keys inside size x size, nonnegative integer entries
    args = [(0, 1), ("a", "b"), ("c", "d"), {(0, 0): 2}, ("A", "B"), ("C", "D")]
    BeilinsonTable(*args).render_md()
    args[field] = bad
    with pytest.raises(ValueError):
        BeilinsonTable(*args)


def test_rendering_layout():
    S = Scroll((1, 2))
    table = beilinson_table(S, block(S, 1).twist(-H))
    md = table.render_md()
    lines = md.splitlines()
    # dual labels on top, shifted collection labels on the bottom
    assert lines[0].startswith("| O_S(") and "O_S(0,0)" in lines[0]
    assert lines[-1].count("[-1]") == 2
    assert len(lines) == 2 + table.size + 1
    tex = table.render_latex()
    assert tex.startswith(r"\begin{tabular}")
    assert r"\Omega" in tex or r"\mathcal{O}_S" in tex
