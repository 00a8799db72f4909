"""Hom and Ext dimensions: exact routes, chases and the Segre closed form."""

import pytest

from conftest import all_scrolls, coresolving_chase_oracle
from scrollcoh import (Atom, CohomTable, DivClass, H, Scroll, build_collections,
                       ext_line_vs_atom, hom_upper_bound, line_atom, omega_atom,
                       omega_cohomology, segre_ext1)


def test_top_pairing_is_one_dimensional():
    # the pairing of the last members of the two collections is the full
    # canonical bundle sitting in the single top degree
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((1, 1, 2, 3))]:
        e, f = build_collections(S)
        top = 2 * S.n + 1
        table = ext_line_vs_atom(S, e[top].atom, e[top].shift, f[top].atom)
        assert table.h(top) == 1
        assert sum(table.values()) == 1
        # and the underlying sheaf really is the canonical bundle
        assert e[top].atom.twist + f[top].atom.twist == S.canonical


def test_ext_of_structure_sheaf():
    S = Scroll((1, 2, 3))
    table = ext_line_vs_atom(S, line_atom(DivClass(0, 0)), 0, line_atom(DivClass(0, 0)))
    assert table.h(0) == 1
    assert sum(table.values()) == 1


def test_ext_line_vs_atom_requires_line_source():
    S = Scroll((1, 1, 1, 1))
    with pytest.raises(ValueError):
        ext_line_vs_atom(S, omega_atom(S, 1, DivClass(0, 0)), 0, line_atom(DivClass(0, 0)))


def test_boundary_and_zero_atoms_are_read_as_omega_atom_builds_them():
    # Omega^n is the line bundle O(D + K_rel) and p outside 0..n the zero
    # sheaf; each of these once raised, in a chase or in the line-source check
    S = Scroll((1, 1, 2))
    K, O = Atom(2, DivClass()), DivClass()
    assert hom_upper_bound(S, K, K).bounds == ((1, 1), (0, 0), (0, 0), (0, 0))
    assert hom_upper_bound(S, K, Atom(1, H)).h(0) == 35
    assert hom_upper_bound(S, K, Atom(1, H)) == hom_upper_bound(
        S, omega_atom(S, 2, O), Atom(1, H))
    assert hom_upper_bound(S, Atom(1, O), Atom(7, O)) == CohomTable.zero(S.n + 2)
    assert hom_upper_bound(S, Atom(-1, O), Atom(-1, O)) == CohomTable.zero(S.n + 2)
    assert ext_line_vs_atom(S, Atom(2, H), 0, Atom(1, H)) == CohomTable.zero(S.n + 2)
    assert ext_line_vs_atom(S, Atom(7, H), 1, Atom(1, H)).values() == (0,) * (S.n + 1)


def test_off_pairing_vanishes():
    for S in [Scroll((1, 2)), Scroll((1, 1, 2))]:
        e, f = build_collections(S)
        for i, em in enumerate(e):
            for j, fm in enumerate(f):
                if i == j:
                    continue
                table = ext_line_vs_atom(S, em.atom, em.shift, fm.atom)
                assert sum(table.values()) == 0, (S.degrees, i, j)


def test_line_vs_line_agrees_with_line_cohomology():
    S = Scroll((1, 2, 2))
    x = line_atom(DivClass(1, -2))
    y = line_atom(DivClass(-1, 3))
    table = hom_upper_bound(S, x, y)
    line = S.line_cohomology(y.twist - x.twist)
    assert table.values() == line.values()


def test_hom_vanishing_between_distinct_block_twists():
    for S in all_scrolls(4, 8):
        for i in range(S.n + 1):
            for j in range(S.n + 1):
                if i == j:
                    continue
                x = omega_atom(S, i, DivClass(i, 0))
                y = omega_atom(S, j, DivClass(j, 0))
                table = hom_upper_bound(S, x, y)
                assert table.bound(0) == (0, 0), (S.degrees, i, j)


def test_hom_vanishing_down_the_dual_collection():
    for S in all_scrolls(4, 8):
        _, f = build_collections(S)
        members = [1] + [2 * t for t in range(1, S.n + 1)]
        for i in members:
            for j in members:
                if i > j:
                    table = hom_upper_bound(S, f[i].atom, f[j].atom)
                    assert table.bound(0) == (0, 0), (S.degrees, i, j)


def test_hom_from_top_line_member_matches_base_computation():
    # Hom(F_{2n}, F_1) is the space of sections of E twisted by -c on the base
    for S in [Scroll((1, 2)), Scroll((1, 1, 2)), Scroll((2, 3, 4))]:
        _, f = build_collections(S)
        table = hom_upper_bound(S, f[2 * S.n].atom, f[1].atom)
        base = S.bundle.twist(-S.c)
        assert table.h(0) == base.h0 == 0


def test_identity_lower_bound():
    S = Scroll((1, 1, 2, 3))
    for atom in [omega_atom(S, 1, DivClass(1, 1)), omega_atom(S, 2, DivClass(2, 0)),
                 line_atom(DivClass(0, 0)), line_atom(DivClass(2, -1))]:
        table = hom_upper_bound(S, atom, atom)
        assert table.lo(0) >= 1, atom


def test_identity_outside_the_chased_bounds_is_refused(monkeypatch):
    # chases that bound Hom(x, x) by zero contradict the identity morphism
    from scrollcoh import homext
    S = Scroll((1, 1, 2, 3))
    x = omega_atom(S, 1, DivClass(1, 1))
    assert not x.is_line
    # the one chase serves both the pair and its Serre mirror
    monkeypatch.setattr(homext, "_chase_resolving_target",
                        lambda *args: CohomTable.zero(S.n + 2))
    with pytest.raises(ValueError, match="identity morphism outside the computed bounds"):
        hom_upper_bound(S, x, x)


def test_independent_chases_agree():
    # the library chase and the coresolving oracle rest on different twist
    # bookkeeping (resolving the target versus coresolving the source's dual);
    # they must pin the same Euler characteristic and intersect to a nonempty
    # bracket everywhere
    from scrollcoh.homext import _chase_resolving_target
    S = Scroll((1, 1, 1, 1, 1))
    for pair in [((1, DivClass(0, 1)), (3, DivClass(-1, 2))),
                 ((2, DivClass(2, 0)), (2, DivClass(1, -1))),
                 ((3, DivClass(-1, 1)), (1, DivClass(1, 2)))]:
        (px, dx), (py, dy) = pair
        x, y = omega_atom(S, px, dx), omega_atom(S, py, dy)
        a = _chase_resolving_target(S, x, y)
        b = coresolving_chase_oracle(S, x, y)
        assert a.chi == b.chi
        for i in range(S.n + 2):
            assert max(a.lo(i), b.lo(i)) <= min(a.hi(i), b.hi(i)), (pair, i)


def test_indeterminate_entries_are_reported_not_guessed():
    # outside the window the chase can certify, entries stay honest
    # intervals that still contain the exact dimension
    S = Scroll((1, 2))
    div = DivClass(-3, 1)
    from scrollcoh import chase_bounds, koszul_resolution, omega_cohomology
    bounds = chase_bounds(S, koszul_resolution(S, 0, div))
    exact = omega_cohomology(S, 0, div)
    assert not bounds.is_exact
    for i in range(S.n + 2):
        lo, hi = bounds.bound(i)
        assert lo <= exact.h(i) <= hi


def test_segre_ext1_values():
    S3 = Scroll((1, 1, 1, 1))
    assert segre_ext1(S3, 2, 0) == 6
    assert segre_ext1(S3, 3, 0) == 8
    assert segre_ext1(S3, 3, 1) == 6
    for i in range(4):
        for j in range(4):
            if i <= j + 1:
                assert segre_ext1(S3, i, j) == 0


def test_segre_ext1_rejects_bad_input():
    with pytest.raises(ValueError):
        segre_ext1(Scroll((1, 2)), 1, 0)
    with pytest.raises(ValueError):
        segre_ext1(Scroll((1, 1, 1)), 3, 0)


def test_segre_ext1_within_engine_bounds():
    for n in range(1, 5):
        S = Scroll((1,) * (n + 1))
        for i in range(n + 1):
            for j in range(n + 1):
                closed = segre_ext1(S, i, j)
                x = omega_atom(S, i, DivClass.from_pair(i - 1, i))
                y = omega_atom(S, j, DivClass.from_pair(j - 1, j))
                table = hom_upper_bound(S, x, y)
                lo, hi = table.bound(1)
                assert lo <= closed <= hi, (n, i, j, closed, (lo, hi))
                if table.entry_exact(1):
                    assert closed == table.h(1), (n, i, j)


def test_line_side_ext_uses_exact_engine():
    # a line-bundle target goes through the dual differential directly
    S = Scroll((1, 1, 2))
    x = omega_atom(S, 1, DivClass(1, 0))
    y = line_atom(DivClass(-1, 1))
    table = hom_upper_bound(S, x, y)
    assert table.is_exact
    direct = omega_cohomology(S, S.n - 1, DivClass(-1, 1) - DivClass(1, 0)
                              - S.rel_canonical)
    assert table.values() == direct.values()
