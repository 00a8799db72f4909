"""Scroll descriptors, divisor conventions and line bundle cohomology."""

import random

import pytest

from conftest import all_scrolls, line_cohomology_oracle
from scrollcoh import (DivClass, F, H, Scroll, block, deg_H, deg_slope,
                       line_atom, FormalSheaf, line_cohomology, omega_cohomology)


def test_make_scroll_sorts_and_derives():
    S = Scroll((2, 1))
    assert S.degrees == (1, 2)
    assert (S.n, S.c, S.dim, S.ambient_dim) == (1, 3, 2, 4)
    segre = Scroll((1, 1, 1))
    assert (segre.n, segre.c) == (2, 3)


def test_make_scroll_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Scroll((0, 2))
    with pytest.raises(ValueError):
        Scroll((-1, 2, 3))
    with pytest.raises(ValueError):
        Scroll(())
    with pytest.raises(ValueError):
        Scroll((3,))


def test_pair_conversion():
    assert DivClass.from_pair(1, 0) == F
    assert DivClass.from_pair(1, 1) == H
    assert DivClass(3, -2).pair() == (1, 3)
    S = Scroll((1, 1, 2))
    assert S.canonical.pair() == (S.c - S.n - 3, -(S.n + 1))
    # the two forms are inverse bijections
    rng = random.Random(3)
    for _ in range(50):
        d = DivClass(rng.randint(-9, 9), rng.randint(-9, 9))
        assert DivClass.from_pair(*d.pair()) == d


def test_divisor_arithmetic_and_str():
    assert H + F == DivClass(1, 1)
    assert -(2 * H - F) == DivClass(-2, 1)
    assert str(DivClass(2, -1)) == "2H-F"
    assert str(DivClass(0, 0)) == "0"
    assert str(DivClass(-1, 3)) == "-H+3F"


def test_scroll_h_reads_one_entry_of_the_table():
    S = Scroll((1, 2))
    for div in (H, 2 * H - F, -3 * H, DivClass(-1, -4)):
        table = S.line_cohomology(div)
        assert [S.h(div, i) for i in range(S.n + 2)] == list(table.values())


def test_line_cohomology_hyperplane():
    S = Scroll((1, 2))
    assert S.line_cohomology(H).values() == (5, 0, 0)
    # and h^0(O(H)) = c + n + 1 is the ambient dimension plus one
    for T in [Scroll((1, 1, 1)), Scroll((2, 3, 4, 5))]:
        assert T.line_cohomology(H).h(0) == T.c + T.n + 1


def test_line_cohomology_matches_sym_oracle():
    # the pushforward engine at p = 0 and at p = n (O(D) = Omega^n(D - K_rel))
    # against the Sym^a E(b) formula enumerated multiset by multiset
    for S in all_scrolls(3, 7):
        for a in range(-S.n - 4, S.n + 5):
            for b in range(-S.c - 3, S.c + 4):
                d = DivClass(a, b)
                want = line_cohomology_oracle(S, d)
                assert line_cohomology(S, d).values() == want, (S.degrees, a, b)
                assert omega_cohomology(S, 0, d).values() == want, (S.degrees, a, b)
                top = omega_cohomology(S, S.n, d - S.rel_canonical)
                assert top.values() == want, (S.degrees, a, b)


def test_line_cohomology_middle_regime_vanishes():
    for S in [Scroll((1, 2)), Scroll((1, 1, 2)), Scroll((2, 2, 3, 3))]:
        for a in range(-S.n, 0):
            for b in range(-S.c - 2, S.c + 3):
                table = S.line_cohomology(DivClass(a, b))
                assert table.values() == (0,) * (S.n + 2)


def test_line_cohomology_canonical():
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((1, 2, 3, 4))]:
        table = S.line_cohomology(S.canonical)
        expected = [0] * (S.n + 2)
        expected[S.n + 1] = 1
        assert table.values() == tuple(expected)


def test_chi_examples():
    S = Scroll((1, 2))
    assert S.chi(DivClass(0, 0)) == 1
    assert S.chi(H) == 5
    for T in [Scroll((1, 1)), Scroll((1, 1, 2)), Scroll((1, 2, 3, 4))]:
        assert T.chi(T.canonical) == (-1) ** (T.n + 1)


def test_serre_duality_sweep():
    rng = random.Random(97)
    for S in all_scrolls(4, 7):
        omega = S.canonical
        for _ in range(60):
            d = DivClass(rng.randint(-S.n - 3, S.n + 3), rng.randint(-S.c - 3, S.c + 3))
            lhs = S.line_cohomology(d)
            rhs = S.line_cohomology(omega - d)
            for i in range(S.n + 2):
                assert lhs.h(i) == rhs.h(S.n + 1 - i), (S.degrees, d, i)


def test_chi_is_polynomial_of_bounded_degree():
    # finite differences of total order n+2 of chi(aH+bF) must vanish
    for S in [Scroll((1, 2)), Scroll((1, 1, 2)), Scroll((1, 2, 2, 3))]:
        order = S.n + 2

        def chi(a, b):
            return S.chi(DivClass(a, b))

        def diff_a(fn):
            return lambda a, b: fn(a + 1, b) - fn(a, b)

        def diff_b(fn):
            return lambda a, b: fn(a, b + 1) - fn(a, b)

        for s in range(order + 1):
            fn = chi
            for _ in range(s):
                fn = diff_a(fn)
            for _ in range(order - s):
                fn = diff_b(fn)
            for a in range(-2, 3):
                for b in range(-2, 3):
                    assert fn(a, b) == 0, (S.degrees, s, a, b)


def test_regime_boundary_matches_base_line():
    for S in [Scroll((1, 2)), Scroll((1, 1, 1, 1))]:
        for b in range(-4, 5):
            table = S.line_cohomology(DivClass(0, b))
            assert table.h(0) == max(b + 1, 0)
            assert table.h(1) == max(-b - 1, 0)
            assert all(table.h(i) == 0 for i in range(2, S.n + 2))


def test_deg_and_slope():
    for S in all_scrolls(3, 7):
        assert deg_H(S, H) == S.c
        for i in range(S.n + 1):
            rank, c1, deg, slope = deg_slope(S, block(S, i))
            assert slope == S.c - 1, (S.degrees, i)
    S = Scroll((1, 2))
    rank, c1, deg, slope = deg_slope(S, block(S, 0))
    assert (rank, deg) == (1, 2)  # c - 1 on the cubic surface scroll


def test_deg_slope_additive_and_rank_zero():
    S = Scroll((1, 1, 2))
    a = block(S, 0)
    b = block(S, 1)
    ra, _, da, _ = deg_slope(S, a)
    rb, _, db, _ = deg_slope(S, b)
    rab, _, dab, _ = deg_slope(S, a + b)
    assert (rab, dab) == (ra + rb, da + db)
    with pytest.raises(ValueError):
        deg_slope(S, FormalSheaf())
    # a signed combination of two line bundles has rank zero: no slope
    signed = FormalSheaf.of(line_atom(H)) + FormalSheaf.of(line_atom(F)).scaled(-1)
    with pytest.raises(ValueError):
        deg_slope(S, signed)
