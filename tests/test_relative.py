"""Pushforwards, Koszul resolutions, interval chases and the Bott formula."""

import random
from math import comb

import pytest

from conftest import all_scrolls
from scrollcoh import (CohomTable, DivClass, FormalSheaf, H, IndeterminateError, Scroll,
                       SplitBundle, ZERO_SHEAF, atom_rank, chase_bounds, dual_atom,
                       fiber_degree, hook_rank, intersect, koszul_resolution, line_atom,
                       omega_atom, omega_cohomology, pn_omega_cohomology, rel_pushforward,
                       sheaf_chi, sheaf_cohomology, type_sheaf)


def test_pushforward_section_regime():
    S = Scroll((1, 1, 1))
    q0, push = rel_pushforward(S, 1, DivClass(2, -1))
    # hook (1,1) is the second exterior power, degrees all 2, twisted by -1
    assert q0 == 0
    assert push == SplitBundle((1, 1, 1))


def test_pushforward_trace_regime():
    for S in [Scroll((1, 2)), Scroll((1, 1, 2)), Scroll((2, 3, 4, 5))]:
        for b in range(-3, 4):
            q0, push = rel_pushforward(S, 1, DivClass(0, b))
            assert q0 == 1
            assert push == SplitBundle((b,))


def test_pushforward_out_of_range_is_zero():
    S = Scroll((1, 2, 3))
    for p in (-1, S.n + 1, 7):
        q0, push = rel_pushforward(S, p, DivClass(1, 1))
        assert q0 is None and push.is_zero
        assert omega_cohomology(S, p, DivClass(1, 1)).values() == (0,) * (S.n + 2)


def test_fiber_regimes_partition_the_twist_line():
    for n in range(1, 6):
        for p in range(0, n + 1):
            for a in range(-2 * n - 4, 2 * n + 5):
                hits = [a >= p + 1, a == 0, a <= p - n - 1]
                assert sum(hits) <= 1
                q0 = fiber_degree(n, p, a)
                if hits[0]:
                    assert q0 == 0
                elif hits[1]:
                    assert q0 == p
                elif hits[2]:
                    assert q0 == n
                else:
                    assert q0 is None


def test_collapse_to_line_bundles_at_the_ends():
    # p = 0 is the structure sheaf, p = n the relative canonical bundle;
    # both must agree with the three-regime line bundle cohomology
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((1, 2, 3))]:
        for a in range(-S.n - 3, S.n + 4):
            for b in range(-4, 5):
                d = DivClass(a, b)
                assert omega_cohomology(S, 0, d).values() == S.line_cohomology(d).values()
                top = omega_cohomology(S, S.n, d)
                line = S.line_cohomology(d + S.rel_canonical)
                assert top.values() == line.values(), (S.degrees, a, b)


def test_block_cohomology_values():
    S = Scroll((1, 1, 1))
    table = omega_cohomology(S, 1, DivClass.from_pair(1, 2))
    assert table.h(0) == 6
    assert all(table.h(i) == 0 for i in range(1, S.n + 2))
    for T in [Scroll((1, 2)), Scroll((2, 3, 4)), Scroll((1, 1, 2, 2))]:
        for i in range(T.n + 1):
            tab = omega_cohomology(T, i, DivClass.from_pair(i, i + 1))
            assert tab.h(0) == T.c * comb(T.n, i)
            zero = omega_cohomology(T, i, DivClass.from_pair(i - 1, i))
            assert zero.h(0) == 0


def test_relative_serre_duality():
    # h^i(Omega^p(D)) = h^{n+1-i}(Omega^{n-p}(-D - 2F)); this exercises the
    # dual-hook pushforward regime rather than trusting it
    for S in [Scroll((1, 1, 1)), Scroll((1, 2, 3)), Scroll((1, 1, 2, 2))]:
        for p in range(S.n + 1):
            for a in range(-S.n - 2, S.n + 3):
                for b in range(-3, 4):
                    lhs = omega_cohomology(S, p, DivClass(a, b))
                    rhs = omega_cohomology(S, S.n - p, DivClass(-a, -b - 2))
                    for i in range(S.n + 2):
                        assert lhs.h(i) == rhs.h(S.n + 1 - i), (S.degrees, p, a, b)


def test_trace_line_normalisation():
    # chi of Omega^p(bF) pins the degree-p pushforward at twist zero to the
    # trivial line bundle
    for S in all_scrolls(4, 6):
        for p in range(S.n + 1):
            for b in range(-3, 4):
                assert omega_cohomology(S, p, DivClass(0, b)).chi == (-1) ** p * (b + 1)


def test_koszul_resolution_shape():
    S = Scroll((1, 1, 1))
    res = koszul_resolution(S, S.n - 1, DivClass(0, 0))
    assert len(res) == 2  # two-term resolution one step below the top power
    leftmost, second = res
    assert leftmost.terms == ((line_atom(DivClass(-3, 3)), 1),)
    # for an untwisted target the leftmost term is the relative canonical bundle
    assert leftmost.terms[0][0].twist == S.rel_canonical
    assert leftmost.terms[0][0].twist.pair() == (S.c - S.n - 1, -S.n - 1)
    # then the second exterior power of the pullback bundle, twisted by -2H
    assert second.terms == ((line_atom(DivClass(-2, 2)), 3),)
    assert koszul_resolution(S, S.n, DivClass(2, 1)) == []
    with pytest.raises(ValueError):
        koszul_resolution(S, -1, DivClass(0, 0))


def test_koszul_rank_bookkeeping():
    S = Scroll((1, 2, 3, 4))
    n = S.n
    for p in range(n):
        res = koszul_resolution(S, p, DivClass(1, -2))
        ranks = [sum(m for _, m in term.terms) for term in res]
        assert ranks == [comb(n + 1, k) for k in range(n + 1, p, -1)]
        # consecutive splice: ranks of sub and quotient add up to the wedge
        for k in range(p + 1, n + 1):
            assert comb(n, k) + comb(n, k - 1) == comb(n + 1, k)
    assert atom_rank(S, omega_atom(S, 2, DivClass(0, 0))) == comb(n, 2)


def test_koszul_chi_oracle_grid():
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((1, 2, 3)), Scroll((1, 1, 1, 1))]:
        for p in range(S.n):
            for a in range(-S.n - 2, S.n + 3):
                for b in range(-S.c - 2, S.c + 3):
                    div = DivClass(a, b)
                    res = koszul_resolution(S, p, div)
                    alt = sum((-1) ** i * sheaf_chi(S, t) for i, t in enumerate(res))
                    want = (-1) ** (len(res) - 1) * omega_cohomology(S, p, div).chi
                    assert alt == want, (S.degrees, p, a, b)


def test_chase_contains_exact_values():
    rng = random.Random(41)
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((1, 2, 2, 3))]:
        for _ in range(40):
            p = rng.randint(0, S.n - 1)
            div = DivClass(rng.randint(-S.n - 2, S.n + 2), rng.randint(-S.c, S.c))
            bounds = chase_bounds(S, koszul_resolution(S, p, div))
            exact = omega_cohomology(S, p, div)
            assert bounds.chi == exact.chi
            for i in range(S.n + 2):
                lo, hi = bounds.bound(i)
                assert lo <= exact.h(i) <= hi, (S.degrees, p, div, i)


def test_chase_certifies_vanishing_window():
    # intermediate cohomology of the -H twists of the blocks is pinned to an
    # exact zero by the chase alone for nonnegative extra twists
    for S in [Scroll((1, 2)), Scroll((1, 1, 1)), Scroll((1, 2, 3))]:
        for i in range(S.n):
            for t in range(0, S.c + 3):
                div = DivClass.from_pair(i - 1 + t, i + t)
                bounds = chase_bounds(S, koszul_resolution(S, i, div))
                for k in range(1, S.n + 1):
                    assert bounds.bound(k) == (0, 0), (S.degrees, i, t, k)


def test_chase_of_zero_complex():
    S = Scroll((1, 1, 2))
    assert chase_bounds(S, []).values() == (0,) * (S.n + 2)
    assert chase_bounds(S, [ZERO_SHEAF, ZERO_SHEAF]).values() == (0,) * (S.n + 2)


def test_chase_kernel_mode_recovers_line_bundle():
    # coresolve O(-H): 0 -> O(-H) -> O -> O_H -> 0 is not available here, so
    # use a split surrogate: 0 -> X -> A -> B -> 0 with X = ker known exactly
    S = Scroll((1, 2))
    a = FormalSheaf.of(line_atom(H), line_atom(DivClass(0, 2)))
    b = FormalSheaf.of(line_atom(DivClass(0, 2)))
    bounds = chase_bounds(S, [a, b], solve="kernel")
    exact = sheaf_cohomology(S, FormalSheaf.of(line_atom(H)))
    assert bounds.chi == exact.chi
    for i in range(S.n + 2):
        lo, hi = bounds.bound(i)
        assert lo <= exact.h(i) <= hi
    with pytest.raises(ValueError):
        chase_bounds(S, [a], solve="sideways")
    with pytest.raises(ValueError):
        chase_bounds(S, [], solve="sideways")


def test_sheaf_cohomology_additive_and_signed_rejected():
    S = Scroll((1, 1, 1))
    x = FormalSheaf.of(omega_atom(S, 1, DivClass(1, 1)))
    y = FormalSheaf.of(line_atom(DivClass(1, -1)))
    lhs = sheaf_cohomology(S, x + y).values()
    rhs = tuple(u + v for u, v in zip(sheaf_cohomology(S, x).values(),
                                      sheaf_cohomology(S, y).values()))
    assert lhs == rhs
    with pytest.raises(ValueError):
        sheaf_cohomology(S, x.scaled(-1))


def test_pn_bott_dimensions():
    assert pn_omega_cohomology(2, 1, 0).values() == (0, 1, 0)
    # Euler sequence oracle on the plane: h^0(Omega^1(2)) = 3*h^0(O(1)) - h^0(O(2))
    euler = 3 * comb(1 + 2, 2) - comb(2 + 2, 2)
    assert pn_omega_cohomology(2, 1, 2).h(0) == euler == 3
    assert pn_omega_cohomology(3, 1, 2).h(0) == comb(4, 2) == 6
    assert pn_omega_cohomology(3, 2, 0).values() == (0, 0, 1, 0)
    # zero sheaf for out-of-range p, and the empty Bott band
    assert pn_omega_cohomology(3, 5, 2).values() == (0, 0, 0, 0)
    assert pn_omega_cohomology(3, 2, 1).values() == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        pn_omega_cohomology(0, 0, 1)


def test_pn_bott_serre_duality():
    for n in range(1, 5):
        for p in range(0, n + 1):
            for k in range(-n - 3, n + 4):
                lhs = pn_omega_cohomology(n, p, k)
                rhs = pn_omega_cohomology(n, n - p, -k)
                for q in range(n + 1):
                    assert lhs.h(q) == rhs.h(n - q), (n, p, k, q)


def test_pn_bott_matches_hook_rank():
    for n in range(1, 5):
        for p in range(0, n):
            for k in range(p + 1, p + 5):
                zeros = SplitBundle((0,) * (n + 1))
                assert pn_omega_cohomology(n, p, k).h(0) == zeros.hook(k - p, p).rank
                assert zeros.hook(k - p, p).rank == hook_rank(n + 1, k - p, p)


def test_table_intervals_api():
    t = CohomTable(((0, 0), (1, 3)), chi=-2)
    assert not t.is_exact and t.entry_exact(0) and not t.entry_exact(1)
    with pytest.raises(Exception):
        t.h(1)
    assert t.bound(7) == (0, 0)


def test_open_entries_and_disjoint_bounds_raise():
    # values() names the first open entry; tables whose boxes miss each other
    # in some degree have no intersection
    t = CohomTable(((0, 0), (1, 3), (0, 2)), chi=-2)
    with pytest.raises(IndeterminateError, match=r"h\^1 "):
        t.values()
    box = CohomTable(((0, 2), (0, 2)), chi=0)
    with pytest.raises(ValueError):
        intersect(box, CohomTable(((3, 4), (3, 4)), chi=0))


@pytest.mark.parametrize("call", [
    lambda: CohomTable(((2, 1),)),
    lambda: CohomTable(((1, 1), (0, 0)), chi=0),
    lambda: CohomTable.exact((1, 0)).scaled(-1),
    lambda: intersect(CohomTable.exact((1,)), CohomTable.exact((2,))),
    lambda: type_sheaf(Scroll((1, 2)), (1, 1, 1)),
    lambda: type_sheaf(Scroll((1, 2)), (1, -1)),
    lambda: hook_rank(3, 0, 0),
    lambda: Scroll((1,) * 5).line_cohomology(200 * H),
], ids=["lo-above-hi", "chi-mismatch", "scaled-negative", "intersect-chi",
        "type-length", "type-negative", "hook-m-zero", "rank-above-max-summands"])
def test_invalid_library_inputs_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_atom_normal_forms_at_the_ends():
    S = Scroll((1, 1, 2))
    D = DivClass(2, -1)
    assert dual_atom(S, line_atom(D)) == line_atom(-D)
    assert omega_atom(S, -1, D) is None and omega_atom(S, S.n + 1, D) is None
