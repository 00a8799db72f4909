"""Property tests beyond the fixed sweeps: the hook convolution against
tableaux enumerated one by one, against the dict-based convolution and
against the closed forms of its rank, total degree and extreme degrees, Serre
duality of the pushforward engine on generated scrolls and across the two
line-bundle sides of hom_upper_bound, Ext tables against the shifted
cohomology table they are read from, the Bott dimensions on projective
space, chase intervals around the exact values, the classification round
trip, the arithmetic of dimension tables, their tightening against the
integer points it must keep, and the split-bundle constructor, cohomology,
twist and dual against their per-summand formulas, and the bundles the
calculus builds against the constructor's normal form."""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_hook_degrees, brute_sym_degrees, dict_hook_sums
from scrollcoh import (Atom, CohomTable, DivClass, Scroll, SplitBundle, chase_bounds,
                       classify, ext_line_vs_atom, hom_upper_bound, hook_rank,
                       koszul_resolution, line_atom, omega_atom, omega_cohomology,
                       intersect, pn_omega_cohomology, type_sheaf)
from scrollcoh.p1 import _expand, _hook_sums, _pairs

# n <= 4 and splitting degrees <= 4
scrolls = st.lists(st.integers(1, 4), min_size=2, max_size=5).map(Scroll)
twists = st.integers(-8, 8)


@given(scrolls, st.data(), twists, twists)
def test_omega_serre_duality(S, data, a, b):
    # h^i(Omega^p(D)) = h^{n+1-i}(Omega^{n-p}(-D - 2F)) on the scroll
    p = data.draw(st.integers(0, S.n))
    lhs = omega_cohomology(S, p, DivClass(a, b))
    rhs = omega_cohomology(S, S.n - p, DivClass(-a, -b - 2))
    assert lhs.values() == tuple(rhs.h(S.n + 1 - i) for i in range(S.n + 2))


@given(scrolls, st.data(), twists, twists, twists, twists)
def test_ext_line_vs_atom_reads_the_shifted_table(S, data, a, b, c, d):
    # Ext^k(O(-D)[-shift], Omega^p(D')) = h^{k+shift}(Omega^p(D + D')), zero
    # below degree 0, for shifts on both sides of zero and past either end
    p = data.draw(st.integers(0, S.n))
    shift = data.draw(st.integers(-(2 * S.n + 3), S.n + 3))
    source, target = line_atom(DivClass(a, b)), Atom(p, DivClass(c, d))
    coh = omega_cohomology(S, p, DivClass(a + c, b + d))
    want = tuple(coh.h(k + shift) for k in range(S.n + 2 - shift))
    assert ext_line_vs_atom(S, source, shift, target).values() == want


@given(scrolls, st.data(), twists, twists, twists, twists)
def test_hom_with_a_line_bundle_is_serre_dual_across_the_two_line_sides(S, data, a, b, c, d):
    # Ext^k(L, A) = Ext^{n+1-k}(A, L + K)^*: the line source on the left and the
    # line target on the right reach the same atom with both signs of the rule
    L = line_atom(DivClass(a, b))
    A = omega_atom(S, data.draw(st.integers(0, S.n)), DivClass(c, d))
    dual = hom_upper_bound(S, A, line_atom(L.twist + S.canonical))
    assert hom_upper_bound(S, L, A).values() == tuple(reversed(dual.values()))


def _tableaux(n, m, r):
    return len(brute_hook_degrees((0,) * (n + 1), m, r))


@given(st.integers(1, 4), st.data(), twists)
def test_pn_bott_counts_hook_tableaux(n, data, k):
    p = data.draw(st.integers(0, n))
    want = [0] * (n + 1)
    if k >= p + 1:
        want[0] = _tableaux(n, k - p, p)
    elif k == 0:
        want[p] = 1
    elif k <= p - n - 1:
        want[n] = _tableaux(n, -k - (n - p), n - p)
    assert pn_omega_cohomology(n, p, k).values() == tuple(want)


@given(st.integers(1, 4), st.data(), twists)
def test_pn_bott_symmetry(n, data, k):
    # h^q(Omega^p(k)) = h^{n-q}(Omega^{n-p}(-k)) on P^n
    p = data.draw(st.integers(0, n))
    lhs = pn_omega_cohomology(n, p, k)
    rhs = pn_omega_cohomology(n, n - p, -k)
    assert lhs.values() == tuple(rhs.h(n - q) for q in range(n + 1))


degree_lists = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(lambda d: tuple(sorted(d)))


# unsorted degrees on both sides of the h^0 / h^1 boundary (-1 has neither),
# booleans among them, the empty bundle included
raw_degrees = st.lists(st.one_of(st.integers(-6, 4), st.booleans()), max_size=8)


@example([], 0)
@example([1, -3, 0, -1, -2, 1], -1)
@example([True, -2, False, True], 2)
@given(raw_degrees, st.integers(-5, 5))
def test_split_bundle_matches_per_summand_formulas(x, b):
    want = sorted(int(d) for d in x)
    B = SplitBundle(x)
    assert B.degrees == tuple(want)
    assert all(type(d) is int for d in B.degrees)
    assert B.h(0) == B.h0 == sum(d + 1 for d in want if d >= 0)
    assert B.h(1) == B.h1 == sum(-d - 1 for d in want if d <= -2)
    assert B.h(2) == 0
    assert B.twist(b).degrees == tuple(sorted(d + b for d in want))
    assert B.dual().degrees == tuple(sorted(-d for d in want))


@given(raw_degrees, st.one_of(st.integers(-5, 5), st.booleans()), st.integers(1, 4),
       st.lists(st.integers(1, 5), min_size=2, max_size=5), st.data())
def test_built_bundles_are_what_the_constructor_makes(x, b, m, scroll_degrees, data):
    # hook, sym, wedge, twist, dual and Scroll.bundle set their degrees without
    # the constructor's sort and int reads, so each result must already be its
    # normal form: equal to, hashing and ordering as the constructor's result
    # on the same degrees given in reverse
    B = SplitBundle(x)
    p = data.draw(st.integers(0, B.rank))
    k = data.draw(st.integers(0, B.rank + 1))
    hook = B.hook(m, p)
    built = [B.twist(b), B.dual(), hook, hook.twist(b), hook.twist(b).dual(), B.sym(k), B.wedge(k),
             Scroll(scroll_degrees).bundle]
    for C in built:
        want = SplitBundle(C.degrees[::-1])
        assert C == want and hash(C) == hash(want) and C._key == want._key
        assert not C < want and not want < C and (C < B) == (want < B)
        assert type(C.degrees) is tuple and list(C.degrees) == sorted(C.degrees)
        assert all(type(d) is int for d in C.degrees)


@given(degree_lists, st.integers(1, 6), st.data())
def test_hook_sums_count_tableaux(degs, m, data):
    p = data.draw(st.integers(0, len(degs)))
    assert _expand(_hook_sums(degs, m, p)) == brute_hook_degrees(degs, m, p)


# letters in any order, spread wide, so the packed slots sit far apart
@given(st.lists(st.integers(-300, 300), min_size=1, max_size=7).map(tuple),
       st.integers(1, 12), st.data())
def test_packed_hook_sums_match_the_dict_convolution(degs, m, data):
    p = data.draw(st.integers(0, len(degs)))
    assert tuple(_pairs(_hook_sums(degs, m, p))) == dict_hook_sums(degs, m, p)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6).map(lambda d: tuple(sorted(d))),
       st.integers(1, 8), st.data())
def test_hook_sums_closed_forms(degs, m, data):
    # the hook (m, 1^r) of sorted letters a_0..a_n: hook_rank tableaux, every
    # letter equally frequent, least tableau m*a_0 + a_1 + ... + a_r and
    # greatest (m-1)*a_n + a_{n-r} + ... + a_n
    n = len(degs) - 1
    r = data.draw(st.integers(0, n))
    pairs = list(_pairs(_hook_sums(degs, m, r)))
    rank = hook_rank(n + 1, m, r)
    assert sum(count for _, count in pairs) == rank
    assert (n + 1) * sum(d * count for d, count in pairs) == (m + r) * rank * sum(degs)
    assert pairs[0][0] == m * degs[0] + sum(degs[1:r + 1])
    assert pairs[-1][0] == (m - 1) * degs[-1] + sum(degs[n - r:])


@given(degree_lists.filter(lambda d: len(d) >= 2), st.integers(1, 5), st.data())
def test_pieri_identity(degs, m, data):
    # sym(m) (x) wedge(p) = hook(m, p) (+) hook(m+1, p-1) as multisets
    B = SplitBundle(degs)
    p = data.draw(st.integers(1, B.rank - 1))
    assert B.sym(m).tensor(B.wedge(p)) == B.hook(m, p) + B.hook(m + 1, p - 1)


@given(degree_lists, st.data())
def test_sym_and_wedge_at_the_ends(degs, data):
    B = SplitBundle(degs)
    beyond = data.draw(st.integers(B.rank + 1, B.rank + 4))
    assert B.sym(0).degrees == B.wedge(0).degrees == (0,)
    assert B.wedge(beyond).is_zero
    assert B.sym(beyond).degrees == brute_sym_degrees(degs, beyond)


@settings(deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4).map(Scroll), st.data())
def test_classify_recovers_the_type(S, data):
    t = tuple(data.draw(st.lists(st.integers(0, 2), min_size=S.n + 1, max_size=S.n + 1)
                        .filter(any)))
    assert classify(S, sheaf=type_sheaf(S, t)) == t


@settings(deadline=None)
@given(scrolls, st.data(), twists, twists)
def test_chase_bounds_contain_the_exact_value(S, data, a, b):
    # the Koszul resolution of Omega^p(D), p < n, chased to its cokernel
    p = data.draw(st.integers(0, S.n - 1))
    div = DivClass(a, b)
    exact = omega_cohomology(S, p, div)
    bounds = chase_bounds(S, koszul_resolution(S, p, div))
    assert bounds.chi == exact.chi
    assert all(bounds.lo(i) <= exact.h(i) <= bounds.hi(i) for i in range(S.n + 2))


dims = st.lists(st.integers(0, 50), min_size=1, max_size=6)


@given(dims, dims, st.integers(0, 5))
def test_cohom_table_arithmetic(x, y, k):
    a, b = CohomTable.exact(x), CohomTable.exact(y)
    assert a.is_exact and a.values() == tuple(x)
    assert a.chi == sum((-1) ** i * v for i, v in enumerate(x))
    total = a + b
    assert total.is_exact and total.chi == a.chi + b.chi
    assert all(total.h(i) == a.lo(i) + b.lo(i) for i in range(max(len(x), len(y))))
    assert a.scaled(k) == CohomTable.exact([k * v for v in x])


def _projection(bounds, chi):
    # per entry, the least and greatest value over the integer points of the
    # box on sum (-1)^i h^i = chi; None when there is no such point
    points = [h for h in product(*(range(lo, hi + 1) for lo, hi in bounds))
              if sum(h[::2]) - sum(h[1::2]) == chi]
    if not points:
        return None
    return tuple((min(col), max(col)) for col in zip(*points))


boxes = (st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).map(sorted).map(tuple),
                  min_size=1, max_size=5)
         .filter(lambda b: any(lo < hi for lo, hi in b)))


@settings(deadline=None)
@given(boxes, st.data())
def test_tightening_is_the_projection_on_the_chi_hyperplane(bounds, data):
    # chi drawn around the box's range of alternating sums, so that both
    # consistent and inconsistent tables occur
    least = sum(lo for lo, _ in bounds[::2]) - sum(hi for _, hi in bounds[1::2])
    most = sum(hi for _, hi in bounds[::2]) - sum(lo for lo, _ in bounds[1::2])
    chi = data.draw(st.integers(least - 2, most + 2))
    table = CohomTable(tuple(bounds), chi)
    want = _projection(bounds, chi)
    if want is None:
        with pytest.raises(ValueError):
            intersect(table, table)
    else:
        assert intersect(table, table).bounds == want
