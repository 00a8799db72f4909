"""Property tests beyond the fixed sweeps: the hook convolution against
tableaux enumerated one by one, against the dict-based convolution and
against the closed forms of its rank, total degree and extreme degrees, Serre
duality of the pushforward engine on generated scrolls, its tables against
the h^0 and h^1 of the pushforward it reads and against those read off the
untwisted hook at a shifted sign boundary, and that pushforward against the
Bott regimes with enumerated tableaux, across the two line-bundle sides of
hom_upper_bound and across its Koszul chase and that chase's Serre mirror,
the Serre read of sheaf_cohomology against omega_cohomology read directly,
the coresolving oracle against the resolving chase of its Serre dual pair,
Hom and Ext of boundary and zero atoms against their omega_atom twins, Hom
bounds against those of the pair twisted by a common divisor, the homvanish
suite against a direct Hom bound of each pair it checks, the Kronecker report
on random collections against a brute-force oracle in every degree, the
Koszul and chase terms against the constructor's normal form, the checked
size of a packed convolution against the integers it holds, Ext tables
against the shifted cohomology table they are read from, the Bott dimensions
on projective space, chase intervals around the exact values, each chase
step over a zero middle term against the shift it must be, the
classification round trip, the arithmetic of dimension tables, their
tightening against the integer points it must keep, and the split-bundle
constructor, cohomology, twist and dual against their per-summand formulas,
Serre duality on the line, the bundles and twisted sheaves the calculus
builds against the constructor's normal form, the answers to a batch of
queries with warm caches against those from cold ones, and the profile reader
against the JSON shape it accepts."""

from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (brute_hook_degrees, brute_sym_degrees, coresolving_chase_oracle,
                      dict_hook_sums, kernel_step)
from scrollcoh import (Atom, CohomTable, CollectionMember, DivClass, FormalSheaf,
                       Scroll, SplitBundle, chase_bounds, classify, duality_report,
                       dual_atom, hom_upper_bound, hook_rank,
                       koszul_resolution, line_atom, line_cohomology, omega_atom,
                       omega_cohomology, intersect, pn_omega_cohomology, rel_pushforward,
                       sheaf_cohomology, solve_quotient, type_sheaf)
from scrollcoh import homext, p1, verify
from scrollcoh.beilinson import _profile_entries
from scrollcoh.p1 import _expand, _hook_sums, _pairs
from test_cli import _clear_package_caches

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


def _atom_sums(S):
    # p in -1..n+1: both sides of the middle, Omega^n and zero atoms
    atoms = st.builds(lambda p, a, b: Atom(p, DivClass(a, b)),
                      st.integers(-1, S.n + 1), twists, twists)
    return st.tuples(st.just(S), st.lists(st.tuples(atoms, st.integers(1, 3)),
                                          max_size=4).map(FormalSheaf))


@settings(deadline=None)
@example((Scroll((1, 1, 1, 2)), FormalSheaf(((Atom(2, DivClass(3, -2)), 2),
                                             (Atom(1, DivClass(-2, 1)), 1)))))
@given(scrolls.flatmap(_atom_sums))
def test_sheaf_cohomology_reads_each_atom_as_omega_cohomology(case):
    # atoms with 2p > n are read off their Serre duals, reversed; the sum must
    # be what omega_cohomology gives each atom read directly
    S, sheaf = case
    want = [0] * (S.n + 2)
    for atom, mult in sheaf.terms:
        for i, v in enumerate(omega_cohomology(S, atom.p, atom.twist).values()):
            want[i] += mult * v
    assert sheaf_cohomology(S, sheaf).values() == tuple(want)


def _pushforward_oracle(S, p, a, b):
    """(q0, P) from the fibrewise Bott regimes, the hook tableaux enumerated
    one by one: sections at a >= p + 1, the trace line at a = 0 and the dual
    of the complementary hook twisted by -b at a <= p - n - 1."""
    n = S.n
    if a >= p + 1:
        return 0, SplitBundle([b + d for d in brute_hook_degrees(S.degrees, a - p, p)])
    if a == 0:
        return p, SplitBundle((b,))
    if a <= p - n - 1:
        return n, SplitBundle([b - d for d in brute_hook_degrees(S.degrees, -a - (n - p), n - p)])
    return None, SplitBundle()


@example(Scroll((1, 2, 3)), -4, 2)  # top regime, h = (0, 0, 0, 75) at p = 1
@example(Scroll((1, 4)), -3, 7)  # top regime at p = 0, h = (0, 2, 1)
@given(scrolls, twists, twists)
def test_omega_cohomology_reads_the_pushforward(S, a, b):
    # Leray over the line: h^{q0}, h^{q0+1} are h^0, h^1 of the one surviving
    # pushforward, which the top regime reads through Serre duality on the line
    D = DivClass(a, b)
    for p in range(S.n + 1):
        q0, P = rel_pushforward(S, p, D)
        assert (q0, P) == _pushforward_oracle(S, p, a, b)
        want = [0] * (S.n + 2)
        if q0 is not None:
            want[q0], want[q0 + 1] = P.h0, P.h1
        assert omega_cohomology(S, p, D).values() == tuple(want)


# the largest m = |a| - p or |a| - (n - p) of the pushforward benchmark's
# twists on scrolls of each n, whose fibre twists b span 3 * c either way
_HOOK_M = {1: 60, 2: 60, 3: 30, 4: 20, 5: 12}


def _h0_h1_off(dist, shift):
    # h^0 and h^1 of the split bundle of these degree counts twisted by
    # shift, read at the sign boundary moved by -shift, with no twist built
    pairs = list(_pairs(dist))
    return (sum(c * (d + shift + 1) for d, c in pairs if d >= -shift),
            sum(c * (-d - shift - 1) for d, c in pairs if d <= -shift - 2))


@settings(deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=6).map(Scroll), st.data())
def test_omega_cohomology_reads_the_untwisted_hook(S, data):
    # a second route to the Leray table: the hook's degree counts, untwisted,
    # read at a sign boundary shifted by the fibre twist b (by -b - 2 in the
    # top regime, whose h^n and h^{n+1} are h^1 and h^0 by Serre duality on
    # the line); the trace line is the unit distribution shifted by b
    n = S.n
    p = data.draw(st.integers(0, n), label="p")
    m = data.draw(st.integers(1, _HOOK_M[n]), label="m")
    span = 3 * S.c
    b = data.draw(st.integers(-span, span), label="b")
    regime = data.draw(st.sampled_from(["sections", "trace", "top"]), label="regime")
    if regime == "sections":
        a, q0, dist, shift = m + p, 0, _hook_sums(S.degrees, m, p), b
    elif regime == "trace":
        a, q0, dist, shift = 0, p, p1._UNIT, b
    else:
        a, q0, dist, shift = -m - (n - p), n, _hook_sums(S.degrees, m, n - p), -b - 2
    h0, h1 = _h0_h1_off(dist, shift)
    want = [0] * (n + 2)
    want[q0], want[q0 + 1] = (h1, h0) if regime == "top" else (h0, h1)
    assert omega_cohomology(S, p, DivClass(a, b)).values() == tuple(want)


@given(scrolls, st.data(), twists, twists, twists, twists)
def test_hom_from_a_dual_line_reads_the_twisted_table(S, data, a, b, c, d):
    # Ext^k(O(-D), Omega^p(D')) = h^k(Omega^p(D + D')) for p in 0..n, the
    # table the Kronecker check places by each member's shift
    p = data.draw(st.integers(0, S.n))
    source, target = line_atom(DivClass(a, b)), Atom(p, DivClass(c, d))
    want = omega_cohomology(S, p, DivClass(a + c, b + d))
    assert hom_upper_bound(S, dual_atom(S, source), target) == want


@given(scrolls, st.data(), twists, twists, twists, twists)
def test_hom_with_a_line_bundle_is_serre_dual_across_the_two_line_sides(S, data, a, b, c, d):
    # Ext^k(L, A) = Ext^{n+1-k}(A, L + K)^*: the line source on the left and the
    # line target on the right reach the same atom with both signs of the rule
    L = line_atom(DivClass(a, b))
    A = omega_atom(S, data.draw(st.integers(0, S.n)), DivClass(c, d))
    dual = hom_upper_bound(S, A, line_atom(L.twist + S.canonical))
    assert hom_upper_bound(S, L, A).values() == tuple(reversed(dual.values()))


@settings(deadline=None)
@given(st.lists(st.integers(1, 3), min_size=3, max_size=6).map(Scroll), st.data(),
       twists, twists, twists, twists)
def test_hom_between_differentials_is_serre_dual_across_the_two_chases(S, data, a, b, c, d):
    # Ext^k(s, t) = Ext^{n+1-k}(t, s(K))^*: with 1 <= p, q <= n-1 both pairs
    # are bracketed by the chases, so the bounds must agree read top-down; the
    # identity bound, which only one side would get, is kept out
    s = Atom(data.draw(st.integers(1, S.n - 1)), DivClass(a, b))
    t = Atom(data.draw(st.integers(1, S.n - 1)), DivClass(c, d))
    s_k = Atom(s.p, s.twist + S.canonical)
    assume(s != t and t != s_k)
    table, dual = hom_upper_bound(S, s, t), hom_upper_bound(S, t, s_k)
    assert dual.bounds == tuple(reversed(table.bounds))
    assert dual.chi == (-1) ** (S.n + 1) * table.chi


@settings(deadline=None)
@example(Scroll((1, 1, 2)), 1, 1, 0, 0, 0, 0)
@example(Scroll((1, 1, 3)), 1, 1, 0, 0, -1, 1)
@given(st.lists(st.integers(1, 3), min_size=3, max_size=5).map(Scroll), st.integers(1, 4),
       st.integers(1, 4), twists, twists, twists, twists)
def test_coresolving_chase_is_the_serre_dual_resolving_chase(S, p, q, a, b, c, d):
    # the mirror hom_upper_bound reads, chase by chase rather than on the
    # intersected tables: the coresolving oracle of (s, t) is the resolving
    # chase of (t, s(K)) read top-down, chi times (-1)^(n+1)
    s = Atom(min(p, S.n - 1), DivClass(a, b))
    t = Atom(min(q, S.n - 1), DivClass(c, d))
    table = coresolving_chase_oracle(S, s, t)
    dual = homext._chase_resolving_target(S, t, Atom(s.p, s.twist + S.canonical))
    assert dual.bounds == tuple(reversed(table.bounds))
    assert dual.chi == (-1) ** (S.n + 1) * table.chi


def _boundary_p(S):
    # Omega^n, or a p outside 0..n
    return st.one_of(st.just(S.n), st.integers(-3, -1), st.integers(S.n + 1, S.n + 3))


@settings(deadline=None)
@given(scrolls, st.data(), twists, twists, twists, twists)
def test_hom_reads_boundary_and_zero_atoms_as_their_omega_atom_twins(S, data, a, b, c, d):
    # one side Omega^n or zero, the other anything; the twins are the line
    # bundle O(D + K_rel) and None, the zero sheaf with the zero table
    p, q = data.draw(_boundary_p(S)), data.draw(st.integers(-2, S.n + 2))
    if data.draw(st.booleans()):
        p, q = q, p
    source, target = Atom(p, DivClass(a, b)), Atom(q, DivClass(c, d))
    twins = omega_atom(S, p, source.twist), omega_atom(S, q, target.twist)
    want = CohomTable.zero(S.n + 2) if None in twins else hom_upper_bound(S, *twins)
    assert hom_upper_bound(S, source, target) == want


@settings(deadline=None)
@given(scrolls, st.data(), twists, twists, twists, twists, twists, twists)
def test_hom_bounds_depend_only_on_the_twist_difference(S, data, a, b, c, d, u, v):
    # Hom(A(L), B(L)) = Hom(A, B) for every pair, boundary and zero atoms and
    # the Koszul chase and its Serre mirror included
    p, q = (data.draw(st.integers(-1, S.n + 1)) for _ in range(2))
    D, E, L = DivClass(a, b), DivClass(c, d), DivClass(u, v)
    assert (hom_upper_bound(S, Atom(p, D + L), Atom(q, E + L))
            == hom_upper_bound(S, Atom(p, D), Atom(q, E)))


@settings(deadline=None)
@given(scrolls)
def test_homvanish_reads_each_pair_as_its_own_hom_bound(S):
    # the Hom(F_i, F_j) pairs reuse the first family's tables, so n(n + 1)
    # chases answer all 3n(n + 1)/2 pairs, each reported under its own tag
    pairs = list(verify.required_hom_pairs(S))
    failures = [{"pair": tag, "bound": list(table.bound(0))}
                for x, y, tag in pairs if (table := hom_upper_bound(S, x, y)).hi(0) != 0]
    with mock.patch.object(verify, "hom_upper_bound", wraps=hom_upper_bound) as chase:
        got = verify.homvanish(S)
    assert got == (not failures, {"checked": len(pairs), "failures": failures})
    assert chase.call_count == S.n * (S.n + 1)


def _kronecker_oracle(S, e, f):
    # every (i, j, k, dim) with dim Ext^k(E_i, F_j) = h^{k + k_i}(L_i x F_j)
    # off the Kronecker delta, over every degree either side can reach
    found = []
    for i, em in enumerate(e):
        line = omega_atom(S, em.atom.p, em.atom.twist)
        for j, fm in enumerate(f):
            target = omega_atom(S, fm.atom.p, fm.atom.twist)
            coh = (CohomTable.zero(S.n + 2) if None in (line, target)
                   else omega_cohomology(S, target.p, target.twist + line.twist))
            for k in range(-3 * S.n - 8, 3 * S.n + 8):
                dim = coh.h(k + em.shift)
                if dim != (1 if i == j == k else 0):
                    found.append((i, j, k, dim))
    return found


def _collection(data, ps, shifts):
    members = st.builds(CollectionMember, st.builds(Atom, ps, small_divs), shifts)
    return tuple(data.draw(st.lists(members, min_size=1, max_size=4)))


@settings(deadline=None)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=4).map(Scroll), st.data())
def test_duality_report_is_the_kronecker_oracle(S, data):
    # line, Omega^n and zero sources at any shift against any targets: the
    # report lists exactly the oracle's violations, in every degree k
    e = _collection(data, st.sampled_from((-1, 0, S.n, S.n + 1)),
                    st.integers(-(S.n + 3), S.n + 3))
    f = _collection(data, st.integers(-1, S.n + 1), st.just(0))
    report = duality_report(S, e, f)
    want = _kronecker_oracle(S, e, f)
    assert report.violations == tuple(want)
    assert report.passed == (not want)


@settings(deadline=None)
@example((1, 2, 4), 1, 1, 0, 0, 1, 0)
@given(st.lists(st.integers(1, 4), min_size=3, max_size=5), st.integers(1, 3),
       st.integers(1, 3), twists, twists, twists, twists)
def test_koszul_and_chase_terms_are_what_the_constructor_makes(degrees, p, q, a, b, c, d):
    # both build their terms without the constructor's merge and sort, so
    # every term must already be the constructor's normal form
    S = Scroll(degrees)
    source = Atom(min(p, S.n - 1), DivClass(a, b))
    target = Atom(min(q, S.n - 1), DivClass(c, d))
    seen = list(koszul_resolution(S, source.p, source.twist))

    def recording(scroll, terms):
        seen.extend(terms)
        return chase_bounds(scroll, terms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homext, "chase_bounds", recording)
        hom_upper_bound(S, source, target)
    assert len(seen) > len(koszul_resolution(S, source.p, source.twist))
    for term in seen:
        want = FormalSheaf(term.terms)
        assert term == want and hash(term) == hash(want) and term._key == want._key


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
    # Serre duality on the line, h^i(B^v) = h^{1-i}(B(-2)), zero outside i = 0, 1
    for i in range(-1, 3):
        assert B.dual().h(i) == B.twist(-2).h(1 - i)


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


# letters with repeated degrees, all equal among them, so that the row and
# column counts pass the output's slot width
@given(st.one_of(st.lists(st.integers(-3, 3), min_size=1, max_size=16).map(tuple),
                 st.tuples(st.integers(-3, 3), st.integers(1, 16)).map(lambda t: (t[0],) * t[1])),
       st.integers(1, 4), st.integers(0, 15))
@example((0,) * 11, 1, 10)  # the top wedge, of rank 1, with 462 column sets of 5
def test_checked_size_bounds_every_packed_integer(degs, m, p):
    # the work MAX_WORK checks is letters * (m + p) * size, size bytes bounding
    # every packed integer of _hook_sums; none decreases, so the final rows
    # (Sym^k, k < m), columns (Wedge^j, j <= p) and output are the largest
    p = min(p, len(degs) - 1)
    checked = {}
    with mock.patch.object(p1, "_check_limit",
                           lambda what, count, name, limit: checked.setdefault(name, count)):
        w = p1._check_slots(len(degs), m, p, max(degs) - min(degs))
    size = checked["MAX_WORK"] // (len(degs) * (m + p))
    low, width, out = _hook_sums(degs, m, p)
    assert width == w and low == (m + p) * min(degs)

    def packed(k, pairs):
        return sum(c << 8 * w * (d - k * min(degs)) for d, c in pairs)

    held = [packed(k, dict_hook_sums(degs, k, 0)) for k in range(1, m)]
    held += [packed(j, dict_hook_sums(degs, 1, j - 1)) for j in range(1, p + 1)]
    assert max(x.bit_length() for x in held + [out]) <= 8 * size


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
@example(Scroll((1, 1, 2)), 2, -4, -4)
@given(scrolls, st.integers(0, 4), twists, twists)
def test_chase_bounds_contain_the_exact_value(S, p, a, b):
    # the Koszul resolution of Omega^p(D), 0 <= p <= n, chased to its
    # cokernel; for p = n it is the one line bundle O(D + K_rel), read exactly
    assume(p <= S.n)
    div = DivClass(a, b)
    exact = omega_cohomology(S, p, div)
    bounds = chase_bounds(S, koszul_resolution(S, p, div))
    assert bounds.chi == exact.chi
    assert all(bounds.lo(i) <= exact.h(i) <= bounds.hi(i) for i in range(S.n + 2))
    if p == S.n:
        assert bounds == exact


@example((0, 1, 1))
@given(st.lists(st.integers(0, 5), min_size=1, max_size=6).map(tuple))
def test_each_chase_step_over_a_zero_middle_term_is_a_shift(vals):
    # in 0 -> A -> 0 -> C -> 0 the connecting maps H^{i-1}(C) -> H^i(A) are
    # isomorphisms, so every dimension comes through the connecting term:
    # the quotient step moves A down one degree, the kernel step C up one
    sub = CohomTable.exact((0,) + vals[1:])
    quotient = CohomTable.exact(vals[1:] + (0,))
    assert solve_quotient(sub, CohomTable.zero(len(sub))) == quotient
    assert kernel_step(CohomTable.zero(len(quotient)), quotient) == sub


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


def _twins(x):
    # an integer as itself, as the float equal to it, or as the bool equal to it
    return st.sampled_from([x, float(x)] + ([bool(x)] if x in (0, 1) else []))


small_scrolls = st.sampled_from([(1, 1), (1, 2), (1, 1, 1), (1, 1, 2)]).map(Scroll)
small_bundles = st.lists(st.integers(-3, 3), max_size=3).map(SplitBundle)
small_divs = st.builds(DivClass, st.integers(-4, 4), st.integers(-3, 3))
queries = st.one_of(
    st.tuples(st.just(omega_cohomology), small_scrolls, st.integers(-1, 4).flatmap(_twins), small_divs),
    st.tuples(st.just(line_cohomology), small_scrolls, small_divs),
    st.tuples(st.just(SplitBundle.sym), small_bundles, st.integers(-1, 3).flatmap(_twins)),
    st.tuples(st.just(SplitBundle.wedge), small_bundles, st.integers(-1, 3).flatmap(_twins)),
    st.tuples(st.just(SplitBundle.hook), small_bundles, st.integers(0, 3).flatmap(_twins),
              st.integers(-1, 3).flatmap(_twins)),
    st.tuples(st.just(SplitBundle.h), small_bundles, st.integers(-1, 2).flatmap(_twins)))


def _answer(query):
    call, *args = query
    try:
        out = call(*args)
    except Exception as exc:  # the exception type is the answer
        return type(exc)
    return type(out), repr(out)


@settings(deadline=None)
@given(st.lists(queries, max_size=12))
def test_answers_do_not_depend_on_call_history(batch):
    # each query answered from cold caches, then the batch in order with the
    # caches warmed by every query before it: a value or an exception type
    cold = []
    for query in batch:
        _clear_package_caches()
        cold.append(_answer(query))
    assert [_answer(query) for query in batch] == cold


@given(st.lists(st.tuples(st.builds(Atom, st.integers(0, 3), small_divs), st.integers(-2, 2))),
       small_divs)
def test_twisted_sheaves_are_what_the_constructor_makes(terms, div):
    # twist sets its terms without the constructor's merge, sort and int
    # reads, so the result must already be the constructor's normal form
    sheaf = FormalSheaf(terms)
    twisted = sheaf.twist(div)
    want = FormalSheaf(tuple((Atom(a.p, a.twist + div), m) for a, m in sheaf.terms))
    assert twisted == want and hash(twisted) == hash(want) and twisted._key == want._key


# JSON-like values: genuine ints with negatives, and the bools, floats,
# strings and nulls a profile must refuse in their place
_json_scalars = st.one_of(st.integers(-2, 7), st.booleans(), st.floats(),
                          st.text(max_size=2), st.none())
# well-formed records, h now and then negative, and records with missing or
# extra keys or with other values than ints
_good_records = st.fixed_dictionaries({"j": st.integers(-1, 7), "q": st.integers(-1, 7),
                                       "h": st.integers(-1, 3)})
_records = st.one_of(
    _good_records,
    st.fixed_dictionaries({}, optional={"j": _json_scalars, "q": _json_scalars,
                                        "h": _json_scalars, "H": _json_scalars}),
    _json_scalars, st.lists(_json_scalars, max_size=3))
# profiles of the right shape (h aside), and then anything near them
_profile_likes = st.one_of(
    st.fixed_dictionaries({}, optional={"n": st.integers(0, 3),
                                        "entries": st.lists(_good_records, max_size=4)}),
    st.fixed_dictionaries({}, optional={"n": st.integers(0, 3) | _json_scalars,
                                        "entries": st.lists(_records, max_size=4) | _json_scalars,
                                        "entires": st.lists(_records, max_size=2)}),
    _json_scalars, st.lists(_records, max_size=2))


def _is_profile(obj, n) -> bool:
    # the reference shape: only "n" and "entries"; "n", if present, an int
    # equal to n unless n is None; the entries a list of records with exactly
    # the int fields j, q and h, each h nonnegative
    if not isinstance(obj, dict) or not set(obj) <= {"n", "entries"}:
        return False
    if "n" in obj and (type(obj["n"]) is not int or n is not None and obj["n"] != n):
        return False
    records = obj.get("entries", [])
    return isinstance(records, list) and all(
        isinstance(rec, dict) and set(rec) == {"j", "q", "h"}
        and all(type(v) is int for v in rec.values()) and rec["h"] >= 0 for rec in records)


@example({"n": 1, "entires": []}, 1)
@example({"entries": [{"j": 1, "q": 1, "h": 1, "H": 2}]}, None)
@given(_profile_likes, st.none() | st.integers(0, 3))
def test_the_profile_reader_accepts_exactly_the_profile_shape(obj, n):
    # a profile gives its records summed slot by slot, slots outside any
    # table included (the table refuses those); anything else raises
    # ValueError naming the profile
    if _is_profile(obj, n):
        want: dict = {}
        for rec in obj.get("entries", []):
            want[rec["j"], rec["q"]] = want.get((rec["j"], rec["q"]), 0) + rec["h"]
        assert _profile_entries(obj, n) == want
    else:
        with pytest.raises(ValueError, match="profile"):
            _profile_entries(obj, n)
