"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact integer arithmetic with zero tolerance; the
scroll ranges follow the stated sweeps and the whole suite stays well under
a minute.
"""

import random
from itertools import combinations_with_replacement, product
from math import comb

from conftest import all_scrolls
from scrollcoh import (DivClass, Scroll, SplitBundle, classify,
                       enumerate_types, hom_upper_bound, omega_atom,
                       omega_cohomology, segre_ext1, type_sheaf,
                       veronese_classify, veronese_table)
from scrollcoh.verify import SUITES


def _report(tag: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_building_block_cohomology():
    """Blocks have h^0 = c*C(n,i), no sections after -H, and no intermediate
    cohomology in any H-twist; scrolls n <= 4, c <= 10."""
    failures = []
    for S in all_scrolls(4, 10):
        for i in range(S.n + 1):
            block_tab = omega_cohomology(S, i, DivClass.from_pair(i, i + 1))
            if block_tab.h(0) != S.c * comb(S.n, i):
                failures.append(("h0", S.degrees, i, block_tab.h(0)))
            shifted = omega_cohomology(S, i, DivClass.from_pair(i - 1, i))
            if shifted.h(0) != 0:
                failures.append(("initialized", S.degrees, i))
            for t in range(-(S.c + 2), S.c + 3):
                tab = omega_cohomology(S, i, DivClass.from_pair(i - 1 + t, i + t))
                for k in range(1, S.n + 1):
                    if tab.h(k) != 0:
                        failures.append(("aCM", S.degrees, i, t, k, tab.h(k)))
    ok = not failures
    _report("1 building-block cohomology", ok)
    assert ok, failures[:10]


def test_criterion_02_duality_pairing():
    """Ext^k(E_i, F_j) = [i = j = k] over all scrolls with n <= 4, c <= 8."""
    failures = []
    for S in all_scrolls(4, 8):
        passed, details = SUITES["duality"](S)
        if not passed:
            failures.append((S.degrees, details["violations"][:3]))
    ok = not failures
    _report("2 duality pairing", ok)
    assert ok, failures[:5]


def test_criterion_03_hom_vanishing():
    """Chase upper bounds hit exactly zero for every required pair, all
    3n(n+1)/2 of them; an indeterminate pair counts as a failure."""
    failures = []
    for S in all_scrolls(4, 8):
        passed, details = SUITES["homvanish"](S)
        if details["checked"] != 3 * S.n * (S.n + 1) // 2:
            failures.append((S.degrees, "checked", details["checked"]))
        if not passed:
            failures.append((S.degrees, details["failures"]))
    ok = not failures
    _report("3 hom vanishing", ok)
    assert ok, failures[:10]


def test_criterion_04_filtration_roundtrip():
    """Classification recovers every multiplicity vector with total at most
    4 on scrolls n <= 3, c <= 8, with all off-diagonal entries zero."""
    failures = []
    for S in all_scrolls(3, 8):
        for mults in product(range(5), repeat=S.n + 1):
            if not 1 <= sum(mults) <= 4:
                continue
            try:
                got = classify(S, sheaf=type_sheaf(S, mults))
            except ValueError as exc:
                failures.append((S.degrees, mults, str(exc)))
                continue
            if got != mults:
                failures.append((S.degrees, mults, got))
    ok = not failures
    _report("4 filtration roundtrip", ok)
    assert ok, failures[:10]


def test_criterion_05_chi_oracles():
    """Koszul alternating sums match the pushforward engine on the full grid,
    and chi of the pure fibre twists pins the trace pushforward."""
    failures = []
    for S in all_scrolls(4, 8):
        passed, details = SUITES["chi-oracle"](S)
        if not passed:
            failures.extend((S.degrees, f) for f in details["failures"])
    ok = not failures
    _report("5 chi oracles", ok)
    assert ok, failures[:10]


def test_criterion_06_pieri_identity():
    """sym (x) wedge = hook (+) hook as exact multisets, exhaustively for
    rank <= 5 over a degree window and all m <= 5."""
    failures = []
    for rank in range(1, 6):
        for degs in combinations_with_replacement(range(-2, 3), rank):
            B = SplitBundle(degs)
            for m in range(1, 6):
                for p in range(1, rank):
                    left = B.sym(m).tensor(B.wedge(p))
                    right = B.hook(m, p) + B.hook(m + 1, p - 1)
                    if left != right:
                        failures.append((degs, m, p))
    ok = not failures
    _report("6 Pieri identity", ok)
    assert ok, failures[:10]


def test_criterion_07_serre_duality():
    """500 seeded random divisor classes per scroll, n <= 4."""
    rng = random.Random(2024)
    failures = []
    for S in all_scrolls(4, 10):
        omega = S.canonical
        for _ in range(500):
            d = DivClass(rng.randint(-S.n - 3, S.n + 3),
                         rng.randint(-S.c - 3, S.c + 3))
            lhs = S.line_cohomology(d)
            rhs = S.line_cohomology(omega - d)
            for i in range(S.n + 2):
                if lhs.h(i) != rhs.h(S.n + 1 - i):
                    failures.append((S.degrees, d, i))
    ok = not failures
    _report("7 Serre duality sweep", ok)
    assert ok, failures[:10]


def test_criterion_08_veronese_surface():
    """The twisted cotangent bundle input yields the single diagonal entry
    a = 1 and classification recovers the unique block."""
    table = veronese_table(2, atom=(1, 1))
    ok = (dict(table.entries) == {(1, 1): 1}
          and table.is_diagonal
          and veronese_classify(table) == 1)
    _report("8 Veronese surface table", ok)
    assert ok, dict(table.entries)


def test_criterion_09_segre_ext1():
    """The closed form (i-j-1)*C(n+1, i-j) for i >= j+2, zero otherwise,
    cross-checked against the interval engine for n <= 4."""
    failures = []
    for n in range(1, 5):
        S = Scroll((1,) * (n + 1))
        for i in range(n + 1):
            for j in range(n + 1):
                closed = segre_ext1(S, i, j)
                want = (i - j - 1) * comb(n + 1, i - j) if i >= j + 2 else 0
                if closed != want:
                    failures.append(("formula", n, i, j, closed))
                x = omega_atom(S, i, DivClass.from_pair(i - 1, i))
                y = omega_atom(S, j, DivClass.from_pair(j - 1, j))
                lo, hi = hom_upper_bound(S, x, y).bound(1)
                if not lo <= closed <= hi:
                    failures.append(("interval", n, i, j, closed, (lo, hi)))
    ok = not failures
    _report("9 Segre Ext^1", ok)
    assert ok, failures[:10]


def test_criterion_10_rank_corollaries():
    """Rank one gives exactly the two line-bundle types; for n >= 3 rank two
    avoids every inner block."""
    failures = []
    for S in all_scrolls(4, 8):
        rank_one = [t.multiplicities for t in enumerate_types(S, rank=1)]
        expected = [(0,) * S.n + (1,), (1,) + (0,) * S.n]
        if rank_one != expected:
            failures.append(("rank-1", S.degrees, rank_one))
        if S.n >= 3:
            for t in enumerate_types(S, rank=2):
                if any(t.multiplicities[1:-1]):
                    failures.append(("rank-2", S.degrees, t.multiplicities))
    ok = not failures
    _report("10 rank corollaries", ok)
    assert ok, failures[:10]
