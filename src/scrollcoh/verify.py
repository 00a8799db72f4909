"""Verification suites for the claims the engines rest on: the Kronecker
pairing (duality), the Ulrich blocks (blocks), Hom vanishing (homvanish) and
the Koszul Euler-characteristic oracle (chi-oracle).  Each suite maps a
scroll to (passed, details) with JSON-ready details.  The package exports
none of its names; the command line and the acceptance tests import it.

chi_oracle owns its two size limits and refuses before its loop: MAX_TWISTS
caps its grid of twists, and MAX_SUMMANDS the largest bundle it lists.
"""

from __future__ import annotations

from itertools import permutations, product
from math import prod

from .beilinson import _block_columns, build_collections, verify_duality
from .homext import hom_upper_bound
from .p1 import MAX_SUMMANDS, _check_limit, hook_rank
from .relative import _bott, koszul_resolution, omega_cohomology, sheaf_chi
from .scroll import DivClass, Scroll
from .sheaves import omega_atom
from .ulrich import block, is_ulrich

MAX_TWISTS = 10_000


def duality(scroll: Scroll):
    report = verify_duality(scroll)
    return report.passed, {"violations": [list(v) for v in report.violations]}


def blocks(scroll: Scroll):
    failures = []
    for i in range(scroll.n + 1):
        verdict = is_ulrich(scroll, block(scroll, i))
        if not verdict.passed:
            failures.append({"i": i, "h0": verdict.h0, "expected": verdict.expected_h0,
                             "failures": list(verdict.failures)})
    return not failures, {"failures": failures}


def required_hom_pairs(scroll: Scroll):
    """(source, target, tag) for every Hom that must vanish: between the
    twists Omega^i(iH) and Omega^j(jH) for i != j, and from F_i to F_j for
    i > j among the dual members 1, 2, 4, ..., 2n; 3n(n+1)/2 pairs."""
    n = scroll.n
    twists = [omega_atom(scroll, i, DivClass(i, 0)) for i in range(n + 1)]
    for i, j in permutations(range(n + 1), 2):
        yield twists[i], twists[j], f"Hom(Omega^{i}({i}H), Omega^{j}({j}H))"
    _, f = build_collections(scroll)
    members = _block_columns(n)
    for k, i in enumerate(members):
        for j in members[:k]:
            yield f[i].atom, f[j].atom, f"Hom(F_{i}, F_{j})"


def homvanish(scroll: Scroll):
    # Hom(A(D), B(E)) depends on E - D alone, and F_col(a) is Omega^a(aH)(-F),
    # so each Hom(F_i, F_j) reads the table of a first-family pair
    failures, tables = [], {}
    pairs = list(required_hom_pairs(scroll))
    for x, y, tag in pairs:
        key = x.p, y.p, y.twist - x.twist
        if key not in tables:
            tables[key] = hom_upper_bound(scroll, x, y)
        table = tables[key]
        if table.hi(0) != 0:
            failures.append({"pair": tag, "bound": list(table.bound(0))})
    return not failures, {"checked": len(pairs), "failures": failures}


def koszul_grid(scroll: Scroll) -> tuple[range, range, range]:
    """The p, a and b over which chi_oracle compares the Koszul sum of
    Omega^p(aH + bF): p < n, |a| <= n + 2 and |b| <= c + 2."""
    n, c = scroll.n, scroll.c
    return range(n), range(-n - 2, n + 3), range(-c - 2, c + 3)


def _largest_listed_hook(scroll: Scroll) -> int:
    """The largest rank of a bundle chi_oracle lists or convolves: the
    pushforward R^{q0} of Omega^p(aH) at a grid point has rank
    h^{q0}(P^n, Omega^p(a)), the lines O((a - k)H) its Koszul resolutions
    hold reach no more, and fibre twists leave every rank alone.  For p < n
    the sections rank grows with a and the top regime's with -a, and the
    trace line's is 1, so the grid's two extreme twists reach the largest."""
    ps, twists, _ = koszul_grid(scroll)
    n, ends = scroll.n, (twists[0], twists[-1])
    return max(hook_rank(n + 1, *_bott(n, p, a)[1:]) for p in ps for a in ends)


def chi_oracle(scroll: Scroll):
    # the Koszul sums over koszul_grid; fibre twists for |b| <= 3.  Both
    # limits are checked first, so a large n or c is refused at once.
    _check_limit("the chi-oracle grid", prod(map(len, koszul_grid(scroll))),
                 "MAX_TWISTS", MAX_TWISTS)
    _check_limit("the largest bundle chi-oracle lists", _largest_listed_hook(scroll),
                 "MAX_SUMMANDS", MAX_SUMMANDS)
    failures = []
    for p, a, b in product(*koszul_grid(scroll)):
        div = DivClass(a, b)
        res = koszul_resolution(scroll, p, div)
        alt = sum((-1) ** idx * sheaf_chi(scroll, t) for idx, t in enumerate(res))
        want = (-1) ** (len(res) - 1) * omega_cohomology(scroll, p, div).chi
        if alt != want:
            failures.append({"p": p, "div": {"h": a, "f": b},
                             "alternating": alt, "expected": want})
    for p in range(scroll.n + 1):
        for b in range(-3, 4):
            got = omega_cohomology(scroll, p, DivClass(0, b)).chi
            if got != (-1) ** p * (b + 1):
                failures.append({"p": p, "b": b, "chi": got})
    return not failures, {"failures": failures}


SUITES = {"duality": duality, "blocks": blocks, "homvanish": homvanish,
          "chi-oracle": chi_oracle}
