"""Cohomology of twisted relative differentials.

Everything is driven by the fibrewise Bott regimes: for any twist of
Omega^p_{S|P^1} at most one derived pushforward to the base line survives
and is again a split bundle, so a one-row Leray step gives exact dimensions.
In the top regime it is a dual, B(2)^v, whose numbers Serre duality on the
line, h^i(B(2)^v) = h^{1-i}(B), reads off B with no dual built.
Koszul resolutions built from the relative Euler sequence serve as an
independent route: their alternating Euler characteristics must reproduce
the pushforward answer, and spliced dimension chases bound cohomology of
objects outside the exact engine by intervals that are never guessed tight.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .p1 import SplitBundle, _elementary_sums, _pairs, hook_rank
from .scroll import DivClass, Scroll
from .sheaves import Atom, FormalSheaf
from .tables import CohomTable, solve_quotient, solve_sub


def _bott(n: int, p: int, a: int) -> tuple[int, int, int] | None:
    """Fibrewise Bott regime of Omega^p(a) on P^n: (q0, m, r), or None.

    q0 is the one degree where cohomology survives and (m, 1^r) the hook
    shape of what survives there; m = 0 stands for the trace line at a = 0.
    """
    n, p, a = index(n), index(p), index(a)
    if not 0 <= p <= n:
        return None
    if a >= p + 1:
        return 0, a - p, p
    if a == 0:
        return p, 0, 0
    if a <= p - n - 1:
        return n, -a - (n - p), n - p
    return None


def fiber_degree(n: int, p: int, a: int) -> int | None:
    """The unique degree where H^*(P^n, Omega^p(a)) can survive, if any."""
    regime = _bott(n, p, a)
    return None if regime is None else regime[0]


def _leray(scroll: Scroll, p: int, div: DivClass) -> tuple[int | None, SplitBundle, bool]:
    """(q0, B, serre): R^{q0} of Omega^p_{S|P^1}(div) is B, or with serre the
    dual of B(2), whose h^0 and h^1 are h^1 and h^0 of B by Serre duality on
    the line; the regimes are those of rel_pushforward."""
    regime = _bott(scroll.n, p, div.h)
    if regime is None:
        return None, SplitBundle(), False
    q0, m, r = regime
    if m == 0:
        return q0, SplitBundle((div.f,)), False
    if q0 == 0:
        return 0, scroll.bundle.hook(m, r).twist(div.f), False
    return q0, scroll.bundle.hook(m, r).twist(-div.f - 2), True


def rel_pushforward(scroll: Scroll, p: int, div: DivClass) -> tuple[int | None, SplitBundle]:
    """The single nonvanishing derived pushforward of Omega^p_{S|P^1}(div).

    Returns (q0, P) with R^{q0} of the projection equal to the split bundle
    P; (None, 0) when the fibrewise cohomology vanishes identically.  With
    div = a*H + b*F the three regimes are: sections for a >= p+1, given by a
    hook Schur functor of the splitting bundle; the trace line O(b) in
    degree p at a = 0; and, for a <= p-n-1, the relative-duality dual of the
    complementary hook in degree n.  P is read from the same dispatch as
    omega_cohomology, which reads that dual through Serre duality instead.
    """
    q0, push, serre = _leray(scroll, p, div)
    return q0, push.twist(2).dual() if serre else push


@lru_cache(maxsize=None, typed=True)
def omega_cohomology(scroll: Scroll, p: int, div: DivClass) -> CohomTable:
    """Exact h^*(S, Omega^p_{S|P^1}(div)) via Leray over the base line; in
    the top regime h^n and h^{n+1} are read as h^1 and h^0 of the twisted
    hook, by Serre duality on the line, so no dual is built."""
    q0, push, serre = _leray(scroll, p, div)
    vals = [0] * (scroll.n + 2)
    if q0 is not None:
        h0, h1 = push.h0, push.h1
        vals[q0], vals[q0 + 1] = (h1, h0) if serre else (h0, h1)
    return CohomTable.exact(vals)


def sheaf_cohomology(scroll: Scroll, sheaf: FormalSheaf) -> CohomTable:
    """Cohomology of a genuine (nonnegative) atom sum; exact and additive."""
    if not sheaf.is_effective:
        raise ValueError("cohomology needs nonnegative multiplicities")
    vals = [0] * (scroll.n + 2)
    for atom, mult in sheaf.terms:
        for i, v in enumerate(omega_cohomology(scroll, atom.p, atom.twist).values()):
            vals[i] += mult * v
    return CohomTable.exact(vals)


def sheaf_chi(scroll: Scroll, sheaf: FormalSheaf) -> int:
    """Euler characteristic of any signed combination of atoms."""
    return sum(m * omega_cohomology(scroll, a.p, a.twist).chi for a, m in sheaf.terms)


def koszul_resolution(scroll: Scroll, p: int, div: DivClass) -> list[FormalSheaf]:
    """Line-bundle resolution of Omega^p_{S|P^1}(div), leftmost term first.

    The exterior powers of the relative Euler sequence splice into the exact
    complex 0 -> W^{n+1}B(-nH) -> ... -> W^{p+1}B(-pH) -> Omega^p(H) -> 0,
    where B is the pullback of the splitting bundle and W^k its k-th exterior
    power; twisting every term by div - H resolves Omega^p(div).  For p = n
    the one term is W^{n+1}B(div - (n+1)H) = O(div + K_rel), the relative
    canonical bundle twisted by div, which is Omega^n(div) itself.
    """
    n, p = scroll.n, index(p)
    if not 0 <= p <= n:
        raise ValueError("relative differentials need 0 <= p <= n")
    # _pairs lists each term's fibre degrees distinct and ascending: built normal
    return [FormalSheaf._normal(tuple((Atom(0, DivClass(div.h - k, div.f + w)), c)
                                      for w, c in _pairs(_elementary_sums(scroll.degrees, k))))
            for k in range(n + 1, p, -1)]


def chase_bounds(scroll: Scroll, terms, solve: str = "cokernel") -> CohomTable:
    """Hypercohomology bounds for the object a finite exact complex resolves.

    ``terms`` lists the computable part of the complex from left to right;
    each term must be a genuine atom sum so its cohomology is exact.  With
    solve="cokernel" the unknown is the augmentation on the right (the terms
    are a resolution); with solve="kernel" it is the kernel on the left (a
    coresolution).  Entries the long-exact-sequence chase cannot pin down
    stay intervals; chi is always exact.
    """
    if solve not in ("cokernel", "kernel"):
        raise ValueError("solve must be 'cokernel' or 'kernel'")
    # One fold over short exact sequences, from the left for a cokernel and
    # from the right for a kernel; from zero the first step is exact.
    acc = CohomTable.zero(scroll.n + 2)
    if solve == "cokernel":
        for term in terms:
            acc = solve_quotient(acc, sheaf_cohomology(scroll, term))
    else:
        for term in reversed(terms):
            acc = solve_sub(sheaf_cohomology(scroll, term), acc)
    return acc


def pn_omega_cohomology(n: int, p: int, k: int) -> CohomTable:
    """Bott dimensions h^*(P^n, Omega^p(k)), exact for every twist."""
    if index(n) < 1:
        raise ValueError("need n >= 1")
    vals = [0] * (n + 1)
    regime = _bott(n, p, k)
    if regime is not None:
        q0, m, r = regime
        vals[q0] = hook_rank(n + 1, m, r) if m else 1
    return CohomTable.exact(vals)
