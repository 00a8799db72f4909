"""Hom and Ext dimensions between atoms.

Pairs with a line bundle on either side reduce to a single exact cohomology
table.  Pairs of genuine relative differentials are bracketed by one Koszul
chase, which resolves the target, run twice: on (s, t), and on the Serre dual
pair (t, s(K_S)) read top-down, since Ext^k(s, t) = Ext^{n+1-k}(t, s(K_S))^*.
The intervals are intersected; nothing indeterminate is ever collapsed.  The
Segre scroll additionally has a closed form for the first Ext group between
shifted building blocks.
"""

from __future__ import annotations

from math import comb
from operator import index

from .relative import chase_bounds, koszul_resolution, omega_cohomology
from .scroll import Scroll
from .sheaves import Atom, FormalSheaf, dual_atom, omega_atom
from .tables import CohomTable, intersect


def ext_line_vs_atom(scroll: Scroll, source: Atom, shift: int, target: Atom) -> CohomTable:
    """Exact Ext^k(L^*[-shift], target) for a line-bundle source L.

    L is the source as ``omega_atom`` builds it, and the k-th entry is
    h^{k+shift}(L x target); the table is long enough to absorb the shift.
    """
    if 0 < source.p < scroll.n:
        raise ValueError("source must be a (shifted) line bundle")
    line = omega_atom(scroll, source.p, source.twist)
    coh = (CohomTable.zero(scroll.n + 2) if line is None
           else omega_cohomology(scroll, target.p, target.twist + line.twist))
    return CohomTable.exact((0,) * -shift + coh.values()[max(shift, 0):])


def hom_upper_bound(scroll: Scroll, source: Atom, target: Atom) -> CohomTable:
    """Bounds on dim Ext^k(source, target) = h^k(source^v x target).

    Exact whenever either side is a line bundle.  For two genuine relative
    differentials the Koszul chase of (source, target) and that of its Serre
    dual pair (target, source(K_S)), read top-down, are intersected; the Hom
    entry additionally gets the identity lower bound 1 when source and target
    agree.  Entries the chases cannot force stay intervals.  Both atoms are
    read as ``omega_atom`` builds them; if either is the zero sheaf the table
    is zero, with no identity bound.
    """
    source, target = (omega_atom(scroll, a.p, a.twist) for a in (source, target))
    if source is None or target is None:
        return CohomTable.zero(scroll.n + 2)
    if source.is_line or target.is_line:
        hom = _hom_atom(scroll, source, target)
        table = omega_cohomology(scroll, hom.p, hom.twist)
    else:
        # Serre duality on S reverses the pair's table: chi gains (-1)^(n+1)
        mirror = _chase_resolving_target(scroll, target,
                                         Atom(source.p, source.twist + scroll.canonical))
        table = intersect(_chase_resolving_target(scroll, source, target),
                          CohomTable(mirror.bounds[::-1], (-1) ** (scroll.n + 1) * mirror.chi))
    if source == target:
        (lo, hi), *rest = table.bounds
        if hi < 1:
            raise ValueError("identity morphism outside the computed bounds")
        table = CohomTable(((max(lo, 1), hi), *rest), table.chi)
    return table


def _hom_atom(scroll: Scroll, source: Atom, target: Atom) -> Atom:
    # source^v x target, a single twisted atom when either side is a line bundle
    if source.is_line:
        return Atom(target.p, target.twist - source.twist)
    sd = dual_atom(scroll, source)
    return Atom(sd.p, sd.twist + target.twist)


def _chase_resolving_target(scroll: Scroll, source: Atom, target: Atom) -> CohomTable:
    # Tensor the target's Koszul resolution with the source's dual Omega^q(E).
    # Twisting the resolution of Omega^p(D) by E resolves Omega^p(D + E), and
    # Omega^q(D + E) is the Hom into O(D), so each line O(L) of that resolution
    # becomes the exact atom Omega^q(L).
    hom = _hom_atom(scroll, source, Atom(0, target.twist))
    # one p, and the twists in each term's own order: normal, so _normal skips the sort
    terms = [FormalSheaf._normal(tuple((Atom(hom.p, a.twist), m) for a, m in piece.terms))
             for piece in koszul_resolution(scroll, target.p, hom.twist)]
    return chase_bounds(scroll, terms, solve="cokernel")


def segre_ext1(scroll: Scroll, i: int, j: int) -> int:
    """Closed-form dim Ext^1 between -H twists of building blocks i and j on
    the Segre scroll S(1, ..., 1): (i-j-1) * C(n+1, i-j) when i >= j+2 and
    zero otherwise."""
    if any(a != 1 for a in scroll.degrees):
        raise ValueError("the closed form is specific to the Segre scroll")
    n, i, j = scroll.n, index(i), index(j)
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("block indices out of range")
    if i <= j + 1:
        return 0
    return (i - j - 1) * comb(n + 1, i - j)
