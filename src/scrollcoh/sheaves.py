"""Formal sheaves on a scroll: twisted line bundles and relative differentials.

An atom is a line bundle O(D) or Omega^p_{S|P^1}(D) with 1 <= p <= n-1: the
normal form that ``omega_atom`` builds, where Omega^n is O(D + K_rel) and p
outside 0..n the zero sheaf.  Hom/Ext normalise atoms from outside once, where
they read them; the engines build normal atoms and never re-sort them.  A
formal sheaf is an integer combination of atoms; nonnegative combinations are
genuine direct sums, signed ones only support the additive invariants rank,
first Chern class and Euler characteristic.
"""

from __future__ import annotations

from math import comb
from operator import index

from ._value import value
from .scroll import DivClass, Scroll


@value(order=True)
class Atom:
    """A line bundle (p = 0) or Omega^p twisted by a divisor class; any integer
    p is accepted, and read as in ``omega_atom`` (0 <= p < n is normal)."""

    p: int
    twist: DivClass

    @property
    def is_line(self) -> bool:
        return self.p == 0


def line_atom(div: DivClass) -> Atom:
    return Atom(0, div)


def omega_atom(scroll: Scroll, p: int, div: DivClass) -> Atom | None:
    """Omega^p_{S|P^1}(div) in normal form; None stands for the zero sheaf."""
    p = index(p)
    if p < 0 or p > scroll.n:
        return None
    if p == scroll.n:
        return Atom(0, div + scroll.rel_canonical)
    return Atom(p, div)


def dual_atom(scroll: Scroll, atom: Atom) -> Atom:
    """The dual atom, via the pairing of Omega^p with Omega^{n-p} into the
    relative canonical bundle for the inner exterior powers."""
    if atom.is_line:
        return Atom(0, -atom.twist)
    return Atom(scroll.n - atom.p, -atom.twist - scroll.rel_canonical)


def atom_rank(scroll: Scroll, atom: Atom) -> int:
    return comb(scroll.n, atom.p) if atom.p >= 0 else 0


def atom_c1(scroll: Scroll, atom: Atom) -> DivClass:
    if atom.p <= 0:
        return atom.twist if atom.is_line else DivClass(0, 0)
    return (comb(scroll.n - 1, atom.p - 1) * scroll.rel_canonical
            + comb(scroll.n, atom.p) * atom.twist)


@value
class FormalSheaf:
    """Integer combination of atoms; merged, sorted and zero-free."""

    terms: tuple[tuple[Atom, int], ...] = ()

    def __post_init__(self) -> None:
        acc: dict[Atom, int] = {}
        for atom, mult in self.terms:
            mult = index(mult)
            if atom is not None and mult:
                acc[atom] = acc.get(atom, 0) + mult
        object.__setattr__(
            self, "terms", tuple(sorted((a, m) for a, m in acc.items() if m)))

    @classmethod
    def of(cls, *atoms: Atom | None) -> "FormalSheaf":
        return cls(tuple((a, 1) for a in atoms if a is not None))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.terms)

    def __add__(self, other: "FormalSheaf") -> "FormalSheaf":
        return FormalSheaf(self.terms + other.terms)

    def scaled(self, k: int) -> "FormalSheaf":
        return FormalSheaf(tuple((a, k * m) for a, m in self.terms))

    def twist(self, div: DivClass) -> "FormalSheaf":
        # one divisor added to every atom keeps the atoms distinct and in order
        return FormalSheaf._normal(tuple((Atom._normal(a.p, a.twist + div), m)
                                         for a, m in self.terms))


ZERO_SHEAF = FormalSheaf()


def sheaf_rank(scroll: Scroll, sheaf: FormalSheaf) -> int:
    return sum(m * atom_rank(scroll, a) for a, m in sheaf.terms)


def sheaf_c1(scroll: Scroll, sheaf: FormalSheaf) -> DivClass:
    c1 = DivClass(0, 0)
    for atom, mult in sheaf.terms:
        c1 = c1 + mult * atom_c1(scroll, atom)
    return c1


def deg_H(scroll: Scroll, div: DivClass) -> int:
    """Degree against the hyperplane class: H^{n+1} = c and H^n.F = 1."""
    return div.h * scroll.c + div.f


def deg_slope(scroll: Scroll, sheaf: FormalSheaf) -> tuple[int, DivClass, int, Fraction]:
    """(rank, c1, H-degree, slope), with the slope an exact rational."""
    from fractions import Fraction  # here, so start-up without slopes skips it

    rank = sheaf_rank(scroll, sheaf)
    if rank == 0:
        raise ValueError("slope undefined for rank zero")
    c1 = sheaf_c1(scroll, sheaf)
    deg = deg_H(scroll, c1)
    return rank, c1, deg, Fraction(deg, rank)
