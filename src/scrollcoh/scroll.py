"""Rational normal scrolls, divisor classes and line bundle cohomology.

Line bundle cohomology is the p = 0 case of the relative-differential
pushforward engine in ``scrollcoh.relative``; ``line_cohomology`` and the
``Scroll`` conveniences built on it only name that case.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from ._value import value
from .p1 import SplitBundle
from .tables import CohomTable


@value(order=True)
class DivClass:
    """An integral divisor class x*H + y*F in the hyperplane/fibre basis.

    Input and output also use the pair convention (u, v) = (x + y, x).  The
    basis form is the internal one because it is unambiguous under twists;
    the pair form only appears at the boundary.
    """

    h: int = 0
    f: int = 0

    def pair(self) -> tuple[int, int]:
        return (self.h + self.f, self.h)

    @classmethod
    def from_pair(cls, u: int, v: int) -> "DivClass":
        return cls(v, u - v)

    def __add__(self, other: "DivClass") -> "DivClass":
        return DivClass(self.h + other.h, self.f + other.f)

    def __sub__(self, other: "DivClass") -> "DivClass":
        return DivClass(self.h - other.h, self.f - other.f)

    def __neg__(self) -> "DivClass":
        return DivClass(-self.h, -self.f)

    def __rmul__(self, k: int) -> "DivClass":
        return DivClass(k * self.h, k * self.f)

    def __str__(self) -> str:
        out = ""
        for k, basis in ((self.h, "H"), (self.f, "F")):
            if k:
                coeff = "" if k == 1 else "-" if k == -1 else str(k)
                out += ("+" if out and k > 0 else "") + coeff + basis
        return out or "0"


# in normal form already, so importing the module compiles no constructor
H = DivClass._normal(1, 0)
F = DivClass._normal(0, 1)


@value(order=True)
class Scroll:
    """The smooth scroll S(a_0, ..., a_n) over the projective line.

    All splitting degrees must be positive (cones are excluded) and there
    must be at least two of them, so the fibre dimension n is at least one.
    """

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        degs = tuple(sorted(map(index, self.degrees)))
        if len(degs) < 2:
            raise ValueError("a scroll needs at least two splitting degrees")
        if degs[0] <= 0:
            raise ValueError("splitting degrees must be positive")
        object.__setattr__(self, "degrees", degs)

    @property
    def n(self) -> int:
        """Fibre dimension."""
        return len(self.degrees) - 1

    @property
    def c(self) -> int:
        """Degree of the scroll, the sum of the splitting degrees."""
        return sum(self.degrees)

    @property
    def dim(self) -> int:
        return self.n + 1

    @property
    def ambient_dim(self) -> int:
        return self.c + self.n

    @property
    def bundle(self) -> SplitBundle:
        return SplitBundle(self.degrees)

    @property
    def canonical(self) -> DivClass:
        return DivClass(-(self.n + 1), self.c - 2)

    @property
    def rel_canonical(self) -> DivClass:
        """Relative canonical class of the projection to the line."""
        return DivClass(-(self.n + 1), self.c)

    def line_cohomology(self, div: DivClass) -> CohomTable:
        return line_cohomology(self, div)

    def chi(self, div: DivClass) -> int:
        return line_cohomology(self, div).chi

    def h(self, div: DivClass, i: int) -> int:
        return line_cohomology(self, div).h(i)


@lru_cache(maxsize=None)
def line_cohomology(scroll: Scroll, div: DivClass) -> CohomTable:
    """Exact h^*(S, O(div)): the relative differentials of degree p = 0.

    The pushforward engine of ``scrollcoh.relative`` covers line bundles as
    its p = 0 case; this cache fronts it under the line bundle name.
    """
    from .relative import omega_cohomology  # relative imports this module
    return omega_cohomology(scroll, 0, div)
