"""Exact calculus of split vector bundles on the projective line.

A split bundle is a finite direct sum of line bundles O(d), stored as the
sorted multiset of its degrees; the empty multiset is the zero bundle.
Symmetric and exterior powers, hook Schur functors, duals, twists and tensor
products of split bundles are split again, so every functor here maps sorted
integer tuples to sorted integer tuples.  Degree multisets are produced by
small convolutions over (degree, multiplicity) distributions rather than
tableau-by-tableau enumeration, which keeps high powers cheap; the tableau
description is what the test suite enumerates against.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb

from ._value import value

# A degree distribution: sorted ((degree, multiplicity), ...).
_Dist = tuple[tuple[int, int], ...]

_EMPTY: _Dist = ()
_UNIT: _Dist = ((0, 1),)


def _shift(dist: _Dist, d: int) -> _Dist:
    return tuple((deg + d, mult) for deg, mult in dist)


def _merge(dists) -> _Dist:
    acc: dict[int, int] = {}
    for dist in dists:
        for deg, mult in dist:
            acc[deg] = acc.get(deg, 0) + mult
    return tuple(sorted((d, m) for d, m in acc.items() if m))


def _mul(x: _Dist, y: _Dist) -> _Dist:
    acc: dict[int, int] = {}
    for dx, mx in x:
        for dy, my in y:
            acc[dx + dy] = acc.get(dx + dy, 0) + mx * my
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=None)
def _complete_sums(degs: tuple[int, ...], k: int) -> _Dist:
    # degree distribution of all k-multisets drawn from degs
    if k < 0:
        return _EMPTY
    layers: list[_Dist] = [_UNIT] + [_EMPTY] * k
    for d in degs:
        for j in range(1, k + 1):
            layers[j] = _merge((layers[j], _shift(layers[j - 1], d)))
    return layers[k]


@lru_cache(maxsize=None)
def _elementary_sums(degs: tuple[int, ...], k: int) -> _Dist:
    # degree distribution of all k-subsets of degs
    if k < 0 or k > len(degs):
        return _EMPTY
    layers: list[_Dist] = [_UNIT] + [_EMPTY] * k
    for d in degs:
        for j in range(k, 0, -1):
            layers[j] = _merge((layers[j], _shift(layers[j - 1], d)))
    return layers[k]


@lru_cache(maxsize=None)
def _hook_sums(degs: tuple[int, ...], m: int, p: int) -> _Dist:
    # Tableaux grouped by the corner entry: the rest of the first column
    # takes p strictly larger letters, the rest of the first row m-1 weakly
    # larger ones.
    pieces = []
    for i, d in enumerate(degs):
        col = _elementary_sums(degs[i + 1:], p)
        if not col:
            continue
        row = _complete_sums(degs[i:], m - 1)
        if not row:
            continue
        pieces.append(_shift(_mul(col, row), d))
    return _merge(pieces)


def _expand(dist: _Dist) -> tuple[int, ...]:
    out: list[int] = []
    for deg, mult in dist:
        out.extend([deg] * mult)
    return tuple(out)


@value(order=True)
class SplitBundle:
    """A direct sum of line bundles on P^1, as the sorted multiset of degrees."""

    degrees: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(sorted(int(d) for d in self.degrees)))

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    @property
    def is_zero(self) -> bool:
        return not self.degrees

    @property
    def chi(self) -> int:
        """Euler characteristic, degree + rank by Riemann-Roch on the line."""
        return self.degree + self.rank

    def h(self, i: int) -> int:
        """dim H^i; only i = 0, 1 can be nonzero on the line."""
        if i == 0:
            return sum(d + 1 for d in self.degrees if d >= 0)
        if i == 1:
            return sum(-d - 1 for d in self.degrees if d <= -2)
        return 0

    @property
    def h0(self) -> int:
        return self.h(0)

    @property
    def h1(self) -> int:
        return self.h(1)

    def sym(self, k: int) -> SplitBundle:
        """Symmetric power: one summand per k-multiset of summands."""
        return SplitBundle(_expand(_complete_sums(self.degrees, k)))

    def wedge(self, k: int) -> SplitBundle:
        """Exterior power: one summand per k-subset; zero outside 0..rank."""
        return SplitBundle(_expand(_elementary_sums(self.degrees, k)))

    def hook(self, m: int, p: int) -> SplitBundle:
        """Hook Schur functor for the shape (m, 1^p).

        Summands are indexed by semistandard tableaux with entries in
        0..rank-1: a weakly increasing first row of length m and a strictly
        increasing first column of length p + 1 sharing the corner cell.
        Only hook shapes are supported; they are exactly what the
        pushforward calculus of relative differentials consumes.
        """
        if m <= 0:
            raise ValueError("hook shapes need m >= 1")
        if p < 0:
            raise ValueError("hook shapes need p >= 0")
        return SplitBundle(_expand(_hook_sums(self.degrees, m, p)))

    def dual(self) -> SplitBundle:
        return SplitBundle(-d for d in self.degrees)

    def twist(self, b: int) -> SplitBundle:
        return SplitBundle(d + b for d in self.degrees)

    def tensor(self, other: SplitBundle) -> SplitBundle:
        a = tuple(sorted(Counter(self.degrees).items()))
        b = tuple(sorted(Counter(other.degrees).items()))
        return SplitBundle(_expand(_mul(a, b)))

    def __add__(self, other: SplitBundle) -> SplitBundle:
        """Direct sum."""
        return SplitBundle(self.degrees + other.degrees)


def hook_rank(letters: int, m: int, p: int) -> int:
    """Number of hook tableaux of shape (m, 1^p) over an alphabet of the
    given size, independent of any degree data."""
    if m <= 0 or p < 0:
        raise ValueError("invalid hook shape")
    return comb(letters + m - 1, m + p) * comb(m + p - 1, p)
