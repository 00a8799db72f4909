"""Exact calculus of split vector bundles on the projective line.

A split bundle is a finite direct sum of line bundles O(d), stored as the
sorted multiset of its degrees; the empty multiset is the zero bundle.
Symmetric and exterior powers, hook Schur functors, duals, twists and tensor
products of split bundles are split again, so every functor here maps sorted
integer tuples to sorted integer tuples.  Degree multisets come from one
convolution over (degree, multiplicity) distributions, that of the hook
Schur functor (m, 1^p), rather than tableau-by-tableau enumeration, which
keeps high powers cheap: Sym^k is the hook (k) and Wedge^k the hook
(1, 1^(k-1)).  The tableau description is what the test suite enumerates
against.

Every bundle is normalised in one C-level pass (int conversion and sort),
twists and duals map a C callable over the degrees, and h^0, h^1 are read by
bisecting the sorted degrees at the sign boundary and summing one side.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import islice
from math import comb
from operator import neg

from ._value import value

# A degree distribution: sorted ((degree, multiplicity), ...).
_Dist = tuple[tuple[int, int], ...]

_EMPTY: _Dist = ()
_UNIT: _Dist = ((0, 1),)


def _add_scaled(acc: dict[int, int], dist: dict[int, int], d: int, scale: int = 1) -> None:
    # acc += scale * (dist shifted by d)
    for deg, mult in dist.items():
        acc[deg + d] = acc.get(deg + d, 0) + scale * mult


@lru_cache(maxsize=None)
def _hook_sums(degs: tuple[int, ...], m: int, p: int) -> _Dist:
    # One pass over the letters, from the last down.  rows[k] holds the degree
    # distribution of k repeatable row letters and cols[j] that of j distinct
    # column letters among the letters passed so far.  A corner d takes its p
    # column letters strictly after d and its m - 1 row letters from d on, so
    # it is read after the row update admits d and before the column update does.
    if p >= len(degs):
        return _EMPTY
    rows = [{0: 1}] + [{} for _ in range(m - 1)]
    cols = [{0: 1}] + [{} for _ in range(p)]
    out: dict[int, int] = {}
    for d in reversed(degs):
        for k in range(1, m):
            _add_scaled(rows[k], rows[k - 1], d)
        for deg, mult in cols[p].items():
            _add_scaled(out, rows[m - 1], d + deg, mult)
        for j in range(p, 0, -1):
            _add_scaled(cols[j], cols[j - 1], d)
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _complete_sums(degs: tuple[int, ...], k: int) -> _Dist:
    # degree distribution of all k-multisets drawn from degs: the hook (k)
    if k < 0:
        return _EMPTY
    return _UNIT if k == 0 else _hook_sums(degs, k, 0)


@lru_cache(maxsize=None)
def _elementary_sums(degs: tuple[int, ...], k: int) -> _Dist:
    # degree distribution of all k-subsets of degs: the hook (1, 1^(k-1))
    if k < 0:
        return _EMPTY
    return _UNIT if k == 0 else _hook_sums(degs, 1, k - 1)


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
        object.__setattr__(self, "degrees", tuple(sorted(map(int, self.degrees))))

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
        # sums of d + 1 over d >= 0 and of -d - 1 over d <= -2, one side each
        degs = self.degrees
        if i == 0:
            k = bisect_left(degs, 0)
            return sum(islice(degs, k, None)) + len(degs) - k
        if i == 1:
            k = bisect_left(degs, -1)
            return -sum(islice(degs, k)) - k
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
        return SplitBundle(map(neg, self.degrees))

    def twist(self, b: int) -> SplitBundle:
        return SplitBundle(map(b.__add__, self.degrees))

    def tensor(self, other: SplitBundle) -> SplitBundle:
        acc: dict[int, int] = {}
        right = Counter(other.degrees)
        for deg, mult in Counter(self.degrees).items():
            _add_scaled(acc, right, deg, mult)
        return SplitBundle(_expand(tuple(sorted(acc.items()))))

    def __add__(self, other: SplitBundle) -> SplitBundle:
        """Direct sum."""
        return SplitBundle(self.degrees + other.degrees)


def hook_rank(letters: int, m: int, p: int) -> int:
    """Number of hook tableaux of shape (m, 1^p) over an alphabet of the
    given size, independent of any degree data."""
    if m <= 0 or p < 0:
        raise ValueError("invalid hook shape")
    return comb(letters + m - 1, m + p) * comb(m + p - 1, p)
