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

A distribution is Kronecker-packed into one integer: (low, w, packed) holds
the count of degree low + i in bytes [i*w, (i+1)*w) of packed, that is, its
generating polynomial evaluated at 2^(8w).  Shifting a distribution by a
degree is then a bit shift, adding two is one addition and convolving two is
one multiplication, all at C speed.  The width w comes in closed form from
the hook's total hook_rank(n, m, p), which bounds every count it can hold.
The packed integer spans the degree range, (m + p) times the spread of the
letters, so its size grows with that spread as well as with the counts;
MAX_SLOTS caps it, and a wider convolution raises ValueError before it runs.

A bundle built from outside degrees is normalised in one C-level pass (an
integer check and sort).  The bundles this module builds itself are already
sorted integer tuples and skip it: a distribution expands in ascending order,
a twist by an integer keeps the order and a dual is the negated reverse.  An
expansion above MAX_SUMMANDS summands raises ValueError before it lists any.
h^0 and h^1 are read by bisecting the sorted degrees at the sign boundary and
summing one side.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from functools import lru_cache
from itertools import islice
from math import comb
from operator import index, neg

from ._value import value

# A degree distribution, Kronecker-packed: (low, w, packed), where the count
# of degree low + i sits in bytes [i*w, (i+1)*w) of the integer packed.
_Dist = tuple[int, int, int]

_EMPTY: _Dist = (0, 1, 0)
_UNIT: _Dist = (0, 1, 1)

MAX_SLOTS = 10_000_000
MAX_SUMMANDS = 1_000_000


def _check_limit(what: str, count: int, name: str, limit: int) -> None:
    """The one refusal of every size limit: ValueError when count passes it."""
    if count > limit:
        raise ValueError(f"{what} is at least {count}, above the limit {name} = {limit}")


def _check_slots(m: int, p: int, spread: int) -> None:
    # the hook (m, 1^p) packs m + p + 2 distributions (its rows, its columns
    # and the output), each over at most (m + p) * spread + 1 degrees
    _check_limit("the packed convolution size", (m + p + 2) * ((m + p) * spread + 1),
                 "MAX_SLOTS", MAX_SLOTS)


@lru_cache(maxsize=None)
def _hook_sums(degs: tuple[int, ...], m: int, p: int) -> _Dist:
    # One pass over the letters, from the last down.  rows[k] holds the degree
    # distribution of k repeatable row letters and cols[j] that of j distinct
    # column letters among the letters passed so far.  A corner d takes its p
    # column letters strictly after d and its m - 1 row letters from d on, so
    # it is read after the row update admits d and before the column update does.
    # Each distribution is packed over the degrees above its lowest possible
    # one (k, j or m + p times the least letter), so shifting by a letter is a
    # shift by its excess over the least letter, and the corner is one product.
    n = len(degs)
    if p >= n:
        return _EMPTY
    lo = min(degs)
    _check_slots(m, p, max(degs) - lo)
    # A packed distribution is its polynomial evaluated at x = 2^(8w), so the
    # shifts, sums and corner products are exact whatever the counts on the
    # way.  Only the output is read back slot by slot, which needs each of its
    # counts below 2^(8w); none exceeds the total, hook_rank(n, m, p).
    w = (hook_rank(n, m, p).bit_length() + 7) // 8
    rows = [1] + [0] * (m - 1)
    cols = [1] + [0] * p
    out = 0
    for d in reversed(degs):
        shift = (d - lo) * 8 * w
        for k in range(1, m):
            rows[k] += rows[k - 1] << shift
        out += cols[p] * rows[m - 1] << shift
        for j in range(p, 0, -1):
            cols[j] += cols[j - 1] << shift
    return (m + p) * lo, w, out


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


def _pairs(dist: _Dist) -> Iterator[tuple[int, int]]:
    """(degree, count) for every nonzero count of a distribution, ascending."""
    low, w, packed = dist
    raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    for i in range(0, len(raw), w):
        count = int.from_bytes(raw[i:i + w], "little")
        if count:
            yield low + i // w, count


def _expand(dist: _Dist) -> tuple[int, ...]:
    """The degrees of a distribution, ascending, one per summand."""
    pairs = list(_pairs(dist))
    rank = sum(count for _, count in pairs)
    _check_limit("the bundle rank", rank, "MAX_SUMMANDS", MAX_SUMMANDS)
    out: list[int] = []
    for deg, count in pairs:
        out.extend([deg] * count)
    return tuple(out)


@value(order=True)
class SplitBundle:
    """A direct sum of line bundles on P^1, as the sorted multiset of degrees."""

    degrees: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(sorted(map(index, self.degrees))))

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
        degs, i = self.degrees, index(i)
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
        return SplitBundle._normal(_expand(_complete_sums(self.degrees, index(k))))

    def wedge(self, k: int) -> SplitBundle:
        """Exterior power: one summand per k-subset; zero outside 0..rank."""
        return SplitBundle._normal(_expand(_elementary_sums(self.degrees, index(k))))

    def hook(self, m: int, p: int) -> SplitBundle:
        """Hook Schur functor for the shape (m, 1^p).

        Summands are indexed by semistandard tableaux with entries in
        0..rank-1: a weakly increasing first row of length m and a strictly
        increasing first column of length p + 1 sharing the corner cell.
        Only hook shapes are supported; they are exactly what the
        pushforward calculus of relative differentials consumes.
        """
        m, p = index(m), index(p)
        if m <= 0:
            raise ValueError("hook shapes need m >= 1")
        if p < 0:
            raise ValueError("hook shapes need p >= 0")
        return SplitBundle._normal(_expand(_hook_sums(self.degrees, m, p)))

    def dual(self) -> SplitBundle:
        return SplitBundle._normal(tuple(map(neg, reversed(self.degrees))))

    def twist(self, b: int) -> SplitBundle:
        return SplitBundle._normal(tuple(map(index(b).__add__, self.degrees)))

    def tensor(self, other: SplitBundle) -> SplitBundle:
        return SplitBundle([a + b for a in self.degrees for b in other.degrees])

    def __add__(self, other: SplitBundle) -> SplitBundle:
        """Direct sum."""
        return SplitBundle(self.degrees + other.degrees)


def hook_rank(letters: int, m: int, p: int) -> int:
    """Number of hook tableaux of shape (m, 1^p) over an alphabet of the
    given size, independent of any degree data."""
    if index(m) <= 0 or index(p) < 0:
        raise ValueError("invalid hook shape")
    return comb(letters + m - 1, m + p) * comb(m + p - 1, p)
