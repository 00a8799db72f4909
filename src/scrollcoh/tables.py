"""Per-degree dimension tables, exact or interval-valued, and the one
Markdown and one LaTeX renderer every printed table goes through."""

from __future__ import annotations

from itertools import zip_longest
from operator import index

from ._value import value


class IndeterminateError(RuntimeError):
    """Raised when an interval entry is used where an exact value is required."""


Bound = tuple[int, int]


@value
class CohomTable:
    """Dimensions h^0 .. h^(len-1), each an interval [lo, hi], plus exact chi.

    An entry with lo == hi is exact.  Intervals always contain the true
    dimension and chi is exact even when single entries are not; when every
    entry is exact the alternating sum must reproduce chi.
    """

    bounds: tuple[Bound, ...]
    chi: int = 0

    def __post_init__(self) -> None:
        bounds = tuple([(index(lo), index(hi)) for lo, hi in self.bounds])
        for lo, hi in bounds:
            if not 0 <= lo <= hi:
                raise ValueError(f"invalid dimension bound [{lo}, {hi}]")
        object.__setattr__(self, "bounds", bounds)
        # the exact values, kept once; None while any entry is open
        vals = tuple([lo for lo, hi in bounds if lo == hi])
        if len(vals) < len(bounds):
            vals = None
        elif sum(vals[::2]) - sum(vals[1::2]) != self.chi:
            raise ValueError("chi does not match the exact entries")
        object.__setattr__(self, "_vals", vals)

    @classmethod
    def exact(cls, values) -> "CohomTable":
        vals = tuple(values)  # __post_init__ reads each with index
        return cls(tuple(zip(vals, vals)), sum(vals[::2]) - sum(vals[1::2]))

    @classmethod
    def zero(cls, length: int) -> "CohomTable":
        return cls.exact((0,) * length)

    def __len__(self) -> int:
        return len(self.bounds)

    def bound(self, i: int) -> Bound:
        i = index(i)
        return self.bounds[i] if 0 <= i < len(self.bounds) else (0, 0)

    def lo(self, i: int) -> int:
        return self.bound(i)[0]

    def hi(self, i: int) -> int:
        return self.bound(i)[1]

    def entry_exact(self, i: int) -> bool:
        lo, hi = self.bound(i)
        return lo == hi

    @property
    def is_exact(self) -> bool:
        return self._vals is not None

    def h(self, i: int) -> int:
        lo, hi = self.bound(i)
        if lo != hi:
            raise IndeterminateError(f"h^{i} is only bounded to [{lo}, {hi}]")
        return lo

    def values(self) -> tuple[int, ...]:
        if self._vals is None:  # raised by h, naming the first open entry
            self.h(next(i for i, (lo, hi) in enumerate(self.bounds) if lo < hi))
        return self._vals

    def scaled(self, k: int) -> "CohomTable":
        if index(k) < 0:
            raise ValueError("cannot scale a table by a negative multiplicity")
        return CohomTable(tuple((k * lo, k * hi) for lo, hi in self.bounds), k * self.chi)

    def __add__(self, other: "CohomTable") -> "CohomTable":
        bounds = tuple((alo + blo, ahi + bhi) for (alo, ahi), (blo, bhi)
                       in zip_longest(self.bounds, other.bounds, fillvalue=(0, 0)))
        return CohomTable(bounds, self.chi + other.chi)


def _tightened(bounds: tuple[Bound, ...], chi: int) -> tuple[Bound, ...]:
    # Shrink each entry to its projection of the box's integer points on
    # sum (-1)^i h^i = chi.  The rest of the sum takes every integer between
    # its extremes, so each projection follows from the box's least and
    # greatest alternating sums, and narrowing removes no point: every entry
    # is narrowed against the same box, in one pass.  An empty box, or one
    # missing the hyperplane, leaves some entry with lo > hi.
    least = sum(lo for lo, _ in bounds[::2]) - sum(hi for _, hi in bounds[1::2])
    most = sum(hi for _, hi in bounds[::2]) - sum(lo for lo, _ in bounds[1::2])
    out = []
    for i, (lo, hi) in enumerate(bounds):
        below, above = (chi - most, chi - least) if i % 2 == 0 else (least - chi, most - chi)
        lo, hi = max(lo, hi + below), min(hi, lo + above)
        if lo > hi:
            raise ValueError("inconsistent interval table")
        out.append((lo, hi))
    return tuple(out)


def solve_quotient(sub: CohomTable, total: CohomTable) -> CohomTable:
    """Bounds for C in a short exact sequence 0 -> A -> B -> C -> 0.

    Each dimension of C splits as the image from B plus the part mapping
    into the next degree of A; both summands are bracketed by the long
    exact sequence alone, so the bounds hold for arbitrary connecting maps
    and collapse to exact values whenever one-sided vanishing forces it.
    """
    # Padded past the longer table, index i + 1 reads zero in both.
    length = max(len(total), len(sub))
    t = total.bounds + ((0, 0),) * (length + 1 - len(total))
    a = sub.bounds + ((0, 0),) * (length + 1 - len(sub))
    chi = total.chi - sub.chi
    bounds = tuple((max(0, t[i][0] - a[i][1]) + max(0, a[i + 1][0] - t[i + 1][1]),
                    t[i][1] + a[i + 1][1]) for i in range(length))
    return CohomTable(_tightened(bounds, chi), chi)


def intersect(a: CohomTable, b: CohomTable) -> CohomTable:
    """Entrywise intersection of two sound bounds for the same object."""
    if a.chi != b.chi:
        raise ValueError("cannot intersect tables with different chi")
    bounds = tuple((max(alo, blo), min(ahi, bhi)) for (alo, ahi), (blo, bhi)
                   in zip_longest(a.bounds, b.bounds, fillvalue=(0, 0)))
    return CohomTable(_tightened(bounds, a.chi), a.chi)


def md_table(header, rows) -> str:
    """A Markdown table: the header row, the rule, then one line per row."""
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return "\n".join(lines)


def latex_table(*sections) -> str:
    """A LaTeX tabular of sections of rows, ruled above and below every row and
    twice between sections; the first row sets the column count."""
    lines = [r"\begin{tabular}{|" + "c|" * len(sections[0][0]) + "}", r"\hline"]
    for k, rows in enumerate(sections):
        if k:
            lines.append(r"\hline")
        for row in rows:
            lines += [" & ".join(str(cell) for cell in row) + r" \\", r"\hline"]
    lines.append(r"\end{tabular}")
    return "\n".join(lines)
