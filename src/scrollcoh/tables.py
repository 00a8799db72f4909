"""Per-degree dimension tables, exact or interval-valued, and the one
Markdown and one LaTeX renderer every printed table goes through."""

from __future__ import annotations

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
        for lo, hi in self.bounds:
            if not 0 <= lo <= hi:
                raise ValueError(f"invalid dimension bound [{lo}, {hi}]")
        if all(lo == hi for lo, hi in self.bounds):
            alt = sum((-1) ** i * lo for i, (lo, _) in enumerate(self.bounds))
            if alt != self.chi:
                raise ValueError("chi does not match the exact entries")

    @classmethod
    def exact(cls, values) -> "CohomTable":
        vals = tuple(int(v) for v in values)
        chi = sum((-1) ** i * v for i, v in enumerate(vals))
        return cls(tuple((v, v) for v in vals), chi)

    @classmethod
    def zero(cls, length: int) -> "CohomTable":
        return cls.exact((0,) * length)

    def __len__(self) -> int:
        return len(self.bounds)

    def bound(self, i: int) -> Bound:
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
        return all(lo == hi for lo, hi in self.bounds)

    def h(self, i: int) -> int:
        lo, hi = self.bound(i)
        if lo != hi:
            raise IndeterminateError(f"h^{i} is only bounded to [{lo}, {hi}]")
        return lo

    def values(self) -> tuple[int, ...]:
        return tuple(self.h(i) for i in range(len(self.bounds)))

    def scaled(self, k: int) -> "CohomTable":
        if k < 0:
            raise ValueError("cannot scale a table by a negative multiplicity")
        return CohomTable(tuple((k * lo, k * hi) for lo, hi in self.bounds), k * self.chi)

    def __add__(self, other: "CohomTable") -> "CohomTable":
        length = max(len(self), len(other))
        bounds = tuple((self.lo(i) + other.lo(i), self.hi(i) + other.hi(i))
                       for i in range(length))
        return CohomTable(bounds, self.chi + other.chi)


def _tightened(bounds: list[list[int]], chi: int) -> tuple[Bound, ...]:
    # Shrink interval entries using exactness of the Euler characteristic.
    for _ in range(2):
        for i in range(len(bounds)):
            rest_lo = rest_hi = 0
            for j, (lo, hi) in enumerate(bounds):
                if j == i:
                    continue
                if (j - i) % 2 == 0:
                    rest_lo += lo
                    rest_hi += hi
                else:
                    rest_lo -= hi
                    rest_hi -= lo
            target = chi if i % 2 == 0 else -chi
            lo_i = max(bounds[i][0], target - rest_hi, 0)
            hi_i = min(bounds[i][1], target - rest_lo)
            if lo_i > hi_i:
                raise ValueError("inconsistent interval table")
            bounds[i] = [lo_i, hi_i]
    return tuple((lo, hi) for lo, hi in bounds)


def _solve(total: CohomTable, known: CohomTable, step: int) -> CohomTable:
    # The unknown end of 0 -> A -> B -> C -> 0 from B and the known end: each
    # of its dimensions is the image from B plus what the connecting map takes
    # into degree i + step of the known end (A for step 1, C for step -1).
    length = max(len(total), len(known))
    chi = total.chi - known.chi
    bounds = []
    for i in range(length):
        j = i + step
        lo = max(0, total.lo(i) - known.hi(i)) + max(0, known.lo(j) - total.hi(j))
        hi = total.hi(i) + known.hi(j)
        bounds.append([lo, hi])
    return CohomTable(_tightened(bounds, chi), chi)


def solve_quotient(sub: CohomTable, total: CohomTable) -> CohomTable:
    """Bounds for C in a short exact sequence 0 -> A -> B -> C -> 0.

    Each dimension of C splits as the image from B plus the part mapping
    into the next degree of A; both summands are bracketed by the long
    exact sequence alone, so the bounds hold for arbitrary connecting maps
    and collapse to exact values whenever one-sided vanishing forces it.
    """
    return _solve(total, sub, 1)


def solve_sub(total: CohomTable, quotient: CohomTable) -> CohomTable:
    """Bounds for A in 0 -> A -> B -> C -> 0 given B and C."""
    return _solve(total, quotient, -1)


def intersect(a: CohomTable, b: CohomTable) -> CohomTable:
    """Entrywise intersection of two sound bounds for the same object."""
    if a.chi != b.chi:
        raise ValueError("cannot intersect tables with different chi")
    length = max(len(a), len(b))
    bounds = []
    for i in range(length):
        lo = max(a.lo(i), b.lo(i))
        hi = min(a.hi(i), b.hi(i))
        if lo > hi:
            raise ValueError("empty intersection: incompatible bounds")
        bounds.append([lo, hi])
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
