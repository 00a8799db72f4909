"""Ulrich bundles on a scroll: building blocks, verification, classification
into filtration multiplicities, type enumeration, and the Veronese tables.

Scope: rational normal scrolls, plus the Veronese surface and threefold
through their degree-two collections.  Quadric hypersurfaces and their
spinor bundles need machinery this engine does not have and are excluded.
Numeric types carry no extension data: indecomposability is never asserted
from numerics alone, only slopes and Hom/Ext bounds are reported.
"""

from __future__ import annotations

from operator import index

from ._value import value
from .beilinson import (BeilinsonTable, _grid, _profile_entries, _read_diagonal,
                        beilinson_table, beilinson_table_from_profile,
                        diagonal_type)
from .p1 import MAX_SUMMANDS, _check_limit
from .relative import pn_omega_cohomology, sheaf_cohomology
from .scroll import DivClass, H, Scroll
from .sheaves import (Atom, FormalSheaf, _slope, atom_c1, atom_rank, omega_atom,
                      sheaf_rank)

MAX_TYPES = 10_000


def block_atom(scroll: Scroll, i: int) -> Atom:
    """The i-th building block Omega^i_{S|P^1}((i+1)H - F), line-normalised
    at the ends: O(H - F) for i = 0, O((c-1)F) for i = n."""
    if not 0 <= index(i) <= scroll.n:
        raise ValueError("block index out of range")
    atom = omega_atom(scroll, i, DivClass.from_pair(i, i + 1))
    assert atom is not None
    return atom


def block(scroll: Scroll, i: int) -> FormalSheaf:
    return FormalSheaf.of(block_atom(scroll, i))


@value
class UlrichVerdict:
    passed: bool
    rank: int
    h0: int
    expected_h0: int
    initialized: bool
    vanishing: tuple[tuple[int, tuple[int, ...]], ...]
    failures: tuple[str, ...]


class NotUlrichError(ValueError):
    def __init__(self, verdict: UlrichVerdict):
        super().__init__("; ".join(verdict.failures) or "not Ulrich")
        self.verdict = verdict


def is_ulrich(scroll: Scroll, sheaf: FormalSheaf) -> UlrichVerdict:
    """Finite Ulrich check with full evidence.

    Requires total vanishing of all twists by -jH for j = 1..n+1 together
    with the extremal section count h^0 = c * rank; the initialisation
    h^0(V(-H)) = 0 < h^0(V) is recorded separately even though the sweep
    subsumes it.  Every computed number is returned.
    """
    rank = sheaf_rank(scroll, sheaf)
    h0 = sheaf_cohomology(scroll, sheaf).h(0)
    expected = scroll.c * rank
    failures = []
    vanishing = []
    for j in range(1, scroll.n + 2):
        vals = sheaf_cohomology(scroll, sheaf.twist(DivClass(-j, 0))).values()
        vanishing.append((j, vals))
        if any(vals):
            failures.append(f"nonzero cohomology of the -{j}H twist: {list(vals)}")
    initialized = h0 > 0 and vanishing[0][1][0] == 0
    if h0 != expected:
        failures.append(f"h^0 = {h0} differs from degree times rank = {expected}")
    if not initialized:
        failures.append("not initialized")
    return UlrichVerdict(not failures, rank, h0, expected, initialized,
                         tuple(vanishing), tuple(failures))


def classify(scroll: Scroll, sheaf: FormalSheaf | None = None,
             profile: dict | None = None) -> tuple[int, ...]:
    """Filtration multiplicities of an Ulrich bundle.

    Formal atom sums are verified first and tabulated after the -H twist;
    profiles are taken at the caller's word and only read off the diagonal,
    which must hold some weight.
    """
    if (sheaf is None) == (profile is None):
        raise ValueError("classify needs exactly one of a sheaf or a profile")
    if sheaf is not None:
        verdict = is_ulrich(scroll, sheaf)
        if not verdict.passed:
            raise NotUlrichError(verdict)
        table = beilinson_table(scroll, sheaf.twist(-H))
    else:
        table = beilinson_table_from_profile(scroll, profile)
    mults = diagonal_type(scroll, table)
    if not any(mults):  # only from a profile: the zero sheaf is not Ulrich
        raise ValueError("the profile's diagonal is empty: no block has positive multiplicity")
    return mults


@value
class TypeInfo:
    multiplicities: tuple[int, ...]
    rank: int
    c1: DivClass
    h0: int
    slope: Fraction  # fractions.Fraction, from sheaves._slope, the step deg_slope takes
    line_block_positions: tuple[int, ...]


def _type(scroll: Scroll, multiplicities) -> tuple[int, ...]:
    mults = tuple(map(index, multiplicities))
    if len(mults) != scroll.n + 1:
        raise ValueError("a type needs n + 1 multiplicities")
    if any(a < 0 for a in mults):
        raise ValueError("multiplicities must be nonnegative")
    return mults


def type_sheaf(scroll: Scroll, multiplicities) -> FormalSheaf:
    """The block sum with the given multiplicities."""
    return FormalSheaf(tuple((block_atom(scroll, i), a)
                             for i, a in enumerate(_type(scroll, multiplicities)) if a))


def type_info(scroll: Scroll, multiplicities) -> TypeInfo:
    return _type_infos(scroll, [_type(scroll, multiplicities)])[0]


def _type_infos(scroll: Scroll, types) -> list[TypeInfo]:
    """The TypeInfo of each type, what deg_slope reads off its block sum: the
    rank, c1 and degree are sums over the blocks, and each block's rank and
    c1 are computed once, when a type first uses it, so no sheaf is built per
    type and no binomial of a block no type uses."""
    blocks: dict[int, tuple[int, DivClass]] = {}
    infos = []
    for mults in types:
        rank = h = f = 0
        for i, a in enumerate(mults):
            if a:
                if i not in blocks:
                    atom = block_atom(scroll, i)
                    blocks[i] = atom_rank(scroll, atom), atom_c1(scroll, atom)
                r, c1 = blocks[i]
                rank, h, f = rank + a * r, h + a * c1.h, f + a * c1.f
        rank, c1, _, slope = _slope(scroll, rank, DivClass(h, f))
        # blocks 0 and n are the line bundles, the only blocks of rank one
        lines = tuple(i for i in (0, scroll.n) if mults[i])
        infos.append(TypeInfo(mults, rank, c1, scroll.c * rank, slope, lines))
    return infos


def enumerate_types(scroll: Scroll, rank: int | None = None,
                    h0: int | None = None) -> list[TypeInfo]:
    """All multiplicity vectors with the requested rank (or section count),
    in ascending lexicographic order; possibly empty.  Raises ValueError
    naming MAX_TYPES or MAX_SUMMANDS before the listing holds more types, or
    more entries in all, than that limit."""
    if (rank is None) == (h0 is None):
        raise ValueError("enumerate needs exactly one of rank or h0")
    if h0 is not None:
        rank, rem = divmod(index(h0), scroll.c)
        if rem:
            return []
    if index(rank) < 1:
        return []
    # Block i has rank C(n, i), which rises to the middle and falls back: only
    # the blocks before the first of rank above `rank`, and their mirror
    # images, can be nonzero.  The odometer runs over all of these but block
    # n, which has rank 1 and takes what is left; rest[i] is the rank left
    # after the first i of them.
    n = scroll.n
    ranks = [1]
    while len(ranks) <= n and ranks[-1] <= rank:
        ranks.append(ranks[-1] * (n + 1 - len(ranks)) // len(ranks))
    k = len(ranks) - 1
    weights = ranks[:k] + (ranks[k - 1:0:-1] if ranks[k] > rank else [])
    m = len(weights)
    zeros, acc, rest = (0,) * (n - m), [0] * m, [rank] * (m + 1)
    found: list[tuple[int, ...]] = []
    while True:
        _check_limit("the number of types", len(found) + 1, "MAX_TYPES", MAX_TYPES)
        _check_limit("the number of listed entries", (len(found) + 1) * (n + 1),
                     "MAX_SUMMANDS", MAX_SUMMANDS)
        found.append((*acc[:k], *zeros, *acc[k:], rest[m]))
        pos = m - 1
        while pos >= 0 and rest[pos + 1] < weights[pos]:
            pos -= 1
        if pos < 0:
            return _type_infos(scroll, found)
        acc[pos] += 1
        rest[pos + 1] -= weights[pos]
        acc[pos + 1:] = [0] * (m - 1 - pos)
        rest[pos + 2:] = [rest[pos + 1]] * (m - 1 - pos)


def _pn_labels(dim: int) -> tuple[tuple[str, ...], tuple[str, ...],
                                  tuple[str, ...], tuple[str, ...]]:
    f_plain = ["O"] + [f"Omega^{t}({t})" for t in range(1, dim)] + ["O(-1)"]
    f_tex = ([r"\mathcal{O}"]
             + [rf"\Omega^{{{t}}}({t})" for t in range(1, dim)]
             + [r"\mathcal{O}(-1)"])
    e_plain = ["O"] + [f"O(-{j})" for j in range(1, dim + 1)]
    e_tex = [r"\mathcal{O}"] + [rf"\mathcal{{O}}(-{j})" for j in range(1, dim + 1)]
    return tuple(f_plain), tuple(f_tex), tuple(e_plain), tuple(e_tex)


def veronese_table(dim: int, profile: dict | None = None,
                   atom: tuple[int, int] | None = None) -> BeilinsonTable:
    """Beilinson table on P^dim for the degree-two polarisation collections.

    Column j pairs O(-j) with the dual member (structure sheaf, twisted
    differentials Omega^t(t), and O(-1) last); only dim 2 and 3 are
    supported.  Input is either atom=(p, k) for the twisted differential
    Omega^p(k), evaluated through the Bott dimensions, or an explicit
    profile of {"j", "q", "h"} records.
    """
    if index(dim) not in (2, 3):
        raise ValueError("only the Veronese surface and threefold are supported")
    if (atom is None) == (profile is None):
        raise ValueError("need exactly one of an atom or a profile")
    size = dim + 1
    if atom is not None:
        p, k = atom
        entries = _grid((pn_omega_cohomology(dim, p, k - j), 0) for j in range(size))
    else:
        entries = _profile_entries(profile)
    f_plain, f_tex, e_plain, e_tex = _pn_labels(dim)
    return BeilinsonTable(shifts=(0,) * size, f_labels=f_plain, e_labels=e_plain,
                          entries=entries, f_labels_tex=f_tex, e_labels_tex=e_tex)


def veronese_classify(table: BeilinsonTable) -> int:
    """Multiplicity of the unique indecomposable Ulrich bundle on the
    Veronese surface, read off the single admissible diagonal slot, that of
    column 1; any weight elsewhere raises NotDiagonalError."""
    return _read_diagonal(table, [1])[0]
