"""The scroll's full exceptional collection, its right dual, and the
Beilinson tables it induces.

The first collection consists of shifted duals of line bundles indexed by a
staircase of divisor pairs; the second lists the dual sheaves (structure
sheaf, a fibre twist, and paired twists of Omega^t for t = 1..n, the top
pair line bundles as Omega^n is).  The two are pinned together by the
Kronecker pairing Ext^k(E_i, F_j) = delta_{i=j=k}, which is verified rather
than derived.  Tables are printed with the dual collection labels on top and
the shifted collection labels on the bottom, columns from the last index
down to 0 and spectral rows decreasing downwards, so that the surviving
positions of an Ulrich twist form the main diagonal.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import index
from types import MappingProxyType

from ._value import value
from .homext import ext_line_vs_atom
from .relative import sheaf_cohomology
from .scroll import DivClass, Scroll
from .sheaves import Atom, FormalSheaf, line_atom, omega_atom
from .tables import latex_table, md_table


class NotDiagonalError(ValueError):
    """A Beilinson table carried weight away from the surviving diagonal."""


def sigma(i: int) -> tuple[int, int]:
    """The unique pair (s1, s2) with s1 + s2 = i and s1 - s2 in {0, 1}."""
    i = index(i)
    return (i + 1) // 2, i // 2


@value
class CollectionMember:
    atom: Atom
    shift: int = 0


@value
class Collection:
    flavor: str
    members: tuple[CollectionMember, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, idx: int) -> CollectionMember:
        return self.members[idx]

    def __iter__(self):
        return iter(self.members)


def build_collections(scroll: Scroll) -> tuple[Collection, Collection]:
    """The length 2n+2 exceptional collection and its right dual.

    Members of the E side are stored as (bundle, shift), the collection
    object being the shifted dual of the stored bundle; members 0 and 1 are
    the structure sheaf and a negative fibre twist, the rest follow the
    staircase pairs.  The F side matches it in the Kronecker pairing; its
    top pair is the t = n member, Omega^n in normal form as a line bundle.
    """
    e = [CollectionMember(line_atom(DivClass(0, 0)), 0),
         CollectionMember(line_atom(DivClass.from_pair(-1, 0)), 0)]
    for i in range(2, 2 * scroll.n + 2):
        u, v = sigma(-i + 1)
        e.append(CollectionMember(line_atom(DivClass.from_pair(u, v)), v))
    f = [CollectionMember(line_atom(DivClass(0, 0))),
         CollectionMember(line_atom(DivClass.from_pair(-1, 0)))]
    for t in range(1, scroll.n + 1):
        f.append(CollectionMember(omega_atom(scroll, t, DivClass.from_pair(t - 1, t))))
        f.append(CollectionMember(omega_atom(scroll, t, DivClass.from_pair(t - 2, t))))
    return Collection("E", tuple(e)), Collection("F", tuple(f))


@value
class DualityReport:
    passed: bool
    violations: tuple[tuple[int, int, int, int], ...]
    dims: tuple[tuple[tuple[int, ...], ...], ...]


def duality_report(scroll: Scroll, e_collection: Collection,
                   f_collection: Collection) -> DualityReport:
    """Check the Kronecker pairing of two collections in every degree k:
    dims[i][j] is the table h^0..h^{n+1} of L_i x F_j, E_i being L_i^*[-k_i],
    and Ext^k(E_i, F_j) is its entry m = k + k_i; violations are sorted."""
    rows = [[ext_line_vs_atom(scroll, em.atom, 0, fm.atom) for fm in f_collection]
            for em in e_collection]
    ext = {(i, j, k): d for i, (em, row) in enumerate(zip(e_collection, rows))
           for (j, k), d in _grid((table, em.shift) for table in row).items()}
    for i in range(min(len(e_collection), len(f_collection))):
        ext.setdefault((i, i, i), 0)
    violations = sorted((i, j, k, d) for (i, j, k), d in ext.items() if d != (i == j == k))
    dims = tuple(tuple(table.values() for table in row) for row in rows)
    return DualityReport(not violations, tuple(violations), dims)


def verify_duality(scroll: Scroll) -> DualityReport:
    e, f = build_collections(scroll)
    return duality_report(scroll, e, f)


def atom_label(atom: Atom, latex: bool = False) -> str:
    u, v = atom.twist.pair()
    if atom.is_line:
        return rf"\mathcal{{O}}_S({u},{v})" if latex else f"O_S({u},{v})"
    if latex:
        return rf"\Omega^{{{atom.p}}}_{{S|\mathbb{{P}}^1}}({u},{v})"
    return f"Omega^{atom.p}({u},{v})"


@value
class BeilinsonTable:
    """A table of numbers m_{j,q} = h^{q+k_j} of the twists by the shifted
    collection, indexed by columns j and spectral rows q.

    Rendering puts the dual collection labels on the top row and the shifted
    collection labels on the bottom one, with columns j = size-1 .. 0 from
    left to right and rows q = size-1 .. 0 from top to bottom; diagonal
    means q = j, the positions that survive for Ulrich input.

    The table keeps a read-only copy of ``entries`` in canonical form: zero
    entries dropped, keys as ints and the rest in (j, q) order, so that
    tables differing only in explicit zeros, key types such as 1.0 or True,
    or insertion order are equal, hash equal and read alike; readers take
    that order as stored.  Label tuples of another length than ``shifts``,
    a key outside size x size, or an entry that is not a nonnegative
    integer raise ValueError, zero entries included; this is the one place
    a slot is checked against the table's size, for profiles too.
    """

    shifts: tuple[int, ...]
    f_labels: tuple[str, ...]
    e_labels: tuple[str, ...]
    entries: Mapping[tuple[int, int], int]
    f_labels_tex: tuple[str, ...]
    e_labels_tex: tuple[str, ...]

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        size = len(self.shifts)
        if any(len(labels) != size for labels in (self.f_labels, self.e_labels,
                                                   self.f_labels_tex, self.e_labels_tex)):
            raise ValueError(f"a table with {size} shifts needs {size} labels in each row")
        for (j, q), v in entries.items():
            if j not in range(size) or q not in range(size):
                raise ValueError(f"entry at column {j}, row {q} is outside a table of size {size}")
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError(f"entry {v!r} at column {j}, row {q} is not a dimension")
        object.__setattr__(self, "entries", MappingProxyType(
            {(int(j), int(q)): v for (j, q), v in sorted(entries.items()) if v}))

    @property
    def size(self) -> int:
        return len(self.shifts)

    def entry(self, j: int, q: int) -> int:
        return self.entries.get((index(j), index(q)), 0)

    def off_diagonal(self) -> list[tuple[int, int, int]]:
        return [(j, q, v) for (j, q), v in self.entries.items() if q != j]

    @property
    def is_diagonal(self) -> bool:
        return not self.off_diagonal()

    def to_payload(self) -> dict:
        return {
            "size": self.size,
            "shifts": list(self.shifts),
            "f_labels": list(self.f_labels),
            "e_labels": list(self.e_labels),
            "entries": [{"j": j, "q": q, "h": v}
                        for (j, q), v in self.entries.items()],
            "diagonal": self.is_diagonal,
        }

    def render_md(self) -> str:
        cols = range(self.size - 1, -1, -1)
        rows = [[self.entry(j, q) for j in cols] for q in cols]
        rows.append([self.e_labels[j] for j in cols])
        return md_table([self.f_labels[j] for j in cols], rows)

    def render_latex(self) -> str:
        cols = range(self.size - 1, -1, -1)
        return latex_table([[f"${self.f_labels_tex[j]}$" for j in cols]],
                           [[f"${self.entry(j, q)}$" for j in cols] for q in cols],
                           [[f"${self.e_labels_tex[j]}$" for j in cols]])


def _frame(e: Collection, f: Collection) -> dict:
    """The shifts and labels of the table on the collections e and f: every
    field but its entries."""
    def shifted(member: CollectionMember, latex: bool) -> str:
        tag = atom_label(member.atom, latex)
        return f"{tag}[{member.shift}]" if member.shift else tag

    return dict(
        shifts=tuple(m.shift for m in e),
        f_labels=tuple(atom_label(m.atom) for m in f),
        e_labels=tuple(shifted(m, False) for m in e),
        f_labels_tex=tuple(atom_label(m.atom, True) for m in f),
        e_labels_tex=tuple(shifted(m, True) for m in e),
    )


def _grid(columns) -> dict[tuple[int, int], int]:
    """The entries {(j, m - k_j): h^m} of a Beilinson table whose column j
    is the cohomology table given with its shift k_j."""
    return {(j, m - shift): v for j, (table, shift) in enumerate(columns)
            for m, v in enumerate(table.values())}


def beilinson_table(scroll: Scroll, sheaf: FormalSheaf) -> BeilinsonTable:
    """Table of a genuine atom sum A: column j lists h^{m}(A x E_j) at the
    spectral row q = m - k_j.  Atom sums always evaluate exactly; anything
    indeterminate would abort with a distinct error rather than guess."""
    e, f = build_collections(scroll)
    return BeilinsonTable(entries=_grid((sheaf_cohomology(scroll, sheaf.twist(em.atom.twist)),
                                         em.shift) for em in e), **_frame(e, f))


def _profile_entries(profile, n: int | None = None) -> dict[tuple[int, int], int]:
    """Entries {(j, q): h} of a profile {"n": ..., "entries": [{"j", "q",
    "h"}, ...]}, repeated slots summed; the table checks each slot against
    its size and drops the zeros.

    The reader checks the JSON shape and nothing the table checks: an object
    with no keys but "n" and "entries", each entry an object with exactly the
    keys "j", "q" and "h", every number a genuine int (no bools, floats or
    strings), every h nonnegative, and a present "n" equal to ``n`` unless
    that is None.  Each refusal is a ValueError naming the profile.
    """
    if not isinstance(profile, dict) or not profile.keys() <= {"n", "entries"}:
        raise ValueError("a profile must be a JSON object with no keys but 'n' and 'entries'")
    records = profile.get("entries", [])
    if not isinstance(records, list) or any(
            not isinstance(rec, dict) or rec.keys() != {"j", "q", "h"} for rec in records):
        raise ValueError("profile entries must be a list of JSON objects with exactly "
                         "the keys 'j', 'q' and 'h'")
    fields = [("n", profile["n"])] if "n" in profile else []
    for name, val in fields + [item for rec in records for item in rec.items()]:
        if type(val) is not int:
            raise ValueError(f"profile field {name!r} must be an integer, got {val!r}")
    if n is not None and profile.get("n", n) != n:
        raise ValueError(f"profile is for n = {profile['n']}, the table is for n = {n}")
    entries: dict[tuple[int, int], int] = {}
    for rec in records:
        if rec["h"] < 0:
            raise ValueError("profile dimensions must be nonnegative")
        slot = rec["j"], rec["q"]
        entries[slot] = entries.get(slot, 0) + rec["h"]
    return entries


def _profile_table(profile, n: int, **frame) -> BeilinsonTable:
    """The table with the given frame (every field but its entries) and the
    entries of ``profile`` for n: the one path from a profile to a table.
    The table checks each slot against its size, and its refusal is raised
    in the profile's name."""
    entries = _profile_entries(profile, n)
    try:
        return BeilinsonTable(entries=entries, **frame)
    except ValueError as exc:
        raise ValueError(f"profile {exc}") from None


def beilinson_table_from_profile(scroll: Scroll, profile: dict) -> BeilinsonTable:
    """Table from caller-supplied entries {"j", "q", "h"} with q the spectral
    row as printed; omitted entries are zero."""
    return _profile_table(profile, scroll.n, **_frame(*build_collections(scroll)))


def _read_diagonal(table: BeilinsonTable, columns) -> tuple[int, ...]:
    """The diagonal entries of ``table`` in the given columns, in their order;
    weight anywhere else raises NotDiagonalError naming the offending slot."""
    slots = {j: i for i, j in enumerate(columns)}
    result = [0] * len(slots)
    for (j, q), v in table.entries.items():
        if q != j:
            raise NotDiagonalError(f"entry {v} off the diagonal at column {j}, row {q}")
        if j not in slots:
            raise NotDiagonalError(
                f"diagonal entry {v} at column {j} matches no building block")
        result[slots[j]] = v
    return tuple(result)


def _block_columns(n: int) -> tuple[int, ...]:
    """Columns 1, 2, 4, ..., 2n: the dual members that are the blocks' -H twists."""
    return 1, *range(2, 2 * n + 1, 2)


def diagonal_type(scroll: Scroll, table: BeilinsonTable) -> tuple[int, ...]:
    """Filtration multiplicities (a_0, ..., a_n) read off a diagonal table.

    a_0 sits in column 1, a_i in column 2i for i = 1..n.  Any other weight,
    or a table not of size 2n + 2, means the input was not the -H twist of
    an Ulrich bundle and raises.
    """
    if table.size != 2 * scroll.n + 2:
        raise ValueError(f"table of size {table.size}, but the scroll's is {2 * scroll.n + 2}")
    return _read_diagonal(table, _block_columns(scroll.n))
