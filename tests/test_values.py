"""The value-type contract: immutability, and equality, hashing, ordering and
repr that agree with a ``dataclasses`` twin of each class.

``dataclasses`` serves only as the oracle here; the package itself must not
import it, because it is the largest part of the command line start-up.
"""

import dataclasses
import operator
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scrollcoh import (H, Atom, BeilinsonTable, CohomTable, Collection,
                       CollectionMember, DivClass, DualityReport, FormalSheaf,
                       Scroll, SplitBundle, TypeInfo, UlrichVerdict,
                       beilinson_table, block_atom, enumerate_types, fiber_degree,
                       hook_rank, is_ulrich, koszul_resolution, omega_atom,
                       omega_cohomology, pn_omega_cohomology, segre_ext1, sigma,
                       type_info, type_sheaf, verify_duality, veronese_table)
from scrollcoh._value import value
from scrollcoh.beilinson import build_collections
from test_package import fresh

SRC = Path(__file__).resolve().parents[1] / "src"


def _fields(cls):
    return tuple(cls.__annotations__)


def _public_values():
    S = Scroll((1, 2))
    e, _ = build_collections(S)
    return [
        SplitBundle((1, 2)), DivClass(1, 2), S, CohomTable.exact((1, 0, 0)),
        Atom(1, DivClass(0, 1)), FormalSheaf.of(Atom(0, DivClass(1, 0))),
        e[0], e, verify_duality(S), beilinson_table(S, type_sheaf(S, (1, 0))),
        veronese_table(2, atom=(1, 1)), is_ulrich(S, type_sheaf(S, (1, 1))),
        type_info(S, (1, 1)),
    ]


def test_every_public_value_type_is_covered():
    covered = {type(v) for v in _public_values()}
    assert covered == {SplitBundle, DivClass, Scroll, CohomTable, Atom,
                       FormalSheaf, CollectionMember, Collection,
                       DualityReport, BeilinsonTable, UlrichVerdict, TypeInfo}


@pytest.mark.parametrize("obj", _public_values(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(obj):
    for name in _fields(type(obj)):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_table_entries_are_read_only():
    entries = {(0, 0): 2}
    built = BeilinsonTable((0, 1), ("a", "b"), ("c", "d"), entries, ("A", "B"), ("C", "D"))
    entries[(1, 1)] = 7  # a later edit of the caller's dict does not reach the table
    assert dict(built.entries) == {(0, 0): 2} and built.entry(1, 1) == 0
    for table in [built, *_public_values()]:
        if isinstance(table, BeilinsonTable):
            with pytest.raises(TypeError):
                table.entries[(0, 0)] = 1


@pytest.mark.parametrize("obj", _public_values(), ids=lambda v: type(v).__name__)
def test_rebuilt_from_its_fields_equals_and_hashes_alike(obj):
    rebuilt = type(obj)(*(getattr(obj, n) for n in _fields(type(obj))))
    assert rebuilt == obj and hash(rebuilt) == hash(obj)


def _table(entries):
    return BeilinsonTable((0, 1), ("a", "b"), ("c", "d"), entries, ("A", "B"), ("C", "D"))


@pytest.mark.parametrize("variants", [
    [{(1, 0): 0, (1, 1): 1}, {(1, 1): 1}, {(1, 1): 1, (1, 0): 0}, {(0, 1): 0, (1, 1): 1}],
    [{(0, 1): 2, (1, 1): 1, (0, 0): 3}, {(1, 1): 1, (0, 0): 3, (0, 1): 2},
     {(1, 0): 0, (0, 0): 3, (1, 1): 1, (0, 1): 2}],
    [{(0, 0): 2, (1, 1): 1}, {(1.0, True): 1, (False, 0.0): 2}],
], ids=["explicit-zeros", "insertion-order", "key-types"])
def test_tables_differing_in_zeros_order_or_key_types_are_one_table(variants):
    # the table keeps only nonzero entries, keyed by ints, in (j, q) order;
    # repr tells 1.0 and True from 1 where == does not
    first, *rest = map(_table, variants)
    assert list(first.entries) == sorted(first.entries) and all(first.entries.values())
    for table in rest:
        assert table == first and hash(table) == hash(first) and repr(table) == repr(first)
        assert repr(table.to_payload()) == repr(first.to_payload())
        assert table.is_diagonal == first.is_diagonal
        assert table.off_diagonal() == first.off_diagonal()
        assert table.render_md() == first.render_md()
        assert table.render_latex() == first.render_latex()


# -- dataclasses as the oracle -------------------------------------------------

_ORDERED = (DivClass, Scroll, Atom, SplitBundle)


def _twin_class(cls):
    twin = dataclasses.make_dataclass(cls.__name__, _fields(cls), frozen=True,
                                      order=cls in _ORDERED)
    twin.__qualname__ = cls.__qualname__
    return twin


_TWINS = {cls: _twin_class(cls) for cls in _ORDERED + (CohomTable,)}


def twin(obj):
    cls = type(obj)
    return _TWINS[cls](*(getattr(obj, n) for n in _fields(cls)))


small = st.integers(-2, 2)
div_classes = st.builds(DivClass, small, small)
scrolls = st.lists(st.integers(1, 3), min_size=2, max_size=4).map(Scroll)
atoms = st.builds(Atom, st.integers(0, 2), div_classes)
split_bundles = st.lists(small, max_size=4).map(SplitBundle)


@st.composite
def cohom_tables(draw):
    bounds = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                           min_size=1, max_size=4))
    bounds = tuple((lo, lo + w) for lo, w in bounds)
    if all(lo == hi for lo, hi in bounds):
        chi = sum((-1) ** i * lo for i, (lo, _) in enumerate(bounds))
    else:
        chi = draw(small)
    return CohomTable(bounds, chi)


values = st.one_of(div_classes, scrolls, atoms, split_bundles, cohom_tables())


@given(values, values)
def test_agrees_with_dataclass_twin(x, y):
    tx = twin(x)
    assert repr(x) == repr(tx)
    assert hash(x) == hash(tx)
    assert x != tx and tx != x
    if type(x) is not type(y):
        assert x != y and not x == y
        return
    ty = twin(y)
    assert (x == y) == (tx == ty)
    assert (x != y) == (tx != ty)
    if type(x) in _ORDERED:
        assert (x < y, x <= y, x > y, x >= y) == (tx < ty, tx <= ty, tx > ty, tx >= ty)


@pytest.mark.parametrize("x, y", [
    (DivClass(), Scroll((1, 2))),
    (Atom(0, DivClass()), SplitBundle((1,))),
    (SplitBundle(), DivClass()),
], ids=["divisor-scroll", "atom-bundle", "bundle-divisor"])
def test_order_across_classes_raises_type_error(x, y):
    # as between two dataclasses: __lt__ answers NotImplemented for another class
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((x, y), (twin(x), twin(y))):
            with pytest.raises(TypeError):
                op(a, b)


@given(values)
def test_never_equal_to_another_class_with_the_same_fields(x):
    fields = tuple(getattr(x, n) for n in _fields(type(x)))
    assert x != fields and fields != x
    by_keyword = type(x)(**dict(zip(_fields(type(x)), fields)))
    assert x == type(x)(*fields) == by_keyword
    assert hash(x) == hash(by_keyword)


# -- the constructor against a twin with the same defaults ---------------------

def _defaults_twin(cls):
    fields = [(n, object, dataclasses.field(default=cls.__dict__[n]))
              if n in cls.__dict__ else n for n in _fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _bad_calls(obj):
    """(what, args, kwargs) for calls that a dataclass constructor refuses,
    with the fields of ``obj`` as the values, so that only binding can fail."""
    cls = type(obj)
    every = {n: getattr(obj, n) for n in _fields(cls)}
    first = next(iter(every.values()))
    yield "too many positional arguments", (*every.values(), first), {}
    yield "an unknown keyword", (), {**every, "unknown": first}
    yield "a field given twice", (first,), every
    for name in every:
        if name not in cls.__dict__:
            yield f"no {name}", (), {n: v for n, v in every.items() if n != name}


_CONSTRUCTED = tuple(_TWINS) + (FormalSheaf, CollectionMember, Collection)


@pytest.mark.parametrize("obj", [v for v in _public_values() if type(v) in _CONSTRUCTED],
                         ids=lambda v: type(v).__name__)
def test_constructor_raises_type_error_where_a_dataclass_does(obj):
    cls = type(obj)
    twin_cls = _defaults_twin(cls)
    for what, args, kwargs in _bad_calls(obj):
        with pytest.raises(TypeError):
            twin_cls(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
            pytest.fail(f"{cls.__name__} accepted {what}")


def test_defaults_fill_the_fields_left_out():
    atom = Atom(0, DivClass(1, 0))
    for cls, args in [(DivClass, ()), (SplitBundle, ()), (FormalSheaf, ()),
                      (CohomTable, (((0, 0),),)), (CollectionMember, (atom,))]:
        obj = cls(*args)
        assert repr(obj) == repr(_defaults_twin(cls)(*args))
        assert obj == cls(*(getattr(obj, n) for n in _fields(cls)))
    assert DivClass(f=0) == DivClass() and CollectionMember(shift=0, atom=atom) == CollectionMember(atom)


@pytest.mark.parametrize("make, args", [
    (SplitBundle, ((1.5,),)),
    (SplitBundle, (("2",),)),
    (Scroll, ((1.5, 2),)),
    (FormalSheaf, (((Atom(0, DivClass(1, 0)), 0.5),),)),
    (CohomTable.exact, ((1, 0.0),)),
    (type_sheaf, (Scroll((1, 2)), (1.5, 0))),
    (type_info, (Scroll((1, 2)), (1, "1"))),
    (DivClass, (0.5, 3)),
    (Atom, (1.5, DivClass())),
    (CohomTable, (((0.5, 0.5), (1, 1.5)), 0.25)),
    (CohomTable, (((1, 1),), 1.0)),
    (SplitBundle((1, 2)).twist, (1.5,)),
    (SplitBundle((1, 2)).twist, ("2",)),
    (omega_cohomology, (Scroll((1, 1, 1)), 1.5, H)),
    (pn_omega_cohomology, (2, 1, 0.5)),
    (fiber_degree, (2, 1.5, 1)),
    (veronese_table, (2, None, (1, 0.5))),
    (enumerate_types, (Scroll((1, 2)), None, 7.5)),
    (enumerate_types, (Scroll((1, 2)), 0.5)),
    (segre_ext1, (Scroll((1, 1, 1)), 0.5, 0)),
    (segre_ext1, (Scroll((1, 1, 1)), 0, 0.5)),
    (SplitBundle((1, 2)).h, (0.5,)),
    (SplitBundle((1, 2)).h, ("0",)),
    (SplitBundle((1, 2)).sym, (-1.0,)),
    (SplitBundle((1, 2)).wedge, (0.0,)),
    (SplitBundle((1, 2)).hook, (1.0, 5)),
    (SplitBundle((1, 2)).hook, (1, 5.0)),
    (koszul_resolution, (Scroll((1, 1, 2)), 2.0, H)),
    (omega_atom, (Scroll((1, 1, 2)), 0.0, H)),
    (sigma, (3.0,)),
    (fiber_degree, (2.5, 1, 1)),
    (veronese_table(2, atom=(1, 1)).entry, (0.5, 0)),
    (veronese_table(2, atom=(1, 1)).entry, (0, "0")),
    (CohomTable.exact((1, 0)).h, (2.5,)),
    (CohomTable.exact((1, 0)).scaled, (-0.5,)),
    (hook_rank, (2, -0.5, 0)),
    (pn_omega_cohomology, (0.5, 1, 1)),
    (block_atom, (Scroll((1, 2)), 5.5)),
    (veronese_table, (2.5, None, (1, 1))),
], ids=["bundle-float", "bundle-str", "scroll", "sheaf", "table", "type_sheaf", "type_info",
        "divisor", "atom", "table-bounds", "table-chi", "twist-float", "twist-str",
        "omega-p", "pn-twist", "fiber-p", "veronese-twist", "enumerate-h0", "enumerate-rank",
        "segre-i", "segre-j", "h-float", "h-str", "sym-k", "wedge-k", "hook-m", "hook-p",
        "koszul-p", "omega_atom-p", "sigma", "fiber-n", "entry-float", "entry-str",
        "table-h-index", "table-scaled", "hook_rank-m", "pn-n", "block-i", "veronese-dim"])
def test_integer_inputs_are_checked_not_truncated(make, args):
    # int() would read 1.5 as 1 and "2" as 2, a silent wrong answer
    with pytest.raises(TypeError):
        make(*args)


# each float twin is asked after its integer, whose answer some cache then holds
@pytest.mark.parametrize("call, good, bad", [
    (omega_cohomology, (Scroll((1, 1, 1)), 1, H), (Scroll((1, 1, 1)), 1.0, H)),
    (SplitBundle((1, 2)).sym, (2,), (2.0,)),
    (SplitBundle((1, 2)).wedge, (1,), (1.0,)),
    (SplitBundle((1, 2)).hook, (2, 1), (2.0, 1)),
], ids=["omega-p", "sym-k", "wedge-k", "hook-m"])
def test_integer_inputs_are_checked_after_their_integer_twin_is_cached(call, good, bad):
    call(*good)
    with pytest.raises(TypeError):
        call(*bad)


def test_a_bool_p_is_answered_as_its_int_whichever_comes_first():
    S, S2 = Scroll((1, 1, 1)), Scroll((1, 2, 2))
    assert omega_cohomology(S, True, H) == omega_cohomology(S, 1, H)
    assert omega_cohomology(S2, 1, 2 * H) == omega_cohomology(S2, True, 2 * H)


def test_bool_table_entries_are_stored_as_ints():
    values = CohomTable(((True, True),), 1).values()
    assert values == (1,) and type(values[0]) is int


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    # the constructor's signature is compiled as written, as a def's would be
    with pytest.raises(SyntaxError):
        @value
        class Misordered:
            a: int = 0
            b: int


def test_a_mapping_field_is_keyed_by_its_items():
    # written out here, where beilinson postpones its annotation to a string;
    # no __post_init__ fixes the order of the items, and the key ignores it
    @value
    class Counts:
        counts: Mapping[str, int]

    one = Counts(MappingProxyType({"x": 1, "y": 2}))
    other = Counts(MappingProxyType({"y": 2, "x": 1}))
    assert one == other and hash(one) == hash(other)
    assert one._key == (frozenset({("x", 1), ("y", 2)}),)
    assert Counts(MappingProxyType({"x": 1})) != one


# -- the first construction, in a fresh interpreter ---------------------------

# Each class's first call has one argument too many; a good call by keyword
# follows at once, with arguments built only from the classes before it, and
# the same calls, the good one by position, are made again once every class
# has been built.
FIRST_CONSTRUCTION = """
import json
from fractions import Fraction
import scrollcoh as sc

D = sc.DivClass
GOOD = {
    "DivClass": lambda: (1, -2),
    "SplitBundle": lambda: ((2, 1),),
    "Scroll": lambda: ((2, 1),),
    "CohomTable": lambda: (((1, 1), (0, 2)), -1),
    "Atom": lambda: (1, D(0, 1)),
    "FormalSheaf": lambda: (((sc.Atom(1, D(0, 1)), 2), (sc.Atom(0, D(1, 0)), 1)),),
    "CollectionMember": lambda: (sc.Atom(0, D(1, 0)), 1),
    "Collection": lambda: ("E", (sc.CollectionMember(sc.Atom(0, D())),)),
    "DualityReport": lambda: (True, (), (((1, 0),),)),
    "BeilinsonTable": lambda: ((0, 1), ("a", "b"), ("c", "d"), {(0, 0): 2},
                               ("A", "B"), ("C", "D")),
    "UlrichVerdict": lambda: (True, 1, 3, 3, True, ((1, (0, 0, 0)),), ()),
    "TypeInfo": lambda: ((1, 0), 1, D(1, -1), 3, Fraction(2), (0,)),
}


def bad_call(cls):
    try:
        cls(*[None] * (len(cls.__annotations__) + 1))
    except TypeError as exc:
        return str(exc)
    return None


report = {}
for name, good in GOOD.items():
    cls = getattr(sc, name)
    compiled = cls.__init__.__code__.co_filename == f"<{name}.__init__>"
    report[name] = [compiled, bad_call(cls), cls(**dict(zip(cls.__annotations__, good())))]
for name, good in GOOD.items():
    cls = getattr(sc, name)
    compiled, first_bad, first_good = report[name]
    later_good = cls(*good())
    report[name] = [compiled, first_bad, bad_call(cls), repr(first_good), repr(later_good),
                    first_good == later_good]
print(json.dumps(report))
"""


def test_first_construction_of_each_class_binds_as_every_later_one():
    report = fresh(FIRST_CONSTRUCTION)
    assert sorted(report) == sorted(cls.__name__ for cls in {type(v) for v in _public_values()})
    for name, (compiled, first_bad, later_bad, first_good, later_good, equal) in report.items():
        assert not compiled, f"{name}'s constructor was compiled before its first call"
        # the compiled constructor's own message, e.g. "takes 3 positional arguments"
        assert first_bad is not None and "positional argument" in first_bad, name
        assert first_bad == later_bad, name
        assert first_good == later_good and equal, name


def test_cli_import_does_not_load_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c",
         "import scrollcoh.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=120).stdout
    assert out.strip() == "False"


def test_cli_import_adds_no_heavy_modules():
    # what `import scrollcoh.cli` adds to a bare interpreter's modules
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = ("import sys; bare = set(sys.modules); import scrollcoh.cli; "
              "print(*sorted(set(sys.modules) - bare))")
    added = set(subprocess.run([sys.executable, "-c", script], capture_output=True,
                               text=True, env=env, check=True, timeout=120).stdout.split())
    assert "scrollcoh.cli" in added
    assert not added & {"dataclasses", "inspect", "dis", "tokenize", "ast", "typing",
                        "json", "fractions", "decimal"}
