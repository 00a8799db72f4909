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
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scrollcoh import (H, Atom, BeilinsonTable, CohomTable, Collection,
                       CollectionMember, DivClass, DualityReport, FormalSheaf,
                       Scroll, SplitBundle, TypeInfo, UlrichVerdict,
                       beilinson_table, enumerate_types, fiber_degree, is_ulrich,
                       omega_cohomology, pn_omega_cohomology, segre_ext1, type_info,
                       type_sheaf, verify_duality, veronese_table)
from scrollcoh._value import value
from scrollcoh.beilinson import build_collections

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
    for table in _public_values():
        if isinstance(table, BeilinsonTable):
            with pytest.raises(TypeError):
                table.entries[(0, 0)] = 1


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
], ids=["bundle-float", "bundle-str", "scroll", "sheaf", "table", "type_sheaf", "type_info",
        "divisor", "atom", "table-bounds", "table-chi", "twist-float", "twist-str",
        "omega-p", "pn-twist", "fiber-p", "veronese-twist", "enumerate-h0", "enumerate-rank",
        "segre-i", "segre-j"])
def test_integer_inputs_are_checked_not_truncated(make, args):
    # int() would read 1.5 as 1 and "2" as 2, a silent wrong answer
    with pytest.raises(TypeError):
        make(*args)


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
    assert not added & {"dataclasses", "inspect", "dis", "tokenize", "ast", "typing"}
