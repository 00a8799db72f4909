"""Immutable value classes.

``value`` turns a class with annotated fields into an immutable value type:
a constructor taking the fields positionally or by keyword, equality and
hashing on the field tuple, optional ordering and a ``Name(field=...)``
repr.  The constructor is compiled once per class, with the defaults in its
signature, so Python's own call protocol binds the arguments and raises
``TypeError`` on a bad call; its file name names the class, for profiles and
tracebacks; it reads each field annotated ``int`` with ``operator.index``,
so ``1.5`` or ``"2"`` raises ``TypeError`` and ``True`` is stored as ``1``,
and keys each field annotated ``Mapping`` by the frozenset of its items, so
such a value hashes and, as a dict compares, ignores the order of its items.
It is compiled on the class's first construction, not when the decorator
runs: each command line call is a fresh process that constructs only some of
the classes, and importing the package then compiles none.  The other
methods are closures.

Each instance stores the tuple of its fields, taken after ``__post_init__``,
as ``_key``: equality, hashing and ordering then read one attribute instead
of rebuilding the tuple, which matters when formal sheaves sort their atoms
and the caches hash scrolls and divisor classes.  ``cls._normal(*fields)``
is the other way in, for callers that built every field in its normal form
themselves: it sets the fields and ``_key`` as given, with no ``int`` reads
and no ``__post_init__``, so it serves only classes without a ``Mapping``
field.  Its callers are the sorted formal sheaves of ``FormalSheaf.twist``,
``koszul_resolution`` and the Koszul chases, which the constructor would
slow by about 13%, ``p1``'s split bundles, and ``H``, ``F`` and
``ZERO_SHEAF``, so that importing the package compiles no constructor.
"""

from functools import total_ordering
from operator import index


def value(cls=None, /, *, order=False):
    """Class decorator giving ``cls`` value semantics over its annotated
    fields, in the order they are annotated; a class attribute of the same
    name is that field's default, as in a ``def``, defaults coming last.

    The constructor is compiled when the first instance is built, and from
    then on every construction runs it; a field without a default after one
    with a default raises ``SyntaxError`` here, as in a ``def``.

    The constructor calls ``__post_init__`` if the class defines one, which
    may normalise fields with ``object.__setattr__``; afterwards assigning
    or deleting any attribute raises ``AttributeError``.  Instances equal
    and hash as the tuple of their fields, and only ever equal instances of
    the same class.  ``order=True`` adds ``__lt__`` on that tuple, the one
    comparison sorting calls; ``functools.total_ordering`` derives the rest.
    """
    if cls is None:
        return lambda c: _make_value(c, order)
    return _make_value(cls, order)


def _bare(kind) -> str:
    # "int" for int, "Mapping" for Mapping[K, V], written out or postponed
    return str(getattr(kind, "__name__", kind)).partition("[")[0]


def _constructor(cls, fields):
    # def __init__(self, a, b=<default>): read the int fields with index, set
    # the fields, call __post_init__ if the class defines one, and store the
    # key: the field tuple, read back if __post_init__ may have normalised it,
    # with the frozenset of each Mapping field's items in place of the mapping.
    params = "".join(f", {n}=_defaults[{n!r}]" if n in cls.__dict__ else f", {n}"
                     for n in fields)
    lines = [f"def __init__(self{params}):"]
    lines += [f"    {n} = _index({n})" for n, kind in fields.items() if _bare(kind) == "int"]
    lines += [f"    _setattr(self, {n!r}, {n})" for n in fields]
    read = "self." if "__post_init__" in cls.__dict__ else ""
    if read:
        lines.append("    self.__post_init__()")
    key = "".join(f"frozenset({read}{n}.items()), " if _bare(kind) == "Mapping" else f"{read}{n}, "
                  for n, kind in fields.items())
    lines.append(f"    _setattr(self, '_key', ({key}))")
    namespace = {"_setattr": object.__setattr__, "_index": index, "_defaults": cls.__dict__}
    exec(compile("\n".join(lines), f"<{cls.__qualname__}.__init__>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _make_value(cls, order):
    fields = cls.__dict__.get("__annotations__", {})
    qualname = cls.__qualname__
    # the constructor's signature takes the defaults last, as a def must
    defaulted = [n in cls.__dict__ for n in fields]
    if defaulted != sorted(defaulted):
        raise SyntaxError(f"{qualname}: a field without a default follows one with a default")

    def __init__(self, *args, **kwargs):
        # the first construction compiles the constructor, which every later one runs
        cls.__init__ = init = _constructor(cls, fields)
        init(self, *args, **kwargs)

    def __setattr__(self, name, val):
        raise AttributeError(f"{qualname} is immutable; cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{qualname} is immutable; cannot delete {name!r}")

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in fields)
        return f"{self.__class__.__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def _normal(cls, *vals):
        # every field given, in order, each already what __post_init__ makes it
        self = object.__new__(cls)
        for name, val in zip(fields, vals):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "_key", vals)
        return self

    methods = [__init__, __setattr__, __delattr__, __repr__, __eq__, __hash__]

    if order:
        def __lt__(self, other):
            if other.__class__ is self.__class__:
                return self._key < other._key
            return NotImplemented

        methods.append(__lt__)

    for fn in methods:
        fn.__qualname__ = f"{qualname}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    _normal.__qualname__ = f"{qualname}._normal"
    cls._normal = classmethod(_normal)
    return total_ordering(cls) if order else cls
