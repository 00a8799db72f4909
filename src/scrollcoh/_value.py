"""Immutable value classes.

``value`` turns a class with annotated fields into an immutable value type:
a constructor taking the fields positionally or by keyword, equality and
hashing on the field tuple, optional ordering and a ``Name(field=...)``
repr.  It builds these methods from closures rather than compiling source
at import time, which keeps the start-up of the command line tool short.

Each instance stores the tuple of its fields, taken after ``__post_init__``,
as ``_key``: equality, hashing and ordering then read one attribute instead
of rebuilding the tuple, which matters when formal sheaves sort their atoms
and the caches hash scrolls and divisor classes.
"""

from functools import total_ordering
from operator import attrgetter


def value(cls=None, /, *, order=False):
    """Class decorator giving ``cls`` value semantics over its annotated
    fields, in the order they are annotated; a class attribute of the same
    name is that field's default.

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


def _make_value(cls, order):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    width = len(names)
    qualname = cls.__qualname__
    key = attrgetter(*names)

    def bind(args, kwargs):
        if len(args) > width:
            raise TypeError(f"{qualname}() takes {width} positional arguments "
                            f"but {len(args)} were given")
        bound = dict(zip(names, args))
        for name, val in kwargs.items():
            if name not in names:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
            if name in bound:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
            bound[name] = val
        for name in names:
            if name not in bound:
                if name not in defaults:
                    raise TypeError(f"{qualname}() missing required argument {name!r}")
                bound[name] = defaults[name]
        return tuple(bound[n] for n in names)

    setattr_ = object.__setattr__
    post_init = "__post_init__" in cls.__dict__

    # Divisor classes, atoms, scrolls, split bundles and tables have one or
    # two fields and are built on every query, so their constructors are
    # unrolled.  The bound argument tuple is the key unless __post_init__
    # may have normalised the fields.
    if width == 1:
        (n0,) = names

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 1:
                args = bind(args, kwargs)
            setattr_(self, n0, args[0])
            if post_init:
                self.__post_init__()
                args = (key(self),)
            setattr_(self, "_key", args)
    elif width == 2:
        n0, n1 = names

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 2:
                args = bind(args, kwargs)
            setattr_(self, n0, args[0])
            setattr_(self, n1, args[1])
            if post_init:
                self.__post_init__()
                args = key(self)
            setattr_(self, "_key", args)
    else:
        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != width:
                args = bind(args, kwargs)
            for name, val in zip(names, args):
                setattr_(self, name, val)
            if post_init:
                self.__post_init__()
                args = key(self)
            setattr_(self, "_key", args)

    def __setattr__(self, name, val):
        raise AttributeError(f"{qualname} is immutable; cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{qualname} is immutable; cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

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
    return total_ordering(cls) if order else cls
