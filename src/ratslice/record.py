"""Frozen record classes: the one decorator behind the package's value types.

A record is a class of annotated fields, in class-body order, built
positionally or by keyword with the defaults its body assigns.  `record`
gives it what `dataclass(frozen=True)` would: an __init__ that sets every
field and then runs __post_init__ (which may normalise a field with
object.__setattr__), field-wise __eq__ against the same class only, a
matching __hash__, a repr that lists the fields, and an AttributeError on
assigning or deleting any attribute.  Instances keep a __dict__, so
functools.cached_property works on a record.

It exists for start-up time.  The standard dataclass module imports
inspect, ast, dis and tokenize, and each frozen dataclass execs its
generated methods; with no bytecode cache that was 11 ms, plus about
1 ms a class, of every process.  The methods here are shared and generic, and no code is
generated.  A command builds a handful of records, so the generic
__init__ costs nothing measurable.
"""

from __future__ import annotations


def record(cls):
    """Make cls a frozen record of its annotated fields."""
    name = cls.__name__
    fields = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def values(self) -> tuple:
        state = self.__dict__
        return tuple([state[f] for f in fields])

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} arguments but {len(args)} were given"
            )
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            given[key] = value
        missing = [f for f in fields if f not in given and f not in defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        state = self.__dict__
        for f in fields:
            state[f] = given[f] if f in given else defaults[f]
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
