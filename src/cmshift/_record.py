"""Frozen records: the part of `dataclasses` this package uses, compiled once.

`record` turns a class whose body annotates its fields (optionally with
defaults) into a frozen record, as `dataclasses.dataclass(frozen=True,
eq=eq)` would.  It keeps from dataclass:

- `__init__(self, <fields in order>)` with the class-body defaults,
  positional or keyword, calling `__post_init__` when the class has one
  (which may normalise fields through `object.__setattr__`);
- `__repr__` as `Name(field=value!r, ...)`;
- with `eq=True`, `__eq__` and `__hash__` on the tuple of field values,
  equal only to an instance of the same class; with `eq=False`, the
  class's own `__eq__` or identity, and the matching `__hash__`;
- `__setattr__` and `__delattr__` that raise `AttributeError`, while
  `functools.cached_property` still caches (it writes the instance
  `__dict__`, and records have no `__slots__`), and instances stay
  weak-referenceable.

A method the class body defines itself is kept.  Left out: field
options (`field()`), `ClassVar`, ordering, `__match_args__`, the
generated docstring, `replace`/`asdict`, and subclassing a record.

Why not the stdlib decorator: `dataclass(frozen=True)` compiles up to
six methods per class from generated source, 152 for the 27 records
here.  On Python 3.11 that made importing `cmshift.cli` take 20-25 ms
once the stdlib modules it needs were loaded, against 6-7 ms with
`record`; importing `dataclasses` also loads `inspect`, another 6-9 ms
in a fresh process.  Here each record compiles only `__init__` (one
`exec`, like dataclass's own, so construction costs the same), and the
other methods below are shared, loaded from this module's bytecode.
Their `__eq__` and `__hash__` build the field tuple at run time, so
they are slower than dataclass's generated ones (about 1 us against
0.15 us for one `==` on a one-field record); no task of the `perfbench`
workloads compares or hashes a record.  `tests/test_records.py` checks every record against
a stdlib dataclass twin.
"""

from __future__ import annotations

from itertools import repeat

__all__ = ["record"]


def record(cls=None, /, *, eq: bool = True):
    """Class decorator: `@record` or `@record(eq=False)`; see module docstring."""
    if cls is None:
        return lambda cls: _make_record(cls, eq)
    return _make_record(cls, eq)


def _make_record(cls, eq: bool):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    params = [f"{n}=_body[{n!r}]" if n in cls.__dict__ else n for n in names]
    body = [f"    _set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body or ["    pass"])
    namespace = {"_set": object.__setattr__, "_body": cls.__dict__}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__record_fields__ = names
    methods = {"__init__": init, "__repr__": _repr,
               "__setattr__": _setattr, "__delattr__": _delattr}
    if eq:
        methods.update(__eq__=_eq, __hash__=_hash)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _values(self) -> tuple:
    return tuple(map(getattr, repeat(self), self.__record_fields__))


def _repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__record_fields__)
    return f"{self.__class__.__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
