"""Frozen records: the one base class of the package's value objects.

A record class names its fields in `_fields`, in the order of its
`__init__` parameters, and its `__init__` stores each with
`object.__setattr__`, since assignment raises AttributeError.  (Writing
through `vars(self)` would build the instance's dict, and every later
attribute read would be slower.)  From `_fields` the base class gives:

- equality between records of the same class whose fields are equal (a
  record never equals an object of another class, a subclass included);
- a hash over the same fields, so a record with a dict field is unhashable;
- the repr `Name(field=value, ...)`;
- `replace(**changes)`, a copy made by calling `__init__` again, so its
  checks run on the new values.

A class may compare more values than it takes (`_compared`, which
defaults to `_fields`).  Any other instance attribute is a memo: equality,
hashing and repr do not see it, and a `replace` copy starts without it.

The methods are plain functions of this class, so defining a record
compiles no code when its module loads.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, ClassVar, Tuple


class Record:
    """Base class of a frozen record; see the module docstring."""

    __slots__ = ()

    _fields: ClassVar[Tuple[str, ...]] = ()
    _compared: ClassVar[Tuple[str, ...]]
    _key: ClassVar[Callable[["Record"], object]]  # the `_compared` values of a record

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*getattr(cls, "_compared", cls._fields))
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with `changes` to its fields, built by `__init__`: its
        checks run again and it starts with no memo."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return self.__class__(**values)
