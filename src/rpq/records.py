"""Frozen records: the one base class of the package's value objects.

A record class names its fields in `_fields`, and `_defaults` maps the
trailing fields that may be omitted to their values.  The one constructor,
`Record.__init__`, takes the fields as a call would: positionally in field
order, or by name.  It stores each with `object.__setattr__`, in field
order, since assignment raises AttributeError.  (Writing through
`vars(self)` would build the instance's dict, and every later attribute
read would be slower.)  A call with every field positional stores them at
once, with no binding; a hot caller passes them so.  Too many, unknown,
repeated or missing arguments raise TypeError.  A class that checks its
input defines its own `__init__`, which stores its fields through this
one.  From `_fields` the base class also gives:

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
from typing import Callable, ClassVar, Dict, Tuple

_set = object.__setattr__


class Record:
    """Base class of a frozen record; see the module docstring."""

    __slots__ = ()

    _fields: ClassVar[Tuple[str, ...]] = ()
    _defaults: ClassVar[Dict[str, object]] = {}
    _compared: ClassVar[Tuple[str, ...]]
    _key: ClassVar[Callable[["Record"], object]]  # the `_compared` values of a record

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*getattr(cls, "_compared", cls._fields))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if not kwargs and len(args) == len(fields):
            for name, value in zip(fields, args):
                _set(self, name, value)
            return
        where = f"{self.__class__.__qualname__}()"
        if len(args) > len(fields):
            raise TypeError(f"{where} takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in fields if name not in values and name not in self._defaults]
        if missing:
            raise TypeError(f"{where} missing required arguments: {', '.join(map(repr, missing))}")
        for name in fields:
            _set(self, name, values[name] if name in values else self._defaults[name])

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
