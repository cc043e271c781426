"""Immutable value records: the one base class of the package's value types,
and the `Row` lists that the command-line output is built from.

A subclass lists its fields as class annotations, in order, and gets what
a frozen dataclass would give it: positional and keyword construction
(with an optional `__post_init__` check), immutability, equality by exact
type and field values, a hash of the field tuple, and a `Name(f=v, ...)`
repr.  Nothing is generated with `exec`, so defining a record costs about
as much as defining a plain class, and importing the package does not
load `dataclasses` or `inspect`.

Fields are stored with `object.__setattr__`, never through `self.__dict__`:
touching `__dict__` turns the instance's compact attribute storage into a
real dict, and every later attribute read gets several times slower.
`Record.__init__` stores positional fields in one pass over the field
names; only a keyword call or a wrong argument count goes through
`_arrange`, which checks the arguments.  A hot record defines a direct
`__init__` that stores its fields the same way: `LaurentPoly` and
`ConeOrbifold`, and `JNData` and `StarStatus`, which are built once per
rotation or star verdict (`StarStatus` calls its `__post_init__` check
itself).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional, TypeVar

R = TypeVar("R", bound="Record")

_setattr = object.__setattr__


def _getter(fields: tuple[str, ...]) -> Callable[[Any], tuple]:
    """A function from a record to the tuple of its field values."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    """Base class of the package's immutable value types."""

    _fields: tuple[str, ...] = ()
    # Whether the class or a base defines `__post_init__`, the check that
    # rejects invalid field values; set once per class, so a record
    # without one pays for no call.
    _checked = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._values = staticmethod(_getter(cls._fields))
        cls._checked = hasattr(cls, "__post_init__")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _arrange(type(self), args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        if self._checked:
            self.__post_init__()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values(self))
        )
        return f"{type(self).__qualname__}({fields})"


def _arrange(cls: type, args: tuple, kwargs: dict[str, Any]) -> tuple:
    """The field values in field order, or TypeError naming what is wrong."""
    fields = cls._fields
    name = cls.__name__
    if len(args) > len(fields):
        raise TypeError(
            f"{name}() takes {len(fields)} arguments but {len(args)} were given"
        )
    for key in kwargs:
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in fields[: len(args)]:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
    missing = [key for key in fields[len(args) :] if key not in kwargs]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return args + tuple(kwargs[key] for key in fields[len(args) :])


def replace(record: R, **changes: Any) -> R:
    """A copy of `record` with the given fields changed."""
    values = dict(zip(record._fields, record._values(record)))
    return type(record)(**{**values, **changes})


# Each command output is one record: ordered rows of (JSON key, JSON value,
# text label, text value).  A row without a key is printed only as text,
# a row without a label only in JSON; both formats keep the row order.


class Row(NamedTuple):
    key: Optional[str]
    value: Any
    label: Optional[str] = None
    text: Optional[str] = None  # when None, the text form of the value
