"""The base of the package's immutable value classes, shared inside the package.

A subclass names its fields once, in order, as the positional parameters
of its `__init__`. The base reads them off that constructor's code object
into `__match_args__`, so class patterns match them by position. The
constructor stores its arguments by calling `super().__init__(locals())`
after any coercion; the base sets each field to the local of the same
name with `object.__setattr__`. The base gives every subclass the value
semantics of a frozen dataclass:

- assigning or deleting an attribute raises `AttributeError`;
- two records are equal when they are of the same class with equal
  fields, and a record compared with anything else returns
  `NotImplemented`;
- the hash is the hash of the field tuple;
- the repr is `QualName(field=value!r, ...)`.

Instances keep a `__dict__`, so `copy` and `pickle` restore them without
calling `__setattr__`. A subclass costs only its class statement at
import, where a frozen dataclass also compiles six generated methods and
the `dataclasses` module imports `inspect`.
"""

from __future__ import annotations


class Record:
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def __init__(self, fields: dict) -> None:
        for name in self.__match_args__:
            object.__setattr__(self, name, fields[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"
