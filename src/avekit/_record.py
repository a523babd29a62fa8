"""Frozen value records built from a class's own annotations.

:func:`frozen` gives a class what ``@dataclass(frozen=True)`` gives it --
a constructor taking the annotated fields by position or keyword, with the
class-level values as defaults, then ``__post_init__``; ``repr``; equality
and hash over the tuple of fields; ``__match_args__``; and an ``inspect``
signature -- from one shared copy of each method.  Nothing is compiled
from source text, so a module that declares records imports fast.

The records are not dataclasses: ``dataclasses.fields``, ``replace`` and
``asdict`` do not apply to them.  Build a new record instead.
"""

from inspect import Parameter, Signature


def frozen(cls=None, /, *, eq=True):
    """Make ``cls`` a frozen record; ``eq=False`` keeps identity equality
    and hash.  A ``__repr__`` or ``__eq__`` of the class's own wins."""
    if cls is None:
        return lambda c: frozen(c, eq=eq)
    annotations = cls.__dict__.get("__annotations__", {})
    kind, empty = Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty
    # Signature rejects a field without a default after one with a default
    cls.__signature__ = Signature(
        [
            Parameter(name, kind, default=cls.__dict__.get(name, empty), annotation=note)
            for name, note in annotations.items()
        ],
        return_annotation=None,
    )
    cls.__match_args__ = tuple(annotations)
    cls.__init__ = _init
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _repr
    if eq:
        if "__eq__" not in cls.__dict__:
            cls.__eq__ = _eq
        cls.__hash__ = _hash
    return cls


def _init(self, *args, **kwargs):
    names = self.__match_args__
    if kwargs or len(args) != len(names):
        # the rare path: keywords or defaults; binding raises the TypeError
        # of a wrong call
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        args = bound.args
    values = self.__dict__
    for name, value in zip(names, args):
        values[name] = value
    post_init = getattr(self, "__post_init__", None)
    if post_init is not None:
        post_init()


def build(cls, rows) -> list:
    """``[cls(*row) for row in rows]`` for a record class ``cls``, each row
    holding one value per field in declaration order.  A class without
    ``__post_init__`` skips ``__init__``: its fields are stored directly,
    which saves about a quarter of the time a record takes."""
    if hasattr(cls, "__post_init__"):
        return [cls(*row) for row in rows]
    names, new = cls.__match_args__, object.__new__
    records = []
    for row in rows:
        record = new(cls)
        record.__dict__.update(zip(names, row, strict=True))
        records.append(record)
    return records


def _setattr(self, name, value):
    # imported here: only a misuse reaches it, and the module would
    # otherwise add its import time to every command
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__match_args__)


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))
