"""Frozen records without per-class code generation.

The engine's value types subclass :class:`Record`, which gives what the
frozen dataclass decorator gave them: fields in annotation order, defaults
(a :class:`Factory` one made per record), ``__post_init__``, equality with
records of the same type only, a hash of the field values (cached: a record
never changes), the dataclass ``repr`` text, assignment that raises
``AttributeError``, :meth:`replace` and pickling. The decorator ``exec``s
five or six generated methods per class at import, which every CLI start
paid. Records built on every ``decide`` spell out their ``__init__``.

``model.Scenario`` is a record too, copied with :meth:`replace`. The
benchmark's input builder (``perfbench/inputs.py``) and some tests still copy
scenarios with ``dataclasses.replace``, so ``Scenario`` carries a
:class:`DataclassFields` descriptor: ``dataclasses.replace``, ``fields`` and
``is_dataclass`` accept it, while a CLI call that never asks for the fields
never imports :mod:`dataclasses` (and with it :mod:`inspect`). The
descriptor goes once the input builder copies with :meth:`replace`.
"""

from __future__ import annotations

from operator import attrgetter


class Factory:
    """A field default made afresh for each record."""

    def __init__(self, make):
        self.make = make


class DataclassFields:
    """A class's ``__dataclass_fields__``, built on first access.

    The fields are those of a frozen ``dataclasses.make_dataclass`` twin of
    the record class, with its defaults; they replace the descriptor on the
    class, so :mod:`dataclasses` is imported only by the first caller that
    asks for them.
    """

    def __get__(self, record, cls):
        import dataclasses

        def spec(name):
            default = cls._defaults.get(name, dataclasses.MISSING)
            field = (dataclasses.field(default_factory=default.make)
                     if isinstance(default, Factory) else dataclasses.field(default=default))
            return name, cls.__annotations__[name], field

        twin = dataclasses.make_dataclass(cls.__name__, [spec(n) for n in cls._fields],
                                          frozen=True)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        return cls.__dataclass_fields__


class Record:
    """Subclasses declare fields as annotations, a class attribute being the default."""
    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        own = tuple(n for n in cls.__dict__.get("__annotations__", ()) if n not in cls._fields)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls._fields += own
        if cls._fields:
            get = attrgetter(*cls._fields)  # a tuple for two fields or more
            cls._values = (lambda self: (get(self),)) if len(cls._fields) == 1 \
                else lambda self: get(self)

    def __init__(self, *args, **kwargs):
        cls, d = type(self), self.__dict__
        if len(args) > len(cls._fields) or kwargs.keys() - cls._fields[len(args):]:
            raise TypeError(f"{cls.__name__}() got unknown or repeated fields")
        d.update(zip(cls._fields, args), **kwargs)
        for name in cls._fields[len(args):]:
            if name not in d:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() missing field {name!r}")
                default = cls._defaults[name]
                d[name] = default.make() if isinstance(default, Factory) else default
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values()))
            return self._hash

    def __repr__(self):
        text = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({text})"

    def __reduce__(self):
        return type(self), self._values()

    def to_dict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, self._values()))

    def replace(self, **changes):
        """A copy with ``changes`` applied, built (and checked) anew."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
