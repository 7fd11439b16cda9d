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

A record's payload is declared once by its class as ``_payload``: ``(key,
attribute path, kind)`` triples, a path maybe dotted (``status.value``), a
kind TEXT, FLAG, NUMBER, INTERVAL, TREE (any JSON value), a record class, or
``(OPTIONAL, cls)`` (a record or None), ``(MANY, kind)`` (an array) or
``(MAPPING, kind)`` (an object). A class that declares none has its fields
as TREEs. :meth:`Record.to_dict` and the JSON and CSV of ``dismed.io`` are
built from it.
"""

from __future__ import annotations

import math
from operator import attrgetter

TEXT, FLAG, NUMBER, INTERVAL, TREE = "text", "flag", "number", "interval", "tree"
OPTIONAL, MANY, MAPPING = "optional", "many", "mapping"  # containers of one kind


def interval_pair(ev) -> list | None:
    """An interval's dict form: its endpoints, an infinite one None."""
    return None if ev is None else [None if math.isinf(x) else x for x in (ev.lower, ev.upper)]


def _same(value):
    return value


def _apply(f, x):
    return f(x)


def _dict_form(kind):
    """The function from a value of ``kind`` to its dict form."""
    if kind is INTERVAL:
        return interval_pair
    if isinstance(kind, type):
        return kind.to_dict
    if not isinstance(kind, tuple):
        return _same
    item = _dict_form(kind[1])
    return {OPTIONAL: lambda v: None if v is None else item(v),
            MANY: lambda v: [*map(item, v)],
            MAPPING: lambda v: {k: item(x) for k, x in v.items()}}[kind[0]]


def _getter(paths):
    """A function from a record to the tuple of its values at ``paths``."""
    get = attrgetter(*paths) if paths else lambda record: ()
    return (lambda record: (get(record),)) if len(paths) == 1 else get


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
        if "_payload" not in cls.__dict__:
            cls._payload = tuple((n, n, TREE) for n in cls._fields)
        keys, paths, kinds = zip(*cls._payload) if cls._payload else ((), (), ())
        cls._payload_values, forms = _getter(paths), tuple(map(_dict_form, kinds))
        cls._dict_forms = keys, None if all(f is _same for f in forms) else forms

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
        """The payload that the class's ``_payload`` declares, as a dict."""
        keys, forms = type(self)._dict_forms
        values = type(self)._payload_values(self)
        return dict(zip(keys, values if forms is None else map(_apply, forms, values)))

    def replace(self, **changes):
        """A copy with ``changes`` applied, built (and checked) anew."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
