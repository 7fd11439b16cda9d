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
attribute path, kind)`` triples, a path maybe dotted (``id.label``), a
kind TEXT, FLAG, NUMBER, INTERVAL, TREE (any JSON value), a record class, or
``(OPTIONAL, cls)`` (a record or None), ``(MANY, kind)`` (an array) or
``(MAPPING, kind)`` (an object). A class that declares none has its fields
as TREEs. :meth:`Record.to_dict` and the JSON and CSV of ``dismed.io`` are
built from it. A class whose records come in kinds declares ``_kinds``: each
value of its ``kind`` field -> the fields only that kind has, which a dict
form of that kind alone holds.

Input records (a scenario's links and time paths, sweep marginals, bounds,
run configs) are read by :meth:`Record.from_dict`, the inverse of
``to_dict``: each key by its declared kind (TEXT, NUMBER, a record class, an
array or mapping of them, or a TREE kept as is). A field with no default is
required, as are the fields of the record's own kind, and any other key is
an :class:`~dismed.errors.UnknownField`. ``model.ResponseFunction``, read
dozens of times a scenario, unrolls it.
"""

from __future__ import annotations

import math
from operator import attrgetter

from .errors import ParseError, UnknownField

TEXT, FLAG, NUMBER, INTERVAL, TREE = "text", "flag", "number", "interval", "tree"
OPTIONAL, MANY, MAPPING = "optional", "many", "mapping"  # containers of one kind


def interval_pair(ev) -> list | None:
    """An interval's dict form: its endpoints, an infinite one None."""
    return None if ev is None else [None if math.isinf(x) else x for x in (ev.lower, ev.upper)]


_FLOAT = frozenset((float,))


def _number(v, where: str) -> float:
    """The one numeric coercion: a JSON number (not a bool) becomes a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None


def _numbers(raw, where: str) -> tuple[float, ...]:
    """A list of JSON numbers as floats. An all-float list takes one type
    pass; an item's label is built only when the item is not a float."""
    if not isinstance(raw, list):
        raise ParseError(f"{where} must be a list of numbers")
    if _FLOAT.issuperset(map(type, raw)):
        return tuple(raw)
    return tuple(v if type(v) is float else _number(v, f"{where}[{i}]")
                 for i, v in enumerate(raw))


def _read(kind, value, where: str):
    """The field value that ``value``, read as a JSON value of ``kind``, gives: the
    kinds of input records, an array being one of numbers."""
    if kind is NUMBER:
        return value if type(value) is float else _number(value, where)
    if kind is TEXT:
        if isinstance(value, str):
            return value
        raise ParseError(f"{where} must be a string, got {value!r}")
    if kind is TREE:
        return value
    if isinstance(kind, type):
        return kind.from_dict(value, where)
    if kind == (MANY, NUMBER):
        return _numbers(value, where)
    if kind[0] != MAPPING:
        raise TypeError(f"no reader for a field of kind {kind!r}")
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object")
    return {k: _read(kind[1], v, f"{where}.{k}") for k, v in value.items()}


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
    _kinds: dict = {}

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
        cls._payload_values = _getter([path for _, path, _ in cls._payload])
        cls._keys = frozenset(key for key, _, _ in cls._payload)
        # kind (None for a class without kinds) -> its payload, required keys, dict forms
        kinds = cls._kinds or {None: ()}
        params = {key for own in kinds.values() for key in own}
        cls._schemas = {}
        for kind, own in kinds.items():
            payload = [p for p in cls._payload if p[0] not in params or p[0] in own]
            keys, paths, forms = zip(*payload) if payload else ((), (), ())
            forms = tuple(map(_dict_form, forms))
            required = {*own, *(k for k in keys if k not in cls._defaults)}
            cls._schemas[kind] = payload, required, (
                keys, _getter(paths), None if all(f is _same for f in forms) else forms)

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
        keys, get, forms = self._schemas[self.kind if self._kinds else None][2]
        return dict(zip(keys, get(self) if forms is None else map(_apply, forms, get(self))))

    @classmethod
    def from_dict(cls, data, where: str = ""):
        """The record that ``data``, a JSON object, declares: the inverse of :meth:`to_dict`.
        ``where`` names ``data`` in error messages (default: the class name)."""
        where = where or cls.__name__
        if not isinstance(data, dict):
            raise ParseError(f"{where} must be a JSON object")
        if not cls._keys.issuperset(data):
            raise UnknownField(f"{where}: unknown field(s) {sorted(data.keys() - cls._keys)}")
        kind = data.get("kind") if cls._kinds else None
        if cls._kinds and not (isinstance(kind, str) and kind in cls._kinds):
            raise ParseError(f"{where}: kind must be one of {[*cls._kinds]}, got {kind!r}")
        payload, required, _ = cls._schemas[kind]
        values = {}
        for key, _, of in payload:
            if key in data:
                values[key] = _read(of, data[key], f"{where}.{key}")
            elif key in required:
                raise ParseError(f"{where}: missing field {key!r}")
        if len(values) < len(data):  # the fields of another kind
            raise UnknownField(f"{where}: a {kind} {cls.__name__} has no field(s) "
                               f"{sorted(data.keys() - values.keys())}")
        return cls(**values)

    def replace(self, **changes):
        """A copy with ``changes`` applied, built (and checked) anew."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
