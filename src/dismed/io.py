"""Scenario file loading, canonical serialization and the report writers.

A scenario file is a single UTF-8 JSON object whose keys are exactly the ASCII
symbol names (``psi_b``, ``rho_p``, ``U_iw``, ``E_s``, ...) plus optional
``label``, ``prospect_count``, ``valued_time_share``, ``overlays``,
``responses`` and ``time_paths``. The schema is closed, per kind for a link
or a time path: an unknown key, or another kind's, raises
:class:`~dismed.errors.UnknownField`, so a misspelled symbol cannot pass
silently. Links and time paths are read by their classes' ``from_dict``
(``dismed.record``) and written by their ``to_dict``.

Every report and scenario dump is written by the JSON writer at the end of
this module, which gives the bytes of ``json.dumps(value, indent=2,
ensure_ascii=False)``. On Python 3.11 ``json.dumps`` runs its C encoder only
when ``indent`` is None, so an indented dump walks the value in pure Python.
:func:`json_text` renders a whole value. A result's report is built from
the payload its class declares (``dismed.record``): :func:`report_json`
writes its fields straight from the records, each with the writer of its
kind, and :func:`report_csv` writes its table.
"""

from __future__ import annotations

import io as _io
import json
import math
from functools import partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter, methodcaller
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import ParseError, UnknownField, ValidationError
from .model import (
    STATE_NAMES,
    SYMBOLS,
    ResponseFunction,
    Scenario,
    TimePath,
    validate_scenario,
)
from .record import (
    _FLOAT, FLAG, INTERVAL, MANY, NUMBER, OPTIONAL, TEXT, TREE, _dict_form, _number,
    interval_pair,
)

_SYMBOL_ORDER = tuple(SYMBOLS)
_SYMBOL_VALUES = itemgetter(*_SYMBOL_ORDER)
_OPTIONAL_NUMBERS = ("prospect_count", "valued_time_share")
_CONTAINER_KEYS = ("overlays", "responses", "time_paths")
_ALLOWED_TOP = frozenset(("label", *_SYMBOL_ORDER, *_OPTIONAL_NUMBERS, *_CONTAINER_KEYS))


def scenario_from_dict(data: Mapping[str, Any], default_label: str = "scenario") -> Scenario:
    """Build and validate a Scenario from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ParseError("scenario file must contain a single JSON object")
    unknown = set(data) - _ALLOWED_TOP
    if unknown:
        raise UnknownField(f"unknown scenario field(s): {sorted(unknown)}")

    try:
        values = _SYMBOL_VALUES(data)
    except KeyError as exc:  # the first symbol missing
        raise ParseError(f"scenario: missing required field {exc.args[0]!r}") from None
    if not _FLOAT.issuperset(map(type, values)):
        values = tuple(v if type(v) is float else _number(v, f"scenario: field {name!r}")
                       for name, v in zip(_SYMBOL_ORDER, values))

    prospect_count = data.get("prospect_count", 1)
    if isinstance(prospect_count, bool) or not isinstance(prospect_count, int):
        raise ParseError("prospect_count must be an integer")
    vts = data.get("valued_time_share")
    if vts is not None:
        vts = _number(vts, "valued_time_share")

    overlays_raw = data.get("overlays", {})
    if not isinstance(overlays_raw, dict):
        raise ParseError("overlays must be an object keyed by listing state")
    overlays: dict[str, dict[str, float]] = {}
    for state, overrides in overlays_raw.items():
        if state not in STATE_NAMES:
            raise UnknownField(f"overlays: unknown listing state {state!r}")
        if not isinstance(overrides, dict):
            raise ParseError(f"overlays.{state} must be an object of symbol overrides")
        ov = overlays[state] = {}
        for name, v in overrides.items():
            if name not in SYMBOLS:
                raise UnknownField(f"overlays.{state}: unknown symbol {name!r}")
            ov[name] = _number(v, f"overlays.{state}.{name}")

    responses_raw = data.get("responses", [])
    if not isinstance(responses_raw, list):
        raise ParseError("responses must be a list")
    read_link = ResponseFunction.from_dict
    responses = tuple(read_link(r, f"responses[{i}]") for i, r in enumerate(responses_raw))

    paths_raw = data.get("time_paths", [])
    if not isinstance(paths_raw, list):
        raise ParseError("time_paths must be a list")
    time_paths = tuple(TimePath.from_dict(tp, f"time_paths[{i}]")
                       for i, tp in enumerate(paths_raw))

    label = data.get("label", default_label)
    if not isinstance(label, str):
        raise ParseError("label must be a string")

    scenario = Scenario(values=values, prospect_count=prospect_count,
                        valued_time_share=vts, responses=responses,
                        time_paths=time_paths, overlays=overlays, label=label)
    report = validate_scenario(scenario)
    if not report.ok:
        raise ValidationError(report.violations)
    return scenario


def read_json(path: str | Path, what: str) -> Any:
    """Parse a UTF-8 JSON file; every way the file can fail is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        value = json.loads(text)
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file {path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer too long to convert
        raise ParseError(f"{what} file {path}: malformed JSON: {exc}") from exc
    # A \ud800-\udfff escape outside a surrogate pair decodes to a str that no
    # report can encode as UTF-8; only a file with such an escape is checked.
    if "\\ud" in text or "\\uD" in text:
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"{what} file {path}: a \\u escape is a lone surrogate, "
                             f"not text: {exc}") from None
    return value


def load_scenario(path: str | Path) -> Scenario:
    """Load, parse and validate a scenario file."""
    return scenario_from_dict(read_json(path, "scenario"), default_label=Path(path).stem)


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    """Canonical dict form: fixed key order, containers sorted deterministically."""
    out: dict[str, Any] = {"label": s.label}
    for name in _SYMBOL_ORDER:
        out[name] = s.value(name)
    if s.prospect_count != 1:
        out["prospect_count"] = s.prospect_count
    if s.valued_time_share is not None:
        out["valued_time_share"] = s.valued_time_share
    if s.overlays:
        out["overlays"] = {
            state: {k: s.overlays[state][k] for k in sorted(s.overlays[state])}
            for state in STATE_NAMES if state in s.overlays
        }
    if s.responses:
        ordered = sorted(s.responses, key=lambda r: (r.context, r.driven, r.driver))
        out["responses"] = [r.to_dict() for r in ordered]
    if s.time_paths:
        out["time_paths"] = [tp.to_dict() for tp in sorted(s.time_paths, key=lambda t: t.symbol)]
    return out


def scenario_to_json(s: Scenario) -> str:
    """Canonical textual form; loading and re-saving is byte-stable."""
    if any(not math.isfinite(s.value(n)) for n in _SYMBOL_ORDER):
        raise ParseError("cannot serialize non-finite symbol values")
    return json_text(scenario_to_dict(s)) + "\n"


def save_scenario(s: Scenario, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(scenario_to_json(s), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# JSON writer: the text of json.dumps(value, indent=2, ensure_ascii=False); a
# result's JSON and CSV, from the payload its class declares
# ---------------------------------------------------------------------------
# ``nl`` is a newline followed by the indent of the line a value starts on, so
# a value nested in a larger document renders as it would there.

def json_atom(x: Any) -> str:
    """The text of a str, None, bool, int or float, with json's spellings."""
    # Floats first: they are most of a report, and no float is a str or an int.
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    if isinstance(x, str):
        return encode_basestring(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def json_object(fields: Iterable[tuple[str, str]], nl: str = "\n") -> str:
    """An object of string keys and already rendered values."""
    inner = nl + "  "
    body = ("," + inner).join(f"{encode_basestring(k)}: {text}" for k, text in fields)
    return f"{{{inner}{body}{nl}}}" if body else "{}"


def json_text(value: Any, nl: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``: tuples are arrays,
    and object keys must be strings."""
    if isinstance(value, (list, tuple)):
        inner = nl + "  "
        body = ("," + inner).join([json_text(v, inner) for v in value])
        return f"[{inner}{body}{nl}]" if body else "[]"
    if isinstance(value, dict):
        inner = nl + "  "
        return json_object([(k, json_text(v, inner)) for k, v in value.items()], nl)
    return json_atom(value)


def report_json(result: Any) -> str:
    """``json.dumps(payload, indent=2, ensure_ascii=False)`` of a result, by its class's writer."""
    cls = type(result)
    if "_json_writer" not in cls.__dict__:
        cls._json_writer = _json_writer(result._kind if isinstance(result, list) else cls)
    return cls._json_writer(result)


def _json_writer(kind):
    """A report's writer: each kind at each indent writes a column of values (a container's
    items as one). Its state lasts a report: float endpoint texts, each indent's last dict."""
    memo: dict[float, str] = {}
    known = memo.get
    last: dict[str, tuple] = {}

    def endpoint(x) -> str:
        # Zeros are never kept, so 0.0 and -0.0 never share a text, and only
        # floats are, so an int never takes the text of the float it equals.
        if x.__class__ is not float:
            return "null" if math.isinf(x) else json_atom(x)
        text = float.__repr__(x) if math.isfinite(x) else "NaN" if x != x else "null"
        if x:
            memo[x] = text
        return text

    def interval(nl: str, ev) -> str:  # an infinite endpoint is null
        if ev is None:
            return "null"
        x, y = ev.lower, ev.upper
        lo = x.__class__ is float and known(x) or endpoint(x)
        # Most values are points, whose two endpoints are one float object.
        hi = lo if y is x else y.__class__ is float and known(y) or endpoint(y)
        return f"[{nl}  {lo},{nl}  {hi}{nl}]"

    def tree(nl: str, value) -> str:
        # A dict with the keys of the last one written at this indent, in order, each
        # value the same object, takes its text: equal values can print differently.
        if value.__class__ is not dict:
            return json_text(value, nl)
        items, was = tuple(value.items()), last.get(nl)
        if was is None or len(was[0]) != len(items) or any(
                k != j or v is not w for (k, v), (j, w) in zip(items, was[0])):
            was = last[nl] = items, json_text(value, nl)
        return was[1]

    def column(kind, nl: str):  # a sequence of values of kind -> their texts
        inner = nl + "  "
        if kind in (INTERVAL, TREE):
            return partial(map, partial(interval if kind is INTERVAL else tree, nl))
        if not isinstance(kind, (type, tuple)):
            return partial(map, {TEXT: encode_basestring, NUMBER: json_atom, FLAG: {
                None: "null", True: "true", False: "false"}.__getitem__}[kind])
        if isinstance(kind, type):  # a record's text: "".join((head, text, head, ..., end))
            keys, _, kinds = zip(*kind._payload)
            heads = [f"{',' if i else '{'}{inner}{encode_basestring(k)}: "
                     for i, k in enumerate(keys)]
            fields, get, end = [column(k, inner) for k in kinds], kind._payload_values, nl + "}"

            def records(values):
                texts = [f(c) for f, c in zip(fields, zip(*map(get, values)))]
                return map("".join, zip(*chain.from_iterable(zip(map(repeat, heads), texts)),
                                        repeat(end))) if texts else ()
            return records
        outer, item = kind
        items, sep = column(item, nl if outer == OPTIONAL else inner), "," + inner

        def split(values):  # each value's slice of the texts of all their items
            texts = iter(items([*chain.from_iterable(values)]))
            return map(islice, repeat(texts), map(len, values))
        if outer == OPTIONAL:  # no item or one
            return lambda values: [next(texts, "null") for texts in split(
                [() if v is None else (v,) for v in values])]
        if outer == MANY:
            return lambda values: [f"[{inner}{body}{nl}]" if body else "[]"
                                   for body in map(sep.join, split(values))]
        return lambda values: [json_object(zip(m, texts), nl) for m, texts in zip(
            values, split([*map(methodcaller("values"), values)]))]

    top = column(kind, "\n")

    def write(result) -> str:
        memo.clear()
        last.clear()
        [text] = top([result])
        return text
    return write


def _cells(cls, record):
    """The (header, cell) pairs of a record's one-row CSV table: a cell per payload
    value, but two per interval, and a record's own (blank for None) per record."""
    for key, path, kind in cls._payload:
        value = None if record is None else attrgetter(path)(record)
        if kind is INTERVAL:
            yield from zip((f"{key}_lower", f"{key}_upper"), interval_pair(value) or (None,) * 2)
        elif isinstance(kind, type) or isinstance(kind, tuple) and kind[0] == OPTIONAL:
            yield from _cells(kind if isinstance(kind, type) else kind[1], value)
        else:
            yield key, value if value is None else _dict_form(kind)(value)


def report_csv(result: Any) -> str:
    """A result's CSV table: the header and rows its class declares as
    ``_table``, else one row of its payload; a list is the rows of its items."""
    import csv  # only CSV output loads it

    cls, records = (result._kind[1], result) if isinstance(result, list) else (type(result),
                                                                               (result,))
    header, rows = getattr(cls, "_table", None) or (
        [h for h, _ in _cells(cls, None)], lambda r: [[c for _, c in _cells(cls, r)]])
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["" if v is None else v for v in row] for r in records for row in rows(r))
    return buf.getvalue()
