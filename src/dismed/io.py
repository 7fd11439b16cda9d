"""Scenario file loading, canonical serialization and the JSON writer.

A scenario file is a single UTF-8 JSON object whose keys are exactly the ASCII
symbol names (``psi_b``, ``rho_p``, ``U_iw``, ``E_s``, ...) plus optional
``label``, ``prospect_count``, ``valued_time_share``, ``overlays``,
``responses`` and ``time_paths``. The schema is closed: unknown keys raise
:class:`~dismed.errors.UnknownField` so misspelled symbols cannot pass silently.

Every report and scenario dump is written by the JSON writer at the end of
this module, which gives the bytes of ``json.dumps(value, indent=2,
ensure_ascii=False)``. On Python 3.11 ``json.dumps`` runs its C encoder only
when ``indent`` is None, so an indented dump walks the value in pure Python.
:func:`json_text` renders a whole value; ``cli.render_report`` writes
condition reports straight from their fields, each with the writer for its
type, joined by :func:`json_array` and :func:`json_object`.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring
from operator import itemgetter
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

_SYMBOL_ORDER = tuple(SYMBOLS)
_SYMBOL_VALUES = itemgetter(*_SYMBOL_ORDER)
_FLOAT = frozenset((float,))
_OPTIONAL_NUMBERS = ("prospect_count", "valued_time_share")
_CONTAINER_KEYS = ("overlays", "responses", "time_paths")
_ALLOWED_TOP = frozenset(("label", *_SYMBOL_ORDER, *_OPTIONAL_NUMBERS, *_CONTAINER_KEYS))

_RESPONSE_KEYS = frozenset(("driven", "driver", "kind", "coeffs", "knots", "context"))
_CONTEXTS = ("base", *STATE_NAMES)
_TIME_PATH_KEYS = frozenset(("symbol", "kind", "value", "v0", "slope", "times", "values"))


def _number(v: Any, where: str) -> float:
    """The one numeric coercion: a JSON number (not a bool) becomes a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None


def _numbers(raw: Any, where: str) -> tuple[float, ...]:
    """A list of JSON numbers as floats. An all-float list takes one type
    pass; an item's label is built only when the item is not a float."""
    if not isinstance(raw, list):
        raise ParseError(f"{where} must be a list of numbers")
    if _FLOAT.issuperset(map(type, raw)):
        return tuple(raw)
    return tuple(v if type(v) is float else _number(v, f"{where}[{i}]")
                 for i, v in enumerate(raw))


def _require_number(obj: Mapping[str, Any], key: str, where: str) -> float:
    if key not in obj:
        raise ParseError(f"{where}: missing required field {key!r}")
    v = obj[key]
    return v if type(v) is float else _number(v, f"{where}: field {key!r}")


def _parse_response(obj: Any, where: str) -> ResponseFunction:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: each response must be an object")
    if not _RESPONSE_KEYS.issuperset(obj):
        unknown = set(obj) - _RESPONSE_KEYS
        raise UnknownField(f"{where}: unknown response key(s) {sorted(unknown)}")
    driven, driver, kind = obj.get("driven"), obj.get("driver"), obj.get("kind")
    if not (isinstance(driven, str) and isinstance(driver, str) and isinstance(kind, str)):
        key = next(k for k in ("driven", "driver", "kind") if not isinstance(obj.get(k), str))
        raise ParseError(f"{where}: response needs string field {key!r}")
    coeffs: tuple[float, ...] = ()
    knots: tuple[tuple[float, float], ...] = ()
    if kind == "polynomial":
        raw = obj.get("coeffs")
        if not isinstance(raw, list) or not raw:
            raise ParseError(f"{where}: polynomial response needs a non-empty 'coeffs' list")
        coeffs = _numbers(raw, f"{where}.coeffs")
    elif kind == "piecewise_linear":
        raw = obj.get("knots")
        if not isinstance(raw, list) or not raw:
            raise ParseError(f"{where}: piecewise_linear response needs a non-empty 'knots' list")
        if not all(isinstance(k, list) and len(k) == 2 for k in raw):
            raise ParseError(f"{where}: knots must be [x, y] pairs")
        knots = tuple(_numbers(k, f"{where}.knots[{i}]") for i, k in enumerate(raw))
    else:
        raise ParseError(f"{where}: unknown response kind {kind!r}")
    context = obj.get("context", "base")
    if context not in _CONTEXTS:
        raise ParseError(f"{where}: response context must be 'base' or one of {STATE_NAMES}")
    return ResponseFunction(driven, driver, kind, coeffs, knots, context)


def _parse_time_path(obj: Any, where: str) -> TimePath:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: each time path must be an object")
    unknown = set(obj) - _TIME_PATH_KEYS
    if unknown:
        raise UnknownField(f"{where}: unknown time-path key(s) {sorted(unknown)}")
    for key in ("symbol", "kind"):
        if key not in obj or not isinstance(obj[key], str):
            raise ParseError(f"{where}: time path needs string field {key!r}")
    kind = obj["kind"]
    if kind == "constant":
        return TimePath(symbol=obj["symbol"], kind=kind,
                        value=_require_number(obj, "value", where))
    if kind == "linear":
        return TimePath(symbol=obj["symbol"], kind=kind,
                        v0=_require_number(obj, "v0", where),
                        slope=_require_number(obj, "slope", where))
    if kind == "samples":
        times = obj.get("times")
        values = obj.get("values")
        if not isinstance(times, list) or not isinstance(values, list):
            raise ParseError(f"{where}: sampled time path needs 'times' and 'values' lists")
        return TimePath(symbol=obj["symbol"], kind=kind,
                        times=_numbers(times, f"{where}.times"),
                        values=_numbers(values, f"{where}.values"))
    raise ParseError(f"{where}: unknown time-path kind {kind!r}")


def scenario_from_dict(data: Mapping[str, Any], default_label: str = "scenario") -> Scenario:
    """Build and validate a Scenario from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ParseError("scenario file must contain a single JSON object")
    unknown = set(data) - _ALLOWED_TOP
    if unknown:
        raise UnknownField(f"unknown scenario field(s): {sorted(unknown)}")

    try:
        values = _SYMBOL_VALUES(data)
    except KeyError:
        values = None
    if values is None or not _FLOAT.issuperset(map(type, values)):
        values = tuple(_require_number(data, name, "scenario") for name in _SYMBOL_ORDER)

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
    responses = tuple(_parse_response(r, f"responses[{i}]")
                      for i, r in enumerate(responses_raw))

    paths_raw = data.get("time_paths", [])
    if not isinstance(paths_raw, list):
        raise ParseError("time_paths must be a list")
    time_paths = tuple(_parse_time_path(tp, f"time_paths[{i}]")
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
        out["responses"] = [_link_to_dict(r) for r in ordered]
    if s.time_paths:
        out["time_paths"] = [_time_path_to_dict(tp)
                             for tp in sorted(s.time_paths, key=lambda t: t.symbol)]
    return out


def _link_to_dict(r: ResponseFunction) -> dict[str, Any]:
    out: dict[str, Any] = {"driven": r.driven, "driver": r.driver, "kind": r.kind}
    if r.kind == "polynomial":
        out["coeffs"] = list(r.coeffs)
    else:
        out["knots"] = [[x, y] for x, y in r.knots]
    out["context"] = r.context
    return out


def _time_path_to_dict(tp: TimePath) -> dict[str, Any]:
    out: dict[str, Any] = {"symbol": tp.symbol, "kind": tp.kind}
    if tp.kind == "constant":
        out["value"] = tp.value
    elif tp.kind == "linear":
        out["v0"] = tp.v0
        out["slope"] = tp.slope
    else:
        out["times"] = list(tp.times)
        out["values"] = list(tp.values)
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
# JSON writer: the text of json.dumps(value, indent=2, ensure_ascii=False)
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


def json_array(texts: Iterable[str], nl: str = "\n") -> str:
    """An array of already rendered items (each rendered at indent ``nl + "  "``)."""
    inner = nl + "  "
    body = ("," + inner).join(texts)
    return f"[{inner}{body}{nl}]" if body else "[]"


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
        return json_array([json_text(v, inner) for v in value], nl)
    if isinstance(value, dict):
        inner = nl + "  "
        return json_object([(k, json_text(v, inner)) for k, v in value.items()], nl)
    return json_atom(value)
