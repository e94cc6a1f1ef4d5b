"""Deterministic JSON emission: sorted keys, floats at 17 significant digits.

The standard encoder's float formatting is not configurable, so reports are
rendered by this small recursive writer instead.  Identical inputs produce
byte-identical output.  Plain floats, dicts and lists of plain ints, most
of a report, are told apart by their exact type before any other test; a
list of ints is written with one join.  A float64 array of one or two
dimensions is written a row at a time, one ``%`` format per row, in the
bytes its nested list would give entry by entry.  Any other object is
written as the document its ``to_json()`` returns; a :class:`Report`
dataclass returns its fields.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = ["Report", "dumps"]


class Report:
    """Base of the dataclasses whose JSON document is their fields, by name;
    :func:`dumps` renders the arrays and objects among them itself."""

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


# Below 1e17, %.17g writes a whole float without a point or an exponent, which
# a JSON reader takes for an integer; those values are written with "%.1f".
WHOLE_BELOW = 1e17


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports must contain finite numbers only")
    if x.is_integer() and abs(x) < WHOLE_BELOW:
        return f"{x:.1f}"
    return f"{x:.17g}"


_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def _block(items: list, indent: int) -> str:
    """A non-empty list at ``indent`` whose items are already rendered."""
    pad = "  " * (indent + 1)
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + "  " * indent + "]"


def _render_floats(a: np.ndarray, indent: int, pieces: list):
    """A non-empty 1-D or 2-D float64 array in the bytes of its nested list,
    one ``%`` format per row.  The finiteness check and ``_fmt_float``'s
    whole-number rule run once over the whole array, and each entry takes
    the format that rule picks for it."""
    if not np.isfinite(a).all():
        raise ValueError("reports must contain finite numbers only")
    fmts = np.where((a == np.trunc(a)) & (np.abs(a) < WHOLE_BELOW), "%.1f", "%.17g").tolist()
    if a.ndim == 1:
        pieces.append(_block(fmts, indent) % tuple(a.tolist()))
    else:
        rows = [_block(f, indent + 1) % tuple(v) for f, v in zip(fmts, a.tolist())]
        pieces.append(_block(rows, indent))


# escaped dict keys by str(key); reports repeat a few dozen field names
_KEYS: dict = {}
_KEYS_MAX = 1024


def _escape_key(key) -> str:
    """The escaped text of a dict key, cached on ``str(key)``: a cache on the
    key itself would give ``True`` the entry of ``1``, an equal dict key."""
    s = str(key)
    text = _KEYS.get(s)
    if text is None:
        if len(_KEYS) >= _KEYS_MAX:
            _KEYS.clear()
        text = _KEYS[s] = _escape(s)
    return text


def _render_dict(obj: dict, indent: int, pieces: list):
    if not obj:
        pieces.append("{}")
        return
    pad = "  " * (indent + 1)
    keys = sorted(obj.keys())
    last = len(keys) - 1
    pieces.append("{\n")
    for k, key in enumerate(keys):
        pieces.append(pad + _escape_key(key) + ": ")
        _render(obj[key], indent + 1, pieces)
        pieces.append(",\n" if k < last else "\n")
    pieces.append("  " * indent + "}")


def _render(obj, indent: int, pieces: list):
    # the exact types that make up most of a report first; anything else,
    # subclasses included, takes the general branches below in their order
    kind = type(obj)
    if kind is float:
        pieces.append(_fmt_float(obj))
    elif kind is dict:
        _render_dict(obj, indent, pieces)
    elif (kind is list or kind is tuple) and obj and all(type(v) is int for v in obj):
        pieces.append(_block([str(v) for v in obj], indent))
    elif obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(_escape(obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size:
            _render_floats(obj, indent, pieces)
        else:
            _render(obj.tolist(), indent, pieces)
    elif isinstance(obj, dict):
        _render_dict(obj, indent, pieces)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for k, item in enumerate(obj):
            pieces.append("  " * (indent + 1))
            _render(item, indent + 1, pieces)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append("  " * indent + "]")
    elif hasattr(obj, "to_json"):
        _render(obj.to_json(), indent, pieces)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    pieces: list = []
    _render(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)
