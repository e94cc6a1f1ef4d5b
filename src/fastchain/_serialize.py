"""Deterministic JSON emission: sorted keys, floats at 17 significant digits.

The standard encoder's float formatting is not configurable, so reports are
rendered by this small recursive writer instead.  Identical inputs produce
byte-identical output.  Plain floats, dicts and lists of plain ints, most
of a report, are told apart by their exact type before any other test; a
list of ints is written with one join.  Any other object is written as the
document its ``to_json()`` returns; a :class:`Report` dataclass returns its
fields.

A float64 array of one or two dimensions is written in the bytes its
nested list would give entry by entry.  Below ``CUT`` entries it is written
a row at a time, one ``%`` format per row.  From ``CUT`` entries on, numpy
writes each entry with 1 <= |x| < 1e16 that is not whole, where ``%.17g``
writes fixed-point digits, from the exactly rounded 17-digit integer
N = round(|x| 10^(16-k)), k = floor(log10|x|): the scale is an exact
double and Dekker's two-product gives the rounding error of the float
product exactly (see :func:`_digits`).  The digits are laid out as bytes,
one column per entry, with the point after digit k; trailing zeros are cut
off and all texts are decoded at once.  Every other entry, whole, below 1
or at least 1e16, is written by one ``%`` over the formats the row route
uses.

``CUT`` comes from timing both routes on n x n matrices of hitting-time-like
entries, 1 to 3000 with a zero diagonal: median CPU time of 100 runs, row
route / numpy, on a 2-core Xeon with Python 3.11 and numpy 2.4, two
sessions.  n = 12: 0.10-0.11 / 0.15-0.20 ms; n = 16: 0.17-0.18 / 0.20 ms;
n = 20: 0.26-0.28 / 0.25 ms; n = 23: 0.33-0.36 / 0.27-0.30 ms; n = 32:
0.62-1.04 / 0.42-0.80 ms; n = 128: 11.8-14.3 / 7.8-9.0 ms.  The routes
cross near 400 entries, and from 512 on numpy is ahead by a sixth or more.
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


# Arrays of fewer entries take the row % route (timings in the module docstring).
CUT = 512

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _split(v: np.ndarray) -> tuple:
    """v as hi + lo, each of at most 26 significant bits, so that the
    product of two halves is exact."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


_POW10 = 10 ** np.arange(17, dtype=np.int64)
_TENS = _POW10.astype(np.float64)  # exact doubles
_SCALE = _TENS[16:0:-1]  # 10^(16-k) for k = 0..15
_SCALE_HI, _SCALE_LO = _split(_SCALE)
# the four ASCII digits of 0..9999, one row per digit
_PLACES = np.array([[1000], [100], [10], [1]], dtype=np.int16)
_DIGITS4 = (np.arange(10000, dtype=np.int16) // _PLACES % np.int16(10)).astype(np.uint8) + np.uint8(ord("0"))
# An entry's text runs down one column of a byte frame: the sign and the
# integer digits end on the row above _POINT, the point sits on _POINT and
# the 16 fraction digits follow it.  A comma ends each text.
_POINT = 17
_ROWS = np.arange(_POINT + 18, dtype=np.int8)[:, None]


def _chunks4(v: np.ndarray) -> list:
    """The four 4-digit chunks of each v < 10^16, most significant first."""
    q, c3 = np.divmod(v, 10000)
    q, c2 = np.divmod(q, 10000)
    c0, c1 = np.divmod(q, 10000)
    return [c0, c1, c2, c3]


def _formats(a: np.ndarray) -> list:
    """The ``%`` format ``_fmt_float`` picks for each entry of ``a``, as
    nested as ``a.tolist()``: "%.1f" for a whole number below WHOLE_BELOW,
    "%.17g" for any other."""
    return np.where((a == np.trunc(a)) & (np.abs(a) < WHOLE_BELOW), "%.1f", "%.17g").tolist()


def _digits(ax: np.ndarray) -> tuple:
    """``(k, whole, frac)`` of doubles ``ax`` with 1 <= ax < 1e16, none
    whole, where ``%.17g`` writes the k + 1 integer digits ``whole`` and the
    16 - k fraction digits of N = round(ax 10^(16-k)), k = floor(log10 ax),
    trailing zeros dropped; ``frac`` holds those fraction digits followed by
    zeros up to 16 digits.

    Every step is exact.  k counts the powers of ten at or below ax.  The
    scale 10^(16-k) is an exact double, and Dekker's two-product gives the
    error e of p = fl(ax 10^(16-k)) exactly, so N = p + round(e).  N stays
    below 10^17: the largest double below 10^(k+1) lies 2^-53 of it or more
    away, too far to round up.  N >= 10^16 > 2^53 makes p even, so
    rounding e half to even rounds a tie to the even N, as printf does.
    The fraction never ends up all zeros, since its last digit weighs less
    than the spacing of doubles there."""
    k = (np.searchsorted(_TENS, ax, side="right") - 1).astype(np.int8)
    p = ax * _SCALE[k]
    v_hi, v_lo = _split(ax)
    s_hi, s_lo = _SCALE_HI[k], _SCALE_LO[k]
    e = ((v_hi * s_hi - p) + v_hi * s_lo + v_lo * s_hi) + v_lo * s_lo
    whole, frac = np.divmod(p.astype(np.int64) + np.rint(e).astype(np.int64), _POW10[16 - k])
    return k, whole, frac * _POW10[k]


def _fixed_texts(x: np.ndarray) -> list:
    """The ``%.17g`` texts of a non-empty flat array of doubles with
    1 <= |x| < 1e16, none whole, written from their digits (see
    :func:`_digits`)."""
    k, whole, frac = _digits(np.abs(x))
    m = len(x)
    frame = np.empty((len(_ROWS), m), dtype=np.uint8)
    for j, c in enumerate(_chunks4(whole)):
        np.take(_DIGITS4, c, axis=1, out=frame[_POINT - 16 + 4 * j:_POINT - 12 + 4 * j])
    frame[_POINT] = ord(".")
    for j, c in enumerate(_chunks4(frac)):
        np.take(_DIGITS4, c, axis=1, out=frame[_POINT + 1 + 4 * j:_POINT + 5 + 4 * j])
    # the comma follows the last non-zero fraction digit
    end = ((frame[_POINT + 1:_POINT + 17] != ord("0")) * _ROWS[_POINT + 1:_POINT + 17]).max(0) + 1
    frame[end, np.arange(m)] = ord(",")
    neg = np.signbit(x)
    first = _POINT - 1 - k - neg
    frame[first[neg], np.flatnonzero(neg)] = ord("-")
    top = int(first.min())
    keep = (_ROWS[top:] >= first) & (_ROWS[top:] <= end)
    texts = frame[top:].T[keep.T].tobytes().decode("ascii").split(",")
    texts.pop()
    return texts


def _texts(x: np.ndarray) -> list:
    """The ``_fmt_float`` texts of a flat array of finite doubles: those of
    the entries with 1 <= |x| < 1e16 that are not whole from
    :func:`_fixed_texts`, all others from one ``%`` over their
    ``_formats``."""
    ax = np.abs(x)
    fixed = (ax >= 1.0) & (ax < 1e16) & (x != np.trunc(x))
    if fixed.all():
        return _fixed_texts(x)
    texts = np.empty(len(x), dtype=object)
    if fixed.any():
        texts[fixed] = _fixed_texts(x[fixed])
    v = x[~fixed]
    texts[~fixed] = (",".join(_formats(v)) % tuple(v.tolist())).split(",")
    return texts.tolist()


def _render_floats(a: np.ndarray, indent: int, pieces: list):
    """A non-empty 1-D or 2-D float64 array in the bytes of its nested list.
    The finiteness check runs once over the whole array.  An array of at
    least ``CUT`` entries takes its texts from :func:`_texts`; any other is
    written one ``%`` format per row, its entries in their ``_formats``."""
    if not np.isfinite(a).all():
        raise ValueError("reports must contain finite numbers only")
    if a.size >= CUT:
        texts = _texts(a.ravel())
        if a.ndim == 1:
            pieces.append(_block(texts, indent))
        else:
            width = a.shape[1]
            rows = [_block(texts[i:i + width], indent + 1) for i in range(0, len(texts), width)]
            pieces.append(_block(rows, indent))
        return
    fmts = _formats(a)
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
