"""The float-array path of ``dumps`` against its oracle: the same array as
nested lists, which renders entry by entry through ``_fmt_float``; the
object route, a :class:`Report` against the dict that copied its fields by
hand; and the exact-type dispatch against the isinstance chain it
shortcuts (``dumps_oracle``) on random nested documents."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastchain._serialize import Report, _escape, dumps
from fastchain.eigentime import hitting_report
from fastchain.generator import ProbabilityVector, cycle_generator
from fastchain.graph import Cycle, complete_graph
from fastchain.optimizer import frank_wolfe_minimize
from fastchain.rng import RandomStream

from conftest import dumps_oracle

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -7.0, 12345.0, 9999999999999998.0, -9999999999999998.0,
           1e16, -1e16, 1.5e16, -1.5e16, 2.0 ** 53, 2.0 ** 53 + 2, 1e300, -1e300, 1e-300,
           5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1, -0.1, 0.5, 1 / 3,
           1.7976931348623157e308]


def _random_17_digit(stream, size):
    """Signed values from 1e-22 to 1e10, where a random double is almost
    never whole (SPECIAL holds the large whole ones)."""
    sign = np.where(stream.uniform(size) < 0.5, -1.0, 1.0)
    return sign * (stream.uniform(size) + 0.01) * 10.0 ** (stream.integers(size, 30) - 20.0)


def _cases():
    stream = RandomStream(11)
    special = np.array(SPECIAL)
    mixed = special[stream.integers(36, len(SPECIAL))]
    mixed[::3] = _random_17_digit(stream, 12)
    noise = _random_17_digit(stream, 30)
    assert not np.any((noise == np.trunc(noise)) & (np.abs(noise) < 1e16))
    return [special, special.reshape(9, 3), mixed, mixed.reshape(6, 6), noise, noise.reshape(5, 6),
            noise[:1], noise[:1].reshape(1, 1), np.array([[0.0], [-0.0]]), np.zeros((2, 3))]


CASES = _cases()


def _nest(obj, depth):
    for _ in range(depth):
        obj = [obj]
    return obj


@pytest.mark.parametrize("a", CASES)
def test_float_array_renders_as_its_list(a):
    """Byte for byte at indents 0-3, alone and beside other values."""
    for depth in range(4):
        assert dumps(_nest(a, depth)) == dumps(_nest(a.tolist(), depth))
    assert dumps({"k": a, "z": [a, 1.5]}) == dumps({"k": a.tolist(), "z": [a.tolist(), 1.5]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(4,), (2, 2)])
def test_float_array_rejects_non_finite(bad, shape):
    a = np.arange(4.0)
    a[2] = bad
    a = a.reshape(shape)
    with pytest.raises(ValueError, match="finite numbers only") as from_array:
        dumps(a)
    with pytest.raises(ValueError, match="finite numbers only") as from_list:
        dumps(a.tolist())
    assert str(from_array.value) == str(from_list.value)


@pytest.mark.parametrize("a", [np.arange(6).reshape(2, 3), np.array([True, False]), np.zeros(0),
                               np.zeros((0, 3)), np.zeros((2, 0)), np.array(2.5),
                               np.arange(8.0).reshape(2, 2, 2), np.array([0.5, 2.0], dtype=np.float32)])
def test_other_arrays_render_as_their_list(a):
    assert dumps({"a": a}) == dumps({"a": a.tolist()})


def test_escape_matches_per_character_rule():
    """Escapes of the per-character rule: quote, backslash and the control
    characters below 0x20 as \\u00XX; everything else as itself."""
    def oracle(s):
        out = []
        for ch in s:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        return '"' + "".join(out) + '"'

    stream = RandomStream(12)
    alphabet = [chr(c) for c in range(301)] + ["\U0001f600", " ", "\x7f"]
    for _ in range(500):
        k = int(stream.integers(1, 12)[0])
        s = "".join(alphabet[i] for i in stream.integers(k, len(alphabet)))
        assert _escape(s) == oracle(s)
    assert _escape("") == '""'
    assert dumps({'a"\\\n\x00': 'é\t'}) == '{\n  "a\\"\\\\\\u000a\\u0000": "é\\u0009"\n}\n'


LARGE_WHOLE = [1e16, 1.5e16, -1e16, 9.9e16, 1e17, 9999999999999998.0]


@pytest.mark.parametrize("x", LARGE_WHOLE)
def test_large_whole_floats_read_back_as_floats(x):
    """A whole float of 16 or 17 digits is written with a point (or an
    exponent), so ``json.loads`` reads it back as a float of the same value,
    alone, in a list and inside 1-D and 2-D arrays."""
    def back(obj):
        return json.loads(dumps(obj))

    for got in (back(x), back([x])[0], back(np.array([x, 0.5]))[0], back(np.array([[0.5, x]]))[0][1]):
        assert type(got) is float and got == x


@dataclass(frozen=True)
class _Sample(Report):
    generator: object
    pi: ProbabilityVector
    cycle: Cycle
    values: tuple
    second: float | None
    below: np.ndarray


def test_report_renders_as_its_hand_written_dict():
    """A Report's fields, arrays and objects passed as they are, render the
    bytes of the dict that converted each of them entry by entry: a nested
    Generator, a ProbabilityVector, a Cycle, a tuple of floats, None and a
    bool array, alone and nested in a document.  The optimize and hitting
    reports render the dicts their hand-written ``to_json`` used to return:
    the optimize certificate nested, and the hitting report's ``h_matrix``."""
    pi = ProbabilityVector([0.2, 0.3, 0.5])
    rep = _Sample(generator=cycle_generator(pi, Cycle([0, 2, 1])), pi=pi, cycle=Cycle([2, 0, 1]),
                  values=(1 / 3, np.float64(2.0), 1e16, -0.0), second=None,
                  below=np.array([True, False, True]))
    hand = {
        "generator": {"n": 3, "rates": [[float(v) for v in row] for row in rep.generator.rates]},
        "pi": [float(w) for w in pi.weights],
        "cycle": [0, 1, 2],
        "values": [float(v) for v in rep.values],
        "second": None,
        "below": [True, False, True],
    }
    assert list(rep.to_json()) == ["generator", "pi", "cycle", "values", "second", "below"]
    opt = frank_wolfe_minimize(complete_graph(3), pi, extra_starts=1)
    opt_hand = {
        "cycles": opt.cycles,
        "weights": opt.weights,
        "minimizer": opt.minimizer,
        "f_min": opt.f_min,
        "certificate": {
            "h_values": opt.certificate.h_values,
            "gap": opt.certificate.gap,
        },
        "iterations": opt.iterations,
        "converged": opt.converged,
    }
    hit = hitting_report(rep.generator, pi)
    hit_hand = {
        "expectations": hit.expectations,
        "second_moments": hit.second_moments,
        "kemeny": hit.kemeny,
        "f_value": hit.f_value,
        "h_matrix": hit.h_matrix,
    }
    for report, doc in [(rep, hand), (opt, opt_hand), (hit, hit_hand)]:
        assert list(report.to_json()) == list(doc)
        assert dumps(report) == dumps(doc)
        assert dumps({"report": report, "list": [report, 1.5]}) == dumps({"report": doc, "list": [doc, 1.5]})


@pytest.mark.parametrize("obj", [object(), {1, 2}])
def test_object_without_to_json_is_refused(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps({"a": [obj]})


@dataclass(frozen=True)
class _Node(Report):
    value: object
    label: str


_BELOW, _ABOVE = float(np.nextafter(1e17, 0.0)), float(np.nextafter(1e17, 2e17))
_EDGE_FLOATS = [0.0, -0.0, 1.0, -2.0, 1e16, -1.5e16, 1e17, -1e17, _BELOW, _ABOVE, -_BELOW,
                2.0 ** 53 + 2, 0.1, 5e-324]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False) \
    | st.integers(-2 ** 60, 2 ** 60).map(float)
_TEXT = st.text(st.sampled_from('az"\\\x00\x01\n\t\x1f\x7f é\U0001f600'), max_size=6)
_INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
_LEAVES = (
    _FLOATS | _FLOATS.map(np.float64) | _INTS | _INTS.map(np.int64) | st.booleans() | st.none()
    | _TEXT | st.lists(_INTS, max_size=5) | st.lists(_INTS, max_size=5).map(tuple)
    | st.lists(_INTS | st.booleans() | _INTS.map(np.int64), max_size=4)
    | st.lists(_FLOATS, max_size=4).map(np.array)
    | st.lists(_FLOATS, min_size=2, max_size=6).map(lambda v: np.array(v[:len(v) // 2 * 2]).reshape(2, -1))
    | st.lists(_INTS, max_size=4).map(np.array)
    | st.lists(_INTS, min_size=2, max_size=6).map(lambda v: np.array(v[:len(v) // 2 * 2]).reshape(-1, 2))
    | st.sampled_from([{}, [], ()])
)
_DOCS = st.recursive(_LEAVES, lambda children: (
    st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4)
    | st.builds(_Node, children, _TEXT)), max_leaves=24)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_DOCS)
def test_dumps_gives_the_bytes_of_the_isinstance_chain(doc):
    """Nested documents of every value kind a report holds render the bytes
    of the isinstance chain: -0.0, whole floats and the doubles on either
    side of 1e17, numpy scalars, bools, None, strings with control
    characters, empty containers, Report dataclasses and 1-D and 2-D float
    and int arrays."""
    assert dumps(doc) == dumps_oracle(doc)
    assert dumps({"doc": [doc, doc]}) == dumps_oracle({"doc": [doc, doc]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_non_finite_values_are_refused_anywhere(bad):
    for doc in (bad, [bad], {"a": {"b": bad}}, _Node(value=(1, bad), label="x")):
        with pytest.raises(ValueError, match="finite numbers only"):
            dumps(doc)


def test_keys_are_escaped_by_their_text():
    """True and 1 are the same dict key but render as "True" and "1", in
    either order; a bool in a list of ints is written as a bool."""
    assert dumps({True: 0.5}) == '{\n  "True": 0.5\n}\n'
    assert dumps({1: 0.5}) == '{\n  "1": 0.5\n}\n'
    assert dumps({True: 0.5}) == '{\n  "True": 0.5\n}\n'
    assert dumps([1, True]) == dumps_oracle([1, True]) == "[\n  1,\n  true\n]\n"
