"""The float-array routes of ``dumps`` against their oracle: the same array
as nested lists, which renders entry by entry through ``_fmt_float``, below
``CUT`` entries (one ``%`` format per row) and at or above it (digits of
exactly rounded 17-digit integers, and one ``%`` for the other entries);
the object route, a :class:`Report` against
the dict that copied its fields by hand; and the exact-type dispatch
against the isinstance chain it shortcuts (``dumps_oracle``) on random
nested documents."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastchain._serialize import CUT, Report, _escape, dumps
from fastchain.eigentime import hitting_report
from fastchain.generator import ProbabilityVector, cycle_generator
from fastchain.graph import Cycle, complete_graph
from fastchain.optimizer import frank_wolfe_minimize
from fastchain.rng import RandomStream

from conftest import dumps_oracle, integers

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -7.0, 12345.0, 9999999999999998.0, -9999999999999998.0,
           1e16, -1e16, 1.5e16, -1.5e16, 2.0 ** 53, 2.0 ** 53 + 2, 1e300, -1e300, 1e-300,
           5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1, -0.1, 0.5, 1 / 3,
           1.7976931348623157e308]


def _random_17_digit(stream, size):
    """Signed values from 1e-22 to 1e10, where a random double is almost
    never whole (SPECIAL holds the large whole ones)."""
    sign = np.where(stream.uniform(size) < 0.5, -1.0, 1.0)
    return sign * (stream.uniform(size) + 0.01) * 10.0 ** (integers(stream, size, 30) - 20.0)


def _cases():
    stream = RandomStream(11)
    special = np.array(SPECIAL)
    mixed = special[integers(stream, 36, len(SPECIAL))]
    mixed[::3] = _random_17_digit(stream, 12)
    noise = _random_17_digit(stream, 30)
    assert not np.any((noise == np.trunc(noise)) & (np.abs(noise) < 1e16))
    return [special, special.reshape(9, 3), mixed, mixed.reshape(6, 6), noise, noise.reshape(5, 6),
            noise[:1], noise[:1].reshape(1, 1), np.array([[0.0], [-0.0]]), np.zeros((2, 3))]


def _ties():
    """t / 2**(17 - k) with t odd and k + 1 integer digits, k = 0..15: 18
    significant digits, the last a 5, so the 17-digit text is a tie."""
    stream = RandomStream(14)
    k = np.arange(16)
    t = 2.0 ** (17 - k) * 10.0 ** k + 1 + 2 * integers(stream, 16, 1000)
    return t / 2.0 ** (17 - k)


def _large_cases():
    """Arrays at and above CUT, shuffled so that the doubles beside each
    power of ten up to 1e16, exact ties, 2**52 - 0.5, whole entries, -0.0,
    and entries below 1 and at or above 1e16 share rows with the entries
    of the fixed-point set, in both signs; one array where most entries are
    below 1; and one of a single tie, 131073/131072 = 1.00000762939453125,
    written 1.0000076293945312 (half to even, as printf rounds)."""
    stream = RandomStream(15)
    powers = 10.0 ** np.arange(17)
    edges = np.concatenate([np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf), _ties(),
                            [2.0 ** 52 - 0.5, 2.0 ** 52 - 1.5, 131073 / 131072], SPECIAL])
    size = 3 * CUT
    fixed = (stream.uniform(size) + 0.01) * 10.0 ** integers(stream, size, 16)
    small = _random_17_digit(stream, size) * 1e-10
    a = np.where(stream.uniform(size) < 0.2, small, fixed)
    a[:len(edges)] = edges
    a[len(edges):len(edges) + 40] = np.trunc(a[len(edges):len(edges) + 40])
    a[stream.uniform(size) < 0.5] *= -1.0
    a = a[integers(stream, size, size).argsort(kind="stable")]
    mostly_small = np.where(stream.uniform(CUT) < 0.6, small[:CUT], fixed[:CUT])
    return [a[:CUT], a[:CUT].reshape(16, -1), a, a.reshape(48, -1), a[:CUT].reshape(-1, 1), mostly_small,
            np.full(CUT, 131073 / 131072)]


CASES = _cases() + _large_cases()


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
@pytest.mark.parametrize("shape", [(4,), (2, 2), (CUT,), (2, CUT // 2)])
def test_float_array_rejects_non_finite(bad, shape):
    a = np.arange(1.5, 1.5 + math.prod(shape))
    a[2] = bad
    a = a.reshape(shape)
    with pytest.raises(ValueError, match="finite numbers only") as from_array:
        dumps(a)
    with pytest.raises(ValueError, match="finite numbers only") as from_list:
        dumps(a.tolist())
    assert str(from_array.value) == str(from_list.value)


def _random_floats(stream, size, share):
    """Finite doubles from random bit patterns, and with ``share`` odds
    hitting-time-like magnitudes 1 to 1e6 of either sign instead."""
    bits = stream.uint64(size).view(np.float64)
    bits[~np.isfinite(bits)] = 0.25
    hitting = 10.0 ** (6.0 * stream.uniform(size)) * np.where(stream.uniform(size) < 0.2, -1.0, 1.0)
    return np.where(stream.uniform(size) < share, hitting, bits)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(CUT - 1,), (CUT,), (3000,), (1, CUT - 1), (CUT // 16, 16), (50, 60)]),
       st.integers(0, 2 ** 63 - 1), st.floats(0.0, 1.0))
def test_random_float_arrays_render_as_their_list(shape, seed, share):
    """Arrays just below, at and above CUT, of random bit patterns mixed
    with hitting-time-like values, render the bytes of their nested list."""
    a = _random_floats(RandomStream(seed), math.prod(shape), share).reshape(shape)
    assert dumps(a) == dumps(a.tolist())


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
        k = int(integers(stream, 1, 12)[0])
        s = "".join(alphabet[i] for i in integers(stream, k, len(alphabet)))
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
