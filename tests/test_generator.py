from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fastchain.generator import (
    CycleDecomposition,
    Generator,
    NotInvariant,
    NotIrreducible,
    ProbabilityVector,
    ZeroGenerator,
    _CycleArcs,
    _require_invariant,
    _require_irreducible,
    combine,
    cycle_generator,
    decompose_into_cycles,
    invariant_measure,
    normalize,
    support_graph,
)
from fastchain.graph import Cycle, DirectedGraph, _support_strongly_connected, complete_graph, segment_graph
from fastchain.rng import RandomStream

from conftest import (
    cycle_rates_oracle,
    random_member,
    random_pi,
    shuffled,
    strongly_connected_by_search,
)


def test_probability_vector_validation():
    with pytest.raises(ValueError):
        ProbabilityVector([0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        ProbabilityVector([0.5, 0.6])
    pi = ProbabilityVector([0.5, 0.25, 0.25])
    assert pi.pi_min == 0.25


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator([[0.0, 1.0], [1.0, 0.0]])  # rows must sum to zero
    with pytest.raises(ValueError):
        Generator([[1.0, -1.0], [1.0, -1.0]])  # negative off-diagonal


# every comparison with NaN is False, so checks written as x < tol let NaN
# (and an inf - inf) through
@pytest.mark.parametrize("weights", [[np.nan, 0.5], [0.25, np.nan, 0.75]])
def test_probability_vector_rejects_non_finite(weights):
    with pytest.raises(ValueError, match="finite"):
        ProbabilityVector(weights)


@pytest.mark.parametrize("rates", [[[-np.inf, np.inf], [1.0, -1.0]],
                                   [[np.nan, np.nan], [1.0, -1.0]]])
def test_generator_rejects_non_finite(rates):
    with pytest.raises(ValueError, match="finite"):
        Generator(rates)


def test_cycle_decomposition_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        CycleDecomposition([(Cycle([0, 1]), np.nan)])


def test_invariance_check_fails_on_nan_residual():
    L = SimpleNamespace(rates=np.array([[np.nan, np.nan], [1.0, -1.0]]))
    with pytest.raises(NotInvariant):
        _require_invariant(L, ProbabilityVector.uniform(2))


def test_cycle_generator_uniform(pi3):
    L = cycle_generator(pi3, Cycle([0, 1, 2]))
    assert_allclose(L.rates, [[-1, 1, 0], [0, -1, 1], [1, 0, -1]], atol=1e-15)


def test_cycle_generator_weighted():
    pi = ProbabilityVector([0.5, 0.25, 0.25])
    L = cycle_generator(pi, Cycle([0, 1, 2]))
    assert_allclose([L.rates[0, 1], L.rates[1, 2], L.rates[2, 0]],
                    [2 / 3, 4 / 3, 4 / 3], atol=1e-15)


def test_cycle_generator_short_cycle(pi3):
    L = cycle_generator(pi3, Cycle([0, 1]))
    assert_allclose([L.rates[0, 1], L.rates[1, 0]], [1.5, 1.5])
    assert_allclose(L.rates[2], 0.0)


@pytest.mark.parametrize("verts", [[-1, 0], [0, -2, 1], [0, 3], [2, 5]])
def test_cycle_generator_rejects_vertex_out_of_range(pi3, verts):
    # numpy wraps a negative index, so a check of v >= n alone let [-1, 0]
    # through as the 2-cycle on vertices 2 and 0
    with pytest.raises(ValueError, match="out of range"):
        cycle_generator(pi3, Cycle(verts))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.integers(1, 30), st.integers(0, 2 ** 32 - 1))
def test_cycle_rates_are_the_arc_loop(n, count, seed):
    """One scatter per cycle length gives every cycle's rates with the bits,
    and the signs of zeros, of a loop over its arcs, in the order the cycles
    were given; lengths 2..n are mixed and pi spans six decades.
    ``cycle_generator`` is the one-cycle case."""
    rng = np.random.default_rng(seed)
    w = 10.0 ** rng.uniform(-6.0, 0.0, n)
    pi = ProbabilityVector(w / w.sum())
    cycles = [Cycle(rng.permutation(n)[:rng.integers(2, n + 1)]) for _ in range(count)]
    got = _CycleArcs(cycles).rates(pi.weights)
    want = np.stack([cycle_rates_oracle(pi.weights, c) for c in cycles])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(cycle_generator(pi, cycles[0]).rates, want[0])


def test_cycle_generator_invariants():
    stream = RandomStream(31)
    for t in range(20):
        s = stream.spawn(t)
        n = 3 + t % 5
        pi = random_pi(s, n)
        k = 2 + int(s.uniform(1)[0] * (n - 1))
        verts = shuffled(s, list(range(n)))[:k]
        L = cycle_generator(pi, Cycle(verts))
        assert_allclose(L.rates.sum(axis=1), 0.0, atol=1e-12)
        assert_allclose(pi.weights @ L.rates, 0.0, atol=1e-12)
        assert abs(pi.weights @ L.exit_rates() - 1.0) <= 1e-12


def test_invariant_measure_examples(random_walk3, pi3):
    assert_allclose(invariant_measure(random_walk3).weights, pi3.weights, atol=1e-13)
    L = Generator([[-2.0, 2, 0], [1, -2, 1], [0, 2, -2]])
    assert_allclose(invariant_measure(L).weights, [0.25, 0.5, 0.25], atol=1e-13)


def test_invariant_measure_inverts_construction():
    stream = RandomStream(32)
    pi = random_pi(stream, 5)
    L = cycle_generator(pi, Cycle([0, 3, 1, 4, 2]))
    assert_allclose(invariant_measure(L).weights, pi.weights, atol=1e-12)


def test_invariant_measure_requires_irreducible():
    with pytest.raises(NotIrreducible):
        invariant_measure(Generator([[-1.0, 1, 0], [1, -1, 0], [0, 0, 0]]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.floats(0.0, 0.3), st.integers(0, 2 ** 32 - 1))
def test_irreducibility_agrees_with_graph_search(n, density, seed):
    """The one strong-connectivity test on rate matrices (a clamped float
    closure) agrees with depth-first search on the support graph, on random
    supports around the connectivity threshold."""
    u = RandomStream(seed).uniform(n * n).reshape(n, n)
    rates = np.where(u < density / 2 + 1.0 / max(n, 2), u, 0.0)
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    L = Generator(rates)
    expect = strongly_connected_by_search(support_graph(L))
    assert _support_strongly_connected(L.rates) == expect
    if expect:
        _require_irreducible(L)
    else:
        with pytest.raises(NotIrreducible):
            _require_irreducible(L)


def test_normalize(random_walk3, pi3):
    assert_allclose(normalize(random_walk3, pi3).rates, random_walk3.rates)
    L = cycle_generator(pi3, Cycle([0, 1, 2]))
    assert_allclose(normalize(Generator(2.0 * L.rates), pi3).rates, L.rates)
    with pytest.raises(ZeroGenerator):
        normalize(Generator(np.zeros((3, 3))), pi3)


def is_compatible(L: Generator, g: DirectedGraph) -> bool:
    """True iff every strictly positive off-diagonal rate sits on an arc of g."""
    if L.n != g.n:
        raise ValueError("dimension mismatch")
    return support_graph(L).edges <= g.edges


def test_is_compatible(pi3):
    tri = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert is_compatible(cycle_generator(pi3, Cycle([0, 1, 2])), tri)
    assert not is_compatible(cycle_generator(pi3, Cycle([0, 2, 1])), tri)
    assert is_compatible(cycle_generator(pi3, Cycle([0, 1])), segment_graph(2))


def test_combine_examples(random_walk3, pi3):
    d = CycleDecomposition([(Cycle([0, 1, 2]), 0.5), (Cycle([0, 2, 1]), 0.5)])
    assert_allclose(combine(d, pi3).rates, random_walk3.rates, atol=1e-15)
    d = CycleDecomposition([(Cycle([0, 1]), 1 / 3), (Cycle([1, 2]), 1 / 3),
                            (Cycle([2, 0]), 1 / 3)])
    assert_allclose(combine(d, pi3).rates, random_walk3.rates, atol=1e-15)


def test_decompose_single_cycle_is_extreme(pi3):
    L = cycle_generator(pi3, Cycle([0, 1, 2]))
    d = decompose_into_cycles(L, pi3)
    assert len(d.terms) == 1
    cyc, w = d.terms[0]
    assert cyc.vertices == (0, 1, 2) and abs(w - 1.0) < 1e-12


def test_decompose_random_walk(random_walk3, pi3):
    d = decompose_into_cycles(random_walk3, pi3)
    assert_allclose(combine(d, pi3).rates, random_walk3.rates, atol=1e-10)
    assert abs(sum(w for _, w in d.terms) - 1.0) <= 1e-10


def test_decompose_combine_roundtrip_random():
    stream = RandomStream(33)
    for t in range(100):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L, _, _ = random_member(complete_graph(n), pi, s)
        d = decompose_into_cycles(L, pi)
        rebuilt = combine(d, pi)
        assert np.abs(rebuilt.rates - L.rates).max() <= 1e-10
        assert all(w > 0 for _, w in d.terms)
        assert_allclose(invariant_measure(rebuilt).weights, pi.weights, atol=1e-9)


def test_decompose_rejects_nonmembers(pi3):
    skew = Generator([[-2.0, 2, 0], [1, -2, 1], [0, 2, -2]])  # invariant is not uniform
    with pytest.raises(NotInvariant):
        decompose_into_cycles(skew, pi3)


def test_normalize_commutes_with_invariant_measure(random_walk3):
    pi = invariant_measure(random_walk3)
    doubled = Generator(2.0 * random_walk3.rates)
    assert_allclose(invariant_measure(doubled).weights, pi.weights, atol=1e-12)
    assert_allclose(normalize(doubled, pi).rates, random_walk3.rates, atol=1e-12)
