import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastchain.graph as graph
from fastchain.graph import (
    Cycle,
    CycleBudgetExceeded,
    DirectedGraph,
    complete_graph,
    enumerate_hamiltonian_cycles,
    enumerate_simple_cycles,
    gray_code_cycle,
    hypercube_graph,
    is_strongly_connected,
    segment_graph,
)
from fastchain.rng import RandomStream

from conftest import has_hamiltonian_cycle, random_ham_digraph


def test_graph_validation():
    with pytest.raises(ValueError):
        DirectedGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        DirectedGraph(3, [(0, 3)])


def test_graph_ids_are_python_or_numpy_integers():
    """int() would truncate a float and read a bool as 0 or 1."""
    g = DirectedGraph(np.int64(3), [(np.int64(0), np.int32(1)), (1, 2), (2, 0)])
    assert (g.n, type(g.n)) == (3, int)
    assert all(type(v) is int for arc in g.edges for v in arc)
    for n, edges in [(3.0, [(0, 1)]), (True, []), (3, [(0, True)]),
                     (3, [(np.float64(1.0), 0)]), (3, [(np.bool_(True), 0)])]:
        with pytest.raises(ValueError, match="must be integers"):
            DirectedGraph(n, edges)


def test_cycle_canonical_rotation():
    assert Cycle([2, 0, 1]).vertices == (0, 1, 2)
    assert Cycle([5, 3]).vertices == (3, 5)
    assert Cycle([1, 2]) == Cycle([2, 1])
    with pytest.raises(ValueError):
        Cycle([1])
    with pytest.raises(ValueError):
        Cycle([0, 1, 0])


def test_cycle_ids_are_nonnegative_integers():
    """int() would read True as 1 and 2.7 as 2, and a negative id would
    index the last states of a matrix."""
    g = Cycle([np.int64(2), np.int32(0)])
    assert (g.vertices, [type(v) for v in g.vertices]) == ((0, 2), [int, int])
    for vertices in ([True, 2], [0, 2.7], [np.float64(1.0), 0], [np.bool_(True), 0]):
        with pytest.raises(ValueError, match="must be integers"):
            Cycle(vertices)
    for vertices in ([-1, 0], [2, 0, -3]):
        with pytest.raises(ValueError, match="must be nonnegative"):
            Cycle(vertices)


def test_strong_connectivity():
    assert is_strongly_connected(DirectedGraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert not is_strongly_connected(DirectedGraph(3, [(0, 1), (1, 2)]))
    assert is_strongly_connected(segment_graph(2))
    # directed n-cycles have diameter n - 1, the longest any closure must span
    for n in range(1, 20):
        ring = [(i, (i + 1) % n) for i in range(n)] if n > 1 else []
        assert is_strongly_connected(DirectedGraph(n, ring))
        assert not is_strongly_connected(DirectedGraph(n + 1, ring[:-1] + [(n - 1, n)]))


def test_enumerate_simple_cycles_s2(s2):
    assert [c.vertices for c in enumerate_simple_cycles(s2)] == [(0, 1), (1, 2)]


def test_enumerate_simple_cycles_k3():
    got = [c.vertices for c in enumerate_simple_cycles(complete_graph(3))]
    assert got == [(0, 1), (0, 1, 2), (0, 2), (0, 2, 1), (1, 2)]


def test_enumerate_simple_cycles_directed_triangle():
    tri = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert [c.vertices for c in enumerate_simple_cycles(tri)] == [(0, 1, 2)]


def test_cycle_budget(monkeypatch):
    monkeypatch.setattr(graph, "CYCLE_BUDGET", 50)
    with pytest.raises(CycleBudgetExceeded):
        enumerate_simple_cycles(complete_graph(6))


def test_cycle_counts_complete_graphs():
    # sum over k of C(n,k) (k-1)! distinct rotations
    assert len(enumerate_simple_cycles(complete_graph(4))) == 6 + 8 + 6
    assert len(enumerate_simple_cycles(complete_graph(5))) == 10 + 20 + 30 + 24


def test_hamiltonian_cycles():
    assert enumerate_hamiltonian_cycles(segment_graph(2)) == []
    k3 = [c.vertices for c in enumerate_hamiltonian_cycles(complete_graph(3))]
    assert k3 == [(0, 1, 2), (0, 2, 1)]
    tri = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert [c.vertices for c in enumerate_hamiltonian_cycles(tri)] == [(0, 1, 2)]


def test_hamiltonian_cycles_are_the_budgeted_length_n_cycles(monkeypatch):
    """Hamiltonian cycles are listed by the one budgeted enumeration: they
    agree with a depth-first oracle on random strongly connected digraphs,
    K3-K6 have (n - 1)! of them, and a budget of 50 stops K6, which has
    120 Hamiltonian and 409 simple cycles."""
    stream = RandomStream(2900)
    seen = set()
    for t in range(300):
        s = stream.spawn(t)
        n = 2 + t % 7
        u = s.uniform(n * n)
        g = DirectedGraph(n, [(i, j) for i in range(n) for j in range(n)
                              if i != j and u[i * n + j] < 2.5 / n])
        if not is_strongly_connected(g):
            continue
        hams = enumerate_hamiltonian_cycles(g)
        assert bool(hams) == has_hamiltonian_cycle(g)
        assert all(len(c) == n and c.is_admissible(g) for c in hams)
        seen.add(bool(hams))
    assert seen == {False, True}
    for n, count in ((3, 2), (4, 6), (5, 24), (6, 120)):
        assert len(enumerate_hamiltonian_cycles(complete_graph(n))) == count
    monkeypatch.setattr(graph, "CYCLE_BUDGET", 50)
    with pytest.raises(CycleBudgetExceeded, match="more than 50 simple cycles"):
        enumerate_hamiltonian_cycles(complete_graph(6))


def test_hamiltonian_subset_of_simple():
    g = complete_graph(4)
    simple = set(enumerate_simple_cycles(g))
    for c in enumerate_hamiltonian_cycles(g):
        assert len(c) == 4 and c in simple


def test_hypercube_and_gray():
    g = hypercube_graph(1)
    assert g.n == 2 and g.edges == frozenset({(0, 1), (1, 0)})
    assert gray_code_cycle(1).vertices == (0, 1)
    assert gray_code_cycle(2).vertices == (0, 1, 3, 2)
    for dim in (2, 3, 4):
        g = hypercube_graph(dim)
        c = gray_code_cycle(dim)
        assert len(c) == 2 ** dim
        assert c.is_admissible(g)
        for a, b in c.arcs():
            assert (a ^ b).bit_count() == 1
    with pytest.raises(ValueError):
        hypercube_graph(0)
    with pytest.raises(ValueError):
        gray_code_cycle(17)


def test_every_cycle_arc_is_an_edge():
    g = DirectedGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (1, 4)])
    for c in enumerate_simple_cycles(g):
        assert c.is_admissible(g)


def test_graph_json_roundtrip():
    g = segment_graph(2)
    assert DirectedGraph.from_json(g.to_json()).edges == g.edges


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1))
def test_enumerated_cycles_are_what_the_checked_constructor_builds(n, extra, seed):
    """The enumerator builds its cycles without ``Cycle.__init__``; each one
    equals, hashes like and holds the same int vertex tuple as the cycle
    the checked constructor makes of its vertices."""
    cycles = enumerate_simple_cycles(random_ham_digraph(n, RandomStream(seed), extra))
    checked = [Cycle(c.vertices) for c in cycles]
    assert cycles == checked
    assert [hash(c) for c in cycles] == [hash(c) for c in checked]
    assert all(type(c.vertices) is tuple and all(type(v) is int for v in c.vertices)
               for c in cycles)
