import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fastchain.dp import (
    BudgetInvalid,
    StateSpaceTooLarge,
    _solve_table,
    continuous_value_function,
    discrete_value_function,
    extract_policy_path,
    optimal_budget_search,
)
from fastchain.graph import (
    DirectedGraph,
    complete_graph,
    hypercube_graph,
    segment_graph,
)
from fastchain.rng import RandomStream

from conftest import (
    dijkstra_table_oracle,
    has_hamiltonian_path_from,
    integers,
    random_ham_digraph,
    value_iteration_oracle,
)


def triangle():
    return DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])


def test_empty_set_is_free():
    table = discrete_value_function(triangle())
    for i in range(3):
        assert table.value(i, 0) == 0.0


def test_triangle_values_and_path():
    table = discrete_value_function(triangle())
    assert table.start_value(0) == 3.0
    assert extract_policy_path(table, 0) == [0, 1, 2]


def test_segment_values():
    table = discrete_value_function(segment_graph(2))
    assert table.start_value(0) == 3.0   # 0 -> 1 -> 2 is a covering path
    assert table.start_value(1) == 4.0   # no covering path from the middle
    assert table.full_visit_value(0) == 6.0


def test_full_set_variant_hamiltonian():
    g = complete_graph(4)
    table = discrete_value_function(g)
    assert table.start_value(0) == 6.0
    assert table.full_visit_value(0) == 10.0


def test_hypercube_dp_value_and_path():
    g = hypercube_graph(3)
    table = discrete_value_function(g)
    assert table.start_value(0) == 28.0
    path = extract_policy_path(table, 0)
    assert sorted(path) == list(range(8))  # visits all eight vertices once


def test_monotone_in_unvisited_set_and_level_floor():
    g = random_ham_digraph(6, RandomStream(500))
    table = discrete_value_function(g)
    full = 1 << 6
    for i in range(6):
        for mask in range(full):
            if mask & (1 << i):
                continue
            sub = mask & (mask - 1)  # drop lowest set bit
            assert table.values[i, sub] <= table.values[i, mask] + 1e-12
            if mask:
                # the current level size is paid at least once
                assert table.values[i, mask] >= mask.bit_count()


def test_policy_revisits_iff_above_bound():
    g = segment_graph(2)
    table = discrete_value_function(g)
    path = extract_policy_path(table, 1)
    assert len(path) > 3  # revisits happen: value 4 > 3
    assert set(path) == {0, 1, 2}


def test_bottom_up_matches_value_iteration():
    stream = RandomStream(501)
    for t in range(6):
        n = 4 + t % 4
        g = random_ham_digraph(n, stream.spawn(t), extra=0.3)
        table = discrete_value_function(g)
        oracle = value_iteration_oracle(g, lambda i, size: float(size))
        valid = np.isfinite(oracle)
        assert np.abs(oracle[valid] - table.values[valid]).max() <= 1e-9


def test_continuous_equals_discrete_at_unit_budgets():
    stream = RandomStream(502)
    for t in range(5):
        n = 4 + t
        g = random_ham_digraph(n, stream.spawn(t))
        disc = discrete_value_function(g)
        cont = continuous_value_function(g, np.ones(n))
        for i in range(n):
            assert cont.start_value(i) == disc.start_value(i)


def test_continuous_skewed_budgets_cost_more_on_average():
    g = triangle()
    cont = continuous_value_function(g, np.array([2.0, 0.5, 0.5]))
    values = [cont.start_value(i) for i in range(3)]
    assert_allclose(values, [3.0, 6.0, 4.5])
    assert np.mean(values) > discrete_value_function(g).start_value(0)


def test_budget_validation():
    with pytest.raises(BudgetInvalid):
        continuous_value_function(triangle(), np.array([1.0, 1.0, 2.0]))
    with pytest.raises(BudgetInvalid):
        continuous_value_function(triangle(), np.array([3.0, -1.0, 1.0]))


@pytest.mark.parametrize("budgets", [[np.nan, 1.5, 1.5], [np.inf, 1.0, 1.0]])
def test_budget_validation_rejects_non_finite(budgets):
    with pytest.raises(BudgetInvalid, match="finite"):
        continuous_value_function(triangle(), np.array(budgets))


def test_state_space_cap():
    n = 21
    ring = DirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])
    with pytest.raises(StateSpaceTooLarge):
        discrete_value_function(ring)


def test_budget_search_all_ones():
    res = optimal_budget_search(triangle())
    assert np.abs(res.best_budgets - 1.0).max() <= 1e-2
    res = optimal_budget_search(DirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    assert np.abs(res.best_budgets - 1.0).max() <= 1e-2
    res = optimal_budget_search(DirectedGraph(2, [(0, 1), (1, 0)]))
    assert_allclose(res.best_budgets, [1.0, 1.0], atol=1e-2)


def test_hamiltonian_bound_random_graphs():
    stream = RandomStream(503)
    for t in range(8):
        n = 4 + t
        g = random_ham_digraph(n, stream.spawn(t))
        table = discrete_value_function(g)
        for i in range(n):
            assert table.start_value(i) == n * (n - 1) / 2


def test_non_hamiltonian_strictly_above_bound():
    """Cross-checked against an independent path-existence backtracker:
    the bound is attained from a start exactly when a covering simple path
    from it exists."""
    stream = RandomStream(504)
    found = 0
    t = 0
    while found < 5:
        s = stream.spawn(t)
        t += 1
        n = 5 + t % 3
        u = s.uniform(n * n)
        edges = [(i, j) for k, (i, j) in enumerate(
            (i, j) for i in range(n) for j in range(n) if i != j) if u[k] < 2.2 / n]
        try:
            g = DirectedGraph(n, edges)
            table = discrete_value_function(g)
        except ValueError:
            continue
        found += 1
        for i in range(n):
            attains = table.start_value(i) == n * (n - 1) / 2
            assert attains == has_hamiltonian_path_from(g, i)


def _covering_graph(n, density, hamiltonian, stream):
    """A random Hamiltonian digraph, or a random tree with arcs both ways
    plus sparse extra arcs: strongly connected, and mostly without a
    Hamiltonian cycle, so walks revisit."""
    if hamiltonian and n > 1:
        return random_ham_digraph(n, stream.spawn(0), extra=density)
    parent = [int(integers(stream.spawn(2 + v), 1, v)[0]) for v in range(1, n)]
    u = stream.spawn(0).uniform(n * n)
    return DirectedGraph(n, [(v, p) for v, p in enumerate(parent, 1)]
                         + [(p, v) for v, p in enumerate(parent, 1)]
                         + [(i, j) for i in range(n) for j in range(n)
                            if i != j and u[i * n + j] < density / 4])


def _random_budgets(n, stream):
    a = 0.3 + stream.spawn(1).uniform(n)
    return a * (n / a.sum())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.floats(0.0, 0.5), st.booleans(),
       st.sampled_from(["discrete", "continuous", "time"]), st.integers(0, 2 ** 32 - 1))
def test_level_fill_matches_dijkstra_bitwise(n, density, hamiltonian, cost, seed):
    """The level-vectorized fill reproduces the per-mask Dijkstra table bit
    for bit, revisits included: unit step costs, |A|/a_i at random budgets,
    and the 1/a_i costs with a terminal charge that the budget search uses."""
    stream = RandomStream(seed)
    g = _covering_graph(n, density, hamiltonian, stream)
    a = _random_budgets(n, stream)
    if cost == "discrete":
        table, step, terminal = discrete_value_function(g), lambda i, size: float(size), None
    elif cost == "continuous":
        table, step, terminal = continuous_value_function(g, a), lambda i, size: size / a[i], None
    else:
        step, terminal = lambda i, size: 1.0 / a[i], 1.0 / a
        table = _solve_table(g, step, terminal=terminal)
    assert np.array_equal(table.values, dijkstra_table_oracle(g, step, terminal))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.floats(0.0, 0.5), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_policy_path_cost_equals_start_value(n, density, hamiltonian, continuous, seed):
    """The walk of the successor rule is optimal: summing |A|/a_i along it,
    from the full unvisited set down to the empty one, gives the table's
    value, on graphs with and without a Hamiltonian cycle."""
    stream = RandomStream(seed)
    g = _covering_graph(n, density, hamiltonian, stream)
    if continuous:
        a = _random_budgets(n, stream)
        table = continuous_value_function(g, a)
    else:
        a = np.ones(n)
        table = discrete_value_function(g)
    for start in range(n):
        path = extract_policy_path(table, start)
        cost = _walk_cost(g, a, path, set(range(n)) - {start}, lazy=False)
        assert abs(cost - table.start_value(start)) <= 1e-9 * table.start_value(start)
        # the full-set query: start itself is unvisited, and the discrete
        # chain may take the lazy self-loop first
        walk = [start] + extract_policy_path(table, table.next_vertex(start, (1 << n) - 1))
        cost = _walk_cost(g, a, walk, set(range(n)), lazy=not continuous)
        assert abs(cost - table.full_visit_value(start)) <= 1e-9 * table.full_visit_value(start)


def _walk_cost(g, a, path, unvisited, lazy):
    """Sum of |A|/a_i over the moves of ``path``; every move is an arc, or
    with ``lazy`` a self-loop, and the walk ends with nothing unvisited."""
    cost = 0.0
    for i, j in zip(path, path[1:]):
        assert (i, j) in g.edges or (lazy and i == j)
        cost += len(unvisited) / a[i]
        unvisited.discard(j)
    assert not unvisited
    return cost
