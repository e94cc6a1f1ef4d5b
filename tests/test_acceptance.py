"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with ``pytest -s tests/test_acceptance.py`` to see them).

Expected values come from closed forms evaluated by hand, independent
oracles (finite differences, exhaustive search, grid scans, Monte Carlo),
or frozen regression values computed from those oracles before the
implementation was written.
"""

import time

import numpy as np
from numpy.testing import assert_allclose

from fastchain.derivatives import directional_derivative, second_directional
from fastchain.discrete_time import compare_wedges, frak_f, hunter_trace, to_generator, to_kernel
from fastchain.dp import continuous_value_function, discrete_value_function, optimal_budget_search
from fastchain.eigentime import (
    eigentime_spectral,
    hamiltonian_speed_value,
    hitting_kernel,
    inverse_speed,
    simulate_hitting,
    spectral_second_identity,
)
from fastchain.experiments import (
    build_cycle_tree_generator,
    find_counterexample,
    s2_closed_form,
    spectrum_split,
    theorem2_probe,
    triangle_leaf_graph,
)
from fastchain.generator import Generator, ProbabilityVector, cycle_generator, invariant_measure
from fastchain.graph import (
    Cycle,
    DirectedGraph,
    complete_graph,
    enumerate_hamiltonian_cycles,
    enumerate_simple_cycles,
    is_strongly_connected,
    segment_graph,
)
from fastchain.optimizer import brute_force_minimize, frank_wolfe_minimize
from fastchain.rng import RandomStream

from conftest import (
    f_reference,
    has_hamiltonian_cycle,
    has_hamiltonian_path_from,
    random_ham_digraph,
    random_pi,
    shuffled,
)


def _report(name: str, started: float, budget: float):
    elapsed = time.time() - started
    assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeded budget {budget}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")


def sample_member(n: int, pi: ProbabilityVector, stream: RandomStream,
                  n_cycles: int = 8) -> Generator:
    """Random normalized pi-invariant generator: mixture of a Hamiltonian
    cycle (for irreducibility) and random shorter cycles."""
    cycles = [Cycle(shuffled(stream, list(range(n))))]
    for _ in range(n_cycles - 1):
        k = 2 + int(stream.uniform(1)[0] * (n - 1))
        cycles.append(Cycle(shuffled(stream, list(range(n)))[:k]))
    w = stream.simplex(len(cycles))
    w = 0.7 * w + 0.3 / len(cycles)
    w = w / w.sum()
    rates = sum(wi * cycle_generator(pi, c).rates for wi, c in zip(w, cycles))
    return Generator(rates)


def test_criterion_1_hamiltonian_value():
    started = time.time()
    stream = RandomStream(1001)
    for t, n in enumerate([3, 4, 5, 6, 7, 8] * 3):
        s = stream.spawn(t)
        pi = random_pi(s, n)
        cyc = Cycle(shuffled(s, list(range(n))))
        L = cycle_generator(pi, cyc)
        assert abs(inverse_speed(L, pi) - hamiltonian_speed_value(pi)) <= 1e-10
    for n in range(3, 9):
        piu = ProbabilityVector.uniform(n)
        L = cycle_generator(piu, Cycle(list(range(n))))
        assert abs(inverse_speed(L, piu) - (n - 1) / 2) <= 1e-12
    _report("1 hamiltonian-value", started, 1.0)


def test_criterion_2_eigentime_identities():
    started = time.time()
    stream = RandomStream(1002)
    for t in range(200):
        s = stream.spawn(t)
        n = 3 + t % 6
        pi = random_pi(s, n)
        L = sample_member(n, pi, s)
        f = inverse_speed(L, pi)
        assert abs(f - eigentime_spectral(L)) <= 1e-8
        lhs, rhs = spectral_second_identity(L, pi)
        assert abs(lhs - rhs) <= 1e-8
        kem = hitting_kernel(L, pi).kemeny
        assert kem.max() - kem.min() <= 1e-9
    _report("2 eigentime-identities", started, 10.0)


def test_criterion_3_derivative_oracle():
    started = time.time()
    stream = RandomStream(1003)
    for t in range(50):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L = sample_member(n, pi, s)
        cycles = enumerate_simple_cycles(complete_graph(n))
        below = [c for c in cycles
                 if all(L.rates[a, b] > 1e-9 for a, b in c.arcs())]
        cyc = below[int(s.uniform(1)[0] * len(below))]
        analytic = directional_derivative(hitting_kernel(L, pi), cyc)
        LA = cycle_generator(pi, cyc).rates
        eps = 1e-5
        fd = (f_reference((1 - eps) * L.rates + eps * LA, pi)
              - f_reference((1 + eps) * L.rates - eps * LA, pi)) / (2 * eps)
        assert abs(analytic - fd) <= 1e-6
    for t in range(30):
        s = stream.spawn(1000 + t)
        n = 3 + t % 3
        pi = random_pi(s, n)
        L = sample_member(n, pi, s)
        cycles = enumerate_simple_cycles(complete_graph(n))
        cyc = cycles[int(s.uniform(1)[0] * len(cycles))]
        # sign convention: second derivative of e -> F((1-e)L + e L_A),
        # matched directly against its own Taylor quotient
        analytic = second_directional(hitting_kernel(L, pi), cyc)
        eps = 1e-3
        LA = cycle_generator(pi, cyc).rates
        f0 = f_reference(L.rates, pi)
        fd = (f_reference((1 - eps) * L.rates + eps * LA, pi) - 2 * f0
              + f_reference((1 + eps) * L.rates - eps * LA, pi)) / eps ** 2
        assert abs(analytic - fd) <= 1e-3 * max(1.0, abs(fd))
    _report("3 derivative-oracle", started, 30.0)


def test_criterion_4_ascent_margin_exhaustive():
    started = time.time()
    for n in range(3, 8):
        pi = ProbabilityVector.uniform(n)
        A = Cycle(list(range(n)))
        L = cycle_generator(pi, A)
        f = inverse_speed(L, pi)
        kern = hitting_kernel(L, pi)
        bound = (n - 1) / (2 * n)
        for c in enumerate_simple_cycles(complete_graph(n)):
            if c == A:
                continue
            assert f - kern.h_cycle(c) >= bound - 1e-10
    _report("4 hamiltonian-ascent-margin", started, 60.0)


def test_criterion_5_dp_optimality():
    started = time.time()
    stream = RandomStream(1005)
    for t in range(20):
        n = 4 + t % 9  # up to 12
        g = random_ham_digraph(n, stream.spawn(t))
        table = discrete_value_function(g)
        start = int(stream.uniform(1)[0] * n)
        assert table.start_value(start) == n * (n - 1) / 2
        assert table.full_visit_value(start) == n * (n + 1) / 2
        cont = continuous_value_function(g, np.ones(n))
        assert cont.start_value(start) == table.start_value(start)

    # strongly connected without a Hamiltonian cycle: the bound is strict
    # from any start lacking a covering path (independent backtracking oracle)
    found = 0
    t = 0
    while found < 10:
        s = stream.spawn(10_000 + t)
        t += 1
        n = 5 + t % 4
        u = s.uniform(n * n)
        edges = [(i, j) for k, (i, j) in enumerate(
            (i, j) for i in range(n) for j in range(n) if i != j) if u[k] < 2.2 / n]
        try:
            g = DirectedGraph(n, edges)
        except ValueError:
            continue
        if not is_strongly_connected(g) or has_hamiltonian_cycle(g):
            continue
        starts = [v for v in range(n) if not has_hamiltonian_path_from(g, v)]
        if not starts:
            continue
        table = discrete_value_function(g)
        assert table.start_value(starts[0]) > n * (n - 1) / 2
        found += 1

    for g in (DirectedGraph(3, [(0, 1), (1, 2), (2, 0)]),
              DirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
              complete_graph(4),
              DirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])):
        res = optimal_budget_search(g)
        assert np.abs(res.best_budgets - 1.0).max() <= 1e-2
    _report("5 dp-optimality", started, 60.0)


def test_criterion_6_optimizer_vs_closed_forms():
    started = time.time()
    pi3 = ProbabilityVector.uniform(3)
    rep = frank_wolfe_minimize(complete_graph(3), pi3, seed=6)
    assert abs(rep.f_min - 1.0) <= 1e-8
    hams = [cycle_generator(pi3, c).rates
            for c in enumerate_hamiltonian_cycles(complete_graph(3))]
    assert min(np.abs(rep.minimizer.rates - h).max() for h in hams) <= 1e-8

    s2 = segment_graph(2)
    rep = frank_wolfe_minimize(s2, pi3, seed=6)
    assert abs(rep.f_min - 16.0 / 9.0) <= 1e-6
    assert_allclose(rep.weights, [0.5, 0.5], atol=1e-4)
    bf = brute_force_minimize(s2, pi3, 1000)
    assert abs(bf.f_min - 16.0 / 9.0) <= 1e-4

    pi = ProbabilityVector([0.2, 0.3, 0.5])
    rep = frank_wolfe_minimize(s2, pi, seed=6)
    closed = s2_closed_form(pi)
    assert abs(rep.f_min - 1.62) <= 1e-6
    assert abs(closed.f_min - 1.62) <= 1e-12
    w01 = rep.weights[[c.vertices for c in rep.cycles].index((0, 1))]
    assert abs(w01 - 4.0 / 9.0) <= 1e-4
    _report("6 optimizer-closed-forms", started, 30.0)


def test_criterion_7_near_uniform_probe():
    started = time.time()
    for n, seed in ((3, 71), (4, 72)):
        rep = theorem2_probe(complete_graph(n), 0.01, 20, seed=seed)
        assert rep.successes == 20
    _report("7 near-uniform-probe", started, 120.0)


def test_criterion_8_counterexample():
    started = time.time()
    g = triangle_leaf_graph()
    rep = find_counterexample(g)
    assert rep.margin > 0
    assert rep.f_perturbed < min(rep.hamiltonian_values)
    assert rep.r_multiplicity == 1  # one vertex hangs off the short cycle
    L_r = build_cycle_tree_generator(g, rep.short_cycle, [(3, 0)], rep.r)
    mult, err = spectrum_split(L_r, rep.short_cycle, rep.r)
    assert mult == 1 and err <= 1e-6
    _report("8 counterexample", started, 30.0)


def test_criterion_9_discrete_bridge():
    started = time.time()
    stream = RandomStream(1009)
    for t in range(100):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L = sample_member(n, pi, s)
        K, l = to_kernel(L)
        assert abs(frak_f(K, pi) - l * inverse_speed(L, pi)) <= 1e-8
        back, k = to_generator(K, pi)
        assert abs(inverse_speed(back, pi) - frak_f(K, pi) / k) <= 1e-8
        assert abs(hunter_trace(K, pi) - (1.0 + frak_f(K, pi))) <= 1e-8
        assert np.abs(back.rates - L.rates).max() <= 1e-12  # round trip on K0
    pi3 = ProbabilityVector.uniform(3)
    comp = compare_wedges(complete_graph(3), pi3, seed=9)
    assert comp.gap >= -1e-8
    assert abs(comp.frak_f_wedge - comp.f_wedge) <= 1e-8  # equality when the
    # minimizer has constant exit rates (uniform Hamiltonian case)
    comp = compare_wedges(segment_graph(2), pi3, seed=9)
    assert comp.gap >= -1e-8
    assert abs(comp.f_wedge - 16.0 / 9.0) <= 1e-6
    _report("9 discrete-bridge", started, 30.0)


def test_criterion_10_monte_carlo():
    started = time.time()
    pi3 = ProbabilityVector.uniform(3)
    ham3 = cycle_generator(pi3, Cycle([0, 1, 2]))
    srw = Generator(0.5 * np.array([[-2.0, 1, 1], [1, -2, 1], [1, 1, -2]]))
    pi4 = ProbabilityVector([0.4, 0.3, 0.2, 0.1])
    ham4 = cycle_generator(pi4, Cycle([0, 1, 2, 3]))
    seg_min = s2_closed_form(pi3).generator
    mix = Generator(0.5 * ham3.rates + 0.5 * cycle_generator(pi3, Cycle([0, 2, 1])).rates)
    instances = [
        (ham3, pi3, 0, 2, 101),
        (srw, invariant_measure(srw), 0, 1, 102),
        (ham4, pi4, 1, 0, 103),
        (seg_min, pi3, 0, 2, 104),
        (mix, pi3, 2, 1, 105),
    ]
    for L, pi, x, y, seed in instances:
        kern = hitting_kernel(L, pi)
        exact_mean = float(kern.E[x, y])
        exact_m2 = float(kern.second_moments[x, y])
        rep = simulate_hitting(L, x, y, 1_000_000, seed=seed)
        assert abs(rep.mean - exact_mean) <= 4 * rep.std_error
        assert abs(rep.second_moment - exact_m2) <= 4 * rep.second_moment_std_error
    _report("10 monte-carlo", started, 60.0)
