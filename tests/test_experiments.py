import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastchain.eigentime import eigentime_spectral, hamiltonian_speed_value, inverse_speed
from fastchain.experiments import (
    InvalidTrees,
    NotLength3,
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
    segment_graph,
)
from fastchain.optimizer import brute_force_minimize, stationarity_check
from fastchain.graph import enumerate_simple_cycles
from fastchain.rng import RandomStream

from conftest import random_pi


def test_build_cycle_tree_generator_shape():
    g = triangle_leaf_graph()
    L = build_cycle_tree_generator(g, Cycle([0, 1, 2]), [(3, 0)], 10.0)
    assert_allclose(L.rates[3], [10.0, 0.0, 0.0, -10.0])
    assert_allclose(L.rates[0], [-1.0, 1.0, 0.0, 0.0])
    # extended normalization against the uniform-on-cycle measure
    pi_cycle = np.array([1 / 3, 1 / 3, 1 / 3, 0.0])
    off = L.rates - np.diag(np.diag(L.rates))
    assert abs(float(pi_cycle @ off.sum(axis=1)) - 1.0) <= 1e-12
    # invariant measure concentrates on the cycle
    evals = np.linalg.eigvals(-L.rates.T)
    assert np.min(np.abs(evals)) <= 1e-10


def test_build_cycle_tree_generator_validation():
    g = triangle_leaf_graph()
    with pytest.raises(InvalidTrees):
        build_cycle_tree_generator(g, Cycle([0, 1, 2]), [], 10.0)
    with pytest.raises(InvalidTrees):
        build_cycle_tree_generator(g, Cycle([0, 1, 2]), [(3, 1)], 10.0)


def test_extended_f_values():
    g = triangle_leaf_graph()
    for r, expect in ((10.0, 1.1), (100.0, 1.01), (1e4, 1.0001)):
        L = build_cycle_tree_generator(g, Cycle([0, 1, 2]), [(3, 0)], r)
        assert abs(eigentime_spectral(L) - expect) <= 1e-9
    # large-r limit approaches the pure short-cycle value (n-1)/2 = 1
    L = build_cycle_tree_generator(g, Cycle([0, 1, 2]), [(3, 0)], 1e8)
    assert abs(eigentime_spectral(L) - 1.0) <= 1e-7


def test_spectrum_split_multiplicity():
    g = triangle_leaf_graph()
    L = build_cycle_tree_generator(g, Cycle([0, 1, 2]), [(3, 0)], 10.0)
    mult, err = spectrum_split(L, Cycle([0, 1, 2]), 10.0)
    assert mult == 1  # one tree vertex, one copy of the eigenvalue r
    assert err <= 1e-6


def test_spectrum_split_when_r_is_an_eigenvalue_of_the_cycle():
    """The 4-cycle's spectrum 1 - i^k holds 2, so at r = 2 the leaf's
    eigenvalue is a second copy of it: the pairing takes the cycle's copy
    and the multiplicity counts the leaf's alone."""
    g = DirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 0)])
    L = build_cycle_tree_generator(g, Cycle([0, 1, 2, 3]), [(4, 0)], 2.0)
    mult, err = spectrum_split(L, Cycle([0, 1, 2, 3]), 2.0)
    assert mult == 1
    assert err <= 1e-6


def test_find_counterexample_triangle_leaf():
    report = find_counterexample(triangle_leaf_graph())
    assert report.margin > 0
    assert report.r_multiplicity == 1
    assert report.f_perturbed < min(report.hamiltonian_values)
    # Hamiltonian values are the closed form at the perturbed measure
    expect = hamiltonian_speed_value(report.pi_r_eps)
    assert_allclose(report.hamiltonian_values, expect, atol=1e-12)
    # the measure gives very small weight to the tree vertex
    assert report.pi_r_eps.weights[3] < 0.05
    assert report.short_cycle.vertices == (0, 1, 2)


def test_find_counterexample_reports_each_hamiltonian_f():
    """The reported values are F of each Hamiltonian generator at the
    certified measure, not the closed form repeated once per cycle, so their
    spread is a check that can fail."""
    g = complete_graph(4)
    report = find_counterexample(g)
    assert (report.r, report.eps) == (10.0, 0.1)
    hams = enumerate_hamiltonian_cycles(g)
    assert len(hams) == 6
    pi = report.pi_r_eps
    assert list(report.hamiltonian_values) == [
        inverse_speed(cycle_generator(pi, h), pi) for h in hams]
    assert report.margin == min(report.hamiltonian_values) - report.f_perturbed


def test_find_counterexample_convergence_to_reducible_value():
    g = triangle_leaf_graph()
    L_r = build_cycle_tree_generator(g, Cycle([0, 1, 2]), [(3, 0)], 10.0)
    target = eigentime_spectral(L_r)
    from fastchain.experiments import unit_rate_generator

    L_g = unit_rate_generator(g)
    prev = None
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        mixed = Generator(L_r.rates + eps * L_g.rates)
        pi = invariant_measure(mixed)
        z = float(pi.weights @ mixed.exit_rates())
        f = inverse_speed(Generator(mixed.rates / z), pi)
        gap = abs(f - target)
        if prev is not None:
            assert gap <= prev + 1e-12
        prev = gap
    assert prev <= 1e-3


def test_find_counterexample_rejects_pure_cycle():
    tri = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        find_counterexample(tri)


def test_s2_closed_form_uniform(pi3):
    rep = s2_closed_form(pi3)
    assert abs(rep.f_min - 16.0 / 9.0) <= 1e-15
    assert_allclose(rep.generator.rates[1], [0.75, -1.5, 0.75], atol=1e-15)
    assert abs(rep.weight_01 - 0.5) <= 1e-15


def test_s2_closed_form_degenerate_nonuniform():
    rep = s2_closed_form(ProbabilityVector([0.4, 0.2, 0.4]))
    assert abs(rep.f_min - 1.92) <= 1e-15


def test_s2_closed_form_generic():
    rep = s2_closed_form(ProbabilityVector([0.2, 0.3, 0.5]))
    assert abs(rep.f_min - 1.62) <= 1e-12
    assert abs(rep.weight_01 - 4.0 / 9.0) <= 1e-12


def test_s2_closed_form_relabeling():
    rep = s2_closed_form(ProbabilityVector([0.5, 0.3, 0.2]))
    assert abs(rep.f_min - 1.62) <= 1e-12
    assert abs(rep.weight_01 - 5.0 / 9.0) <= 1e-12
    pi = ProbabilityVector([0.5, 0.3, 0.2])
    assert abs(inverse_speed(rep.generator, pi) - rep.f_min) <= 1e-10


def test_s2_closed_form_validation():
    with pytest.raises(NotLength3):
        s2_closed_form(ProbabilityVector([0.5, 0.5]))


def test_s2_closed_form_is_stationary_and_matches_grid(pi3, s2):
    cycles = enumerate_simple_cycles(s2)
    for pi in (pi3, ProbabilityVector([0.2, 0.3, 0.5]), ProbabilityVector([0.15, 0.6, 0.25])):
        rep = s2_closed_form(pi)
        assert abs(inverse_speed(rep.generator, pi) - rep.f_min) <= 1e-10
        station = stationarity_check(rep.generator, pi, cycles)
        assert station.max_gap <= 1e-8
        bf = brute_force_minimize(s2, pi, 400)
        assert abs(bf.f_min - rep.f_min) <= 1e-4


def test_s2_closed_form_is_mirror_symmetric_and_stationary(s2):
    """Swapping the endpoints swaps the two cycle weights and keeps f_min:
    one formula serves every measure, the balanced ones (x = z, one in
    four here) included, and each minimizer passes the stationarity check
    with the bounds of the grid test above."""
    cycles = enumerate_simple_cycles(s2)
    stream = RandomStream(300)
    for k in range(400):
        w = random_pi(stream.spawn(k), 3, spread=0.9).weights
        if k % 4 == 0:
            t = 0.5 * (w[0] + w[2])
            w = np.array([t, 1.0 - 2.0 * t, t])
        pi, mirror = ProbabilityVector(w), ProbabilityVector(w[::-1])
        rep, rev = s2_closed_form(pi), s2_closed_form(mirror)
        assert abs(rep.weight_01 + rev.weight_01 - 1.0) <= 4.4e-16
        assert rep.f_min == rev.f_min
        for r, p in ((rep, pi), (rev, mirror)):
            station = stationarity_check(r.generator, p, cycles)
            assert station.max_gap <= 1e-8
            assert abs(station.f - r.f_min) <= 1e-10


def test_s2_generic_degenerate_boundary():
    base = s2_closed_form(ProbabilityVector([0.4, 0.2, 0.4])).f_min
    near = s2_closed_form(ProbabilityVector([0.4 + 1e-4, 0.2, 0.4 - 1e-4])).f_min
    assert abs(near - base) <= 1e-3


def test_theorem2_probe_small(pi3):
    rep = theorem2_probe(complete_graph(3), 0.01, 5, seed=77)
    assert rep.success_fraction == 1.0
    rep = theorem2_probe(complete_graph(3), 0.0, 3, seed=78)
    assert rep.success_fraction == 1.0  # exact uniform measure
    with pytest.raises(ValueError):
        theorem2_probe(segment_graph(2), 0.01, 3, seed=79)
