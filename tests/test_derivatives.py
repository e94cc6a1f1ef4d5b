import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastchain.derivatives as derivatives
from fastchain.derivatives import (
    _mean_psi_cross,
    derivative_reports,
    directional_derivative,
    second_directional,
)
from fastchain.eigentime import IdentityViolation, hitting_kernel, inverse_speed
from fastchain.generator import (
    Generator,
    ProbabilityVector,
    _CycleArcs,
    combine,
    cycle_generator,
    decompose_into_cycles,
)
from fastchain.graph import Cycle, complete_graph, enumerate_simple_cycles
from fastchain.rng import RandomStream

import conftest
from conftest import (
    anchored_mean_psi_cross,
    derivative_reports_oracle,
    f_reference,
    h_cross,
    mixed_second_directional,
    psi_solve,
    random_ham_digraph,
    random_member,
    random_pi,
    shuffled,
)


def central_fd(L, pi, cycle, eps=1e-5):
    LA = cycle_generator(pi, cycle).rates
    up = f_reference((1 - eps) * L.rates + eps * LA, pi)
    down = f_reference((1 + eps) * L.rates - eps * LA, pi)
    return (up - down) / (2 * eps)


def second_fd(L, pi, cycle, eps=1e-3):
    LA = cycle_generator(pi, cycle).rates
    f0 = f_reference(L.rates, pi)
    up = f_reference((1 - eps) * L.rates + eps * LA, pi)
    down = f_reference((1 + eps) * L.rates - eps * LA, pi)
    return (up - 2 * f0 + down) / eps ** 2


def test_psi_anchoring_and_closed_form(pi3, uniform_cycle3):
    psi = psi_solve(hitting_kernel(uniform_cycle3, pi3), Cycle([0, 1]), 1)
    assert psi[1] == 0.0


def test_psi_average_reproduces_h_cycle():
    stream = RandomStream(300)
    for t in range(10):
        s = stream.spawn(t)
        n = 3 + t % 3
        pi = random_pi(s, n)
        L, cycles, _ = random_member(complete_graph(n), pi, s)
        cyc = cycles[int(s.uniform(1)[0] * len(cycles))]
        kern = hitting_kernel(L, pi)
        total = sum(pi.weights[y] * float(pi.weights @ psi_solve(kern, cyc, y))
                    for y in range(n))
        assert abs(total - kern.h_cycle(cyc)) <= 1e-10


def test_h_cycle_uniform_cycle_values(uniform_cycle3, pi3):
    assert abs(hitting_kernel(uniform_cycle3, pi3).h_cycle(Cycle([0, 1, 2])) - 1.0) <= 1e-12
    assert abs(hitting_kernel(uniform_cycle3, pi3).h_cycle(Cycle([0, 1])) - 0.5) <= 1e-12


def test_h_cycle_hamiltonian_is_half_n_minus_1():
    for n in (3, 4, 5, 6):
        pi = ProbabilityVector.uniform(n)
        A = Cycle(list(range(n)))
        L = cycle_generator(pi, A)
        assert abs(hitting_kernel(L, pi).h_cycle(A) - (n - 1) / 2) <= 1e-10


def test_directional_derivative_examples(uniform_cycle3, pi3):
    # moving along the generator's own cycle changes nothing
    kern = hitting_kernel(uniform_cycle3, pi3)
    assert abs(directional_derivative(kern, Cycle([0, 1, 2]))) <= 1e-12
    d = directional_derivative(kern, Cycle([0, 1]))
    assert abs(d - 0.5) <= 1e-12
    assert d >= (3 - 1) / (2 * 3)


def test_directional_derivative_vs_finite_differences():
    stream = RandomStream(301)
    for t in range(50):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L, cycles, _ = random_member(complete_graph(n), pi, s)
        cyc = cycles[int(s.uniform(1)[0] * len(cycles))]
        assert abs(directional_derivative(hitting_kernel(L, pi), cyc)
                   - central_fd(L, pi, cyc)) <= 1e-6


def general_derivative(kern, direction: Generator) -> float:
    """Derivative of F at L along the segment toward any normalized
    pi-invariant generator: F - sum_{x != y} pi(x) L_dir(x, y) h(x, y)."""
    off = direction.rates.copy()
    np.fill_diagonal(off, 0.0)
    return kern.f - float(np.sum(kern.pi.weights[:, None] * off * kern.h))


def test_directional_derivative_general_direction_matches_decomposition():
    stream = RandomStream(302)
    for t in range(10):
        s = stream.spawn(t)
        pi = random_pi(s, 4)
        L, cycles, _ = random_member(complete_graph(4), pi, s)
        direction, _, _ = random_member(complete_graph(4), pi, s.spawn(1))
        kern = hitting_kernel(L, pi)
        d_mat = general_derivative(kern, direction)
        dec = decompose_into_cycles(direction, pi)
        d_sum = sum(w * directional_derivative(kern, c) for c, w in dec.terms)
        assert abs(d_mat - d_sum) <= 1e-9
        d_dec = general_derivative(kern, combine(dec, pi))
        assert abs(d_mat - d_dec) <= 1e-9


def test_second_directional_vs_finite_differences():
    stream = RandomStream(303)
    for t in range(30):
        s = stream.spawn(t)
        n = 3 + t % 3
        pi = random_pi(s, n)
        L, cycles, _ = random_member(complete_graph(n), pi, s)
        cyc = cycles[int(s.uniform(1)[0] * len(cycles))]
        analytic = second_directional(hitting_kernel(L, pi), cyc)
        fd = second_fd(L, pi, cyc)
        assert abs(analytic - fd) <= 1e-3 * max(1.0, abs(fd))


def test_second_directional_mixed_symmetric_and_matches_fd():
    stream = RandomStream(304)
    for t in range(10):
        s = stream.spawn(t)
        n = 3 + t % 3
        pi = random_pi(s, n)
        L, cycles, _ = random_member(complete_graph(n), pi, s)
        ca = cycles[int(s.uniform(1)[0] * len(cycles))]
        cb = cycles[int(s.uniform(1)[0] * len(cycles))]
        kern = hitting_kernel(L, pi)
        d_ab = mixed_second_directional(kern, ca, cb)
        d_ba = mixed_second_directional(kern, cb, ca)
        assert abs(d_ab - d_ba) <= 1e-9
        eps = 1e-3
        Wa = cycle_generator(pi, ca).rates - L.rates
        Wb = cycle_generator(pi, cb).rates - L.rates
        fd = (f_reference(L.rates + eps * (Wa + Wb), pi)
              - f_reference(L.rates + eps * (Wa - Wb), pi)
              - f_reference(L.rates - eps * (Wa - Wb), pi)
              + f_reference(L.rates - eps * (Wa + Wb), pi)) / (4 * eps * eps)
        assert abs(d_ab - fd) <= 1e-3 * max(1.0, abs(fd))


def test_m_bound_examples(uniform_cycle3, pi3):
    assert abs(hitting_kernel(uniform_cycle3, pi3).m_bound - 2.0) <= 1e-12
    doubled = Generator(2 * uniform_cycle3.rates)
    assert abs(hitting_kernel(doubled, pi3).m_bound - 1.0) <= 1e-12


def test_m_bound_dominates_f():
    stream = RandomStream(305)
    for t in range(20):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L, _, _ = random_member(complete_graph(n), pi, s)
        m = hitting_kernel(L, pi).m_bound
        f = inverse_speed(L, pi)
        assert f <= m + 1e-12
        assert m <= f / pi.pi_min ** 2 + 1e-9


def test_derivative_bounds_random_triples():
    """|D| <= M + M^2 and |D^2| <= 2(M + M^2 + M^3) on random instances."""
    stream = RandomStream(306)
    for t in range(100):
        s = stream.spawn(t)
        n = 3 + t % 3
        pi = random_pi(s, n)
        L, cycles, _ = random_member(complete_graph(n), pi, s)
        ca = cycles[int(s.uniform(1)[0] * len(cycles))]
        cb = cycles[int(s.uniform(1)[0] * len(cycles))]
        kern = hitting_kernel(L, pi)
        m = kern.m_bound
        assert abs(directional_derivative(kern, ca)) <= m + m * m + 1e-9
        d2 = mixed_second_directional(kern, ca, cb)
        assert abs(d2) <= 2 * (m + m ** 2 + m ** 3) + 1e-9


def test_hamiltonian_ascent_margin_small_n():
    """Every other cycle direction ascends from a Hamiltonian generator at
    uniform measure, with margin at least (n-1)/(2n)."""
    for n in (3, 4, 5):
        pi = ProbabilityVector.uniform(n)
        A = Cycle(list(range(n)))
        L = cycle_generator(pi, A)
        f = inverse_speed(L, pi)
        kern = hitting_kernel(L, pi)
        for c in enumerate_simple_cycles(complete_graph(n)):
            if c == A:
                continue
            assert f - kern.h_cycle(c) >= (n - 1) / (2 * n) - 1e-10


def test_derivative_reports_of_one_cycle(uniform_cycle3, pi3):
    rep, = derivative_reports(hitting_kernel(uniform_cycle3, pi3), [Cycle([0, 1])], with_second=True)
    assert abs(rep.first - (rep.f_value - rep.h_cycle)) <= 1e-12
    assert abs(rep.first) <= rep.m_bound + rep.m_bound ** 2
    assert rep.second is not None


def test_h_cross_equals_direct_solves():
    """h_cross(kern, A, B), assembled from h and E over the arcs, against
    the route its docstring names: sum_y pi(y) pi[Psi_y] with L psi = L_A phi_y
    and L Psi = L_B psi_y, each solved by numpy with the solution pinned at
    y.  Random pairs on K3-K5, A = B included.  Swapping A and B
    moves the value by at least 1.9% on the distinct pairs, so the test
    sees the order of the chain."""
    stream = RandomStream(307)
    for t in range(9):
        s = stream.spawn(t)
        n = 3 + t % 3
        pi = random_pi(s, n)
        L, cycles, _ = random_member(complete_graph(n), pi, s)
        kern = hitting_kernel(L, pi)
        picks = (s.uniform(6) * len(cycles)).astype(int)
        pairs = [(cycles[i], cycles[j]) for i, j in zip(picks[::2], picks[1::2])]
        for ca, cb in pairs + [(cycles[-1], cycles[-1])]:
            ra, rb = cycle_generator(pi, ca).rates, cycle_generator(pi, cb).rates
            want = anchored_mean_psi_cross(L.rates, pi.weights, ra, rb)
            assert abs(h_cross(kern, ca, cb) - want) <= 1e-10 * abs(want)


def test_chained_term_direct_route_matches_double_solve_oracle():
    """-sum_y pi(y) (Z L_B Z L_A E)[y, y] against 2n anchored solves."""
    stream = RandomStream(308)
    for t in range(20):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L, cycles, _ = random_member(complete_graph(n), pi, s)
        ca = cycles[int(s.uniform(1)[0] * len(cycles))]
        cb = cycles[int(s.uniform(1)[0] * len(cycles))]
        ra, rb = cycle_generator(pi, ca).rates, cycle_generator(pi, cb).rates
        want = anchored_mean_psi_cross(L.rates, pi.weights, ra, rb)
        kern = hitting_kernel(L, pi)
        got = _mean_psi_cross(kern, ra, rb)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        assert abs(h_cross(kern, ca, cb) - want) <= 1e-8 * max(1.0, abs(want))


def stiff_path(n, weight):
    """Bidirected path on n vertices, uniform pi, the middle 2-cycle at
    relative weight ``weight``: a slow bottleneck with F of order 1/weight."""
    pi = ProbabilityVector.uniform(n)
    cycles = [Cycle([i, i + 1]) for i in range(n - 1)]
    w = np.ones(n - 1)
    w[(n - 1) // 2] = weight
    w /= w.sum()
    L = Generator(sum(wi * cycle_generator(pi, c).rates for wi, c in zip(w, cycles)))
    return L, pi, cycles


@pytest.mark.parametrize("n, weight", [(10, 1e-4), (20, 1e-5)])
def test_cross_checks_pass_on_stiff_chains(n, weight):
    """The two routes to psi and to the chained term differ only by rounding
    on a slow bottleneck (F = 4.0e4 at n = 10), so neither check raises."""
    L, pi, cycles = stiff_path(n, weight)
    kern = hitting_kernel(L, pi)
    assert kern.f > 1e4
    for c in cycles:
        for y in range(n):
            psi_solve(kern, c, y)
        for d in cycles:
            mixed_second_directional(kern, c, d)


@pytest.mark.parametrize("rel", [1e-6, 1e-8])
def test_cross_checks_catch_relative_error_on_stiff_chain(monkeypatch, rel):
    """A small relative error planted in the closed-form route of either
    check still raises on the stiff chain, where the allowance is widest:
    in psi, in the stacked assembly of H_{A,A} and in the two-cycle
    assembly of H_{B,A} (the 3-cycle through the bottleneck gives a term of
    1.7e14 against an allowance of 1.1e3)."""
    L, pi, cycles = stiff_path(10, 1e-4)
    middle, across = cycles[4], Cycle([3, 4, 5])
    kern = hitting_kernel(L, pi)
    psi_closed = conftest._psi_closed_form
    self_cross, h_assembled = derivatives._self_cross, conftest.h_cross
    monkeypatch.setattr(conftest, "_psi_closed_form",
                        lambda *args: psi_closed(*args) * (1 + rel))
    with pytest.raises(IdentityViolation):
        psi_solve(kern, middle, 0)
    monkeypatch.setattr(conftest, "_psi_closed_form", psi_closed)
    second_directional(kern, middle)
    mixed_second_directional(kern, middle, across)
    monkeypatch.setattr(derivatives, "_self_cross",
                        lambda *args: self_cross(*args) * (1 + rel))
    with pytest.raises(IdentityViolation, match="chained term mismatch"):
        second_directional(kern, middle)
    monkeypatch.setattr(derivatives, "_self_cross", self_cross)
    monkeypatch.setattr(conftest, "h_cross",
                        lambda *args: h_assembled(*args) * (1 + rel))
    with pytest.raises(IdentityViolation, match="chained term mismatch"):
        mixed_second_directional(kern, middle, across)


def report_fields(reports) -> list:
    return [(r.f_value, r.h_cycle, r.first, r.second, r.m_bound) for r in reports]


def shuffled_member(n: int, seed: int):
    """A random mixture of all simple cycles of a random Hamiltonian digraph
    on n vertices, its kernel and its cycles in shuffled order, so that the
    lengths are mixed along the list."""
    s = RandomStream(seed)
    pi = random_pi(s, n)
    L, cycles, _ = random_member(random_ham_digraph(n, s, extra=0.3), pi, s)
    return hitting_kernel(L, pi), shuffled(s, list(cycles))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3, 9), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_derivative_reports_match_the_per_cycle_route(n, seed, with_second):
    """The stacked pass gives every cycle the bits of the per-cycle route:
    the mean of h over its arcs and the 2-D chained product over its arc-loop
    rates.  Cycle lengths 2..n are mixed along the list."""
    kern, cycles = shuffled_member(n, seed)
    got = derivative_reports(kern, cycles, with_second=with_second)
    assert report_fields(got) == derivative_reports_oracle(kern, cycles, with_second)
    assert [derivative_reports(kern, [c], with_second)[0] for c in cycles[:3]] == got[:3]
    if with_second:
        assert [second_directional(kern, c) for c in cycles[:3]] == [r.second for r in got[:3]]


def test_derivative_reports_of_no_cycles(uniform_cycle3, pi3):
    assert derivative_reports(hitting_kernel(uniform_cycle3, pi3), [], with_second=True) == []


def test_derivative_reports_blocks_do_not_move_bits(monkeypatch):
    """Blocks of 3 cycles, so the last one is partial, give the bits of one
    block over all cycles."""
    kern, cycles = shuffled_member(7, 5)
    assert len(cycles) > 2 * 3
    whole = derivative_reports(kern, cycles, with_second=True)
    monkeypatch.setattr(derivatives, "CYCLE_BLOCK", 3)
    assert derivative_reports(kern, cycles, with_second=True) == whole


def test_derivative_reports_check_every_chained_term(monkeypatch):
    """A relative error of 1e-6 planted in the stacked assembly of a single
    cycle raises from the pass, naming that cycle's solved term: the first
    cycle, a middle one and the last one, alone in the partial last block of
    14 cycles in blocks of 3.  Without second derivatives nothing is
    assembled."""
    kern, cycles = shuffled_member(6, 1)
    assert len(cycles) == 14
    monkeypatch.setattr(derivatives, "CYCLE_BLOCK", 3)
    self_cross = derivatives._self_cross
    for target in (0, 7, 13):
        sizes = []

        def planted(kern, arcs):
            out = self_cross(kern, arcs)
            start = sum(sizes)
            sizes.append(arcs.m)
            if start <= target < start + arcs.m:
                out[target - start] *= 1 + 1e-6
            return out

        monkeypatch.setattr(derivatives, "_self_cross", planted)
        derivative_reports(kern, cycles, with_second=False)
        assert sizes == []
        rates = cycle_generator(kern.pi, cycles[target]).rates
        solved = float(_mean_psi_cross(kern, rates, rates))
        with pytest.raises(IdentityViolation, match=re.escape(f"vs solved {solved!r}") + "$"):
            derivative_reports(kern, cycles, with_second=True)
        assert sizes == [3] * (target // 3) + [3 if target < 12 else 2]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 9), st.integers(0, 2 ** 32 - 1))
def test_stacked_assembly_matches_h_cross(n, seed):
    """Each stacked arc-sum agrees with h_cross(kern, A, A) up to the
    summation order: within 4 eps times the sum of the absolute terms, a
    bound that does not involve the check's own allowance.  Random mixtures
    with shuffled cycles, so the length groups mix along the list."""
    kern, cycles = shuffled_member(n, seed)
    got = derivatives._self_cross(kern, _CycleArcs(cycles))
    eps = np.finfo(float).eps
    for c, value in zip(cycles, got.tolist()):
        a = np.asarray(c.vertices)
        b, a1 = a[:, None], np.roll(a, -1)
        b1 = a1[:, None]
        terms = (kern.h[b, a1] - kern.h[b, a]) * (kern.E[b1, a] - kern.E[b, a])
        bound = 4 * eps * float(np.abs(terms).sum()) / len(c) ** 2
        assert abs(value - h_cross(kern, c, c)) <= bound
