from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fastchain.eigentime import (
    SpectrumAmbiguous,
    eigentime_spectral,
    hamiltonian_speed_value,
    hitting_kernel,
    hitting_report,
    inverse_speed,
    simulate_hitting,
    spectral_second_identity,
    spectrum,
)
from fastchain.generator import Generator, ProbabilityVector, _CycleArcs, cycle_generator
from fastchain.graph import Cycle, complete_graph
from fastchain.rng import RandomStream

from conftest import (
    anchored_moments,
    integers,
    psi_solve,
    random_ham_digraph,
    random_member,
    random_pi,
    shuffled,
    simulate_hitting_oracle,
)


def h3(r):
    # perturbation kernel of the uniform 3-cycle as a function of forward distance
    return 0.5 * (r * r - r)


def test_hitting_times_cycle(uniform_cycle3, pi3):
    E = hitting_kernel(uniform_cycle3, pi3).E
    expect = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert_allclose(E, expect, atol=1e-13)


def test_hitting_times_random_walk(random_walk3, pi3):
    E = hitting_kernel(random_walk3, pi3).E
    assert_allclose(E, 2.0 * (1 - np.eye(3)), atol=1e-13)


def test_inverse_speed_values(uniform_cycle3, random_walk3, pi3):
    assert abs(inverse_speed(uniform_cycle3, pi3) - 1.0) <= 1e-13
    assert abs(inverse_speed(random_walk3, pi3) - 4.0 / 3.0) <= 1e-13
    pi = ProbabilityVector([0.5, 0.25, 0.25])
    L = cycle_generator(pi, Cycle([0, 1, 2]))
    assert abs(inverse_speed(L, pi) - 15.0 / 16.0) <= 1e-13
    assert abs(hamiltonian_speed_value(pi) - 15.0 / 16.0) <= 1e-15


def test_spectrum_values(uniform_cycle3, random_walk3):
    vals = sorted(spectrum(uniform_cycle3).values, key=lambda z: z.imag)
    assert_allclose([vals[0].real, vals[0].imag], [1.5, -np.sqrt(3) / 2], atol=1e-12)
    assert_allclose([vals[1].real, vals[1].imag], [1.5, np.sqrt(3) / 2], atol=1e-12)
    assert_allclose(sorted(z.real for z in spectrum(random_walk3).values), [1.5, 1.5],
                    atol=1e-12)


def test_spectrum_scaling(random_walk3):
    doubled = sorted(z.real for z in spectrum(Generator(2 * random_walk3.rates)).values)
    assert_allclose(doubled, [3.0, 3.0], atol=1e-12)


def test_spectrum_ambiguous_when_nearly_reducible(pi3):
    L01 = cycle_generator(pi3, Cycle([0, 1])).rates
    L12 = cycle_generator(pi3, Cycle([1, 2])).rates
    with pytest.raises(SpectrumAmbiguous):
        spectrum(Generator((1 - 1e-12) * L01 + 1e-12 * L12))


def test_eigentime_spectral_examples(uniform_cycle3, random_walk3):
    assert abs(eigentime_spectral(uniform_cycle3) - 1.0) <= 1e-12
    assert abs(eigentime_spectral(random_walk3) - 4.0 / 3.0) <= 1e-12


def test_second_moment_cycle(uniform_cycle3, pi3):
    M2 = hitting_kernel(uniform_cycle3, pi3).second_moments
    rho = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]], dtype=float)
    assert_allclose(M2, rho ** 2 + rho, atol=1e-12)  # sums of unit exponentials


def test_second_moment_random_walk(random_walk3, pi3):
    # frozen from the jump-chain decomposition: tau is a Geometric(1/2) sum of
    # unit exponentials, so E tau^2 = Var + (E tau)^2 = 4 + 4
    M2 = hitting_kernel(random_walk3, pi3).second_moments
    assert_allclose(M2, 8.0 * (1 - np.eye(3)), atol=1e-12)


def test_h_matrix_cycle_formula(uniform_cycle3, pi3):
    H = hitting_kernel(uniform_cycle3, pi3).h
    rho = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]], dtype=float)
    assert_allclose(H, h3(rho.T), atol=1e-12)
    assert H[0, 1] == pytest.approx(1.0)  # forward distance from 1 back to 0 is 2
    assert_allclose(np.diag(H), 0.0, atol=1e-13)


def test_kernel_forms_h_on_first_read(random_walk3, pi3):
    """F, E, Z, the Kemeny vector and M(L) come from the one inverse alone;
    W = Z E is formed on the first read of h, second_moments or h_mean."""
    kern = hitting_kernel(random_walk3, pi3)
    kern.f, kern.E, kern.Z, kern.kemeny, kern.m_bound
    psi_solve(kern, Cycle([0, 1]), 1)
    lazy = {"h", "second_moments", "h_mean"}
    assert not lazy & set(vars(kern))
    M2 = kern.second_moments
    assert "h" in vars(kern)
    assert kern.second_moments is M2 and kern.h is kern.report().h_matrix


def test_spectral_second_identity_examples(uniform_cycle3, random_walk3, pi3):
    lhs, rhs = spectral_second_identity(uniform_cycle3, pi3)
    assert abs(lhs - 1.0 / 3.0) <= 1e-12  # frozen: sum of 1/lambda^2 over the pair
    assert abs(lhs - rhs) <= 1e-10
    lhs, rhs = spectral_second_identity(random_walk3, pi3)
    assert abs(lhs - 8.0 / 9.0) <= 1e-12
    assert abs(lhs - rhs) <= 1e-10


def test_spectral_second_scaling(random_walk3, pi3):
    lhs, _ = spectral_second_identity(random_walk3, pi3)
    lhs2, rhs2 = spectral_second_identity(Generator(2 * random_walk3.rates), pi3)
    assert abs(lhs2 - lhs / 4.0) <= 1e-12
    assert abs(lhs2 - rhs2) <= 1e-10


def test_random_suite_identities():
    """Eigentime, second spectral identity, Kemeny constancy, h against the
    anchored oracle."""
    stream = RandomStream(200)
    for t in range(60):
        s = stream.spawn(t)
        n = 3 + t % 6
        pi = random_pi(s, n)
        L, _, _ = random_member(complete_graph(n), pi, s)
        f = inverse_speed(L, pi)
        assert abs(f - eigentime_spectral(L)) <= 1e-8
        lhs, rhs = spectral_second_identity(L, pi)
        assert abs(lhs - rhs) <= 1e-8
        kem = hitting_kernel(L, pi).kemeny
        assert kem.max() - kem.min() <= 1e-9
        H_ref = anchored_moments(L.rates, pi.weights)[2]
        assert np.abs(hitting_kernel(L, pi).h - H_ref).max() <= 1e-8


def random_cycle_mixture(n: int, seed: int):
    """A Hamiltonian tour plus n random cycles (random length and vertex
    order) under a random pi, mixed with weights log-uniform over three
    decades."""
    s = RandomStream(seed)
    pi = random_pi(s, n)
    cycles = [Cycle(shuffled(s, list(range(n))))]
    for _ in range(n):
        verts = shuffled(s, list(range(n)))
        cycles.append(Cycle(verts[:2 + int(s.uniform(1)[0] * (n - 1))]))
    w = 10.0 ** (-3.0 * s.uniform(len(cycles)))
    w = w / w.sum()
    rates = sum(wi * cycle_generator(pi, c).rates for wi, c in zip(w, cycles))
    return Generator(rates), pi


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3, 40), st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_anchored_oracle(n, seed):
    """E, M2, h, F and the Kemeny vector from one inverse of Pi - L agree
    with the per-column anchored solves at 1e-8 relative."""
    L, pi = random_cycle_mixture(n, seed)
    kern = hitting_kernel(L, pi)
    p = pi.weights
    E, M2, H = anchored_moments(L.rates, p)
    for got, want in ((kern.E, E), (kern.second_moments, M2), (kern.h, H)):
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
    f = float(p @ E @ p)
    assert abs(kern.f - f) <= 1e-8 * f
    assert np.abs(kern.kemeny - E @ p).max() <= 1e-8 * f
    assert abs(kern.h_mean - float(p @ H @ p)) <= 1e-8 * abs(float(p @ H @ p))
    assert kern.m_bound == kern.E.max()


@dataclass(frozen=True)
class ReturnTimeReport:
    """Start-averaged hitting / return times to one target, with the
    spectral sums they are classically equated to."""

    hitting_avg: float
    spectral_sum: float
    return_avg: float
    spectral_sum_plus_one: float


def return_time_identities(L: Generator, pi: ProbabilityVector, y: int) -> ReturnTimeReport:
    """Start-averaged hitting and return times to y against spectral sums.

    ``hitting_avg`` is sum_x pi(x) E_x[tau_y]; ``return_avg`` replaces the
    x = y term by the mean return time E_y[T_y], computed by one-step
    conditioning (mean holding time 1/L(y) plus the jump-averaged hitting
    time back to y).

    By the Kac formula pi(y) E_y[T_y] = 1/L(y), so return_avg - hitting_avg
    = 1/L(y) exactly, and the classical "+1" shift of the spectral sum can
    only hold at vertices with unit exit rate; both sides are reported
    rather than asserted.  The identities that do hold unconditionally are
    the target-averaged (Kemeny) ones, see :attr:`HittingKernel.kemeny`.
    """
    E = hitting_kernel(L, pi).E
    s = spectrum(L).sum_reciprocals(1)
    hitting_avg = float(pi.weights @ E[:, y])
    rate_y = -L.rates[y, y]
    jump = L.rates[y, :].copy()
    jump[y] = 0.0
    ret = 1.0 / rate_y + float(jump @ E[:, y]) / rate_y
    return ReturnTimeReport(
        hitting_avg=hitting_avg,
        spectral_sum=s,
        return_avg=hitting_avg + pi.weights[y] * ret,
        spectral_sum_plus_one=1.0 + s,
    )


def test_return_time_identities_cycle(uniform_cycle3, pi3):
    for y in range(3):
        r = return_time_identities(uniform_cycle3, pi3, y)
        assert abs(r.hitting_avg - 1.0) <= 1e-12
        assert abs(r.hitting_avg - r.spectral_sum) <= 1e-10
        assert abs(r.return_avg - 2.0) <= 1e-12
        assert abs(r.return_avg - r.spectral_sum_plus_one) <= 1e-10


def test_return_time_identities_unit_diagonal_family():
    # exit rates identically 1: the +1 return-time shift is exact
    stream = RandomStream(201)
    for t in range(20):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L = cycle_generator(ProbabilityVector.uniform(n), Cycle(shuffled(s, list(range(n)))))
        piu = ProbabilityVector.uniform(n)
        for y in range(n):
            r = return_time_identities(L, piu, y)
            assert abs(r.hitting_avg - r.spectral_sum) <= 1e-9
            assert abs(r.return_avg - r.spectral_sum_plus_one) <= 1e-9


def test_return_time_kac_correction():
    """For general exit rates the x = y return term contributes exactly
    1/L(y); the "+1" spectral shift holds only at unit exit rate.  The
    y-independent identities are the target-averaged (Kemeny) ones."""
    stream = RandomStream(202)
    for t in range(20):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L, _, _ = random_member(complete_graph(n), pi, s)
        spectral = eigentime_spectral(L)
        kem = hitting_kernel(L, pi).kemeny
        assert abs(kem[0] - spectral) <= 1e-9
        for y in range(n):
            r = return_time_identities(L, pi, y)
            assert abs((r.return_avg - r.hitting_avg) - 1.0 / (-L.rates[y, y])) <= 1e-9
            assert abs(r.spectral_sum - spectral) <= 1e-12


def test_simulate_hitting_trivial(uniform_cycle3):
    rep = simulate_hitting(uniform_cycle3, 1, 1, 100, seed=0)
    assert rep.mean == 0.0 and rep.second_moment == 0.0


def test_simulate_hitting_deterministic(uniform_cycle3):
    a = simulate_hitting(uniform_cycle3, 0, 2, 2000, seed=9)
    b = simulate_hitting(uniform_cycle3, 0, 2, 2000, seed=9)
    assert a == b
    c = simulate_hitting(uniform_cycle3, 0, 2, 2000, seed=10)
    assert c.mean != a.mean


@pytest.mark.parametrize("x, y", [(-1, 0), (0, 3), (0, -1), (1.0, 2), (0, True)])
def test_simulate_hitting_states_must_be_in_range(monkeypatch, uniform_cycle3, x, y):
    """A target outside 0..2 is never hit, a negative start would read the
    last state and a float or bool would be read as an int, so all raise
    before the first draw.  The draw is patched to fail, so a simulation
    that would never end fails here instead."""
    def no_draw(self, n):
        raise AssertionError("drew before checking the states")

    monkeypatch.setattr(RandomStream, "uniform", no_draw)
    with pytest.raises(ValueError):
        simulate_hitting(uniform_cycle3, x, y, 5, 1)


def _dense_rates(n, seed):
    """Irreducible generator with every off-diagonal rate in [0.05, 1.05)."""
    R = RandomStream(seed).uniform(n * n).reshape(n, n) ** 2 + 0.05
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


@pytest.mark.parametrize("n, x, y, samples, seed, want", [
    (5, 0, 3, 300, 11, ("0x1.2766b63ab6e89p+1", "0x1.3269ee4f7ddccp+3",
                        "0x1.e84d0b8dcefe5p-4", "0x1.0491285852fc7p+0")),
    (6, 2, 5, 257, 12, ("0x1.a9d801b0d2b17p+1", "0x1.8737faa1d1c3fp+4",
                        "0x1.d441e51cc3ad0p-3", "0x1.df1f4378d9176p+1")),
    (7, 6, 0, 400, 13, ("0x1.7e85bdd792948p+1", "0x1.4a9ee30da7ebdp+4",
                        "0x1.5f318cb21e71ep-3", "0x1.33b16598764cfp+1")),
    (5, 4, 1, 1, 14, ("0x1.100c56e6868cdp-1", "0x1.211a394221079p-2", "0x0.0p+0", "0x0.0p+0")),
])
def test_simulate_hitting_is_pinned(n, x, y, samples, seed, want):
    """The exact reports of the stream's draw order: at each step, the
    holding times of the paths still running, then their jump uniforms,
    paths in index order.  On 5-7 states the paths stop at different steps,
    so a change of which draw feeds which path moves these bits."""
    L = Generator(_dense_rates(n, 230 + n))
    rep = simulate_hitting(L, x, y, samples, seed)
    got = (rep.mean, rep.second_moment, rep.std_error, rep.second_moment_std_error)
    assert got == tuple(float.fromhex(h) for h in want)
    assert rep.samples == samples


@pytest.mark.parametrize("x, y, samples, seed, want", [
    (0, 7, 1500, 15, ("0x1.cde56d2429a48p+2", "0x1.645c6ba9de789p+6",
                      "0x1.41c5dcb301793p-3", "0x1.123fddbd4c6a8p+2")),
    (3, 0, 2500, 16, ("0x1.effe7ab20ccc0p+2", "0x1.ac020543a3f36p+6",
                      "0x1.18afeb5cf4d09p-3", "0x1.0fc7ad1ebb832p+2")),
])
def test_simulate_hitting_is_pinned_on_a_sparse_mixture(x, y, samples, seed, want):
    """The same draw order on a mixture of 4 cycles on 8 states, 17 of the
    56 off-diagonal rates positive, so most columns of the jump law are
    plateaus.  1500 paths take 3000 of the first 4096 uniforms in their
    first step, so the next step reads across a block boundary; the first
    step of 2500 paths needs more than one block."""
    pi = ProbabilityVector(np.arange(1.0, 9.0) / 36.0)
    cycles = [Cycle([0, 1, 2, 3, 4, 5, 6, 7]), Cycle([0, 4, 2]), Cycle([5, 7, 3, 1]),
              Cycle([6, 2])]
    L = Generator(sum(w * cycle_generator(pi, c).rates
                      for w, c in zip((0.4, 0.3, 0.2, 0.1), cycles)))
    rep = simulate_hitting(L, x, y, samples, seed)
    got = (rep.mean, rep.second_moment, rep.std_error, rep.second_moment_std_error)
    assert got == tuple(float.fromhex(h) for h in want)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(3, 9), st.integers(0, 2 ** 32 - 1), st.integers(1, 3000))
def test_simulate_hitting_matches_the_full_scan(n, seed, samples):
    """Blocked draws and the breakpoint lookup give the bits of one draw per
    step and a count over every column, on sparse mixtures.  Every uniform
    below 0.05 is replaced by an exact 0.0, which the count sends to state
    0 whatever its probability; the replacement depends on the value only,
    so both routes see the same stream."""
    s = RandomStream(seed)
    pi = random_pi(s, n)
    L, _, _ = random_member(random_ham_digraph(n, s, extra=0.1), pi, s)
    x, y = (int(v) for v in integers(s, 2, n))
    uniform = RandomStream.uniform
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RandomStream, "uniform",
                   lambda self, k: np.where((u := uniform(self, k)) < 0.05, 0.0, u))
        rep = simulate_hitting(L, x, y, samples, seed)
        want = simulate_hitting_oracle(L, x, y, samples, seed) if x != y else (0.0, 0.0)
    assert (rep.mean, rep.second_moment) == want


def test_simulate_matches_analytic_small(uniform_cycle3, random_walk3, pi3):
    rep = simulate_hitting(uniform_cycle3, 0, 2, 200_000, seed=21)
    assert abs(rep.mean - 2.0) <= 4 * rep.std_error
    rep = simulate_hitting(random_walk3, 0, 1, 200_000, seed=22)
    assert abs(rep.mean - 2.0) <= 4 * rep.std_error
    assert abs(rep.second_moment - 8.0) <= 4 * rep.second_moment_std_error


def test_hitting_report_consistency(random_walk3, pi3):
    rep = hitting_report(random_walk3, pi3)
    assert_allclose(np.diag(rep.expectations), 0.0, atol=1e-14)
    assert_allclose(np.diag(rep.second_moments), 0.0, atol=1e-14)
    f = float(pi3.weights @ rep.expectations @ pi3.weights)
    assert abs(rep.f_value - f) <= 1e-10
    assert abs(rep.kemeny - 4.0 / 3.0) <= 1e-12
    js = rep.to_json()
    assert set(js) == {"expectations", "second_moments", "kemeny", "f_value", "h_matrix"}


def test_hamiltonian_value_random():
    stream = RandomStream(203)
    for t in range(30):
        s = stream.spawn(t)
        n = 3 + t % 6
        pi = random_pi(s, n)
        cyc = Cycle(shuffled(s, list(range(n))))
        L = cycle_generator(pi, cyc)
        assert abs(inverse_speed(L, pi) - hamiltonian_speed_value(pi)) <= 1e-10


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_grouped_cycle_means_are_each_cycles_own_mean(n, count, seed):
    """One gather per cycle length and a row-wise mean give each cycle's own
    ``mean()`` over its arcs bit for bit, in the order the cycles were given.
    Lengths reach 12, past the 8 terms from which numpy's sum goes pairwise.
    ``np.add.reduceat`` over the concatenated arcs is not used for H_A: its
    segment sums round differently from ``mean`` in the last bit."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, n))
    cycles = [Cycle(rng.permutation(n)[:rng.integers(2, n + 1)]) for _ in range(count)]
    want = [M[v, np.roll(v, -1)].mean() for v in map(np.asarray, (c.vertices for c in cycles))]
    assert np.array_equal(_CycleArcs(cycles).means(M), want)
