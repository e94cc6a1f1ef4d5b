import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastchain.discrete_time import (
    IdentityKernel,
    Kernel,
    compare_wedges,
    discrete_eigentime_spectral,
    frak_f,
    hunter_trace,
    to_generator,
    to_kernel,
)
from fastchain.eigentime import hitting_kernel, inverse_speed, spectrum
from fastchain.generator import (
    Generator,
    NotIrreducible,
    ProbabilityVector,
    ZeroGenerator,
    invariant_measure,
)
from fastchain.graph import complete_graph
from fastchain.rng import RandomStream

from conftest import match_multisets, random_member, random_pi


def first_step_hitting_times(K: Kernel) -> np.ndarray:
    """E_x[tau_y] by first-step analysis, one anchored solve per column."""
    n = K.n
    E = np.zeros((n, n))
    for y in range(n):
        keep = [i for i in range(n) if i != y]
        A = np.eye(n - 1) - K.entries[np.ix_(keep, keep)]
        E[keep, y] = np.linalg.solve(A, np.ones(n - 1))
    return E


def perm3():
    return Kernel(np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]]))


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        Kernel(np.array([[1.5, -0.5], [0.5, 0.5]]))


def test_kernel_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        Kernel(np.array([[np.nan, np.nan], [0.5, 0.5]]))


def test_permutation_kernel_values(pi3):
    K = perm3()
    E = hitting_kernel(K.clock, pi3).E
    assert_allclose(E, [[0, 1, 2], [2, 0, 1], [1, 2, 0]], atol=1e-13)
    assert abs(frak_f(K, pi3) - 1.0) <= 1e-12
    assert abs(discrete_eigentime_spectral(K) - 1.0) <= 1e-10
    assert abs(hunter_trace(K, pi3) - 2.0) <= 1e-12


def test_discrete_hitting_times_match_first_step_oracle():
    stream = RandomStream(410)
    for t in range(20):
        s = stream.spawn(t)
        n = 3 + t % 5
        pi = random_pi(s, n)
        L, _, _ = random_member(complete_graph(n), pi, s)
        K, _ = to_kernel(L)
        lazy = Kernel(0.5 * K.entries + 0.5 * np.eye(n))
        for kern in (K, lazy):
            want = first_step_hitting_times(kern)
            got = hitting_kernel(kern.clock, pi).E
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_two_state_kernel():
    K = Kernel(np.array([[0.0, 1], [1, 0]]))
    pi = ProbabilityVector.uniform(2)
    assert abs(frak_f(K, pi) - 0.5) <= 1e-13
    assert abs(hunter_trace(K, pi) - 1.5) <= 1e-13


def test_lazy_mixture_slowdown(pi3):
    base = perm3()
    for alpha in (0.25, 0.5, 0.8):
        lazy = Kernel((1 - alpha) * base.entries + alpha * np.eye(3))
        assert abs(frak_f(base, pi3) - (1 - alpha) * frak_f(lazy, pi3)) <= 1e-10


def test_hunter_on_lazy_kernel(pi3):
    lazy = Kernel(0.75 * np.eye(3) + 0.25 * perm3().entries)
    assert abs(hunter_trace(lazy, pi3) - (1.0 + frak_f(lazy, pi3))) <= 1e-10


def random_kernel(s: RandomStream, n: int) -> tuple:
    """(K, pi): the fastest kernel of a random pi-invariant generator on K_n."""
    pi = random_pi(s, n)
    L, _, _ = random_member(complete_graph(n), pi, s)
    return to_kernel(L)[0], pi


def test_frak_f_of_slow_kernels_scales_exactly():
    """frak_f((1 - a) I + a P) = frak_f(P) / a to within eps / a relative,
    the rounding of the lazy kernel's diagonal.  An inverse of
    I + 1 q^T - K with uniform q, which reads pi off its own columns, misses
    this by up to 1.8 eps / a on these kernels."""
    eps = np.finfo(float).eps
    stream = RandomStream(620)
    for t in range(60):
        s = stream.spawn(t)
        n = 3 + t % 6
        P, pi = random_kernel(s, n)
        base = frak_f(P, pi)
        for a in (1e-2, 1e-4, 1e-6):
            slow = Kernel((1 - a) * np.eye(n) + a * P.entries)
            assert abs(a * frak_f(slow, pi) - base) <= eps / a * base, (t, a)


def test_hunter_trace_is_the_trace_of_hunters_inverse():
    """The clock generator's Pi - L is I - K + Pi bit for bit, so the trace
    is exactly the one of the direct formula."""
    stream = RandomStream(621)
    for t in range(30):
        s = stream.spawn(t)
        n = 2 + t % 7
        K, pi = random_kernel(s, n)
        for kern in (K, Kernel(0.5 * K.entries + 0.5 * np.eye(n))):
            direct = np.eye(n) - kern.entries + np.tile(pi.weights, (n, 1))
            assert hunter_trace(kern, pi) == np.trace(np.linalg.inv(direct))


def two_disjoint_2_cycles() -> Kernel:
    swap = np.array([[0.0, 1], [1, 0]])
    return Kernel(np.kron(np.eye(2), swap))


def test_hunter_trace_rejects_reducible_kernel():
    with pytest.raises(NotIrreducible):
        hunter_trace(two_disjoint_2_cycles(), ProbabilityVector.uniform(4))


def test_to_kernel_examples(pi3, uniform_cycle3):
    K, l = to_kernel(uniform_cycle3)
    assert l == 1.0
    assert_allclose(K.entries, perm3().entries, atol=1e-15)
    K2, l2 = to_kernel(Generator(2.0 * uniform_cycle3.rates))
    assert l2 == 2.0
    assert_allclose(K2.entries, K.entries, atol=1e-15)
    assert np.min(np.diag(K.entries)) <= 1e-15  # image has a zero diagonal entry


def test_to_kernel_rejects_generator_without_motion():
    """A zero maximal exit rate used to divide by -0.0 into a NaN kernel."""
    with pytest.raises(ZeroGenerator):
        to_kernel(Generator([[0.0]]))


def test_to_generator_examples(pi3, uniform_cycle3):
    L, k = to_generator(perm3(), pi3)
    assert k == 1.0
    assert_allclose(L.rates, uniform_cycle3.rates, atol=1e-15)
    lazy = Kernel(0.5 * np.eye(3) + 0.5 * perm3().entries)
    L2, k2 = to_generator(lazy, pi3)
    assert k2 == 2.0
    assert_allclose(L2.rates, perm3().entries - np.eye(3), atol=1e-15)
    with pytest.raises(IdentityKernel):
        to_generator(Kernel(np.eye(3)), pi3)


def test_bridge_relations_random():
    """value(K) = l F(L) and F(L) = value(K) / k, plus the round trip and
    the spectral multiset correspondence Theta = 1 - Lambda / l."""
    stream = RandomStream(600)
    for t in range(100):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L, _, _ = random_member(complete_graph(n), pi, s)
        K, l = to_kernel(L)
        assert abs(frak_f(K, pi) - l * inverse_speed(L, pi)) <= 1e-8
        back, k = to_generator(K, pi)
        assert abs(k - l) <= 1e-10
        assert np.abs(back.rates - L.rates).max() <= 1e-12
        theta = [1.0 - lam / l for lam in spectrum(L).values]
        kvals = np.linalg.eigvals(K.entries)
        kvals = sorted(kvals, key=lambda z: abs(z - 1.0))[1:]
        assert match_multisets(theta, kvals, tol=1e-7)


def test_discrete_eigentime_identity_random():
    stream = RandomStream(601)
    for t in range(40):
        s = stream.spawn(t)
        n = 3 + t % 4
        pi = random_pi(s, n)
        L, _, _ = random_member(complete_graph(n), pi, s)
        K, _ = to_kernel(L)
        # mix in laziness for kernels with all diagonals positive
        alpha = 0.3 * float(s.uniform(1)[0])
        K = Kernel((1 - alpha) * K.entries + alpha * np.eye(n))
        assert abs(frak_f(K, pi) - discrete_eigentime_spectral(K)) <= 1e-8
        assert abs(hunter_trace(K, pi) - (1.0 + frak_f(K, pi))) <= 1e-8
        assert_allclose(invariant_measure(to_generator(K, pi)[0]).weights,
                        pi.weights, atol=1e-9)


def test_compare_wedges_hamiltonian_equality(pi3):
    comp = compare_wedges(complete_graph(3), pi3, seed=5)
    assert abs(comp.f_wedge - 1.0) <= 1e-8
    assert abs(comp.frak_f_wedge - 1.0) <= 1e-8
    assert comp.gap >= -1e-8


def test_compare_wedges_segment(pi3, s2):
    comp = compare_wedges(s2, pi3, seed=5)
    assert abs(comp.f_wedge - 16.0 / 9.0) <= 1e-6
    # maxrate is 3/2 across the segment polytope, so the discrete side is
    # exactly 3/2 times the continuous optimum
    assert abs(comp.frak_f_wedge - 8.0 / 3.0) <= 1e-6
    assert comp.gap >= -1e-8


def test_match_multisets():
    assert match_multisets([1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j])
    assert not match_multisets([1 + 1j], [1 - 1j])
    assert not match_multisets([1.0], [1.0, 2.0])
