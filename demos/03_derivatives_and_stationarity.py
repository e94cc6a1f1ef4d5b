"""Exact derivatives of the speed functional
============================================

Moving a generator toward a cycle generator changes F at a rate computable
in closed form: D_A F(L) = F(L) - H_A(L), where H_A averages the
perturbation kernel h over the arcs of A.  Second derivatives are exact
too.  No finite differencing is needed, but we do it here anyway to watch
the formulas work.
"""

from fastchain import (
    Cycle,
    Generator,
    ProbabilityVector,
    cycle_generator,
    directional_derivative,
    enumerate_simple_cycles,
    hitting_kernel,
    inverse_speed,
    second_directional,
    stationarity_check,
)
from fastchain.graph import complete_graph


def f_of(rates, pi):
    return hitting_kernel(Generator(rates), pi).f


pi = ProbabilityVector.uniform(4)
L = cycle_generator(pi, Cycle([0, 1, 2, 3]))
kern = hitting_kernel(L, pi)
f = inverse_speed(L, pi)
print("F at the Hamiltonian tour:", f)

# Pushing toward a shorter cycle can only slow the tour down, with margin
# at least (N-1)/(2N):
for cyc in (Cycle([0, 1]), Cycle([0, 2]), Cycle([1, 3, 2])):
    d = directional_derivative(kern, cyc)
    print(f"D toward {cyc.vertices}: {d:+.4f} (H = {kern.h_cycle(cyc):.4f})")
print("guaranteed margin (N-1)/(2N) =", 3 / 8)

# Compare the exact derivative with a central difference along a mixture.
mix = 0.6 * L.rates + 0.4 * cycle_generator(pi, Cycle([0, 2, 1, 3])).rates
Lmix = Generator(mix)
kmix = hitting_kernel(Lmix, pi)
cyc = Cycle([0, 1, 2, 3])
eps = 1e-5
LA = cycle_generator(pi, cyc).rates
fd = (f_of((1 - eps) * mix + eps * LA, pi)
      - f_of((1 + eps) * mix - eps * LA, pi)) / (2 * eps)
print("\nexact  D =", directional_derivative(kmix, cyc))
print("central FD =", fd)

d2 = second_directional(kmix, cyc)
f0 = f_of(mix, pi)
fd2 = (f_of((1 - 1e-3) * mix + 1e-3 * LA, pi) - 2 * f0
       + f_of((1 + 1e-3) * mix - 1e-3 * LA, pi)) / 1e-6
print("exact  D2 =", d2)
print("second FD =", fd2)

# All derivative sizes are controlled by the largest hitting time.
print("\nM(L) =", kmix.m_bound, ">= F =", f_of(mix, pi))

# First-order conditions at a minimizer: every cycle below L has H = F and
# no cycle exceeds it.  The Hamiltonian tour is stationary; the mixture not.
cycles = enumerate_simple_cycles(complete_graph(4))
print("\nstationarity gap at the tour:",
      stationarity_check(L, pi, cycles).max_gap)
print("stationarity gap at the mixture:",
      stationarity_check(Lmix, pi, cycles).max_gap)
