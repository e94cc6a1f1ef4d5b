"""How fast does a Markov chain commute between its own samples?
================================================================

The inverse communication speed F(L) of an irreducible generator L with
invariant measure pi is the expected time to travel from x to y when both
are drawn independently from pi.  Small F means the chain moves quickly
between the places it actually visits.
"""

import numpy as np

from fastchain import (
    Cycle,
    Generator,
    ProbabilityVector,
    cycle_generator,
    eigentime_spectral,
    hitting_kernel,
    hitting_report,
    inverse_speed,
    simulate_hitting,
    spectral_second_identity,
    spectrum,
)

# A deterministic tour of three states: jump 0 -> 1 -> 2 -> 0 at rate 1.
pi = ProbabilityVector.uniform(3)
tour = cycle_generator(pi, Cycle([0, 1, 2]))
print("rates of the cyclic tour:\n", tour.rates)

# Hitting times are just the forward distances along the cycle.
print("\nE_x[tau_y]:\n", hitting_kernel(tour, pi).E)
print("F =", inverse_speed(tour, pi), " (= (N-1)/2 for a Hamiltonian tour)")

# The same number from the other side of the eigentime identity:
# the sum of reciprocal nonzero eigenvalues of -L.
print("eigenvalues of -L:", np.round(spectrum(tour).values, 6))
print("sum of 1/lambda  =", eigentime_spectral(tour))

# The symmetric random walk on the same triangle is slower: it hesitates.
walk = Generator(0.5 * np.array([[-2.0, 1, 1], [1, -2, 1], [1, 1, -2]]))
print("\nsymmetric walk F =", inverse_speed(walk, pi), " (= 4/3 > 1)")

# The Kemeny vector (pi-average over targets) is constant in the start:
print("Kemeny times:", hitting_kernel(walk, pi).kemeny)

# Second moments and the perturbation kernel come from one more chained
# Poisson solve; the full bundle with a second spectral identity:
rep = hitting_report(walk, pi)
lhs, rhs = spectral_second_identity(walk, pi)
print("E tau^2:\n", rep.second_moments)
print("sum pi pi h =", lhs, " vs sum 1/lambda^2 =", rhs)

# Monte Carlo agrees with the solves (seeded, bit-reproducible).
sim = simulate_hitting(walk, 0, 1, 200_000, seed=7)
print(f"\nsimulated E_0[tau_1] = {sim.mean:.4f} +- {sim.std_error:.4f} (exact 2)")
print(f"simulated E_0[tau_1^2] = {sim.second_moment:.4f} (exact 8)")
