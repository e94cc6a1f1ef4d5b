"""When Hamiltonian tours stop being optimal
============================================

Near the uniform measure, the fastest compatible chain on a Hamiltonian
graph is always a pure Hamiltonian tour.  Far from uniform the picture
breaks: concentrate the measure on a short cycle, hang the remaining
vertices off it with huge escape rates, and the resulting chain beats every
Hamiltonian tour rebuilt for that measure.  The minimizers then hesitate.
"""

import numpy as np

from fastchain import (
    Cycle,
    build_cycle_tree_generator,
    eigentime_spectral,
    find_counterexample,
    hamiltonian_speed_value,
    spectrum_split,
    theorem2_probe,
    triangle_leaf_graph,
)
from fastchain.graph import complete_graph

# Robustness first: jiggle the measure within L1 distance 0.01 of uniform
# and watch the minimizer stay a pure Hamiltonian tour, twenty times.
probe = theorem2_probe(complete_graph(3), perturbation_size=0.01, trials=20, seed=1)
print(f"near-uniform probe on K3: {probe.successes}/{probe.trials} pure tours,"
      f" worst vertex distance {probe.worst_distance:.2e}")

# Now the breakdown.  Triangle 0 -> 1 -> 2 -> 0 with a leaf 3 -> 0, plus the
# arc 2 -> 3 so a Hamiltonian cycle exists.
g = triangle_leaf_graph()
print("\ngraph arcs:", sorted(g.edges))

# The reducible skeleton: rate-1 triangle plus a rate-r escape from 3.
L_r = build_cycle_tree_generator(g, Cycle([0, 1, 2]), [(3, 0)], r=10.0)
print("skeleton rates:\n", L_r.rates)

# Its spectrum splits into the pure triangle part plus the eigenvalue r,
# once per tree vertex, so the extended speed is 1 + 1/r.
mult, err = spectrum_split(L_r, Cycle([0, 1, 2]), 10.0)
print("multiplicity of eigenvalue r:", mult, " pairing error:", err)
print("extended F:", eigentime_spectral(L_r), "= 1 + 1/10")

# Mix in a little of the whole graph to restore irreducibility and search
# the (r, eps) grid for a certified win over every Hamiltonian tour.
report = find_counterexample(g)
print(f"\nfound at r = {report.r}, eps = {report.eps}")
print("perturbed measure:", np.round(report.pi_r_eps.weights, 4),
      "(vertex 3 nearly starves)")
print("F of the slow-mass chain:", round(report.f_perturbed, 6))
print("F of every Hamiltonian tour:", round(report.hamiltonian_values[0], 6),
      "=", round(hamiltonian_speed_value(report.pi_r_eps), 6))
print("margin:", round(report.margin, 6))
