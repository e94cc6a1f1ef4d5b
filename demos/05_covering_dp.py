"""Why nothing beats tracing a Hamiltonian cycle
================================================

Over ALL processes compatible with a graph (not just Markov chains), the
cost of visiting everything is bounded below by paying the number of
still-unvisited vertices at every step.  The covering dynamic program over
(vertex, unvisited-set) states computes the exact optimum; a Hamiltonian
trace pays N-1, N-2, ..., 1 and meets the bound.
"""

import numpy as np

from fastchain import (
    continuous_value_function,
    discrete_value_function,
    extract_policy_path,
    optimal_budget_search,
)
from fastchain.graph import DirectedGraph, complete_graph, gray_code_cycle, hypercube_graph, segment_graph

k4 = complete_graph(4)
table = discrete_value_function(k4)
print("complete graph on 4 vertices:")
print("  optimal cover cost from 0:", table.start_value(0), "= 4*3/2")
print("  optimal trajectory:", extract_policy_path(table, 0))
print("  cost when the start itself must be revisited:",
      table.full_visit_value(0), "= 4*5/2")

# The segment has no Hamiltonian cycle: starting from the middle vertex the
# bound 3 is unreachable and the DP pays for a revisit.
seg = segment_graph(2)
table = discrete_value_function(seg)
print("\nsegment: cost from an end:", table.start_value(0),
      "  from the middle:", table.start_value(1))
print("middle trajectory revisits:", extract_policy_path(table, 1))

# Password search on the 3-cube: no adaptive scheme beats walking the Gray
# code, which the DP policy rediscovers.
cube = hypercube_graph(3)
table = discrete_value_function(cube)
path = extract_policy_path(table, 0)
print("\n3-cube optimal cost:", table.start_value(0), "= 8*7/2")
print("DP walk   :", path)
print("Gray cycle:", list(gray_code_cycle(3).vertices))

# Continuous time changes nothing at unit rate budgets,
cont = continuous_value_function(cube, np.ones(8))
print("\ncontinuous value at unit budgets:", cont.start_value(0))

# and distributing the total rate budget any other way only hurts: the
# expected covering time is sum of 1/a_i over visits, minimized at all ones.
tri = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
res = optimal_budget_search(tri)
print("best budgets on the 3-cycle:", np.round(res.best_budgets, 4),
      " value:", res.best_value)
