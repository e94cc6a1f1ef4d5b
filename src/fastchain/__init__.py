"""Inverse communication speed of finite Markov chains.

The speed of an irreducible chain with invariant measure pi is measured by
the expected travel time between two independent pi-samples; this package
computes that functional and its hitting-time, spectral, and second-moment
relatives, differentiates it exactly along cycle directions, minimizes it
over the polytope of graph-compatible normalized generators, certifies
Hamiltonian-cycle optimality through an exact covering dynamic program, and
bridges the discrete- and continuous-time formulations.
"""

__version__ = "0.1.0"

from .derivatives import (
    DerivativeReport,
    DirectionInvalid,
    derivative_reports,
    directional_derivative,
    h_cross,
    psi_solve,
    second_directional,
)
from .discrete_time import (
    IdentityKernel,
    Kernel,
    compare_wedges,
    discrete_eigentime_spectral,
    frak_f,
    hunter_trace,
    to_generator,
    to_kernel,
)
from .dp import (
    BudgetInvalid,
    StateSpaceTooLarge,
    ValueTable,
    continuous_value_function,
    discrete_value_function,
    extract_policy_path,
    optimal_budget_search,
)
from .eigentime import (
    HittingKernel,
    HittingReport,
    IdentityViolation,
    Spectrum,
    SpectrumAmbiguous,
    eigentime_spectral,
    hamiltonian_speed_value,
    hitting_kernel,
    hitting_report,
    inverse_speed,
    return_time_identities,
    simulate_hitting,
    spectral_second_identity,
    spectrum,
)
from .experiments import (
    CounterexampleReport,
    InvalidTrees,
    SearchExhausted,
    build_cycle_tree_generator,
    find_counterexample,
    s2_closed_form,
    spectrum_split,
    theorem2_probe,
    triangle_leaf_graph,
)
from .generator import (
    CycleDecomposition,
    Generator,
    NotInvariant,
    NotIrreducible,
    NotNormalized,
    ProbabilityVector,
    ZeroGenerator,
    combine,
    cycle_generator,
    decompose_into_cycles,
    invariant_measure,
    is_compatible,
    normalize,
)
from .graph import (
    Cycle,
    CycleBudgetExceeded,
    DirectedGraph,
    complete_graph,
    enumerate_hamiltonian_cycles,
    enumerate_simple_cycles,
    gray_code_cycle,
    hypercube_graph,
    is_strongly_connected,
    segment_graph,
)
from .optimizer import (
    Certificate,
    EpsilonNeighborhood,
    OptimizeReport,
    StationarityReport,
    TooManyCycles,
    brute_force_minimize,
    epsilon_neighborhood,
    f_wedge,
    frank_wolfe_minimize,
    stationarity_check,
)
from .rng import RandomStream
