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

# the public surface is each library module's __all__, listed once there
from .derivatives import *
from .discrete_time import *
from .dp import *
from .eigentime import *
from .experiments import *
from .generator import *
from .graph import *
from .optimizer import *
from .rng import *
