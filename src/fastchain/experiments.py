"""Cycle-plus-trees constructions, the slow-mass counterexample, and the
segment-graph closed forms.

For a graph that is Hamiltonian but not itself a Hamiltonian cycle, pick a
shorter admissible cycle and hang the remaining vertices off it as trees
with one outgoing arc each at rate r.  The resulting reducible generator
has the pure-cycle spectrum plus the eigenvalue r repeated once per tree
vertex, so its extended inverse speed is (n-1)/2 + m/r with m the observed
multiplicity.  Mixing in an epsilon of the unit-rate graph generator makes
it irreducible; for r large and epsilon small its speed beats every
Hamiltonian-cycle generator rebuilt for the perturbed invariant measure,
which concentrates near the short cycle.  That exhibits measures for which
no Hamiltonian generator is optimal.

The bidirected segment on three vertices is the smallest strongly connected
graph without a Hamiltonian cycle; its minimizers are known in closed form
and drive the optimizer acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from ._serialize import Report
from .eigentime import hamiltonian_speed_value, inverse_speed, spectrum
from .generator import (
    CycleDecomposition,
    Generator,
    ProbabilityVector,
    _CycleArcs,
    combine,
    cycle_generator,
    invariant_measure,
    normalize,
)
from .graph import (
    Cycle,
    DirectedGraph,
    enumerate_hamiltonian_cycles,
    enumerate_simple_cycles,
)
from .optimizer import frank_wolfe_minimize
from .rng import RandomStream

__all__ = [
    "InvalidTrees",
    "SearchExhausted",
    "NotLength3",
    "CounterexampleReport",
    "SegmentReport",
    "Theorem2ProbeReport",
    "build_cycle_tree_generator",
    "spectrum_split",
    "find_counterexample",
    "s2_closed_form",
    "theorem2_probe",
    "triangle_leaf_graph",
]


class InvalidTrees(ValueError):
    """Tree arcs must give each outside vertex exactly one way toward the cycle."""


class SearchExhausted(RuntimeError):
    """No (r, epsilon) grid point produced a certified counterexample."""


class NotLength3(ValueError):
    """Segment closed forms require a measure on exactly three vertices."""


def build_cycle_tree_generator(g: DirectedGraph, short_cycle: Cycle,
                               tree_edges, r: float) -> Generator:
    """Rate-1 cycle plus rate-r trees pointing into it; reducible on purpose.

    Every vertex off the cycle must have exactly one outgoing arc in
    ``tree_edges``, all arcs must belong to g, and following them must
    reach the cycle.  The unique invariant measure is uniform on the cycle,
    under which the off-diagonal flow sums to 1 (extended normalization).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if not short_cycle.is_admissible(g):
        raise ValueError("short cycle is not admissible for the graph")
    n = g.n
    on_cycle = set(short_cycle.vertices)
    outside = [v for v in range(n) if v not in on_cycle]
    tree = {}
    for i, j in tree_edges:
        if i in on_cycle:
            raise InvalidTrees(f"tree arc ({i},{j}) starts on the cycle")
        if (i, j) not in g.edges:
            raise InvalidTrees(f"tree arc ({i},{j}) is not an arc of the graph")
        if i in tree:
            raise InvalidTrees(f"vertex {i} has two outgoing tree arcs")
        tree[i] = j
    if set(tree) != set(outside):
        raise InvalidTrees("each vertex outside the cycle needs exactly one tree arc")
    for v in outside:
        seen = set()
        w = v
        while w not in on_cycle:
            if w in seen:
                raise InvalidTrees(f"tree walk from {v} loops without reaching the cycle")
            seen.add(w)
            w = tree[w]
    rates = np.zeros((n, n))
    for a, b in short_cycle.arcs():
        rates[a, b] = 1.0
        rates[a, a] = -1.0
    for i, j in tree.items():
        rates[i, j] = r
        rates[i, i] = -r
    return Generator(rates)


def spectrum_split(L_r: Generator, short_cycle: Cycle, r: float) -> tuple:
    """Check the eigenvalue split of a cycle-plus-trees generator.

    Returns (multiplicity, max_pairing_error): the number of eigenvalues of
    -L_r within 1e-6 max(1, |r|) of r left over after pairing the nonzero
    ones, nearest first, with the pure cycle spectrum 1 - exp(2 pi i k / n),
    and the worst match distance of that pairing.  Pairing comes first,
    since r may be an eigenvalue of the cycle too.
    """
    rem = list(spectrum(L_r).values)
    m = len(short_cycle)
    worst = 0.0
    for z in (1.0 - np.exp(2j * np.pi * k / m) for k in range(1, m)):
        dists = [abs(z - w) for w in rem]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        rem.pop(k)
    tol = 1e-6 * max(1.0, abs(r))
    return sum(abs(z - r) <= tol for z in rem), float(worst)


@dataclass(frozen=True)
class CounterexampleReport(Report):
    graph: DirectedGraph
    short_cycle: Cycle
    r: float
    eps: float
    pi_r_eps: ProbabilityVector
    f_perturbed: float
    hamiltonian_values: tuple
    margin: float
    r_multiplicity: int


def _default_trees(g: DirectedGraph, short_cycle: Cycle) -> list:
    """One outgoing arc per outside vertex, chosen along shortest routes to
    the cycle (smallest successor id breaks ties)."""
    on_cycle = set(short_cycle.vertices)
    dist = {v: 0 for v in on_cycle}
    frontier = list(on_cycle)
    pred = g.predecessor_lists()
    while frontier:
        nxt = []
        for v in frontier:
            for u in pred[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    arcs = []
    succ = g.successor_lists()
    for v in range(g.n):
        if v in on_cycle:
            continue
        choices = [w for w in succ[v] if dist.get(w, np.inf) == dist[v] - 1]
        arcs.append((v, choices[0]))
    return arcs


def unit_rate_generator(g: DirectedGraph) -> Generator:
    """Rate 1 on every arc of g."""
    rates = np.zeros((g.n, g.n))
    for i, j in g.edges:
        rates[i, j] = 1.0
    np.fill_diagonal(rates, -rates.sum(axis=1) + np.diag(rates))
    return Generator(rates)


def find_counterexample(g: DirectedGraph) -> CounterexampleReport:
    """Search the (r, eps) grid for a generator beating every Hamiltonian one.

    For each candidate, L = (L_r + eps L_g) / Z with Z fixing the unit
    equilibrium jump rate under the candidate's own invariant measure; the
    certificate is F(L) < F(L_H) for every admissible Hamiltonian cycle H,
    with the Hamiltonian values taken at the same perturbed measure.  The
    search compares against their common closed form; at the certified point
    each F(L_H) is computed from its own generator, and the report's values
    and margin are those: their spread is a measured agreement, not 0 by
    construction.  The grid is r = 10 .. 1e8 (outer loop) by eps = 0.1 ..
    1e-8, both by decades.

    Raises
    ------
    CycleBudgetExceeded
        From the one enumeration of g's simple cycles, which gives both the
        Hamiltonian (length n) and the shorter cycles.
    SearchExhausted
        When no grid point certifies; a probe failure, not a library error.
    """
    cycles = enumerate_simple_cycles(g)
    hams = [c for c in cycles if len(c) == g.n]
    if not hams:
        raise ValueError("graph has no Hamiltonian cycle; nothing to beat")
    shorter = [c for c in cycles if len(c) < g.n]
    if not shorter:
        raise ValueError("graph is a Hamiltonian cycle; its polytope is a point")
    short_cycle = min(shorter, key=lambda c: (len(c), c.vertices))
    trees = _default_trees(g, short_cycle)
    L_g = unit_rate_generator(g)

    for r in (10.0 ** k for k in range(1, 9)):
        L_r = build_cycle_tree_generator(g, short_cycle, trees, r)
        for eps in (10.0 ** -k for k in range(1, 9)):
            mixed = Generator(L_r.rates + eps * L_g.rates)
            pi = invariant_measure(mixed)
            L = normalize(mixed, pi)
            f_pert = inverse_speed(L, pi)
            if hamiltonian_speed_value(pi) > f_pert:
                ham_vals = tuple(inverse_speed(cycle_generator(pi, h), pi) for h in hams)
                mult, _ = spectrum_split(L_r, short_cycle, r)
                return CounterexampleReport(
                    graph=g,
                    short_cycle=short_cycle,
                    r=r,
                    eps=eps,
                    pi_r_eps=pi,
                    f_perturbed=f_pert,
                    hamiltonian_values=ham_vals,
                    margin=min(ham_vals) - f_pert,
                    r_multiplicity=mult,
                )
    raise SearchExhausted("no (r, eps) grid point beat the Hamiltonian values")


@dataclass(frozen=True)
class SegmentReport(Report):
    generator: Generator
    f_min: float
    weight_01: float


def s2_closed_form(pi: ProbabilityVector) -> SegmentReport:
    """Exact minimizer of F on the bidirected 3-vertex segment 0 - 1 - 2.

    With (x, y, z) the measure, the minimizer is the mixture
    p L_(0,1) + (1-p) L_(1,2) with

        p = sqrt(x(1-x)) / (sqrt(x(1-x)) + sqrt(z(1-z)))

    and minimal value 2 (sqrt(x(1-x)) + sqrt(z(1-z)))^2.  The formula is
    symmetric under swapping the endpoints, p <-> 1 - p, and the balanced
    case x = z gives p = 1/2 and 8 x (1-x).
    """
    if pi.n != 3:
        raise NotLength3(f"need exactly 3 vertices, got {pi.n}")
    x, _, z = (float(v) for v in pi.weights)
    sx = sqrt(x * (1.0 - x))
    sz = sqrt(z * (1.0 - z))
    weight_01 = sx / (sx + sz)
    decomp = CycleDecomposition([(Cycle([0, 1]), weight_01),
                                 (Cycle([1, 2]), 1.0 - weight_01)])
    return SegmentReport(
        generator=combine(decomp, pi),
        f_min=2.0 * (sx + sz) ** 2,
        weight_01=weight_01,
    )


@dataclass(frozen=True)
class Theorem2ProbeReport(Report):
    trials: int
    successes: int
    success_fraction: float
    worst_distance: float


def sample_near_uniform(n: int, l1_size: float, stream: RandomStream) -> ProbabilityVector:
    """A positive measure within L1 distance ``l1_size`` of uniform."""
    delta = stream.uniform(n) - 0.5
    delta -= delta.mean()
    norm = np.abs(delta).sum()
    if norm > 0:
        delta *= l1_size * float(stream.uniform(1)[0]) / norm
    w = 1.0 / n + delta
    return ProbabilityVector(w / w.sum())


def theorem2_probe(g: DirectedGraph, perturbation_size: float, trials: int,
                   seed: int) -> Theorem2ProbeReport:
    """How often the minimizer stays a pure Hamiltonian-cycle generator
    when the measure is jiggled around uniform.

    Each trial draws a measure within L1 distance ``perturbation_size`` of
    uniform, minimizes F over the polytope of g, and counts success when
    the minimizer matches some admissible Hamiltonian-cycle generator
    entrywise within 1e-8.  It lists the Hamiltonian cycles first, so past
    ``graph.CYCLE_BUDGET`` it raises ``CycleBudgetExceeded`` at 0 trials too.
    """
    if not 0 <= perturbation_size <= 0.05:
        raise ValueError("probe is meant for small perturbations (0 to 0.05), "
                         f"got {perturbation_size!r}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    hams = enumerate_hamiltonian_cycles(g)
    if not hams:
        raise ValueError("graph must be Hamiltonian")
    arcs = _CycleArcs(hams)
    stream = RandomStream(seed)
    successes = 0
    worst = 0.0
    for t in range(trials):
        pi = sample_near_uniform(g.n, perturbation_size, stream.spawn(t))
        report = frank_wolfe_minimize(g, pi, seed=seed + t, extra_starts=2)
        d = float(np.abs(report.minimizer.rates - arcs.rates(pi.weights)).max(axis=(1, 2)).min())
        worst = max(worst, d)
        if d <= 1e-8:
            successes += 1
    return Theorem2ProbeReport(
        trials=trials,
        successes=successes,
        success_fraction=successes / trials if trials else 0.0,
        worst_distance=worst,
    )


def triangle_leaf_graph() -> DirectedGraph:
    """Directed triangle 0 -> 1 -> 2 -> 0 with a leaf 3 -> 0, completed by
    2 -> 3 so the graph is Hamiltonian without being a Hamiltonian cycle."""
    return DirectedGraph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (2, 3)])
