"""Shared instances and samplers for the test suite.

Random suites are drawn from the package's own deterministic stream so
every run sees the same instances; its integers and shuffles are built
here on the stream's uniforms.  Polytope members are sampled as cycle
mixtures, which spans the full feasible set (mixtures of the extreme
points) and guarantees pi-invariance by construction.

The anchored oracles solve one reduced linear system per column, a route
independent of the fundamental-matrix kernel the package uses.  The
covering-DP oracles fill the (vertex, unvisited-set) table mask by mask,
with a heap-based Dijkstra per popcount level or with Bellman sweeps over
the whole state space, routes independent of the package's
level-vectorized relaxations.  Strong connectivity and Hamiltonian paths
and cycles are found by plain depth-first search, independent of the
package's transitive closure and cycle enumeration.  The first-order
profile psi is solved from the fundamental matrix and held to its closed
form over the hitting-time matrix.  The chained term H_{B,A} of two
cycles, its arc-sum assembly ``h_cross`` and the mixed second derivative
along two cycles are the per-entry oracles of a stacked Hessian; the
package computes the one-cycle case only.
"""

import heapq
import math

import numpy as np
import pytest

from fastchain._serialize import WHOLE_BELOW, _escape, _render_floats
from fastchain.derivatives import (
    _arc_sums,
    _check_chained,
    _mean_psi_cross,
    _rounding_tol,
    second_directional,
)
from fastchain.eigentime import HittingKernel, IdentityViolation, hitting_kernel
from fastchain.generator import Generator, ProbabilityVector, _CycleArcs, cycle_generator
from fastchain.graph import Cycle, DirectedGraph, enumerate_simple_cycles, segment_graph
from fastchain.rng import RandomStream


@pytest.fixture
def pi3():
    return ProbabilityVector.uniform(3)


@pytest.fixture
def uniform_cycle3(pi3):
    """Generator tracing 0 -> 1 -> 2 -> 0 at rate 1; F = 1, M = 2."""
    return cycle_generator(pi3, Cycle([0, 1, 2]))


@pytest.fixture
def random_walk3():
    """Symmetric walk on the 3-cycle; F = 4/3, offdiagonal hitting times 2."""
    return Generator(0.5 * np.array([[-2.0, 1, 1], [1, -2, 1], [1, 1, -2]]))


@pytest.fixture
def s2():
    return segment_graph(2)


def integers(stream: RandomStream, n: int, bound: int) -> np.ndarray:
    """n integers uniform on {0, ..., bound-1} (by 53-bit rejection-free scaling)."""
    return np.minimum((stream.uniform(n) * bound).astype(np.int64), bound - 1)


def shuffled(stream: RandomStream, items: list) -> list:
    """Fisher-Yates shuffle of a copy of ``items``."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(integers(stream, 1, i + 1)[0])
        out[i], out[j] = out[j], out[i]
    return out


def random_pi(stream: RandomStream, n: int, spread: float = 0.6) -> ProbabilityVector:
    """Positive measure bounded away from zero (entries >= (1-spread)/n)."""
    w = spread * stream.simplex(n) + (1.0 - spread) / n
    return ProbabilityVector(w / w.sum())


def cycle_rates_oracle(p: np.ndarray, cycle: Cycle) -> np.ndarray:
    """Rates of the unit-speed cycle generator by a loop over the arcs:
    1 / (len * p(a)) at (a, b) and its negative at (a, a)."""
    n = len(p)
    rates = np.zeros((n, n))
    m = len(cycle)
    for a, b in cycle.arcs():
        rate = 1.0 / (m * float(p[a]))
        rates[a, b] = rate
        rates[a, a] = -rate
    return rates


def derivative_reports_oracle(kern, cycles, with_second: bool) -> list:
    """(f_value, h_cycle, first, second, m_bound) of each cycle by the
    per-cycle route ``derivatives.derivative_reports`` must reproduce bit for
    bit: H_A as the mean of h over the cycle's arcs, and the chained term
    -sum_y pi(y) (Z L_A Z L_A E)[y, y] as one 2-D product over the arc-loop
    rates of the cycle."""
    p, f = kern.pi.weights, kern.f
    out = []
    for c in cycles:
        v = list(c.vertices)
        h_a = float(kern.h[v, v[1:] + v[:1]].mean())
        second = None
        if with_second:
            R = cycle_rates_oracle(p, c)
            cross = -float(p @ np.diag(kern.Z @ R @ kern.Z @ R @ kern.E))
            second = 2.0 * f - 2.0 * h_a - 2.0 * h_a + cross + cross
        out.append((f, h_a, f - h_a, second, kern.m_bound))
    return out


def random_member(g: DirectedGraph, pi: ProbabilityVector, stream: RandomStream,
                  interior: float = 0.2):
    """Random normalized pi-invariant generator compatible with g, as a cycle
    mixture with every cycle kept slightly active (irreducible)."""
    cycles = enumerate_simple_cycles(g)
    w = stream.simplex(len(cycles))
    w = (1.0 - interior) * w + interior / len(cycles)
    w = w / w.sum()
    rates = sum(wi * R for wi, R in zip(w, _CycleArcs(cycles).rates(pi.weights)))
    return Generator(rates), cycles, w


def anchored_solve(rates: np.ndarray, rhs: np.ndarray, anchor: int) -> np.ndarray:
    """Solve L g = rhs with g(anchor) = 0 by dropping the anchor row and column."""
    n = rates.shape[0]
    keep = [i for i in range(n) if i != anchor]
    g = np.zeros(n)
    g[keep] = np.linalg.solve(rates[np.ix_(keep, keep)], rhs[keep])
    return g


def anchored_hitting_times(rates: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """E_x[tau_y], one anchored solve of L g = 1_y / pi(y) - 1 per column."""
    n = rates.shape[0]
    E = np.zeros((n, n))
    for y in range(n):
        f = np.full(n, -1.0)
        f[y] += 1.0 / pi[y]
        E[:, y] = anchored_solve(rates, f, y)
    return E


def anchored_moments(rates: np.ndarray, pi: np.ndarray) -> tuple:
    """(E, M2, h) by chained anchored solves: aux_y solves
    L aux = phi_y - pi[phi_y] with aux(y) = 0, M2[:, y] = 2 (pi[phi_y] phi_y - aux_y)
    and h[y, :] = -aux_y."""
    E = anchored_hitting_times(rates, pi)
    n = rates.shape[0]
    M2 = np.zeros((n, n))
    H = np.zeros((n, n))
    for y in range(n):
        phi = E[:, y]
        mean = float(pi @ phi)
        aux = anchored_solve(rates, phi - mean, y)
        M2[:, y] = 2.0 * (mean * phi - aux)
        H[y, :] = -aux
    return E, M2, H


def anchored_mean_psi_cross(rates: np.ndarray, pi: np.ndarray, rates_a: np.ndarray,
                            rates_b: np.ndarray) -> float:
    """sum_y pi(y) pi[Psi_y] by two chained anchored solves per y: psi_y solves
    L psi = L_A phi_y and Psi_y solves L Psi = L_B psi_y, both pinned at y."""
    E = anchored_hitting_times(rates, pi)
    total = 0.0
    for y in range(rates.shape[0]):
        psi = anchored_solve(rates, rates_a @ E[:, y], y)
        big_psi = anchored_solve(rates, rates_b @ psi, y)
        total += pi[y] * float(pi @ big_psi)
    return total


def psi_solve(kern: HittingKernel, cycle: Cycle, y: int) -> np.ndarray:
    """First-order response profile psi_y for a cycle direction.

    Solves L psi = L_A phi_y with psi(y) = 0, phi_y being the hitting-time
    column to y, as psi = g(y) - g with g = Z L_A phi_y.  The solution is
    always compared against the independent closed form

        psi_y(x) = (1/n) sum_l (phi_y(a_{l+1}) - phi_y(a_l))
                               (phi_{a_l}(x) - phi_{a_l}(y)),

    and an :class:`IdentityViolation` is raised when they disagree by more
    than the rounding allowance of a quantity of order M(L)^2 (see
    ``derivatives._rounding_tol``).  The fundamental-matrix value is returned.
    """
    arcs = _CycleArcs([cycle])
    g = kern.Z @ (arcs.rates(kern.pi.weights)[0] @ kern.E[:, y])
    psi = g[y] - g
    err = float(np.abs(psi - _psi_closed_form(kern.E, arcs, y)).max())
    if err > _rounding_tol(kern, 2):
        raise IdentityViolation(f"psi closed-form disagreement {err!r}")
    return psi


def _psi_closed_form(E: np.ndarray, arcs: _CycleArcs, y: int) -> np.ndarray:
    ((_, (a,), (a1,)),) = arcs.groups
    return (E[:, a] - E[y, a]) @ (E[a1, y] - E[a, y]) / len(a)


def h_cross(kern: HittingKernel, cycle_a: Cycle, cycle_b: Cycle) -> float:
    """Chained second-order term H_{B,A}(L) for cycle directions.

    Equals sum_y pi(y) pi[Psi_y] where Psi_y solves L Psi = L_B psi_y and
    psi_y is the first-order profile for direction A.  Assembled from the
    hitting-time and perturbation matrices, as the one-pair case of
    ``derivatives._arc_sums``:

        (1/(n_A n_B)) sum_{l,k} (h(b_k, a_{l+1}) - h(b_k, a_l))
                                (phi_{a_l}(b_{k+1}) - phi_{a_l}(b_k)).
    """
    ((_, a, a1),) = _CycleArcs([cycle_a]).groups
    ((_, b, b1),) = _CycleArcs([cycle_b]).groups
    return float(_arc_sums(kern, a, a1, b, b1)[0])


def mixed_second_directional(kern: HittingKernel, cycle_a: Cycle, cycle_b: Cycle) -> float:
    """Second derivative of F along two cycle directions: the symmetric
    bilinear Hessian at the pair of segment directions,
    2 F - 2 H_A - 2 H_B + H_{A,B} + H_{B,A}, which is
    ``derivatives.second_directional`` when the cycles coincide and matches
    mixed central finite differences.  The chained terms come from
    ``derivatives._mean_psi_cross``, and H_{B,A} is compared against its assembly
    :func:`h_cross` within ``derivatives._rounding_tol(kern, 3)``."""
    if cycle_b == cycle_a:
        return second_directional(kern, cycle_a)
    rates = _CycleArcs([cycle_a, cycle_b]).rates(kern.pi.weights)
    cross_ba, cross_ab = _mean_psi_cross(kern, rates, rates[::-1]).tolist()
    _check_chained(np.array([h_cross(kern, cycle_a, cycle_b)]), np.array([cross_ba]),
                   _rounding_tol(kern, 3))
    h_a, h_b = kern.h_cycle(cycle_a), kern.h_cycle(cycle_b)
    return 2.0 * kern.f - 2.0 * h_a - 2.0 * h_b + cross_ab + cross_ba


def f_reference(rates: np.ndarray, pi: ProbabilityVector) -> float:
    """F through the anchored-solve hitting matrix (finite-difference oracle
    path, independent of the package's fundamental-matrix kernel)."""
    E = anchored_hitting_times(rates, pi.weights)
    return float(pi.weights @ E @ pi.weights)


def closure_oracle(rates: np.ndarray) -> bool:
    """Strong connectivity of the positive off-diagonal support by boolean
    transitive closure, computed afresh on every call."""
    reach = rates > 0
    np.fill_diagonal(reach, True)
    for _ in range((rates.shape[0] - 1).bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def f_value_oracle(poly, w: np.ndarray) -> float:
    """F of a cycle mixture by the plain per-point route, which
    ``CyclePolytope.f_values`` must reproduce bit for bit: rates by
    ``tensordot`` over the arc-loop cycle rates, the closure above,
    ``tile(pi) - rates`` inverted, and ``pi E pi``."""
    p = poly.pi.weights
    mats = np.stack([cycle_rates_oracle(p, c) for c in poly.cycles])
    rates = np.tensordot(w, mats, axes=1)
    if not closure_oracle(rates):
        return np.inf
    Z = np.linalg.inv(np.tile(p, (len(p), 1)) - rates)
    E = (np.diag(Z)[None, :] - Z) / p[None, :]
    return float(p @ E @ p)


def stationarity_oracle(L: Generator, pi: ProbabilityVector, cycles) -> tuple:
    """(f, max_gap) of ``stationarity_check`` by a loop over the cycles: each
    H_A is the cycle's own mean of h over its arcs, and whether the cycle is
    below L, and so its gap, is decided one cycle at a time."""
    kern = hitting_kernel(L, pi)
    h, f = kern.h, kern.f
    gaps = []
    for c in cycles:
        v = np.asarray(c.vertices)
        h_a = float(h[v, np.roll(v, -1)].mean())
        is_below = all(L.rates[a, b] > 1e-12 for a, b in c.arcs())
        gaps.append(abs(h_a - f) if is_below else max(0.0, h_a - f))
    return f, float(max(gaps)) if gaps else 0.0


def random_ham_digraph(n: int, stream: RandomStream, extra: float = 0.25) -> DirectedGraph:
    """Random permutation cycle plus Bernoulli(extra) arcs."""
    perm = shuffled(stream, list(range(n)))
    edges = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    u = stream.uniform(n * n)
    k = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                if u[k] < extra:
                    edges.add((i, j))
                k += 1
    return DirectedGraph(n, edges)


def dijkstra_table_oracle(g: DirectedGraph, step_cost, terminal=None) -> np.ndarray:
    """Covering-DP values V(i, A) by level-by-level Dijkstra over subsets in
    increasing popcount order, one mask at a time: fresh moves seed the
    distances, moves to visited vertices keep the mask and are settled by a
    heap.  ``dp._solve_table`` must reproduce the array bit for bit."""
    n = g.n
    succ = g.successor_lists()
    pred = g.predecessor_lists()
    size = 1 << n
    values = np.full((n, size), np.inf)
    values[:, 0] = 0.0 if terminal is None else terminal
    masks_by_popcount = [[] for _ in range(n + 1)]
    for mask in range(1, size):
        masks_by_popcount[mask.bit_count()].append(mask)
    for level in range(1, n + 1):
        for mask in masks_by_popcount[level]:
            outside = [i for i in range(n) if not (mask >> i) & 1]
            dist = {}
            for i in outside:
                best = np.inf
                for j in succ[i]:
                    if (mask >> j) & 1:
                        cand = step_cost(i, level) + values[j, mask ^ (1 << j)]
                        if cand < best:
                            best = cand
                if np.isfinite(best):
                    dist[i] = best
            heap = [(v, i) for i, v in dist.items()]
            heapq.heapify(heap)
            done = set()
            while heap:
                v, j = heapq.heappop(heap)
                if j in done:
                    continue
                done.add(j)
                values[j, mask] = v
                for i in pred[j]:
                    if (mask >> i) & 1 or i in done:
                        continue
                    cand = step_cost(i, level) + v
                    if cand < dist.get(i, np.inf):
                        dist[i] = cand
                        heapq.heappush(heap, (cand, i))
    return values


def value_iteration_oracle(g: DirectedGraph, step_cost) -> np.ndarray:
    """Covering-DP values by Bellman sweeps over the whole state space until
    a fixed point.  Exponential-time-ish but fine for n <= 8."""
    n = g.n
    succ = g.successor_lists()
    size = 1 << n
    values = np.full((n, size), np.inf)
    values[:, 0] = 0.0
    changed = True
    while changed:
        changed = False
        for mask in range(1, size):
            level = mask.bit_count()
            for i in range(n):
                if (mask >> i) & 1:
                    continue
                best = np.inf
                for j in succ[i]:
                    nxt = mask ^ (1 << j) if (mask >> j) & 1 else mask
                    cand = step_cost(i, level) + values[j, nxt]
                    if cand < best:
                        best = cand
                if best < values[i, mask] - 1e-12:
                    values[i, mask] = best
                    changed = True
    return values


def _reaches_all(adj: list) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def strongly_connected_by_search(g: DirectedGraph) -> bool:
    """Strong connectivity by depth-first search from vertex 0, forward
    along the arcs and backward against them."""
    if g.n == 1:
        return True
    return _reaches_all(g.successor_lists()) and _reaches_all(g.predecessor_lists())


def _hamiltonian_path_from(succ: list, start: int, closes) -> bool:
    """Depth-first search for a simple path from ``start`` through every
    vertex whose last vertex satisfies ``closes``."""
    n = len(succ)
    visited = [False] * n
    visited[start] = True

    def extend(v, count) -> bool:
        if count == n:
            return closes(v)
        for w in succ[v]:
            if not visited[w]:
                visited[w] = True
                found = extend(w, count + 1)
                visited[w] = False
                if found:
                    return True
        return False

    return extend(start, 1)


def has_hamiltonian_path_from(g: DirectedGraph, start: int) -> bool:
    """True iff some simple path from ``start`` visits every vertex."""
    return _hamiltonian_path_from(g.successor_lists(), start, lambda v: True)


def has_hamiltonian_cycle(g: DirectedGraph) -> bool:
    """True iff some cycle visits every vertex exactly once; every such cycle
    passes through vertex 0, so the search is rooted there."""
    if g.n == 1:
        return False
    return _hamiltonian_path_from(g.successor_lists(), 0, lambda v: (v, 0) in g.edges)


def match_multisets(a, b, tol: float = 1e-7) -> bool:
    """Greedy nearest-neighbor pairing of two complex multisets."""
    rem = list(b)
    for z in a:
        if not rem:
            return False
        dists = [abs(z - w) for w in rem]
        k = int(np.argmin(dists))
        if dists[k] > tol:
            return False
        rem.pop(k)
    return not rem


def simulate_hitting_oracle(L: Generator, x: int, y: int, samples: int, seed: int) -> tuple:
    """(mean, second moment) of ``eigentime.simulate_hitting`` by its plain
    route: 2k uniforms drawn at each step of the k running paths, and the
    next state counted over the whole cumulative jump law, the number of
    columns whose cumulative probability is below the uniform."""
    rates = L.exit_rates()
    P = L.rates / rates[:, None]
    np.fill_diagonal(P, 0.0)
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    stream = RandomStream(seed)
    total = np.zeros(samples)
    idx, s = np.arange(samples), np.full(samples, x)
    while idx.size:
        k = idx.size
        u = stream.uniform(2 * k)
        total[idx] += -np.log1p(-u[:k]) / rates[s]
        s = (cum[s] < u[k:, None]).sum(axis=1)
        idx, s = idx[s != y], s[s != y]
    return float(total.mean()), float((total ** 2).mean())


def _fmt_float_oracle(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must contain finite numbers only")
    if x == int(x) and abs(x) < WHOLE_BELOW:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _render_oracle(obj, indent: int, pieces: list):
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_fmt_float_oracle(float(obj)))
    elif isinstance(obj, str):
        pieces.append(_escape(obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size:
            _render_floats(obj, indent, pieces)
        else:
            _render_oracle(obj.tolist(), indent, pieces)
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        keys = sorted(obj.keys())
        for k, key in enumerate(keys):
            pieces.append("  " * (indent + 1))
            pieces.append(_escape(str(key)))
            pieces.append(": ")
            _render_oracle(obj[key], indent + 1, pieces)
            pieces.append(",\n" if k < len(keys) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for k, item in enumerate(obj):
            pieces.append("  " * (indent + 1))
            _render_oracle(item, indent + 1, pieces)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    elif hasattr(obj, "to_json"):
        _render_oracle(obj.to_json(), indent, pieces)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_oracle(obj) -> str:
    """``_serialize.dumps`` as it was before its exact-type dispatch: one
    chain of isinstance tests per value, each key escaped afresh, every
    list written item by item.  Float64 arrays share the row renderer,
    which the array tests hold against their nested lists."""
    pieces: list = []
    _render_oracle(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)
