"""Markov generators with prescribed invariant measure.

The central convex body is the set of normalized generators compatible with
a graph and leaving a fixed positive probability vector invariant.  Its
extreme points are the single-cycle generators built by
:func:`cycle_generator`; :func:`decompose_into_cycles` writes any member as
a barycentric mixture of those by greedy peeling of the stationary edge
flow, and :func:`combine` is the inverse direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Cycle, DirectedGraph, _as_int, _support_strongly_connected

__all__ = [
    "ProbabilityVector",
    "Generator",
    "CycleDecomposition",
    "NotIrreducible",
    "NotInvariant",
    "NotNormalized",
    "ZeroGenerator",
    "cycle_generator",
    "invariant_measure",
    "normalize",
    "decompose_into_cycles",
    "combine",
    "support_graph",
]

ROW_SUM_TOL = 1e-12
CHECK_TOL = 1e-9
RECONSTRUCT_TOL = 1e-10


class NotIrreducible(ValueError):
    """Support graph of the generator is not strongly connected."""


class NotInvariant(ValueError):
    """pi is not invariant for the generator within tolerance."""


class NotNormalized(ValueError):
    """Generator does not have unit equilibrium jump rate within tolerance."""


class ZeroGenerator(ValueError):
    """All rates vanish; normalization impossible."""


@dataclass(frozen=True)
class ProbabilityVector:
    """Strictly positive probability weights on 0..n-1."""

    weights: np.ndarray = field()

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float).copy()
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("probabilities must be finite and strictly positive")
        if abs(w.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {float(w.sum())!r}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def pi_min(self) -> float:
        return float(self.weights.min())

    def to_json(self) -> np.ndarray:
        return self.weights

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityVector":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class Generator:
    """Square rate matrix: nonnegative off-diagonal, zero row sums."""

    rates: np.ndarray = field()

    def __init__(self, rates):
        r = np.asarray(rates, dtype=float).copy()
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("rates must be a square matrix")
        scale = float(np.abs(r).max())  # NaN or inf exactly when an entry is
        if not math.isfinite(scale):
            raise ValueError("rates must be finite")
        off = r - np.diag(np.diag(r))
        if np.any(off < -ROW_SUM_TOL):
            raise ValueError("off-diagonal rates must be nonnegative")
        rows = np.abs(r.sum(axis=1))
        if np.any(rows > ROW_SUM_TOL * max(1.0, scale)):
            raise ValueError(f"row sums must vanish, max residual {float(rows.max())!r}")
        r.flags.writeable = False
        object.__setattr__(self, "rates", r)

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    def exit_rates(self) -> np.ndarray:
        """Vector of total jump rates L(x) = -L(x,x)."""
        return -np.diag(self.rates)

    def to_json(self) -> dict:
        return {"n": self.n, "rates": self.rates}

    @classmethod
    def from_json(cls, obj: dict) -> "Generator":
        return _from_json(cls, obj)


def _from_json(cls, obj: dict):
    """A Generator or Kernel from its file; "n" must be the integer size of
    "rates", as in graph files."""
    n = _as_int(obj["n"])
    out = cls(np.asarray(obj["rates"], dtype=float))
    if out.n != n:
        raise ValueError(f'"n" is {n} but "rates" is {out.n}x{out.n}')
    return out


@dataclass(frozen=True)
class CycleDecomposition:
    """Barycentric weights over cycles; weights positive and summing to 1."""

    terms: tuple = field()

    def __init__(self, terms):
        pairs = tuple((c if isinstance(c, Cycle) else Cycle(c), float(w)) for c, w in terms)
        if not all(0 < w < math.inf for _, w in pairs):
            raise ValueError("weights must be finite and strictly positive")
        total = sum(w for _, w in pairs)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "terms", tuple(sorted(pairs, key=lambda t: t[0].vertices)))

    def to_json(self) -> list:
        return [{"cycle": c, "weight": w} for c, w in self.terms]


class _CycleArcs:
    """The arcs of a list of cycles, grouped by length once: the one route
    from cycles to their rates and to means over their arcs (H_A).

    Each group holds the positions of its k cycles in the list and two
    (k, length) index arrays of arc tails and heads, so one gather and one
    row-wise mean, or one scatter, serve all cycles of a length.  A row mean
    sums in the order of the cycle's own ``mean()`` (pairwise from 8 terms
    on), so the means are bit-equal to it; ``np.add.reduceat`` is not.
    """

    def __init__(self, cycles):
        by_length = {}
        for k, c in enumerate(cycles):
            by_length.setdefault(len(c), []).append((k, c.vertices))
        self.m = sum(len(group) for group in by_length.values())
        self.groups = []
        for group in by_length.values():
            tails = np.array([v for _, v in group])
            heads = np.concatenate((tails[:, 1:], tails[:, :1]), axis=1)
            self.groups.append((np.array([k for k, _ in group]), tails, heads))

    def means(self, M: np.ndarray) -> np.ndarray:
        """For each cycle, the mean of M over its arcs."""
        out = np.empty(self.m)
        for pos, tails, heads in self.groups:
            out[pos] = M[tails, heads].mean(axis=1)
        return out

    def rates(self, p: np.ndarray) -> np.ndarray:
        """The (m, n, n) stack of cycle rates for the weights p: 1 / (len p(a))
        at arc (a, b), its negative at (a, a); the bits of a loop over the
        arcs.  A vertex n or above raises ValueError (a ``Cycle`` has no
        negative vertex, which numpy would wrap)."""
        n = len(p)
        out = np.zeros((self.m, n, n))
        for pos, tails, heads in self.groups:
            if tails.max() >= n:
                raise ValueError("cycle vertex out of range")
            r = 1.0 / (tails.shape[1] * p[tails])
            out[pos[:, None], tails, heads] = r
            out[pos[:, None], tails, tails] = -r
        return out


def cycle_generator(pi: ProbabilityVector, cycle: Cycle) -> Generator:
    """Unit-speed generator tracing one cycle, normalized and pi-invariant.

    The rate out of cycle vertex a_l toward its successor is
    ``1 / (len(cycle) * pi(a_l))``; rows off the cycle are zero.  The
    stationary flow of the result puts mass 1/len(cycle) on every cycle arc,
    so the equilibrium jump rate is exactly 1.
    """
    return Generator(_CycleArcs([cycle]).rates(pi.weights)[0])


def support_graph(L: Generator) -> DirectedGraph:
    """Graph of strictly positive off-diagonal rates."""
    positive = L.rates > 0
    np.fill_diagonal(positive, False)
    return DirectedGraph(L.n, zip(*np.nonzero(positive)))


def _require_irreducible(L: Generator):
    if not _support_strongly_connected(L.rates):
        raise NotIrreducible("generator support is not strongly connected")


def _require_invariant(L: Generator, pi: ProbabilityVector):
    if pi.n != len(L.rates):
        raise ValueError(f"pi has {pi.n} entries for {len(L.rates)} states")
    resid = float(np.abs(pi.weights @ L.rates).max())
    if not resid <= CHECK_TOL:  # a NaN residual fails too
        raise NotInvariant(f"pi L residual {resid!r} exceeds {CHECK_TOL}")


def invariant_measure(L: Generator) -> ProbabilityVector:
    """The unique positive pi with pi L = 0, sum pi = 1.

    Solves the transposed system with one equation replaced by the
    normalization constraint; irreducibility makes the replacement
    nonsingular.

    Raises
    ------
    NotIrreducible
        If the positive-rate support is not strongly connected.
    """
    _require_irreducible(L)
    n = L.n
    A = L.rates.T.copy()
    A[0, :] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    pi = np.linalg.solve(A, b)
    pi = pi / pi.sum()
    return ProbabilityVector(pi)


def equilibrium_rate(L: Generator, pi: ProbabilityVector) -> float:
    """Mean jump rate at equilibrium, sum_x pi(x) L(x)."""
    return float(pi.weights @ L.exit_rates())


def normalize(L: Generator, pi: ProbabilityVector) -> Generator:
    """Rescale L so the equilibrium jump rate is 1."""
    c = equilibrium_rate(L, pi)
    if c <= ROW_SUM_TOL:
        raise ZeroGenerator("cannot normalize a zero generator")
    return Generator(L.rates / c)


def _check_member(L: Generator, pi: ProbabilityVector):
    _require_invariant(L, pi)
    c = equilibrium_rate(L, pi)
    if abs(c - 1.0) > CHECK_TOL:
        raise NotNormalized(f"equilibrium rate {c!r} is not 1")


def decompose_into_cycles(L: Generator, pi: ProbabilityVector) -> CycleDecomposition:
    """Write a normalized pi-invariant generator as a mixture of cycle generators.

    Greedy cycle peeling on the stationary edge flow Q(x,y) = pi(x) L(x,y):
    invariance makes Q a circulation, so its positive support always contains
    a directed cycle; subtracting the minimal flow along one zeroes at least
    one arc, which bounds the number of rounds by the arc count.  A cycle A
    carrying flow w contributes weight len(A) * w, because the flow of the
    unit-speed cycle generator is 1/len(A) per arc.

    The mixture is generally not unique; this routine's output is pinned down
    by always walking from the smallest active vertex along smallest-index
    arcs.  Correctness is the reconstruction property checked at the end.

    Raises
    ------
    NotInvariant, NotNormalized
        If L is not (numerically) a member of the target convex set.
    """
    _check_member(L, pi)
    n = L.n
    flow = pi.weights[:, None] * L.rates
    np.fill_diagonal(flow, 0.0)
    peel_tol = 1e-13
    weights: dict = {}

    while True:
        active = flow > peel_tol
        if not active.any():
            break
        # walk forward along active arcs until a vertex repeats
        starts = np.nonzero(active.any(axis=1))[0]
        walk = [int(starts[0])]
        seen = {walk[0]: 0}
        while True:
            u = walk[-1]
            nxt = int(np.nonzero(active[u])[0][0])
            if nxt in seen:
                cyc_vertices = walk[seen[nxt]:]
                break
            seen[nxt] = len(walk)
            walk.append(nxt)
        cyc = Cycle(cyc_vertices)
        arcs = cyc.arcs()
        w = min(flow[a, b] for a, b in arcs)
        for a, b in arcs:
            flow[a, b] -= w
            if flow[a, b] <= peel_tol:
                flow[a, b] = 0.0
        weights[cyc] = weights.get(cyc, 0.0) + len(cyc) * w

    total = sum(weights.values())
    terms = [(c, w / total) for c, w in weights.items() if w / total > 1e-15]
    decomp = CycleDecomposition(terms)
    rebuilt = combine(decomp, pi)
    err = float(np.abs(rebuilt.rates - L.rates).max())
    if err > RECONSTRUCT_TOL:
        raise ArithmeticError(f"decomposition reconstruction error {err!r}")
    return decomp


def combine(d: CycleDecomposition, pi: ProbabilityVector) -> Generator:
    """Barycentric mixture of cycle generators; normalized and pi-invariant."""
    rates = np.zeros((pi.n, pi.n))
    for (_, w), R in zip(d.terms, _CycleArcs([c for c, _ in d.terms]).rates(pi.weights)):
        rates += w * R
    return Generator(rates)
