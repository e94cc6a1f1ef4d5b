"""Discrete-time kernels and the bridges to continuous time.

For an irreducible pi-invariant kernel K the discrete analogue of the
inverse speed is the pi-double-averaged mean hitting time, with eigentime
form sum over the non-unit spectrum of 1/(1 - theta) and Hunter's trace
form 1 + value = tr (I - K + Pi)^{-1}.

The two time scales are linked by the maps

    to_kernel:    K = I + L / l,  l = max_x L(x)      (lands in K0)
    to_generator: L = k (K - I),  k = 1 / sum_x pi(x)(1 - K(x,x))

which satisfy value(K) = l F(L) and F(L) = value(K) / k, and are mutually
inverse between the normalized generators and the kernels K0 with at least
one zero diagonal entry.  Mixing a kernel with the identity only slows it,
so discrete minimization may be restricted to K0, which is why the
continuous infimum never exceeds the discrete one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import (
    Generator,
    NotInvariant,
    NotIrreducible,
    ProbabilityVector,
    _require_irreducible,
)
from .graph import DirectedGraph, _support_strongly_connected
from .optimizer import CyclePolytope, _wedge
from .rng import RandomStream

__all__ = [
    "Kernel",
    "IdentityKernel",
    "SingularMatrix",
    "frak_f",
    "discrete_hitting_times",
    "discrete_eigentime_spectral",
    "hunter_trace",
    "to_kernel",
    "to_generator",
    "compare_wedges",
]


class IdentityKernel(ValueError):
    """Kernel equals the identity; it generates no motion."""


class SingularMatrix(ValueError):
    """Hunter trace matrix is singular (kernel not irreducible)."""


@dataclass(frozen=True)
class Kernel:
    """Row-stochastic matrix; self-loops allowed."""

    entries: np.ndarray = field()

    def __init__(self, entries):
        k = np.asarray(entries, dtype=float).copy()
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("kernel must be a square matrix")
        if np.any(k < -1e-12):
            raise ValueError("kernel entries must be nonnegative")
        if np.any(np.abs(k.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("kernel rows must sum to 1")
        k.flags.writeable = False
        object.__setattr__(self, "entries", k)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_json(self) -> dict:
        return {"n": self.n, "rates": [[float(v) for v in row] for row in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "Kernel":
        return cls(np.asarray(obj["rates"], dtype=float))


def _require_kernel_irreducible(K: Kernel):
    if not _support_strongly_connected(K.entries):
        raise NotIrreducible("kernel support is not strongly connected")


def _require_kernel_invariant(K: Kernel, pi: ProbabilityVector):
    resid = float(np.abs(pi.weights @ K.entries - pi.weights).max())
    if resid > 1e-9:
        raise NotInvariant(f"pi K residual {resid!r}")


def discrete_hitting_times(K: Kernel) -> np.ndarray:
    """E_x[tau_y] for the chain with kernel K, counted in steps.

    Taking the steps of K at the rings of a unit-rate Poisson clock gives
    the generator L = K - I with the same mean hitting times.  For any q
    with sum q = 1, H = (1 q^T - L)^{-1} satisfies -L H = I - 1 pi^T and
    q^T H = pi^T, so E[x, y] = (H[y, y] - H[x, y]) / pi(y) with pi read off
    H.  Uniform q needs no pi, and inverts a different matrix from
    :func:`hunter_trace`, which keeps the two an independent check.
    """
    _require_kernel_irreducible(K)
    n = K.n
    H = np.linalg.inv(np.full((n, n), 1.0 / n) + np.eye(n) - K.entries)
    pi = H.mean(axis=0)
    return (np.diag(H)[None, :] - H) / pi[None, :]


def frak_f(K: Kernel, pi: ProbabilityVector) -> float:
    """Discrete inverse speed: sum_{x,y} pi(x) pi(y) E_x[tau_y]."""
    _require_kernel_invariant(K, pi)
    E = discrete_hitting_times(K)
    return float(pi.weights @ E @ pi.weights)


def discrete_eigentime_spectral(K: Kernel) -> float:
    """Spectral route: sum over the non-unit spectrum of 1/(1 - theta)."""
    vals = np.linalg.eigvals(K.entries)
    order = np.argsort(np.abs(vals - 1.0))
    if len(vals) > 1 and abs(vals[order[1]] - 1.0) < 1e-10:
        raise NotIrreducible("unit eigenvalue is not simple")
    s = np.sum(1.0 / (1.0 - vals[order[1:]]))
    if abs(s.imag) > 1e-8:
        raise ArithmeticError(f"spectral sum has imaginary part {s.imag!r}")
    return float(s.real)


def hunter_trace(K: Kernel, pi: ProbabilityVector) -> float:
    """tr (I - K + Pi)^{-1} with Pi the rank-one matrix of rows pi.

    Equals 1 plus the discrete inverse speed for irreducible pi-invariant
    kernels.
    """
    _require_kernel_invariant(K, pi)
    n = K.n
    M = np.eye(n) - K.entries + np.tile(pi.weights, (n, 1))
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("I - K + Pi is singular") from exc
    return float(np.trace(inv))


def to_kernel(L: Generator) -> tuple:
    """Fastest embedding of a generator into a kernel: K = I + L / l.

    Returns (K, l) with l the maximal exit rate; K has a zero diagonal
    entry at every argmax vertex, and the discrete inverse speed of K is
    l times the continuous one of L.
    """
    _require_irreducible(L)
    rates = L.exit_rates()
    l = float(rates.max())
    K = Kernel(np.eye(L.n) + L.rates / l)
    return K, l


def to_generator(K: Kernel, pi: ProbabilityVector) -> tuple:
    """Normalized generator of a kernel: L = k (K - I).

    Returns (L, k) with k = 1 / sum_x pi(x) (1 - K(x,x)); F(L) equals the
    discrete inverse speed of K divided by k.  Raises
    :class:`IdentityKernel` when K has no off-diagonal mass.
    """
    _require_kernel_invariant(K, pi)
    loss = float(pi.weights @ (1.0 - np.diag(K.entries)))
    if loss <= 1e-12:
        raise IdentityKernel("kernel equals the identity")
    k = 1.0 / loss
    return Generator(k * (K.entries - np.eye(K.n))), k


@dataclass(frozen=True)
class WedgeComparison:
    f_wedge: float
    frak_f_wedge: float
    gap: float
    kernel_weights: np.ndarray

    def to_json(self) -> dict:
        return {
            "f_wedge": self.f_wedge,
            "frak_f_wedge": self.frak_f_wedge,
            "gap": self.gap,
            "kernel_weights": [float(w) for w in self.kernel_weights],
        }


def compare_wedges(g: DirectedGraph, pi: ProbabilityVector, seed: int = 0) -> WedgeComparison:
    """Both infima side by side; the discrete one can never be smaller.

    Every kernel can be slowed-down-free replaced by its K0 representative,
    and K0 corresponds bijectively to the normalized generators with the
    discrete value equal to max_x L(x) times F(L).  The discrete infimum is
    therefore min over the cycle polytope of maxrate * F, searched here by
    grid plus pairwise pattern descent over the mixture weights (heuristic;
    exact closed forms back it up at desk scale in the tests).
    """
    poly = CyclePolytope(g, pi)
    f_best, report = _wedge(poly, seed=seed)

    def discrete_objective(w: np.ndarray) -> float:
        return float((-np.diag(poly.rates(w))).max()) * poly.f_value(w)

    # the continuous minimizer is the natural warm start: when its exit
    # rates are constant it is already the discrete minimizer
    w, val = _pattern_search(discrete_objective, poly.m, seed=seed,
                             warm_starts=[report.weights])
    return WedgeComparison(
        f_wedge=float(f_best),
        frak_f_wedge=float(val),
        gap=float(val - f_best),
        kernel_weights=w,
    )


def _pattern_search(fun, m: int, seed: int = 0, warm_starts=()) -> tuple:
    """Deterministic multi-start pairwise-transfer descent on the simplex,
    from the warm starts, the uniform point and two random points."""
    stream = RandomStream(seed)
    starts = [np.asarray(w, dtype=float) for w in warm_starts]
    starts.append(np.full(m, 1.0 / m))
    for k in range(2):
        w = stream.spawn(k).simplex(m)
        starts.append(0.8 * w + 0.2 / m)
    best_w, best_v = None, np.inf
    for w0 in starts:
        w = w0 / w0.sum()
        v = fun(w)
        step = 0.25
        while step > 1e-5:
            improved = False
            for i in range(m):
                for j in range(m):
                    if i == j or w[j] < step:
                        continue
                    cand = w.copy()
                    cand[i] += step
                    cand[j] -= step
                    cv = fun(cand)
                    if cv < v - 1e-13:
                        v, w = cv, cand
                        improved = True
            if not improved:
                step /= 2.0
        if v < best_v:
            best_v, best_w = v, w
    return best_w, best_v
