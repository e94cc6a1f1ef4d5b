"""Discrete-time kernels and the bridges to continuous time.

For an irreducible pi-invariant kernel K the discrete analogue of the
inverse speed is the pi-double-averaged mean hitting time, with eigentime
form sum over the non-unit spectrum of 1/(1 - theta) and Hunter's trace
form 1 + value = tr (I - K + Pi)^{-1}.

A kernel is evaluated on the continuous engine through its clock generator
K - I (:attr:`Kernel.clock`): the steps of K taken at the rings of a
unit-rate Poisson clock have the same mean hitting times, counted in steps.
The clock's Pi - L is Hunter's I - K + Pi bit for bit, because
fl(K(x,x) - 1) = -fl(1 - K(x,x)), so the discrete inverse speed and
Hunter's trace are the F and the trace of Z of one
:func:`~fastchain.eigentime.hitting_kernel`, which also checks that K is
irreducible and pi-invariant.  The eigenvalues of K stay a route of their
own (:func:`discrete_eigentime_spectral`).

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
from functools import cached_property

import numpy as np

from ._serialize import Report
from .eigentime import hitting_kernel
from .generator import (
    Generator,
    NotIrreducible,
    ProbabilityVector,
    ZeroGenerator,
    _from_json,
    _require_invariant,
    _require_irreducible,
    equilibrium_rate,
)
from .graph import DirectedGraph
from .optimizer import CyclePolytope, _multistart
from .rng import RandomStream

__all__ = [
    "Kernel",
    "IdentityKernel",
    "frak_f",
    "discrete_eigentime_spectral",
    "hunter_trace",
    "to_kernel",
    "to_generator",
    "compare_wedges",
]


class IdentityKernel(ValueError):
    """Kernel equals the identity; it generates no motion."""


@dataclass(frozen=True)
class Kernel:
    """Row-stochastic matrix; self-loops allowed."""

    entries: np.ndarray = field()

    def __init__(self, entries):
        k = np.asarray(entries, dtype=float).copy()
        if k.ndim != 2 or k.shape[0] != k.shape[1] or not np.isfinite(k).all():
            raise ValueError("kernel must be a finite square matrix")
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
        return {"n": self.n, "rates": self.entries}

    @classmethod
    def from_json(cls, obj: dict) -> "Kernel":
        return _from_json(cls, obj)

    @cached_property
    def clock(self) -> Generator:
        """The generator K - I: the steps of K taken at the rings of a
        unit-rate Poisson clock, with the same mean hitting times in steps.
        Built on the first read and kept."""
        return Generator(self.entries - np.eye(self.n))


def frak_f(K: Kernel, pi: ProbabilityVector) -> float:
    """Discrete inverse speed: sum_{x,y} pi(x) pi(y) E_x[tau_y], the F of
    the clock generator.

    Raises
    ------
    NotIrreducible
    NotInvariant
    """
    return hitting_kernel(K.clock, pi).f


def discrete_eigentime_spectral(K: Kernel) -> float:
    """Spectral route: sum over the non-unit spectrum of 1/(1 - theta)."""
    vals = np.linalg.eigvals(K.entries)
    order = np.argsort(np.abs(vals - 1.0))
    if len(vals) > 1 and abs(vals[order[1]] - 1.0) < 1e-10:
        raise NotIrreducible("unit eigenvalue is not simple")
    s = np.sum(1.0 / (1.0 - vals[order[1:]]))
    if abs(s.imag) > 1e-8:
        raise ArithmeticError(f"spectral sum has imaginary part {float(s.imag)!r}")
    return float(s.real)


def hunter_trace(K: Kernel, pi: ProbabilityVector) -> float:
    """tr (I - K + Pi)^{-1} with Pi the rank-one matrix of rows pi: the
    trace of the clock generator's Z.

    Equals 1 plus the discrete inverse speed for irreducible pi-invariant
    kernels.

    Raises
    ------
    NotIrreducible
    NotInvariant
    """
    return float(np.trace(hitting_kernel(K.clock, pi).Z))


def to_kernel(L: Generator) -> tuple:
    """Fastest embedding of a generator into a kernel: K = I + L / l.

    Returns (K, l) with l > 0 the maximal exit rate (else ZeroGenerator);
    K has a zero diagonal entry at every argmax vertex, and the discrete
    inverse speed of K is l times the continuous one of L.
    """
    _require_irreducible(L)
    l = float(L.exit_rates().max())
    if l <= 0:
        raise ZeroGenerator("generator has no positive exit rate")
    K = Kernel(np.eye(L.n) + L.rates / l)
    return K, l


def to_generator(K: Kernel, pi: ProbabilityVector) -> tuple:
    """Normalized generator of a kernel: L = k (K - I).

    Returns (L, k) with k = 1 / sum_x pi(x) (1 - K(x,x)); F(L) equals the
    discrete inverse speed of K divided by k.  Raises
    :class:`IdentityKernel` when K has no off-diagonal mass.
    """
    clock = K.clock
    _require_invariant(clock, pi)
    loss = equilibrium_rate(clock, pi)
    if loss <= 1e-12:
        raise IdentityKernel("kernel equals the identity")
    k = 1.0 / loss
    return Generator(k * clock.rates), k


@dataclass(frozen=True)
class WedgeComparison(Report):
    f_wedge: float
    frak_f_wedge: float
    gap: float
    kernel_weights: np.ndarray


def compare_wedges(g: DirectedGraph, pi: ProbabilityVector, seed: int = 0) -> WedgeComparison:
    """Both infima side by side; the discrete one can never be smaller.

    Every kernel can be slowed-down-free replaced by its K0 representative,
    and K0 corresponds bijectively to the normalized generators with the
    discrete value equal to max_x L(x) times F(L).  The discrete infimum is
    therefore min over the cycle polytope of maxrate * F, searched here by
    pairwise pattern descent over the mixture weights (heuristic; exact
    closed forms back it up at desk scale in the tests).  ``f_wedge`` is
    the conditional-gradient minimum of F, the value of
    :func:`~fastchain.optimizer.f_wedge`.
    """
    poly = CyclePolytope(g, pi)
    # f_wedge's run (frank_wolfe_minimize's defaults, 8 extra starts), on
    # the polytope and irreducibility memo the pattern search reuses
    report = _multistart(poly, tol=1e-8, max_iters=10_000, seed=seed, extra_starts=8)

    def discrete_objective(w: np.ndarray) -> float:
        return float((-np.diag(poly.rates(w))).max()) * poly.f_values([w])[0]

    # the continuous minimizer is the natural warm start: when its exit
    # rates are constant it is already the discrete minimizer
    w, val = _pattern_search(discrete_objective, poly.m, seed=seed,
                             warm_starts=[report.weights])
    return WedgeComparison(
        f_wedge=report.f_min,
        frak_f_wedge=float(val),
        gap=float(val - report.f_min),
        kernel_weights=w,
    )


def _pattern_search(fun, m: int, seed: int, warm_starts) -> tuple:
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
