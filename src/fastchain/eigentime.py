"""Hitting-time moments, the inverse communication speed, and spectral identities.

The central functional is

    F(L) = sum_{x,y} pi(x) pi(y) E_x[tau_y],

the mean time for the process generated by L to travel between two
independent samples of its invariant law.  Every hitting-time functional of
one generator comes from a single factorization: with the fundamental
matrix Z = (Pi - L)^{-1}, Pi the rank-one matrix of rows pi (Kemeny and
Snell, Finite Markov Chains, 1960), the mean-zero solution of L g = r is
g = -Z r for every pi-centered r, so

    E_x[tau_y] = (Z[y, y] - Z[x, y]) / pi(y),

and the chained solves behind second moments and the perturbation kernel h
are columns of W = Z E, formed only when one of them is read.
:class:`HittingKernel` holds all of them.  The eigentime identity F(L) =
sum over nonzero eigenvalues of -L of 1/lambda gives an independent
spectral route used for cross-checking throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._serialize import Report
from .generator import (
    Generator,
    ProbabilityVector,
    _CycleArcs,
    _require_invariant,
    _require_irreducible,
)
from .graph import Cycle, _as_int
from .rng import RandomStream

__all__ = [
    "Spectrum",
    "HittingReport",
    "HittingKernel",
    "SpectrumAmbiguous",
    "IdentityViolation",
    "hitting_kernel",
    "inverse_speed",
    "spectrum",
    "eigentime_spectral",
    "spectral_second_identity",
    "simulate_hitting",
    "hitting_report",
    "hamiltonian_speed_value",
]

ZERO_EIGEN_TOL = 1e-8


class SpectrumAmbiguous(ValueError):
    """Second-smallest eigenvalue magnitude is below tolerance; input is
    numerically reducible and the zero eigenvalue cannot be isolated."""


class IdentityViolation(ArithmeticError):
    """Two independent computation paths for the same quantity disagree."""


@dataclass(frozen=True)
class Spectrum:
    """Nonzero eigenvalues of -L with multiplicity, conjugation-closed."""

    values: tuple

    def sum_reciprocals(self, power: int = 1) -> float:
        s = sum(1.0 / (lam ** power) for lam in self.values)
        if abs(s.imag) > ZERO_EIGEN_TOL:
            raise SpectrumAmbiguous(f"reciprocal sum has imaginary part {s.imag!r}")
        return float(s.real)

    def to_json(self) -> np.ndarray:
        vals = sorted(self.values, key=lambda z: (z.real, z.imag))
        return np.array([[z.real, z.imag] for z in vals], dtype=float)


@dataclass(frozen=True)
class HittingReport(Report):
    """Bundle of all hitting-time functionals of one generator."""

    expectations: np.ndarray
    second_moments: np.ndarray
    kemeny: float
    f_value: float
    h_matrix: np.ndarray


def _fundamental(rates: np.ndarray, p: np.ndarray) -> tuple:
    """(Z, E, F) of the rates L, one matrix or a stack of them:
    Z = (Pi - L)^{-1}, E[x, y] = (Z[y, y] - Z[x, y]) / pi(y) and F = pi E pi
    (0-d for one matrix), the one inverse behind every hitting-time
    functional.  Pi - L is formed here as ``p - rates``: every row of Pi is
    pi, so the broadcast is the tiled subtraction element for element.  F's
    product ``p[None, None, :] @ E @ p[:, None]`` gives each matrix of a
    stack the bits it has alone, which are those of ``p @ E @ p``."""
    Z = np.linalg.inv(p - rates)
    E = (Z.diagonal(axis1=-2, axis2=-1)[..., None, :] - Z) / p
    return Z, E, (p[None, None, :] @ E @ p[:, None]).reshape(E.shape[:-2])


def _perturbation_kernel(Z: np.ndarray, E: np.ndarray) -> np.ndarray:
    """h from Z and E, one matrix or a stack of them: with W = Z E,
    h = -aux.T for the anchored solutions aux[:, y] = W[y, y] - W[:, y]
    (see :class:`HittingKernel`).  Negating aux, rather than subtracting the
    other way round, gives the same bits off the diagonal and keeps the -0.0
    diagonal that reports print.  Each matrix of a stack gets the bits, and
    the strides, it has alone."""
    W = Z @ E
    return -(W.diagonal(axis1=-2, axis2=-1)[..., None, :] - W).swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class HittingKernel:
    """Every hitting-time functional of one (L, pi), from one inverse of Pi - L.

    ``E`` holds the expected hitting times E_x[tau_y].  With W = Z E, the
    anchored solution of L aux = phi_y - pi[phi_y] (phi_y the column of E to
    y, aux(y) = 0) is aux[:, y] = W[y, y] - W[:, y]; it gives the second
    moments E_x[tau_y^2] = 2 (pi[phi_y] phi_y(x) - aux[x, y]) and the
    perturbation kernel h(x, y) = -aux[y, x].  ``kemeny`` is the vector
    E pi, ``f`` is F(L), ``h_mean`` is pi h pi (which equals sum 1/lambda^2)
    and ``m_bound`` is M(L) = max E.  W, a second n^3 product, is formed on
    the first read of ``h``, ``second_moments`` or ``h_mean``, and kept.
    """

    pi: ProbabilityVector
    Z: np.ndarray
    E: np.ndarray
    kemeny: np.ndarray
    f: float
    m_bound: float

    @cached_property
    def h(self) -> np.ndarray:
        return _perturbation_kernel(self.Z, self.E)

    @cached_property
    def second_moments(self) -> np.ndarray:
        # h.T is exactly -aux, so adding it subtracts aux
        return 2.0 * ((self.pi.weights @ self.E)[None, :] * self.E + self.h.T)

    @cached_property
    def h_mean(self) -> float:
        return float(self.pi.weights @ self.h @ self.pi.weights)

    def h_cycle(self, cycle: Cycle) -> float:
        """H_A: the average of h over the arcs of the cycle."""
        return float(_CycleArcs([cycle]).means(self.h)[0])

    def report(self) -> HittingReport:
        return HittingReport(
            expectations=self.E,
            second_moments=self.second_moments,
            kemeny=float(self.kemeny.mean()),
            f_value=self.f,
            h_matrix=self.h,
        )


def hitting_kernel(L: Generator, pi: ProbabilityVector) -> HittingKernel:
    """Build the :class:`HittingKernel` of L: one irreducibility test, one
    invariance test and one inverse of Pi - L.

    Raises
    ------
    NotIrreducible
    NotInvariant
        If pi is not invariant for L within 1e-9.
    """
    _require_irreducible(L)
    _require_invariant(L, pi)
    p = pi.weights
    Z, E, f = _fundamental(L.rates, p)
    return HittingKernel(
        pi=pi,
        Z=Z,
        E=E,
        kemeny=E @ p,
        f=float(f),
        m_bound=float(E.max()),
    )


def inverse_speed(L: Generator, pi: ProbabilityVector) -> float:
    """F(L): pi-average over both start and target of the hitting times.

    Raises
    ------
    NotInvariant
        If pi is not invariant for L within 1e-9.
    NotIrreducible
    """
    return hitting_kernel(L, pi).f


def spectrum(L: Generator) -> Spectrum:
    """Eigenvalues of -L with the single zero eigenvalue removed by magnitude.

    Uses the dense nonsymmetric eigensolver (balanced Hessenberg reduction
    plus shifted QR via LAPACK).  Raises :class:`SpectrumAmbiguous` when the
    second-smallest magnitude is below 1e-8, since then the zero eigenvalue
    of a numerically reducible input cannot be told apart.
    """
    vals = np.linalg.eigvals(-L.rates)
    order = np.argsort(np.abs(vals))
    vals = vals[order]
    if len(vals) > 1 and abs(vals[1]) < ZERO_EIGEN_TOL:
        raise SpectrumAmbiguous(
            f"second-smallest eigenvalue magnitude {float(abs(vals[1]))!r} < {ZERO_EIGEN_TOL}")
    kept = sorted(vals[1:], key=lambda z: (z.real, z.imag))
    return Spectrum(tuple(complex(z) for z in kept))


def eigentime_spectral(L: Generator) -> float:
    """Sum of reciprocals of the nonzero eigenvalues of -L.

    Equals :func:`inverse_speed` for irreducible members of the normalized
    pi-invariant family (the eigentime identity), but is also defined for
    reducible inputs with an isolated zero eigenvalue, where it extends F.
    """
    return spectrum(L).sum_reciprocals(1)


def spectral_second_identity(L: Generator, pi: ProbabilityVector) -> tuple:
    """Both sides of sum_{x,y} pi(x) pi(y) h(x,y) = sum 1/lambda^2."""
    return hitting_kernel(L, pi).h_mean, spectrum(L).sum_reciprocals(2)


@dataclass(frozen=True)
class SimulationReport:
    mean: float
    second_moment: float
    std_error: float
    second_moment_std_error: float
    samples: int


# uniforms drawn from the stream at a time by simulate_hitting
_DRAW_BLOCK = 4096


def simulate_hitting(L: Generator, x: int, y: int, samples: int, seed: int) -> SimulationReport:
    """Monte Carlo estimate of E_x[tau_y] and E_x[tau_y^2].

    Simulates the jump chain with exponential holding times, all sample
    paths advanced in lockstep; draws come from the frozen counter-based
    stream so results are bit-reproducible for a given seed.  Each step
    reads the holding times of the paths still running, then their jump
    uniforms, from blocks of ``_DRAW_BLOCK`` uniforms; the stream's values
    do not depend on how its draws are chunked.  A path at s jumps to the
    first column where the cumulative jump law reaches its uniform, looked
    up among the columns where that law can first reach it: column 0, the
    columns of positive probability and the last one.

    ``x`` and ``y`` must be integer states in 0..n-1: a target outside
    them would never be hit.  ``std_error`` is the standard error of the
    mean estimate, ``second_moment_std_error`` the one of the second-moment
    estimate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = L.n
    x, y = _as_int(x), _as_int(y)
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"states ({x}, {y}) out of range for n={n}")
    _require_irreducible(L)
    if x == y:
        return SimulationReport(0.0, 0.0, 0.0, 0.0, samples)
    rates = L.exit_rates()
    P = L.rates / rates[:, None]
    np.fill_diagonal(P, 0.0)
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    # J[s] lists row s's breakpoint columns, padded with n - 1, and V[s] the
    # cumulative law there; cum is 1 > u at column n - 1
    breaks = P > 0
    breaks[:, 0] = breaks[:, -1] = True
    width = breaks.sum(axis=1)
    rows, cols = np.nonzero(breaks)
    J = np.full((n, width.max()), n - 1)
    J[rows, np.arange(rows.size) - np.repeat(np.cumsum(width) - width, width)] = cols
    V = np.take_along_axis(cum, J, axis=1)

    stream = RandomStream(seed)
    drawn, used = np.empty(0), 0
    total = np.zeros(samples)
    idx = np.arange(samples)
    s = np.full(samples, x)
    while idx.size:
        # per step: k holding times, then k jump uniforms, read from the block
        k = idx.size
        if used + 2 * k > drawn.size:
            drawn = np.concatenate((drawn[used:], stream.uniform(max(_DRAW_BLOCK, 2 * k))))
            used = 0
        u = drawn[used:used + 2 * k]
        used += 2 * k
        total[idx] += -np.log1p(-u[:k]) / rates[s]
        s = J[s, (V[s] >= u[k:, None]).argmax(axis=1)]
        running = s != y
        idx, s = idx[running], s[running]
    m1 = float(total.mean())
    m2 = float((total ** 2).mean())
    var1 = float(total.var(ddof=1)) if samples > 1 else 0.0
    var2 = float((total ** 2).var(ddof=1)) if samples > 1 else 0.0
    return SimulationReport(
        mean=m1,
        second_moment=m2,
        std_error=float(np.sqrt(var1 / samples)),
        second_moment_std_error=float(np.sqrt(var2 / samples)),
        samples=samples,
    )


def hitting_report(L: Generator, pi: ProbabilityVector) -> HittingReport:
    """Assemble expectations, second moments, Kemeny constant, F, and h."""
    return hitting_kernel(L, pi).report()


def hamiltonian_speed_value(pi: ProbabilityVector) -> float:
    """Closed-form F of any Hamiltonian-cycle generator for this pi:
    (N/2) sum_{x != y} pi(x) pi(y).  Independent of the cycle chosen."""
    w = pi.weights
    return 0.5 * pi.n * float(1.0 - w @ w)
