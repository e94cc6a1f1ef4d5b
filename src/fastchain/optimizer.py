"""Minimization of the inverse speed F over graph-compatible generator polytopes.

The feasible set is parametrized by barycentric weights over the enumerated
simple cycles of the graph (its extreme points).  The conditional-gradient
loop exploits the exact derivative formula D_A F(L) = F(L) - H_A(L): the
weight average of H_A over the support equals F, so max_A H_A(L) - F(L) is
a nonnegative stationarity gap that vanishes exactly at minimizers, and the
cycle attaining the max is the steepest feasible descent vertex.  Steps are
chosen by exact line search, either toward the best vertex or pairwise from
the worst supported vertex to the best, which lets iterates reach vertices
and drop weights exactly.

A line search brackets the minimum with 33 presamples of F and then closes
the bracket on a root of the exact slope (:meth:`CyclePolytope._slope`) by
Brent's method, about 5 slope evaluations where bisection took about 30.
Near the optimum a step gains less in F than F's rounding, while the slope
is still resolved, so the search keeps closing the gap there.

The starts of a multistart run in lockstep (:func:`_lockstep`).  The line
search and the loop are generators: each asks for one thing at a time, a
33-row presample or one point, and each round answers the requests of
every active start from one stacked inverse of Pi - L and one stacked
``Z @ E`` (:meth:`CyclePolytope._kernels`).  No point is inverted twice:
the slope at a bracket end is read from the h of its presample row, and F
and H_A of an accepted iterate from the inverse that priced it in the line
search.  An evaluation is kept to one product for the rates, one
irreducibility verdict memoized per rate support, and its share of the
round's inverse, formed by broadcasting pi against the rates.  That
inverse, E and h come from the same helpers as
:func:`~fastchain.eigentime.hitting_kernel`, and the H_A vector from one
gather and one row-wise mean per cycle length.  Every row of a stack gets
the bits it has alone, and H_A the same bits as each cycle's own mean
(``HittingKernel.h_cycle``), so the path of each start, and every report,
is what that start gives run alone on single inverses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import copysign, isfinite, log

import numpy as np

from ._serialize import Report
from .eigentime import _fundamental, _perturbation_kernel, hitting_kernel
from .generator import Generator, ProbabilityVector, _CycleArcs
from .graph import (CycleBudgetExceeded, DirectedGraph, _support_strongly_connected,
                    enumerate_simple_cycles)
from .rng import RandomStream

__all__ = [
    "Certificate",
    "OptimizeReport",
    "StationarityReport",
    "EpsilonNeighborhood",
    "CyclePolytope",
    "frank_wolfe_minimize",
    "brute_force_minimize",
    "stationarity_check",
    "epsilon_neighborhood",
    "f_wedge",
]

WEIGHT_FLOOR = 1e-14
PRESAMPLES = 33  # F is not unimodal on a segment; the presample picks the bracket
BISECT_TOL = 1e-10


@dataclass(frozen=True)
class Certificate(Report):
    """First-order certificate: H_A of every enumerated cycle and the gap
    max_A H_A - F, which vanishes exactly at minimizers."""

    h_values: np.ndarray
    gap: float


@dataclass(frozen=True)
class OptimizeReport(Report):
    cycles: tuple
    weights: np.ndarray
    minimizer: Generator
    f_min: float
    certificate: Certificate
    iterations: int
    converged: bool


class CyclePolytope:
    """Cycle-weight parametrization of the compatible normalized generators.

    Every F evaluation forms the mixture's rates by one product of the weight
    vector with the flattened stack of cycle rates, which
    ``eigentime._fundamental`` subtracts from Pi.  Off-diagonal rates are
    sums of nonnegative terms, so whether a mixture is irreducible depends
    only on which weights are positive.  The verdict is memoized per support
    of the rate matrix rather than of the weights: the two agree except where
    a positive weight is so small that w * rate rounds to 0 on some arc, and
    there the rates are the ones that are right.

    F, h and the H_A vector of an irreducible mixture come from one inverse
    of Pi - L (``eigentime._fundamental``), which also reads F, so F is
    :func:`~fastchain.eigentime.hitting_kernel`'s bit for bit.  The
    optimizer prices the requests of a round of its lockstep starts, up to
    33 (extra_starts + 1) rows of m weights, in one :meth:`_kernels` call:
    one stacked inverse and one stacked ``Z @ E``, with an n x n rate
    matrix, Z, E and h kept per row for the round.  The cycles are
    enumerated once, under ``graph.CYCLE_BUDGET``, and grouped by length
    here, so H_A is one gather and one row-wise mean per length.
    """

    def __init__(self, g: DirectedGraph, pi: ProbabilityVector):
        if g.n != pi.n:
            raise ValueError("graph / pi dimension mismatch")
        self.pi = pi
        self.cycles = tuple(enumerate_simple_cycles(g))
        if not self.cycles:
            raise ValueError("graph has no cycle: the polytope is empty")
        n = pi.n
        self._arcs = _CycleArcs(self.cycles)
        self._flat = self._arcs.rates(pi.weights).reshape(self.m, n * n)
        self._connected = {}

    @property
    def m(self) -> int:
        return len(self.cycles)

    def rates(self, w: np.ndarray) -> np.ndarray:
        n = self.pi.n
        return (w @ self._flat).reshape(n, n)

    def f_values(self, ws: np.ndarray) -> np.ndarray:
        """F of every row of ``ws``, with one stacked inverse over the
        irreducible rows (reducible rows, which would be singular, get +inf
        without entering the stack).  Each row gives the same bits as it
        would alone.  The rates of all rows are one broadcast product,
        ``ws[:, None, :] @ _flat``: it runs the row product's kernel on each
        row and gives its bits, where a plain ``ws @ _flat`` or ``einsum``
        rounds differently (the bitwise per-point test pins this).  F is
        the stack's readout from ``_fundamental``."""
        return self._invert(ws)[0]

    def f_and_h(self, w: np.ndarray) -> tuple:
        """F together with the vector of H_A over all enumerated cycles."""
        f, (h,) = self._kernels([w])
        if h is None:
            return np.inf, None
        return float(f[0]), self._arcs.means(h)

    def _kernels(self, ws: np.ndarray) -> tuple:
        """F of every row of ``ws`` and a list of their h, from the one
        stacked inverse of :meth:`f_values` and one stacked ``Z @ E``; a
        reducible row has F = +inf and h = None.  Each h is a view into the
        stack, with the bits and strides of the row's own kernel."""
        f, keep, Z, E = self._invert(ws)
        hs = [None] * len(f)
        if keep:
            for k, h in zip(keep, _perturbation_kernel(Z, E)):
                hs[k] = h
        return f, hs

    def _invert(self, ws: np.ndarray) -> tuple:
        """(F of every row, the irreducible rows, Z and E of those rows)."""
        ws = np.asarray(ws, dtype=float)
        n = self.pi.n
        rates = (ws[:, None, :] @ self._flat).reshape(len(ws), n, n)
        positive = rates > 0
        keep = [k for k in range(len(ws)) if self._irreducible(positive[k])]
        f = np.full(len(ws), np.inf)
        if not keep:
            return f, keep, None, None
        Z, E, f[keep] = _fundamental(rates[keep], self.pi.weights)
        return f, keep, Z, E

    def _slope(self, d_rates: np.ndarray, h) -> float:
        """Derivative of F along the rate matrix ``d_rates`` at the mixture
        whose h is given, -sum_{x,y} pi(x) D(x, y) h(x, y); +inf for a
        reducible mixture (h None).  The diagonal of h is zero, so for
        D = L_A - L the slope is the paper's F - H_A."""
        if h is None:
            return np.inf
        return -float(self.pi.weights @ (d_rates * h).sum(axis=1))

    def _irreducible(self, positive: np.ndarray) -> bool:
        """Strong connectivity of the support ``rates > 0``, memoized on its bytes."""
        key = positive.tobytes()
        verdict = self._connected.get(key)
        if verdict is None:
            verdict = self._connected[key] = _support_strongly_connected(positive)
        return verdict


def _zeroin(a: float, fa: float, b: float, fb: float, tol: float):
    """A root of f in [a, b] by Brent's method (zeroin), given
    ``fa = f(a) <= 0 < fb = f(b)``.  A generator: it yields each point t at
    which it needs f, is sent f(t), and returns the root.

    Each step takes inverse quadratic interpolation through the last three
    points, or the secant through two, when that step stays well inside the
    bracket and shrinks fast enough, and bisects otherwise; a step is at
    least ``tol / 2`` long.  The bracket [b, c] keeps a sign change, read as
    ``f <= 0`` against ``f > 0``, and the search stops when it is at most
    ``tol`` wide and returns b, the end with the smaller |f|.  A value of
    +inf (a reducible point) only ever takes a bisection step.  At a
    multiple root, where f is flat to third order, interpolation converges
    only linearly and the search can take more evaluations than bisection
    (86 against 30 on (t - r)^3 from a bracket of width 1/16); a slope
    along a segment has such a root only at a degenerate minimum of F.
    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0):  # the root lies between a and b: restart c there
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb) and isfinite(fa) and isfinite(fc):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else copysign(tol1, xm)
        fb = yield b


def _line_search(poly: CyclePolytope, point, direction: np.ndarray, hi: float):
    """Exact line search of F(point(t)) on [0, hi], on a root of its slope.

    A generator in the request protocol of :func:`_lockstep`: it yields the
    33 presample rows, then one point per root-finder step, and returns
    (t, F, h) at the t it settles on, F and h from the inverse that priced
    that point.  ``point`` maps t to weights and broadcasts over a column of
    ts; ``direction`` is dw/dt.  F is analytic but not guaranteed unimodal
    along segments, so a dense presample picks the bracket first.  If its
    minimum is at an endpoint and the slope there points out of the
    segment, that exact endpoint is returned: a step lands on a vertex
    exactly when the slope stays negative to the end of the segment.
    Otherwise the presample intervals next to the minimum bracket a root of
    the exact slope (:meth:`CyclePolytope._slope`), which :func:`_zeroin`
    closes to width ``BISECT_TOL``.  The slope at a bracket end is read
    from the h of its presample row, so no point is inverted twice.  The
    slope is resolved to about eps M(L) also where differences of F are lost
    in F's rounding.  If the slope does not change sign across the bracket,
    the presample minimum is returned as it stands.
    """
    ts = np.linspace(0.0, hi, PRESAMPLES)
    vals, hs = yield point(ts[:, None])
    d_rates = poly.rates(direction)
    k = int(np.argmin(vals))
    ka, kb = max(k - 1, 0), min(k + 1, PRESAMPLES - 1)
    a, b = float(ts[ka]), float(ts[kb])
    priced = {a: (float(vals[ka]), hs[ka]), b: (float(vals[kb]), hs[kb])}
    if k == PRESAMPLES - 1:  # b is hi
        fb = poly._slope(d_rates, hs[kb])
        if fb <= 0:
            return (hi, *priced[b])
        fa = poly._slope(d_rates, hs[ka])
    else:
        fa = poly._slope(d_rates, hs[ka])
        if k == 0 and fa >= 0:  # a is 0
            return (0.0, *priced[a])
        fb = poly._slope(d_rates, hs[kb])
    if not fa <= 0 < fb:
        return float(ts[k]), float(vals[k]), hs[k]
    steps, slope = _zeroin(a, fa, b, fb, BISECT_TOL), None
    while True:
        try:
            t = steps.send(slope)
        except StopIteration as root:
            return (root.value, *priced[root.value])
        priced[t] = yield point(t)
        slope = poly._slope(d_rates, priced[t][1])


def frank_wolfe_minimize(g: DirectedGraph, pi: ProbabilityVector,
                         tol: float = 1e-8, max_iters: int = 10_000,
                         seed: int = 0, extra_starts: int = 4) -> OptimizeReport:
    """Conditional-gradient minimization of F over the cycle polytope.

    Starts from uniform weights over all enumerated cycles (always
    irreducible on a strongly connected graph) plus ``extra_starts`` random
    simplex points with deterministic seeds, and returns the best run.
    Each iteration line-searches toward the best vertex and pairwise from
    the worst supported vertex to it, and takes the step with the lower F.
    A run stops when max_A H_A(L) - F(L) <= tol (converged), when neither
    step moves (the slope at t = 0 is nonnegative on both segments), or after
    ``max_iters`` iterations; the returned report carries the full per-cycle
    certificate either way.  A step lands on a vertex exactly when the slope
    stays negative to the end of its segment.  The runs advance in lockstep,
    one stacked inverse per round (:func:`_lockstep`); each run's path and
    report are those it has alone.

    The gap is a first-order certificate only: non-minimizing stationary
    points satisfy it too (the uniform mixture on a vertex-transitive
    instance is one), which is what the random extra starts are for.

    Raises
    ------
    CycleBudgetExceeded
        Propagated from cycle enumeration when the instance is too large.
    """
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if max_iters < 0 or extra_starts < 0:
        raise ValueError("max_iters and extra_starts must be nonnegative, "
                         f"got {max_iters} and {extra_starts}")
    return _multistart(CyclePolytope(g, pi), tol, max_iters, seed, extra_starts)


def _multistart(poly: CyclePolytope, tol: float, max_iters: int, seed: int,
                extra_starts: int) -> OptimizeReport:
    """The runs of :func:`frank_wolfe_minimize` over a built polytope, which
    ``discrete_time.compare_wedges`` shares with its pattern search.  The
    ``extra_starts + 1`` runs go through :func:`_lockstep` together, and the
    first run with the least F is returned."""
    m = poly.m
    starts = [np.full(m, 1.0 / m)]
    stream = RandomStream(seed)
    for k in range(extra_starts):
        w = stream.spawn(k).simplex(m)
        w = 0.9 * w + 0.1 / m  # keep all cycles slightly active: irreducible start
        starts.append(w / w.sum())
    runs = [_frank_wolfe_single(poly, w0, tol, max_iters) for w0 in starts]
    return min(_lockstep(poly, runs), key=lambda report: report.f_min)


def _lockstep(poly: CyclePolytope, runs: list) -> list:
    """Drive generator ``runs`` in rounds and return what each returns.

    A run yields one request at a time: a (33, m) presample or one point
    (m,) of weights.  It is sent back the F and h of each row, an array and
    a list for a presample, a float and one matrix for a point, with F =
    +inf and h = None on a reducible row.  Each round stacks the requests of
    every active run and answers them all from one
    :meth:`CyclePolytope._kernels`: one ``inv`` and one ``Z @ E`` over at
    most 33 (extra_starts + 1) rows, each of m weights and n x n matrices.
    Numpy inverts and multiplies each matrix of a stack as it would alone,
    and the irreducibility memo reads only a row's bytes, so every run
    follows the path it takes alone, with one inverse per request.
    """
    results = [None] * len(runs)
    requests = {k: next(run) for k, run in enumerate(runs)}
    while requests:
        f, hs = poly._kernels(np.vstack(list(requests.values())))
        row = 0
        for k, request in list(requests.items()):
            if request.ndim == 1:
                answer = float(f[row]), hs[row]
                row += 1
            else:
                answer = f[row:row + len(request)], hs[row:row + len(request)]
                row += len(request)
            try:
                requests[k] = runs[k].send(answer)
            except StopIteration as done:
                results[k] = done.value
                del requests[k]
    return results


def _frank_wolfe_single(poly: CyclePolytope, w0: np.ndarray, tol: float,
                        max_iters: int):
    """One conditional-gradient run from ``w0``, as a generator in the
    request protocol of :func:`_lockstep` that returns its report.  F and
    H_A of an accepted iterate come from the inverse that priced it in its
    line search; only a pairwise step whose normalization ``w2 / w2.sum()``
    changes its bytes asks for the new point again."""
    m = poly.m
    w = w0.copy()
    f, h = yield w
    if h is None:
        raise ValueError("starting point is not irreducible")
    hvals = poly._arcs.means(h)
    iterations = 0
    while iterations < max_iters and hvals.max() - f > tol:
        iterations += 1
        s = int(np.argmax(hvals))
        e_s = np.zeros(m)
        e_s[s] = 1.0

        def toward(t, w=w, e_s=e_s):
            return (1.0 - t) * w + t * e_s

        t1, f1, h1 = yield from _line_search(poly, toward, e_s - w, 1.0)
        cand = [(toward(t1), f1, h1)] if t1 > 0 else []

        support = np.nonzero(w > WEIGHT_FLOOR)[0]
        if len(support) > 1:
            a = int(support[np.argmin(hvals[support])])
            if a != s:
                e_a = np.zeros(m)
                e_a[a] = 1.0

                def pairwise(t, w=w, e_s=e_s, e_a=e_a):
                    return np.maximum(w + t * (e_s - e_a), 0.0)

                t2, f2, h2 = yield from _line_search(poly, pairwise, e_s - e_a, float(w[a]))
                if t2 > 0:
                    w2 = pairwise(t2)
                    x = w2 / w2.sum()
                    cand.append((x, f2, h2 if x.tobytes() == w2.tobytes() else None))

        if not cand:
            break  # neither step moves; gap reported as is
        w, f, h = min(cand, key=lambda c: c[1])
        if h is None:  # normalizing moved the pairwise point: price it anew
            f, h = yield w
        hvals = poly._arcs.means(h)

    gap = float(hvals.max() - f)
    return OptimizeReport(
        cycles=poly.cycles,
        weights=w,
        minimizer=Generator(poly.rates(w)),
        f_min=f,
        certificate=Certificate(h_values=hvals, gap=gap),
        iterations=iterations,
        converged=gap <= tol,
    )


# grid points per stacked f_values call of brute_force_minimize: each
# (block, n, n) temporary holds GRID_BLOCK n^2 doubles
GRID_BLOCK = 4096


def brute_force_minimize(g: DirectedGraph, pi: ProbabilityVector,
                         grid_resolution: int) -> OptimizeReport:
    """Grid scan of the weight simplex; oracle for the conditional-gradient path.

    Enumerates all compositions of ``grid_resolution`` over the cycles
    and evaluates F on every irreducible grid point, ``GRID_BLOCK`` points
    per stacked :meth:`CyclePolytope.f_values`.  More than 6 cycles, the
    scan's own budget, raise :class:`CycleBudgetExceeded`, as enumeration
    past ``graph.CYCLE_BUDGET`` does.
    """
    if grid_resolution < 10:
        raise ValueError("grid_resolution must be at least 10")
    poly = CyclePolytope(g, pi)
    m = poly.m
    if m > 6:
        raise CycleBudgetExceeded(f"{m} cycles; grid search supports at most 6")
    top = grid_resolution + m - 1
    cuts = np.array([(-1, *c, top) for c in itertools.combinations(range(top), m - 1)])
    grid = (np.diff(cuts) - 1) / grid_resolution
    values = np.concatenate([poly.f_values(grid[k:k + GRID_BLOCK])
                             for k in range(0, len(grid), GRID_BLOCK)])
    best_w = grid[int(np.argmin(values))].copy()
    f, hvals = poly.f_and_h(best_w)
    return OptimizeReport(
        cycles=poly.cycles,
        weights=best_w,
        minimizer=Generator(poly.rates(best_w)),
        f_min=f,
        certificate=Certificate(h_values=hvals, gap=float(hvals.max() - f)),
        iterations=len(grid),
        converged=True,
    )


@dataclass(frozen=True)
class StationarityReport(Report):
    f: float
    max_gap: float


def stationarity_check(L: Generator, pi: ProbabilityVector, cycles) -> StationarityReport:
    """First-order optimality certificate at L: F(L) and ``max_gap``.

    At a minimizer, every cycle below L (all arcs carrying positive rate)
    has H_A = F, and every other cycle has H_A <= F; ``max_gap`` is the
    worst violation of the applicable condition over the given cycles.
    """
    kern = hitting_kernel(L, pi)
    arcs = _CycleArcs(cycles)
    hvals = arcs.means(kern.h)
    # the indicator of positive rate has mean 1 exactly on the cycles below L
    below = arcs.means(L.rates > 1e-12) == 1.0
    gaps = np.where(below, np.abs(hvals - kern.f), np.maximum(hvals - kern.f, 0.0))
    return StationarityReport(f=kern.f, max_gap=float(gaps.max()) if len(gaps) else 0.0)


@dataclass(frozen=True)
class EpsilonNeighborhood(Report):
    eps1: float
    eps2: float
    eps: float


def epsilon_neighborhood(n: int, pi_min: float) -> EpsilonNeighborhood:
    """Certified radius around a Hamiltonian-cycle generator.

    Within segment distance eps = min(eps1, eps2) of L_A toward any mixture
    of other cycles, L_A is the unique minimizer of F:
    eps1 = pi_min^4 * ln(1 + 1/(n pi_min^2)) and eps2 = pi_min^12 / 56.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < pi_min <= 1.0 / n:
        raise ValueError("pi_min must lie in (0, 1/n]")
    eps1 = pi_min ** 4 * log(1.0 + 1.0 / (n * pi_min ** 2))
    eps2 = pi_min ** 12 / 56.0
    return EpsilonNeighborhood(eps1=eps1, eps2=eps2, eps=min(eps1, eps2))


def f_wedge(g: DirectedGraph, pi: ProbabilityVector, seed: int = 0) -> float:
    """Best achievable F over the polytope: multi-start conditional gradient
    with eight random starts besides the uniform one.  The grid scan
    :func:`brute_force_minimize` is the oracle it is tested against."""
    return frank_wolfe_minimize(g, pi, seed=seed, extra_starts=8).f_min
