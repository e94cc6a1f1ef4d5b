"""Exact covering dynamic program over (vertex, unvisited-set) states.

States are pairs (i, A) with A a bitmask over vertices, i not in A.  The
per-step cost is |A| in discrete time and |A|/a_i in continuous time with
per-vertex rate budgets a_i; in both cases the minimized objective is
affine in the randomization of the next vertex, so deterministic successor
choices are optimal and the recursion closes as

    V(i, A) = step_cost(i, |A|) + min_j V(j, A \\ {j}),  V(., {}) = 0,

where j runs over graph successors of i.  Moves to already-visited
vertices stay on the same level |A|, so each level is itself a shortest
path problem.  The levels are filled in increasing |A| (Held and Karp's
subset recursion), each by array operations over all of its masks at
once: one gather for the moves to fresh vertices, then Bellman-Ford
relaxations for the moves within the level, which converge because all
step costs are positive.  Rounding is monotone, so the minimum of the
rounded sums equals the rounded sum of the minimum, and the table is bit
for bit the one a per-mask Dijkstra fills.

The table stores values only.  The policy is derived on demand by one
successor rule (:meth:`ValueTable.next_vertex`): a move i -> j out of
(i, A) costs step_cost(i, |A|) + V(j, A \\ {j}), with A \\ {j} = A when
j is already visited; successors are tried in increasing id and the first
one whose cost is below the best so far by more than 1e-12 wins.

A trajectory achieves the lower bound sum_{k=1..N-1} k = N(N-1)/2 at unit
budgets exactly when every step visits a fresh vertex, i.e. when it traces
a Hamiltonian path; graphs with a Hamiltonian cycle achieve it from every
start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._serialize import Report
from .graph import DirectedGraph, is_strongly_connected

__all__ = [
    "ValueTable",
    "StateSpaceTooLarge",
    "BudgetInvalid",
    "discrete_value_function",
    "continuous_value_function",
    "optimal_budget_search",
    "extract_policy_path",
]

MAX_BITS = 20
# steps of n / BUDGET_GRID in the budget search's coarse scan; at least
# the n <= 6 it allows, so every scan has points with all entries positive
BUDGET_GRID = 12


class StateSpaceTooLarge(RuntimeError):
    """2^n * n states exceed the supported bitmask width."""


class BudgetInvalid(ValueError):
    """Rate budgets must be finite, positive and sum to the vertex count."""


@dataclass(frozen=True)
class ValueTable:
    """Optimal cost-to-go V(i, A), with the successor lists and the step cost
    it was solved with, so that any move can be scored on demand.

    ``values[i, A]`` is only meaningful for valid states (bit i not in A).
    ``budgets`` is None for the discrete table and the per-vertex rate
    vector otherwise.
    """

    n: int
    values: np.ndarray
    successors: list
    step_cost: Callable
    budgets: np.ndarray | None = None

    def value(self, i: int, mask: int) -> float:
        if mask & (1 << i):
            raise ValueError(f"vertex {i} cannot be in its own unvisited set")
        return float(self.values[i, mask])

    def start_value(self, start: int) -> float:
        """Cost of covering all other vertices from ``start``."""
        full = (1 << self.n) - 1
        return self.value(start, full ^ (1 << start))

    def _moves(self, i: int, mask: int) -> list:
        """(cost, j) of every move out of vertex i with unvisited set
        ``mask``, in increasing j.  When i itself is in ``mask`` (the
        full-set query) the discrete chain may also stay put: the lazy
        self-loop revisits i at once; a continuous chain has no
        self-transition."""
        targets = self.successors[i]
        if self.budgets is None and (mask >> i) & 1:
            targets = sorted([*targets, i])
        step = self.step_cost(i, mask.bit_count())
        return [(step + self.values[j, mask & ~(1 << j)], j) for j in targets]

    def next_vertex(self, i: int, mask: int) -> int:
        """The successor rule: the first move in increasing id whose cost is
        below the best so far by more than 1e-12."""
        best, arg = np.inf, -1
        for cost, j in self._moves(i, mask):
            if cost < best - 1e-12:
                best, arg = cost, j
        return arg

    def full_visit_value(self, start: int) -> float:
        """Cost when ``start`` itself also remains to be (re)visited: the
        first move pays n per unit of its duration.

        Raises ``ValueError`` when ``start`` has no move: a continuous chain
        on one vertex can never return to it, so the value is +inf."""
        moves = self._moves(start, (1 << self.n) - 1)
        if not moves:
            raise ValueError(f"vertex {start} has no move, so it is never revisited")
        return float(min(cost for cost, _ in moves))

    def mean_start_value(self) -> float:
        return float(np.mean([self.start_value(i) for i in range(self.n)]))


def _solve_table(g: DirectedGraph, step_cost, terminal=None) -> ValueTable:
    """Fill V(i, A) one popcount level at a time, each level by array
    operations over all of its masks at once.

    ``step_cost(i, size)`` is the positive cost of one move out of vertex i
    while ``size`` vertices remain unvisited; ``terminal`` optionally
    charges a per-vertex cost at the state where nothing is left.

    For a level of masks m, the fresh moves i -> j (j in m) read
    V(j, m ^ {j}) from the level below in one gather; the same gather at a
    j outside m lands on the never-written invalid state (j, m | {j}) and
    yields inf.  A row-wise minimum over the successors (padded with an
    all-inf sentinel row) plus the step cost gives the fresh values, which
    equal the per-successor minimum bit for bit: rounding is monotone, so
    min_j fl(s + v_j) == fl(s + min_j v_j).  Moves to visited vertices stay
    on the level and are relaxed Bellman-Ford style,
    cur = min(cur, step + min_{j in succ} cur[j]), until nothing changes;
    costs are positive, so a shortest walk visits each of the n - |m|
    outside vertices at most once and the fixed point is the Dijkstra
    distance.
    """
    n = g.n
    if n > MAX_BITS:
        raise StateSpaceTooLarge(f"n={n} exceeds {MAX_BITS}-bit subsets")
    if not is_strongly_connected(g):
        raise ValueError("graph must be strongly connected")
    succ = g.successor_lists()
    size = 1 << n
    values = np.full((n, size), np.inf)
    values[:, 0] = 0.0 if terminal is None else terminal

    # successor table padded with the sentinel row n, at least one column
    # wide so that a lone vertex without arcs still has a (sentinel) column
    width = max([1, *map(len, succ)])
    table = np.full((n, width), n)
    for i, s in enumerate(succ):
        table[i, :len(s)] = s

    rows = np.arange(n)[:, None]
    bits = 1 << rows
    popcount = sum((np.arange(size) >> b) & 1 for b in range(n))
    order = np.argsort(popcount, kind="stable")
    counts = np.bincount(popcount)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    # rows 0..n-1 are overwritten per level; row n stays the inf sentinel
    buf = np.full((n + 1, int(counts.max())), np.inf)

    def relax(cost, level_buf):
        """cost[i] + min over successors j of level_buf[j], reduced one
        successor column at a time so no (n, width, masks) array is built."""
        best = level_buf[table[:, 0]]
        for c in range(1, width):
            np.minimum(best, level_buf[table[:, c]], out=best)
        best += cost
        return best

    for level in range(1, n + 1):
        level_masks = order[bounds[level]:bounds[level + 1]]
        # the step cost of each vertex, inf where it lies inside the mask
        step = np.array([step_cost(i, level) for i in range(n)], dtype=float)
        cost = np.where((level_masks >> rows) & 1, np.inf, step[:, None])
        level_buf = buf[:, :len(level_masks)]
        level_buf[:n] = values[rows, level_masks ^ bits]
        cur = relax(cost, level_buf)
        while True:
            level_buf[:n] = cur
            cand = relax(cost, level_buf)
            if not (cand < cur).any():
                break
            np.minimum(cur, cand, out=cur)
        values[:, level_masks] = cur
    return ValueTable(n=n, values=values, successors=succ, step_cost=step_cost)


def discrete_value_function(g: DirectedGraph) -> ValueTable:
    """Unit-cost-per-remaining-vertex covering DP; exact for n <= 20
    (``MAX_BITS``).  The table holds n 2^n floats: at n = 20 it takes about
    3 s of CPU and 450 MB peak memory (one x86-64 core, numpy 2.4 with
    OpenBLAS), at n = 16 about 0.1 s and 60 MB.  The canonical query is
    ``table.start_value(start)``."""
    return _solve_table(g, lambda i, size: float(size))


def continuous_value_function(g: DirectedGraph, budgets) -> ValueTable:
    """Covering DP with exponential sojourns at per-vertex rate budgets.

    ``budgets`` must be finite, positive and sum to n within 1e-9 (the
    equilibrium normalization with uniform invariant measure).  The optimal
    policy puts the whole rate budget of the current vertex on a single
    successor, so the recursion is V(i, A) = |A|/a_i + min_j V(j, A \\ {j}).
    """
    a = np.asarray(budgets, dtype=float)
    if a.shape != (g.n,) or not np.all(np.isfinite(a) & (a > 0)):
        raise BudgetInvalid("budgets must be finite and positive, one per vertex")
    if abs(a.sum() - g.n) > 1e-9:
        raise BudgetInvalid(f"budgets must sum to n={g.n}, got {float(a.sum())!r}")
    return replace(_solve_table(g, lambda i, size: size / a[i]), budgets=a)


def extract_policy_path(table: ValueTable, start: int) -> list:
    """Follow the successor rule from ``start`` until the unvisited set
    empties.

    On graphs where the optimum equals the Hamiltonian-path bound the
    result visits every vertex exactly once.
    """
    n = table.n
    mask = ((1 << n) - 1) ^ (1 << start)
    path = [start]
    current = start
    guard = 0
    while mask:
        current = table.next_vertex(current, mask)
        path.append(current)
        mask &= ~(1 << current)
        guard += 1
        if guard > n * (1 << n):
            raise RuntimeError("policy walk did not terminate")
    return path


@dataclass(frozen=True)
class BudgetSearchResult(Report):
    best_budgets: np.ndarray
    best_value: float


def optimal_budget_search(g: DirectedGraph) -> BudgetSearchResult:
    """Minimize the expected time to cover the graph over rate budgets on
    the simplex sum a = n.

    A visit to vertex i costs its expected sojourn 1/a_i, the terminal one
    too, and the value is averaged over the start vertices.  On a
    Hamiltonian graph it is at least sum_i 1/a_i >= n by AM-HM, with
    equality exactly at the all-ones budget, which the search recovers.
    A coarse scan of the budgets with entries in multiples of
    n / ``BUDGET_GRID`` is followed by pairwise coordinate descent.
    """
    n = g.n
    if n > 6:
        raise StateSpaceTooLarge("budget search supported for n <= 6")

    def objective(a: np.ndarray) -> float:
        table = _solve_table(g, lambda i, size: 1.0 / a[i], terminal=1.0 / a)
        return table.mean_start_value()

    best_a, best_v = None, np.inf
    for comp in itertools.combinations(range(BUDGET_GRID - 1), n - 1):
        a = np.diff([-1, *comp, BUDGET_GRID - 1]) * (n / BUDGET_GRID)
        v = objective(a)
        if v < best_v:
            best_v, best_a = v, a

    # pairwise transfer polish with shrinking step
    step = float(n) / BUDGET_GRID
    a = best_a.copy()
    while step > 1e-4:
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                cand = a.copy()
                cand[i] += step
                cand[j] -= step
                if cand[j] <= 1e-9:
                    continue
                v = objective(cand)
                if v < best_v - 1e-13:
                    best_v, a = v, cand
                    improved = True
        if not improved:
            step /= 2.0
    return BudgetSearchResult(best_budgets=a, best_value=float(best_v))

