"""Seeded instance families for the benchmark workloads.

Everything here uses numpy's PCG64 generator and plain numpy, never the
package under test: the program only ever sees the JSON files written from
these instances.  No instance is re-drawn, whatever the program does with it.
"""

from __future__ import annotations

import numpy as np

WORKLOAD_TAGS = {"eval": 1, "derivatives": 2, "optimize": 3, "dp": 4}

EXTRA_ARC_SHARE = 0.3
WEIGHT_DECADES = 3.0


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, WORKLOAD_TAGS[workload]])))


def random_pi(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive measure with entries within a factor 3 of each other."""
    w = 0.5 + rng.random(n)
    return w / w.sum()


def log_uniform_weights(rng: np.random.Generator, k: int, decades: float = WEIGHT_DECADES) -> np.ndarray:
    """k barycentric weights, log-uniform over ``decades`` decades."""
    w = 10.0 ** rng.uniform(-decades, 0.0, k)
    return w / w.sum()


def ham_digraph(rng: np.random.Generator, n: int, share: float = EXTRA_ARC_SHARE) -> tuple:
    """Random Hamiltonian digraph: a random permutation cycle plus a uniformly
    chosen ``share`` of the other ordered pairs.  The number of arcs is fixed
    by n, so the cost of an operation varies less from graph to graph.
    Returns (arcs, tour)."""
    tour = [int(v) for v in rng.permutation(n)]
    arcs = {(tour[i], tour[(i + 1) % n]) for i in range(n)}
    others = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in arcs]
    pick = rng.choice(len(others), size=round(share * len(others)), replace=False)
    return sorted(arcs | {others[k] for k in pick}), tour


def complete_arcs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def simple_cycles(n: int, arcs) -> list:
    """All simple directed cycles, each as a vertex tuple starting at its
    minimal vertex, sorted.  Plain backtracking; meant for n <= 8."""
    succ = [[] for _ in range(n)]
    for i, j in sorted(arcs):
        succ[i].append(j)
    out = []
    for s in range(n):
        path = [s]
        on_path = [False] * n
        on_path[s] = True

        def extend(v):
            for w in succ[v]:
                if w == s and len(path) >= 2:
                    out.append(tuple(path))
                elif w > s and not on_path[w]:
                    on_path[w] = True
                    path.append(w)
                    extend(w)
                    path.pop()
                    on_path[w] = False

        extend(s)
    return sorted(out)


def cycle_rates(pi: np.ndarray, cycle) -> np.ndarray:
    """Unit-speed pi-invariant generator tracing one cycle: the rate out of
    a_l is 1 / (len(cycle) pi(a_l))."""
    n = len(pi)
    R = np.zeros((n, n))
    m = len(cycle)
    for l, a in enumerate(cycle):
        b = cycle[(l + 1) % m]
        R[a, b] = 1.0 / (m * pi[a])
        R[a, a] = -R[a, b]
    return R


def mixture_rates(pi: np.ndarray, cycles, weights) -> np.ndarray:
    """sum_A w_A L_A with the diagonal reset so that rows sum to zero exactly
    in floating point (the program validates row sums at 1e-12)."""
    R = np.zeros((len(pi), len(pi)))
    for c, w in zip(cycles, weights):
        R += w * cycle_rates(pi, c)
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


def generator_json(R: np.ndarray) -> dict:
    return {"n": int(R.shape[0]), "rates": R.tolist()}


def graph_json(n: int, arcs) -> dict:
    return {"n": int(n), "edges": [list(a) for a in sorted(arcs)]}


# --- per-workload families -------------------------------------------------

EVAL_SIZES = (64, 96, 128)
EVAL_CYCLES = 6


def expected_jumps(R: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Expected number of jumps from x until y is hit, for all pairs, from
    the fundamental matrix of the jump chain (whose stationary law is
    proportional to pi(x) L(x))."""
    q = -np.diag(R)
    P = R / q[:, None]
    np.fill_diagonal(P, 0.0)
    nu = pi * q / (pi @ q)
    Z = np.linalg.inv(np.eye(len(pi)) - P + nu[None, :])
    return (np.diag(Z)[None, :] - Z) / nu[None, :]


def eval_instance(rng: np.random.Generator, n: int) -> dict:
    """Mixture of EVAL_CYCLES random cycles on n vertices, the first one
    Hamiltonian (so the mixture is irreducible), plus a Monte Carlo spot
    check: a pair (x, y) and a stream seed.  The Monte Carlo cost grows with
    the number of jumps from x to y, which reaches 1e5 on stiff mixtures, so
    the pair is drawn among those expected to take at most n jumps."""
    pi = random_pi(rng, n)
    cycles = [tuple(int(v) for v in rng.permutation(n))]
    for _ in range(EVAL_CYCLES - 1):
        k = int(rng.integers(2, n + 1))
        cycles.append(tuple(int(v) for v in rng.choice(n, size=k, replace=False)))
    weights = log_uniform_weights(rng, EVAL_CYCLES)
    R = mixture_rates(pi, cycles, weights)
    J = expected_jumps(R, pi)
    np.fill_diagonal(J, np.inf)
    xs, ys = np.nonzero(J <= n)
    if len(xs):
        k = int(rng.integers(len(xs)))
        x, y = int(xs[k]), int(ys[k])
    else:
        x, y = (int(v) for v in np.unravel_index(np.argmin(J), J.shape))
    return {
        "n": n, "pi": pi, "cycles": cycles, "weights": weights, "rates": R,
        "mc": (x, y, int(rng.integers(0, 2 ** 31))),
    }


DERIV_SIZES = (6, 7, 8)
# Three decades, as in ``eval``, make about one instance in a thousand so
# stiff that the program exits 2: its second-derivative cross-check compares
# two routes at an absolute 1e-8, and on instances where H reaches 3.5e4 or
# more they differ by 1e-12 relative, which is more (11 of 10800 instances,
# seeds 101-130; e.g. seed 110, pool index 201).  A workload must not fail,
# so the weights span one decade: over 36000 instances (seeds 101-200) the
# largest H entry was then 3.7e3, ten times below the smallest failing one.
# The weights do not change the work of an operation, only its numbers.
DERIV_WEIGHT_DECADES = 1.0


def derivatives_instance(rng: np.random.Generator, n: int) -> dict:
    """Random Hamiltonian digraph; the generator mixes all of its simple
    cycles with log-uniform weights.  ``fd_cycle`` indexes the cycle whose
    second derivative is checked by finite differences."""
    arcs, _ = ham_digraph(rng, n)
    cycles = simple_cycles(n, arcs)
    pi = random_pi(rng, n)
    weights = log_uniform_weights(rng, len(cycles), DERIV_WEIGHT_DECADES)
    return {
        "n": n, "pi": pi, "arcs": arcs, "cycles": cycles, "weights": weights,
        "rates": mixture_rates(pi, cycles, weights), "fd_cycle": int(rng.integers(len(cycles))),
    }


OPT_N = 3


def optimize_instance(rng: np.random.Generator) -> dict:
    """The complete digraph on OPT_N vertices with a random pi.  Larger
    graphs were tried and left out: K4 operations vary too much with pi
    (log-sd 0.37) for a steady run, and random Hamiltonian digraphs with
    n = 5..7 range from 0.06 s to over 30 s per operation."""
    return {"n": OPT_N, "pi": random_pi(rng, OPT_N), "arcs": complete_arcs(OPT_N)}


# One round of the dp workload: n = 11 and 12 in both modes, then n = 13 in
# discrete mode.  Five classes put the median of a run inside the middle
# pair (11 continuous and 12 discrete, about 0.12 s each) and the tail inside
# the top pair (12 continuous and 13 discrete, 0.25 and 0.28 s), so neither
# jumps between classes with the number of operations.  Larger tables were
# tried and left out.  With n = 12..14 in both modes, six classes put the
# median in the gap between 0.3 s and 0.6 s operations, where it moved by
# 0.11 of itself from seed to seed.  Operations of 0.6-1.3 s (13 continuous,
# 14 in either mode) outlast the swings of host speed that the normalization
# follows (see hostspeed.py): within one run, the normalized times of one
# class spread from 0.40 to 0.78 s, and the tail moved by 0.11 between runs.
DP_CLASSES = ((11, "discrete"), (11, "continuous"), (12, "discrete"), (12, "continuous"),
              (13, "discrete"))


def dp_instance(rng: np.random.Generator, n: int, mode: str) -> dict:
    """Random Hamiltonian digraph; continuous mode gets positive budgets
    summing to n."""
    arcs, tour = ham_digraph(rng, n)
    inst = {"n": n, "arcs": arcs, "tour": tour, "mode": mode, "budgets": None}
    if mode == "continuous":
        b = 0.5 + rng.random(n)
        inst["budgets"] = b * (n / b.sum())
    return inst
