"""Directed graphs, strong connectivity, and exact cycle enumeration.

Graphs are plain arc sets on vertices ``0..n-1`` without self-loops (lazy
holding is modeled elsewhere, not stored as arcs).  Cycles are vertex
sequences identified up to rotation; the stored form starts at the minimal
vertex so cycles can be used as set elements and compared deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DirectedGraph",
    "Cycle",
    "CycleBudgetExceeded",
    "is_strongly_connected",
    "enumerate_simple_cycles",
    "enumerate_hamiltonian_cycles",
    "hypercube_graph",
    "gray_code_cycle",
    "complete_graph",
    "segment_graph",
]

CYCLE_BUDGET = 100_000


class CycleBudgetExceeded(RuntimeError):
    """More simple cycles exist than ``CYCLE_BUDGET`` allows."""


def _as_int(v) -> int:
    """A vertex id or count as an int: Python and numpy integers only, since
    int() would silently truncate a float and read a bool as 0 or 1."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    raise ValueError(f"vertex ids and n must be integers, got {v!r}")


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on vertices 0..n-1; arcs are ordered pairs, no self-loops."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges):
        n = _as_int(n)
        arcs = frozenset((_as_int(i), _as_int(j)) for i, j in edges)
        for i, j in arcs:
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"arc ({i},{j}) out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", arcs)

    def successor_lists(self) -> list:
        """Adjacency as a list of sorted successor lists."""
        out = [[] for _ in range(self.n)]
        for i, j in sorted(self.edges):
            out[i].append(j)
        return out

    def predecessor_lists(self) -> list:
        out = [[] for _ in range(self.n)]
        for i, j in sorted(self.edges):
            out[j].append(i)
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}

    @classmethod
    def from_json(cls, obj: dict) -> "DirectedGraph":
        return cls(obj["n"], [tuple(e) for e in obj["edges"]])


@dataclass(frozen=True)
class Cycle:
    """Simple directed cycle, stored from its minimal vertex; indices wrap.
    Vertex ids are nonnegative Python or numpy integers (``_as_int``)."""

    vertices: tuple = field()

    def __init__(self, vertices):
        verts = tuple(_as_int(v) for v in vertices)
        if len(verts) < 2:
            raise ValueError("a cycle has at least two vertices")
        low = min(verts)
        if low < 0:
            raise ValueError(f"cycle vertex {low} out of range: ids must be nonnegative")
        if len(set(verts)) != len(verts):
            raise ValueError(f"cycle vertices must be distinct: {verts}")
        k = verts.index(low)
        object.__setattr__(self, "vertices", verts[k:] + verts[:k])

    @classmethod
    def _canonical(cls, vertices: tuple) -> "Cycle":
        """The cycle of distinct int vertices already starting at their
        minimum, without the checks and rotation of ``__init__``."""
        cycle = object.__new__(cls)
        object.__setattr__(cycle, "vertices", vertices)
        return cycle

    def __len__(self) -> int:
        return len(self.vertices)

    def __lt__(self, other: "Cycle") -> bool:
        return self.vertices < other.vertices

    def arcs(self) -> list:
        """Consecutive pairs (a_l, a_{l+1}) including the wrap-around arc."""
        v = self.vertices
        return [(v[l], v[(l + 1) % len(v)]) for l in range(len(v))]

    def is_admissible(self, g: DirectedGraph) -> bool:
        return all(a in g.edges for a in self.arcs())

    def to_json(self) -> list:
        return list(self.vertices)


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every vertex reaches every other along directed arcs."""
    adj = np.zeros((g.n, g.n))
    adj[[i for i, _ in g.edges], [j for _, j in g.edges]] = 1.0
    return _support_strongly_connected(adj)


def _support_strongly_connected(rates: np.ndarray) -> bool:
    """True iff the positive off-diagonal entries of ``rates`` form a strongly
    connected digraph, by transitive closure: after k squarings ``reach``
    holds every walk of length up to 2^k, and ceil(log2 n) squarings cover
    the n - 1 steps of any path.  The products run in BLAS and are clamped
    back to 1 after each squaring, so entries stay in {0, 1} instead of
    counting walks, which overflows; no entry of a product exceeds n, so the
    clamp is exact."""
    n = rates.shape[0]
    reach = (rates > 0).astype(float)
    reach.flat[::n + 1] = 1.0
    for _ in range((n - 1).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return bool(reach.all())


def enumerate_simple_cycles(g: DirectedGraph) -> list:
    """All simple directed cycles of length >= 2, canonical and sorted.

    Johnson-style rooted backtracking: for each root ``s`` in increasing
    order, cycles whose minimal vertex is ``s`` are generated by a DFS that
    only visits vertices larger than ``s``, with the usual blocked-set
    mechanism to keep the search output-polynomial.

    ``g`` must be strongly connected (enumeration is used downstream to
    span generator polytopes, which is empty otherwise).  More than
    ``CYCLE_BUDGET`` cycles, read at call time, raise
    :class:`CycleBudgetExceeded`.

    Returns
    -------
    list of Cycle, sorted by vertex tuple.
    """
    if not is_strongly_connected(g):
        raise ValueError("graph must be strongly connected")
    succ = g.successor_lists()
    cycles = []

    for s in range(g.n):
        allowed = [v >= s for v in range(g.n)]
        blocked = [False] * g.n
        blist = [set() for _ in range(g.n)]
        path = [s]

        def unblock(u):
            stack = [u]
            while stack:
                w = stack.pop()
                if blocked[w]:
                    blocked[w] = False
                    stack.extend(blist[w])
                    blist[w].clear()

        def circuit(v) -> bool:
            found = False
            blocked[v] = True
            for w in succ[v]:
                if not allowed[w]:
                    continue
                if w == s:
                    if len(path) >= 2:
                        if len(cycles) >= CYCLE_BUDGET:
                            raise CycleBudgetExceeded(f"more than {CYCLE_BUDGET} simple cycles")
                        # distinct, rooted at their minimum s: canonical as they stand
                        cycles.append(Cycle._canonical(tuple(path)))
                    found = True
                elif not blocked[w]:
                    path.append(w)
                    if circuit(w):
                        found = True
                    path.pop()
            if found:
                unblock(v)
            else:
                for w in succ[v]:
                    if allowed[w] and w != s:
                        blist[w].add(v)
            return found

        circuit(s)

    cycles.sort()
    return cycles


def enumerate_hamiltonian_cycles(g: DirectedGraph) -> list:
    """The cycles through every vertex: the simple cycles of length n, from
    :func:`enumerate_simple_cycles` under its budget and with its errors."""
    return [c for c in enumerate_simple_cycles(g) if len(c) == g.n]


def hypercube_graph(dim: int) -> DirectedGraph:
    """Bidirected discrete cube {0,1}^dim, each undirected edge as two arcs."""
    if not 1 <= dim <= 16:
        raise ValueError("dim must be between 1 and 16")
    n = 1 << dim
    edges = []
    for v in range(n):
        for b in range(dim):
            edges.append((v, v ^ (1 << b)))
    return DirectedGraph(n, edges)


def gray_code_cycle(dim: int) -> Cycle:
    """Reflected-Gray-code Hamiltonian cycle on the dim-cube: g(i) = i ^ (i >> 1)."""
    if not 1 <= dim <= 16:
        raise ValueError("dim must be between 1 and 16")
    return Cycle([i ^ (i >> 1) for i in range(1 << dim)])


def complete_graph(n: int) -> DirectedGraph:
    """Complete directed graph on n vertices (no self-loops)."""
    return DirectedGraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def segment_graph(length: int) -> DirectedGraph:
    """Bidirected path 0 - 1 - ... - length; the length-2 case is the smallest
    strongly connected graph with no Hamiltonian cycle."""
    edges = []
    for i in range(length):
        edges += [(i, i + 1), (i + 1, i)]
    return DirectedGraph(length + 1, edges)
