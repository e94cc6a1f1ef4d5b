import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fastchain import optimizer
from fastchain.eigentime import hitting_kernel, inverse_speed
from fastchain.experiments import triangle_leaf_graph
from fastchain.generator import Generator, ProbabilityVector, cycle_generator
from fastchain.graph import (
    Cycle,
    CycleBudgetExceeded,
    DirectedGraph,
    _support_strongly_connected,
    complete_graph,
    segment_graph,
)
from fastchain.optimizer import (
    BISECT_TOL,
    PRESAMPLES,
    CyclePolytope,
    _line_search,
    _zeroin,
    brute_force_minimize,
    epsilon_neighborhood,
    f_wedge,
    frank_wolfe_minimize,
    stationarity_check,
)
from fastchain.rng import RandomStream

from conftest import (
    closure_oracle,
    cycle_rates_oracle,
    f_value_oracle,
    random_ham_digraph,
    random_member,
    random_pi,
    stationarity_oracle,
)


def test_k3_uniform_minimizer_is_hamiltonian(pi3):
    report = frank_wolfe_minimize(complete_graph(3), pi3, seed=1)
    assert report.converged
    assert abs(report.f_min - 1.0) <= 1e-8
    candidates = [cycle_generator(pi3, Cycle([0, 1, 2])).rates,
                  cycle_generator(pi3, Cycle([0, 2, 1])).rates]
    dist = min(np.abs(report.minimizer.rates - c).max() for c in candidates)
    assert dist <= 1e-8


def test_s2_uniform_mixture(pi3, s2):
    report = frank_wolfe_minimize(s2, pi3, seed=1)
    assert abs(report.f_min - 16.0 / 9.0) <= 1e-6
    assert_allclose(report.weights, [0.5, 0.5], atol=1e-4)


def test_s2_generic_weights(s2):
    pi = ProbabilityVector([0.2, 0.3, 0.5])
    report = frank_wolfe_minimize(s2, pi, seed=1)
    assert abs(report.f_min - 1.62) <= 1e-6
    w01 = report.weights[[c.vertices for c in report.cycles].index((0, 1))]
    assert abs(w01 - 4.0 / 9.0) <= 1e-4


def test_iterates_monotone_certificate(s2):
    pi = ProbabilityVector([0.15, 0.45, 0.4])
    report = frank_wolfe_minimize(s2, pi, seed=2)
    assert report.converged
    assert report.certificate.gap <= 1e-8
    assert abs(inverse_speed(report.minimizer, pi) - report.f_min) <= 1e-10
    assert report.weights.min() >= 0 and abs(report.weights.sum() - 1) <= 1e-12


@pytest.mark.parametrize("segments", [2, 3])
def test_frank_wolfe_converges_on_segment_graphs(segments):
    """Near the optimum a step gains about 1e-16 in F, below its rounding; a
    line search that compares F values stalls there with gaps up to 6e-8.
    The search on the sign of the exact slope closes the gap at the default
    tol from every seed."""
    g = segment_graph(segments)
    pi = ProbabilityVector.uniform(g.n)
    for seed in range(60):
        report = frank_wolfe_minimize(g, pi, seed=seed)
        assert report.converged and report.certificate.gap <= 1e-8, seed


def test_frank_wolfe_converges_on_k5_skewed_pi():
    pi = ProbabilityVector(np.arange(1, 6) / 15.0)
    report = frank_wolfe_minimize(complete_graph(5), pi, seed=0)
    assert report.converged and report.certificate.gap <= 1e-8
    assert abs(inverse_speed(report.minimizer, pi) - report.f_min) <= 1e-12


def test_slope_is_the_closed_form_derivative():
    """The slope of CyclePolytope.slope_and_f along L_A - L is F - H_A,
    along L_A - L_B it is H_B - H_A, and both match central differences of
    F."""
    stream = RandomStream(403)
    poly = CyclePolytope(complete_graph(4), random_pi(stream, 4))
    w = stream.spawn(0).simplex(poly.m)
    f, hvals = poly.f_and_h(w)
    eye = np.eye(poly.m)
    for s, a in ((0, 5), (3, 1), (7, 2)):
        for d, closed in ((eye[s] - w, f - hvals[s]), (eye[s] - eye[a], hvals[a] - hvals[s])):
            slope, _ = poly.slope_and_f(w, poly.rates(d))
            assert abs(slope - closed) <= 1e-12
            step = 1e-6
            diff = (poly.f_values([w + step * d])[0] - poly.f_values([w - step * d])[0]) / (2 * step)
            assert abs(slope - diff) <= 1e-7
    e_0 = eye[0]
    assert poly.slope_and_f(e_0, poly.rates(e_0))[0] == np.inf  # a 2-cycle alone is reducible


def test_brute_force_s2(pi3, s2):
    report = brute_force_minimize(s2, pi3, 1000)
    assert abs(report.f_min - 16.0 / 9.0) <= 1e-4


def test_brute_force_singleton():
    tri = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    report = brute_force_minimize(tri, ProbabilityVector.uniform(3), 10)
    assert_allclose(report.weights, [1.0])
    assert abs(report.f_min - 1.0) <= 1e-12


def test_brute_force_blocks_pick_the_per_point_minimizer(monkeypatch):
    """The grid scored in stacked blocks of 7 rows (1820 points, with
    reducible ones among them) picks the point, and gives the bits, of the
    one-point-at-a-time route."""
    k3, pi = complete_graph(3), ProbabilityVector([0.1, 0.3, 0.6])
    monkeypatch.setattr(optimizer, "GRID_BLOCK", 7)
    blocked = brute_force_minimize(k3, pi, 12)
    stacked = CyclePolytope.f_values
    monkeypatch.setattr(CyclePolytope, "f_values",
                        lambda self, ws: np.concatenate([stacked(self, [w]) for w in ws]))
    single = brute_force_minimize(k3, pi, 12)
    assert blocked.iterations == single.iterations == 1820
    assert blocked.weights.tobytes() == single.weights.tobytes()
    assert (blocked.f_min, blocked.certificate.gap) == (single.f_min, single.certificate.gap)


def test_brute_force_cycle_cap():
    with pytest.raises(CycleBudgetExceeded):
        brute_force_minimize(complete_graph(4), ProbabilityVector.uniform(4), 10)


def test_brute_force_agrees_with_frank_wolfe_near_uniform():
    stream = RandomStream(400)
    k3 = complete_graph(3)
    for t in range(5):
        s = stream.spawn(t)
        w = 1.0 / 3 + 0.02 * (s.uniform(3) - 0.5)
        pi = ProbabilityVector(w / w.sum())
        fw = frank_wolfe_minimize(k3, pi, seed=t, extra_starts=6)
        bf = brute_force_minimize(k3, pi, 30)
        assert fw.f_min <= bf.f_min + 1e-9  # grid can only be coarser
        assert abs(fw.f_min - bf.f_min) <= 1e-4
    # f_wedge runs no grid scan of its own: on few-cycle graphs with skewed
    # pi the grid still never beats it
    for t, g in enumerate((segment_graph(2), segment_graph(3), triangle_leaf_graph())):
        w = np.arange(1.0, g.n + 1.0) ** 2
        pi = ProbabilityVector(w / w.sum())
        assert f_wedge(g, pi, seed=t) <= brute_force_minimize(g, pi, 60).f_min + 1e-9


def test_stationarity_at_known_minimizers(pi3, s2):
    from fastchain.experiments import s2_closed_form
    from fastchain.graph import enumerate_simple_cycles

    rep = s2_closed_form(pi3)
    station = stationarity_check(rep.generator, pi3, enumerate_simple_cycles(s2))
    assert station.max_gap <= 1e-8

    L = cycle_generator(pi3, Cycle([0, 1, 2]))
    cycles = enumerate_simple_cycles(complete_graph(3))
    station = stationarity_check(L, pi3, cycles)
    assert station.max_gap <= 1e-10
    assert (station.f, station.max_gap) == stationarity_oracle(L, pi3, cycles)
    kern = hitting_kernel(L, pi3)
    for c in cycles:
        h = kern.h_cycle(c)
        if all(L.rates[a, b] > 1e-12 for a, b in c.arcs()):
            assert abs(h - station.f) <= 1e-10
        else:
            assert h <= station.f - (3 - 1) / (2 * 3) + 1e-10


def test_stationarity_flags_interior_non_minimizer(pi3):
    from fastchain.generator import CycleDecomposition, combine
    from fastchain.graph import enumerate_simple_cycles

    cycles = enumerate_simple_cycles(complete_graph(3))
    skew = CycleDecomposition([(cycles[0], 0.6), (cycles[1], 0.25), (cycles[2], 0.15)])
    L = combine(skew, pi3)
    station = stationarity_check(L, pi3, cycles)
    assert station.max_gap > 1e-3


def test_epsilon_neighborhood_values():
    eps = epsilon_neighborhood(3, 1.0 / 3.0)
    assert abs(eps.eps1 - np.log(4.0) / 81.0) <= 1e-15
    assert abs(eps.eps2 - 3.0 ** -12 / 56.0) <= 1e-22
    assert eps.eps == eps.eps2


def test_epsilon_neighborhood_monotone_and_vanishing():
    for n in (3, 5):
        values = [epsilon_neighborhood(n, p).eps
                  for p in np.linspace(1e-4, 1.0 / n, 25)]
        assert all(b >= a - 1e-18 for a, b in zip(values, values[1:]))
    assert epsilon_neighborhood(4, 1e-6).eps < 1e-20
    with pytest.raises(ValueError):
        epsilon_neighborhood(3, 0.5)


def test_f_wedge_examples(pi3, s2):
    assert abs(f_wedge(complete_graph(3), pi3, seed=4) - 1.0) <= 1e-8
    assert abs(f_wedge(s2, pi3, seed=4) - 16.0 / 9.0) <= 1e-6
    # feasibility upper bound through any Hamiltonian generator
    from fastchain.eigentime import hamiltonian_speed_value
    pi = ProbabilityVector([0.5, 0.2, 0.3])
    assert f_wedge(complete_graph(3), pi, seed=4) <= hamiltonian_speed_value(pi) + 1e-10


def test_polytope_of_graph_without_cycles_is_refused():
    # the one strongly connected graph without a cycle is a single vertex
    with pytest.raises(ValueError, match="no cycle"):
        CyclePolytope(DirectedGraph(1, []), ProbabilityVector.uniform(1))


def test_polytope_fast_path_matches_anchored_solves(pi3):
    """The optimizer's fundamental-matrix route agrees with the public
    anchored-solve operations for F and the per-cycle H values."""
    from fastchain.eigentime import hitting_kernel
    from fastchain.generator import Generator
    from fastchain.optimizer import CyclePolytope

    from conftest import f_reference

    stream = RandomStream(402)
    poly = CyclePolytope(complete_graph(4), random_pi(stream, 4))
    for t in range(5):
        w = stream.spawn(t).simplex(poly.m)
        w = 0.8 * w + 0.2 / poly.m
        w = w / w.sum()
        f, hvals = poly.f_and_h(w)
        assert abs(f - f_reference(poly.rates(w), poly.pi)) <= 1e-10
        member = Generator(poly.rates(w))
        for k in (0, 3, 7):
            assert abs(hvals[k] - hitting_kernel(member, poly.pi).h_cycle(poly.cycles[k])) <= 1e-9


def test_f_wedge_empirical_continuity(pi3):
    k3 = complete_graph(3)
    base = f_wedge(k3, pi3, seed=5)
    stream = RandomStream(401)
    for t in range(3):
        delta = stream.spawn(t).uniform(3) - 0.5
        delta -= delta.mean()
        delta *= 1e-3 / np.abs(delta).sum()
        pi = ProbabilityVector(1.0 / 3 + delta)
        assert abs(f_wedge(k3, pi, seed=5) - base) <= 0.05


def test_support_reachability_does_not_overflow():
    """Walk counts on a dense 300-vertex support overflow a float, and inf * 0
    gives NaN, which is truthy.  No arcs into vertex 0 must still read as
    reducible; one arc into it makes the support strongly connected.  (A
    CyclePolytope on such a support would need its astronomically many cycles
    enumerated, so the test calls the closure behind CyclePolytope._irreducible.)"""
    n = 300
    rates = np.ones((n, n))
    rates[:, 0] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    assert not _support_strongly_connected(rates)
    rates[1, 0], rates[1, 1] = 1.0, rates[1, 1] - 1.0
    assert _support_strongly_connected(rates)


def irreducible(poly, w) -> bool:
    return poly._irreducible(poly.rates(w) > 0)


def test_irreducibility_of_small_supports():
    pi = ProbabilityVector.uniform(4)
    poly = CyclePolytope(complete_graph(4), pi)
    for k, c in enumerate(poly.cycles):
        w = np.zeros(poly.m)
        w[k] = 1.0
        assert irreducible(poly, w) == (len(c) == 4)
    assert irreducible(poly, np.full(poly.m, 1.0 / poly.m))


POLYTOPE_GRAPHS = {"K3": complete_graph(3), "K4": complete_graph(4),
                   "S2": segment_graph(2), "S3": segment_graph(3)}
SMALLEST_SUBNORMAL = 5e-324


def _outcome(fn, *args):
    """fn(*args), or "singular" where it raises LinAlgError: a subnormal
    weight can make a support irreducible while Pi - L is singular in
    floating point, and then both routes must raise."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except np.linalg.LinAlgError:
        return "singular"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(POLYTOPE_GRAPHS)), st.integers(0, 2 ** 32 - 1))
def test_polytope_evaluations_are_bitwise_the_per_point_route(name, seed):
    """f_values (of a stack and of one row), rates and the irreducibility
    verdict equal the plain per-point route exactly (==, no tolerance, the
    same LinAlgError where it raises) along line-search segments: toward a
    vertex (reducible unless Hamiltonian) and pairwise, from points with zero
    weights and with a subnormal weight whose terms may underflow.  Each
    finite F is also the F of the mixture's own kernel, bit for bit."""
    g = POLYTOPE_GRAPHS[name]
    stream = RandomStream(seed)
    poly = CyclePolytope(g, random_pi(stream.spawn(0), g.n, spread=0.9))
    m = poly.m
    mats = np.stack([cycle_rates_oracle(poly.pi.weights, c) for c in poly.cycles])
    u = stream.spawn(1).uniform(m + 4)
    w = stream.spawn(2).simplex(m)
    w[u[:m] < 0.4] = 0.0
    if u[m] < 0.5:
        w[int(u[m + 1] * m)] = SMALLEST_SUBNORMAL
    s, a = int(u[m + 2] * m), int(u[m + 3] * m)
    e_s, e_a = np.eye(m)[s], np.eye(m)[a]
    ts = np.linspace(0.0, 1.0, 33)[:, None]
    stacks = [(1.0 - ts) * w + ts * e_s,
              np.maximum(w + (w[a] * ts) * (e_s - e_a), 0.0)]
    for ws in stacks:
        expect = [_outcome(f_value_oracle, poly, x) for x in ws]
        stacked = _outcome(poly.f_values, ws)
        assert stacked == "singular" if "singular" in expect else stacked.tolist() == expect
        assert [_outcome(lambda x: poly.f_values([x])[0], x) for x in ws] == expect
        for x, f in zip(ws, expect):
            rates = np.tensordot(x, mats, axes=1)
            assert np.array_equal(poly.rates(x), rates)
            assert irreducible(poly, x) == closure_oracle(rates)
            if f not in ("singular", np.inf):
                assert hitting_kernel(Generator(poly.rates(x)), poly.pi).f == f


@pytest.mark.parametrize("tiny_first", [False, True])
def test_irreducibility_memo_follows_underflow(tiny_first):
    """A positive weight whose term w * rate rounds to 0 on one arc removes
    that arc from the support: with pi = (0.8, 0.1, 0.1) the 3-cycle's rate
    out of vertex 0 is 1/2.4, and the smallest subnormal times it is 0, while
    its other two arcs stay positive.  The same weight support with a normal
    weight is irreducible; the verdicts must not leak into each other in
    either order of evaluation."""
    poly = CyclePolytope(complete_graph(3), ProbabilityVector([0.8, 0.1, 0.1]))
    index = {c.vertices: k for k, c in enumerate(poly.cycles)}
    normal = np.zeros(poly.m)
    normal[[index[(1, 2)], index[(0, 1, 2)]]] = 0.5
    tiny = normal.copy()
    tiny[index[(0, 1, 2)]] = SMALLEST_SUBNORMAL
    rates = poly.rates(tiny)
    assert rates[0, 1] == 0.0 and rates[2, 0] > 0.0 and not closure_oracle(rates)
    order = [tiny, normal] if tiny_first else [normal, tiny]
    for w in order:
        assert irreducible(poly, w) == (w is normal)
        assert poly.f_values([w])[0] == f_value_oracle(poly, w)
    assert poly.f_values(np.stack(order)).tolist() == [f_value_oracle(poly, w) for w in order]
    assert poly.f_values([tiny])[0] == np.inf and np.isfinite(poly.f_values([normal])[0])


@pytest.mark.parametrize("n", [4, 5])
def test_polytope_h_values_are_the_kernels_h_cycle(n):
    """f_and_h's H_A equal the kernel's h_cycle of the same mixture exactly:
    both invert the same Pi - L once, and the grouped mean is each cycle's
    own mean."""
    stream = RandomStream(500 + n)
    poly = CyclePolytope(complete_graph(n), random_pi(stream, n))
    for t in range(3):
        w = 0.8 * stream.spawn(t).simplex(poly.m) + 0.2 / poly.m
        w = w / w.sum()
        _, hvals = poly.f_and_h(w)
        kern = hitting_kernel(Generator(poly.rates(w)), poly.pi)
        assert hvals.tolist() == [kern.h_cycle(c) for c in poly.cycles]


def test_stationarity_check_is_the_per_cycle_loop():
    """f and max_gap equal the cycle-by-cycle oracle exactly:
    at interior mixtures, at mixtures with some cycles off the support, on
    cycles of length up to 10, and for an empty cycle list."""
    stream = RandomStream(510)
    graphs = [complete_graph(4), complete_graph(5),
              random_ham_digraph(10, stream.spawn(0), extra=0.1)]
    for t, g in enumerate(graphs):
        s = stream.spawn(t + 1)
        pi = random_pi(s, g.n)
        L, cycles, _ = random_member(g, pi, s)
        # a Hamiltonian cycle keeps the support irreducible
        keep = [next(c for c in cycles if len(c) == g.n), cycles[0]]
        sparse = Generator(sum(cycle_generator(pi, c).rates for c in keep) / len(keep))
        for M, cs in [(L, cycles), (sparse, cycles), (L, [])]:
            station = stationarity_check(M, pi, cs)
            assert (station.f, station.max_gap) == stationarity_oracle(M, pi, cs)
        # some cycles are off the sparse support, so both kinds of gap are taken
        assert not all(all(sparse.rates[a, b] > 1e-12 for a, b in c.arcs()) for c in cycles)


def bisect(f, a, b):
    """The bisection the root finder replaced: [a, b] halved on the sign of
    f down to BISECT_TOL.  Returns the midpoint and the evaluations made."""
    count = 0
    while b - a > BISECT_TOL:
        mid = 0.5 * (a + b)
        count += 1
        if f(mid) > 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b), count


def bisection_line_search(poly, point, direction, hi):
    """The line search by bisection on the sign of the slope, the oracle of
    the root finder: the same presample and endpoint returns, then the
    bracket next to the presample minimum bisected and F taken at its
    midpoint."""
    ts = np.linspace(0.0, hi, PRESAMPLES)
    vals = poly.f_values(point(ts[:, None]))
    d_rates = poly.rates(direction)

    def slope(t):
        return poly.slope_and_f(point(t), d_rates)[0]

    k = int(np.argmin(vals))
    if k == 0 and slope(0.0) >= 0:
        return 0.0, float(vals[0])
    if k == PRESAMPLES - 1 and slope(hi) <= 0:
        return hi, float(vals[-1])
    t, _ = bisect(slope, float(ts[max(k - 1, 0)]), float(ts[min(k + 1, PRESAMPLES - 1)]))
    return t, poly.f_values([point(t)])[0]


ROOT = 0.5 + 1 / 3 * 2 ** -6  # inside a bracket of two presample intervals, off its grid


@pytest.mark.parametrize("name, f", [
    ("polynomial", lambda t: (t - ROOT) * (1.0 + (t - 0.3) ** 2) + 0.2 * (t - ROOT) ** 3),
    ("steep tanh", lambda t: np.tanh(400.0 * (t - ROOT))),
    ("flat near root", lambda t: (t - ROOT) ** 3 + 1e-4 * (t - ROOT)),
])
def test_zeroin_closes_bracket_in_few_evaluations(name, f):
    """Brent's method closes a presample bracket [15/32, 17/32] on the root
    to BISECT_TOL in at most 14 evaluations, the two ends included, where
    bisection needs 30: on a smooth simple root, on a steep step, and on a
    root where f is 30 times flatter than at the bracket ends."""
    calls = []

    def counted(t):
        calls.append(t)
        return float(f(t))

    a, b = 15 / 32, 17 / 32
    t = _zeroin(counted, a, counted(a), b, counted(b), BISECT_TOL)
    assert abs(t - ROOT) <= BISECT_TOL, name
    assert len(calls) <= 14 < 29 <= bisect(f, a, b)[1], (name, len(calls))


class _Segment:
    """The parts of CyclePolytope that ``_line_search`` reads, for a scalar
    F along a segment whose point is t itself (one weight)."""

    def __init__(self, f, df):
        self.f, self.df = f, df

    def f_values(self, ws):
        return np.array([self.f(w[0]) for w in ws])

    def rates(self, direction):
        return direction

    def slope_and_f(self, w, d_rates):
        return self.df(w[0]) * d_rates[0], self.f(w[0])


def test_line_search_without_sign_change_returns_presample_minimum():
    """With u = 32 (t - 1/2) - 0.1 and F = u^2 - 1.4 u^3 + 0.5 u^4, the
    presample t = 1/2 holds the least F, but F falls at both ends of the
    bracket [15/32, 17/32]: its slope has two roots inside (a minimum near
    t = 1/2 and a maximum past it) and another past 17/32.  With no sign
    change to close, the search returns the presample minimum and its F
    rather than either root."""
    def f(t):
        u = 32 * (t - 0.5) - 0.1
        return u * u - 1.4 * u ** 3 + 0.5 * u ** 4

    def df(t):
        u = 32 * (t - 0.5) - 0.1
        return 32 * (2 * u - 4.2 * u * u + 2 * u ** 3)

    seg = _Segment(f, df)
    assert df(15 / 32) < 0 and df(17 / 32) < 0
    assert _line_search(seg, lambda t: t * np.ones(1), np.ones(1), 1.0) == (0.5, f(0.5))


LINE_SEARCH_CASES = {
    "K4": (complete_graph(4), ProbabilityVector(np.arange(1, 5) / 10)),
    "K5": (complete_graph(5), ProbabilityVector(np.arange(1, 6) / 15)),
    "S2": (segment_graph(2), ProbabilityVector.uniform(3)),
    "S3": (segment_graph(3), ProbabilityVector.uniform(segment_graph(3).n)),
}


@pytest.mark.parametrize("name", sorted(LINE_SEARCH_CASES))
def test_line_search_matches_bisection_with_few_slopes(monkeypatch, name):
    """Along a whole multi-start run, every line search returns a t within
    BISECT_TOL of the bisection oracle's on the same segment.  The root
    finder makes few slope evaluations: on K5 with pi = (1..5)/15 at most
    8 per search on average, the early endpoint returns included (bisection
    made about 15).  The count is of the kernels (one inverse each) formed
    during the search: every slope takes one, F at the root takes none of
    its own, and every search takes at least one."""
    g, pi = LINE_SEARCH_CASES[name]
    searches, slopes = [], [0]
    real_kernel = CyclePolytope._kernel

    def counted_kernel(self, w):
        slopes[0] += 1
        return real_kernel(self, w)

    def checked_search(poly, point, direction, hi):
        before = slopes[0]
        t, f = _line_search(poly, point, direction, hi)
        count = slopes[0] - before
        searches.append((t, bisection_line_search(poly, point, direction, hi)[0], count))
        return t, f

    monkeypatch.setattr(CyclePolytope, "_kernel", counted_kernel)
    monkeypatch.setattr(optimizer, "_line_search", checked_search)
    report = optimizer.frank_wolfe_minimize(g, pi, seed=0)
    assert report.converged
    worst = max(abs(t - t_old) for t, t_old, _ in searches)
    assert worst <= BISECT_TOL, worst
    assert min(count for _, _, count in searches) >= 1
    if name == "K5":
        assert np.mean([count for _, _, count in searches]) <= 8.0
