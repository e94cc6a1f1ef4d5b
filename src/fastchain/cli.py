"""Command-line entry point.

Subcommands cover evaluation of a single generator (``eval``), polytope
minimization (``optimize``), the covering dynamic program (``dp``), the
discrete-time bridge (``discrete``), the slow-mass counterexample search
(``counterexample``), the segment closed forms (``s2``), and the
near-uniform robustness probe (``probe-theorem2``).  All inputs and outputs
are JSON; identical inputs and seeds give byte-identical output.  Every
report embeds a ``checks`` block with the identity residuals verified
during the run.

Exit codes: 0 success, 2 bad input, 3 numeric failure (no convergence or
exhausted search), 4 enumeration budget or DP state space exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from ._serialize import dumps
from .derivatives import derivative_reports
from .discrete_time import (
    Kernel,
    compare_wedges,
    discrete_eigentime_spectral,
    frak_f,
    hunter_trace,
    to_generator,
    to_kernel,
)
from .dp import (
    StateSpaceTooLarge,
    continuous_value_function,
    discrete_value_function,
    extract_policy_path,
)
from .eigentime import (
    eigentime_spectral,
    hitting_kernel,
    inverse_speed,
    spectral_second_identity,
    spectrum,
)
from .experiments import (
    SearchExhausted,
    find_counterexample,
    s2_closed_form,
    theorem2_probe,
    triangle_leaf_graph,
)
from .generator import Generator, ProbabilityVector, invariant_measure, support_graph
from .graph import (
    Cycle,
    CycleBudgetExceeded,
    DirectedGraph,
    complete_graph,
    enumerate_simple_cycles,
    segment_graph,
)
from .optimizer import brute_force_minimize, f_wedge, frank_wolfe_minimize, stationarity_check


class InputError(ValueError):
    pass


def _load(path: str | None, parse, kind: str):
    """Read the JSON file at ``path`` and build the input from it with
    ``parse``; any failure, a missing path included, is an InputError."""
    if path is None:
        raise InputError(f"no {kind} file given")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {kind} file {path}: {exc}") from exc


def _cmd_eval(args) -> tuple:
    if args.second and not args.derivatives:
        raise InputError("--second needs --derivatives")
    L = _load(args.generator, Generator.from_json, "generator")
    pi = _load(args.pi, ProbabilityVector, "probability") if args.pi else invariant_measure(L)
    kern = hitting_kernel(L, pi)
    spec = spectrum(L)
    doc = {
        "f": kern.f,
        "spectrum": spec,
        "hitting": kern.report(),
        "pi": pi,
        "checks": {
            "hitting_vs_spectral": abs(kern.f - spec.sum_reciprocals(1)),
            "spectral_second": abs(kern.h_mean - spec.sum_reciprocals(2)),
            # measures only the rounding of Z 1 = 1 in the one inverse;
            # hitting_vs_spectral is the independent check of this constant
            "kemeny_spread": float(kern.kemeny.max() - kern.kemeny.min()),
        },
    }
    if args.derivatives:
        cycles = enumerate_simple_cycles(support_graph(L))
        doc["derivatives"] = [
            {"cycle": c, **report.to_json()}
            for c, report in zip(cycles, derivative_reports(kern, cycles, with_second=args.second))
        ]
        doc["m_bound"] = kern.m_bound
        doc["checks"]["m_vs_f_over_pimin_sq"] = float(kern.m_bound - kern.f / pi.pi_min ** 2)
    return doc, 0


def _cmd_optimize(args) -> tuple:
    g = _load(args.graph, DirectedGraph.from_json, "graph")
    pi = _load(args.pi, ProbabilityVector, "probability")
    report = frank_wolfe_minimize(g, pi, tol=args.tol, max_iters=args.max_iters,
                                  seed=args.seed, extra_starts=args.starts)
    station = stationarity_check(report.minimizer, pi, report.cycles)
    checks = {
        "stationarity_gap": station.max_gap,
        "f_recomputed": abs(eigentime_spectral(report.minimizer) - report.f_min),
    }
    return {**report.to_json(), "checks": checks}, 0 if report.converged else 3


def _cmd_dp(args) -> tuple:
    if args.mode == "discrete" and args.budgets is not None:
        raise InputError("--budgets needs --mode continuous")
    g = _load(args.graph, DirectedGraph.from_json, "graph")
    if not 0 <= args.start < g.n:
        raise InputError(f"start {args.start} out of range")
    checks = {}
    if args.mode == "discrete":
        table = discrete_value_function(g)
    elif args.budgets is None:
        table = continuous_value_function(g, np.ones(g.n))
        checks["continuous_matches_discrete_at_unit_budgets"] = abs(
            table.start_value(args.start) - discrete_value_function(g).start_value(args.start))
    else:
        budgets = _load(args.budgets, lambda obj: np.asarray(obj, dtype=float), "budget")
        table = continuous_value_function(g, budgets)
    bound = g.n * (g.n - 1) / 2
    checks["value_minus_hamiltonian_bound"] = float(
        table.start_value(args.start) - bound)
    if args.full_set:
        value = table.full_visit_value(args.start)
        first = table.next_vertex(args.start, (1 << g.n) - 1)
        path = [args.start] + extract_policy_path(table, first)
    else:
        value = table.start_value(args.start)
        path = extract_policy_path(table, args.start)
    doc = {"value": float(value), "path": path, "mode": args.mode, "checks": checks}
    return doc, 0


def _cmd_discrete(args) -> tuple:
    if args.compare:
        if args.kernel is not None:
            raise InputError("--compare reads --graph, not --kernel")
        g = _load(args.graph, DirectedGraph.from_json, "graph")
        pi = _load(args.pi, ProbabilityVector, "probability")
        comp = compare_wedges(g, pi, seed=0 if args.seed is None else args.seed)
        return {**comp.to_json(), "checks": {"wedge_gap_nonnegative": comp.gap}}, 0
    if not args.kernel:
        raise InputError("discrete needs --kernel (or --compare with --graph)")
    if args.graph is not None or args.seed is not None:
        raise InputError("--kernel reads neither --graph nor --seed; they need --compare")
    K = _load(args.kernel, Kernel.from_json, "kernel")
    pi = _load(args.pi, ProbabilityVector, "probability")
    kern = hitting_kernel(K.clock, pi)  # to_generator reads the same clock
    value = kern.f
    trace = float(np.trace(kern.Z))
    spectral = discrete_eigentime_spectral(K)
    L, k = to_generator(K, pi)
    doc = {
        "frak_f": value,
        "hunter_trace": trace,
        "generator": L,
        "k": k,
        "checks": {
            "hitting_vs_spectral": abs(value - spectral),
            # measures only the rounding of pi Z = pi in the one inverse, like
            # eval's kemeny_spread; hitting_vs_spectral is the independent check
            "hunter_vs_frak_f": abs(trace - (1.0 + value)),
            "generator_value_ratio": abs(inverse_speed(L, pi) - value / k),
            "roundtrip_if_k0": float(np.abs(to_kernel(L)[0].entries - K.entries).max()
                                     if np.min(np.diag(K.entries)) < 1e-12 else 0.0),
        },
    }
    return doc, 0


def _cmd_counterexample(args) -> tuple:
    g = _load(args.graph, DirectedGraph.from_json, "graph") if args.graph else triangle_leaf_graph()
    report = find_counterexample(g)
    checks = {
        "margin_positive": report.margin,
        "hamiltonian_value_spread": float(max(report.hamiltonian_values)
                                          - min(report.hamiltonian_values)),
    }
    return {**report.to_json(), "checks": checks}, 0


def _cmd_s2(args) -> tuple:
    pi = _load(args.pi, ProbabilityVector, "probability")
    report = s2_closed_form(pi)
    station = stationarity_check(report.generator, pi,
                                 [Cycle([0, 1]), Cycle([1, 2])])
    checks = {
        "stationarity_gap": station.max_gap,
        "f_vs_hitting": abs(report.f_min - station.f),
    }
    return {**report.to_json(), "checks": checks}, 0


def _cmd_probe(args) -> tuple:
    g = _load(args.graph, DirectedGraph.from_json, "graph")
    report = theorem2_probe(g, args.size, args.trials, args.seed)
    return {**report.to_json(), "checks": {"worst_vertex_distance": report.worst_distance}}, 0


def _selftest() -> int:
    """Identity suite on built-in instances; prints one line per check."""
    from .generator import combine, cycle_generator, decompose_into_cycles

    results = []

    def check(name: str, residual: float, tol: float):
        results.append((name, residual, tol, abs(residual) <= tol))

    pi3 = ProbabilityVector.uniform(3)
    ham = cycle_generator(pi3, Cycle([0, 1, 2]))
    check("hamiltonian_f_is_1", inverse_speed(ham, pi3) - 1.0, 1e-12)
    check("eigentime_identity",
          inverse_speed(ham, pi3) - spectrum(ham).sum_reciprocals(1), 1e-10)
    lhs, rhs = spectral_second_identity(ham, pi3)
    check("spectral_second_identity", lhs - rhs, 1e-10)

    srw = Generator(0.5 * np.array([[-2.0, 1, 1], [1, -2, 1], [1, 1, -2]]))
    check("random_walk_f_is_4_3", inverse_speed(srw, pi3) - 4.0 / 3.0, 1e-12)
    dec = decompose_into_cycles(srw, pi3)
    check("decompose_roundtrip",
          float(np.abs(combine(dec, pi3).rates - srw.rates).max()), 1e-12)

    K, l = to_kernel(ham)
    check("kernel_bridge", frak_f(K, pi3) - l * inverse_speed(ham, pi3), 1e-10)
    check("hunter", hunter_trace(K, pi3) - (1.0 + frak_f(K, pi3)), 1e-10)

    seg = segment_graph(2)
    check("segment_f_wedge_16_9", f_wedge(seg, pi3, seed=7) - 16.0 / 9.0, 1e-7)
    brute = brute_force_minimize(seg, pi3, 1000)
    check("segment_brute_force", brute.f_min - 16.0 / 9.0, 1e-4)

    k3 = complete_graph(3)
    check("k3_minimum_is_1", f_wedge(k3, pi3, seed=7) - 1.0, 1e-8)

    table = discrete_value_function(k3)
    check("k3_dp_bound", table.start_value(0) - 3.0, 0.0)

    width = max(len(name) for name, *_ in results)
    ok = True
    for name, residual, tol, passed in results:
        ok &= passed
        print(f"{name:<{width}}  residual={residual: .3e}  tol={tol:.1e}  "
              f"{'PASS' if passed else 'FAIL'}")
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fastchain", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"fastchain {__version__}")
    p.add_argument("--selftest", action="store_true",
                   help="run the built-in identity suite and exit")
    sub = p.add_subparsers(dest="command")

    q = sub.add_parser("eval", help="hitting report, spectrum, and identities of one generator")
    q.add_argument("--generator", required=True)
    q.add_argument("--pi", default=None, help="defaults to the invariant measure")
    q.add_argument("--derivatives", action="store_true")
    q.add_argument("--second", action="store_true", help="include second derivatives")
    q.set_defaults(func=_cmd_eval)

    q = sub.add_parser("optimize", help="minimize F over the cycle polytope")
    q.add_argument("--graph", required=True)
    q.add_argument("--pi", required=True)
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--max-iters", type=int, default=10_000, dest="max_iters")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--starts", type=int, default=8, help="extra random starts")
    q.set_defaults(func=_cmd_optimize)

    q = sub.add_parser("dp", help="covering dynamic program")
    q.add_argument("--graph", required=True)
    q.add_argument("--mode", choices=["discrete", "continuous"], default="discrete")
    q.add_argument("--budgets", default=None)
    q.add_argument("--full-set", action="store_true", dest="full_set")
    q.add_argument("--start", type=int, default=0)
    q.set_defaults(func=_cmd_dp)

    q = sub.add_parser("discrete", help="discrete-time kernel evaluation / wedge comparison")
    q.add_argument("--compare", action="store_true")
    q.add_argument("--graph", default=None)
    q.add_argument("--kernel", default=None)
    q.add_argument("--pi", required=True)
    q.add_argument("--seed", type=int, default=None)  # --compare only; 0 when not given
    q.set_defaults(func=_cmd_discrete)

    q = sub.add_parser("counterexample", help="search for a measure beating all Hamiltonian generators")
    q.add_argument("--graph", default=None, help="defaults to the triangle-plus-leaf instance")
    q.set_defaults(func=_cmd_counterexample)

    q = sub.add_parser("s2", help="segment-graph closed-form minimizer")
    q.add_argument("--pi", required=True)
    q.set_defaults(func=_cmd_s2)

    q = sub.add_parser("probe-theorem2", help="near-uniform Hamiltonian robustness probe")
    q.add_argument("--graph", required=True)
    q.add_argument("--size", type=float, default=0.01)
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_probe)
    for q in sub.choices.values():  # added last, so --help lists it where it always has
        q.add_argument("--output", default=None)
    return p


_parser = None  # built by the first main() call and kept for the process


def main(argv=None) -> int:
    """Parse argv, run the command, then render its report and write it to
    stdout or to --output.  A command that fails writes nothing."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.selftest:
        return _selftest()
    if not getattr(args, "command", None):
        _parser.print_help()
        return 2
    try:
        doc, code = args.func(args)
        text = dumps(doc)
        if args.output is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.output}: {exc}") from exc
        return code
    except (CycleBudgetExceeded, StateSpaceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
