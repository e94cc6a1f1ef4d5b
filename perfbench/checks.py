"""Output checks for the benchmark, independent of the program's fast paths.

The program computes hitting times by anchored per-column solves; the
reference here uses one inverse of the fundamental matrix
Z = (Pi - L)^-1 with plain ``numpy.linalg``:

    E[x, y] = (Z[y, y] - Z[x, y]) / pi[y],     F = pi E pi,
    h = W^T - diag(W) 1^T  with W = Z E,       M2 = 2 (h^T + E diag(pi E)).

Every checker returns a ``Verdict``: whether the output is right, the
scaled residuals that feed ``accuracy_digits``, and the first reason for a
rejection.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from instances import cycle_rates, mixture_rates, simple_cycles

REL_TOL = 1e-8          # agreement of two exact routes, relative to scale
IDENTITY_TOL = 1e-8     # identity residuals reported in ``checks`` blocks
FD_TOL = 1e-5           # central finite difference of the second derivative
MC_SIGMAS = 5.0         # Monte Carlo mean within this many standard errors
DIGITS_CAP = 16.0


@dataclass
class Verdict:
    ok: bool = True
    residuals: list = field(default_factory=list)
    reason: str = ""

    def require(self, cond: bool, reason: str) -> None:
        if self.ok and not bool(cond):
            self.ok = False
            self.reason = reason

    def close(self, got, want, scale: float, tol: float, what: str) -> None:
        """Require |got - want| <= tol * scale, elementwise."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.require(False, f"{what}: shape {got.shape} != {want.shape}")
            return
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        self.require(err <= tol * scale, f"{what}: error {err:.3e} > {tol:.0e} * {scale:.3e}")

    def residual(self, value: float, scale: float, what: str, tol: float) -> None:
        rel = abs(float(value)) / scale
        self.residuals.append(rel)
        self.require(rel <= tol, f"{what}: scaled residual {rel:.3e} > {tol:.0e}")

    def digits(self) -> float:
        worst = max(self.residuals, default=0.0)
        return DIGITS_CAP if worst <= 10.0 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(worst))


# --- reference route ---------------------------------------------------------

def fundamental(R: np.ndarray, pi: np.ndarray) -> tuple:
    """(Z, E, F) from one inverse of Pi - L."""
    Z = np.linalg.inv(np.tile(pi, (len(pi), 1)) - R)
    E = (np.diag(Z)[None, :] - Z) / pi[None, :]
    return Z, E, float(pi @ E @ pi)


def inverse_speed(R: np.ndarray, pi: np.ndarray) -> float:
    """F = tr((Pi - L)^-1) - 1; defined for any L with pi L = 0 and L 1 = 0."""
    return float(np.trace(np.linalg.inv(np.tile(pi, (len(pi), 1)) - R))) - 1.0


def reference_report(R: np.ndarray, pi: np.ndarray) -> dict:
    Z, E, F = fundamental(R, pi)
    W = Z @ E
    H = W.T - np.diag(W)[:, None]
    means = pi @ E
    M2 = 2.0 * (H.T + E * means[None, :])
    return {"Z": Z, "E": E, "H": H, "M2": M2, "F": F, "kemeny": float((E @ pi).mean())}


def h_cycle(H: np.ndarray, cycle) -> float:
    m = len(cycle)
    return float(sum(H[cycle[l], cycle[(l + 1) % m]] for l in range(m))) / m


def segment_derivatives(Z: np.ndarray, R: np.ndarray, pi: np.ndarray, cycle) -> tuple:
    """Exact first and second derivatives of e -> F((1-e) L + e L_A) at 0.
    With D = L_A - L and Z(e) = (Pi - L - e D)^-1, dZ/de = Z D Z, so
    F' = tr(Z D Z) and F'' = 2 tr(Z D Z D Z)."""
    ZD = Z @ (cycle_rates(pi, cycle) - R)
    ZDZ = ZD @ Z
    return float(np.trace(ZDZ)), 2.0 * float(np.trace(ZD @ ZDZ))


def second_fd(R: np.ndarray, pi: np.ndarray, cycle, F: float, scale: float) -> float:
    """d^2/de^2 F((1-e) L + e L_A) at 0 by central differences at steps h and
    h/2, combined by Richardson extrapolation.  ``scale`` estimates the second
    derivative; F is analytic in e with a radius of about sqrt(2 F / scale),
    and h is 2% of that radius, so the truncation error stays near 1e-7."""
    D = cycle_rates(pi, cycle) - R
    h = min(1e-3, 0.02 * math.sqrt(2.0 * F / max(abs(scale), 1e-300)))

    def d2(e):
        return (inverse_speed(R + e * D, pi) - 2.0 * F + inverse_speed(R - e * D, pi)) / (e * e)

    return (4.0 * d2(h / 2) - d2(h)) / 3.0


# --- per-workload checkers ---------------------------------------------------

def check_hitting_doc(doc: dict, R: np.ndarray, pi: np.ndarray, v: Verdict) -> dict:
    """Checks shared by ``eval`` and ``eval --derivatives``."""
    ref = reference_report(R, pi)
    F = ref["F"]
    hit = doc["hitting"]
    v.require(np.array_equal(np.asarray(doc["pi"], dtype=float), pi), "pi differs from the input")
    v.close(doc["f"], F, F, REL_TOL, "f")
    v.close(hit["f_value"], F, F, REL_TOL, "hitting.f_value")
    v.close(hit["kemeny"], ref["kemeny"], F, REL_TOL, "hitting.kemeny")
    for key, want in (("expectations", ref["E"]), ("second_moments", ref["M2"]), ("h_matrix", ref["H"])):
        v.close(hit[key], want, float(np.abs(want).max()), REL_TOL, f"hitting.{key}")
    lam = [complex(re, im) for re, im in doc["spectrum"]]
    v.require(len(lam) == len(pi) - 1, "spectrum has the wrong length")
    # symmetric functions of the spectrum of -L, each against an exact value
    v.close(sum(lam).real, -np.trace(R), float(np.abs(np.diag(R)).sum()), REL_TOL, "spectrum sum")
    v.close(sum(z * z for z in lam).real, float(np.sum(R * R.T)), float(np.sum(np.abs(R * R.T))),
            REL_TOL, "spectrum sum of squares")
    v.close(sum(1.0 / z for z in lam).real, F, F, REL_TOL, "spectrum sum of reciprocals")
    v.close(sum(1.0 / (z * z) for z in lam).real, float(pi @ ref["H"] @ pi), F * F, REL_TOL,
            "spectrum sum of squared reciprocals")
    checks = doc["checks"]
    v.residual(checks["hitting_vs_spectral"], F, "checks.hitting_vs_spectral", IDENTITY_TOL)
    v.residual(checks["spectral_second"], F * F, "checks.spectral_second", IDENTITY_TOL)
    v.residual(checks["kemeny_spread"], F, "checks.kemeny_spread", IDENTITY_TOL)
    return ref


def checker(body):
    """Turn ``body(v, inst, doc, extra)`` into ``check(inst, text, code,
    extra) -> Verdict``, which also requires exit code 0 and rejects a
    missing or malformed report instead of raising."""
    @functools.wraps(body)
    def check(inst: dict, text: str, code: int, extra=None) -> Verdict:
        v = Verdict()
        v.require(code == 0, f"exit code {code}")
        try:
            body(v, inst, json.loads(text), extra)
        except (KeyError, TypeError, ValueError, IndexError, np.linalg.LinAlgError) as exc:
            v.require(False, f"malformed report: {exc!r}")
        return v
    return check


@checker
def check_eval(v: Verdict, inst: dict, doc: dict, mc) -> None:
    """``fastchain eval`` report plus the Monte Carlo spot check.  The
    standard error of the Monte Carlo mean comes from the exact second
    moment: hitting times are heavy-tailed, and on a few hundred paths the
    sample's own standard error can be a third of the true one."""
    ref = check_hitting_doc(doc, inst["rates"], inst["pi"], v)
    x, y, _ = inst["mc"]
    want = float(doc["hitting"]["expectations"][x][y])
    second = float(doc["hitting"]["second_moments"][x][y])
    se = math.sqrt(max(second - want * want, 0.0) / mc.samples)
    v.require(abs(want - ref["E"][x, y]) <= REL_TOL * ref["F"], "E[x,y] differs")
    v.require(abs(mc.mean - want) <= MC_SIGMAS * se,
              f"Monte Carlo mean {mc.mean!r} vs E[{x},{y}] = {want!r}, standard error {se!r}")


@checker
def check_derivatives(v: Verdict, inst: dict, doc: dict, extra) -> None:
    """``fastchain eval --derivatives --second`` report."""
    R, pi = inst["rates"], inst["pi"]
    ref = check_hitting_doc(doc, R, pi, v)
    F, M = ref["F"], ref["E"].max()
    entries = doc["derivatives"]
    v.require([tuple(e["cycle"]) for e in entries] == inst["cycles"],
              "derivative cycles differ from the support cycles")
    total = 0.0
    for e, c, w in zip(entries, inst["cycles"], inst["weights"]):
        first, second = segment_derivatives(ref["Z"], R, pi, c)
        v.close(e["f_value"], F, F, REL_TOL, f"f_value of {c}")
        v.close(e["h_cycle"], h_cycle(ref["H"], c), F, REL_TOL, f"h_cycle of {c}")
        v.close(e["first"], e["f_value"] - e["h_cycle"], F, 1e-14, f"first of {c}")
        v.close(e["first"], first, F, REL_TOL, f"first of {c} against tr(Z D Z)")
        v.close(e["second"], second, max(abs(second), F), REL_TOL,
                f"second of {c} against 2 tr(Z D Z D Z)")
        v.close(e["m_bound"], M, M, REL_TOL, f"m_bound of {c}")
        total += w * e["h_cycle"]
    # the mixture identity sum_A w_A H_A = F with the generating weights
    v.residual(total - doc["f"], F, "sum_A w_A H_A - F", REL_TOL)
    # one second derivative per operation against a central finite difference
    k = inst["fd_cycle"]
    second = entries[k]["second"]
    fd = second_fd(R, pi, inst["cycles"][k], F, second)
    v.close(second, fd, max(abs(fd), F), FD_TOL, f"second of {inst['cycles'][k]} against a finite difference")
    v.close(doc["m_bound"], M, M, REL_TOL, "m_bound")
    v.require(doc["checks"]["m_vs_f_over_pimin_sq"] <= REL_TOL * F, "M(L) exceeds F / pi_min^2")


@checker
def check_optimize(v: Verdict, inst: dict, doc: dict, extra) -> None:
    """``fastchain optimize`` report: a converged certificate that the
    reference route reproduces, and F no worse than a Hamiltonian cycle."""
    n, pi = inst["n"], inst["pi"]
    cycles = [tuple(c) for c in doc["cycles"]]
    v.require(cycles == simple_cycles(n, inst["arcs"]), "cycles differ from the graph's simple cycles")
    w = np.asarray(doc["weights"], dtype=float)
    v.require(len(w) == len(cycles) and np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12,
              "weights are not barycentric")
    R = np.asarray(doc["minimizer"]["rates"], dtype=float)
    v.close(R, mixture_rates(pi, cycles, w), float(np.abs(R).max()), 1e-12, "minimizer rates")
    ref = reference_report(R, pi)
    F, f_min = ref["F"], doc["f_min"]
    v.close(f_min, F, F, REL_TOL, "f_min")
    v.require(f_min <= 0.5 * n * (1.0 - float(pi @ pi)) + 1e-9, "f_min above the Hamiltonian value")
    h = np.asarray(doc["certificate"]["h_values"], dtype=float)
    v.close(h, [h_cycle(ref["H"], c) for c in cycles], F, REL_TOL, "certificate.h_values")
    v.close(doc["certificate"]["gap"], h.max() - f_min, F, 1e-14, "certificate.gap")
    v.require(doc["converged"] is True, "not converged")
    v.residual(doc["checks"]["f_recomputed"], F, "checks.f_recomputed", REL_TOL)
    v.residual(doc["checks"]["stationarity_gap"], F, "checks.stationarity_gap", 1e-6)


def path_cost(n: int, arcs, path, budgets) -> float:
    """Cost of a covering walk: each step out of i pays |A| / a_i, A being
    the vertices not yet visited; None if the walk is not a valid cover."""
    arcset = set(map(tuple, arcs))
    if not path or any((a, b) not in arcset for a, b in zip(path, path[1:])):
        return None
    unvisited = set(range(n)) - {path[0]}
    cost = 0.0
    for a, b in zip(path, path[1:]):
        if not unvisited:
            return None
        cost += len(unvisited) / (1.0 if budgets is None else budgets[a])
        unvisited.discard(b)
    return None if unvisited else cost


@checker
def check_dp(v: Verdict, inst: dict, doc: dict, extra) -> None:
    """``fastchain dp`` report: a valid covering path whose recomputed cost
    is the reported value; in discrete mode that value is n(n-1)/2."""
    n, budgets = inst["n"], inst["budgets"]
    bound = n * (n - 1) / 2
    value = doc["value"]
    v.require(doc["mode"] == inst["mode"], "wrong mode")
    v.require(doc["path"][:1] == [0], "path does not start at vertex 0")
    cost = path_cost(n, inst["arcs"], doc["path"], budgets)
    v.require(cost is not None, "path is not a valid covering walk")
    if cost is not None:
        v.residual(cost - value, value, "path cost - value", 1e-12)
    v.require(doc["checks"]["value_minus_hamiltonian_bound"] == value - bound,
              "checks.value_minus_hamiltonian_bound")
    if budgets is None:
        v.residual(value - bound, bound, "value - n(n-1)/2", 0.0)
    else:
        tour = inst["tour"]
        k = tour.index(0)
        planted = path_cost(n, inst["arcs"], tour[k:] + tour[:k], budgets)
        v.require(value <= planted * (1 + 1e-12), "value above the planted tour's cost")
