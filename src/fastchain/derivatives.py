"""Exact directional derivatives of the inverse speed F on the generator polytope.

Directions are the segments from L toward the single-cycle generators L_A,
the extreme points of the polytope.  The first derivative along a cycle A
is

    D_A F(L) = F(L) - H_A(L),

where H_A averages the perturbation kernel h over the arcs of A.  The
second derivative along the segment toward L_A is assembled as

    d^2/de^2 F((1-e) L + e L_A) |_{e=0} = 2 F - 4 H_A + 2 H_{A,A},

with H_{A,A} the chained second-order term.  The mixed form for two
cycles, 2 F - 2 H_A - 2 H_A' + H_{A,A'} + H_{A',A}, is not computed here:
the test suite holds it as the per-entry oracle of a stacked Hessian.

Every function takes the :class:`~fastchain.eigentime.HittingKernel` of
(L, pi) first, so all derivatives at one L share its one inverse.

The sign convention is pinned by the Taylor expansion of F along segments
and is validated against central finite differences in the test suite;
displays that disagree with it in sign are rejected by that oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._serialize import Report
from .eigentime import HittingKernel, IdentityViolation
from .generator import _CycleArcs
from .graph import Cycle

__all__ = [
    "DerivativeReport",
    "directional_derivative",
    "second_directional",
    "derivative_reports",
]


def _rounding_tol(kern: HittingKernel, power: int) -> float:
    """Allowed disagreement between two routes to a quantity of order
    M(L)^power: 1e3 n eps M(L)^power.

    Hitting times are of order M(L), psi (a sum of products of hitting-time
    differences) of order M(L)^2 and the chained term of order M(L)^3, and
    their rounding scales with them: the measured gaps stay below
    0.4 n eps M^2 for psi and 3 n eps M^3 for the chained term on chains
    with M(L) up to 1e7, and reach 280 n eps M^3 at M(L) = 2e8.  A relative
    disagreement above about 1e-12 n still raises.  The program reads power
    3 (the chained term); power 2 serves the test suite's psi oracle, which
    compares the solved psi with its closed form.
    """
    return 1e3 * kern.E.shape[0] * np.finfo(float).eps * kern.m_bound ** power


def directional_derivative(kern: HittingKernel, cycle: Cycle) -> float:
    """Derivative of F at L along the segment toward the cycle generator
    L_A, namely F(L) - H_A(L)."""
    return kern.f - kern.h_cycle(cycle)


def _arc_sums(kern: HittingKernel, a, a1, b, b1) -> np.ndarray:
    """The chained terms H_{B,A} of k pairs of cycles assembled from the
    hitting-time and perturbation matrices,

        (1/(n_A n_B)) sum_{l,k} (h(b_k, a_{l+1}) - h(b_k, a_l))
                                (phi_{a_l}(b_{k+1}) - phi_{a_l}(b_k)),

    from the (k, l_A) tails a and heads a1 of the A's and the (k, l_B)
    tails b and heads b1 of the B's, as ``_CycleArcs.groups`` holds them."""
    n = kern.E.shape[0]
    H, E = kern.h.ravel(), kern.E.ravel()
    # flat indices b n + a of the (k, l_B, l_A) entries [b_k, a_l]
    b, b1 = b[:, :, None] * n, b1[:, :, None] * n
    a, a1 = a[:, None, :], a1[:, None, :]
    ba = b + a
    terms = (H[b + a1] - H[ba]) * (E[b1 + a] - E[ba])
    return terms.sum(axis=(1, 2)) / (a.shape[2] * b.shape[1])


def _mean_psi_cross(kern: HittingKernel, rates_a: np.ndarray,
                    rates_b: np.ndarray) -> np.ndarray:
    """H_{B,A} = sum_y pi(y) pi[Psi_y] straight from the fundamental matrix.

    The mean-zero solutions are psi_y = -Z L_A phi_y and
    Psi_y = Z L_B Z L_A phi_y; anchoring Psi_y at y and averaging it over pi
    (pi Z = pi, pi L_B = 0) leaves -(Z L_B Z L_A E)[y, y].  The rates may be
    (m, n, n) stacks, giving the m terms as an array: the broadcast products
    and the strided diagonal give each slice the bits of its 2-D product.
    The package passes the same stack twice (H_{A,A}); the tests' mixed
    second derivative passes two.
    """
    Z = kern.Z
    chained = Z @ rates_b @ Z @ rates_a @ kern.E
    diag = np.diagonal(chained, axis1=-2, axis2=-1)
    return -(kern.pi.weights @ diag[..., None])[..., 0]


def _self_cross(kern: HittingKernel, arcs: _CycleArcs) -> np.ndarray:
    """H_{A,A} of every cycle of ``arcs`` by the arc-sum assembly, one
    :func:`_arc_sums` per cycle length."""
    out = np.empty(arcs.m)
    for pos, tails, heads in arcs.groups:
        out[pos] = _arc_sums(kern, tails, heads, tails, heads)
    return out


def _check_chained(assembled, solved, tol: float) -> None:
    """Raise on the first term where two equal-length arrays of assembled
    and solved values differ by more than tol."""
    bad = np.flatnonzero(np.abs(assembled - solved) > tol)
    if bad.size:
        k = bad[0]
        raise IdentityViolation(f"chained term mismatch: assembled {float(assembled[k])!r} "
                                f"vs solved {float(solved[k])!r}")


def second_directional(kern: HittingKernel, cycle: Cycle) -> float:
    """Second derivative of e -> F((1-e) L + e L_A) at e = 0, namely
    2 F - 4 H_A + 2 H_{A,A}: the one-cycle case of :func:`derivative_reports`.

    The chained term comes from -sum_y pi(y) (Z L_A Z L_A E)[y, y], which
    keeps its accuracy where the arc-sum assembly (:func:`_arc_sums`)
    cancels large entries of h; the assembly is always compared against it
    within the rounding allowance of a quantity of order M(L)^3 (see
    :func:`_rounding_tol`).
    """
    return derivative_reports(kern, [cycle], with_second=True)[0].second


@dataclass(frozen=True)
class DerivativeReport(Report):
    f_value: float
    h_cycle: float
    first: float
    second: float | None
    m_bound: float


# cycles per stacked chained product: each (block, n, n) temporary of
# derivative_reports holds CYCLE_BLOCK n^2 doubles
CYCLE_BLOCK = 128


def derivative_reports(kern: HittingKernel, cycles,
                       with_second: bool = False) -> list:
    """F, H_A, first and (optionally) second derivative along each cycle.

    The cycles go in blocks of ``CYCLE_BLOCK``: the H_A of a block are one
    ``_CycleArcs.means`` of h, bit-equal to :meth:`HittingKernel.h_cycle`,
    and its chained terms H_{A,A} one stacked product over its cycle rates
    (see :func:`_mean_psi_cross`), each bit-equal to the one-cycle product.
    Every chained term is compared against its arc-sum assembly; the
    assembly of a block is one gather per cycle length (:func:`_self_cross`),
    and the first cycle outside the allowance raises
    :class:`IdentityViolation`.
    """
    cycles = list(cycles)
    f, p = kern.f, kern.pi.weights
    tol = _rounding_tol(kern, 3)
    reports = []
    for start in range(0, len(cycles), CYCLE_BLOCK):
        block = cycles[start:start + CYCLE_BLOCK]
        arcs = _CycleArcs(block)
        h_a = arcs.means(kern.h)
        second = [None] * len(block)
        if with_second:
            rates = arcs.rates(p)
            cross = _mean_psi_cross(kern, rates, rates)
            _check_chained(_self_cross(kern, arcs), cross, tol)
            second = (2.0 * f - 2.0 * h_a - 2.0 * h_a + cross + cross).tolist()
        reports += [DerivativeReport(f_value=f, h_cycle=h, first=f - h, second=s,
                                     m_bound=kern.m_bound)
                    for h, s in zip(h_a.tolist(), second)]
    return reports

