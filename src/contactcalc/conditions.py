"""Sampled condition checks: contact positivity and the dilation equation.

The top-form coefficient of alpha ^ (d alpha)^n on the chart basis is the
Pfaffian of the bordered skew matrix [[0, a^T], [-a, M]], for any odd
dimension m = 2n+1: Parlett-Reid elimination steps with pivoting (Wimmer,
ACM TOMS 2012) down to an 8 x 8 trailing block, then the signed sum over its
perfect matchings, so dimensions up to 7 take no elimination step.  On a
hypersurface with unit normal nu, (M + nu ^ a)^(n+1) = M^(n+1) +
(n+1) nu ^ a ^ M^n, so Pf(M + nu a^T - a nu^T) - Pf(M) on the ambient
coordinates is the coefficient on a tangent frame f with (outward normal,
f) positively oriented, and no frame is built.

Contact positivity is batched: ``contact_margin`` takes a ChartPoint holding
any number of points (one per row) and takes all their Pfaffians at once,
pivoting row by row, so ``check_contact_condition`` is one call for the
whole sample set.

The dilation check is batched the same way.  Its Lie derivative comes from
Cartan's formula on the ``d_matrix`` path: L_v alpha = i_v d(alpha) +
d(alpha(v)).  L_v alpha = alpha implies L_v d(alpha) = d(alpha), since L_v
commutes with d, so no separate 2-form check is needed.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .charts import ChartPoint, matvec, require_same_chart, row_norm, stack_points
from .errors import DomainError
from .forms import OneFormField, central_difference, d_matrix, eval_one_form
from .reports import ConditionReport

DILATION_TOL = 1e-6   # largest residual a dilation check passes


def _report(margin: float, tolerance: float, p: ChartPoint) -> ConditionReport:
    """PASS if margin > -tolerance (so not if it is NaN), over the rows of p."""
    return ConditionReport(margin > -tolerance, margin, tolerance,
                           int(np.prod(p.coords.shape[:-1])))


@functools.cache
def _row_gather(r: int) -> np.ndarray:
    """(r, r-2) table: row kp lists rows 2..r-1 of a size-r block after its
    rows 1 and kp are swapped, that is 2..r-1 with kp's place taken by 1."""
    table = np.tile(np.arange(2, r), (r, 1))
    table[np.arange(2, r), np.arange(r - 2)] = 1
    table.flags.writeable = False
    return table


@functools.cache
def _matchings(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The perfect matchings of range(s) as flat indices i*s + j (i < j)
    into an s x s block, one row per pair and one column per matching, and
    their signs."""
    def expand(rest):
        if not rest:
            return [((), 1.0)]
        return [((rest[0] * s + j,) + pairs, (-1.0) ** t * sign)
                for t, j in enumerate(rest[1:])
                for pairs, sign in expand(rest[1:t + 1] + rest[t + 2:])]
    flat, signs = zip(*expand(tuple(range(s))))
    flat, signs = np.array(flat, dtype=np.intp).T.copy(), np.array(signs)
    flat.flags.writeable = signs.flags.writeable = False
    return flat, signs


def _pfaffian(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack (..., m, m) of even-size real skew matrices.

    Parlett-Reid steps (Wimmer, ACM TOMS 2012), each matrix pivoting on the
    largest entry of its own column, shrink the trailing block by two rows
    until it has at most 8; a step gathers the block in swapped order, not
    the whole permuted matrix.  The last block's Pfaffian is its signed sum
    over perfect matchings: 105 terms at 8 x 8, 15 at 6 x 6, 3 at 4 x 4.
    A zero pivot gives exactly 0."""
    m = a.shape[-1]
    batch = a.shape[:-2]
    a = np.asarray(a, dtype=float).reshape(-1, m, m)
    rows = np.arange(len(a))[:, None]
    pf, singular = 1.0, False
    for r in range(m, 8, -2):
        kp = 1 + np.argmax(np.abs(a[:, 1:, 0]), axis=-1)
        idx = _row_gather(r)[kp]
        zero = a[rows[:, 0], kp, 0] == 0.0
        singular = singular | zero
        piv = np.where(zero, 1.0, a[rows[:, 0], 0, kp])
        pf = np.where(kp != 1, -pf, pf) * piv
        tau = a[rows, 0, idx] / piv[:, None]
        col = a[rows, idx, kp[:, None]]
        a = a[rows[:, :, None], idx[:, :, None], idx[:, None, :]]
        a += tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
    flat, signs = _matchings(a.shape[-1])
    terms = np.take(a.reshape(len(a), -1), flat, axis=1).prod(axis=1)
    pf = pf * (terms * signs).sum(axis=-1)
    return np.where(singular, 0.0, pf).reshape(batch)[()]


def top_form_coefficient(a: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """(alpha ^ omega^n)(e_1, ..., e_{2n+1}) for covectors a (..., m) and
    skew matrices m2 (..., m, m), normalised to 1 for dz + lambda_std:
    Pf([[0, a^T], [-a, m2]]), one value per row."""
    m = a.shape[-1]
    if m % 2 == 0:
        raise DomainError(f"top form needs odd dimension, got {m}")
    bordered = np.zeros(np.broadcast_shapes(a.shape[:-1], m2.shape[:-2])
                        + (m + 1, m + 1))
    bordered[..., 0, 1:] = a
    bordered[..., 1:, 0] = -a
    bordered[..., 1:, 1:] = m2
    return _pfaffian(bordered)


def contact_margin(alpha: OneFormField, p: ChartPoint) -> np.ndarray:
    """The top-form coefficient at each row of p, on an oriented tangent
    frame for one-constraint charts (taken without building the frame),
    times the chart's orientation sign.  Two or more constraints, or a
    hypersurface of even dimension, are refused."""
    a = eval_one_form(alpha, p)
    m2 = d_matrix(alpha, p.coords)
    constraints = p.chart.constraints
    if not constraints:
        return p.chart.orientation * top_form_coefficient(a, m2)
    if len(constraints) > 1:
        raise DomainError("contact margin needs at most one constraint")
    if p.chart.dim % 2:
        raise DomainError(f"top form needs odd dimension, got {p.chart.intrinsic_dim}")
    g = constraints[0].grad(p.coords)
    nu = g / row_norm(g)[..., None]
    wedge = nu[..., :, None] * a[..., None, :] - a[..., :, None] * nu[..., None, :]
    pf = _pfaffian(np.stack([m2 + wedge, m2]))
    return p.chart.orientation * (pf[0] - pf[1])


def check_contact_condition(alpha: OneFormField,
                            points: ChartPoint | Sequence[ChartPoint]
                            ) -> ConditionReport:
    """Positivity of alpha ^ (d alpha)^n at every sample point, given as one
    batched ChartPoint or a sequence of points on one chart (stacked here);
    the margin is NaN, and so FAIL, if any sample's coefficient is NaN."""
    p = stack_points(points)
    return _report(float(np.min(contact_margin(alpha, p))), 0.0, p)


def lie_derivative_one_form(v: Callable[[np.ndarray], np.ndarray],
                            alpha: OneFormField, p: ChartPoint) -> np.ndarray:
    """L_v alpha = i_v d(alpha) + d(alpha(v)) at each row of p; v maps
    coords (..., dim) to vectors (..., dim)."""
    require_same_chart(alpha.chart, p.chart)
    x = p.coords
    contraction = matvec(d_matrix(alpha, x).swapaxes(-1, -2), v(x))
    pairing = lambda y: (np.asarray(alpha.evaluator(y)) * v(y)).sum(axis=-1)
    return contraction + central_difference(pairing, x, np.eye(x.shape[-1]))


def check_contact_dilation(v: Callable[[np.ndarray], np.ndarray],
                           alpha: OneFormField,
                           points: ChartPoint | Sequence[ChartPoint]
                           ) -> ConditionReport:
    """L_v alpha = alpha, checked componentwise at every sample point, given
    as in ``check_contact_condition``; the margin is -max |residual| (NaN,
    and so FAIL, if any residual is NaN)."""
    p = stack_points(points)
    residual = lie_derivative_one_form(v, alpha, p) - eval_one_form(alpha, p)
    return _report(-float(np.max(np.abs(residual))), DILATION_TOL, p)

