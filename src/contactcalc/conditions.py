"""Sampled condition checks: contact positivity and the dilation equation.

The top-form coefficient of alpha ^ (d alpha)^n on the chart (or
tangent-frame) basis is the Pfaffian of the bordered skew matrix
[[0, a^T], [-a, M]], computed by Parlett-Reid elimination with pivoting
(Wimmer, ACM TOMS 2012) in O(m^3) for any odd dimension m = 2n+1.

Contact positivity is batched: ``contact_margin`` takes a ChartPoint holding
any number of points (one per row) and eliminates all their Pfaffians at
once, pivoting row by row, so ``check_contact_condition`` is one call for the
whole sample set.

The dilation check is batched the same way.  Its Lie derivative comes from
Cartan's formula on the ``d_matrix`` path: L_v alpha = i_v d(alpha) +
d(alpha(v)).  L_v alpha = alpha implies L_v d(alpha) = d(alpha), since L_v
commutes with d, so no separate 2-form check is needed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .charts import (ChartPoint, matmul, matvec, require_same_chart, stack_points,
                     tangent_frame)
from .errors import DomainError
from .forms import OneFormField, central_difference, d_matrix, eval_one_form
from .reports import ConditionReport

DILATION_TOL = 1e-6   # largest residual a dilation check passes


def _report(margin: float, tolerance: float, p: ChartPoint) -> ConditionReport:
    """PASS if margin > -tolerance (so not if it is NaN), over the rows of p."""
    return ConditionReport(margin > -tolerance, margin, tolerance,
                           int(np.prod(p.coords.shape[:-1])))


def _pfaffian(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack (..., m, m) of even-size real skew matrices:
    Parlett-Reid reduction to tridiagonal form, each matrix pivoting on the
    largest entry of its own column."""
    m = a.shape[-1]
    batch = a.shape[:-2]
    a = np.array(a, dtype=float).reshape(-1, m, m)
    rows = np.arange(len(a))[:, None]
    cols = np.arange(m)
    pf = np.ones(len(a))
    singular = np.zeros(len(a), dtype=bool)
    for k in range(0, m - 1, 2):
        kp = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=-1)
        # Swap rows and columns k+1 and kp of each matrix (a no-op where
        # kp = k+1): one gather through the per-matrix permutation.
        perm = np.where(cols == kp[:, None], k + 1, cols)
        perm[:, k + 1] = kp
        a = a[rows[:, :, None], perm[:, :, None], perm[:, None, :]]
        pf = np.where(kp != k + 1, -pf, pf)
        zero = a[:, k + 1, k] == 0.0
        singular |= zero
        piv = np.where(zero, 1.0, a[:, k, k + 1])
        pf = pf * piv
        tau = a[:, k, k + 2:] / piv[:, None]
        col = a[:, k + 2:, k + 1]
        a[:, k + 2:, k + 2:] += (tau[:, :, None] * col[:, None, :]
                                 - col[:, :, None] * tau[:, None, :])
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
    frame for constrained charts, times the chart's orientation sign."""
    a = eval_one_form(alpha, p)
    m2 = d_matrix(alpha, p.coords)
    if p.chart.constraints:
        frame = tangent_frame(p, oriented=True)
        ft = frame.swapaxes(-1, -2)
        a = matvec(ft, a)
        m2 = matmul(ft, matmul(m2, frame))
    return p.chart.orientation * top_form_coefficient(a, m2)


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

