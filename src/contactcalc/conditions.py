"""Pointwise condition checks: contact positivity and dilation equations.

The top-form coefficient of alpha ^ (d alpha)^n on the chart (or
tangent-frame) basis is the Pfaffian of the bordered skew matrix
[[0, a^T], [-a, M]], computed by Parlett-Reid elimination with pivoting
(Wimmer, ACM TOMS 2012) in O(m^3) for any odd dimension m = 2n+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .charts import ChartPoint, tangent_frame
from .errors import DomainError
from .fields import flow, two_form_matrix
from .forms import DEFAULT_STEP, OneFormField, central_difference, d_matrix, \
    eval_one_form


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a sampled condition check.

    ``margin`` is the smallest signed quantity tested (positive is good);
    ``passed`` iff margin > -tolerance on every sample.
    """

    passed: bool
    margin: float
    tolerance: float
    samples: int

    def __str__(self):
        word = "PASS" if self.passed else "FAIL"
        return (f"{word} margin={self.margin:.6e} tol={self.tolerance:.1e} "
                f"samples={self.samples}")


def _report(margin: float, tolerance: float, samples: int) -> ConditionReport:
    return ConditionReport(margin > -tolerance, margin, tolerance, samples)


def _pfaffian(a: np.ndarray) -> float:
    """Pfaffian of an even-size real skew matrix: Parlett-Reid reduction to
    tridiagonal form, pivoting on the largest entry of each column."""
    a = np.array(a, dtype=float)
    m = a.shape[0]
    pf = 1.0
    for k in range(0, m - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if kp != k + 1:
            a[[k + 1, kp]] = a[[kp, k + 1]]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        if a[k + 1, k] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        tau = a[k, k + 2:] / a[k, k + 1]
        col = a[k + 2:, k + 1]
        a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return float(pf)


def top_form_coefficient(a: np.ndarray, m2: np.ndarray) -> float:
    """(alpha ^ omega^n)(e_1, ..., e_{2n+1}) for covector a and skew matrix
    m2, normalised to 1 for dz + lambda_std: Pf([[0, a^T], [-a, m2]])."""
    m = a.size
    if m % 2 == 0:
        raise DomainError(f"top form needs odd dimension, got {m}")
    return _pfaffian(np.block([[np.zeros((1, 1)), a[None, :]], [-a[:, None], m2]]))


def contact_margin(alpha: OneFormField, p: ChartPoint,
                   step: float = DEFAULT_STEP, orientation: int = 1) -> float:
    """The top-form coefficient at one point, on an oriented tangent frame
    for constrained charts.  The chart's own orientation sign is applied,
    times any extra ``orientation`` supplied by the caller."""
    a = eval_one_form(alpha, p)
    m2 = two_form_matrix(alpha, p, step)
    if p.chart.constraints:
        frame = tangent_frame(p, oriented=True)
        a = frame.T @ a
        m2 = frame.T @ m2 @ frame
    return orientation * p.chart.orientation * top_form_coefficient(a, m2)


def check_contact_condition(alpha: OneFormField, points: Sequence[ChartPoint],
                            step: float = DEFAULT_STEP, tolerance: float = 0.0,
                            orientation: int = 1) -> ConditionReport:
    """Positivity of alpha ^ (d alpha)^n at every sample point."""
    if not points:
        raise DomainError("empty sample set")
    margin = min(contact_margin(alpha, p, step, orientation) for p in points)
    return _report(margin, tolerance, len(points))


def _lie_derivative(v, x: np.ndarray, pullback: Callable, h: float,
                    step: float) -> np.ndarray:
    """d/dt at t = 0 of phi_t^* of a form at x, where ``pullback(y, jac)``
    pulls the form at y = phi_t(x) back through the flow Jacobian
    jac = D phi_t(x); both derivatives are central differences."""
    def pull(t: np.ndarray) -> np.ndarray:
        jac = central_difference(lambda y: flow(v, y, t[0]), x, np.eye(x.size), step)
        return pullback(flow(v, x, t[0]), jac)

    return central_difference(pull, np.zeros(1), np.ones((1, 1)), h)[..., 0]


def lie_derivative_one_form(v, alpha: OneFormField, p: ChartPoint,
                            h: float = 1e-4, step: float = DEFAULT_STEP) -> np.ndarray:
    """L_v alpha at p via central differences of the flow pullback."""
    return _lie_derivative(
        v, p.coords,
        lambda y, jac: jac.T @ np.asarray(alpha.evaluator(y), dtype=float), h, step)


def check_contact_dilation(v, alpha: OneFormField, points: Sequence[ChartPoint],
                           h: float = 1e-4, step: float = DEFAULT_STEP,
                           tolerance: float = 1e-6) -> ConditionReport:
    """L_v alpha = alpha, checked componentwise; margin is -max residual
    (NaN, and so FAIL, if any residual is NaN)."""
    if not points:
        raise DomainError("empty sample set")
    worst = np.max([np.max(np.abs(lie_derivative_one_form(v, alpha, p, h, step)
                                  - alpha.at(p))) for p in points])
    return _report(-float(worst), tolerance, len(points))


def check_two_form_dilation(v, omega_source, points: Sequence[ChartPoint],
                            h: float = 1e-4, step: float = DEFAULT_STEP,
                            tolerance: float = 1e-6) -> ConditionReport:
    """L_v omega = omega for a 2-form given by a primitive or a matrix
    callable; margin as in ``check_contact_dilation``."""
    if not points:
        raise DomainError("empty sample set")
    if isinstance(omega_source, OneFormField):
        omega = lambda y: d_matrix(omega_source, y, step)
    else:
        omega = lambda y: np.asarray(omega_source(y), dtype=float)

    pullback = lambda y, jac: jac.T @ omega(y) @ jac
    worst = np.max([np.max(np.abs(_lie_derivative(v, p.coords, pullback, h, step)
                                  - omega(p.coords))) for p in points])
    return _report(-float(worst), tolerance, len(points))
