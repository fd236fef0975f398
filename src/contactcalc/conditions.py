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
from .forms import DEFAULT_STEP, OneFormField, d_matrix, eval_one_form


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


def _flow_jacobian(v: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                   time: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi_time(x), D phi_time(x)) with the Jacobian by central differences."""
    y = flow(v, x, time)
    m = x.size
    jac = np.empty((m, m))
    for i in range(m):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        jac[:, i] = (flow(v, xp, time) - flow(v, xm, time)) / (2.0 * step)
    return y, jac


def lie_derivative_one_form(v, alpha: OneFormField, p: ChartPoint,
                            h: float = 1e-4, step: float = DEFAULT_STEP) -> np.ndarray:
    """L_v alpha at p via central differences of the flow pullback."""
    def pull(t: float) -> np.ndarray:
        y, jac = _flow_jacobian(v, p.coords, t, step)
        return jac.T @ np.asarray(alpha.evaluator(y), dtype=float)

    return (pull(h) - pull(-h)) / (2.0 * h)


def check_contact_dilation(v, alpha: OneFormField, points: Sequence[ChartPoint],
                           h: float = 1e-4, step: float = DEFAULT_STEP,
                           tolerance: float = 1e-6) -> ConditionReport:
    """L_v alpha = alpha, checked componentwise; margin is -max residual."""
    if not points:
        raise DomainError("empty sample set")
    worst = 0.0
    for p in points:
        resid = lie_derivative_one_form(v, alpha, p, h, step) - alpha.at(p)
        worst = max(worst, float(np.max(np.abs(resid))))
    return _report(-worst, tolerance, len(points))


def check_two_form_dilation(v, omega_source, points: Sequence[ChartPoint],
                            h: float = 1e-4, step: float = DEFAULT_STEP,
                            tolerance: float = 1e-6) -> ConditionReport:
    """L_v omega = omega for a 2-form given by a primitive or a matrix callable."""
    if not points:
        raise DomainError("empty sample set")
    if isinstance(omega_source, OneFormField):
        omega = lambda y: d_matrix(omega_source, y, step)
    else:
        omega = lambda y: np.asarray(omega_source(y), dtype=float)

    worst = 0.0
    for p in points:
        def pull(t: float) -> np.ndarray:
            y, jac = _flow_jacobian(v, p.coords, t, step)
            return jac.T @ omega(y) @ jac

        lie = (pull(h) - pull(-h)) / (2.0 * h)
        resid = lie - omega(p.coords)
        worst = max(worst, float(np.max(np.abs(resid))))
    return _report(-worst, tolerance, len(points))
