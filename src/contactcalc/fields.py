"""Vector fields defined by linear equations against 2-forms.

Conventions:
  * Liouville field:     d(beta)(X, .) = beta
  * Hamiltonian field:   df(.) = omega(X_f, .)
  * Reeb field:          alpha(R) = 1,  d(alpha)(R, .) = 0
  * Moser field:         d(beta)(V, .) = beta - beta'

The Liouville, Hamiltonian and Reeb solves are batched: a ``ChartPoint``
holding N points (coords (N, dim)) gives N fields (N, dim) from one stacked
``cond``/``solve`` (Liouville, Hamiltonian) or one stacked pseudo-inverse
(Reeb), and a single point is the case with no leading axis.  All solves
are dense; a batch in which any system has condition number above
``COND_MAX``, or any Reeb system a residual above ``RESIDUAL_TOL``, is
refused as a whole rather than silently returning garbage.  ``moser_field``
and ``flow`` take single points.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .charts import ChartPoint, first_bad, matmul, matvec, tangent_frame
from .errors import DegenerateSystemError, DomainError, IllConditionedError
from .forms import OneFormField, central_difference, d_matrix, eval_one_form

COND_MAX = 1e10
RESIDUAL_TOL = 1e-6  # largest Reeb lstsq residual and Moser d(beta) mismatch


def _checked_solve(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """mat x = rhs for stacks mat (..., m, m) and rhs (..., m); refused if
    any system's condition number is not finite or above COND_MAX."""
    cond = np.linalg.cond(mat)
    ok = cond <= COND_MAX
    if not ok.all():
        worst = first_bad(cond, ok)
        raise IllConditionedError(
            f"{what}: condition number {worst:.3e} exceeds {COND_MAX:.0e}", worst)
    return np.linalg.solve(mat, rhs[..., None])[..., 0]


def two_form_matrix(source, x: np.ndarray) -> np.ndarray:
    """Matrix M[i,j] = omega(e_i, e_j) at raw coords x, from a 1-form
    primitive (x of shape (..., dim), M of shape (..., dim, dim)) or a
    callable returning the matrix at one point."""
    if isinstance(source, OneFormField):
        return d_matrix(source, x)
    return np.asarray(source(x), dtype=float)


def liouville_vector_field(form: OneFormField, p: ChartPoint) -> np.ndarray:
    """X with d(form)(X, .) = form at each row of p."""
    m = d_matrix(form, p.coords)
    b = eval_one_form(form, p)
    # d(beta)(X, e_j) = sum_i X_i M[i,j] = (M^T X)_j
    return _checked_solve(m.swapaxes(-1, -2), b,
                          f"liouville_vector_field({form.form_id})")


def hamiltonian_vector_field(fn: Callable[[np.ndarray], np.ndarray], omega_source,
                             p: ChartPoint) -> np.ndarray:
    """X_f with df(.) = omega(X_f, .) at each row of p; fn maps coords
    (..., dim) to values (...), and omega comes from a primitive 1-form or
    (at a single point) a matrix callable."""
    df = central_difference(fn, p.coords, np.eye(p.chart.dim))
    if not np.all(np.isfinite(df)):
        raise DomainError("non-finite derivative of the Hamiltonian")
    m = two_form_matrix(omega_source, p.coords)
    return _checked_solve(m.swapaxes(-1, -2), df, "hamiltonian_vector_field")


def reeb_vector_field(alpha: OneFormField, p: ChartPoint) -> np.ndarray:
    """R (in ambient components) with alpha(R)=1 and d(alpha)(R, .)=0 on the
    chart's tangent space, at each row of p.  On constrained charts the
    solve is restricted to an orthonormal tangent frame."""
    m = d_matrix(alpha, p.coords)
    a = eval_one_form(alpha, p)
    if p.chart.constraints:
        frame = tangent_frame(p)
        m = matmul(frame.swapaxes(-1, -2), matmul(m, frame))   # 2-form on the frame
        a = matvec(frame.swapaxes(-1, -2), a)                   # 1-form on the frame
    # Unknown c (frame coords of R): rows m^T c = 0, a . c = 1.  The right
    # side is the last unit vector, so the least-squares solution is the
    # last column of the pseudo-inverse (lstsq does not take stacks).
    sys = np.concatenate([m.swapaxes(-1, -2), a[..., None, :]], axis=-2)
    c = np.linalg.pinv(sys)[..., -1]
    rhs = np.zeros(sys.shape[-2])
    rhs[-1] = 1.0
    resid = np.max(np.abs(matvec(sys, c) - rhs), axis=-1)
    ok = resid <= RESIDUAL_TOL
    if not ok.all():
        raise DegenerateSystemError(
            f"reeb_vector_field({alpha.form_id}): residual {first_bad(resid, ok):.3e}")
    return matvec(frame, c) if p.chart.constraints else c


def moser_field(beta: OneFormField, beta_prime: OneFormField,
                p: ChartPoint) -> np.ndarray:
    """V with d(beta)(V, .) = beta - beta', requiring d(beta) = d(beta')."""
    m = two_form_matrix(beta, p.coords)
    m2 = two_form_matrix(beta_prime, p.coords)
    mismatch = np.max(np.abs(m - m2))
    if mismatch > RESIDUAL_TOL * max(1.0, np.max(np.abs(m))):
        raise DegenerateSystemError(
            f"moser_field: d(beta) != d(beta') (mismatch {mismatch:.3e})")
    rhs = eval_one_form(beta, p) - eval_one_form(beta_prime, p)
    if not np.any(rhs):
        return np.zeros(p.chart.dim)
    return _checked_solve(m.T, rhs, "moser_field")


def flow(v: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
         time: float, steps: int = 8) -> np.ndarray:
    """Classical RK4 integration of x' = v(x) for the given time."""
    x = np.asarray(x0, dtype=float).copy()
    h = time / steps
    for _ in range(steps):
        k1 = np.asarray(v(x))
        k2 = np.asarray(v(x + 0.5 * h * k1))
        k3 = np.asarray(v(x + 0.5 * h * k2))
        k4 = np.asarray(v(x + h * k3))
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x
