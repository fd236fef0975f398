"""Vector fields defined by linear equations against 2-forms.

Conventions:
  * Liouville field:     d(beta)(X, .) = beta
  * Hamiltonian field:   df(.) = omega(X_f, .)
  * Reeb field:          alpha(R) = 1,  d(alpha)(R, .) = 0
  * Moser field:         d(beta)(V, .) = beta - beta'

All solves are dense; systems with condition number above ``COND_MAX`` are
refused rather than silently returning garbage.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .charts import ChartPoint, tangent_frame
from .errors import DegenerateSystemError, IllConditionedError
from .forms import DEFAULT_STEP, OneFormField, central_difference, d_matrix, \
    eval_one_form

COND_MAX = 1e10


def _checked_solve(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_MAX:
        raise IllConditionedError(
            f"{what}: condition number {cond:.3e} exceeds {COND_MAX:.0e}", cond)
    return np.linalg.solve(mat, rhs)


def two_form_matrix(source, p: ChartPoint, step: float = DEFAULT_STEP) -> np.ndarray:
    """Matrix M[i,j] = omega(e_i, e_j) from a 1-form primitive or a callable."""
    if isinstance(source, OneFormField):
        return d_matrix(source, p.coords, step)
    return np.asarray(source(p.coords), dtype=float)


def liouville_vector_field(form: OneFormField, p: ChartPoint,
                           step: float = DEFAULT_STEP) -> np.ndarray:
    """X with d(form)(X, .) = form at p."""
    m = two_form_matrix(form, p, step)
    b = eval_one_form(form, p)
    # d(beta)(X, e_j) = sum_i X_i M[i,j] = (M^T X)_j
    return _checked_solve(m.T, b, f"liouville_vector_field({form.form_id})")


def hamiltonian_vector_field(fn: Callable[[np.ndarray], float], omega_source,
                             p: ChartPoint, step: float = DEFAULT_STEP) -> np.ndarray:
    """X_f with df(.) = omega(X_f, .); omega from a primitive 1-form or callable."""
    df = central_difference(fn, p.coords, np.eye(p.chart.dim), step)
    m = two_form_matrix(omega_source, p, step)
    return _checked_solve(m.T, df, "hamiltonian_vector_field")


def reeb_vector_field(alpha: OneFormField, p: ChartPoint,
                      step: float = DEFAULT_STEP,
                      residual_tol: float = 1e-6) -> np.ndarray:
    """R (in ambient components) with alpha(R)=1 and d(alpha)(R, .)=0 on the
    chart's tangent space.  On constrained charts the solve is restricted to
    an orthonormal tangent frame."""
    frame = tangent_frame(p)
    m = two_form_matrix(alpha, p, step)
    a = eval_one_form(alpha, p)
    mt = frame.T @ m @ frame          # 2-form on the frame
    at = frame.T @ a                  # 1-form on the frame
    # Unknown c (frame coords of R): rows mt.T c = 0, at . c = 1.
    sys = np.vstack([mt.T, at[None, :]])
    rhs = np.concatenate([np.zeros(mt.shape[0]), [1.0]])
    c, *_ = np.linalg.lstsq(sys, rhs, rcond=None)
    resid = np.max(np.abs(sys @ c - rhs))
    if resid > residual_tol:
        raise DegenerateSystemError(
            f"reeb_vector_field({alpha.form_id}): residual {resid:.3e}")
    return frame @ c


def moser_field(beta: OneFormField, beta_prime: OneFormField, p: ChartPoint,
                step: float = DEFAULT_STEP,
                match_tol: float = 1e-6) -> np.ndarray:
    """V with d(beta)(V, .) = beta - beta', requiring d(beta) = d(beta')."""
    m = two_form_matrix(beta, p, step)
    m2 = two_form_matrix(beta_prime, p, step)
    mismatch = np.max(np.abs(m - m2))
    if mismatch > match_tol * max(1.0, np.max(np.abs(m))):
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
