"""Vector fields defined by linear equations against 2-forms.

Conventions:
  * Liouville field:     d(beta)(X, .) = beta
  * Hamiltonian field:   df(.) = omega(X_f, .)
  * Reeb field:          alpha(R) = 1,  d(alpha)(R, .) = 0

Every solve is batched: a ``ChartPoint`` holding N points (coords
(N, dim)) gives N fields (N, dim) from one stacked ``cond``/``solve``
(Liouville, Hamiltonian) or one stacked pseudo-inverse (Reeb), and a single
point is the case with no leading axis.  The 2-forms are the ``d_matrix`` of
a primitive 1-form.  All solves are dense; a batch in which any system has
condition number above ``COND_MAX``, or any Reeb system a residual above
``RESIDUAL_TOL``, is refused as a whole rather than silently returning
garbage.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .charts import ChartPoint, first_bad, matmul, matvec, require_same_chart, tangent_frame
from .errors import DegenerateSystemError, DomainError, IllConditionedError
from .forms import OneFormField, central_difference, d_matrix, eval_one_form

COND_MAX = 1e10
RESIDUAL_TOL = 1e-6  # largest Reeb lstsq residual


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


def liouville_vector_field(form: OneFormField, p: ChartPoint) -> np.ndarray:
    """X with d(form)(X, .) = form at each row of p."""
    m = d_matrix(form, p.coords)
    b = eval_one_form(form, p)
    # d(beta)(X, e_j) = sum_i X_i M[i,j] = (M^T X)_j
    return _checked_solve(m.swapaxes(-1, -2), b,
                          f"liouville_vector_field({form.form_id})")


def hamiltonian_vector_field(fn: Callable[[np.ndarray], np.ndarray],
                             beta: OneFormField, p: ChartPoint) -> np.ndarray:
    """X_f with df(.) = omega(X_f, .) at each row of p, for omega = d(beta);
    fn maps coords (..., dim) to values (...)."""
    require_same_chart(beta.chart, p.chart)
    df = central_difference(fn, p.coords, np.eye(p.chart.dim))
    if not np.all(np.isfinite(df)):
        raise DomainError("non-finite derivative of the Hamiltonian")
    m = d_matrix(beta, p.coords)
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

