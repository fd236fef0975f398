"""The catalog of explicit 1-forms and finite-difference exterior derivatives.

Catalog forms are exact closed-form evaluators; the only numerical error in
this module comes from differentiation (central differences with the fixed
spatial step ``STEP`` = 1e-5, O(step^2) accurate on the smooth catalog
formulas).

``central_difference`` is the package's single differencing stencil, always
with step ``STEP``.  ``d_matrix`` differentiates forms with it,
``fields.hamiltonian_vector_field`` differentiates the Hamiltonian,
``conditions`` differentiates the pairing alpha(v) (the Lie derivative of
the dilation check, by Cartan's formula), and ``twist.pullback_two_form``
takes the differential of a map along a tangent frame.  Steps and
tolerances are module constants (``STEP`` here, ``DILATION_TOL`` in
``conditions``, ``RESIDUAL_TOL`` and ``COND_MAX`` in ``fields``,
``POINT_TOL`` in ``charts``): no kernel function takes a step or tolerance
argument.

Evaluators act on coords of shape (..., dim), one point per row, and return
covectors of the same shape; ``eval_one_form`` and ``d_matrix`` keep the
leading shape, so a batch of N points is one call and a single point is the
case with no leading axis.  ``central_difference`` stacks the 2k displaced
copies of a batch on a new leading axis and calls its function once on the
stack, so every differenced callable (evaluators, Hamiltonians, vector
fields, maps) must map (..., dim) to (..., out...); a result that drops
those leading axes is refused with ``DomainError``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .charts import Chart, ChartPoint, darboux_chart, cotangent_chart, \
    prepend_coords, require_same_chart
from .errors import ChartMismatchError, DomainError

STEP = 1e-5


class OneFormField(NamedTuple):
    """A 1-form given by an evaluator mapping coords (..., dim) to covector
    components (..., dim), row by row."""

    form_id: str
    chart: Chart
    evaluator: Callable[[np.ndarray], np.ndarray]


def eval_one_form(form: OneFormField, p: ChartPoint) -> np.ndarray:
    """Covector components of ``form`` at the rows of ``p``, shape
    (..., dim) (exact for catalog forms)."""
    require_same_chart(form.chart, p.chart)
    out = np.asarray(form.evaluator(p.coords), dtype=float)
    if out.shape != p.coords.shape:
        raise DomainError(f"evaluator returned shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise DomainError(f"non-finite evaluation of {form.form_id}")
    return out


def central_difference(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       directions: np.ndarray) -> np.ndarray:
    """Derivatives of ``fn`` at x along the columns d_i of ``directions``:
    entry [..., i] is (fn(x + STEP d_i) - fn(x - STEP d_i)) / (2 STEP), so a
    vector-valued fn gives the matrix whose column i is that difference.

    x may be a batch of points (B..., dim) with one frame (B..., dim, k) per
    point.  fn is called once, on the stack of all 2k displaced batches
    (2k, B..., dim), and must return (2k, B..., out...); the result is
    (B..., out..., k)."""
    offsets = STEP * directions.swapaxes(-1, -2)
    k = offsets.shape[-2]
    x = x[..., None, :]
    ys = np.concatenate([x + offsets, x - offsets], axis=-2)  # (B..., 2k, dim)
    ys = ys.transpose((ys.ndim - 2, *range(ys.ndim - 2), ys.ndim - 1))
    values = np.asarray(fn(ys), dtype=float)
    if values.shape[:ys.ndim - 1] != ys.shape[:-1]:
        raise DomainError(f"differenced function returned shape {values.shape} "
                          f"for points of shape {ys.shape}")
    diff = (values[:k] - values[k:]) / (2.0 * STEP)
    return diff.transpose((*range(1, diff.ndim), 0))


def d_matrix(form: OneFormField, x: np.ndarray) -> np.ndarray:
    """Entries of d(form) at raw coords x (..., dim): d_i a_j - d_j a_i, by
    central differences, shape (..., dim, dim).  The evaluator runs once, on
    all differencing offsets of the whole batch."""
    jac = central_difference(form.evaluator, x, np.eye(x.shape[-1]))  # d a_i / d x_j
    if jac.shape != x.shape + x.shape[-1:]:
        raise DomainError(f"evaluator of {form.form_id} returned covectors of shape "
                          f"{jac.shape[x.ndim - 1:-1]}, not {x.shape[-1:]}")
    if not np.all(np.isfinite(jac)):
        raise DomainError(f"non-finite derivative of {form.form_id}")
    return jac.swapaxes(-1, -2) - jac


def _prepend(first: float, rest: np.ndarray) -> np.ndarray:
    """The component ``first`` in front of the components ``rest`` (..., k)
    of every row."""
    rest = np.asarray(rest, dtype=float)
    out = np.empty(rest.shape[:-1] + (rest.shape[-1] + 1,))
    out[..., 0] = first
    out[..., 1:] = rest
    return out


# ---------------------------------------------------------------------------
# Catalog forms
# ---------------------------------------------------------------------------

def lambda_std(n: int) -> OneFormField:
    """(1/2) sum (x_j dy_j - y_j dx_j) on R^{2n} with coords (x, y)."""

    def ev(c: np.ndarray) -> np.ndarray:
        x, y = c[..., :n], c[..., n:]
        return np.concatenate([-0.5 * y, 0.5 * x], axis=-1)

    return OneFormField("lambda_std", darboux_chart(n), ev)


def lambda_can(n: int) -> OneFormField:
    """sum p_j dq_j on R^{2n} with coords (q, p)."""

    def ev(c: np.ndarray) -> np.ndarray:
        p = c[..., n:]
        return np.concatenate([p, np.zeros_like(p)], axis=-1)

    return OneFormField("lambda_can", cotangent_chart(n), ev)


def weinstein(n: int, k: int) -> OneFormField:
    """The handle Liouville form: the standard form with the first k factors
    tilted to (3/2) x_j dy_j + (1/2) y_j dx_j."""
    if not 0 <= k <= n:
        raise DomainError(f"weinstein index k={k} out of range 0..{n}")

    def ev(c: np.ndarray) -> np.ndarray:
        x, y = c[..., :n], c[..., n:]
        dx = np.where(np.arange(n) < k, 0.5 * y, -0.5 * y)
        dy = np.where(np.arange(n) < k, 1.5 * x, 0.5 * x)
        return np.concatenate([dx, dy], axis=-1)

    return OneFormField(f"weinstein({n},{k})", darboux_chart(n), ev)


def weinstein_hamiltonian(n: int, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """f_k = sum_{j<=k} x_j y_j on the darboux chart of weinstein(n,k), one
    value per row of coords (..., 2n)."""

    def f(c: np.ndarray) -> np.ndarray:
        return (c[..., :k] * c[..., n:n + k]).sum(axis=-1)

    return f


def handle_form(beta: OneFormField) -> OneFormField:
    """lambda = -theta dz - 2 z dtheta + beta on [-1,1] x N(Sigma).

    Chart coordinates are (theta, z, <beta chart coords>); d(lambda) is the
    handle symplectic form dtheta^dz + d(beta).
    """
    chart = prepend_coords(beta.chart, ("theta", "z"),
                           name=f"handle({beta.chart.name})")

    def ev(c: np.ndarray) -> np.ndarray:
        theta, z = c[..., :1], c[..., 1:2]
        return np.concatenate([-2.0 * z, -theta, beta.evaluator(c[..., 2:])],
                              axis=-1)

    return OneFormField(f"handle_form({beta.form_id})", chart, ev)


def dz_plus(beta: OneFormField) -> OneFormField:
    """alpha = dz + beta on [-eps, eps] x Sigma, coords (z, <beta coords>)."""
    chart = prepend_coords(beta.chart, ("z",), name=f"collar({beta.chart.name})")

    def ev(c: np.ndarray) -> np.ndarray:
        return _prepend(1.0, beta.evaluator(c[..., 1:]))

    return OneFormField(f"dz_plus({beta.form_id})", chart, ev)


def theta_invariant(beta: OneFormField, epsilon: float, sheet: int = 1) -> OneFormField:
    """The theta-invariant contact form -+ eps dtheta + beta on a z = +-eps sheet.

    ``sheet=+1`` is the z=+eps sheet (form -eps dtheta + beta); ``sheet=-1``
    the z=-eps sheet (+eps dtheta + beta).
    """
    if sheet not in (1, -1):
        raise DomainError("sheet must be +1 or -1")
    chart = prepend_coords(beta.chart, ("theta",),
                           name=f"theta_collar({beta.chart.name})")

    def ev(c: np.ndarray) -> np.ndarray:
        return _prepend(-sheet * epsilon, beta.evaluator(c[..., 1:]))

    return OneFormField(f"theta_invariant({beta.form_id},{sheet:+d})", chart, ev)


def symplectization(alpha: OneFormField) -> OneFormField:
    """t * alpha on the collar (t, <alpha coords>), t > 0."""
    chart = prepend_coords(alpha.chart, ("t",), name=f"symp({alpha.chart.name})")

    def ev(c: np.ndarray) -> np.ndarray:
        return _prepend(0.0, c[..., :1] * np.asarray(alpha.evaluator(c[..., 1:])))

    return OneFormField(f"symp({alpha.form_id})", chart, ev)


def restrict_form(form: OneFormField, chart: Chart) -> OneFormField:
    """The same ambient formula viewed on a constrained chart with the same
    ambient coordinates (e.g. lambda_std restricted to S^3)."""
    if chart.coord_names != form.chart.coord_names:
        raise ChartMismatchError(
            f"cannot restrict {form.form_id}: ambient coordinates differ "
            f"({','.join(form.chart.coord_names)} vs {','.join(chart.coord_names)})")
    return OneFormField(f"{form.form_id}|{chart.name}", chart, form.evaluator)

