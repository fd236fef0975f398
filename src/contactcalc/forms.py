"""The catalog of explicit 1-forms and finite-difference exterior derivatives.

Catalog forms are exact closed-form evaluators; the only numerical error in
this module comes from differentiation (central differences, default step
1e-5, O(step^2) accurate on the smooth catalog formulas).

``central_difference`` is the package's single differencing stencil and the
one place a step is validated.  ``d_matrix`` differentiates forms with it,
``fields.hamiltonian_vector_field`` differentiates the Hamiltonian,
``conditions`` takes flow Jacobians and the t-derivatives of flow pullbacks
(the Lie derivatives of the dilation checks), and
``twist.pullback_two_form`` takes the differential of a map along a tangent
frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .charts import Chart, ChartPoint, darboux_chart, cotangent_chart, \
    prepend_coords, require_same_chart
from .errors import ChartMismatchError, DomainError

DEFAULT_STEP = 1e-5


@dataclass(frozen=True)
class OneFormField:
    """A 1-form given by an evaluator mapping coords -> covector components."""

    form_id: str
    chart: Chart
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def at(self, p: ChartPoint) -> np.ndarray:
        return eval_one_form(self, p)


@dataclass(frozen=True)
class SkewMatrixAtPoint:
    """Values of a 2-form on coordinate basis pairs at a point."""

    base: ChartPoint
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        m = self.base.chart.dim
        if e.shape != (m, m):
            raise DomainError(f"2-form matrix shape {e.shape} != ({m},{m})")
        if np.max(np.abs(e + e.T)) > 1e-8 * max(1.0, np.max(np.abs(e))):
            raise DomainError("2-form matrix is not skew-symmetric")


def eval_one_form(form: OneFormField, p: ChartPoint) -> np.ndarray:
    """Covector components of ``form`` at ``p`` (exact for catalog forms)."""
    require_same_chart(form.chart, p.chart)
    out = np.asarray(form.evaluator(p.coords), dtype=float)
    if out.shape != (form.chart.dim,):
        raise DomainError(f"evaluator returned shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise DomainError(f"non-finite evaluation of {form.form_id}")
    return out


def central_difference(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       directions: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Derivatives of ``fn`` at x along the columns d_i of ``directions``:
    entry [..., i] is (fn(x + step d_i) - fn(x - step d_i)) / (2 step), so a
    vector-valued fn gives the matrix whose column i is that difference."""
    if not 0.0 < step < np.inf:
        raise DomainError(f"bad differencing step {step}")
    offsets = step * directions.T
    k = offsets.shape[0]
    values = np.array([fn(y) for y in np.concatenate([x + offsets, x - offsets])],
                      dtype=float)
    diff = (values[:k] - values[k:]) / (2.0 * step)
    return diff.transpose((*range(1, diff.ndim), 0))


def d_matrix(form: OneFormField, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Entries of d(form) at raw coords x: d_i a_j - d_j a_i, central differences."""
    jac = central_difference(form.evaluator, x, np.eye(x.size), step)  # d a_i / d x_j
    if not np.all(np.isfinite(jac)):
        raise DomainError(f"non-finite derivative of {form.form_id}")
    return jac.T - jac


def exterior_derivative(form: OneFormField, p: ChartPoint,
                        step: float = DEFAULT_STEP) -> SkewMatrixAtPoint:
    """d(form) at p as a SkewMatrixAtPoint."""
    return SkewMatrixAtPoint(p, d_matrix(form, p.coords, step))


# ---------------------------------------------------------------------------
# Catalog forms
# ---------------------------------------------------------------------------

def lambda_std(n: int) -> OneFormField:
    """(1/2) sum (x_j dy_j - y_j dx_j) on R^{2n} with coords (x, y)."""

    def ev(c: np.ndarray) -> np.ndarray:
        x, y = c[:n], c[n:]
        return np.concatenate([-0.5 * y, 0.5 * x])

    return OneFormField("lambda_std", darboux_chart(n), ev)


def lambda_can(n: int) -> OneFormField:
    """sum p_j dq_j on R^{2n} with coords (q, p)."""

    def ev(c: np.ndarray) -> np.ndarray:
        p = c[n:]
        return np.concatenate([p, np.zeros(n)])

    return OneFormField("lambda_can", cotangent_chart(n), ev)


def weinstein(n: int, k: int) -> OneFormField:
    """The handle Liouville form: the standard form with the first k factors
    tilted to (3/2) x_j dy_j + (1/2) y_j dx_j."""
    if not 0 <= k <= n:
        raise DomainError(f"weinstein index k={k} out of range 0..{n}")

    def ev(c: np.ndarray) -> np.ndarray:
        x, y = c[:n], c[n:]
        dx = np.where(np.arange(n) < k, 0.5 * y, -0.5 * y)
        dy = np.where(np.arange(n) < k, 1.5 * x, 0.5 * x)
        return np.concatenate([dx, dy])

    return OneFormField(f"weinstein({n},{k})", darboux_chart(n), ev)


def weinstein_hamiltonian(n: int, k: int) -> Callable[[np.ndarray], float]:
    """f_k = sum_{j<=k} x_j y_j on the darboux chart of weinstein(n,k)."""

    def f(c: np.ndarray) -> float:
        return float(np.dot(c[:k], c[n:n + k]))

    return f


def handle_form(beta: OneFormField) -> OneFormField:
    """lambda = -theta dz - 2 z dtheta + beta on [-1,1] x N(Sigma).

    Chart coordinates are (theta, z, <beta chart coords>); d(lambda) is the
    handle symplectic form dtheta^dz + d(beta).
    """
    chart = prepend_coords(beta.chart, ("theta", "z"),
                           name=f"handle({beta.chart.name})")

    def ev(c: np.ndarray) -> np.ndarray:
        theta, z = c[0], c[1]
        return np.concatenate([[-2.0 * z, -theta], beta.evaluator(c[2:])])

    return OneFormField(f"handle_form({beta.form_id})", chart, ev)


def dz_plus(beta: OneFormField) -> OneFormField:
    """alpha = dz + beta on [-eps, eps] x Sigma, coords (z, <beta coords>)."""
    chart = prepend_coords(beta.chart, ("z",), name=f"collar({beta.chart.name})")

    def ev(c: np.ndarray) -> np.ndarray:
        return np.concatenate([[1.0], beta.evaluator(c[1:])])

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
        return np.concatenate([[-sheet * epsilon], beta.evaluator(c[1:])])

    return OneFormField(f"theta_invariant({beta.form_id},{sheet:+d})", chart, ev)


def symplectization(alpha: OneFormField) -> OneFormField:
    """t * alpha on the collar (t, <alpha coords>), t > 0."""
    chart = prepend_coords(alpha.chart, ("t",), name=f"symp({alpha.chart.name})")

    def ev(c: np.ndarray) -> np.ndarray:
        return np.concatenate([[0.0], c[0] * np.asarray(alpha.evaluator(c[1:]))])

    return OneFormField(f"symp({alpha.form_id})", chart, ev)


def custom_form(form_id: str, chart: Chart, evaluator) -> OneFormField:
    return OneFormField(form_id, chart, evaluator)


def restrict_form(form: OneFormField, chart: Chart) -> OneFormField:
    """The same ambient formula viewed on a constrained chart of equal
    ambient dimension (e.g. lambda_std restricted to S^3)."""
    if chart.dim != form.chart.dim:
        raise ChartMismatchError(
            f"cannot restrict {form.form_id}: ambient dims differ "
            f"({form.chart.dim} vs {chart.dim})")
    return OneFormField(f"{form.form_id}|{chart.name}", chart, form.evaluator)

