"""Generalized Dehn twists on T*S^n and the square-trivializing isotopies.

Points of T*S^n are pairs (u, v) in R^{n+1} x R^{n+1} with ||u|| = 1 and
<u, v> = 0.  The twist tau rotates the oriented plane spanned by u and
v/||v|| by the angle f(||v||) = pi + pi smoothstep(||v|| / EPSILON), so it is
the antipodal map on the zero section and the identity for ||v|| >= EPSILON
= 0.4.  Its isotopy class depends on neither f nor EPSILON, so both are
fixed: every map below is a function of the point alone.

A ``CotangentPoint`` is a ``ChartPoint`` on the constrained chart
``tstar_chart(n)``, so its validation and its tangent frames
(``charts.tangent_frame``) are the forms kernel's own.  Every map here is
batched over leading axes: a point holds u and v of shape (..., n+1), one
point per row, and the maps, generators, exponentials and pullbacks act row
by row and return the same leading shape, and ``random_points`` draws
samples as one batch.  A single point (u and v of shape (n+1,)) is the
N = 1 case of the same code.  Rows are multiplied with the ``charts`` row
helpers, not BLAS calls.

The generators are plain skew arrays of shape (..., n+1, n+1), built from a
``CotangentPoint``: the plane generator v_u and the fiberwise j_u, the cross
product with u (one ``octonion.cross_matrix`` for n = 2 and n = 6).  Both
satisfy A^3 = -A because the point's validation holds ||u|| = 1 and
<u, v> = 0, so ``generator_exp`` takes the closed form without re-checking.

Every map follows one zero-fiber rule: its formula runs on every row, with
v-hat set to 0 where ||v|| < ``ZERO_FIBER_THRESHOLD`` (so the plane
generator is 0 there and every exponential is finite), and one ``np.where``
then sends those rows to (-u, 0) under the twist and to (u, 0) under tau^2,
Phi_t and Psi_t.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .charts import (Chart, ChartPoint, Constraint, matmul, matvec, row_dot, row_norm,
                     tangent_frame, unit_norm_constraint)
from .errors import DomainError
from .forms import central_difference
from .octonion import cross_matrix
from .rounding import smoothstep

ZERO_FIBER_THRESHOLD = 1e-12
EPSILON = 0.4
PROBE_SAMPLES = 5


@functools.cache
def tstar_chart(n: int) -> Chart:
    """T*S^n in ambient coordinates (u_0..u_n, v_0..v_n), constrained by
    ||u||^2 = 1 and <u, v> = 0 in that order."""
    m = n + 1
    pairing = Constraint("pairing", lambda x: row_dot(x[..., :m], x[..., m:]),
                         lambda x: np.concatenate([x[..., m:], x[..., :m]], axis=-1))
    names = tuple(f"u{j}" for j in range(m)) + tuple(f"v{j}" for j in range(m))
    return Chart(f"T*S{n}", names, (unit_norm_constraint(range(m)), pairing))


class CotangentPoint(ChartPoint):
    """Points (u, v) of T*S^n, one per row of u and v (shape (..., n+1)):
    ``ChartPoint``s on ``tstar_chart(n)`` whose ``u`` and ``v`` are views
    of the two halves of ``coords``."""

    __slots__ = ()

    def __new__(cls, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != v.shape or u.ndim == 0:
            raise DomainError("u and v must be arrays of equal shape (..., n+1)")
        return super().__new__(cls, tstar_chart(u.shape[-1] - 1),
                               np.concatenate([u, v], axis=-1))

    n = property(lambda self: self.coords.shape[-1] // 2 - 1)
    u = property(lambda self: self.coords[..., :self.n + 1])
    v = property(lambda self: self.coords[..., self.n + 1:])
    __getnewargs__ = lambda self: (self.u, self.v)  # noqa: E731 (copy and pickle)

    @classmethod
    def _make(cls, iterable):
        # Through __new__ from the checked coords' halves; T*S^n has one chart.
        p = ChartPoint._make(iterable)
        h = p.coords.shape[-1] // 2
        q = CotangentPoint(p.coords[..., :h], p.coords[..., h:])
        if q.chart != p.chart:
            raise DomainError(f"a point of {q.chart.name} is not on {p.chart.name}")
        return q


def retract(u: np.ndarray, v: np.ndarray) -> CotangentPoint:
    """Project nearby ambient data back onto T*S^n, row by row."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = row_norm(u)[..., None]
    if not np.all(nu >= 0.5):
        raise DomainError("point too far from T*S^n to retract")
    uhat = u / nu
    return CotangentPoint(uhat, v - row_dot(v, uhat)[..., None] * uhat)


def random_points(rng: np.random.Generator, n: int, fiber_radius: float,
                  count: int) -> CotangentPoint:
    """``count`` points (count, n+1): u uniform on S^n, v normal to u with ||v||
    uniform in [1e-3, 1) * fiber_radius.  A projected v under 1e-8 is redrawn."""
    if n < 1:
        raise DomainError(f"T*S^n needs n >= 1, got {n}")
    u = rng.normal(size=(count, n + 1))
    u /= row_norm(u)[:, None]
    v = np.zeros_like(u)
    while (short := row_norm(v) < 1e-8).any():
        w = rng.normal(size=(int(short.sum()), n + 1))
        v[short] = w - row_dot(w, u[short])[:, None] * u[short]
    v *= (rng.uniform(1e-3, 1.0, count) * fiber_radius / row_norm(v))[:, None]
    return CotangentPoint(u, v)


def profile(x) -> np.ndarray:
    """The twist's angle f(x): pi at 0, nondecreasing, 2 pi for x >= EPSILON."""
    return np.pi + np.pi * smoothstep(np.asarray(x, dtype=float) / EPSILON)


def _fiber(p: CotangentPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fiber norms ||v|| and the zero-fiber mask of the rows of p (shape
    (..., 1) each), and v-hat = v / ||v||, 0 on the zero fiber."""
    norm = row_norm(p.v)[..., None]
    zero = norm < ZERO_FIBER_THRESHOLD
    return norm, zero, np.where(zero, 0.0, p.v / np.where(zero, 1.0, norm))


def _plane(u: np.ndarray, vhat: np.ndarray) -> np.ndarray:
    return vhat[..., :, None] * u[..., None, :] - u[..., :, None] * vhat[..., None, :]


def plane_generator(p: CotangentPoint) -> np.ndarray:
    """v_u = vhat u^T - u vhat^T (shape (..., n+1, n+1)): rotates the
    oriented (u, vhat) plane and annihilates its orthogonal complement."""
    _, zero, vhat = _fiber(p)
    if zero.any():
        raise DomainError("plane generator undefined on the zero fiber")
    return _plane(p.u, vhat)


def almost_complex_generator(p: CotangentPoint) -> np.ndarray:
    """j_u = cross product with u (shape (..., n+1, n+1)): the
    3-dimensional cross product for n=2, the octonionic 7-dimensional one
    for n=6."""
    if p.n not in (2, 6):
        raise DomainError(f"almost-complex generator needs n in {{2,6}}, got {p.n}")
    return cross_matrix(p.u)


def generator_exp(a: np.ndarray, theta) -> np.ndarray:
    """e^(theta A) = I + sin(theta) A + (1 - cos(theta)) A^2 for skew A with
    A^3 = -A, as the generators above are on T*S^n; theta is one angle or
    one per generator of the stack."""
    theta = np.asarray(theta, dtype=float)[..., None, None]
    return np.eye(a.shape[-1]) + np.sin(theta) * a + (1.0 - np.cos(theta)) * matmul(a, a)


def mixed_exp(matrix: np.ndarray) -> np.ndarray:
    """e^M = V diag(e^(-iw)) V^H for real skew M, where iM = V diag(w) V^H;
    a stack of matrices takes one stacked ``eigh``."""
    w, v = np.linalg.eigh(1j * matrix)
    return matmul(v * np.exp(-1j * w)[..., None, :],
                   np.swapaxes(v, -1, -2).conj()).real


def apply_twist(p: CotangentPoint) -> CotangentPoint:
    """tau_n(u, v): rotate (u, v) by f(||v||) in the (u, v-hat) plane."""
    norm, zero, vhat = _fiber(p)
    theta = profile(norm)
    c, s = np.cos(theta), np.sin(theta)
    return CotangentPoint(np.where(zero, -p.u, c * p.u + s * vhat),
                          np.where(zero, 0.0, -norm * s * p.u + c * p.v))


def _plane_rotation(p: CotangentPoint, k: int) -> CotangentPoint:
    """e^(k f v_u) applied to both components; the zero section goes to
    (-1)^k u."""
    norm, zero, vhat = _fiber(p)
    rot = generator_exp(_plane(p.u, vhat), k * profile(norm[..., 0]))
    return CotangentPoint(np.where(zero, (-1) ** k * p.u, matvec(rot, p.u)),
                          np.where(zero, 0.0, matvec(rot, p.v)))


def apply_twist_via_generator(p: CotangentPoint) -> CotangentPoint:
    """Second evaluation path of tau: e^(f v_u) applied to both components."""
    return _plane_rotation(p, 1)


def twist_square_direct(p: CotangentPoint) -> CotangentPoint:
    """tau^2 in one step: e^(2 f v_u) applied to both components."""
    return _plane_rotation(p, 2)


def isotopy_phi(t, p: CotangentPoint) -> CotangentPoint:
    """Phi_t: e^(2 f ((1-t) j_u + t v_u)) applied to both components;
    the zero section is sent to itself.  t is one time or one per row."""
    j = almost_complex_generator(p)
    norm, zero, vhat = _fiber(p)
    t = np.asarray(t, dtype=float)[..., None, None]
    a = (1.0 - t) * j + t * _plane(p.u, vhat)
    rot = mixed_exp((2.0 * profile(norm))[..., None] * a)
    return CotangentPoint(np.where(zero, p.u, matvec(rot, p.u)),
                          np.where(zero, 0.0, matvec(rot, p.v)))


def isotopy_psi(t, p: CotangentPoint) -> CotangentPoint:
    """Psi_t: fiberwise rotation (u, e^(t 2 f j_u) v); Psi_0 = id, Psi_1 = Phi_0.
    t is one time or one per row."""
    j = almost_complex_generator(p)
    norm, zero, _ = _fiber(p)
    rot = generator_exp(j, np.asarray(t, dtype=float) * 2.0 * profile(norm[..., 0]))
    return CotangentPoint(p.u, np.where(zero, 0.0, matvec(rot, p.v)))


# ---------------------------------------------------------------------------
# Numerical pullback of -d(lambda_can)
# ---------------------------------------------------------------------------

class PullbackResult(NamedTuple):
    frame: np.ndarray
    pulled: np.ndarray
    reference: np.ndarray

    @property
    def deviations(self) -> np.ndarray:
        """Largest entry of |pulled - reference| per point of the batch."""
        return np.max(np.abs(self.pulled - self.reference), axis=(-2, -1))

    @property
    def max_deviation(self) -> float:
        return float(np.max(self.deviations))


def pullback_two_form(map_fn: Callable[[CotangentPoint], CotangentPoint],
                      p: CotangentPoint) -> PullbackResult:
    """Pull back -d(lambda_can) through ``map_fn`` on a tangent frame at each
    point of p.

    The differential is assembled by central differences along retracted
    curves in the constraint-tangent directions; ``map_fn`` is called once,
    on one ``CotangentPoint`` holding every differencing offset of the whole
    batch (leading shape (4n, B...)).
    """
    frame = tangent_frame(p)
    m = p.u.shape[-1]

    def image(y: np.ndarray) -> np.ndarray:
        return map_fn(retract(y[..., :m], y[..., m:])).coords

    def minus_dlambda(w: np.ndarray) -> np.ndarray:
        # sum du_i ^ dv_i on the columns (du, dv) of w: du^T dv - dv^T du
        pairing = matmul(np.swapaxes(w[..., :m, :], -1, -2), w[..., m:, :])
        return pairing - np.swapaxes(pairing, -1, -2)

    diff = central_difference(image, p.coords, frame)
    return PullbackResult(frame, minus_dlambda(diff), minus_dlambda(frame))


class ProbeReport(NamedTuple):
    """Measured maximum displacement of boundary points under Phi_t."""

    max_displacement: float
    argmax_t: float


def boundary_displacement_probe(n: int, seed: int = 0) -> ProbeReport:
    """Max ||Phi_t(p) - p|| over ``PROBE_SAMPLES`` ||v|| = 1 boundary points
    and the 11-point t-grid 0, 0.1, ..., 1, evaluated as one batch.

    Reports the measurement only; whether intermediate-t maps fix the
    boundary is deliberately not asserted anywhere in this package.
    """
    q = random_points(np.random.default_rng(seed), n, 1.0, PROBE_SAMPLES)
    q = CotangentPoint(q.u, q.v / row_norm(q.v)[:, None])  # push to ||v|| = 1
    ts = np.linspace(0.0, 1.0, 11)
    grid = CotangentPoint(np.repeat(q.u[:, None, :], ts.size, axis=1),
                          np.repeat(q.v[:, None, :], ts.size, axis=1))
    disp = row_norm(isotopy_phi(ts, grid).coords - grid.coords)
    i, j = np.unravel_index(np.argmax(disp), disp.shape)
    return ProbeReport(float(disp[i, j]), float(ts[j]))
