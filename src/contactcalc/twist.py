"""Generalized Dehn twists on T*S^n and the square-trivializing isotopies.

Points of T*S^n are pairs (u, v) in R^{n+1} x R^{n+1} with ||u|| = 1 and
<u, v> = 0.  The twist rotates the oriented plane spanned by u and v/||v||
by a profile angle f(||v||) with f(0) = pi and f = 2 pi outside a small
fiber radius, so it is the antipodal map on the zero section and compactly
supported in the fibers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .charts import orthonormal_complement
from .errors import DomainError
from .forms import central_difference
from .octonion import cross7_matrix
from .rounding import smoothstep

ZERO_FIBER_THRESHOLD = 1e-12
POINT_TOL = 1e-8


@dataclass(frozen=True)
class CotangentPoint:
    """A point (u, v) of T*S^n in ambient coordinates."""

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.shape != v.shape or u.ndim != 1:
            raise DomainError("u and v must be vectors of equal length")
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if not abs(nu - 1.0) <= POINT_TOL:
            raise DomainError(f"||u|| = {nu} is not 1")
        if not math.isfinite(nv):
            raise DomainError(f"||v|| = {nv} is not finite")
        if not abs(float(np.dot(u, v))) <= POINT_TOL * max(1.0, nv):
            raise DomainError(f"<u,v> = {np.dot(u, v)} is not 0")

    @property
    def n(self) -> int:
        return self.u.size - 1

    def ambient(self) -> np.ndarray:
        return np.concatenate([self.u, self.v])

    def __repr__(self):
        return (f"CotangentPoint(n={self.n}, |v|={np.linalg.norm(self.v):.4f})")


def retract(u: np.ndarray, v: np.ndarray) -> CotangentPoint:
    """Project nearby ambient data back onto T*S^n."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    if nu < 0.5:
        raise DomainError("point too far from T*S^n to retract")
    uhat = u / nu
    return CotangentPoint(uhat, v - float(np.dot(v, uhat)) * uhat)


def random_point(rng: np.random.Generator, n: int, fiber_radius: float) -> CotangentPoint:
    """A random point with ||v|| uniform in (0, fiber_radius]."""
    u = rng.normal(size=n + 1)
    u /= np.linalg.norm(u)
    v = rng.normal(size=n + 1)
    v -= float(np.dot(v, u)) * u
    norm = np.linalg.norm(v)
    if norm < 1e-8:
        return random_point(rng, n, fiber_radius)
    v *= float(rng.uniform(1e-3, 1.0)) * fiber_radius / norm
    return CotangentPoint(u, v)


@dataclass(frozen=True)
class TwistProfile:
    """Profile angle f with f(0)=pi, nondecreasing, f=2pi for x >= epsilon."""

    epsilon: float
    f: Callable[[float], float] = field(repr=False)


def make_profile(epsilon: float) -> TwistProfile:
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0,1), got {epsilon}")

    def f(x):
        return np.pi + np.pi * smoothstep(np.asarray(x, dtype=float) / epsilon)

    return TwistProfile(epsilon, f)


@dataclass(frozen=True)
class SkewGenerator:
    """A skew matrix generating either the fiberwise almost-complex rotation
    (kind 'j_u') or the rotation of the (u, v-hat) plane (kind 'v_u')."""

    matrix: np.ndarray = field(repr=False)
    kind: str = "v_u"

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", a)
        if np.max(np.abs(a + a.T)) > 1e-12:
            raise DomainError("generator is not skew-symmetric")
        if np.max(np.abs(a @ a @ a + a)) > 1e-10:
            raise DomainError("generator does not satisfy A^3 = -A")


def plane_generator(u: np.ndarray, v: np.ndarray) -> SkewGenerator:
    """A = vhat u^T - u vhat^T: rotates the oriented (u, vhat) plane and
    annihilates its orthogonal complement."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm <= ZERO_FIBER_THRESHOLD:
        raise DomainError("plane generator undefined on the zero fiber")
    vhat = v / norm
    u = np.asarray(u, dtype=float)
    return SkewGenerator(np.outer(vhat, u) - np.outer(u, vhat), "v_u")


def almost_complex_generator(u: np.ndarray, n: int) -> SkewGenerator:
    """j_u = cross product with u: the 3-dimensional cross product for n=2,
    the octonionic 7-dimensional one for n=6."""
    u = np.asarray(u, dtype=float)
    if n == 2:
        ux, uy, uz = u
        m = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    elif n == 6:
        m = cross7_matrix(u)
    else:
        raise DomainError(f"almost-complex generator needs n in {{2,6}}, got {n}")
    return SkewGenerator(m, "j_u")


def generator_exp(gen: SkewGenerator, theta: float) -> np.ndarray:
    """e^(theta A) in closed form, valid because A^3 = -A."""
    a = gen.matrix
    return np.eye(a.shape[0]) + np.sin(theta) * a + (1.0 - np.cos(theta)) * (a @ a)


def mixed_exp(matrix: np.ndarray) -> np.ndarray:
    """e^M = V diag(e^(-iw)) V^H for real skew M, where iM = V diag(w) V^H."""
    w, v = np.linalg.eigh(1j * matrix)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def apply_twist(p: CotangentPoint, prof: TwistProfile) -> CotangentPoint:
    """tau_n(u, v): rotate (u, v) by f(||v||) in the (u, v-hat) plane."""
    norm = np.linalg.norm(p.v)
    if norm < ZERO_FIBER_THRESHOLD:
        return CotangentPoint(-p.u, np.zeros_like(p.v))
    theta = float(prof.f(norm))
    vhat = p.v / norm
    c, s = np.cos(theta), np.sin(theta)
    u_new = c * p.u + s * vhat
    v_new = -norm * s * p.u + c * p.v
    return CotangentPoint(u_new, v_new)


def apply_twist_via_generator(p: CotangentPoint, prof: TwistProfile) -> CotangentPoint:
    """Second evaluation path: (e^(f A) u, e^(f A) v) with A the plane generator."""
    norm = np.linalg.norm(p.v)
    if norm < ZERO_FIBER_THRESHOLD:
        return CotangentPoint(-p.u, np.zeros_like(p.v))
    rot = generator_exp(plane_generator(p.u, p.v), float(prof.f(norm)))
    return CotangentPoint(rot @ p.u, rot @ p.v)


def twist_square_direct(p: CotangentPoint, prof: TwistProfile) -> CotangentPoint:
    """tau^2 in one step: e^(2 f v_u) applied to both components."""
    norm = np.linalg.norm(p.v)
    if norm < ZERO_FIBER_THRESHOLD:
        return CotangentPoint(p.u.copy(), np.zeros_like(p.v))
    rot = generator_exp(plane_generator(p.u, p.v), 2.0 * float(prof.f(norm)))
    return CotangentPoint(rot @ p.u, rot @ p.v)


def isotopy_phi(t: float, p: CotangentPoint, prof: TwistProfile) -> CotangentPoint:
    """Phi_t: e^(2 f ((1-t) j_u + t v_u)) applied to both components;
    the zero section is sent to itself."""
    if p.n not in (2, 6):
        raise DomainError(f"isotopy_phi needs n in {{2,6}}, got {p.n}")
    norm = np.linalg.norm(p.v)
    if norm < ZERO_FIBER_THRESHOLD:
        return CotangentPoint(p.u.copy(), np.zeros_like(p.v))
    j = almost_complex_generator(p.u, p.n).matrix
    a = plane_generator(p.u, p.v).matrix
    rot = mixed_exp(2.0 * float(prof.f(norm)) * ((1.0 - t) * j + t * a))
    return CotangentPoint(rot @ p.u, rot @ p.v)


def isotopy_psi(t: float, p: CotangentPoint, prof: TwistProfile) -> CotangentPoint:
    """Psi_t: fiberwise rotation (u, e^(t 2 f j_u) v); Psi_0 = id, Psi_1 = Phi_0."""
    if p.n not in (2, 6):
        raise DomainError(f"isotopy_psi needs n in {{2,6}}, got {p.n}")
    norm = np.linalg.norm(p.v)
    if norm < ZERO_FIBER_THRESHOLD:
        return CotangentPoint(p.u.copy(), np.zeros_like(p.v))
    j = almost_complex_generator(p.u, p.n)
    rot = generator_exp(j, t * 2.0 * float(prof.f(norm)))
    return CotangentPoint(p.u.copy(), rot @ p.v)


# ---------------------------------------------------------------------------
# Numerical pullback of -d(lambda_can)
# ---------------------------------------------------------------------------

def tstar_tangent_frame(p: CotangentPoint) -> np.ndarray:
    """Orthonormal frame (columns) of T_(u,v) T*S^n inside R^{2(n+1)}."""
    m = p.u.size
    g1 = np.concatenate([2.0 * p.u, np.zeros(m)])
    g2 = np.concatenate([p.v, p.u])
    return orthonormal_complement(np.stack([g1, g2]))


@dataclass(frozen=True)
class PullbackResult:
    frame: np.ndarray = field(repr=False)
    pulled: np.ndarray = field(repr=False)
    reference: np.ndarray = field(repr=False)

    @property
    def max_deviation(self) -> float:
        return float(np.max(np.abs(self.pulled - self.reference)))


def pullback_two_form(map_fn: Callable[[CotangentPoint], CotangentPoint],
                      p: CotangentPoint, step: float = 1e-5) -> PullbackResult:
    """Pull back -d(lambda_can) through ``map_fn`` on a tangent frame at p.

    The differential is assembled by central differences along retracted
    curves in the constraint-tangent directions.
    """
    frame = tstar_tangent_frame(p)
    m = p.u.size

    def image(y: np.ndarray) -> np.ndarray:
        return map_fn(retract(y[:m], y[m:])).ambient()

    def minus_dlambda(w: np.ndarray) -> np.ndarray:
        # sum du_i ^ dv_i on the columns (du, dv) of w: du^T dv - dv^T du
        pairing = w[:m].T @ w[m:]
        return pairing - pairing.T

    diff = central_difference(image, p.ambient(), frame, step)
    return PullbackResult(frame, minus_dlambda(diff), minus_dlambda(frame))


@dataclass(frozen=True)
class ProbeReport:
    """Measured maximum displacement of boundary points under an isotopy."""

    family: str
    max_displacement: float
    argmax_t: float
    argmax_point: CotangentPoint
    samples: int


def boundary_displacement_probe(family: str, prof: TwistProfile, n: int,
                                samples: int, seed: int = 0,
                                t_count: int = 11) -> ProbeReport:
    """Max ||family_t(p) - p|| over ||v|| = 1 boundary points and a t-grid.

    Reports the measurement only; whether intermediate-t maps fix the
    boundary is deliberately not asserted anywhere in this package.
    """
    if family not in ("phi", "psi"):
        raise DomainError(f"unknown family {family!r}")
    apply = isotopy_phi if family == "phi" else isotopy_psi
    rng = np.random.default_rng(seed)
    worst, wt, wp = 0.0, 0.0, None
    for _ in range(samples):
        q = random_point(rng, n, 1.0)
        q = CotangentPoint(q.u, q.v / np.linalg.norm(q.v))  # push to ||v|| = 1
        for t in np.linspace(0.0, 1.0, t_count):
            out = apply(float(t), q, prof)
            disp = float(np.linalg.norm(out.ambient() - q.ambient()))
            if disp > worst:
                worst, wt, wp = disp, float(t), q
    return ProbeReport(family, worst, wt, wp, samples)
