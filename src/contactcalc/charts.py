"""Coordinate charts and chart points.

All geometry in this package lives on explicit coordinate charts: either an
open subset of R^m with named coordinates, or a constrained chart (sphere
factors, unit cotangent bundles) described by ambient coordinates together
with constraint functions whose zero set is the chart's domain.  Tangent
spaces of constrained charts are obtained by orthonormalizing the complement
of the constraint gradients; no atlas machinery is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ChartMismatchError, DomainError

POINT_TOL = 1e-8  # how far a point may lie off a constraint locus (and T*S^n)


@dataclass(frozen=True)
class Constraint:
    """A scalar constraint g(x)=0 with an analytic gradient."""

    name: str
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


def unit_norm_constraint(indices: Sequence[int], name: str = "unit_norm") -> Constraint:
    """Constraint ||x[indices]||^2 - 1 = 0 (a sphere factor in ambient coords)."""
    idx = tuple(indices)

    def value(x: np.ndarray) -> float:
        return float(np.sum(x[list(idx)] ** 2) - 1.0)

    def grad(x: np.ndarray) -> np.ndarray:
        g = np.zeros_like(x)
        g[list(idx)] = 2.0 * x[list(idx)]
        return g

    return Constraint(name, value, grad)


@dataclass(frozen=True)
class Chart:
    """A named chart: ambient coordinates plus optional constraints.

    ``dim`` is the ambient coordinate count; the intrinsic dimension is
    ``dim - len(constraints)``.  ``orientation`` is the sign relating the
    coordinate-basis orientation to the chart's preferred (symplectic or
    contact) orientation; positivity checks multiply by it.
    """

    name: str
    coord_names: tuple[str, ...]
    constraints: tuple[Constraint, ...] = ()
    orientation: int = 1

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    @property
    def intrinsic_dim(self) -> int:
        return self.dim - len(self.constraints)

    def point(self, coords) -> "ChartPoint":
        return ChartPoint(self, np.asarray(coords, dtype=float))


def darboux_chart(n: int) -> Chart:
    """R^{2n} with coordinates (x_1..x_n, y_1..y_n), oriented by the
    symplectic volume (sum dx_j ^ dy_j)^n, which differs from the
    coordinate-basis orientation by (-1)^(n(n-1)/2)."""
    names = [f"x{j}" for j in range(1, n + 1)] + [f"y{j}" for j in range(1, n + 1)]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return Chart(f"R{2 * n}_xy", tuple(names), orientation=sign)


def cotangent_chart(n: int) -> Chart:
    """R^{2n} with coordinates (q_1..q_n, p_1..p_n)."""
    names = [f"q{j}" for j in range(1, n + 1)] + [f"p{j}" for j in range(1, n + 1)]
    return Chart(f"R{2 * n}_qp", tuple(names))


def sphere_chart(ambient_dim: int) -> Chart:
    """The unit sphere S^{ambient_dim-1} in ambient coordinates, oriented as
    the boundary of the (oriented) ambient ball via outward-normal-first."""
    names = tuple(f"x{j}" for j in range(1, ambient_dim + 1))
    return Chart(f"S{ambient_dim - 1}", names,
                 (unit_norm_constraint(range(ambient_dim)),))


def with_constraints(chart: Chart, constraints: Sequence[Constraint],
                     name: str) -> Chart:
    """A constrained version of a chart, inheriting its orientation: the
    constrained locus is oriented by outward-normal-first inside the
    oriented ambient chart."""
    return Chart(name, chart.coord_names,
                 chart.constraints + tuple(constraints), chart.orientation)


def prepend_coords(chart: Chart, extra: Sequence[str], name: str | None = None) -> Chart:
    """A product chart with extra unconstrained coordinates in front.

    Constraint index bookkeeping is handled by shifting the wrapped
    constraints to act on the trailing block.
    """
    k = len(extra)
    shifted = []
    for c in chart.constraints:
        shifted.append(Constraint(
            c.name,
            (lambda x, _c=c: _c.value(x[k:])),
            (lambda x, _c=c: np.concatenate([np.zeros(k), _c.grad(x[k:])])),
        ))
    return Chart(name or f"{'x'.join(extra)}*{chart.name}",
                 tuple(extra) + chart.coord_names, tuple(shifted),
                 chart.orientation)


@dataclass(frozen=True)
class ChartPoint:
    chart: Chart
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        if c.shape != (self.chart.dim,):
            raise DomainError(
                f"point has {c.shape} coords, chart {self.chart.name} "
                f"expects {self.chart.dim}")
        if not np.isfinite(c).all():
            raise DomainError(f"non-finite coords on {self.chart.name}")
        for g in self.chart.constraints:
            r = abs(g.value(c))
            if not r <= POINT_TOL:
                raise DomainError(
                    f"constraint {g.name} violated by {r:.3e} on {self.chart.name}")

    def __repr__(self):
        return f"ChartPoint({self.chart.name}, {np.array2string(self.coords, precision=4)})"


def require_same_chart(a: Chart, b: Chart):
    if a.name != b.name or a.coord_names != b.coord_names:
        raise ChartMismatchError(f"chart mismatch: {a.name} vs {b.name}")


def constraint_gradients(p: ChartPoint) -> np.ndarray:
    """Column matrix of constraint gradients at p (dim x #constraints)."""
    if not p.chart.constraints:
        return np.zeros((p.chart.dim, 0))
    return np.stack([g.grad(p.coords) for g in p.chart.constraints], axis=1)


def orthonormal_complement(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of the row
    span of ``rows``, by a full SVD; singular values <= 1e-12 count as 0.
    A stack of row sets (..., r, m) gives a stack of bases, and its row sets
    must all have the same rank."""
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    rank = (s > 1e-12).sum(axis=-1)
    if rank.ndim and rank.min() != rank.max():
        raise DomainError("the row sets of a stack differ in rank")
    return vt[..., rank.flat[0]:, :].swapaxes(-1, -2)


def tangent_frame(p: ChartPoint, oriented: bool = False) -> np.ndarray:
    """Orthonormal basis (columns) of the tangent space at p.

    For unconstrained charts this is the identity.  With ``oriented=True``
    (single-constraint charts only) the frame is chosen so that
    (outward normal, frame) is positively oriented in the ambient
    coordinate order — the boundary-orientation convention.
    """
    m = p.chart.dim
    G = constraint_gradients(p)
    if G.shape[1] == 0:
        return np.eye(m)
    frame = orthonormal_complement(G.T)
    if oriented:
        if G.shape[1] != 1:
            raise DomainError("oriented frame needs exactly one constraint")
        normal = G[:, 0] / np.linalg.norm(G[:, 0])
        if np.linalg.det(np.column_stack([normal, frame])) < 0:
            frame = frame.copy()
            frame[:, 0] = -frame[:, 0]
    return frame
