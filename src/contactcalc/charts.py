"""Coordinate charts and chart points.

All geometry in this package lives on explicit coordinate charts: either an
open subset of R^m with named coordinates, or a constrained chart (sphere
factors, unit cotangent bundles) described by ambient coordinates together
with constraint functions whose zero set is the chart's domain.  Tangent
spaces of constrained charts are obtained by orthonormalizing the complement
of the constraint gradients; no atlas machinery is attempted.

A ``ChartPoint`` holds one point (coords of shape (dim,)) or a batch of
points (shape (..., dim), one per row); constraints, tangent frames and the
kernel built on them (``forms``, ``fields``, ``conditions``) act row by row
and keep the leading shape.  Inner products, norms and small matrix
products of rows (``row_dot``, ``row_norm``, ``matvec``, ``matmul``) are
elementwise products summed over an axis, not BLAS calls.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ChartMismatchError, Checked, DomainError

POINT_TOL = 1e-8  # how far a point may lie off a constraint locus (and T*S^n)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> for stacks: a and b (..., k) give (...)."""
    return (a * b).sum(axis=-1)


def row_norm(a: np.ndarray) -> np.ndarray:
    """||a|| for stacks: a (..., k) gives (...)."""
    return np.sqrt(row_dot(a, a))


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x for stacks: m (..., k, l) and x (..., l) give (..., k)."""
    return (m * x[..., None, :]).sum(axis=-1)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b for stacks: a (..., k, l) and b (..., l, r) give (..., k, r)."""
    return (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2)


def first_bad(values, ok) -> float:
    """The value of the first row that is not ok, for an error message."""
    return float(np.asarray(values)[~np.asarray(ok)].flat[0])


class Constraint(NamedTuple):
    """A scalar constraint g(x)=0 with an analytic gradient; both act on
    coords of shape (..., dim) and return shapes (...) and (..., dim)."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


def unit_norm_constraint(indices: Sequence[int]) -> Constraint:
    """Constraint ||x[indices]||^2 - 1 = 0 (a sphere factor in ambient coords)."""
    idx = list(indices)

    def value(x: np.ndarray) -> np.ndarray:
        return np.sum(x[..., idx] ** 2, axis=-1) - 1.0

    def grad(x: np.ndarray) -> np.ndarray:
        g = np.zeros_like(x)
        g[..., idx] = 2.0 * x[..., idx]
        return g

    return Constraint("unit_norm", value, grad)


class Chart(NamedTuple):
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
            (lambda x, _c=c: _c.value(x[..., k:])),
            (lambda x, _c=c: np.concatenate(
                [np.zeros(x.shape[:-1] + (k,)), _c.grad(x[..., k:])], axis=-1)),
        ))
    return Chart(name or f"{'x'.join(extra)}*{chart.name}",
                 tuple(extra) + chart.coord_names, tuple(shifted),
                 chart.orientation)


class _ChartPoint(NamedTuple):
    chart: Chart
    coords: np.ndarray


class ChartPoint(Checked, _ChartPoint):
    """Points of a chart, one per row of ``coords`` (shape (..., dim)); a
    single point has shape (dim,).  Every row is validated: its coords are
    finite and it lies within ``POINT_TOL`` of each constraint locus, and
    one bad row rejects the whole batch."""

    __slots__ = ()

    def __new__(cls, chart: Chart, coords):
        c = np.asarray(coords, dtype=float)
        if c.ndim == 0 or c.shape[-1] != chart.dim:
            raise DomainError(
                f"point has {c.shape} coords, chart {chart.name} "
                f"expects {chart.dim}")
        if not np.isfinite(c).all():
            raise DomainError(f"non-finite coords on {chart.name}")
        for g in chart.constraints:
            r = np.abs(g.value(c))
            ok = r <= POINT_TOL
            if not ok.all():
                raise DomainError(
                    f"constraint {g.name} violated by {first_bad(r, ok):.3e} "
                    f"on {chart.name}")
        return super().__new__(cls, chart, c)

    def __repr__(self):
        if self.coords.ndim > 1:
            return f"ChartPoint({self.chart.name}, batch={self.coords.shape[:-1]})"
        return f"ChartPoint({self.chart.name}, {np.array2string(self.coords, precision=4)})"


def require_same_chart(a: Chart, b: Chart):
    if a.name != b.name or a.coord_names != b.coord_names:
        raise ChartMismatchError(f"chart mismatch: {a.name} vs {b.name}")


def stack_points(points: "ChartPoint | Sequence[ChartPoint]") -> ChartPoint:
    """One ChartPoint holding every given point as a row: a ChartPoint is
    returned as it is, a sequence of points on one chart is stacked.  An
    empty sample set is refused."""
    if not isinstance(points, ChartPoint):
        if not points:
            raise DomainError("empty sample set")
        for p in points[1:]:
            require_same_chart(points[0].chart, p.chart)
        points = ChartPoint(points[0].chart, np.stack([p.coords for p in points]))
    if points.coords.size == 0:
        raise DomainError("empty sample set")
    return points


def constraint_gradients(p: ChartPoint) -> np.ndarray:
    """Column matrices of constraint gradients at p, (..., dim, #constraints)."""
    if not p.chart.constraints:
        return np.zeros(p.coords.shape + (0,))
    return np.stack([g.grad(p.coords) for g in p.chart.constraints], axis=-1)


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
    """Orthonormal bases (columns) of the tangent spaces at the rows of p,
    shape (..., dim, intrinsic_dim).

    For unconstrained charts this is the identity (a read-only broadcast for
    a batch).  With ``oriented=True`` (single-constraint charts only) each
    frame is chosen so that (outward normal, frame) is positively oriented
    in the ambient coordinate order — the boundary-orientation convention.
    """
    m = p.chart.dim
    G = constraint_gradients(p)
    if G.shape[-1] == 0:
        return np.broadcast_to(np.eye(m), p.coords.shape[:-1] + (m, m))
    frame = orthonormal_complement(G.swapaxes(-1, -2))
    if oriented:
        if G.shape[-1] != 1:
            raise DomainError("oriented frame needs exactly one constraint")
        normal = G / np.linalg.norm(G, axis=-2, keepdims=True)
        flip = np.linalg.det(np.concatenate([normal, frame], axis=-1)) < 0
        frame = frame.copy()
        frame[..., :, 0] = np.where(flip[..., None], -frame[..., :, 0],
                                    frame[..., :, 0])
    return frame
