import numpy as np
import pytest

from contactcalc.charts import (Chart, darboux_chart, cotangent_chart,
                                prepend_coords, require_same_chart,
                                tangent_frame, unit_norm_constraint,
                                with_constraints)
from contactcalc.errors import ChartMismatchError, DomainError


def sphere_chart(ambient_dim):
    """The unit sphere S^{ambient_dim-1} in coordinates x1, x2, ..."""
    names = tuple(f"x{j}" for j in range(1, ambient_dim + 1))
    return with_constraints(Chart(f"R{ambient_dim}", names),
                            [unit_norm_constraint(range(ambient_dim))],
                            f"S{ambient_dim - 1}")


def test_darboux_chart_names_and_orientation():
    ch = darboux_chart(2)
    assert ch.coord_names == ("x1", "x2", "y1", "y2")
    # (-1)^(n(n-1)/2): +1, -1, -1, +1, +1 for n = 1..5
    assert [darboux_chart(n).orientation for n in range(1, 6)] == [1, -1, -1, 1, 1]


def test_cotangent_chart_names():
    assert cotangent_chart(2).coord_names == ("q1", "q2", "p1", "p2")


def test_point_validation():
    ch = darboux_chart(1)
    with pytest.raises(DomainError):
        ch.point([1.0, 2.0, 3.0])
    sph = sphere_chart(3)
    sph.point([1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        sph.point([1.0, 1.0, 0.0])
    for chart, coords in [(sph, [np.nan, 0.0, 0.0]), (ch, [0.0, -np.inf])]:
        with pytest.raises(DomainError):
            chart.point(coords)


def test_require_same_chart():
    with pytest.raises(ChartMismatchError):
        require_same_chart(darboux_chart(1), cotangent_chart(1))


def test_tangent_frame_unconstrained_is_identity():
    ch = Chart("e3", ("a", "b", "c"))
    p = ch.point([0.1, 0.2, 0.3])
    assert np.array_equal(tangent_frame(p), np.eye(3))


def test_tangent_frame_sphere_orthogonal_to_normal(rng):
    sph = sphere_chart(4)
    for _ in range(5):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        p = sph.point(x)
        frame = tangent_frame(p)
        assert frame.shape == (4, 3)
        assert np.allclose(frame.T @ frame, np.eye(3), atol=1e-12)
        assert np.allclose(frame.T @ x, 0.0, atol=1e-12)


def test_tangent_frame_two_constraints():
    ch = Chart("torus", ("u1", "u2", "v1", "v2"),
               (unit_norm_constraint((0, 1)), unit_norm_constraint((2, 3))))
    p = ch.point([1.0, 0.0, 0.0, 1.0])
    assert tangent_frame(p).shape == (4, 2)


def test_prepend_coords_shifts_constraints_and_orientation():
    base = with_constraints(darboux_chart(2), [unit_norm_constraint(range(4))],
                            "S3_xy")
    ch = prepend_coords(base, ("z",))
    assert ch.coord_names[0] == "z"
    assert ch.orientation == base.orientation == -1
    p = ch.point([7.0, 1.0, 0.0, 0.0, 0.0])
    g = ch.constraints[0].grad(p.coords)
    assert g[0] == 0.0
    assert np.allclose(g[1:], [2.0, 0.0, 0.0, 0.0])
