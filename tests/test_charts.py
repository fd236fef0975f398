import numpy as np
import pytest

from contactcalc.charts import (Chart, darboux_chart, cotangent_chart,
                                euclidean_chart, load_sample_file,
                                orthogonality_constraint, prepend_coords,
                                require_same_chart, sphere_chart,
                                tangent_frame, unit_norm_constraint,
                                with_constraints)
from contactcalc.errors import ChartMismatchError, DomainError


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
    ch = euclidean_chart("e3", ("a", "b", "c"))
    p = ch.point([0.1, 0.2, 0.3])
    assert np.array_equal(tangent_frame(p), np.eye(3))


def test_tangent_frame_sphere_orthogonal_to_normal(rng):
    sph = sphere_chart(4)
    for _ in range(5):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        p = sph.point(x)
        frame = tangent_frame(p, oriented=True)
        assert frame.shape == (4, 3)
        assert np.allclose(frame.T @ frame, np.eye(3), atol=1e-12)
        assert np.allclose(frame.T @ x, 0.0, atol=1e-12)
        # outward-normal-first positive orientation
        assert np.linalg.det(np.column_stack([x, frame])) > 0


def test_oriented_frame_needs_single_constraint():
    ch = Chart("tsn", ("u1", "u2", "v1", "v2"),
               (unit_norm_constraint((0, 1)),
                orthogonality_constraint((0, 1), (2, 3))))
    p = ch.point([1.0, 0.0, 0.0, 0.5])
    assert tangent_frame(p).shape == (4, 2)
    with pytest.raises(DomainError):
        tangent_frame(p, oriented=True)


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


def test_load_sample_file(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# comment\n0.1 0.2\n\n0.3 0.4  # trailing\n")
    pts = load_sample_file(path, darboux_chart(1))
    assert len(pts) == 2
    assert np.allclose(pts[1].coords, [0.3, 0.4])
