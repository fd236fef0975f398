import numpy as np
import pytest

from contactcalc import conditions, fields, twist
from contactcalc.charts import darboux_chart, sphere_chart, with_constraints, \
    unit_norm_constraint
from contactcalc.errors import ChartMismatchError, DomainError
from contactcalc.forms import (SkewMatrixAtPoint, central_difference, d_matrix,
                               dz_plus, exterior_derivative, handle_form,
                               lambda_can, lambda_std, restrict_form,
                               symplectization, theta_invariant, weinstein,
                               weinstein_hamiltonian)


def test_lambda_std_values():
    lam = lambda_std(1)
    p = lam.chart.point([1.0, 0.0])
    # (1/2)(x dy - y dx) at (1, 0) -> (0, 1/2)
    assert np.allclose(lam.at(p), [0.0, 0.5])


def test_lambda_can_values():
    can = lambda_can(2)
    p = can.chart.point([0.0, 0.0, 3.0, -1.0])
    assert np.allclose(can.at(p), [3.0, -1.0, 0.0, 0.0])


def test_weinstein_first_factor_tilted():
    w = weinstein(1, 1)
    p = w.chart.point([1.0, 0.0])
    # (3/2) x dy + (1/2) y dx at (1, 0) -> (0, 3/2)
    assert np.allclose(w.at(p), [0.0, 1.5])
    assert np.allclose(weinstein(2, 0).at(darboux_chart(2).point([1, 2, 3, 4])),
                       lambda_std(2).at(darboux_chart(2).point([1, 2, 3, 4])))
    with pytest.raises(DomainError):
        weinstein(2, 3)


def test_d_weinstein_equals_d_lambda_std(rng):
    n, k = 3, 2
    w, lam = weinstein(n, k), lambda_std(n)
    for _ in range(5):
        p = lam.chart.point(rng.uniform(-1, 1, 2 * n))
        dw = exterior_derivative(w, p).entries
        dl = exterior_derivative(lam, p).entries
        assert np.max(np.abs(dw - dl)) < 1e-9


def test_d_lambda_std_closed_form(rng):
    n = 2
    lam = lambda_std(n)
    expected = np.zeros((2 * n, 2 * n))
    for j in range(n):
        expected[j, n + j] = 1.0
        expected[n + j, j] = -1.0
    p = lam.chart.point(rng.uniform(-1, 1, 2 * n))
    assert np.max(np.abs(exterior_derivative(lam, p).entries - expected)) < 1e-9


def test_weinstein_hamiltonian_values():
    f = weinstein_hamiltonian(2, 1)
    assert f(np.array([2.0, 5.0, 3.0, 7.0])) == pytest.approx(6.0)


def test_handle_form_components():
    hf = handle_form(lambda_std(1))
    assert hf.chart.coord_names == ("theta", "z", "x1", "y1")
    p = hf.chart.point([2.0, 3.0, 1.0, 0.0])
    # -2z dtheta - theta dz + beta
    assert np.allclose(hf.at(p), [-6.0, -2.0, 0.0, 0.5])


def test_handle_form_exterior_derivative(rng):
    hf = handle_form(lambda_std(1))
    expected = np.array([[0, 1, 0, 0], [-1, 0, 0, 0],
                         [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
    p = hf.chart.point(rng.uniform(-1, 1, 4))
    assert np.max(np.abs(exterior_derivative(hf, p).entries - expected)) < 1e-9


def test_dz_plus_and_theta_invariant():
    a = dz_plus(lambda_std(1))
    p = a.chart.point([0.5, 1.0, 0.0])
    assert np.allclose(a.at(p), [1.0, 0.0, 0.5])
    ti = theta_invariant(lambda_std(1), 0.25, sheet=-1)
    q = ti.chart.point([0.5, 1.0, 0.0])
    assert np.allclose(ti.at(q), [0.25, 0.0, 0.5])
    with pytest.raises(DomainError):
        theta_invariant(lambda_std(1), 0.25, sheet=0)


def test_symplectization_scales():
    sa = symplectization(dz_plus(lambda_std(1)))
    p = sa.chart.point([2.0, 0.5, 1.0, 0.0])
    assert np.allclose(sa.at(p), [0.0, 2.0, 0.0, 1.0])


def test_restrict_form_chart_checks():
    sph = with_constraints(darboux_chart(2), [unit_norm_constraint(range(4))],
                           "S3_xy")
    r = restrict_form(lambda_std(2), sph)
    assert r.chart.name == "S3_xy"
    with pytest.raises(ChartMismatchError):
        restrict_form(lambda_std(1), sphere_chart(4))


def test_skew_matrix_validation():
    p = darboux_chart(1).point([0.0, 0.0])
    SkewMatrixAtPoint(p, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(DomainError):
        SkewMatrixAtPoint(p, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(DomainError):
        SkewMatrixAtPoint(p, np.zeros((3, 3)))


def test_central_difference_exact_on_quadratic(rng):
    # f(x) = (x^T A x, b . x): the central difference of a quadratic is exact,
    # so column i is (2 A x . d_i, b . d_i) up to round-off
    a = rng.normal(size=(3, 3))
    a = a + a.T
    b = rng.normal(size=3)
    x = rng.normal(size=3)
    directions = rng.normal(size=(3, 2))
    got = central_difference(lambda y: np.array([y @ a @ y, b @ y]), x,
                             directions, 1e-3)
    expected = np.stack([2.0 * (a @ x) @ directions, b @ directions])
    assert got.shape == (2, 2)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_central_difference_scalar_fn_shape():
    got = central_difference(lambda y: float(y[0] * y[1]), np.array([2.0, 3.0, 5.0]),
                             np.eye(3), 1e-4)
    assert got.shape == (3,)
    assert np.allclose(got, [3.0, 2.0, 0.0], atol=1e-10)


def _step_entry_points():
    lam = lambda_std(1)
    p = lam.chart.point([0.3, -0.2])
    omega = lambda y: d_matrix(lam, np.zeros(2))
    q = twist.CotangentPoint([1.0, 0.0], [0.0, 0.3])
    radial = lambda y: 0.5 * y
    return {
        "d_matrix": lambda step: d_matrix(lam, p.coords, step),
        "hamiltonian_vector_field": lambda step: fields.hamiltonian_vector_field(
            weinstein_hamiltonian(1, 1), omega, p, step),
        "pullback_two_form": lambda step: twist.pullback_two_form(lambda z: z, q, step),
        "lie_derivative_one_form": lambda step: conditions.lie_derivative_one_form(
            radial, lam, p, step=step),
        "check_contact_dilation": lambda step: conditions.check_contact_dilation(
            radial, lam, [p], step=step),
        "check_two_form_dilation": lambda step: conditions.check_two_form_dilation(
            radial, omega, [p], step=step),
    }


@pytest.mark.parametrize("step", [0.0, -1e-5, float("nan"), float("inf")])
@pytest.mark.parametrize("entry", sorted(_step_entry_points()))
def test_bad_step_rejected_at_every_entry_point(entry, step):
    with pytest.raises(DomainError, match="bad differencing step"):
        _step_entry_points()[entry](step)
