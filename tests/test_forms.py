import numpy as np
import pytest

from contactcalc.charts import Chart, darboux_chart, with_constraints, \
    unit_norm_constraint
from contactcalc.errors import ChartMismatchError, DomainError
from contactcalc.forms import (OneFormField, central_difference, d_matrix, dz_plus,
                               eval_one_form, handle_form, lambda_can, lambda_std,
                               restrict_form, symplectization, theta_invariant,
                               weinstein, weinstein_hamiltonian)


def test_lambda_std_values():
    lam = lambda_std(1)
    p = lam.chart.point([1.0, 0.0])
    # (1/2)(x dy - y dx) at (1, 0) -> (0, 1/2)
    assert np.allclose(eval_one_form(lam, p), [0.0, 0.5])


def test_lambda_can_values():
    can = lambda_can(2)
    p = can.chart.point([0.0, 0.0, 3.0, -1.0])
    assert np.allclose(eval_one_form(can, p), [3.0, -1.0, 0.0, 0.0])


def test_weinstein_first_factor_tilted():
    w = weinstein(1, 1)
    p = w.chart.point([1.0, 0.0])
    # (3/2) x dy + (1/2) y dx at (1, 0) -> (0, 3/2)
    assert np.allclose(eval_one_form(w, p), [0.0, 1.5])
    q = darboux_chart(2).point([1, 2, 3, 4])
    assert np.allclose(eval_one_form(weinstein(2, 0), q),
                       eval_one_form(lambda_std(2), q))
    with pytest.raises(DomainError):
        weinstein(2, 3)


def test_d_weinstein_equals_d_lambda_std(rng):
    n, k = 3, 2
    w, lam = weinstein(n, k), lambda_std(n)
    for _ in range(5):
        p = lam.chart.point(rng.uniform(-1, 1, 2 * n))
        dw = d_matrix(w, p.coords)
        dl = d_matrix(lam, p.coords)
        assert np.max(np.abs(dw - dl)) < 1e-9


def test_d_lambda_std_closed_form(rng):
    n = 2
    lam = lambda_std(n)
    expected = np.zeros((2 * n, 2 * n))
    for j in range(n):
        expected[j, n + j] = 1.0
        expected[n + j, j] = -1.0
    p = lam.chart.point(rng.uniform(-1, 1, 2 * n))
    assert np.max(np.abs(d_matrix(lam, p.coords) - expected)) < 1e-9


def test_weinstein_hamiltonian_values():
    f = weinstein_hamiltonian(2, 1)
    assert f(np.array([2.0, 5.0, 3.0, 7.0])) == pytest.approx(6.0)


def test_handle_form_components():
    hf = handle_form(lambda_std(1))
    assert hf.chart.coord_names == ("theta", "z", "x1", "y1")
    p = hf.chart.point([2.0, 3.0, 1.0, 0.0])
    # -2z dtheta - theta dz + beta
    assert np.allclose(eval_one_form(hf, p), [-6.0, -2.0, 0.0, 0.5])


def test_handle_form_exterior_derivative(rng):
    hf = handle_form(lambda_std(1))
    expected = np.array([[0, 1, 0, 0], [-1, 0, 0, 0],
                         [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
    p = hf.chart.point(rng.uniform(-1, 1, 4))
    assert np.max(np.abs(d_matrix(hf, p.coords) - expected)) < 1e-9


def test_dz_plus_and_theta_invariant():
    a = dz_plus(lambda_std(1))
    p = a.chart.point([0.5, 1.0, 0.0])
    assert np.allclose(eval_one_form(a, p), [1.0, 0.0, 0.5])
    ti = theta_invariant(lambda_std(1), 0.25, sheet=-1)
    q = ti.chart.point([0.5, 1.0, 0.0])
    assert np.allclose(eval_one_form(ti, q), [0.25, 0.0, 0.5])
    with pytest.raises(DomainError):
        theta_invariant(lambda_std(1), 0.25, sheet=0)


def test_symplectization_scales():
    sa = symplectization(dz_plus(lambda_std(1)))
    p = sa.chart.point([2.0, 0.5, 1.0, 0.0])
    assert np.allclose(eval_one_form(sa, p), [0.0, 2.0, 0.0, 1.0])


def test_restrict_form_chart_checks():
    sph = with_constraints(darboux_chart(2), [unit_norm_constraint(range(4))],
                           "S3_xy")
    r = restrict_form(lambda_std(2), sph)
    assert r.chart.name == "S3_xy"
    # a chart of another ambient dimension, or of the same dimension with
    # other coordinate names (x1..x4 are not the Darboux x1, x2, y1, y2)
    other = with_constraints(Chart("R4", ("x1", "x2", "x3", "x4")),
                             [unit_norm_constraint(range(4))], "S3")
    for form, chart in ((lambda_std(1), other), (lambda_std(2), other)):
        with pytest.raises(ChartMismatchError):
            restrict_form(form, chart)


def test_central_difference_exact_on_quadratic(rng):
    # f(x) = (x^T A x, b . x): the central difference of a quadratic is exact,
    # so column i is (2 A x . d_i, b . d_i) up to the values' round-off
    # divided by 2 STEP = 2e-5, held to 1e-9 like d_matrix
    a = rng.normal(size=(3, 3))
    a = a + a.T
    b = rng.normal(size=3)
    x = rng.normal(size=3)
    directions = rng.normal(size=(3, 2))
    quad = lambda y: np.stack([((y @ a) * y).sum(axis=-1), y @ b], axis=-1)
    got = central_difference(quad, x, directions)
    expected = np.stack([2.0 * (a @ x) @ directions, b @ directions])
    assert got.shape == (2, 2)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_central_difference_scalar_fn_shape():
    got = central_difference(lambda y: y[..., 0] * y[..., 1], np.array([2.0, 3.0, 5.0]),
                             np.eye(3))
    assert got.shape == (3,)
    assert np.allclose(got, [3.0, 2.0, 0.0], atol=1e-10)


# Evaluators that do not keep the batch: a constant per-point covector, the
# per-point lambda_std (its rows are the batch's columns), a scalar.
NOT_BATCHED = [
    (lambda c: np.array([1.0, 2.0]), r"shape \(2,\) for points of shape \(4, 3, 2\)"),
    (lambda c: np.array([-0.5 * c[1], 0.5 * c[0]]), r"shape \(2, 3, 2\)"),
    (lambda c: float(np.sum(c)), r"shape \(\) for points"),
]


@pytest.mark.parametrize("ev,shape", NOT_BATCHED)
def test_d_matrix_refuses_an_evaluator_that_drops_the_batch(ev, shape):
    form = OneFormField("per_point", darboux_chart(1), ev)
    with pytest.raises(DomainError, match=shape):
        d_matrix(form, np.zeros((3, 2)))


def test_central_difference_refuses_a_scalar_for_a_stack():
    with pytest.raises(DomainError, match=r"shape \(\) for points of shape \(6, 3\)"):
        central_difference(lambda y: float(np.sum(y)), np.zeros(3), np.eye(3))


def test_d_matrix_refuses_covectors_of_the_wrong_length():
    # Batched, but one component per row on a 2-dimensional chart.
    form = OneFormField("one_component", darboux_chart(1), lambda c: c[..., :1])
    with pytest.raises(DomainError, match=r"covectors of shape \(1,\), not \(2,\)"):
        d_matrix(form, np.zeros((3, 2)))
