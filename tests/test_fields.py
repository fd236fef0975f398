import numpy as np
import pytest

from contactcalc.charts import darboux_chart, with_constraints, \
    unit_norm_constraint
from contactcalc.errors import DegenerateSystemError, DomainError, \
    IllConditionedError
from contactcalc.fields import (hamiltonian_vector_field,
                                liouville_vector_field, reeb_vector_field)
from contactcalc.forms import OneFormField, dz_plus, eval_one_form, lambda_can, \
    lambda_std, restrict_form, weinstein, weinstein_hamiltonian


def test_liouville_lambda_std_is_half_radial(rng):
    n = 2
    lam = lambda_std(n)
    for _ in range(10):
        p = lam.chart.point(rng.uniform(-2, 2, 2 * n))
        assert np.allclose(liouville_vector_field(lam, p), 0.5 * p.coords,
                           atol=1e-8)


def test_liouville_lambda_can_is_p_dp(rng):
    n = 2
    can = lambda_can(n)
    for _ in range(10):
        c = rng.uniform(-2, 2, 2 * n)
        expected = np.concatenate([np.zeros(n), c[n:]])
        assert np.allclose(liouville_vector_field(can, can.chart.point(c)),
                           expected, atol=1e-8)


def test_liouville_weinstein_is_shifted_radial(rng):
    n, k = 2, 1
    w = weinstein(n, k)
    for _ in range(10):
        c = rng.uniform(-2, 2, 2 * n)
        expected = 0.5 * c.copy()
        expected[:k] += c[:k]        # x_j: 1/2 + 1 = 3/2
        expected[n:n + k] -= c[n:n + k]  # y_j: 1/2 - 1 = -1/2
        assert np.allclose(liouville_vector_field(w, w.chart.point(c)),
                           expected, atol=1e-8)


def test_hamiltonian_field_of_f_k(rng):
    n, k = 2, 1
    lam = lambda_std(n)
    f = weinstein_hamiltonian(n, k)
    for _ in range(10):
        c = rng.uniform(-2, 2, 2 * n)
        expected = np.zeros(2 * n)
        expected[:k] = c[:k]
        expected[n:n + k] = -c[n:n + k]
        got = hamiltonian_vector_field(f, lam, lam.chart.point(c))
        assert np.allclose(got, expected, atol=1e-8)


def test_nan_hamiltonian_fails_closed():
    lam = lambda_std(1)
    with pytest.raises(DomainError, match="non-finite derivative"):
        hamiltonian_vector_field(lambda c: np.full(c.shape[:-1], np.nan), lam,
                                 lam.chart.point([0.3, 0.4]))


def test_reeb_of_collar_form(rng):
    alpha = dz_plus(lambda_std(2))
    ez = np.zeros(5)
    ez[0] = 1.0
    for _ in range(5):
        p = alpha.chart.point(rng.uniform(-1, 1, 5))
        assert np.allclose(reeb_vector_field(alpha, p), ez, atol=1e-8)


def test_reeb_on_sphere(rng):
    n = 2
    sph = with_constraints(darboux_chart(n), [unit_norm_constraint(range(2 * n))],
                           "S3_xy")
    lam = restrict_form(lambda_std(n), sph)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    p = sph.point(x)
    r = reeb_vector_field(lam, p)
    # 2(x d_y - y d_x) pattern at (1,0,0,0) -> 2 d_{y1}
    assert np.allclose(r, [0.0, 0.0, 2.0, 0.0], atol=1e-7)
    assert float(eval_one_form(lam, p) @ r) == pytest.approx(1.0, abs=1e-8)


def test_reeb_refuses_degenerate():
    ch = darboux_chart(1)
    zero = OneFormField("zero", ch, lambda c: np.zeros_like(c))
    with pytest.raises(DegenerateSystemError):
        reeb_vector_field(zero, ch.point([0.3, 0.4]))


def test_liouville_refuses_ill_conditioned():
    ch = darboux_chart(1)
    # closed form: d(const) = 0, singular system
    const = OneFormField("const", ch, lambda c: np.ones_like(c))
    with pytest.raises(IllConditionedError) as exc:
        liouville_vector_field(const, ch.point([0.1, 0.2]))
    assert exc.value.condition_number > 1e10 or not np.isfinite(
        exc.value.condition_number)

