import numpy as np
import pytest

from contactcalc.octonion import _CROSS7, cross7_matrix


# Reference product: Cayley-Dickson doubling of the quaternions, an octonion
# being a pair (a, b) of quaternions with
#     (a, b) * (c, d) = (a c - conj(d) b,  d a + b conj(c)).

def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def _quat_conj(a):
    return np.array([a[0], -a[1], -a[2], -a[3]])


def _octonion_multiply(a, b):
    p, q, r, s = a[:4], a[4:], b[:4], b[4:]
    return np.concatenate([_quat_mul(p, r) - _quat_mul(_quat_conj(s), q),
                           _quat_mul(s, p) + _quat_mul(q, _quat_conj(r))])


def _unit(i):
    e = np.zeros(8)
    e[i] = 1.0
    return e


def _imaginary(a):
    return np.concatenate([[0.0], a])


def _cross7(a, b):
    return cross7_matrix(a) @ b


def test_table_is_the_cayley_dickson_product():
    for i in range(7):
        for j in range(7):
            product = _octonion_multiply(_unit(i + 1), _unit(j + 1))
            assert np.array_equal(_CROSS7[i, j], product[1:]), (i + 1, j + 1)


def test_octonion_identity_element():
    a = np.arange(8, dtype=float)
    assert np.allclose(_octonion_multiply(_unit(0), a), a)
    assert np.allclose(_octonion_multiply(a, _unit(0)), a)


def test_imaginary_units_square_to_minus_one():
    for i in range(1, 8):
        assert np.allclose(_octonion_multiply(_unit(i), _unit(i)), -_unit(0))


def test_octonion_norm_multiplicative(rng):
    for _ in range(10):
        a, b = rng.normal(size=8), rng.normal(size=8)
        lhs = np.linalg.norm(_octonion_multiply(a, b))
        assert lhs == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))


def test_cross7_antisymmetric_and_orthogonal(rng):
    for _ in range(10):
        a, b = rng.normal(size=7), rng.normal(size=7)
        c = _cross7(a, b)
        assert np.allclose(_cross7(b, a), -c)
        assert abs(np.dot(c, a)) < 1e-10
        assert abs(np.dot(c, b)) < 1e-10


def test_cross7_double_product_identity(rng):
    # u x (u x w) = <u,w> u - w for unit u
    for _ in range(10):
        u = rng.normal(size=7)
        u /= np.linalg.norm(u)
        w = rng.normal(size=7)
        lhs = _cross7(u, _cross7(u, w))
        assert np.allclose(lhs, np.dot(u, w) * u - w, atol=1e-10)


def test_cross7_matrix_agrees_and_cubes(rng):
    u = rng.normal(size=7)
    u /= np.linalg.norm(u)
    m = cross7_matrix(u)
    w = rng.normal(size=7)
    assert np.allclose(m @ w, _octonion_multiply(_imaginary(u), _imaginary(w))[1:])
    assert np.max(np.abs(m + m.T)) < 1e-12
    assert np.max(np.abs(m @ m @ m + m)) < 1e-12

