"""Octonion multiplication and the 7-dimensional cross product.

The multiplication table is generated by Cayley-Dickson doubling of the
quaternions: writing an octonion as a pair (a, b) of quaternions,

    (a, b) * (c, d) = (a c - conj(d) b,  d a + b conj(c)).

Basis: e0 = 1 (real), imaginary units e1..e7 with (e1, e2, e3) the
quaternion units (i, j, k), e4 = (0, 1), e5 = (0, i), e6 = (0, j),
e7 = (0, k).  The induced Fano-plane triples (ei ej = ek cyclically) are

    (1,2,3) (1,4,5) (2,4,6) (3,4,7) (1,7,6) (2,5,7) (3,6,5)

Any consistent sign convention works for this package: only the identity
u x (u x w) = <u,w> u - w (for unit u) is consumed downstream.
"""

from __future__ import annotations

import numpy as np


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def _quat_conj(a: np.ndarray) -> np.ndarray:
    return np.array([a[0], -a[1], -a[2], -a[3]])


def octonion_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two octonions given as length-8 coefficient vectors."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    p, q = a[:4], a[4:]
    r, s = b[:4], b[4:]
    top = _quat_mul(p, r) - _quat_mul(_quat_conj(s), q)
    bot = _quat_mul(s, p) + _quat_mul(q, _quat_conj(r))
    return np.concatenate([top, bot])


def _structure_tensor() -> np.ndarray:
    """c[i,j,:] = imaginary part of e_{i+1} * e_{j+1} (7x7x7)."""
    c = np.zeros((7, 7, 7))
    for i in range(7):
        for j in range(7):
            ei = np.zeros(8)
            ej = np.zeros(8)
            ei[i + 1] = 1.0
            ej[j + 1] = 1.0
            c[i, j] = octonion_multiply(ei, ej)[1:]
    return c


_CROSS7 = _structure_tensor()


def cross7(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product on R^7 = imaginary octonions: Im((0,a) * (0,b))."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.einsum("ijk,i,j->k", _CROSS7, a, b)


def cross7_matrix(u: np.ndarray) -> np.ndarray:
    """Matrix of w -> u x w on R^7; a stack u of shape (..., 7) gives a
    stack of matrices (..., 7, 7)."""
    u = np.asarray(u, dtype=float)
    return np.einsum("ijk,...i->...kj", _CROSS7, u)
