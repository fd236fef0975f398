"""The 7-dimensional cross product of the imaginary octonions.

Basis: imaginary units e1..e7.  The table is the seven Fano-plane triples

    (1,2,3) (1,4,5) (2,4,6) (3,4,7) (1,7,6) (2,5,7) (3,6,5)

read as e_a x e_b = e_c for each cyclic rotation (a, b, c) of a triple, and
e_b x e_a = -e_c.  These are the triples of the Cayley-Dickson doubling of
the quaternions with (e1, e2, e3) = (i, j, k) and e4..e7 = (0, 1), (0, i),
(0, j), (0, k); the tests check the table against that product.

Any consistent sign convention works for this package: only the identity
u x (u x w) = <u,w> u - w (for unit u) is consumed downstream.
"""

from __future__ import annotations

import numpy as np

_FANO = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (1, 7, 6), (2, 5, 7),
         (3, 6, 5))


def _cross_table() -> np.ndarray:
    """t[i, j] = e_{i+1} x e_{j+1} (7x7x7)."""
    t = np.zeros((7, 7, 7))
    for a, b, c in _FANO:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            t[i - 1, j - 1, k - 1] = 1.0
            t[j - 1, i - 1, k - 1] = -1.0
    return t


_CROSS7 = _cross_table()


def cross7_matrix(u: np.ndarray) -> np.ndarray:
    """Matrix of w -> u x w on R^7; a stack u of shape (..., 7) gives a
    stack of matrices (..., 7, 7)."""
    u = np.asarray(u, dtype=float)
    return np.einsum("ijk,...i->...kj", _CROSS7, u)
