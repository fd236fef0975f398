"""The cross products of R^3 and R^7: the imaginary quaternions and the
imaginary octonions.

Basis: imaginary units e1..e7.  The 7-dimensional table is the seven
Fano-plane triples

    (1,2,3) (1,4,5) (2,4,6) (3,4,7) (1,7,6) (2,5,7) (3,6,5)

read as e_a x e_b = e_c for each cyclic rotation (a, b, c) of a triple, and
e_b x e_a = -e_c.  These are the triples of the Cayley-Dickson doubling of
the quaternions with (e1, e2, e3) = (i, j, k) and e4..e7 = (0, 1), (0, i),
(0, j), (0, k); the tests check the table against that product.  The
3-dimensional table is built the same way from the single triple (1,2,3),
the quaternion units, so one ``cross_matrix`` serves n = 2 and n = 6.

Any consistent sign convention works for this package: only the identity
u x (u x w) = <u,w> u - w (for unit u) is consumed downstream.
"""

from __future__ import annotations

import numpy as np

_FANO = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (1, 7, 6), (2, 5, 7),
         (3, 6, 5))


def _cross_table(triples) -> np.ndarray:
    """t[i, j] = e_{i+1} x e_{j+1} (m x m x m, m the largest index)."""
    m = max(map(max, triples))
    t = np.zeros((m, m, m))
    for a, b, c in triples:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            t[i - 1, j - 1, k - 1] = 1.0
            t[j - 1, i - 1, k - 1] = -1.0
    return t


_CROSS3 = _cross_table(((1, 2, 3),))
_CROSS7 = _cross_table(_FANO)


def cross_matrix(u: np.ndarray) -> np.ndarray:
    """Matrix of w -> u x w on R^3 or R^7; a stack u of shape (..., 3) or
    (..., 7) gives a stack of matrices (..., 3, 3) or (..., 7, 7)."""
    u = np.asarray(u, dtype=float)
    return np.einsum("ijk,...i->...kj", _CROSS3 if u.shape[-1] == 3 else _CROSS7, u)
