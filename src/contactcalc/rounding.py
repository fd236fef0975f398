"""Edge-rounding profile curve (z(s), t(s)) on [-1, 1].

The curve interpolates between the two collar pieces of a rounded corner:
it starts at (eps, 1/2) moving straight up in t, ends at (-eps, 1/2) moving
straight down, is odd in z / even in t, and the 1-form z dt - t dz is
strictly positive on its tangent vectors.  Endpoint flatness (all higher
derivatives zero) is achieved with the standard smooth cutoff built from
exp(-1/x).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError


def _bump(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) for x > 0, identically 0 for x <= 0; C-infinity flat at 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def smoothstep(x) -> np.ndarray:
    """The symmetric smooth step: 0 for x<=0, 1 for x>=1, C-infinity flat
    at both ends; s(x) = b(x) / (b(x) + b(1-x)) with b(x) = exp(-1/x)."""
    x = np.asarray(x, dtype=float)
    num = _bump(x)
    den = num + _bump(1.0 - x)
    with np.errstate(invalid="ignore"):
        out = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return np.where(x >= 1.0, 1.0, np.where(x <= 0.0, 0.0, out))


def _odd_ramp(s: np.ndarray) -> np.ndarray:
    """Odd, smooth g with g(+-1) = +-1 flat at the ends and g'(0) = 1."""
    a = np.abs(s)
    w = smoothstep(a)
    return np.sign(s) * (a + w * (1.0 - a))


class RoundingCurve(NamedTuple):
    epsilon: float

    def z_of(self, s) -> np.ndarray:
        return -self.epsilon * _odd_ramp(np.asarray(s, dtype=float))

    def t_of(self, s) -> np.ndarray:
        a = np.abs(np.asarray(s, dtype=float))
        return 0.5 + (1.0 - a) * smoothstep(a)


def rounding_curve(epsilon: float) -> RoundingCurve:
    """The rounding curve for ``epsilon`` > 0, evaluated at any parameters
    in [-1, 1] by ``z_of`` and ``t_of``.  It satisfies
      (1) (z,t)(-1) = (eps, 1/2) with tangent (0, 1), all higher
          derivatives zero;
      (2) (z,t)(+1) = (-eps, 1/2) with tangent (0, -1), ditto;
      (3) z odd, t even;
      (4) z t' - t z' > 0 along the curve.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    return RoundingCurve(epsilon)
