import numpy as np
import pytest

from contactcalc.errors import DomainError
from contactcalc.rounding import rounding_curve, smoothstep


def test_smoothstep_range_and_flat_ends():
    x = np.linspace(-0.5, 1.5, 201)
    s = smoothstep(x)
    assert np.all(s >= 0) and np.all(s <= 1)
    assert np.all(s[x <= 0] == 0) and np.all(s[x >= 1] == 1)
    # flat to machine precision just inside the ends
    h = 1e-3
    assert abs(smoothstep(h) / h) < 1e-8
    assert abs((1.0 - smoothstep(1.0 - h)) / h) < 1e-8


def test_rounding_curve_endpoints():
    eps = 0.3
    rc = rounding_curve(eps)
    assert rc.z_of(-1.0) == pytest.approx(eps)
    assert rc.z_of(1.0) == pytest.approx(-eps)
    assert rc.t_of(-1.0) == pytest.approx(0.5)
    assert rc.t_of(1.0) == pytest.approx(0.5)
    # endpoint tangents are vertical: z' = 0, |t'| = 1
    h = 1e-4
    zp = (rc.z_of(-1.0 + h) - rc.z_of(-1.0)) / h
    tp = (rc.t_of(-1.0 + h) - rc.t_of(-1.0)) / h
    assert abs(zp) < 1e-8
    assert tp == pytest.approx(1.0, abs=1e-8)


def test_rounding_curve_symmetry():
    rc = rounding_curve(0.2)
    s = np.linspace(-1, 1, 101)
    assert np.allclose(rc.z_of(-s), -rc.z_of(s), atol=1e-15)
    assert np.allclose(rc.t_of(-s), rc.t_of(s), atol=1e-15)


def test_rounding_curve_positivity():
    eps = 0.25
    rc = rounding_curve(eps)
    h = 1e-6
    s = np.linspace(-1 + h, 1 - h, 999)
    zp = (rc.z_of(s + h) - rc.z_of(s - h)) / (2 * h)
    tp = (rc.t_of(s + h) - rc.t_of(s - h)) / (2 * h)
    form = rc.z_of(s) * tp - rc.t_of(s) * zp
    assert np.min(form) > 0


def test_rounding_curve_validation():
    with pytest.raises(DomainError):
        rounding_curve(0.0)
