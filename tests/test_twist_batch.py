"""The batched twist layer against a per-point oracle.

The oracle below is the per-point implementation the batched one replaced,
kept here on plain (u, v) arrays: BLAS norms, dots and products, one point
per call, and its own stencil and tangent frame.  The tolerances were fixed
before the comparison was run: 1e-13 absolute for the twisted points (the
maps are O(1) and round-off is a few ulps) and 1e-9 for the per-sample
pullback deviations (central differences divide round-off by 2e-5).
"""

import numpy as np
import pytest

from contactcalc import twist
from contactcalc.errors import DomainError

MAP_TOL = 1e-13
PULLBACK_TOL = 1e-9
STEP = 1e-5


# ---------------------------------------------------------------------------
# Per-point oracle
# ---------------------------------------------------------------------------

def _plane(u, v):
    vhat = v / np.linalg.norm(v)
    return np.outer(vhat, u) - np.outer(u, vhat)


def _gen_exp(a, theta):
    return np.eye(a.shape[0]) + np.sin(theta) * a + (1.0 - np.cos(theta)) * (a @ a)


def _j(u):
    if u.size == 3:
        ux, uy, uz = u
        return np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    from contactcalc.octonion import _CROSS7
    return np.einsum("ijk,i->kj", _CROSS7, u)


def _mixed_exp(m):
    w, v = np.linalg.eigh(1j * m)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def oracle_twist(u, v, prof):
    norm = np.linalg.norm(v)
    if norm < twist.ZERO_FIBER_THRESHOLD:
        return -u, np.zeros_like(v)
    theta = float(prof.f(norm))
    c, s = np.cos(theta), np.sin(theta)
    return c * u + s * (v / norm), -norm * s * u + c * v


def oracle_via_generator(u, v, prof):
    norm = np.linalg.norm(v)
    if norm < twist.ZERO_FIBER_THRESHOLD:
        return -u, np.zeros_like(v)
    rot = _gen_exp(_plane(u, v), float(prof.f(norm)))
    return rot @ u, rot @ v


def oracle_square(u, v, prof):
    norm = np.linalg.norm(v)
    if norm < twist.ZERO_FIBER_THRESHOLD:
        return u.copy(), np.zeros_like(v)
    rot = _gen_exp(_plane(u, v), 2.0 * float(prof.f(norm)))
    return rot @ u, rot @ v


def oracle_phi(t, u, v, prof):
    norm = np.linalg.norm(v)
    if norm < twist.ZERO_FIBER_THRESHOLD:
        return u.copy(), np.zeros_like(v)
    m = 2.0 * float(prof.f(norm)) * ((1.0 - t) * _j(u) + t * _plane(u, v))
    rot = _mixed_exp(m)
    return rot @ u, rot @ v


def oracle_psi(t, u, v, prof):
    norm = np.linalg.norm(v)
    if norm < twist.ZERO_FIBER_THRESHOLD:
        return u.copy(), np.zeros_like(v)
    return u.copy(), _gen_exp(_j(u), t * 2.0 * float(prof.f(norm))) @ v


def oracle_pullback_deviation(u, v, prof):
    m = u.size
    rows = np.stack([np.concatenate([2.0 * u, np.zeros(m)]), np.concatenate([v, u])])
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    frame = vt[int(np.sum(s > 1e-12)):].T

    def image(y):
        nu = np.linalg.norm(y[:m])
        uhat = y[:m] / nu
        return np.concatenate(oracle_twist(uhat, y[m:] - np.dot(y[m:], uhat) * uhat,
                                           prof))

    x = np.concatenate([u, v])
    cols = [(image(x + STEP * d) - image(x - STEP * d)) / (2.0 * STEP)
            for d in frame.T]
    diff = np.stack(cols, axis=1)

    def minus_dlambda(w):
        pairing = w[:m].T @ w[m:]
        return pairing - pairing.T

    return float(np.max(np.abs(minus_dlambda(diff) - minus_dlambda(frame))))


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def _batch(rng, n, count=30, zero_rows=(3,), tiny_rows=(5,)):
    """Random points, with v = 0 in ``zero_rows`` and 0 < ||v|| <
    ZERO_FIBER_THRESHOLD in ``tiny_rows``, to exercise the zero-fiber rule."""
    q = twist.random_points(rng, n, 0.9, count)
    v = q.v.copy()
    v[list(zero_rows)] = 0.0
    tiny = list(tiny_rows)
    v[tiny] *= 0.1 * twist.ZERO_FIBER_THRESHOLD / np.linalg.norm(v[tiny], axis=-1)[:, None]
    return twist.CotangentPoint(q.u, v)


def _gap(batched, oracle, q):
    want = np.array([np.concatenate(oracle(u, v)) for u, v in zip(q.u, q.v)])
    return float(np.max(np.abs(batched.coords - want)))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_twist_maps_match_per_point_oracle(rng, n):
    prof = twist.make_profile(0.4)
    q = _batch(rng, n)
    assert _gap(twist.apply_twist(q, prof),
                lambda u, v: oracle_twist(u, v, prof), q) <= MAP_TOL
    assert _gap(twist.apply_twist_via_generator(q, prof),
                lambda u, v: oracle_via_generator(u, v, prof), q) <= MAP_TOL
    assert _gap(twist.twist_square_direct(q, prof),
                lambda u, v: oracle_square(u, v, prof), q) <= MAP_TOL


@pytest.mark.parametrize("n", [2, 6])
def test_isotopy_phi_per_row_t_matches_oracle(rng, n):
    prof = twist.make_profile(0.4)
    q = _batch(rng, n)
    t = rng.uniform(size=len(q.u))
    got = twist.isotopy_phi(t, q, prof).coords
    want = np.array([np.concatenate(oracle_phi(ti, u, v, prof))
                     for ti, u, v in zip(t, q.u, q.v)])
    assert float(np.max(np.abs(got - want))) <= MAP_TOL


@pytest.mark.parametrize("n", [2, 6])
def test_isotopy_psi_per_row_t_matches_oracle(rng, n):
    prof = twist.make_profile(0.4)
    q = _batch(rng, n)
    t = rng.uniform(size=len(q.u))
    got = twist.isotopy_psi(t, q, prof).coords
    want = np.array([np.concatenate(oracle_psi(ti, u, v, prof))
                     for ti, u, v in zip(t, q.u, q.v)])
    assert float(np.max(np.abs(got - want))) <= MAP_TOL


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_zero_fiber_rows_map_exactly(rng, n):
    # v = 0 (row 3) and 0 < ||v|| < ZERO_FIBER_THRESHOLD (row 5) both count
    # as the zero fiber: the twist sends them to (-u, 0), the others to (u, 0).
    prof = twist.make_profile(0.4)
    q = _batch(rng, n)
    assert 0.0 < np.linalg.norm(q.v[5]) < twist.ZERO_FIBER_THRESHOLD
    t = rng.uniform(size=len(q.u))
    maps = {-1.0: [twist.apply_twist(q, prof),
                   twist.apply_twist_via_generator(q, prof)],
            1.0: [twist.twist_square_direct(q, prof)]}
    if n in (2, 6):
        maps[1.0] += [twist.isotopy_phi(t, q, prof), twist.isotopy_psi(t, q, prof)]
    for sign, images in maps.items():
        for image in images:
            for row in (3, 5):
                assert np.array_equal(image.u[row], sign * q.u[row])
                assert np.array_equal(image.v[row], np.zeros(n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_pullback_deviations_match_oracle(rng, n):
    prof = twist.make_profile(0.4)
    q = twist.random_points(rng, n, 0.9, 20)
    got = twist.pullback_two_form(lambda p: twist.apply_twist(p, prof), q).deviations
    want = np.array([oracle_pullback_deviation(u, v, prof) for u, v in zip(q.u, q.v)])
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= PULLBACK_TOL


def test_single_point_is_the_one_row_batch(rng):
    prof = twist.make_profile(0.4)
    q = twist.random_points(rng, 6, 0.9, 4)
    whole = twist.isotopy_phi(0.3, q, prof).coords
    for i in range(4):
        one = twist.isotopy_phi(0.3, twist.CotangentPoint(q.u[i], q.v[i]), prof)
        assert one.u.shape == (7,)
        assert np.array_equal(one.coords, whole[i])


def _bad_rows(rng):
    q = twist.random_points(rng, 2, 0.9, 6)
    u, v = q.u.copy(), q.v.copy()
    long_u = u.copy()
    long_u[2] *= 1.5
    slanted_v = v.copy()
    slanted_v[2] += 0.1 * u[2]
    inf_v = v.copy()
    inf_v[2, 1] = np.inf
    nan_v = v.copy()
    nan_v[2, 0] = np.nan
    return {"norm_u": (long_u, v), "pairing": (u, slanted_v),
            "inf_v": (u, inf_v), "nan_v": (u, nan_v)}


@pytest.mark.parametrize("case", ["norm_u", "pairing", "inf_v", "nan_v"])
def test_one_bad_row_rejects_the_batch(rng, case):
    u, v = _bad_rows(rng)[case]
    with pytest.raises(DomainError):
        twist.CotangentPoint(u, v)


def test_plane_generator_rejects_one_zero_fiber(rng):
    q = twist.random_points(rng, 3, 0.9, 6)
    v = q.v.copy()
    v[4] = 0.0
    with pytest.raises(DomainError):
        twist.plane_generator(twist.CotangentPoint(q.u, v))


def test_retract_rejects_one_far_row(rng):
    q = twist.random_points(rng, 2, 0.9, 6)
    u = q.u.copy()
    u[1] *= 0.1
    with pytest.raises(DomainError):
        twist.retract(u, q.v)
