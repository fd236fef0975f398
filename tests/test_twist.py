import numpy as np
import pytest

from contactcalc import twist
from contactcalc.charts import POINT_TOL, ChartPoint, cotangent_chart
from contactcalc.errors import ChartMismatchError, DomainError
from contactcalc.forms import OneFormField, eval_one_form


def test_cotangent_point_validation():
    with pytest.raises(DomainError):
        twist.CotangentPoint(np.array([2.0, 0.0]), np.zeros(2))
    with pytest.raises(DomainError):
        twist.CotangentPoint(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    # non-finite coordinates fail closed, including v = inf * u, which the
    # pairing test alone passes (inf <= tol * inf)
    for u, v in [([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]),
                 ([1.0, 0.0, 0.0], [0.0, np.inf, 0.0]),
                 ([0.0, 1.0, 0.0], [0.0, np.inf, 0.0]),
                 ([1.0, 0.0, 0.0], [0.0, np.nan, 0.0])]:
        with pytest.raises(DomainError):
            twist.CotangentPoint(u, v)


@pytest.mark.parametrize("n", [1, 2, 6])
def test_cotangent_points_are_chart_points(rng, n):
    # The forms kernel takes twist samples as they are: lambda_can on
    # tstar_chart(n) has rows (v, 0), and a point of another chart is refused.
    q = twist.random_points(rng, n, 0.9, 5)
    assert isinstance(q, ChartPoint) and q.chart is twist.tstar_chart(n)
    m = n + 1
    can = OneFormField("lambda_can_tstar", twist.tstar_chart(n),
                       lambda x: np.concatenate([x[..., m:], np.zeros_like(x[..., m:])],
                                                axis=-1))
    assert np.array_equal(eval_one_form(can, q),
                          np.concatenate([q.v, np.zeros_like(q.v)], axis=-1))
    other = cotangent_chart(n).point(rng.uniform(-1.0, 1.0, (5, 2 * n)))
    with pytest.raises(ChartMismatchError):
        eval_one_form(can, other)


def test_retract_projects(rng):
    u = rng.normal(size=3)
    v = rng.normal(size=3)
    q = twist.retract(u, v)
    assert np.linalg.norm(q.u) == pytest.approx(1.0)
    assert abs(np.dot(q.u, q.v)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_random_points_lie_on_tstar_sphere(rng, n):
    q = twist.random_points(rng, n, 0.9, 200)
    assert q.u.shape == q.v.shape == (200, n + 1)
    assert np.max(np.abs(np.linalg.norm(q.u, axis=-1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.sum(q.u * q.v, axis=-1))) <= 1e-12
    nv = np.linalg.norm(q.v, axis=-1)
    assert np.all(nv > 0.0) and np.all(nv <= 0.9)


class _ParallelFirstDraw:
    """A stand-in generator whose first v draw for row 0 is parallel to u,
    so the sampler has to draw v again for that row and for no other."""

    def __init__(self):
        self.sizes = []
        self.draws = [np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # u
                      np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 1.0]]),  # v
                      np.array([[5.0, 3.0, 4.0]])]                   # row 0 again

    def normal(self, size):
        self.sizes.append(size)
        return self.draws.pop(0)

    def uniform(self, low, high, size):
        return np.full(size, 0.5)


def test_random_points_redraws_only_parallel_rows():
    stub = _ParallelFirstDraw()
    q = twist.random_points(stub, 2, 0.9, 2)
    assert stub.sizes == [(2, 3), (2, 3), (1, 3)]
    assert np.array_equal(q.u, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(q.v, [[0.0, 0.27, 0.36],
                             [0.45 / np.sqrt(2.0), 0.0, 0.45 / np.sqrt(2.0)]],
                       atol=1e-15)


def test_random_points_reject_zero_sphere(rng):
    # On T*S^0 every projected v is zero, so no draw could ever succeed.
    with pytest.raises(DomainError):
        twist.random_points(rng, 0, 0.9, 3)


def test_profile_endpoints():
    assert float(twist.profile(0.0)) == pytest.approx(np.pi)
    assert float(twist.profile(twist.EPSILON)) == pytest.approx(2 * np.pi)
    assert float(twist.profile(1.0)) == pytest.approx(2 * np.pi)
    assert np.all(np.diff(twist.profile(np.linspace(0.0, 1.0, 201))) >= 0.0)


def test_zero_section_antipodal():
    u = np.array([0.0, 1.0, 0.0])
    out = twist.apply_twist(twist.CotangentPoint(u, np.zeros(3)))
    assert np.allclose(out.u, -u)
    assert np.allclose(out.v, 0.0)


def test_identity_outside_support(rng):
    q = twist.random_points(rng, 2, 1.0, 10)
    q = twist.CotangentPoint(q.u, q.v / np.linalg.norm(q.v, axis=-1, keepdims=True))
    out = twist.apply_twist(q)
    assert np.max(np.abs(out.coords - q.coords)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_two_path_consistency(rng, n):
    q = twist.random_points(rng, n, 0.9, 20)
    a = twist.apply_twist(q).coords
    b = twist.apply_twist_via_generator(q).coords
    assert np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_pullback_preserves_minus_dlambda_can(rng, n):
    q = twist.random_points(rng, n, 0.9, 10)
    res = twist.pullback_two_form(twist.apply_twist, q)
    assert res.max_deviation < 1e-5


def _assert_generator(a):
    assert np.max(np.abs(a + np.swapaxes(a, -1, -2))) == 0.0
    assert np.max(np.abs(a @ a @ a + a)) < 1e-12


def test_plane_generator_properties(rng):
    for n in (1, 2, 3, 6, 7):
        q = twist.random_points(rng, n, 0.5, 20)
        a = twist.plane_generator(q)
        assert a.shape == (20, n + 1, n + 1)
        _assert_generator(a)
        with pytest.raises(DomainError):
            twist.plane_generator(twist.CotangentPoint(q.u, np.zeros_like(q.v)))


@pytest.mark.parametrize("n", [2, 6])
def test_almost_complex_generator_properties(rng, n):
    q = twist.random_points(rng, n, 0.5, 20)
    j = twist.almost_complex_generator(q)
    assert j.shape == (20, n + 1, n + 1)
    _assert_generator(j)
    assert np.max(np.abs(np.einsum("...ij,...j->...i", j, q.u))) < 1e-15


def test_generator_exp_matches_expm(rng):
    q = twist.random_points(rng, 2, 0.5, 1)
    a = twist.plane_generator(q)
    theta = 1.234
    assert np.allclose(twist.generator_exp(a, theta),
                       twist.mixed_exp(theta * a), atol=1e-12)


@pytest.mark.parametrize("n", [2, 6])
def test_points_inside_point_tol_are_accepted(n):
    # ||u||^2 - 1 = 5e-9 lies inside POINT_TOL: the chart accepts the point,
    # and so do the maps that exponentiate a generator built on it.
    u = np.zeros(n + 1)
    u[0] = np.sqrt(1.0 + 5e-9)
    v = np.zeros(n + 1)
    v[1] = 0.22  # f(||v||) = 1.6 pi, inside the twist's support
    p = twist.CotangentPoint(u, v)
    assert 0.0 < abs(u @ u - 1.0) <= POINT_TOL
    tau = twist.apply_twist(p).coords
    assert np.max(np.abs(twist.apply_twist_via_generator(p).coords - tau)) < 1e-7
    for image in (twist.isotopy_phi(0.5, p), twist.isotopy_psi(0.5, p)):
        assert isinstance(image, twist.CotangentPoint) and image.u.shape == (n + 1,)


def _taylor_expm(m: np.ndarray) -> np.ndarray:
    """e^m by scaling and squaring: a 30-term Taylor series of m / 2^s with
    ||m / 2^s||_1 <= 1/2, then s squarings."""
    s = max(0, int(np.ceil(np.log2(2.0 * np.linalg.norm(m, 1) + 1e-300))))
    x = m / 2.0 ** s
    term = np.eye(m.shape[0])
    out = term.copy()
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


@pytest.mark.parametrize("n", [2, 6])
def test_mixed_exp_matches_taylor_oracle(rng, n):
    # The isotopy generators 2 f(|v|) ((1-t) j_u + t v_u), as isotopy_phi builds them.
    q = twist.random_points(rng, n, 0.9, 20)
    t = rng.uniform(size=20)[:, None, None]
    j = twist.almost_complex_generator(q)
    a = twist.plane_generator(q)
    f = twist.profile(np.linalg.norm(q.v, axis=-1))[:, None, None]
    m = 2.0 * f * ((1.0 - t) * j + t * a)
    oracle = np.stack([_taylor_expm(mi) for mi in m])
    assert np.max(np.abs(twist.mixed_exp(m) - oracle)) <= 1e-12


@pytest.mark.parametrize("n", [2, 6])
def test_isotopy_endpoints(rng, n):
    q = twist.random_points(rng, n, 0.9, 10)
    # Phi_1 = tau^2
    a = twist.isotopy_phi(1.0, q).coords
    b = twist.twist_square_direct(q).coords
    assert np.max(np.abs(a - b)) < 1e-8
    # Psi_0 = id, Psi_1 = Phi_0
    assert np.max(np.abs(twist.isotopy_psi(0.0, q).coords
                         - q.coords)) < 1e-10
    assert np.max(np.abs(twist.isotopy_psi(1.0, q).coords
                         - twist.isotopy_phi(0.0, q).coords)) < 1e-10


@pytest.mark.parametrize("n", [2, 6])
def test_phi_fixes_zero_section(n):
    u = np.zeros(n + 1)
    u[-1] = 1.0
    q = twist.CotangentPoint(u, np.zeros(n + 1))
    for t in np.linspace(0.0, 1.0, 11):
        out = twist.isotopy_phi(float(t), q)
        assert np.allclose(out.u, u) and np.allclose(out.v, 0.0)


def test_isotopies_reject_bad_dimension(rng):
    q = twist.random_points(rng, 3, 0.5, 1)
    with pytest.raises(DomainError):
        twist.almost_complex_generator(q)
    with pytest.raises(DomainError):
        twist.isotopy_phi(0.5, q)
    with pytest.raises(DomainError):
        twist.isotopy_psi(0.5, q)


def test_boundary_probe_reports():
    rep = twist.boundary_displacement_probe(2, seed=1)
    assert np.isfinite(rep.max_displacement)


# ---------------------------------------------------------------------------
# Symmetry oracles: the derivations of the cross-product tables, and the
# groups the twist maps and isotopies commute with.  Group elements are
# exponentiated by the Taylor oracle above, not by the package's own
# exponentials.
# ---------------------------------------------------------------------------

def _derivations(table: np.ndarray) -> np.ndarray:
    """A basis of the linear maps D with D(x X y) = Dx X y + x X Dy for the
    product x X y of ``table``, as a stack of matrices."""
    m = table.shape[0]
    eye = np.eye(m)
    # The coefficient of D[a, b] in the e_k component of the defect at (e_i, e_j).
    defect = (np.einsum("ijb,ka->ijkab", table, eye)
              - np.einsum("bi,ajk->ijkab", eye, table)
              - np.einsum("bj,iak->ijkab", eye, table)).reshape(m ** 3, m * m)
    _, s, vt = np.linalg.svd(defect)
    return vt[int(np.sum(s > 1e-10)):].reshape(-1, m, m)


@pytest.mark.parametrize("m,dim", [(3, 3), (7, 14)])
def test_cross_table_derivations_are_so3_and_g2(m, dim):
    from contactcalc.octonion import _CROSS3, _CROSS7
    ders = _derivations({3: _CROSS3, 7: _CROSS7}[m])
    assert ders.shape == (dim, m, m)
    assert np.max(np.abs(ders + np.swapaxes(ders, -1, -2))) < 1e-12


def _random_rotation(rng, m, basis=None):
    """e^S for S a random skew m x m matrix, or a random combination of the
    matrices in ``basis``."""
    if basis is None:
        s = rng.normal(size=(m, m))
        s = s - s.T
    else:
        s = np.einsum("k,kij->ij", rng.normal(size=len(basis)), basis)
    return _taylor_expm(s)


def _equivariance_gap(map_fn, g, q):
    """max |map(g.q) - g.map(q)| for the diagonal action g.(u, v) = (gu, gv)."""
    act = lambda p: twist.CotangentPoint(p.u @ g.T, p.v @ g.T)
    return float(np.max(np.abs(map_fn(act(q)).coords - act(map_fn(q)).coords)))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
def test_twist_maps_commute_with_rotations(rng, n):
    q = twist.random_points(rng, n, 0.5, 20)
    g = _random_rotation(rng, n + 1)
    for map_fn in (twist.apply_twist, twist.apply_twist_via_generator,
                   twist.twist_square_direct):
        assert _equivariance_gap(map_fn, g, q) < 1e-12


@pytest.mark.parametrize("n", [2, 6])
def test_isotopies_commute_with_the_table_automorphisms(rng, n):
    # G_2 at n = 6 and SO(3) at n = 2, from the derivations of the table.
    from contactcalc.octonion import _CROSS3, _CROSS7
    q = twist.random_points(rng, n, 0.35, 20)
    t = rng.uniform(size=20)
    g = _random_rotation(rng, n + 1, _derivations({2: _CROSS3, 6: _CROSS7}[n]))
    for iso in (twist.isotopy_phi, twist.isotopy_psi):
        assert _equivariance_gap(lambda p: iso(t, p), g, q) < 1e-12


def test_isotopies_do_not_commute_with_generic_so7(rng):
    # j_u is the octonionic cross product, which a generic rotation of R^7
    # does not preserve; tau^2 = Phi_1 commutes with every rotation.
    q = twist.random_points(rng, 6, 0.35, 20)
    g = _random_rotation(rng, 7)
    for iso in (twist.isotopy_phi, twist.isotopy_psi):
        assert _equivariance_gap(lambda p: iso(0.5, p), g, q) > 1e-2
    assert _equivariance_gap(lambda p: twist.isotopy_phi(1.0, p), g, q) < 1e-12
