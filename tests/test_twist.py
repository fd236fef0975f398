import numpy as np
import pytest

from contactcalc import twist
from contactcalc.charts import ChartPoint, cotangent_chart
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
    prof = twist.make_profile(0.4)
    assert float(prof.f(0.0)) == pytest.approx(np.pi)
    assert float(prof.f(0.4)) == pytest.approx(2 * np.pi)
    assert float(prof.f(1.0)) == pytest.approx(2 * np.pi)
    with pytest.raises(DomainError):
        twist.make_profile(1.5)


def test_zero_section_antipodal():
    prof = twist.make_profile(0.4)
    u = np.array([0.0, 1.0, 0.0])
    out = twist.apply_twist(twist.CotangentPoint(u, np.zeros(3)), prof)
    assert np.allclose(out.u, -u)
    assert np.allclose(out.v, 0.0)


def test_identity_outside_support(rng):
    prof = twist.make_profile(0.4)
    q = twist.random_points(rng, 2, 1.0, 10)
    q = twist.CotangentPoint(q.u, q.v / np.linalg.norm(q.v, axis=-1, keepdims=True))
    out = twist.apply_twist(q, prof)
    assert np.max(np.abs(out.coords - q.coords)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_two_path_consistency(rng, n):
    prof = twist.make_profile(0.4)
    q = twist.random_points(rng, n, 0.9, 20)
    a = twist.apply_twist(q, prof).coords
    b = twist.apply_twist_via_generator(q, prof).coords
    assert np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_pullback_preserves_minus_dlambda_can(rng, n):
    prof = twist.make_profile(0.4)
    q = twist.random_points(rng, n, 0.9, 10)
    res = twist.pullback_two_form(lambda p: twist.apply_twist(p, prof), q)
    assert res.max_deviation < 1e-5


def test_plane_generator_properties(rng):
    q = twist.random_points(rng, 3, 0.5, 1)
    gen = twist.plane_generator(q.u, q.v)
    a = gen.matrix
    assert np.max(np.abs(a @ a @ a + a)) < 1e-12
    with pytest.raises(DomainError):
        twist.plane_generator(q.u, np.zeros(4))


def test_generator_exp_matches_expm(rng):
    q = twist.random_points(rng, 2, 0.5, 1)
    gen = twist.plane_generator(q.u, q.v)
    theta = 1.234
    assert np.allclose(twist.generator_exp(gen, theta),
                       twist.mixed_exp(theta * gen.matrix), atol=1e-12)


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
    prof = twist.make_profile(0.4)
    q = twist.random_points(rng, n, 0.9, 20)
    t = rng.uniform(size=20)[:, None, None]
    j = twist.almost_complex_generator(q.u, n).matrix
    a = twist.plane_generator(q.u, q.v).matrix
    f = prof.f(np.linalg.norm(q.v, axis=-1))[:, None, None]
    m = 2.0 * f * ((1.0 - t) * j + t * a)
    oracle = np.stack([_taylor_expm(mi) for mi in m])
    assert np.max(np.abs(twist.mixed_exp(m) - oracle)) <= 1e-12


@pytest.mark.parametrize("n", [2, 6])
def test_isotopy_endpoints(rng, n):
    prof = twist.make_profile(0.4)
    q = twist.random_points(rng, n, 0.9, 10)
    # Phi_1 = tau^2
    a = twist.isotopy_phi(1.0, q, prof).coords
    b = twist.twist_square_direct(q, prof).coords
    assert np.max(np.abs(a - b)) < 1e-8
    # Psi_0 = id, Psi_1 = Phi_0
    assert np.max(np.abs(twist.isotopy_psi(0.0, q, prof).coords
                         - q.coords)) < 1e-10
    assert np.max(np.abs(twist.isotopy_psi(1.0, q, prof).coords
                         - twist.isotopy_phi(0.0, q, prof).coords)) < 1e-10


@pytest.mark.parametrize("n", [2, 6])
def test_phi_fixes_zero_section(n):
    prof = twist.make_profile(0.4)
    u = np.zeros(n + 1)
    u[-1] = 1.0
    q = twist.CotangentPoint(u, np.zeros(n + 1))
    for t in np.linspace(0.0, 1.0, 11):
        out = twist.isotopy_phi(float(t), q, prof)
        assert np.allclose(out.u, u) and np.allclose(out.v, 0.0)


def test_isotopies_reject_bad_dimension(rng):
    prof = twist.make_profile(0.4)
    q = twist.random_points(rng, 3, 0.5, 1)
    with pytest.raises(DomainError):
        twist.isotopy_phi(0.5, q, prof)
    with pytest.raises(DomainError):
        twist.isotopy_psi(0.5, q, prof)


def test_boundary_probe_reports():
    prof = twist.make_profile(0.4)
    rep = twist.boundary_displacement_probe(prof, 2, 3, seed=1)
    assert np.isfinite(rep.max_displacement)
    with pytest.raises(DomainError):
        twist.boundary_displacement_probe(prof, 2, 0)
