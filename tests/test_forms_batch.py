"""The batched forms, fields and contact-margin kernel against a per-point
oracle.

The oracle below is the per-point implementation the batched one replaced:
catalog evaluators on one coordinate vector, a per-point central-difference
``d``, BLAS products, ``np.linalg.solve``/``lstsq`` and a scalar Parlett-Reid
Pfaffian, one point per call.  The tolerances were fixed before the
comparison was run: evaluators are elementwise and must agree exactly;
``d`` is 1e-9 absolute (both sides divide round-off by 2e-5); the fields are
O(1) solves of well-conditioned systems, held to 1e-9 absolute; margins and
Pfaffians of O(1) entries are held to 1e-12 relative to their scale.  One
exception was found when the comparison first ran: the oracle Hamiltonian
is a BLAS ``np.dot``, which may fuse its multiply-adds, so the batched sum
of products is held to 4 ulps of the values' scale instead of exactly.

The dilation check is compared with its own per-row results (exactly: one
row is the same arithmetic in a batch as on its own) and with closed forms.
Lie derivatives of 1-forms with linear coefficients along linear fields are
held to 1e-9 absolute, like ``d``.  These tolerances were fixed before the
comparison was run.

``central_difference`` calls its function once, on all 2k offsets stacked.
It is compared bit for bit with the stencil that called the function once
per offset, and every differencing caller is held to one call.
"""

import numpy as np
import pytest

from contactcalc import charts, conditions, fields, forms, twist, verify
from contactcalc.charts import (Chart, ChartPoint, cotangent_chart, darboux_chart,
                                unit_norm_constraint, with_constraints)
from contactcalc.errors import (ChartMismatchError, DegenerateSystemError,
                                DomainError, IllConditionedError)

EVAL_TOL = 0.0
LIE_TOL = 1e-9
HAM_ULPS = 4
D_TOL = 1e-9
FIELD_TOL = 1e-9
PF_TOL = 1e-12
STEP = 1e-5
COUNT = 12


# ---------------------------------------------------------------------------
# Per-point oracle
# ---------------------------------------------------------------------------

def o_lambda_std(n):
    return lambda c: np.concatenate([-0.5 * c[n:], 0.5 * c[:n]])


def o_lambda_can(n):
    return lambda c: np.concatenate([c[n:], np.zeros(n)])


def o_weinstein(n, k):
    def ev(c):
        x, y = c[:n], c[n:]
        dx = np.where(np.arange(n) < k, 0.5 * y, -0.5 * y)
        dy = np.where(np.arange(n) < k, 1.5 * x, 0.5 * x)
        return np.concatenate([dx, dy])
    return ev


def o_handle(beta):
    return lambda c: np.concatenate([[-2.0 * c[1], -c[0]], beta(c[2:])])


def o_dz_plus(beta):
    return lambda c: np.concatenate([[1.0], beta(c[1:])])


def o_theta(beta, eps, sheet):
    return lambda c: np.concatenate([[-sheet * eps], beta(c[1:])])


def o_symp(alpha):
    return lambda c: np.concatenate([[0.0], c[0] * alpha(c[1:])])


def o_hamiltonian(n, k):
    return lambda c: float(np.dot(c[:k], c[n:n + k]))


def o_derivative(fn, x):
    """Columns (fn(x + h e_j) - fn(x - h e_j)) / 2h, one point."""
    cols = [(np.asarray(fn(x + STEP * e)) - np.asarray(fn(x - STEP * e))) / (2 * STEP)
            for e in np.eye(x.size)]
    return np.stack(cols, axis=-1)


def o_d_matrix(ev, x):
    jac = o_derivative(ev, x)
    return jac.T - jac


def o_frame(normal, oriented):
    """Tangent frame of a one-constraint chart whose constraint gradient at
    the point is ``normal`` (None: unconstrained)."""
    if normal is None:
        return None
    _, s, vt = np.linalg.svd(normal[None, :], full_matrices=True)
    frame = vt[int(np.sum(s > 1e-12)):].T
    if oriented and np.linalg.det(np.column_stack([normal, frame])) < 0:
        frame = frame.copy()
        frame[:, 0] = -frame[:, 0]
    return frame


def o_pfaffian(a):
    """Scalar Parlett-Reid Pfaffian; also returns the pivot row chosen at
    each elimination step."""
    a = np.array(a, dtype=float)
    m = a.shape[0]
    pf, pivots = 1.0, ()
    for k in range(0, m - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        pivots += (kp,)
        if kp != k + 1:
            a[[k + 1, kp]] = a[[kp, k + 1]]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        if a[k + 1, k] == 0.0:
            return 0.0, pivots
        pf *= a[k, k + 1]
        tau = a[k, k + 2:] / a[k, k + 1]
        col = a[k + 2:, k + 1]
        a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return pf, pivots


def o_bordered(a, m2):
    return np.block([[np.zeros((1, 1)), a[None, :]], [-a[:, None], m2]])


def o_contact_margin(ev, x, normal, orientation):
    a, m2 = ev(x), o_d_matrix(ev, x)
    frame = o_frame(normal, oriented=True)
    if frame is not None:
        a, m2 = frame.T @ a, frame.T @ m2 @ frame
    pf, pivots = o_pfaffian(o_bordered(a, m2))
    return orientation * pf, pivots


def o_liouville(ev, x):
    return np.linalg.solve(o_d_matrix(ev, x).T, ev(x))


def o_hamiltonian_field(f, ev, x):
    return np.linalg.solve(o_d_matrix(ev, x).T, o_derivative(f, x))


def o_reeb(ev, x, normal):
    m, a = o_d_matrix(ev, x), ev(x)
    frame = o_frame(normal, oriented=False)
    if frame is None:
        frame = np.eye(x.size)
    mt, at = frame.T @ m @ frame, frame.T @ a
    sys = np.vstack([mt.T, at[None, :]])
    rhs = np.concatenate([np.zeros(mt.shape[0]), [1.0]])
    c, *_ = np.linalg.lstsq(sys, rhs, rcond=None)
    return frame @ c


# ---------------------------------------------------------------------------
# Cases: (batched form, oracle evaluator, point sampler)
# ---------------------------------------------------------------------------

def _box(scale, lo=None):
    """Uniform points in [-scale, scale]^dim; ``lo`` pins coordinate 0 to
    [lo, 2] (the symplectization's t > 0)."""
    def draw(rng, chart, count):
        c = rng.uniform(-scale, scale, (count, chart.dim))
        if lo is not None:
            c[:, 0] = rng.uniform(lo, 2.0, count)
        return c
    return draw


def _sphere(rng, chart, count):
    x = rng.normal(size=(count, chart.dim))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _cylinder(rng, chart, count):
    """Points of the cylinder S^(dim-2) x R: unit in all coordinates but the
    last, which is free."""
    x = rng.normal(size=(count, chart.dim))
    x[:, :-1] /= np.linalg.norm(x[:, :-1], axis=-1, keepdims=True)
    return x


def _sphere_form(n):
    """lambda_std restricted to the unit sphere S^(2n-1) in R^(2n)."""
    sph = with_constraints(darboux_chart(n), [unit_norm_constraint(range(2 * n))],
                           f"S{2 * n - 1}_xy")
    return forms.restrict_form(forms.lambda_std(n), sph)


# Contact forms of dimension 5, 7 and 9 on R and S charts.  Coordinates up
# to 3 in size make the covector entries of dz + lambda_std exceed 1, so
# Pfaffian pivots swap.
CONTACT = {
    f"R{2 * n + 1}": (forms.dz_plus(forms.lambda_std(n)),
                      o_dz_plus(o_lambda_std(n)), _box(3.0))
    for n in (2, 3, 4)
} | {
    f"S{2 * n + 1}": (_sphere_form(n + 1), o_lambda_std(n + 1), _sphere)
    for n in (2, 3, 4)
} | {
    "theta7": (forms.theta_invariant(forms.lambda_std(3), 0.25, -1),
               o_theta(o_lambda_std(3), 0.25, -1), _box(3.0)),
    # lambda_std on the cylinder S^6 x R in R^8: the Liouville field r/2 is
    # transverse to it, and its normal is not the position vector.
    "cyl7": (forms.restrict_form(forms.lambda_std(4), with_constraints(
                 darboux_chart(4), [unit_norm_constraint(range(7))], "S6xR_xy")),
             o_lambda_std(4), _cylinder),
}

# Exact 1-forms with a nondegenerate d (Liouville forms), even dimensions.
LIOUVILLE = {
    "lambda_std4": (forms.lambda_std(2), o_lambda_std(2), _box(2.0)),
    "lambda_std8": (forms.lambda_std(4), o_lambda_std(4), _box(2.0)),
    "lambda_can6": (forms.lambda_can(3), o_lambda_can(3), _box(2.0)),
    "weinstein6": (forms.weinstein(3, 2), o_weinstein(3, 2), _box(2.0)),
    "handle6": (forms.handle_form(forms.lambda_std(2)),
                o_handle(o_lambda_std(2)), _box(1.0)),
    "symp4": (forms.symplectization(forms.dz_plus(forms.lambda_std(1))),
              o_symp(o_dz_plus(o_lambda_std(1))), _box(1.0, lo=0.5)),
}

ALL = CONTACT | LIOUVILLE


def _points(rng, case, count=COUNT):
    form, _, draw = ALL[case]
    return form, ChartPoint(form.chart, draw(rng, form.chart, count))


def _normal(p, i):
    """The constraint gradient at row i (None on an unconstrained chart)."""
    if not p.chart.constraints:
        return None
    return p.chart.constraints[0].grad(p.coords[i])


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(ALL))
def test_evaluators_match_oracle(rng, case):
    form, p = _points(rng, case)
    ev = ALL[case][1]
    got = forms.eval_one_form(form, p)
    want = np.array([ev(x) for x in p.coords])
    assert got.shape == p.coords.shape
    assert float(np.max(np.abs(got - want))) <= EVAL_TOL


@pytest.mark.parametrize("case", sorted(ALL))
def test_d_matrix_matches_oracle(rng, case):
    form, p = _points(rng, case)
    ev = ALL[case][1]
    got = forms.d_matrix(form, p.coords)
    want = np.array([o_d_matrix(ev, x) for x in p.coords])
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= D_TOL


def test_weinstein_hamiltonian_matches_oracle(rng):
    c = rng.uniform(-2.0, 2.0, (COUNT, 6))
    got = forms.weinstein_hamiltonian(3, 2)(c)
    want = np.array([o_hamiltonian(3, 2)(x) for x in c])
    assert got.shape == (COUNT,)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= HAM_ULPS * np.finfo(float).eps * scale


@pytest.mark.parametrize("case", sorted(LIOUVILLE))
def test_liouville_field_matches_oracle(rng, case):
    form, p = _points(rng, case)
    ev = ALL[case][1]
    got = fields.liouville_vector_field(form, p)
    want = np.array([o_liouville(ev, x) for x in p.coords])
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= FIELD_TOL


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 4)])
def test_hamiltonian_field_matches_oracle(rng, n, k):
    lam = forms.lambda_std(n)
    p = ChartPoint(lam.chart, rng.uniform(-2.0, 2.0, (COUNT, 2 * n)))
    got = fields.hamiltonian_vector_field(forms.weinstein_hamiltonian(n, k), lam, p)
    want = np.array([o_hamiltonian_field(o_hamiltonian(n, k), o_lambda_std(n), x)
                     for x in p.coords])
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= FIELD_TOL


@pytest.mark.parametrize("case", sorted(CONTACT))
def test_reeb_field_matches_oracle(rng, case):
    form, p = _points(rng, case)
    ev = ALL[case][1]
    got = fields.reeb_vector_field(form, p)
    want = np.array([o_reeb(ev, x, _normal(p, i)) for i, x in enumerate(p.coords)])
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= FIELD_TOL


@pytest.mark.parametrize("case", sorted(CONTACT))
def test_contact_margin_matches_oracle(rng, case):
    form, p = _points(rng, case)
    ev = ALL[case][1]
    got = conditions.contact_margin(form, p)
    oracle = [o_contact_margin(ev, x, _normal(p, i), p.chart.orientation)
              for i, x in enumerate(p.coords)]
    want = np.array([m for m, _ in oracle])
    assert got.shape == (COUNT,)
    assert float(np.max(np.abs(got - want))) <= PF_TOL * max(1.0, np.max(np.abs(want)))
    # Some rows' pivots swap (pivot row k+2 is not the next row k+1).
    assert any(kp != 2 * j + 1 for _, pivots in oracle
               for j, kp in enumerate(pivots))


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 14])
def test_pfaffian_stack_matches_oracle(rng, m):
    b = rng.uniform(-1.0, 1.0, (COUNT, m, m))
    a = b - b.swapaxes(-1, -2)
    a[3] = 0.0                      # singular: zero first pivot
    a[5, 0, :] = a[5, :, 0] = 0.0   # singular: a zero first row and column
    # Row 0 keeps its first pivot, row 7 must swap away from a zero entry:
    # a pivot shared across rows would stop row 7 at zero.
    a[0, 1, 0], a[0, 0, 1] = 5.0, -5.0
    a[7, 1, 0] = a[7, 0, 1] = 0.0
    got = conditions._pfaffian(a)
    oracle = [o_pfaffian(x) for x in a]
    want = np.array([pf for pf, _ in oracle])
    # Rows of the stack pivot differently, so the pivots are row-wise.
    assert len({pivots for _, pivots in oracle}) > 1
    assert got[3] == got[5] == 0.0 != want[7]
    assert float(np.max(np.abs(got - want))) <= PF_TOL * m


@pytest.mark.parametrize("case", ["S7", "S9"])
def test_contact_margin_builds_no_frame(rng, monkeypatch, case):
    form, p = _points(rng, case)
    ev = ALL[case][1]
    want = min(o_contact_margin(ev, x, _normal(p, i), p.chart.orientation)[0]
               for i, x in enumerate(p.coords))

    def refuse(*args, **kwargs):
        raise AssertionError("contact_margin built a tangent frame")

    monkeypatch.setattr(charts, "tangent_frame", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    margin = conditions.check_contact_condition(form, p).margin
    assert abs(margin - want) <= PF_TOL * max(1.0, abs(want))


def test_check_contact_condition_stacks_a_point_list(rng):
    form, p = _points(rng, "S7")
    listed = [ChartPoint(p.chart, x) for x in p.coords]
    rep = conditions.check_contact_condition(form, listed)
    assert rep.samples == COUNT
    assert rep.margin == conditions.check_contact_condition(form, p).margin
    with pytest.raises(DomainError):
        conditions.check_contact_condition(form, ChartPoint(p.chart, p.coords[:0]))


# ---------------------------------------------------------------------------
# A single point is the one-row batch
# ---------------------------------------------------------------------------

def _kernel_results(form, p):
    out = [forms.eval_one_form(form, p), forms.d_matrix(form, p.coords)]
    if p.chart.dim % 2:
        out += [fields.reeb_vector_field(form, p), conditions.contact_margin(form, p)]
    else:
        out += [fields.liouville_vector_field(form, p)]
    return out


@pytest.mark.parametrize("case", ["R7", "S9", "lambda_std4", "handle6"])
def test_single_point_is_the_one_row_batch(rng, case):
    form, p = _points(rng, case, 4)
    whole = _kernel_results(form, p)
    for i in range(4):
        one = _kernel_results(form, ChartPoint(p.chart, p.coords[i]))
        for got, batch in zip(one, whole):
            assert np.shape(got) == np.shape(batch[i])
            assert np.array_equal(got, batch[i])


# ---------------------------------------------------------------------------
# The dilation check on batches
# ---------------------------------------------------------------------------

def _handle_field(x):
    """Z = -theta d_theta + 2z d_z + (radial / 2 on the beta block), the
    Liouville field of the handle form."""
    return np.concatenate([-x[..., :1], 2.0 * x[..., 1:2], 0.5 * x[..., 2:]],
                          axis=-1)


def _t_dt(x):
    out = np.zeros_like(x)
    out[..., 0] = x[..., 0]
    return out


def test_dilation_batch_is_its_rows(rng):
    check = conditions.check_contact_dilation
    lam = forms.lambda_std(2)
    p = ChartPoint(lam.chart, rng.uniform(-1.0, 1.0, (3, 4)))
    v = lambda x: 0.5 * x
    rows = [check(v, lam, ChartPoint(p.chart, x)) for x in p.coords]
    rep = check(v, lam, p)
    assert rep.passed and rep.samples == 3 and all(r.samples == 1 for r in rows)
    assert rep.margin == min(r.margin for r in rows)
    assert check(v, lam, [ChartPoint(p.chart, x) for x in p.coords]) == rep
    assert check(v, lam, ChartPoint(p.chart, p.coords[:1])) == rows[0]
    with pytest.raises(DomainError, match="empty"):
        check(v, lam, ChartPoint(p.chart, p.coords[:0]))
    with pytest.raises(DomainError, match="empty"):
        check(v, lam, [])


def test_lie_derivative_batch_is_its_rows(rng):
    form, p = _points(rng, "handle6", 4)
    whole = conditions.lie_derivative_one_form(_handle_field, form, p)
    assert whole.shape == p.coords.shape
    for i, x in enumerate(p.coords):
        one = conditions.lie_derivative_one_form(_handle_field, form,
                                                 ChartPoint(p.chart, x))
        assert one.shape == x.shape and np.array_equal(one, whole[i])
        row = conditions.lie_derivative_one_form(_handle_field, form,
                                                 ChartPoint(p.chart, x[None]))
        assert np.array_equal(row[0], one)


def _off_chart(rng):
    """Two points on cotangent_chart(1): same dimension as lambda_std(1)'s
    chart, but not that chart."""
    return ChartPoint(cotangent_chart(1), rng.uniform(-1.0, 1.0, (2, 2)))


def test_contact_dilation_refuses_points_on_another_chart(rng):
    with pytest.raises(ChartMismatchError):
        conditions.check_contact_dilation(lambda x: 0.5 * x, forms.lambda_std(1),
                                          _off_chart(rng))


def test_lie_derivative_refuses_points_on_another_chart(rng):
    with pytest.raises(ChartMismatchError):
        conditions.lie_derivative_one_form(lambda x: 0.5 * x, forms.lambda_std(1),
                                           _off_chart(rng))


def test_hamiltonian_field_refuses_points_on_another_chart(rng):
    with pytest.raises(ChartMismatchError):
        fields.hamiltonian_vector_field(forms.weinstein_hamiltonian(1, 1),
                                        forms.lambda_std(1), _off_chart(rng))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [0.5, -1.3, 2.0])
def test_lie_derivative_of_radial_field_on_lambda_std(rng, n, c):
    # L_{c x} lambda_std = i_{c x} d(lambda_std) + d(c lambda_std(x))
    # = 2 c lambda_std, since lambda_std(x) = 0.
    lam = forms.lambda_std(n)
    p = ChartPoint(lam.chart, rng.uniform(-2.0, 2.0, (COUNT, 2 * n)))
    got = conditions.lie_derivative_one_form(lambda x: c * x, lam, p)
    assert float(np.max(np.abs(got - 2.0 * c * forms.eval_one_form(lam, p)))) <= LIE_TOL


MODELS = {
    "handle": (forms.handle_form(forms.lambda_std(1)), _box(1.0), _handle_field),
    "symp": (LIOUVILLE["symp4"][0], _box(1.0, lo=0.5), _t_dt),
}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_liouville_models_are_dilated(rng, model):
    # The handle form -theta dz - 2z dtheta + lambda_std is dilated by its
    # Liouville field, and t alpha on the symplectization by t d_t.
    form, draw, field = MODELS[model]
    p = ChartPoint(form.chart, draw(rng, form.chart, COUNT))
    rep = conditions.check_contact_dilation(field, form, p)
    assert rep.passed and rep.samples == COUNT
    assert -conditions.DILATION_TOL < rep.margin <= 0.0


def test_wrong_field_fails_with_the_closed_form_residual(rng):
    # L_{0.4 x} lambda_std = 0.8 lambda_std: the residual is -0.2 lambda_std,
    # at most 0.1 max |coord|.
    lam = forms.lambda_std(2)
    p = ChartPoint(lam.chart, rng.uniform(-1.0, 1.0, (COUNT, 4)))
    rep = conditions.check_contact_dilation(lambda x: 0.4 * x, lam, p)
    assert not rep.passed
    assert abs(rep.margin + 0.1 * np.max(np.abs(p.coords))) <= LIE_TOL


# ---------------------------------------------------------------------------
# One bad row rejects the whole batch
# ---------------------------------------------------------------------------

def test_one_bad_coordinate_row_rejects_the_batch(rng):
    form, p = _points(rng, "S7", 6)
    for bad in (np.nan, np.inf):
        coords = p.coords.copy()
        coords[2, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            ChartPoint(p.chart, coords)
    coords = p.coords.copy()
    coords[4] *= 1.01
    with pytest.raises(DomainError, match="constraint"):
        ChartPoint(p.chart, coords)
    with pytest.raises(DomainError, match="constraint"):
        ChartPoint(p.chart, coords[4])


def _ill_conditioned_at_x2_zero():
    """x1 dy1 + (x2^5 / 5) dy2 on R^4: d = dx1^dy1 + x2^4 dx2^dy2, singular
    where x2 = 0."""
    def ev(c):
        out = np.zeros_like(c)
        out[..., 2] = c[..., 0]
        out[..., 3] = c[..., 1] ** 5 / 5.0
        return out
    return forms.OneFormField("x1dy1+x2^5dy2/5", darboux_chart(2), ev)


def _reeb_degenerate_at_x_zero():
    """x dz + lambda_std on (z, x, y): its Reeb system has no solution where
    x = 0, because there ker d(alpha) lies in ker alpha."""
    def ev(c):
        return np.stack([c[..., 1], -0.5 * c[..., 2], 0.5 * c[..., 1]], axis=-1)
    return forms.OneFormField("xdz+lambda_std", Chart("zxy", ("z", "x", "y")), ev)


@pytest.mark.parametrize("make,solve,error", [
    (_ill_conditioned_at_x2_zero, fields.liouville_vector_field, IllConditionedError),
    (_reeb_degenerate_at_x_zero, fields.reeb_vector_field, DegenerateSystemError),
])
def test_one_bad_system_rejects_the_batch(rng, make, solve, error):
    form = make()
    coords = rng.uniform(0.5, 1.0, (6, form.chart.dim))
    solve(form, ChartPoint(form.chart, coords))      # every row is fine
    coords[3, 1] = 0.0
    with pytest.raises(error):
        solve(form, ChartPoint(form.chart, coords))
    with pytest.raises(error):
        solve(form, ChartPoint(form.chart, coords[3]))


def test_one_non_finite_evaluation_rejects_the_batch(rng):
    lam = forms.lambda_std(2)
    blows_up = forms.OneFormField(
        "blows_up", lam.chart,
        lambda c: lam.evaluator(c) / (c[..., :1] != 0.0))
    coords = rng.uniform(0.5, 1.0, (6, 4))
    coords[2, 0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(DomainError, match="non-finite"):
        forms.eval_one_form(blows_up, ChartPoint(lam.chart, coords))


# ---------------------------------------------------------------------------
# verify forms makes one kernel call per line, whatever the sample count
# ---------------------------------------------------------------------------

# fields binds d_matrix by name, so its calls and the suite's own are
# counted on both modules.
COUNTED = [(forms, "d_matrix"), (fields, "d_matrix"), (fields, "_checked_solve"),
           (fields, "liouville_vector_field"), (fields, "reeb_vector_field"),
           (fields, "hamiltonian_vector_field"), (conditions, "contact_margin")]


def _forms_calls(monkeypatch, samples):
    calls = {f"{owner.__name__}.{name}": 0 for owner, name in COUNTED}
    for owner, name in COUNTED:
        original = getattr(owner, name)
        key = f"{owner.__name__}.{name}"

        def counted(*args, key=key, original=original):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    verify.verify_forms(samples=samples)
    monkeypatch.undo()
    return calls


def test_forms_suite_call_count_is_independent_of_samples(monkeypatch):
    few = _forms_calls(monkeypatch, 5)
    assert few == _forms_calls(monkeypatch, 50)
    assert few["contactcalc.conditions.contact_margin"] == 1
    assert few["contactcalc.fields.reeb_vector_field"] == 1


# ---------------------------------------------------------------------------
# One call per stencil, with the bits of one call per offset
# ---------------------------------------------------------------------------

def _per_offset_difference(fn, x, directions, step=forms.STEP):
    """The stencil before it was stacked: fn runs once per offset, on the
    displaced batch (B..., dim)."""
    offsets = step * directions.swapaxes(-1, -2)
    k = offsets.shape[-2]
    x = x[..., None, :]
    ys = np.concatenate([x + offsets, x - offsets], axis=-2)
    ys = ys.transpose((ys.ndim - 2, *range(ys.ndim - 2), ys.ndim - 1))
    values = np.array([fn(y) for y in ys], dtype=float)
    diff = (values[:k] - values[k:]) / (2.0 * step)
    return diff.transpose((*range(1, diff.ndim), 0))


def _recording(fn, shapes):
    """fn, appending the shape of each argument it is called on to shapes."""
    def recorded(x):
        shapes.append(x.shape)
        return fn(x)
    return recorded


@pytest.mark.parametrize("case", sorted(ALL))
def test_d_matrix_has_the_per_offset_bits(rng, case):
    form, p = _points(rng, case)
    jac = _per_offset_difference(form.evaluator, p.coords, np.eye(p.chart.dim))
    assert np.array_equal(forms.d_matrix(form, p.coords), jac.swapaxes(-1, -2) - jac)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 4)])
def test_hamiltonian_derivative_has_the_per_offset_bits(rng, n, k):
    f = forms.weinstein_hamiltonian(n, k)
    x = rng.uniform(-2.0, 2.0, (COUNT, 2 * n))
    eye = np.eye(2 * n)
    assert np.array_equal(forms.central_difference(f, x, eye),
                          _per_offset_difference(f, x, eye))


def _twist_pullback(q):
    return twist.pullback_two_form(twist.apply_twist, q).pulled


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_pullback_has_the_per_offset_bits(rng, monkeypatch, n):
    q = twist.random_points(rng, n, 0.9, COUNT)
    got = _twist_pullback(q)
    monkeypatch.setattr(twist, "central_difference", _per_offset_difference)
    assert np.array_equal(got, _twist_pullback(q))


@pytest.mark.parametrize("n", [1, 2, 6, 7])
def test_pullback_runs_the_map_once(rng, n):
    shapes = []

    def twist_map(p):
        shapes.append(p.coords.shape)
        return twist.apply_twist(p)

    twist.pullback_two_form(twist_map, twist.random_points(rng, n, 0.9, COUNT))
    # 2n tangent directions, two offsets each
    assert shapes == [(4 * n, COUNT, 2 * n + 2)]


@pytest.mark.parametrize("dim", range(2, 11))
def test_d_matrix_runs_the_evaluator_once(rng, dim):
    shapes = []
    chart = Chart(f"R{dim}", tuple(f"x{i}" for i in range(dim)))
    form = forms.OneFormField("roll", chart,
                              _recording(lambda c: np.roll(c, 1, axis=-1), shapes))
    forms.d_matrix(form, rng.uniform(-1.0, 1.0, (COUNT, dim)))
    assert shapes == [(2 * dim, COUNT, dim)]


def test_hamiltonian_field_runs_the_hamiltonian_once(rng):
    lam, shapes = forms.lambda_std(3), []
    p = ChartPoint(lam.chart, rng.uniform(-2.0, 2.0, (COUNT, 6)))
    fields.hamiltonian_vector_field(
        _recording(forms.weinstein_hamiltonian(3, 2), shapes), lam, p)
    assert shapes == [(12, COUNT, 6)]


def test_contact_dilation_runs_each_stencil_once(rng):
    # The field runs at the points for i_v d(alpha) and once on the stack of
    # alpha(v); the form's evaluator runs once for d(alpha), once for
    # alpha(v) and once more for alpha at the points.
    field_shapes, form_shapes = [], []
    lam = forms.lambda_std(2)
    form = forms.OneFormField("lambda_std", lam.chart,
                              _recording(lam.evaluator, form_shapes))
    p = ChartPoint(lam.chart, rng.uniform(-1.0, 1.0, (COUNT, 4)))
    rep = conditions.check_contact_dilation(_recording(lambda x: 0.5 * x, field_shapes),
                                            form, p)
    assert rep.passed
    assert field_shapes == [(COUNT, 4), (8, COUNT, 4)]
    assert form_shapes == [(8, COUNT, 4), (8, COUNT, 4), (COUNT, 4)]
