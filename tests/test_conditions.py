import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from contactcalc.charts import Chart, darboux_chart, stack_points, \
    unit_norm_constraint, with_constraints
from contactcalc.conditions import (check_contact_condition,
                                    check_contact_dilation, contact_margin,
                                    top_form_coefficient)
from contactcalc.errors import DomainError
from contactcalc.forms import OneFormField, dz_plus, lambda_std, restrict_form, \
    weinstein
from contactcalc.rounding import rounding_curve


def test_top_form_coefficient_darboux():
    # alpha = dz, omega = dx^dy on basis (z, x, y): coefficient 1
    a = np.array([1.0, 0.0, 0.0])
    m2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    assert top_form_coefficient(a, m2) == pytest.approx(1.0)


def test_top_form_rejects_even():
    with pytest.raises(DomainError):
        top_form_coefficient(np.zeros(4), np.zeros((4, 4)))


@functools.lru_cache(maxsize=None)
def _perm_table(m: int):
    """All permutations of range(m) with their signs."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    inversions = sum((perms[:, i] > perms[:, j]).astype(np.intp)
                     for i in range(m) for j in range(i + 1, m))
    return perms, np.where(inversions % 2 == 0, 1.0, -1.0)


def _expansion_terms(a: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The signed terms of the permutation expansion of alpha ^ omega^n over
    the coordinate basis, scaled by 1 / (2^n n!); their sum is the oracle."""
    m = a.size
    n = (m - 1) // 2
    perms, signs = _perm_table(m)
    terms = signs * a[perms[:, 0]]
    for j in range(n):
        terms = terms * m2[perms[:, 1 + 2 * j], perms[:, 2 + 2 * j]]
    return terms / (2.0 ** n * math.factorial(n))


# Entries on a 1e-6 grid in [-1, 1]: exact zeros and near-cancelling sums
# occur, products never underflow.
ENTRY = st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 10 ** 6)


@st.composite
def covector_and_skew(draw):
    m = draw(st.sampled_from([3, 5, 7, 9]))
    a = draw(hnp.arrays(float, m, elements=ENTRY))
    b = draw(hnp.arrays(float, (m, m), elements=ENTRY))
    return a, b - b.T


@settings(max_examples=120, deadline=None, derandomize=True)
@given(covector_and_skew())
def test_top_form_matches_permutation_expansion(case):
    # The error is relative to the sum of |terms|, the expansion's own scale,
    # so that a coefficient cancelling to near zero is still held to 1e-12.
    a, m2 = case
    terms = _expansion_terms(a, m2)
    assert abs(top_form_coefficient(a, m2) - terms.sum()) <= 1e-12 * np.abs(terms).sum()
    assert top_form_coefficient(np.zeros_like(a), m2) == 0.0


@pytest.mark.parametrize("n", [5, 6])
def test_contact_margin_closed_form_above_dim_9(rng, n):
    # dim 2n+1 = 11, 13: dz + lambda_std on R^(2n+1) has margin 1, and
    # lambda_std restricted to the unit sphere S^(2n+1) has margin 1/2.
    alpha = dz_plus(lambda_std(n))
    for _ in range(3):
        p = alpha.chart.point(rng.uniform(-1, 1, 2 * n + 1))
        assert contact_margin(alpha, p) == pytest.approx(1.0, abs=1e-8)
    sph = with_constraints(darboux_chart(n + 1),
                           [unit_norm_constraint(range(2 * n + 2))], "S")
    lam = restrict_form(lambda_std(n + 1), sph)
    for _ in range(3):
        x = rng.normal(size=2 * n + 2)
        assert contact_margin(lam, sph.point(x / np.linalg.norm(x))) == \
            pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("n", [1, 2])
def test_contact_condition_dz_plus_lambda_std(rng, n):
    alpha = dz_plus(lambda_std(n))
    pts = [alpha.chart.point(rng.uniform(-1, 1, 2 * n + 1)) for _ in range(10)]
    rep = check_contact_condition(alpha, pts)
    assert rep.passed and rep.margin > 0.5


def test_orientation_flip_negates_margin(rng):
    alpha = dz_plus(lambda_std(2))
    p = alpha.chart.point(rng.uniform(-1, 1, 5))
    m = contact_margin(alpha, p)
    flipped = alpha.chart._replace(orientation=-alpha.chart.orientation)
    assert contact_margin(alpha, flipped.point(p.coords)) == pytest.approx(-m)


def test_contact_condition_empty_samples():
    alpha = dz_plus(lambda_std(1))
    with pytest.raises(DomainError):
        check_contact_condition(alpha, [])


def test_lambda_std_restricted_to_sphere_is_contact(rng):
    n = 2
    sph = with_constraints(darboux_chart(n), [unit_norm_constraint(range(2 * n))],
                           "S3_xy")
    lam = restrict_form(lambda_std(n), sph)
    pts = []
    for _ in range(10):
        x = rng.normal(size=2 * n)
        pts.append(sph.point(x / np.linalg.norm(x)))
    rep = check_contact_condition(lam, pts)
    assert rep.passed and rep.margin > 0


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2)])
def test_weinstein_convex_boundary_is_contact(rng, n, k):
    # Convex boundary piece of the handle: sphere in the expanding
    # coordinates (all x plus y_{k+1}..y_n), disk in y_1..y_k.
    exp_idx = list(range(n)) + list(range(n + k, 2 * n))
    chb = with_constraints(darboux_chart(n),
                           [unit_norm_constraint(exp_idx)], f"bdW{n}{k}")
    w = restrict_form(weinstein(n, k), chb)
    pts = []
    for _ in range(10):
        c = np.zeros(2 * n)
        c[n:n + k] = rng.uniform(-0.9, 0.9, k)
        s = rng.normal(size=len(exp_idx))
        c[exp_idx] = s / np.linalg.norm(s)
        pts.append(chb.point(c))
    rep = check_contact_condition(w, pts)
    assert rep.passed and rep.margin > 0


def test_theta_invariant_family_volume_independent_of_p():
    # The perturbed collar family: on the rounded-corner piece the form is
    # e^(-theta) (-z0 dtheta + (1-p) z0' ds + t0 dw); its volume coefficient
    # must not depend on p.
    rc = rounding_curve(0.3)
    ch = Chart("theta_s_w", ("theta", "s", "w"))

    def family(p):
        def ev(c):
            th, s = c[..., 0], c[..., 1]
            h = 1e-6
            z0p = (rc.z_of(s + h) - rc.z_of(s - h)) / (2 * h)
            e = np.exp(-th)
            return np.stack([-rc.z_of(s) * e, (1.0 - p) * z0p * e,
                             rc.t_of(s) * e], axis=-1)
        return OneFormField(f"alpha_{p}", ch, ev)

    pts = [(0.1, 0.3, 0.5), (-0.2, -0.6, 1.0), (0.0, 0.8, -0.4)]
    margins = np.array([[contact_margin(family(p), ch.point(list(q)))
                         for q in pts] for p in (0.0, 0.5, 1.0)])
    assert np.max(np.abs(margins - margins[0])) < 1e-8


def test_contact_dilation_collar(rng):
    alpha = dz_plus(lambda_std(1))

    def v(x):
        out = np.empty_like(x)
        out[..., 0] = x[..., 0]
        out[..., 1:] = 0.5 * x[..., 1:]
        return out

    pts = [alpha.chart.point(rng.uniform(-1, 1, 3)) for _ in range(5)]
    assert check_contact_dilation(v, alpha, pts).passed


def test_contact_dilation_symplectization(rng):
    from contactcalc.forms import symplectization
    sa = symplectization(dz_plus(lambda_std(1)))

    def t_dt(x):
        out = np.zeros_like(x)
        out[..., 0] = x[..., 0]
        return out

    pts = [sa.chart.point(np.concatenate([[rng.uniform(0.5, 2.0)],
                                          rng.uniform(-1, 1, 3)]))
           for _ in range(5)]
    assert check_contact_dilation(t_dt, sa, pts).passed


def test_two_form_dilation_handle(rng):
    # omega = dtheta^dz + dx^dy, the d of the handle form, with dilation
    # Z = -theta d_theta + 2z d_z + (radial/2 on the beta block): checked as
    # L_Z lambda = lambda on the primitive, which implies L_Z omega = omega
    # because L_Z commutes with d
    from contactcalc.forms import handle_form
    primitive = handle_form(lambda_std(1))

    def z_field(x):
        out = np.empty_like(x)
        out[..., 0] = -x[..., 0]
        out[..., 1] = 2.0 * x[..., 1]
        out[..., 2:] = 0.5 * x[..., 2:]
        return out

    ch = primitive.chart
    pts = [ch.point(rng.uniform(-1, 1, 4)) for _ in range(5)]
    assert check_contact_dilation(z_field, primitive, pts).passed


def _radial_dilation_case(rng):
    lam = lambda_std(2)
    pts = [lam.chart.point(rng.uniform(-1, 1, 4)) for _ in range(3)]
    return lam, pts


def test_dilation_nan_residual_fails(rng):
    # The field is NaN near the second sample point only; the worst residual
    # must be NaN (not the first point's finite residual) and the check FAIL,
    # whether the points come as a list or as one batch.
    lam, pts = _radial_dilation_case(rng)

    def v(x):
        near = np.max(np.abs(x - pts[1].coords), axis=-1, keepdims=True) < 1e-2
        return np.where(near, np.nan, 0.5 * x)

    for points in (pts, stack_points(pts)):
        assert check_contact_dilation(lambda x: 0.5 * x, lam, points).passed
        rep = check_contact_dilation(v, lam, points)
        assert not rep.passed
        assert math.isnan(rep.margin)
