"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``ACCEPT <nn> <name> PASS`` line on success (pytest
shows it with -s; the test name itself carries the same information in the
-v listing).  Tolerances are stated inline next to each assertion.
"""

import time

import numpy as np
import pytest

from contactcalc import conditions, twist
from contactcalc.charts import darboux_chart, unit_norm_constraint, \
    with_constraints
from contactcalc.cli import main
from contactcalc.cobordism import (euler_characteristic,
                                   gysin_sphere_bundle_homology, Handle,
                                   not_stein_certificate, sum_cobordism,
                                   twist_square_smoothly_trivial)
from contactcalc.errors import DomainError
from contactcalc.fields import (hamiltonian_vector_field,
                                liouville_vector_field, reeb_vector_field)
from contactcalc.forms import d_matrix, dz_plus, handle_form, lambda_std, \
    restrict_form, symplectization, theta_invariant, weinstein, \
    weinstein_hamiltonian
from contactcalc.kirby import branched_cover_diagram, parse_diagram, \
    serialize_diagram
from contactcalc.rounding import rounding_curve
from contactcalc.surgery import (FillabilityFlags, PageSpec, ZERO_SECTION,
                                 branched_cover, catalog_M_nk, contact_surgery,
                                 disk_cotangent_page, fillability_propagate)


def _report(num, name):
    print(f"ACCEPT {num:02d} {name} PASS")


def test_criterion_01_twist_symplectomorphism():
    rng = np.random.default_rng(0)
    start = time.time()
    for n in (1, 2, 3, 6):
        q = twist.random_points(rng, n, 0.9, 50)
        worst = twist.pullback_two_form(
            twist.apply_twist, q).max_deviation
        assert worst <= 1e-5, f"n={n}: pullback deviation {worst}"
    assert time.time() - start < 5.0
    _report(1, "twist_symplectomorphism")


def test_criterion_02_twist_endpoints():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 6):
        u = np.zeros(n + 1)
        u[0] = 1.0
        out = twist.apply_twist(twist.CotangentPoint(u, np.zeros(n + 1)))
        assert np.array_equal(out.u, -u) and not np.any(out.v)
        q = twist.random_points(rng, n, 1.0, 20)
        q = twist.CotangentPoint(
            q.u, q.v / np.linalg.norm(q.v, axis=-1, keepdims=True))
        assert np.max(np.abs(twist.apply_twist(q).coords
                             - q.coords)) <= 1e-12
    for n in (1, 2, 3, 6):
        q = twist.random_points(rng, n, 0.9, 50)
        a = twist.apply_twist(q).coords
        b = twist.apply_twist_via_generator(q).coords
        assert np.max(np.abs(a - b)) <= 1e-10
    _report(2, "twist_endpoints")


def test_criterion_03_square_isotopy(capsys):
    rng = np.random.default_rng(2)
    for n in (2, 6):
        q = twist.random_points(rng, n, 0.9, 100)
        assert np.max(np.abs(
            twist.isotopy_phi(1.0, q).coords
            - twist.twist_square_direct(q).coords)) <= 1e-8
        q = twist.random_points(rng, n, 0.9, 20)
        assert np.max(np.abs(twist.isotopy_psi(0.0, q).coords
                             - q.coords)) <= 1e-10
        assert np.max(np.abs(
            twist.isotopy_psi(1.0, q).coords
            - twist.isotopy_phi(0.0, q).coords)) <= 1e-10
        u = np.zeros(n + 1)
        u[0] = 1.0
        zs = twist.CotangentPoint(u, np.zeros(n + 1))
        for t in np.linspace(0.0, 1.0, 11):
            out = twist.isotopy_phi(float(t), zs)
            assert np.allclose(out.u, u) and not np.any(out.v)
        # Probe only: reported, never asserted.
        probe = twist.boundary_displacement_probe(n, seed=0)
        print(f"  probe phi n={n}: max boundary displacement "
              f"{probe.max_displacement:.3f} at t={probe.argmax_t:.2f} "
              f"(reported, not asserted)")
    _report(3, "square_isotopy")


def test_criterion_04_model_forms():
    rng = np.random.default_rng(3)
    n = 2
    lam = lambda_std(n)
    alpha = dz_plus(lam)
    f1 = weinstein_hamiltonian(n, 1)
    for _ in range(20):
        c = rng.uniform(-1.5, 1.5, 2 * n)
        p = lam.chart.point(c)
        assert np.max(np.abs(liouville_vector_field(lam, p) - 0.5 * c)) <= 1e-8
        expected = np.zeros(2 * n)
        expected[0], expected[n] = c[0], -c[n]
        assert np.max(np.abs(
            hamiltonian_vector_field(f1, lam, p) - expected)) <= 1e-8
        ac = np.concatenate([[rng.uniform(-1, 1)], c])
        ez = np.zeros(2 * n + 1)
        ez[0] = 1.0
        assert np.max(np.abs(
            reeb_vector_field(alpha, alpha.chart.point(ac)) - ez)) <= 1e-8
    for (nn, kk) in ((2, 1), (2, 2), (3, 2)):
        exp_idx = list(range(nn)) + list(range(nn + kk, 2 * nn))
        chb = with_constraints(darboux_chart(nn),
                               [unit_norm_constraint(exp_idx)], f"bdW{nn}{kk}")
        w = restrict_form(weinstein(nn, kk), chb)
        pts = []
        for _ in range(100):
            c = np.zeros(2 * nn)
            c[nn:nn + kk] = rng.uniform(-0.9, 0.9, kk)
            s = rng.normal(size=len(exp_idx))
            c[exp_idx] = s / np.linalg.norm(s)
            pts.append(chb.point(c))
        rep = conditions.check_contact_condition(w, pts)
        assert rep.passed and rep.margin > 0, f"(n,k)=({nn},{kk})"
    _report(4, "model_forms")


def test_criterion_05_rounding_curve():
    eps = 0.3
    rc = rounding_curve(eps)
    h = 1e-5
    # (1),(2): endpoints with flat z and unit-slope t, to 1e-8
    assert abs(float(rc.z_of(-1.0)) - eps) <= 1e-8
    assert abs(float(rc.z_of(1.0)) + eps) <= 1e-8
    assert abs(float(rc.t_of(-1.0)) - 0.5) <= 1e-8
    assert abs(float(rc.t_of(1.0)) - 0.5) <= 1e-8
    assert abs(float(rc.z_of(-1.0 + h) - rc.z_of(-1.0)) / h) <= 1e-8
    assert abs(float(rc.t_of(-1.0 + h) - rc.t_of(-1.0)) / h - 1.0) <= 1e-8
    assert abs(float(rc.z_of(1.0) - rc.z_of(1.0 - h)) / h) <= 1e-8
    assert abs(float(rc.t_of(1.0) - rc.t_of(1.0 - h)) / h + 1.0) <= 1e-8
    s = np.linspace(-1.0, 1.0, 1000)
    # (3): symmetry exact
    assert np.array_equal(rc.z_of(-s), -rc.z_of(s))
    assert np.array_equal(rc.t_of(-s), rc.t_of(s))
    # (4): z t' - t z' strictly positive
    si = s[1:-1]
    zp = (rc.z_of(si + h) - rc.z_of(si - h)) / (2 * h)
    tp = (rc.t_of(si + h) - rc.t_of(si - h)) / (2 * h)
    assert np.min(rc.z_of(si) * tp - rc.t_of(si) * zp) > 0
    _report(5, "rounding_curve")


def test_criterion_06_surgery_calculus():
    base = catalog_M_nk(2, 1)
    after = contact_surgery(contact_surgery(base, ZERO_SECTION, 2),
                            ZERO_SECTION, 3)
    direct = contact_surgery(base, ZERO_SECTION, 5)
    assert after.word_equals(direct)
    assert contact_surgery(catalog_M_nk(2, 1), ZERO_SECTION, -1).word_equals(
        catalog_M_nk(2, 2))
    m = catalog_M_nk(1, 1)
    q6 = branched_cover(m, "binding", 6)
    q23 = branched_cover(branched_cover(m, "binding", 2), "binding", 3)
    assert q23.word_equals(q6)
    _report(6, "surgery_calculus")


def test_criterion_07_monoid_flags():
    tri = (True, False, None)
    states = [FillabilityFlags(w, s, e, t)
              for w in tri for s in tri for e in tri for t in tri]
    for f1 in states:
        for f2 in states:
            for page_stein in (True, False):
                for dim, h2 in ((3, None), (5, True), (5, None)):
                    out = fillability_propagate(f1, f2, page_stein, dim, h2)
                    # monotone closure invariant
                    chain = (out.stein, out.exactly, out.symplectically,
                             out.weakly)
                    for lo, hi in zip(chain, chain[1:]):
                        assert not (lo is True and hi is not True)
                        assert not (hi is False and lo is not False)
                    # implication tables: a known-True output needs both
                    # inputs True at that level (or at a stronger one)
                    if out.exactly is True:
                        assert f1.exactly is True and f2.exactly is True
                    if out.symplectically is True:
                        assert f1.symplectically is True \
                            and f2.symplectically is True
                    if out.stein is True:
                        assert page_stein and f1.stein is True \
                            and f2.stein is True
                    if out.weakly is True:
                        assert f1.weakly is True and f2.weakly is True
                        # from the weak rule, or closed up from a stronger level
                        assert (dim == 3 or h2 is True
                                or (f1.symplectically is True
                                    and f2.symplectically is True))
                    # propagation alone never concludes non-fillability
                    for v in chain:
                        assert v is not False
    _report(7, "monoid_flags")


def test_criterion_08_cobordism_bookkeeping(capsys):
    handles = sum_cobordism(disk_cotangent_page(1))
    assert sorted(h.index for h in handles) == [1, 2]
    # disk base plus 2m handles of index n+1: chi differs from 1 for m != 0
    n = 2
    for m in range(1, 9):
        top = [Handle(2 * n + 2, n + 1) for _ in range(2 * m)]
        chi = euler_characteristic(1, top)
        assert chi != 1
        expected_signed = 1 + ((-1) ** (n + 1)) * 2 * m
        assert chi == expected_signed
    print("  chi(disk + 2m (n+1)-handles) = 1 + (-1)^(n+1) 2m; for n even "
          "this is 1 - 2m, for n odd 1 + 2m (sign recorded, inequality "
          "chi != 1 is what is asserted)")
    _report(8, "cobordism_bookkeeping")


def test_criterion_09_homology_tables():
    rp3 = gysin_sphere_bundle_homology(1)
    assert [(rp3.rank(d), rp3.torsion(d)) for d in range(4)] == \
        [(1, ()), (0, (2,)), (0, ()), (1, ())]
    assert gysin_sphere_bundle_homology(3).torsion(3) == (2,)
    s2s3 = gysin_sphere_bundle_homology(2)
    assert [s2s3.rank(d) for d in range(6)] == [1, 0, 1, 1, 0, 1]
    for n in range(1, 65):
        expected = (n % 2 == 0) and ((n + 1) in (1, 3, 7))
        assert twist_square_smoothly_trivial(n) == expected
    _report(9, "homology_tables")


def test_criterion_10_kirby_diagrams(tmp_path):
    page = PageSpec("genus1", 1, ((0, 1), (1, 2)), True, ("a", "b"))
    d2 = branched_cover_diagram(page, (), 2)
    assert len(d2.dotted) == 1 and len(d2.two_handles) == 2
    words = {tuple(l[1] for l in h.attaching_word) for h in d2.two_handles}
    assert words == {("a", "a"), ("b", "b")}
    signs = {h.id: [l[3] for l in h.attaching_word] for h in d2.two_handles}
    assert all(s == [1, -1] for s in signs.values())
    d3 = branched_cover_diagram(page, (), 3)
    assert len(d3.dotted) == 2 and len(d3.two_handles) == 4
    for d in (d2, d3):
        text = serialize_diagram(d)
        assert serialize_diagram(parse_diagram(text)) == text
        assert serialize_diagram(d) == text  # stable across calls
    _report(10, "kirby_diagrams")


def test_criterion_11_cli(tmp_path, capsys):
    import pathlib
    demo = pathlib.Path(__file__).parent.parent / "demos" / \
        "branched_cover_l21.scn"
    assert main(["run", str(demo)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    bad = tmp_path / "bad.scn"
    bad.write_text("page p dim=2 handles=[0:1] stein=true\n"
                   "cover ghost q=2 -> c\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "col" in err
    _report(11, "cli")


def test_criterion_12_connect_sum_local_model():
    # The local model of the Liouville connect sum (Weinstein 1991) over
    # beta = lambda_std(n): the handle form -theta dz - 2z dtheta + beta, its
    # Liouville field, the theta-invariant sheets -+eps dtheta + beta, and
    # the symplectization t alpha of alpha = dz + beta.
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        beta = lambda_std(n)
        handle = handle_form(beta)
        c = rng.uniform(-1.0, 1.0, (25, 2 * n + 2))
        theta, z, xy = c[:, :1], c[:, 1:2], c[:, 2:]
        # d(lambda) = dtheta^dz + sum dx_j^dy_j, to 1e-9 (round-off / 2e-5)
        omega = np.zeros((2 * n + 2, 2 * n + 2))
        omega[0, 1] = 1.0
        omega[2 + np.arange(n), 2 + n + np.arange(n)] = 1.0
        omega -= omega.T
        assert np.max(np.abs(d_matrix(handle, c) - omega)) <= 1e-9
        # Liouville field -theta d_theta + 2z d_z + (x, y)/2, to 1e-8
        want = np.concatenate([-theta, 2.0 * z, 0.5 * xy], axis=-1)
        got = liouville_vector_field(handle, handle.chart.point(c))
        assert np.max(np.abs(got - want)) <= 1e-8
        # ... which dilates the handle form: L_Z lambda = lambda
        z_field = lambda x: np.concatenate(
            [-x[..., :1], 2.0 * x[..., 1:2], 0.5 * x[..., 2:]], axis=-1)
        rep = conditions.check_contact_dilation(z_field, handle,
                                                handle.chart.point(c))
        assert rep.passed and rep.margin >= -1e-9
        # On the z = +-eps sheet the contact margin is -sheet * eps, to 1e-9
        for eps in (0.1, 0.5):
            for sheet in (1, -1):
                form = theta_invariant(beta, eps, sheet)
                margin = conditions.contact_margin(
                    form, form.chart.point(c[:, 1:]))
                assert np.max(np.abs(margin + sheet * eps)) <= 1e-9
        # t alpha is dilated by t d_t on t in [0.5, 2]
        sympl = symplectization(dz_plus(beta))
        tc = c.copy()
        tc[:, 0] = rng.uniform(0.5, 2.0, 25)
        t_dt = lambda x: np.concatenate(
            [x[..., :1], np.zeros_like(x[..., 1:])], axis=-1)
        rep = conditions.check_contact_dilation(t_dt, sympl,
                                                sympl.chart.point(tc))
        assert rep.passed and rep.margin >= -1e-9
    _report(12, "connect_sum_local_model")


def test_criterion_13_non_stein_sum():
    # The paper's non-Stein example: a Liouville sum along a piece T of
    # dimension 2n-1 that both embeddings carry to the same class gains a
    # degree-2n class, and no claim is made when the classes differ.
    for n in range(2, 9):
        rep = not_stein_certificate(2 * n - 1, True)
        assert rep.conclusive
        assert rep.degree == 2 * n and rep.rank_increase == 1
        assert not not_stein_certificate(2 * n - 1, False).conclusive
    for t_dim in (-1, 0, 1, 2, 4, 6):
        for equal in (True, False):
            with pytest.raises(DomainError):
                not_stein_certificate(t_dim, equal)
    _report(13, "non_stein_sum")
