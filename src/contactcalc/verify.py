"""Canned verification suites shared by the CLI and the scenario runner.

Each suite returns a list of ReportLine records; rendered reports are
line-oriented ``metric<TAB>value<TAB>tolerance<TAB>PASS|FAIL`` and are
byte-stable for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import conditions, fields, forms, twist
from .charts import ChartPoint, row_norm
from .errors import DomainError
# render_report and report_failed are re-exported for callers of this module.
from .reports import (DEFAULT_SAMPLES, MAX_TWIST_N, ReportLine,
                      check_suite_args, render_report, report_failed)


def _line(metric: str, value: float, tol: float) -> ReportLine:
    return ReportLine(metric, float(value), tol, float(value) <= tol)


def _worst(deviations) -> float:
    """The largest absolute entry of a batch of per-sample deviations.  A NaN
    anywhere makes it NaN, and so fails its line, where Python's ``max``
    would drop it."""
    return float(np.max(np.abs(deviations)))


def _random_points(rng: np.random.Generator, chart, samples: int) -> ChartPoint:
    """``samples`` points uniform in [-1, 1]^dim as one batch, drawn in the
    RNG order of one ``uniform(-1, 1, dim)`` call per point."""
    return chart.point(rng.uniform(-1.0, 1.0, (samples, chart.dim)))


def verify_forms(seed: int = 0, tol: float | None = None,
                 samples: int = DEFAULT_SAMPLES) -> list[ReportLine]:
    """Model forms: Liouville/Reeb/Hamiltonian fields against closed forms,
    contact positivity, and the finite-difference exterior derivative.
    Each line evaluates its samples as one batch.  ``tol=None`` means 1e-8."""
    check_suite_args(seed, samples, tol)
    if tol is None:
        tol = 1e-8
    rng = np.random.default_rng(seed)
    out = []
    n = 2

    lam = forms.lambda_std(n)
    pts = _random_points(rng, lam.chart, samples)
    dev = _worst(fields.liouville_vector_field(lam, pts) - 0.5 * pts.coords)
    out.append(_line("liouville_lambda_std_vs_radial/2", dev, tol))

    can = forms.lambda_can(n)
    pts_can = _random_points(rng, can.chart, samples)
    can_oracle = np.zeros_like(pts_can.coords)
    can_oracle[:, n:] = pts_can.coords[:, n:]
    dev = _worst(fields.liouville_vector_field(can, pts_can) - can_oracle)
    out.append(_line("liouville_lambda_can_vs_p_dp", dev, tol))

    alpha = forms.dz_plus(lam)
    apts = _random_points(rng, alpha.chart, samples)
    ez = np.eye(alpha.chart.dim)[0]
    dev = _worst(fields.reeb_vector_field(alpha, apts) - ez)
    out.append(_line("reeb_dz_plus_beta_vs_dz", dev, tol))

    k = 1
    fk = forms.weinstein_hamiltonian(n, k)
    fk_oracle = np.zeros_like(pts.coords)
    fk_oracle[:, :k] = pts.coords[:, :k]
    fk_oracle[:, n:n + k] = -pts.coords[:, n:n + k]
    dev = _worst(fields.hamiltonian_vector_field(fk, lam, pts) - fk_oracle)
    out.append(_line("hamiltonian_f_k_vs_closed_form", dev, tol))

    rep = conditions.check_contact_condition(alpha, apts)
    out.append(ReportLine("contact_margin_dz_plus_lambda_std", rep.margin,
                          0.0, rep.margin > 0.0))

    dstd = np.eye(2 * n, k=n) - np.eye(2 * n, k=-n)
    dev = _worst(forms.d_matrix(lam, pts.coords) - dstd)
    out.append(_line("d_lambda_std_vs_closed_form", dev, 1e-6))
    return out


def verify_twist(n: int = 2, seed: int = 0, tol: float | None = None,
                 samples: int = DEFAULT_SAMPLES) -> list[ReportLine]:
    """Dehn-twist checks: pullback invariance, endpoint identities,
    two-path consistency, and the boundary-displacement probe.  Each line
    draws its sample points as one batch (``twist.random_points``) and runs
    them through the twist maps as one batch.  ``tol=None`` means 1e-5."""
    check_suite_args(seed, samples, tol)
    if not 1 <= n <= MAX_TWIST_N:
        raise DomainError(f"twist sphere dimension n must be in 1..{MAX_TWIST_N}, got {n}")
    if tol is None:
        tol = 1e-5
    rng = np.random.default_rng(seed)
    out = []

    q = twist.random_points(rng, n, 0.9, samples)
    dev = twist.pullback_two_form(twist.apply_twist, q).max_deviation
    out.append(_line(f"twist_pullback_minus_dlambda_can_n{n}", dev, tol))

    u = np.eye(n + 1)[0]
    zero = twist.apply_twist(twist.CotangentPoint(u, np.zeros(n + 1)))
    dev = float(np.max(np.abs(zero.u + u)) + np.max(np.abs(zero.v)))
    out.append(_line(f"twist_zero_section_antipodal_n{n}", dev, 0.0))

    q = twist.random_points(rng, n, 1.0, 20)
    q = twist.CotangentPoint(q.u, q.v / row_norm(q.v)[:, None] * 0.95)
    dev = _worst(twist.apply_twist(q).coords - q.coords)
    out.append(_line(f"twist_identity_outside_eps_n{n}", dev, 1e-12))

    q = twist.random_points(rng, n, 0.9, samples)
    dev = _worst(twist.apply_twist(q).coords
                 - twist.apply_twist_via_generator(q).coords)
    out.append(_line(f"twist_two_path_consistency_n{n}", dev, 1e-10))

    if n in (2, 6):
        q = twist.random_points(rng, n, 0.9, 20)
        dev = _worst(twist.isotopy_phi(1.0, q).coords
                     - twist.twist_square_direct(q).coords)
        out.append(_line(f"isotopy_phi1_vs_tau_squared_n{n}", dev, 1e-8))
        probe = twist.boundary_displacement_probe(n, seed)
        out.append(ReportLine(f"boundary_displacement_probe_phi_n{n}",
                              probe.max_displacement, float("inf"),
                              True, asserted=False))
    return out
