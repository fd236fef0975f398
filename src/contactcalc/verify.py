"""Canned verification suites shared by the CLI and the scenario runner.

Each suite returns a list of ReportLine records; rendered reports are
line-oriented ``metric<TAB>value<TAB>tolerance<TAB>PASS|FAIL`` and are
byte-stable for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conditions, fields, forms, twist
from .charts import ChartPoint
from .errors import DomainError


@dataclass(frozen=True)
class ReportLine:
    metric: str
    value: float
    tolerance: float
    passed: bool
    asserted: bool = True  # False: measurement only, always rendered PASS

    def render(self) -> str:
        status = "PASS" if (self.passed or not self.asserted) else "FAIL"
        tol = "inf" if not np.isfinite(self.tolerance) else f"{self.tolerance:.1e}"
        return f"{self.metric}\t{self.value:.6e}\t{tol}\t{status}"


def render_report(lines: list[ReportLine]) -> str:
    return "".join(line.render() + "\n" for line in lines)


def report_failed(lines: list[ReportLine]) -> bool:
    return any(line.asserted and not line.passed for line in lines)


def _line(metric: str, value: float, tol: float, asserted: bool = True) -> ReportLine:
    return ReportLine(metric, float(value), tol, float(value) <= tol, asserted)


def _random_points(rng: np.random.Generator, chart, samples: int,
                   scale: float = 1.0) -> list[ChartPoint]:
    return [chart.point(rng.uniform(-scale, scale, chart.dim))
            for _ in range(samples)]


def _check_counts(seed: int, samples: int, tol: float | None):
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if tol is not None and not tol >= 0.0:
        raise DomainError(f"tolerance must be a number >= 0, got {tol}")


def verify_forms(seed: int = 0, tol: float | None = None,
                 samples: int = 25) -> list[ReportLine]:
    """Model forms: Liouville/Reeb/Hamiltonian fields against closed forms,
    contact positivity, and the finite-difference exterior derivative.
    ``tol=None`` means 1e-8."""
    _check_counts(seed, samples, tol)
    if tol is None:
        tol = 1e-8
    rng = np.random.default_rng(seed)
    out = []
    n = 2

    lam = forms.lambda_std(n)
    pts = _random_points(rng, lam.chart, samples)
    dev = max(float(np.max(np.abs(fields.liouville_vector_field(lam, p)
                                  - 0.5 * p.coords))) for p in pts)
    out.append(_line("liouville_lambda_std_vs_radial/2", dev, tol))

    can = forms.lambda_can(n)
    pts_can = _random_points(rng, can.chart, samples)
    def can_oracle(p):
        v = np.zeros(2 * n)
        v[n:] = p.coords[n:]
        return v
    dev = max(float(np.max(np.abs(fields.liouville_vector_field(can, p)
                                  - can_oracle(p)))) for p in pts_can)
    out.append(_line("liouville_lambda_can_vs_p_dp", dev, tol))

    alpha = forms.dz_plus(lam)
    apts = _random_points(rng, alpha.chart, samples)
    ez = np.zeros(alpha.chart.dim)
    ez[0] = 1.0
    dev = max(float(np.max(np.abs(fields.reeb_vector_field(alpha, p) - ez)))
              for p in apts)
    out.append(_line("reeb_dz_plus_beta_vs_dz", dev, tol))

    k = 1
    fk = forms.weinstein_hamiltonian(n, k)
    def fk_oracle(p):
        v = np.zeros(2 * n)
        v[:k] = p.coords[:k]
        v[n:n + k] = -p.coords[n:n + k]
        return v
    dev = max(float(np.max(np.abs(
        fields.hamiltonian_vector_field(fk, lam, p) - fk_oracle(p)))) for p in pts)
    out.append(_line("hamiltonian_f_k_vs_closed_form", dev, tol))

    rep = conditions.check_contact_condition(alpha, apts)
    out.append(ReportLine("contact_margin_dz_plus_lambda_std", rep.margin,
                          0.0, rep.margin > 0.0))

    dstd = np.zeros((2 * n, 2 * n))
    for j in range(n):
        dstd[j, n + j] = 1.0
        dstd[n + j, j] = -1.0
    dev = max(float(np.max(np.abs(forms.exterior_derivative(lam, p).entries - dstd)))
              for p in pts)
    out.append(_line("d_lambda_std_vs_closed_form", dev, 1e-6))
    return out


def verify_twist(n: int = 2, seed: int = 0, tol: float | None = None,
                 samples: int = 50) -> list[ReportLine]:
    """Dehn-twist checks: pullback invariance, endpoint identities,
    two-path consistency, and the boundary-displacement probe.
    ``tol=None`` means 1e-5."""
    _check_counts(seed, samples, tol)
    if n < 1:
        raise DomainError(f"twist sphere dimension n must be >= 1, got {n}")
    if tol is None:
        tol = 1e-5
    rng = np.random.default_rng(seed)
    prof = twist.make_profile(0.4)
    out = []

    dev = max(twist.pullback_two_form(
        lambda q: twist.apply_twist(q, prof),
        twist.random_point(rng, n, 0.9)).max_deviation for _ in range(samples))
    out.append(_line(f"twist_pullback_minus_dlambda_can_n{n}", dev, tol))

    u = np.zeros(n + 1)
    u[0] = 1.0
    zero = twist.apply_twist(twist.CotangentPoint(u, np.zeros(n + 1)), prof)
    dev = float(np.max(np.abs(zero.u + u)) + np.max(np.abs(zero.v)))
    out.append(_line(f"twist_zero_section_antipodal_n{n}", dev, 0.0))

    dev = 0.0
    for _ in range(20):
        q = twist.random_point(rng, n, 1.0)
        q = twist.CotangentPoint(q.u, q.v / np.linalg.norm(q.v) * 0.95)
        dev = max(dev, float(np.max(np.abs(
            twist.apply_twist(q, prof).ambient() - q.ambient()))))
    out.append(_line(f"twist_identity_outside_eps_n{n}", dev, 1e-12))

    dev = 0.0
    for _ in range(samples):
        q = twist.random_point(rng, n, 0.9)
        dev = max(dev, float(np.max(np.abs(
            twist.apply_twist(q, prof).ambient()
            - twist.apply_twist_via_generator(q, prof).ambient()))))
    out.append(_line(f"twist_two_path_consistency_n{n}", dev, 1e-10))

    if n in (2, 6):
        dev = 0.0
        for _ in range(20):
            q = twist.random_point(rng, n, 0.9)
            dev = max(dev, float(np.max(np.abs(
                twist.isotopy_phi(1.0, q, prof).ambient()
                - twist.twist_square_direct(q, prof).ambient()))))
        out.append(_line(f"isotopy_phi1_vs_tau_squared_n{n}", dev, 1e-8))
        probe = twist.boundary_displacement_probe("phi", prof, n, 5, seed)
        out.append(ReportLine(f"boundary_displacement_probe_phi_n{n}",
                              probe.max_displacement, float("inf"),
                              True, asserted=False))
    return out
