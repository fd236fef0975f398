"""Report records shared by the numerical checks and their numpy-free callers.

``ConditionReport`` is the outcome of a sampled condition check (numerical in
``conditions``, combinatorial in ``cobordism``); ``ReportLine`` is one line of
a verify suite's report, and ``SUITES`` names the suites.  This module imports
no numpy, so the CLI and the scenario runner can look suites up, check their
arguments, and render and judge reports without loading the numerical kernel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError

# Sample count of the verify suites when no statement or caller sets one.
DEFAULT_SAMPLES = 25
# Largest sample count a suite accepts: each line evaluates its samples as
# one batch, so memory grows linearly with them (about 225 MB peak for
# `verify twist --n 6` at this cap).
MAX_SAMPLES = 10_000
# Largest sphere dimension `verify twist` accepts: the pullback line's peak
# memory grows like samples * (n+1)^3 (about 285 MB at n = 7 and the sample
# cap), and the paper needs n <= 6.
MAX_TWIST_N = 7
# Verify suite -> the module and function that run it as function(seed=, tol=,
# samples=, **keys), and the int keys it takes besides ``samples``.
SUITES = {"forms": ("contactcalc.verify", "verify_forms", ()),
          "twist": ("contactcalc.verify", "verify_twist", ("n",))}


class ConditionReport(NamedTuple):
    """Outcome of a sampled condition check.

    ``margin`` is the smallest signed quantity tested (positive is good);
    ``passed`` iff margin > -tolerance on every sample.
    """

    passed: bool
    margin: float
    tolerance: float
    samples: int

    def __str__(self):
        word = "PASS" if self.passed else "FAIL"
        return (f"{word} margin={self.margin:.6e} tol={self.tolerance:.1e} "
                f"samples={self.samples}")


class ReportLine(NamedTuple):
    metric: str
    value: float
    tolerance: float
    passed: bool
    asserted: bool = True  # False: measurement only, always rendered PASS

    def render(self) -> str:
        status = "PASS" if (self.passed or not self.asserted) else "FAIL"
        tol = "inf" if not math.isfinite(self.tolerance) else f"{self.tolerance:.1e}"
        return f"{self.metric}\t{self.value:.6e}\t{tol}\t{status}"


def render_report(lines: list[ReportLine]) -> str:
    return "".join(line.render() + "\n" for line in lines)


def report_failed(lines: list[ReportLine]) -> bool:
    return any(line.asserted and not line.passed for line in lines)


def check_suite_args(seed: int, samples: int, tol: float | None):
    """Reject a negative seed, a sample count below 1 or above
    ``MAX_SAMPLES``, or a tolerance that is NaN or negative; ``tol=None``
    stands for a suite's own tolerance."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    if tol is not None and not tol >= 0.0:
        raise DomainError(f"tolerance must be a number >= 0, got {tol}")
