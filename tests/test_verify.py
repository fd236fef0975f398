"""A NaN in any sample of a verify suite fails the line that used it.

Each case makes one kernel function return NaN on one call (the second
sample of its line, where Python's max or min would drop it) and checks that
the line prints FAIL."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from contactcalc import conditions, fields, forms, twist, verify

SAMPLES = 5


def _nan_like(value):
    """A stand-in for a kernel result with every number NaN; the suites read
    arrays and floats directly, a twisted point through ``ambient()``, a
    pullback through ``max_deviation`` and a 2-form through ``entries``."""
    if isinstance(value, np.ndarray):
        return np.full(value.shape, np.nan)
    if isinstance(value, float):
        return math.nan
    if isinstance(value, twist.CotangentPoint):
        shape = value.ambient().shape
        return SimpleNamespace(ambient=lambda: np.full(shape, np.nan))
    if isinstance(value, twist.PullbackResult):
        return SimpleNamespace(max_deviation=math.nan)
    return SimpleNamespace(entries=np.full(value.entries.shape, np.nan))


def _every(*args):
    return True


def _poison(monkeypatch, owner, name, nth, counts):
    """Make ``owner.name`` return NaN on the nth call for which ``counts``
    holds."""
    original = getattr(owner, name)
    seen = [0]

    def poisoned(*args, **kwargs):
        result = original(*args, **kwargs)
        if counts(*args):
            seen[0] += 1
            if seen[0] == nth:
                return _nan_like(result)
        return result

    monkeypatch.setattr(owner, name, poisoned)


def _is_outside_eps(q, prof):
    # Only the identity-outside-epsilon line twists points with |v| = 0.95.
    return abs(np.linalg.norm(q.v) - 0.95) < 1e-12


CASES = [
    ("forms", fields, "liouville_vector_field", 2, _every,
     "liouville_lambda_std_vs_radial/2"),
    ("forms", fields, "liouville_vector_field", SAMPLES + 2, _every,
     "liouville_lambda_can_vs_p_dp"),
    ("forms", fields, "reeb_vector_field", 2, _every, "reeb_dz_plus_beta_vs_dz"),
    ("forms", fields, "hamiltonian_vector_field", 2, _every,
     "hamiltonian_f_k_vs_closed_form"),
    ("forms", conditions, "contact_margin", 2, _every,
     "contact_margin_dz_plus_lambda_std"),
    ("forms", forms, "exterior_derivative", 2, _every, "d_lambda_std_vs_closed_form"),
    ("twist", twist, "pullback_two_form", 2, _every,
     "twist_pullback_minus_dlambda_can_n2"),
    ("twist", twist, "apply_twist", 2, _is_outside_eps,
     "twist_identity_outside_eps_n2"),
    ("twist", twist, "apply_twist_via_generator", 2, _every,
     "twist_two_path_consistency_n2"),
    ("twist", twist, "twist_square_direct", 2, _every,
     "isotopy_phi1_vs_tau_squared_n2"),
]


@pytest.mark.parametrize("suite,owner,name,nth,counts,metric", CASES,
                         ids=[case[-1] for case in CASES])
def test_nan_sample_fails_its_line(suite, owner, name, nth, counts, metric,
                                   monkeypatch):
    _poison(monkeypatch, owner, name, nth, counts)
    if suite == "forms":
        lines = verify.verify_forms(samples=SAMPLES)
    else:
        lines = verify.verify_twist(2, samples=SAMPLES)
    line = next(line for line in lines if line.metric == metric)
    assert math.isnan(line.value)
    assert line.render().endswith("\tFAIL")
    assert verify.report_failed(lines)
