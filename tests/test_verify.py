"""A NaN in any sample of a verify suite fails the line that used it.

Both suites evaluate each line's samples as one batched call, so each case
poisons the second sample row of the first batched result that its filter
accepts (``liouville_vector_field`` serves two forms lines, told apart by
chart).  The NaN is one that Python's max or min would drop, and the line
must print FAIL."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from contactcalc import conditions, fields, forms, twist, verify

SAMPLES = 5
ROW = 1  # the second sample row of a batched result


def _with_nan_row(array):
    out = np.array(array, dtype=float)
    out[ROW] = np.nan
    return out


def _nan_like(value):
    """A stand-in for a batched kernel result with NaN in sample row ``ROW``
    only.  The suites read arrays directly, twisted points through ``u``,
    ``v`` and ``coords``, and a pullback through ``max_deviation``.  A
    ``CotangentPoint`` refuses a NaN row, so a twisted point's stand-in is
    a plain namespace."""
    if isinstance(value, np.ndarray):
        return _with_nan_row(value)
    if isinstance(value, twist.CotangentPoint):
        u, v = _with_nan_row(value.u), _with_nan_row(value.v)
        return SimpleNamespace(u=u, v=v, coords=np.concatenate([u, v], axis=-1))
    assert isinstance(value, twist.PullbackResult), type(value)
    return twist.PullbackResult(value.frame, _with_nan_row(value.pulled),
                                value.reference)


def _every(*args):
    return True


def _poison(monkeypatch, owner, name, nth, counts):
    """Make ``owner.name`` return NaN in sample row ``ROW`` on the nth call
    for which ``counts`` holds."""
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


def _is_outside_eps(q):
    # Only the identity-outside-epsilon line twists points with |v| = 0.95.
    return bool(np.all(np.abs(np.linalg.norm(q.v, axis=-1) - 0.95) < 1e-12))


def _on_chart(name):
    """A filter for calls whose sample points (second argument) lie on the
    chart called ``name``."""
    return lambda form, p: p.chart.name == name


CASES = [
    ("forms", fields, "liouville_vector_field", 1, _on_chart("R4_xy"),
     "liouville_lambda_std_vs_radial/2"),
    ("forms", fields, "liouville_vector_field", 1, _on_chart("R4_qp"),
     "liouville_lambda_can_vs_p_dp"),
    ("forms", fields, "reeb_vector_field", 1, _every, "reeb_dz_plus_beta_vs_dz"),
    ("forms", fields, "hamiltonian_vector_field", 1, _every,
     "hamiltonian_f_k_vs_closed_form"),
    ("forms", conditions, "contact_margin", 1, _every,
     "contact_margin_dz_plus_lambda_std"),
    # fields binds d_matrix by name, so only the suite's own call counts.
    ("forms", forms, "d_matrix", 1, _every, "d_lambda_std_vs_closed_form"),
    ("twist", twist, "pullback_two_form", 1, _every,
     "twist_pullback_minus_dlambda_can_n2"),
    ("twist", twist, "apply_twist", 1, _is_outside_eps,
     "twist_identity_outside_eps_n2"),
    ("twist", twist, "apply_twist_via_generator", 1, _every,
     "twist_two_path_consistency_n2"),
    ("twist", twist, "twist_square_direct", 1, _every,
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


def _twist_calls(monkeypatch, n, samples):
    """How often ``verify_twist(n, samples=samples)`` calls the batched twist
    map and the pullback."""
    calls = {"apply_twist": 0, "pullback_two_form": 0}
    for name in calls:
        original = getattr(twist, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(twist, name, counted)
    verify.verify_twist(n, samples=samples)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("n", [2, 6])
def test_twist_suite_call_count_is_independent_of_samples(n, monkeypatch):
    # One batched call per line (and one for all differencing offsets inside
    # the pullback), however many samples: a per-point loop would scale with
    # them.
    calls = _twist_calls(monkeypatch, n, 5)
    assert calls == _twist_calls(monkeypatch, n, 50)
    assert calls == {"apply_twist": 4, "pullback_two_form": 1}
