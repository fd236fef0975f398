"""Golden reports: stdout and exit status of ``cli.main`` at seed 0.

Each ``tests/golden/<name>.out`` holds one ``exit <status>`` line followed by
the command's stdout, byte for byte.  A change that moves a byte here changes
the CLI's behavioural contract and must say why.
"""

import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from contactcalc.cli import main

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "verify_forms": ["verify", "forms"],
    "verify_twist_n1": ["verify", "twist", "--n", "1"],
    "verify_twist_n2": ["verify", "twist", "--n", "2"],
    "verify_twist_n3": ["verify", "twist", "--n", "3"],
    "verify_twist_n6": ["verify", "twist", "--n", "6"],
    "verify_twist_n7": ["verify", "twist", "--n", "7"],
    "run_branched_cover_l21": ["run", str(ROOT / "demos" / "branched_cover_l21.scn")],
    "kirby_cover_q2": ["kirby", "cover", "--q", "2"],
    "kirby_surgery_k-1": ["kirby", "surgery", "--k", "-1"],
    "compose_2_3": ["compose", "2", "3"],
    "surgery_n2_k-1": ["surgery", "--n", "2", "--k", "-1"],
    "cover_n1_q6": ["cover", "--n", "1", "--q", "6"],
    "fibered_n1": ["fibered", "--n", "1"],
    "fibered_n2_phi1_psi-2": ["fibered", "--n", "2", "--phi", "1", "--psi", "-2"],
    "cover_n2_power2_q3": ["cover", "--n", "2", "--power", "2", "--q", "3"],
    "surgery_n1_k2_twisted": ["surgery", "--n", "1", "--k", "2", "--param", "twisted"],
    "kirby_cover_q3_base": ["kirby", "cover", "--q", "3", "--base", "L(2,1)"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, capsysbinary):
    status = main(CASES[name])
    got = f"exit {status}\n".encode() + capsysbinary.readouterr().out
    assert got == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items()
                                        if argv[0] != "verify"))
def test_symbolic_golden_without_numpy(name, cli_child):
    # The package imports and the symbolic commands print the same bytes
    # with numpy unimportable.
    res = cli_child(CASES[name], blocked=["numpy"])
    got = f"exit {res.status}\n{res.stdout}".encode()
    assert got == (GOLDEN / f"{name}.out").read_bytes()
    assert not any(p.startswith("numpy") for p in res.packages)


def _openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an x86 OpenBLAS built with DYNAMIC_ARCH, the
    build that picks its kernels at run time from OPENBLAS_CORETYPE."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no machine-readable config
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


OPENBLAS_GUARD = pytest.mark.skipif(
    not _openblas_dynamic_arch(),
    reason="numpy's BLAS is not an x86 OpenBLAS built with DYNAMIC_ARCH, so "
           "OPENBLAS_CORETYPE selects nothing")
CORETYPES = ["Prescott", "Sandybridge", "Haswell"]


def _run_under_coretype(name: str, coretype: str) -> subprocess.CompletedProcess:
    """The command of golden ``name`` in a child process whose OpenBLAS runs
    the ``coretype`` kernels; ``stdout`` is prefixed with its ``exit`` line,
    as in the golden."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "contactcalc.cli", *CASES[name]],
                         env=env, capture_output=True, timeout=120)
    res.stdout = f"exit {res.returncode}\n".encode() + res.stdout
    return res


@OPENBLAS_GUARD
@pytest.mark.parametrize("coretype", CORETYPES)
def test_verify_forms_golden_under_openblas_kernels(coretype):
    # The forms report does not depend on which OpenBLAS kernels run it.
    res = _run_under_coretype("verify_forms", coretype)
    assert res.stdout == (GOLDEN / "verify_forms.out").read_bytes(), res.stderr.decode()


@OPENBLAS_GUARD
@pytest.mark.parametrize("coretype", CORETYPES)
@pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
def test_verify_twist_golden_under_openblas_kernels(coretype, n):
    # Every twist line but one is kernel-independent.  The exception is
    # isotopy_phi1_vs_tau_squared (n = 2, 6 only): isotopy_phi exponentiates
    # through the LAPACK eigh in mixed_exp, whose last bits depend on the
    # kernel, so that line is left out of the comparison.
    res = _run_under_coretype(f"verify_twist_n{n}", coretype)
    moving = f"isotopy_phi1_vs_tau_squared_n{n}\t".encode()
    keep = lambda text: b"".join(line for line in text.splitlines(keepends=True)
                                 if not line.startswith(moving))
    want = (GOLDEN / f"verify_twist_n{n}.out").read_bytes()
    assert keep(res.stdout) == keep(want), res.stderr.decode()
