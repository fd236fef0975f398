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
    "run_branched_cover_l21": ["run", str(ROOT / "demos" / "branched_cover_l21.scn")],
    "kirby_cover_q2": ["kirby", "cover", "--q", "2"],
    "kirby_surgery_k-1": ["kirby", "surgery", "--k", "-1"],
    "compose_2_3": ["compose", "2", "3"],
    "surgery_n2_k-1": ["surgery", "--n", "2", "--k", "-1"],
    "cover_n1_q6": ["cover", "--n", "1", "--q", "6"],
    "fibered_n1": ["fibered", "--n", "1"],
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


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="numpy's BLAS is not an x86 OpenBLAS built with "
                           "DYNAMIC_ARCH, so OPENBLAS_CORETYPE selects nothing")
@pytest.mark.parametrize("coretype", ["Prescott", "Sandybridge", "Haswell"])
def test_verify_forms_golden_under_openblas_kernels(coretype):
    # The forms report does not depend on which OpenBLAS kernels run it (the
    # twist reports still do, so they are not covered here).
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "contactcalc.cli", "verify", "forms"],
                         env=env, capture_output=True, timeout=120)
    got = f"exit {res.returncode}\n".encode() + res.stdout
    assert got == (GOLDEN / "verify_forms.out").read_bytes(), res.stderr.decode()
