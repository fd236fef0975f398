"""Golden reports: stdout and exit status of ``cli.main`` at seed 0.

Each ``tests/golden/<name>.out`` holds one ``exit <status>`` line followed by
the command's stdout, byte for byte.  A change that moves a byte here changes
the CLI's behavioural contract and must say why.
"""

import pathlib

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
