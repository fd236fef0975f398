import json
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

SRC = pathlib.Path(__file__).parent.parent / "src"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@dataclass(frozen=True)
class ChildRun:
    status: int
    stdout: str
    packages: frozenset  # top-level names of every module the child loaded


def _run_child(argv: list[str], blocked=()) -> ChildRun:
    """``cli.main(argv)`` in a fresh interpreter with each module named in
    ``blocked`` set to None in ``sys.modules``, so importing it raises
    ImportError."""
    code = ("import json, sys\n"
            f"for name in {list(blocked)!r}:\n"
            "    sys.modules[name] = None\n"
            "from contactcalc import cli\n"
            f"status = cli.main({list(argv)!r})\n"
            "sys.stdout.flush()\n"
            "loaded = {m.split('.')[0] for m, mod in sys.modules.items()\n"
            "          if mod is not None}\n"
            "print(json.dumps(sorted(loaded)), file=sys.stderr)\n"
            "sys.exit(status)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, timeout=120)
    err = res.stderr.decode()
    assert "Traceback" not in err, err
    return ChildRun(res.returncode, res.stdout.decode(),
                    frozenset(json.loads(err.splitlines()[-1])))


@pytest.fixture
def cli_child():
    """Runs the CLI in a child process with modules blocked; see _run_child."""
    return _run_child
