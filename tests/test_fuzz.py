"""Fuzzing the CLI and the scenario DSL: every input ends in exit status 0, 1
or 2 (argparse's own usage errors included), never in another exception, and
status 1 comes with a FAIL line in the report."""

import contextlib
import io
import pathlib

from hypothesis import HealthCheck, given, settings, strategies as st

from contactcalc.cli import main
from contactcalc.reports import SUITES

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# Counts stay small so each example runs in milliseconds; most values are
# well formed so that most examples get past the parsers.
INT = st.sampled_from(["1", "2", "3", "1", "2", "0", "-1"])
VALUE = st.one_of(INT, INT, INT, st.sampled_from(["x", "", "0.5", "a"]))
TOL = st.sampled_from(["1e-30", "1e-5", "1", "x"])
OUT = st.one_of(*[st.text("abxyz_019", min_size=1, max_size=6)] * 3, st.just("nodir/x"))

# Subcommand -> its own optional flags besides --out; the required --k and --q
# are always given.
SUITE = ["--seed", "--tol", "--samples"]
FLAGS = {"verify": ["--n", *SUITE], "run": SUITE, "kirby": ["--q", "--k", "--base"],
         "surgery": ["--n", "--param"], "cover": ["--n", "--power"],
         "fibered": ["--n", "--phi", "--psi"], "compose": [], "bogus": []}
REQUIRED = {"surgery": "--k", "cover": "--q"}
# Every suite of the table is fuzzed, with each key it takes.
MODES = {"verify": [*SUITES, "equal"], "kirby": ["cover", "surgery", "x"]}

DECLS = ("page pg dim=2 handles=[0:1,1:2] stein=true spheres=[a,b]\n"
         "word w = a b^-2\n"
         "openbook ob = (pg, w)\n")
MANIFOLD = st.sampled_from(["ob", "ob", "ob", "ob", "m", "t", "ghost"])
TARGET = st.sampled_from(["m", "t", "u"])
GOOD = ["sum ob ob -> {t}", "surgery {m} sphere={s} k={i} -> {t}",
        "cover {m} q={i} over=binding -> {t}", "fibered pg w w -> {t}",
        "kirby cover pg q={i} out={o}", "kirby surgery k={i}",
        "verify equal {m} {m2}",
        *(f"verify {name} " + "".join(f"{key}={{i}} " for key in keys) + "samples={i}"
          for name, (_, _, keys) in SUITES.items())]
JUNK = st.one_of(MANIFOLD, VALUE, st.sampled_from(
    ["->", "=", "(pg,", "w)", "pg", "w", "sum", "cover", "kirby", "verify", "page",
     "word", "openbook", "k=abc", "q=2", "n=1", "samples=1", "sphere=a", "out=nodir/x"]))


@st.composite
def statements(draw):
    """A well-formed statement with drawn values, or (one time in ten) a
    line of drawn tokens."""
    if draw(st.integers(0, 9)):
        return draw(st.sampled_from(GOOD)).format(
            t=draw(TARGET), m=draw(MANIFOLD), m2=draw(MANIFOLD),
            s=draw(st.sampled_from(["a", "b", "c"])), i=draw(INT), o=draw(OUT))
    return " ".join(draw(st.lists(JUNK, min_size=1, max_size=6)))


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(list(FLAGS)))
    argv = [cmd]
    if cmd in MODES:
        argv.append(draw(st.sampled_from(MODES[cmd])))
    if cmd == "compose":
        argv += draw(st.lists(VALUE, max_size=3))
    if cmd == "run":
        argv.append("s.scn")
    if cmd in REQUIRED:
        argv += [REQUIRED[cmd], draw(VALUE)]
    flags = FLAGS[cmd] + ["--out"]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
        argv += [flag, draw({"--out": OUT, "--tol": TOL}.get(flag, VALUE))]
    return argv


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit status and report of ``cli.main``; the report is what went to
    stdout, or to the --out file."""
    out_file = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_file is not None and out_file.is_file():
        out_file.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = main(argv)
        except SystemExit as exc:   # argparse usage errors
            status = exc.code
    assert "Traceback" not in stderr.getvalue()
    report = stdout.getvalue()
    if out_file is not None and out_file.is_file():
        report += out_file.read_text()
    return status, report


def _check(status: int, report: str):
    assert status in (0, 1, 2)
    assert (status == 1) == ("\tFAIL" in report)


@FUZZ
@given(argv=argvs(), body=st.lists(statements(), max_size=6))
def test_fuzz_cli_argv(argv, body, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.scn").write_text(DECLS + "\n".join(body) + "\n")
    _check(*_run(argv))


@FUZZ
@given(body=st.lists(statements(), min_size=1, max_size=5),
       decls=st.sampled_from([DECLS, DECLS, DECLS, ""]),
       tol=st.sampled_from([[], ["--tol", "1e-30"]]))
def test_fuzz_scenario_text(body, decls, tol, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.scn").write_text(decls + "\n".join(body) + "\n")
    _check(*_run(["run", "s.scn", *tol]))
