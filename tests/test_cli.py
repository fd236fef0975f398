import json
import os
import pathlib
import subprocess
import sys

import pytest

from contactcalc import scenario
from contactcalc.cli import main
from contactcalc.kirby import serialize_diagram
from contactcalc.reports import MAX_SAMPLES, MAX_TWIST_N, SUITES, ReportLine

DEMO = pathlib.Path(__file__).parent.parent / "demos" / "branched_cover_l21.scn"
SRC = pathlib.Path(__file__).parent.parent / "src"


def test_verify_forms_exit_zero(capsys):
    assert main(["verify", "forms", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "contact_margin_dz_plus_lambda_std" in out
    assert "FAIL" not in out


def test_verify_twist_exit_zero(capsys):
    assert main(["verify", "twist", "--n", "1", "--samples", "5"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_compose(capsys):
    assert main(["compose", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "combined\t5" in out
    assert "zero_section^-5" in out


def test_surgery_descriptor(capsys):
    assert main(["surgery", "--n", "1", "--k", "-1"]) == 0
    out = capsys.readouterr().out
    assert '"zero_section"' in out and '"dim": 3' in out


def test_cover_descriptor(capsys):
    assert main(["cover", "--n", "1", "--q", "2"]) == 0
    assert '"dim": 3' in capsys.readouterr().out


def test_fibered(capsys):
    assert main(["fibered", "--n", "1"]) == 0
    assert "bd(D*S1 x D*S1)" in capsys.readouterr().out


def test_kirby_modes(capsys):
    assert main(["kirby", "surgery", "--k", "-1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("KIRBY 1")
    assert main(["kirby", "cover", "--q", "3"]) == 0
    assert capsys.readouterr().out.count("curve:") == 8


@pytest.mark.parametrize("argv,golden", [
    (["kirby", "cover"], "kirby_cover_q2"),
    (["kirby", "--q", "2", "cover"], "kirby_cover_q2"),
    (["kirby", "surgery"], "kirby_surgery_k-1"),
    (["kirby", "--k", "-1", "surgery"], "kirby_surgery_k-1"),
])
def test_kirby_mode_defaults_and_flag_order(argv, golden, capsys):
    # --q defaults to 2 and --k to -1; a mode's own flag may come before it.
    assert main(argv) == 0
    expected = (pathlib.Path(__file__).parent / "golden" / f"{golden}.out").read_text()
    assert "exit 0\n" + capsys.readouterr().out == expected


def test_out_flag(tmp_path):
    path = tmp_path / "report.txt"
    assert main(["verify", "forms", "--samples", "5", "--out", str(path)]) == 0
    assert "PASS" in path.read_text()


def test_run_demo_scenario(capsys):
    assert main(["run", str(DEMO)]) == 0
    out = capsys.readouterr().out
    assert "verify:equal:chained:sixfold\tequal\t-\tPASS" in out
    assert "kirby:dotted\t1\t-\tOK" in out


def test_run_corrupted_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("page p dim=2 handles=[0:1] stein=true\nsum ghost ghost2 -> m\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "E_UNDECLARED" in err


def test_surgery_error_exit(capsys):
    assert main(["surgery", "--n", "1", "--k", "0"]) == 2
    assert "error" in capsys.readouterr().err


def _one_error_line(err: str):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "forms", "--tol", "1e-30", "--samples", "5"],
    ["run", "SCENARIO", "--tol", "1e-30"],
])
def test_tol_reaches_verify_forms(argv, tmp_path, capsys):
    scn = tmp_path / "forms.scn"
    scn.write_text("verify forms samples=5\n")
    argv = [str(scn) if a == "SCENARIO" else a for a in argv]
    assert main(argv) == 1
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    liouville = rows[0]
    assert liouville[0] == "liouville_lambda_std_vs_radial/2"
    assert liouville[2:] == ["1.0e-30", "FAIL"]


@pytest.mark.parametrize("argv", [
    ["verify", "twist", "--n", "0"],
    ["verify", "twist", "--n", "-1"],
    # the sphere-dimension cap: memory is cubic in n
    ["verify", "twist", "--n", "8"],
    ["verify", "forms", "--samples", "0"],
    ["verify", "forms", "--samples", "-1"],
    ["verify", "twist", "--samples", "0"],
    ["verify", "twist", "--samples", "-1"],
    ["verify", "forms", "--seed", "-1"],
    ["verify", "forms", "--n", "7"],
    ["verify", "forms", "--tol", "nan"],
    ["verify", "twist", "--tol", "-1"],
    # run checks --seed, --tol and --samples even when no line runs a suite
    ["run", str(DEMO), "--tol", "nan"],
    ["run", str(DEMO), "--tol", "-1"],
    ["run", str(DEMO), "--seed", "-1"],
    ["run", str(DEMO), "--samples", "0"],
    # the sample cap, checked before any point is drawn
    ["verify", "forms", "--samples", "10001"],
    ["verify", "twist", "--samples", "10001"],
    ["run", str(DEMO), "--samples", "10001"],
    # kirby refuses the other mode's flags, in either order
    ["kirby", "cover", "--q", "2", "--k", "5"],
    ["kirby", "--k", "5", "cover"],
    ["kirby", "surgery", "--k", "2", "--q", "9", "--base", "foo"],
    ["kirby", "surgery", "--q", "3"],
    ["kirby", "--base", "foo", "surgery"],
    # a base text the Kirby format cannot carry
    ["kirby", "cover", "--base", "DOTTED"],
    ["kirby", "cover", "--base", "two\nlines"],
    # a surgery parameter that is empty or holds a blank, '@' or '^'
    ["surgery", "--n", "2", "--k", "1", "--param", ""],
    ["surgery", "--n", "1", "--k", "1", "--param", ""],
    ["surgery", "--n", "2", "--k", "1", "--param", "a b"],
    ["surgery", "--n", "2", "--k", "1", "--param", "x@y"],
    ["surgery", "--n", "2", "--k", "1", "--param", "x^2"],
])
def test_bad_counts_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err)


@pytest.mark.parametrize("argv,message", [
    (["verify", "forms", "--n", "3"], "verify forms takes no --n"),
    (["kirby", "cover", "--k", "5"], "kirby cover takes no --k"),
    (["kirby", "surgery", "--q", "3"], "kirby surgery takes no --q or --base"),
    (["kirby", "--base", "foo", "surgery"], "kirby surgery takes no --q or --base"),
])
def test_other_mode_flags_are_refused(argv, message, capsys):
    # A flag that only another mode of the statement reads is refused, and
    # the message names every such flag of the chosen mode.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def stub_report(seed, tol, samples, m=4):
    """A suite with one key of its own, ``m``, that echoes its arguments."""
    return [ReportLine(f"stub_m{m}_samples{samples}", float(seed), 1.0, tol is None)]


def stub_n_report(seed, tol, samples, n=5):
    """A suite that takes ``n``, as ``twist`` does."""
    return [ReportLine(f"stub_n{n}", float(seed), 1.0, True)]


def test_a_suite_is_one_table_entry(monkeypatch, capsys):
    # The table entry alone makes the suite a CLI choice, a scenario
    # statement with its own keys, and a mode whose foreign flags are refused.
    monkeypatch.setitem(SUITES, "stub", (__name__, "stub_report", ("m",)))
    monkeypatch.setitem(SUITES, "stub_n", (__name__, "stub_n_report", ("n",)))
    assert main(["verify", "stub_n", "--n", "3"]) == 0
    assert capsys.readouterr().out == "stub_n3\t0.000000e+00\t1.0e+00\tPASS\n"
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert ("--n N sphere dimension (default: the suite's own), for twist, stub_n "
            in " ".join(capsys.readouterr().out.split()))
    assert main(["verify", "stub", "--samples", "3", "--seed", "2"]) == 0
    assert capsys.readouterr().out == "stub_m4_samples3\t2.000000e+00\t1.0e+00\tPASS\n"
    report, status, _ = scenario.run_scenario(
        scenario.parse_scenario("verify stub m=7\nverify stub samples=2\n"), samples=5)
    assert (report, status) == ("stub_m7_samples5\t0.000000e+00\t1.0e+00\tPASS\n"
                                "stub_m4_samples2\t0.000000e+00\t1.0e+00\tPASS\n", 0)
    with pytest.raises(scenario.ScenarioError) as exc:
        scenario.parse_scenario("verify stub n=3\n")
    assert (exc.value.code, str(exc.value)) == (
        scenario.E_ARITY, "line 1, col 13: [E_ARITY] unknown key 'n' for verify stub")
    assert main(["verify", "stub", "--n", "2"]) == 2
    assert capsys.readouterr() == ("", "error: verify stub takes no --n\n")


def test_run_rejects_nan_tol(tmp_path, capsys):
    scn = tmp_path / "forms.scn"
    scn.write_text("verify forms samples=5\n")
    assert main(["run", str(scn), "--tol", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err)


def test_infinite_tol_is_legal(capsys):
    assert main(["verify", "forms", "--samples", "3", "--tol", "inf"]) == 0
    assert "\tinf\tPASS" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["missing_scenario", "out_dir_missing",
                                  "kirby_out_dir_missing", "binary_scenario"])
def test_file_errors_exit_2(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kirby.scn").write_text("kirby surgery k=-1 out=nodir/d.kirby\n")
    (tmp_path / "binary.scn").write_bytes(b"\xff\xfe\x00page")
    argv = {"missing_scenario": ["run", str(tmp_path / "missing.scn")],
            "out_dir_missing": ["compose", "2", "--out", str(tmp_path / "nodir" / "x")],
            "kirby_out_dir_missing": ["run", "kirby.scn"],
            "binary_scenario": ["run", "binary.scn"]}[case]
    assert main(argv) == 2
    _one_error_line(capsys.readouterr().err)


def test_verify_twist_defaults_to_n2(capsys):
    assert main(["verify", "twist", "--samples", "5"]) == 0
    assert "isotopy_phi1_vs_tau_squared_n2\t" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--seed", "--tol", "--samples"])
@pytest.mark.parametrize("argv", [["compose", "2"], ["surgery", "--k", "-1"],
                                  ["cover", "--q", "2"], ["fibered"],
                                  ["kirby", "surgery"]])
def test_suite_options_only_on_verify_and_run(argv, flag, capsys):
    # These subcommands run no verify suite, so a value would be ignored.
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_runs_without_scipy(cli_child):
    res = cli_child(["verify", "twist", "--n", "6", "--samples", "5"],
                    blocked=["scipy"])
    assert res.status == 0
    assert "scipy" not in res.packages
    assert "FAIL" not in res.stdout


def test_verify_loads_numpy(cli_child):
    # The numerical suites need numpy; only the symbolic commands go without.
    res = cli_child(["verify", "forms", "--samples", "3"])
    assert res.status == 0
    assert "numpy" in res.packages


def _capped_run(argv, cap_mib):
    """Run ``main(argv)`` with one BLAS thread in a child whose address space
    is capped at ``cap_mib`` MiB."""
    pytest.importorskip("resource")
    cap = cap_mib << 20
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "from contactcalc.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=120)


def _largest_twist_input(cap_mib):
    """The largest accepted ``verify twist`` input (n = 7, 10 000 samples)
    under an address-space cap of ``cap_mib`` MiB."""
    return _capped_run(["verify", "twist", "--n", str(MAX_TWIST_N),
                        "--samples", str(MAX_SAMPLES)], cap_mib)


def test_largest_twist_input_fits_in_768_mib():
    # Its peak is about 285 MB.
    res = _largest_twist_input(768)
    assert res.returncode == 0, res.stderr.decode()
    lines = res.stdout.decode().splitlines()
    assert lines and all(line.endswith("\tPASS") for line in lines), lines


def test_out_of_memory_is_one_error_line():
    # 200 MiB of address space holds the interpreter and numpy but not the
    # largest input's arrays: the run is refused with exit 2, not a traceback.
    res = _largest_twist_input(200)
    err = res.stderr.decode()
    assert res.returncode == 2, err
    assert res.stdout == b""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), lines


@pytest.mark.parametrize("exc,err", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("cannot allocate"), "error: out of memory: cannot allocate\n"),
], ids=["no_reason", "reason"])
def test_out_of_memory_message(monkeypatch, capsys, exc, err):
    def execute(*args):
        raise exc

    monkeypatch.setattr(scenario, "execute", execute)
    assert main(["cover", "--n", "1", "--q", "2"]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv,text", [
    (["fibered", "--n", "2", "--phi", "1", "--psi", "-2"],
     "page D*S2 dim=4 handles=[0:1,2:1] stein=true spheres=[zero_section]\n"
     "word phi = zero_section\nword psi = zero_section^-2\nfibered D*S2 phi psi -> m\n"),
    (["kirby", "cover", "--q", "3", "--base", "L"],
     "page genus1 dim=2 handles=[0:1,1:2] stein=true spheres=[a,b]\n"
     "kirby cover genus1 q=3 base=L\n"),
    (["kirby", "surgery"], "kirby surgery k=-1\n"),
], ids=["fibered", "kirby_cover", "kirby_surgery"])
def test_the_cli_runs_the_record_a_scenario_parses(monkeypatch, capsys, argv, text):
    # The record the CLI hands to ``execute`` equals the parsed record of
    # the equivalent statement, and the two print the same result.
    seen, real = [], scenario.execute

    def execute(cmd, env, *args):
        seen.append(cmd)
        return real(cmd, env, *args)

    monkeypatch.setattr(scenario, "execute", execute)
    assert main(argv) == 0
    cli_out = capsys.readouterr().out
    [(_, parsed)] = scenario.parse_scenario(text).commands
    assert seen == [parsed]
    res = real(parsed, {})
    assert cli_out == (res.serialize() if argv[0] == "fibered" else serialize_diagram(res))


def test_huge_cover_degree_fits_in_256_mib():
    # The q-fold cover's monodromy is w^q, one letter here: the power is
    # built in O(|w| + |w^q|), not as a q-letter concatenation.
    res = _capped_run(["cover", "--n", "1", "--q", "1000000000"], 256)
    assert res.returncode == 0, res.stderr.decode()
    word = json.loads(res.stdout)["presentation"]["word"]
    assert word == [["zero_section", 1000000000]]
