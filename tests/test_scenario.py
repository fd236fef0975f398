import pytest

from contactcalc.cli import main
from contactcalc.scenario import (E_ARITY, E_SYNTAX, E_UNDECLARED,
                                  ScenarioError, parse_scenario, run_scenario)

DECLS = """
page genus1 dim=2 handles=[0:1,1:2] stein=true spheres=[a,b]
word ta = a
word tb2 = b^2
word wid = a a^-1
openbook ob1 = (genus1, ta)
openbook ob2 = (genus1, tb2)
"""


def test_parse_declarations():
    s = parse_scenario(DECLS)
    assert s.pages["genus1"].half_dim == 1
    assert s.pages["genus1"].spheres == ("a", "b")
    assert str(s.words["ta"]) == "a"
    assert s.words["wid"].is_identity()
    assert s.openbooks["ob1"].page.name == "genus1"


def test_empty_scenario():
    report, status, files = run_scenario(parse_scenario(""))
    assert report == "" and status == 0 and files == []


def test_sum_and_verify_equal():
    text = DECLS + """
word tab = a b^2
openbook ob3 = (genus1, tab)
sum ob1 ob2 -> m
verify equal m ob3
"""
    s = parse_scenario(text)
    report, status, _ = run_scenario(s)
    assert status == 0
    assert "verify:equal:m:ob3\tequal\t-\tPASS" in report


def test_verify_equal_failure_sets_exit():
    text = DECLS + "sum ob1 ob2 -> m\nverify equal m ob1\n"
    report, status, _ = run_scenario(parse_scenario(text))
    assert status == 1
    assert "FAIL" in report


def test_surgery_and_cover_commands():
    text = DECLS + """
surgery ob1 sphere=a k=-2 -> m1
cover ob2 q=3 over=binding -> c3
"""
    report, status, _ = run_scenario(parse_scenario(text))
    assert status == 0
    assert "surgery:m1\ta^3\t-\tOK" in report
    assert "cover:c3\tb^6\t-\tOK" in report


def test_kirby_command_counts_and_out(tmp_path):
    text = DECLS + "kirby cover genus1 q=2\nkirby surgery k=-1 out=d.kirby\n"
    report, status, files = run_scenario(parse_scenario(text),
                                         out_dir=str(tmp_path))
    assert status == 0
    assert "kirby:dotted\t1\t-\tOK" in report
    assert "kirby:two_handles\t2\t-\tOK" in report
    assert len(files) == 1
    assert (tmp_path / "d.kirby").read_text().startswith("KIRBY 1")


def test_kirby_cover_rejects_non_surface_page(tmp_path, monkeypatch, capsys):
    text = ("page big dim=4 handles=[0:1,2:1] stein=true\n"
            "kirby cover big q=2 out=big.kirby\n")
    with pytest.raises(ScenarioError) as exc:
        run_scenario(parse_scenario(text), out_dir=str(tmp_path))
    assert (exc.value.code, exc.value.line, exc.value.col) == (E_SYNTAX, 2, 1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.scn").write_text(text)
    assert main(["run", "big.scn"]) == 2
    assert "surface page" in capsys.readouterr().err
    assert not (tmp_path / "big.kirby").exists()


def test_kirby_cover_empty_base_matches_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_scenario(parse_scenario(DECLS + "kirby cover genus1 q=2 base= out=s.kirby\n"))
    assert main(["kirby", "cover", "--q", "2", "--base", ""]) == 0
    cli_out = capsys.readouterr().out
    assert "BASE\nDOTTED\n" in cli_out
    assert (tmp_path / "s.kirby").read_text() == cli_out


def test_kirby_cover_quoted_base_matches_cli(tmp_path, monkeypatch, capsys):
    base = "L(2,1) as -2 surgery on unknot # the lens space"
    monkeypatch.chdir(tmp_path)
    run_scenario(parse_scenario(
        DECLS + f'kirby cover genus1 q=2 base="{base}" out=s.kirby  # comment\n'))
    assert main(["kirby", "cover", "--q", "2", "--base", base]) == 0
    cli_out = capsys.readouterr().out
    assert f"BASE\n{base}\nDOTTED\n" in cli_out
    assert (tmp_path / "s.kirby").read_bytes() == cli_out.encode()


@pytest.mark.parametrize("stmt,col", [
    ('kirby cover genus1 q=2 base="L(2,1) as', 29),
    ('kirby cover genus1 q=2 "base=L(2,1)"', 24),
    ('kirby cover genus1 q=2 base=L"(2,1)"', 24),
])
def test_bad_quotes_are_positioned_syntax_errors(stmt, col):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(DECLS + stmt + "\n")
    lineno = DECLS.count("\n") + 1
    assert (exc.value.code, exc.value.line, exc.value.col) == (E_SYNTAX, lineno, col)


def test_verify_forms_in_scenario():
    report, status, _ = run_scenario(parse_scenario("verify forms samples=5\n"))
    assert status == 0
    assert "contact_margin_dz_plus_lambda_std" in report


def test_fibered_command():
    text = DECLS + "fibered genus1 ta tb2 -> f\n"
    report, status, _ = run_scenario(parse_scenario(text))
    assert status == 0
    assert "fibered:f" in report


def _err(text):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    return exc.value


def test_error_unknown_statement_position():
    e = _err("   bogus stuff\n")
    assert e.code == E_SYNTAX and e.line == 1 and e.col == 4


def test_error_undeclared_page():
    e = _err("word w = a\nopenbook ob = (ghost, w)\n")
    assert e.code == E_UNDECLARED and e.line == 2


@pytest.mark.parametrize("letters,col", [
    ("a c^2", 12),       # the letter c^2
    ("a b b^-1 c", 19),  # c, not the cancelled b at col 12
    ("a a^-1 c", 17),    # c, the only letter left after reduction
], ids=["unreduced", "cancelled_pair_before", "only_c_left"])
def test_error_undeclared_sphere_label_at_letter(letters, col):
    e = _err("page p dim=2 handles=[0:1,1:1] stein=true spheres=[a]\n"
             f"word w = {letters}\n"
             "openbook ob = (p, w)\n")
    assert e.code == E_UNDECLARED
    assert e.line == 2 and e.col == col


def test_error_missing_required_key():
    e = _err(DECLS + "surgery ob1 k=1 -> m\n")
    assert e.code == E_ARITY  # missing sphere=


def test_error_bad_integer():
    e = _err("page p dim=two handles=[0:1] stein=true\n")
    assert e.code == E_SYNTAX


def test_error_arity_sum():
    e = _err(DECLS + "sum ob1 -> m\n")
    assert e.code == E_ARITY


def test_error_missing_arrow():
    e = _err(DECLS + "sum ob1 ob2\n")
    assert e.code == E_ARITY


@pytest.mark.parametrize("stmt,code,col", [
    ("sum ob1 ob2 x=1 -> m", E_ARITY, 13),            # sum takes no keys
    ("verify equal ob1 ob2 -> m", E_ARITY, 1),        # verify makes nothing
    ("surgery ob1 -> m", E_ARITY, 1),                 # no keys: points at head
    ("kirby", E_ARITY, 1),
    ("kirby bogus", E_SYNTAX, 7),
    ("verify bogus", E_SYNTAX, 8),
    ("verify forms n=3", E_ARITY, 14),                # forms has no n
    ("cover ob1 q=2 -> a b", E_SYNTAX, 15),
    ("cover ob1 q=2 q=3 -> m", E_ARITY, 15),
    ("fibered genus1 ta ghost -> f", E_UNDECLARED, 19),
])
def test_command_errors(stmt, code, col):
    e = _err(DECLS + stmt + "\n")
    assert (e.code, e.line, e.col) == (code, 8, col)


def test_bad_integer_fails_at_parse_before_any_write(tmp_path, monkeypatch, capsys):
    text = DECLS + ("kirby surgery k=-1 out=d.kirby\n"
                    "surgery ob1 sphere=a k=abc -> m\n")
    e = _err(text)
    assert (e.code, e.line, e.col) == (E_SYNTAX, 9, 22)  # the k=abc token
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.scn").write_text(text)
    assert main(["run", "bad.scn"]) == 2
    assert "line 9, col 22: [E_SYNTAX]" in capsys.readouterr().err
    assert not (tmp_path / "d.kirby").exists()


@pytest.mark.parametrize("stmt", [
    "surgery ob1 sphere=a k=0 -> m", "cover ob1 q=0 over=binding -> c",
    "cover ob1 q=2 over=bogus -> c", "verify twist n=0", "verify forms samples=0",
])
def test_failed_run_writes_no_file(tmp_path, monkeypatch, capsys, stmt):
    text = DECLS + "kirby cover genus1 q=2 out=w.kirby\n" + stmt + "\n"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fail.scn").write_text(text)
    assert main(["run", "fail.scn"]) == 2
    assert "line 9, col 1: [E_SYNTAX]" in capsys.readouterr().err
    assert not (tmp_path / "w.kirby").exists()


@pytest.mark.parametrize("stmt", ["verify twist n=0", "verify twist n=-1",
                                  "verify forms samples=0", "verify twist samples=-1",
                                  "verify forms samples=10001"])
def test_bad_counts_are_positioned(stmt):
    s = parse_scenario("\n" + stmt + "\n")
    with pytest.raises(ScenarioError) as exc:
        run_scenario(s)
    assert (exc.value.code, exc.value.line, exc.value.col) == (E_SYNTAX, 2, 1)


def test_sum_reads_declared_open_books():
    # A target reusing an open-book name does not change what `sum` reads.
    text = DECLS + "fibered genus1 ta tb2 -> ob1\nsum ob1 ob2 -> m\n"
    report, status, _ = run_scenario(parse_scenario(text))
    assert status == 0 and "sum:m\ta b^2\t-\tOK" in report


def test_targets_usable_downstream():
    text = DECLS + """
sum ob1 ob2 -> m
surgery m sphere=a k=1 -> m2
verify equal m2 m2
"""
    report, status, _ = run_scenario(parse_scenario(text))
    assert status == 0
