import pytest

from contactcalc import kirby, scenario
from contactcalc.cli import main
from contactcalc.kirby import branched_cover_diagram, serialize_diagram
from contactcalc.scenario import (E_ARITY, E_SYNTAX, E_UNDECLARED, Fibered, Kirby,
                                  ScenarioError, Sum, Surgery, Token, parse_scenario,
                                  run_scenario)
from contactcalc.surgery import OpenBook, genus_one_page, word

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


def test_each_out_path_ends_with_its_last_statement(tmp_path):
    # ./a.kirby names the same file as a.kirby; the last statement wins.
    text = DECLS + ("kirby cover genus1 q=2 out=a.kirby\n"
                    "kirby cover genus1 q=3 out=./a.kirby\n"
                    "kirby cover genus1 q=4 out=a.kirby\n")
    s = parse_scenario(text)
    _, status, files = run_scenario(s, out_dir=str(tmp_path))
    assert status == 0
    assert files == [f"{tmp_path}/a.kirby", f"{tmp_path}/./a.kirby", f"{tmp_path}/a.kirby"]
    want = serialize_diagram(branched_cover_diagram(s.pages["genus1"], (), 4))
    assert (tmp_path / "a.kirby").read_text() == want


def test_repeated_out_path_is_opened_once(tmp_path, monkeypatch):
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(scenario, "open", recording_open, raising=False)
    text = DECLS + "kirby cover genus1 q=2 out=d.kirby\n" * 5
    _, _, files = run_scenario(parse_scenario(text), out_dir=str(tmp_path))
    assert len(files) == 5 and opened == [f"{tmp_path}/d.kirby"]


def test_each_out_path_is_serialized_once(tmp_path, monkeypatch):
    # A kirby out= statement keeps its diagram; each distinct path's last
    # diagram is serialized once, when its file is written.
    serialized = []

    def counted(d):
        serialized.append(d)
        return serialize_diagram(d)

    monkeypatch.setattr(kirby, "serialize_diagram", counted)
    text = DECLS + "".join(f"kirby cover genus1 q={q} out={name}.kirby\n"
                           for q, name in ((2, "a"), (3, "b"), (4, "a"), (5, "b"), (6, "a")))
    s = parse_scenario(text)
    _, _, files = run_scenario(s, out_dir=str(tmp_path))
    assert files == [f"{tmp_path}/{name}.kirby" for name in "ababa"]
    assert len(serialized) == 2
    for name, q in (("a", 6), ("b", 5)):
        want = serialize_diagram(branched_cover_diagram(s.pages["genus1"], (), q))
        assert (tmp_path / f"{name}.kirby").read_text() == want


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


@pytest.mark.parametrize("text", [
    "page g dim=2 handles=[0:1,1:1] stein=true spheres=[a:b]\nkirby cover g q=2 out=k.txt\n",
    "page g dim=2 handles=[0:1,1:1] stein=true spheres=[a]\n"
    "kirby cover g q=2 base=NOTES out=k.txt\n",
], ids=["colon_label", "header_base"])
def test_kirby_text_that_would_not_parse_back_is_positioned(tmp_path, monkeypatch,
                                                            capsys, text):
    with pytest.raises(ScenarioError) as exc:
        run_scenario(parse_scenario(text), out_dir=str(tmp_path))
    assert (exc.value.code, exc.value.line, exc.value.col) == (E_SYNTAX, 2, 1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.scn").write_text(text)
    assert main(["run", "k.scn"]) == 2
    assert "line 2, col 1: [E_SYNTAX]" in capsys.readouterr().err
    assert not (tmp_path / "k.txt").exists()


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


GLUED = """page p dim=2 handles=[0:1,1:1] stein=true spheres=[s]
word w = s
fibered p w w -> f
surgery f sphere={sphere} k=1 -> g
"""


def test_surgery_on_a_glued_manifold_reports_its_presentation():
    report, status, _ = run_scenario(parse_scenario(GLUED.format(sphere="s")))
    assert status == 0
    assert report == ("fibered:f\t('glued', 'fibered(p,s,s)')\t-\tOK\n"
                      "surgery:g\t('glued', 'surgery(s,1)')\t-\tOK\n")


def test_surgery_on_a_glued_manifold_refuses_a_sphere_not_on_its_page(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.scn").write_text(GLUED.format(sphere="zz")
                                    + "kirby cover p q=2 out=k.kirby\n")
    assert main(["run", "g.scn"]) == 2
    assert ("line 4, col 1: [E_SYNTAX] surgery failed: unknown sphere label 'zz'"
            in capsys.readouterr().err)
    assert not (tmp_path / "k.kirby").exists()


EXOTIC = """page p dim=4 handles=[0:1,2:1] stein=true spheres=[s]
word w = s
openbook ob = (p, w)
surgery ob sphere=s k=2 -> a
surgery ob sphere=s k=2 param=twisted -> b
verify equal a b
"""


def test_verify_equal_refuses_an_exotic_surgery(tmp_path, monkeypatch, capsys):
    # For n >= 2 the twisted parametrization may change the manifold, so the
    # surgery adds its own letter s@twisted: nothing certifies a = b.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.scn").write_text(EXOTIC)
    assert main(["run", "e.scn"]) == 1
    assert capsys.readouterr().out == ("surgery:a\ts^-1\t-\tOK\n"
                                       "surgery:b\ts s@twisted^-2\t-\tOK\n"
                                       "verify:equal:a:b\tdistinct\t-\tFAIL\n")


def test_verify_equal_certifies_a_declared_exotic_word(tmp_path, monkeypatch, capsys):
    # A word may name the letter an exotic surgery adds, so the surgery's
    # result equals the open book declared with it, and not ob itself.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.scn").write_text(
        "page p dim=4 handles=[0:1,2:1] stein=true spheres=[s]\n"
        "word w = s\nword v = s s@twisted^-2\n"
        "openbook ob = (p, w)\nopenbook c = (p, v)\n"
        "surgery ob sphere=s k=2 param=twisted -> b\n"
        "verify equal b c\nverify equal b ob\n")
    assert main(["run", "e.scn"]) == 1
    assert capsys.readouterr().out == ("surgery:b\ts s@twisted^-2\t-\tOK\n"
                                       "verify:equal:b:c\tequal\t-\tPASS\n"
                                       "verify:equal:b:ob\tdistinct\t-\tFAIL\n")


def test_a_sphere_label_holds_no_at():
    # Else the exotic twist s@p along s and the plain twist along a sphere
    # named s@p would be one letter, and verify equal would identify them.
    e = _err("page p dim=4 handles=[0:1,2:1] stein=true spheres=[s,s@p]\n"
             "word w = s\nopenbook ob = (p, w)\n"
             "surgery ob sphere=s k=1 param=p -> a\n")
    assert (e.code, e.line, e.col) == (E_SYNTAX, 1, 1)
    assert "sphere label 's@p' holds an '@'" in str(e)


@pytest.mark.parametrize("letter", ["s@", "s@a@b", "s@^2", "s@@p"])
def test_error_malformed_parametrized_letter(letter):
    e = _err("page p dim=4 handles=[0:1,2:1] stein=true spheres=[s]\n"
             f"word w = s {letter}\n")
    assert (e.code, e.line, e.col) == (E_SYNTAX, 2, 12)
    assert "bad word letter" in str(e)


@pytest.mark.parametrize("decls,stmt", [
    ("", "kirby surgery k=-1 out=d.kirby"),
    ("page g dim=2 handles=[0:1,1:1] stein=true spheres=[a]\n",
     "kirby cover g q=2 base=L out=d.kirby"),
])
def test_a_command_parses_to_one_record_wherever_it_stands(decls, stmt):
    at_1, at_6 = (parse_scenario(decls + "\n" * blank + stmt + "\n").commands
                  for blank in (0, 5 - decls.count("\n")))
    assert (at_1[0][0].line, at_6[0][0].line) == (1 + decls.count("\n"), 6)
    assert at_1[0][1] == at_6[0][1]


def test_commands_pair_each_record_with_its_first_token():
    text = DECLS + "sum ob1 ob2 -> m\n  verify equal m ob1\n"
    s = parse_scenario(text)
    lineno = DECLS.count("\n") + 1
    assert [head for head, _ in s.commands] == [Token("sum", lineno, 1),
                                               Token("verify", lineno + 1, 3)]
    assert all(type(head) is Token for head, _ in s.commands)


def test_a_parsed_surgery_equals_the_record_built_directly():
    s = parse_scenario(DECLS + "surgery ob1 sphere=a k=-2 param=twisted -> m1\n")
    assert s.commands[0][1] == Surgery("ob1", "a", -2, "m1", param="twisted")
    assert Surgery._fields == ("manifold", "sphere", "k", "target", "param")


def test_records_hold_the_declared_values():
    # A record holds the pages, words and open books its statement names,
    # and only the names of manifolds, which commands rebind.
    page = genus_one_page()
    ob1, ob2 = OpenBook(page, word(("a", 1))), OpenBook(page, word(("b", 2)))
    s = parse_scenario(DECLS + "sum ob1 ob2 -> m\n"
                       "fibered genus1 ta tb2 -> f\n"
                       "kirby cover genus1 q=3 base=L\n"
                       "verify equal m f\n")
    assert [cmd for _, cmd in s.commands] == [
        Sum(ob1, ob2, "m"),
        Fibered(page, word(("a", 1)), word(("b", 2)), "f"),
        Kirby("cover", page, 3, base="L"),
        scenario.Verify("equal", "m", "f")]
    assert s.commands[0][1].left is s.openbooks["ob1"]
    assert s.commands[1][1].page is s.pages["genus1"]
    assert s.commands[1][1].psi is s.words["tb2"]


def test_a_record_holds_no_word_or_open_book_name():
    # Renaming the words and open books leaves every record equal.
    renamed = (DECLS.replace("ta", "x").replace("tb2", "y")
               .replace("ob1", "o1").replace("ob2", "o2"))
    a = parse_scenario(DECLS + "sum ob1 ob2 -> m\nfibered genus1 ta tb2 -> f\n")
    b = parse_scenario(renamed + "sum o1 o2 -> m\nfibered genus1 x y -> f\n")
    assert set(b.words) == {"x", "y", "wid"} and set(b.openbooks) == {"o1", "o2"}
    assert [cmd for _, cmd in a.commands] == [cmd for _, cmd in b.commands]


def _err(text):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    return exc.value


def test_error_unknown_statement_position():
    e = _err("   bogus stuff\n")
    assert e.code == E_SYNTAX and e.line == 1 and e.col == 4


def test_error_undeclared_page():
    e = _err("word w = a\nopenbook ob = (ghost, w)\n")
    assert (e.code, e.line, e.col) == (E_UNDECLARED, 2, 16)   # at 'ghost'


@pytest.mark.parametrize("stmt,col,what", [
    ("openbook ob = (p, ghost)", 19, "word"),
    ("openbook ob = ( ghost , w )", 17, "page"),
    ("openbook ob=(p,ghost)", 16, "word"),
    ("openbook ghost = (ghost, w)", 19, "page"),
], ids=["word", "spaced_page", "one_token_word", "named_like_the_page"])
def test_error_undeclared_openbook_parts_at_the_name(stmt, col, what):
    e = _err("page p dim=2 handles=[0:1,1:1] stein=true spheres=[a]\n"
             f"word w = a\n{stmt}\n")
    assert (e.code, e.line, e.col) == (E_UNDECLARED, 3, col)
    assert f"{what} 'ghost' not declared" in str(e)


@pytest.mark.parametrize("letters,col", [
    ("a c^2", 12),       # the letter c^2
    ("a b b^-1 c", 19),  # c, not the cancelled b at col 12
    ("a a^-1 c", 17),    # c, the only letter left after reduction
    ("a c@p", 12),       # a parametrized letter of a sphere not on the page
], ids=["unreduced", "cancelled_pair_before", "only_c_left", "parametrized"])
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


COMMAND_ERRORS = [
    ("sum ob1 ob2 x=1 -> m", E_ARITY, 13,             # sum takes no keys
     "unknown key 'x' for sum"),
    ("verify equal ob1 ob2 -> m", E_ARITY, 1,         # verify makes nothing
     "verify equal takes no '-> <name>'"),
    ("surgery ob1 -> m", E_ARITY, 1,                  # no keys: points at head
     "surgery missing keys: k, sphere"),
    ("kirby", E_ARITY, 1, "kirby needs a mode: cover|surgery"),
    ("kirby bogus", E_SYNTAX, 7, "unknown kirby mode 'bogus'"),
    ("verify", E_ARITY, 1, "verify needs a mode: equal|forms|twist"),
    ("verify bogus", E_SYNTAX, 8, "unknown verify mode 'bogus'"),
    ("verify forms n=3", E_ARITY, 14,                 # forms has no n
     "unknown key 'n' for verify forms"),
    ("cover ob1 q=2 -> a b", E_SYNTAX, 15, "cover: '->' must be followed by one name"),
    ("cover ob1 q=2 q=3 -> m", E_ARITY, 15, "duplicate key 'q' for cover"),
    ("fibered genus1 ta ghost -> f", E_UNDECLARED, 19, "word 'ghost' not declared"),
]


@pytest.mark.parametrize("stmt,code,col,message", COMMAND_ERRORS,
                         ids=[f"{stmt}-{code}-{col}" for stmt, code, col, _ in COMMAND_ERRORS])
def test_command_errors(stmt, code, col, message):
    e = _err(DECLS + stmt + "\n")
    assert (e.code, e.line, e.col) == (code, 8, col)
    assert str(e) == f"line 8, col {col}: [{code}] {message}"


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
    # a surgery parameter that is empty or holds a blank, '@' or '^'
    "surgery ob1 sphere=a k=1 param= -> m", 'surgery ob1 sphere=a k=1 param="a b" -> m',
    "surgery ob1 sphere=a k=1 param=x@y -> m", "surgery ob1 sphere=a k=1 param=x^2 -> m",
])
def test_failed_run_writes_no_file(tmp_path, monkeypatch, capsys, stmt):
    text = DECLS + "kirby cover genus1 q=2 out=w.kirby\n" + stmt + "\n"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fail.scn").write_text(text)
    assert main(["run", "fail.scn"]) == 2
    assert "line 9, col 1: [E_SYNTAX]" in capsys.readouterr().err
    assert not (tmp_path / "w.kirby").exists()


@pytest.mark.parametrize("stmt", ["verify twist n=0", "verify twist n=-1",
                                  "verify twist n=8", "verify forms samples=0", "verify twist samples=-1",
                                  "verify forms samples=10001"])
def test_bad_counts_are_positioned(stmt):
    s = parse_scenario("\n" + stmt + "\n")
    with pytest.raises(ScenarioError) as exc:
        run_scenario(s)
    assert (exc.value.code, exc.value.line, exc.value.col) == (E_SYNTAX, 2, 1)


@pytest.mark.parametrize("stmt,col", [
    ("fibered genus1 ta tb2 -> ob1", 26),
    ("sum ob1 ob2 -> ob1", 16),
    ("surgery ob2 sphere=b k=1 -> ob1", 29),
    ("cover ob1 q=3 over=binding -> ob1", 31),
], ids=["fibered", "sum", "surgery", "cover"])
def test_targets_may_not_name_open_books(stmt, col):
    # Otherwise one name would be two manifolds: `sum` reads the declared
    # open book, every other command the latest target.
    e = _err(DECLS + stmt + "\n")
    assert (e.code, e.line, e.col) == (E_SYNTAX, 8, col)
    assert "open book 'ob1' is already declared" in str(e)


REDECLARED = """page p dim=2 handles=[0:1,1:1] stein=true spheres=[a]
word w1 = a
word w2 = a^5
openbook b = (p, w1)
cover b q=2 over=binding -> c
"""


@pytest.mark.parametrize("stmt,col", [
    ("page p dim=2 handles=[0:1,1:3] stein=true spheres=[a,x,y]", 6),
    ("word w1 = a^7", 6),
    ("openbook b = (p, w2)", 10),
    ("openbook c = (p, w2)", 10),   # the name of the cover's target
], ids=["page", "word", "open_book", "open_book_named_like_a_target"])
def test_names_are_declared_once(stmt, col):
    e = _err(REDECLARED + stmt + "\n")
    assert (e.code, e.line, e.col) == (E_SYNTAX, 6, col)
    assert "is already declared" in str(e)


@pytest.mark.parametrize("rest,line", [
    # Every later declaration rebinds a name an earlier command reads.
    ("fibered p w1 w1 -> f\nkirby cover p q=2\nopenbook b = (p, w2)\n"
     "word w1 = a^7\npage p dim=2 handles=[0:1,1:3] stein=true spheres=[a,x,y]\n", 8),
    ("openbook c = (p, w2)\ncover c q=1 over=binding -> d\n", 6),
], ids=["page_word_and_open_book", "open_book_after_target"])
def test_redeclaring_scenarios_exit_2(tmp_path, monkeypatch, capsys, rest, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "redeclare.scn").write_text(REDECLARED + rest)
    assert main(["run", "redeclare.scn"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: line {line}, col 10: [E_SYNTAX]")


def test_targets_may_be_rebound():
    text = REDECLARED + "cover c q=3 over=binding -> c\nverify equal c c\n"
    report, status, _ = run_scenario(parse_scenario(text))
    assert status == 0
    assert report.splitlines()[:2] == ["cover:c\ta^2\t-\tOK", "cover:c\ta^6\t-\tOK"]


def test_targets_usable_downstream():
    text = DECLS + """
sum ob1 ob2 -> m
surgery m sphere=a k=1 -> m2
verify equal m2 m2
"""
    report, status, _ = run_scenario(parse_scenario(text))
    assert status == 0
