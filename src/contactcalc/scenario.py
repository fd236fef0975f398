"""Scenario DSL: declarations of pages, words, and open books, followed by
commands dispatching into the surgery/cobordism/kirby/verification modules.

Grammar (one statement per line; '#' starts a comment; blank lines skipped):

    page <name> dim=<2n> handles=[k:count,...] stein=<bool> spheres=[a,b,...]
    word <name> = <label>[^<exp>] ...
    openbook <name> = (<page>, <word>)

    sum <openbook> <openbook> -> <name>
    surgery <manifold> sphere=<label> k=<int> [param=<id>] -> <name>
    cover <manifold> q=<int> over=binding -> <name>
    fibered <page> <word> <word> -> <name>
    kirby cover <page> q=<int> [base=<text>] [out=<path>]
    kirby surgery k=<int> [out=<path>]
    verify equal <manifold> <manifold>
    verify forms [samples=<int>]
    verify twist [n=<int>] [samples=<int>]

``parse_scenario`` reads each statement once.  Declarations fill the
scenario's pages, words and open books; each command becomes a frozen record
(``Sum``, ``Surgery``, ``Cover``, ``Fibered``, ``Kirby``, ``Verify``).  Argument
counts, keys, names, and integer and boolean values are all checked at parse
time, so a malformed statement is reported before any statement runs or
writes a file.  ``run_scenario`` executes the records in order.

Errors carry a source position and one of three codes: E_SYNTAX (malformed
statement, or a command the library refused while running), E_UNDECLARED
(name used before declaration), E_ARITY (wrong argument count/keys for a
known statement).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import verify as verify_mod
from .errors import ContactCalcError
from .kirby import branched_cover_diagram, serialize_diagram, surgery_cobordism_diagram
from .surgery import (MonodromyWord, OpenBook, PageSpec, branched_cover,
                      contact_surgery, fibered_manifold, liouville_sum_openbooks,
                      open_book_descriptor, reduce_word)

E_SYNTAX = "E_SYNTAX"
E_UNDECLARED = "E_UNDECLARED"
E_ARITY = "E_ARITY"

# Sample count of the verify suites when neither the statement nor the
# caller sets one; the CLI's --samples default.
DEFAULT_SAMPLES = 25


class ScenarioError(ContactCalcError):
    def __init__(self, code: str, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: [{code}] {message}")
        self.code = code
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class WordDecl:
    word: MonodromyWord
    letter_tokens: tuple[Token, ...]


@dataclass(frozen=True)
class Command:
    """A parsed command; ``line``/``col`` locate its first token."""

    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class Sum(Command):
    left: str
    right: str
    target: str


@dataclass(frozen=True)
class Surgery(Command):
    manifold: str
    sphere: str
    k: int
    target: str
    param: str = "std"


@dataclass(frozen=True)
class Cover(Command):
    manifold: str
    q: int
    target: str
    over: str = "binding"


@dataclass(frozen=True)
class Fibered(Command):
    page: str
    phi: str
    psi: str
    target: str


@dataclass(frozen=True)
class Kirby(Command):
    mode: str                   # "cover" or "surgery"
    page: Optional[str] = None  # cover mode
    q: Optional[int] = None     # cover mode
    k: Optional[int] = None     # surgery mode
    base: Optional[str] = None
    out: Optional[str] = None


@dataclass(frozen=True)
class Verify(Command):
    mode: str                   # "equal", "forms" or "twist"
    left: Optional[str] = None  # equal mode
    right: Optional[str] = None
    n: int = 2                  # twist mode
    samples: Optional[int] = None


@dataclass
class Scenario:
    pages: dict[str, PageSpec] = field(default_factory=dict)
    words: dict[str, WordDecl] = field(default_factory=dict)
    openbooks: dict[str, OpenBook] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)


_LETTER = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def _tokenize(line: str, lineno: int) -> list[Token]:
    line = line.split("#", 1)[0]
    return [Token(m.group(0), lineno, m.start() + 1)
            for m in re.finditer(r"\S+", line)]


def _kv(tok: Token) -> Optional[tuple[str, str]]:
    if "=" in tok.text and not tok.text.startswith("="):
        key, _, val = tok.text.partition("=")
        return key, val
    return None


# A value converter takes (value text, its token, what it is) and returns the
# converted value or raises a positioned E_SYNTAX.
_Converter = Callable[[str, Token, str], object]


def _parse_kvs(toks: list[Token], keys: dict[str, _Converter], required: set[str],
               stmt: str, head: Token) -> dict[str, object]:
    out: dict[str, object] = {}
    for tok in toks:
        pair = _kv(tok)
        if pair is None:
            raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                                f"expected key=value in {stmt}, got {tok.text!r}")
        key, val = pair
        if key not in keys:
            raise ScenarioError(E_ARITY, tok.line, tok.col,
                                f"unknown key {key!r} for {stmt}")
        if key in out:
            raise ScenarioError(E_ARITY, tok.line, tok.col,
                                f"duplicate key {key!r} for {stmt}")
        out[key] = keys[key](val, tok, key)
    missing = required - out.keys()
    if missing:
        t = toks[0] if toks else head
        raise ScenarioError(E_ARITY, t.line, t.col,
                            f"{stmt} missing keys: {', '.join(sorted(missing))}")
    return out


def _str(val: str, tok: Token, what: str) -> str:
    return val


def _int(val: str, tok: Token, what: str) -> int:
    try:
        return int(val)
    except ValueError:
        raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                            f"{what} must be an integer, got {val!r}") from None


def _bool(val: str, tok: Token, what: str) -> bool:
    if val in ("true", "false"):
        return val == "true"
    raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                        f"{what} must be true or false, got {val!r}")


def _bracket_list(val: str, tok: Token, what: str) -> tuple[str, ...]:
    if not (val.startswith("[") and val.endswith("]")):
        raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                            f"{what} must be a [...] list, got {val!r}")
    return tuple(piece for piece in val[1:-1].split(",") if piece)


def _handles(val: str, tok: Token, what: str) -> tuple[tuple[int, int], ...]:
    handles = []
    for piece in _bracket_list(val, tok, what):
        k, sep, c = piece.partition(":")
        if not sep:
            raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                                f"handle entry {piece!r} must be index:count")
        handles.append((_int(k, tok, "handle index"), _int(c, tok, "handle count")))
    return tuple(handles)


def _even_dim(val: str, tok: Token, what: str) -> int:
    dim = _int(val, tok, what)
    if dim < 2 or dim % 2 != 0:
        raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                            f"page dim must be a positive even integer, got {dim}")
    return dim


def _parse_page(toks: list[Token]) -> tuple[str, PageSpec]:
    t = toks[0]
    if len(toks) < 2 or _kv(toks[1]) is not None:
        raise ScenarioError(E_SYNTAX, t.line, t.col, "page needs a name")
    name = toks[1].text
    kvs = _parse_kvs(toks[2:], {"dim": _even_dim, "handles": _handles,
                                "stein": _bool, "spheres": _bracket_list},
                     {"dim", "handles", "stein"}, "page", t)
    try:
        page = PageSpec(name, kvs["dim"] // 2, kvs["handles"], kvs["stein"],
                        kvs.get("spheres", ()))
    except ContactCalcError as exc:
        raise ScenarioError(E_SYNTAX, t.line, t.col, str(exc)) from None
    return name, page


def _parse_word(toks: list[Token]) -> tuple[str, WordDecl]:
    if len(toks) < 3 or toks[2].text != "=":
        t = toks[0]
        raise ScenarioError(E_SYNTAX, t.line, t.col,
                            "word syntax: word <name> = <letters>")
    name = toks[1].text
    letters = []
    letter_tokens = []
    for tok in toks[3:]:
        m = _LETTER.match(tok.text)
        if m is None:
            raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                                f"bad word letter {tok.text!r}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if exp != 0:
            letters.append((m.group(1), exp))
            letter_tokens.append(tok)
    return name, WordDecl(reduce_word(MonodromyWord.raw(tuple(letters))),
                          tuple(letter_tokens))


def _parse_openbook(s: Scenario, toks: list[Token]) -> tuple[str, OpenBook]:
    # openbook <name> = (<page>, <word>)
    text = " ".join(t.text for t in toks[1:])
    m = re.match(r"^(\S+)\s*=\s*\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$", text)
    if m is None:
        t = toks[0]
        raise ScenarioError(E_SYNTAX, t.line, t.col,
                            "openbook syntax: openbook <name> = (<page>, <word>)")
    name, page_name, word_name = m.groups()
    t = toks[0]
    if page_name not in s.pages:
        raise ScenarioError(E_UNDECLARED, t.line, t.col,
                            f"page {page_name!r} not declared")
    if word_name not in s.words:
        raise ScenarioError(E_UNDECLARED, t.line, t.col,
                            f"word {word_name!r} not declared")
    page = s.pages[page_name]
    decl = s.words[word_name]
    for (label, _), tok in zip(decl.word.letters, decl.letter_tokens):
        if label not in page.spheres:
            raise ScenarioError(E_UNDECLARED, tok.line, tok.col,
                                f"sphere label {label!r} not on page {page_name!r}")
    return name, OpenBook(page, decl.word)


# (statement, mode) -> record type, the kind of each positional name, the
# keys with their value converters, the required keys, and whether the
# statement ends in '-> <name>'.  A "manifold" is an open book or the target
# of an earlier command.
_SCHEMAS: dict[tuple[str, Optional[str]], tuple] = {
    ("sum", None): (Sum, ("open book", "open book"), {}, set(), True),
    ("surgery", None): (Surgery, ("manifold",),
                        {"sphere": _str, "k": _int, "param": _str}, {"sphere", "k"}, True),
    ("cover", None): (Cover, ("manifold",), {"q": _int, "over": _str}, {"q"}, True),
    ("fibered", None): (Fibered, ("page", "word", "word"), {}, set(), True),
    ("kirby", "cover"): (Kirby, ("page",),
                         {"q": _int, "base": _str, "out": _str}, {"q"}, False),
    ("kirby", "surgery"): (Kirby, (), {"k": _int, "out": _str}, {"k"}, False),
    ("verify", "equal"): (Verify, ("manifold", "manifold"), {}, set(), False),
    ("verify", "forms"): (Verify, (), {"n": _int, "samples": _int}, set(), False),
    ("verify", "twist"): (Verify, (), {"n": _int, "samples": _int}, set(), False),
}
_MODES = {"kirby": "cover|surgery", "verify": "equal|forms|twist"}


def _parse_command(toks: list[Token], s: Scenario, declared: set[str]) -> Command:
    """The record for one command statement.  ``declared`` holds the open
    books and command targets so far; this command's target joins it."""
    names = {"open book": s.openbooks, "manifold": declared,
             "page": s.pages, "word": s.words}
    head = toks[0]
    target = None
    for i, tok in enumerate(toks):
        if tok.text == "->":
            if i != len(toks) - 2:
                raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                                    f"{head.text}: '->' must be followed by one name")
            toks, target = toks[:i], toks[-1].text
            break
    pos = [t for t in toks[1:] if _kv(t) is None]
    mode = None
    if head.text in _MODES:
        if not pos:
            raise ScenarioError(E_ARITY, head.line, head.col,
                                f"{head.text} needs a mode: {_MODES[head.text]}")
        mode_tok = pos.pop(0)
        mode = mode_tok.text
        if (head.text, mode) not in _SCHEMAS:
            raise ScenarioError(E_SYNTAX, mode_tok.line, mode_tok.col,
                                f"unknown {head.text} mode {mode!r}")
    stmt = head.text if mode is None else f"{head.text} {mode}"
    record, kinds, keys, required, makes = _SCHEMAS[head.text, mode]
    if len(pos) != len(kinds):
        raise ScenarioError(E_ARITY, head.line, head.col, f"{stmt} takes "
                            + (" ".join(f"<{k}>" for k in kinds) or "no names"))
    for tok, kind in zip(pos, kinds):
        if tok.text not in names[kind]:
            raise ScenarioError(E_UNDECLARED, tok.line, tok.col,
                                f"{kind} {tok.text!r} not declared")
    kvs = _parse_kvs([t for t in toks[1:] if _kv(t) is not None],
                     keys, required, stmt, head)
    if makes != (target is not None):
        raise ScenarioError(E_ARITY, head.line, head.col, f"{stmt} "
                            + ("needs '-> <name>'" if makes else "takes no '-> <name>'"))
    if makes:
        kvs["target"] = target
        declared.add(target)
    args = [t.text for t in pos] if mode is None else [mode] + [t.text for t in pos]
    return record(*args, **kvs, line=head.line, col=head.col)


def parse_scenario(text: str) -> Scenario:
    s = Scenario()
    declared: set[str] = set()   # open books and command targets so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, lineno)
        if not toks:
            continue
        head = toks[0]
        if head.text == "page":
            name, page = _parse_page(toks)
            s.pages[name] = page
        elif head.text == "word":
            name, decl = _parse_word(toks)
            s.words[name] = decl
        elif head.text == "openbook":
            name, ob = _parse_openbook(s, toks)
            s.openbooks[name] = ob
            declared.add(name)
        elif head.text in ("sum", "surgery", "cover", "fibered", "kirby", "verify"):
            s.commands.append(_parse_command(toks, s, declared))
        else:
            raise ScenarioError(E_SYNTAX, head.line, head.col,
                                f"unknown statement {head.text!r}")
    return s


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def run_suite(cmd: Verify, seed: int = 0, tol: Optional[float] = None,
              samples: int = DEFAULT_SAMPLES) -> list[verify_mod.ReportLine]:
    """The report of a ``verify forms`` or ``verify twist`` record; the CLI's
    verify subcommand runs through here too.  ``samples`` applies when the
    record sets none; ``tol=None`` keeps the suite's own tolerance."""
    if cmd.samples is not None:
        samples = cmd.samples
    if cmd.mode == "forms":
        return verify_mod.verify_forms(seed, tol, samples)
    return verify_mod.verify_twist(cmd.n, seed, tol, samples)


def run_scenario(s: Scenario, seed: int = 0, tol: Optional[float] = None,
                 samples: int = DEFAULT_SAMPLES,
                 out_dir: Optional[str] = None) -> tuple[str, int, list[str]]:
    """Execute the scenario; returns (report text, exit status, files written).

    The report is line-oriented ``metric<TAB>value<TAB>tolerance<TAB>status``
    with status PASS/FAIL for verify commands and OK for constructions; it is
    byte-stable for fixed inputs and seed.  ``tol=None`` keeps each verify
    suite's own tolerance.
    """
    env = {name: open_book_descriptor(ob) for name, ob in s.openbooks.items()}
    lines: list[str] = []
    files: list[str] = []
    failed = False

    def ok(metric: str, value: str):
        lines.append(f"{metric}\t{value}\t-\tOK")

    for cmd in s.commands:
        try:
            match cmd:
                case Sum():
                    res = liouville_sum_openbooks(s.openbooks[cmd.left],
                                                  s.openbooks[cmd.right])
                    env[cmd.target] = res
                    ok(f"sum:{cmd.target}", str(res.word))
                case Surgery():
                    res = contact_surgery(env[cmd.manifold], cmd.sphere, cmd.k,
                                          cmd.param)
                    env[cmd.target] = res
                    ok(f"surgery:{cmd.target}", str(res.word))
                case Cover():
                    res = branched_cover(env[cmd.manifold], cmd.over, cmd.q)
                    env[cmd.target] = res
                    ok(f"cover:{cmd.target}", str(res.word))
                case Fibered():
                    res = fibered_manifold(s.pages[cmd.page], s.words[cmd.phi].word,
                                           s.words[cmd.psi].word)
                    env[cmd.target] = res
                    ok(f"fibered:{cmd.target}", str(res.presentation))
                case Kirby():
                    if cmd.mode == "cover":
                        base = (cmd.base,) if cmd.base is not None else ()
                        diagram = branched_cover_diagram(s.pages[cmd.page], base, cmd.q)
                    else:
                        diagram = surgery_cobordism_diagram(cmd.k)
                    text = serialize_diagram(diagram)
                    if cmd.out is not None:
                        path = cmd.out if out_dir is None \
                            else f"{out_dir.rstrip('/')}/{cmd.out}"
                        with open(path, "w", encoding="utf-8") as fh:
                            fh.write(text)
                        files.append(path)
                        ok("kirby:file", path)
                    else:
                        ok("kirby:dotted", str(len(diagram.dotted)))
                        ok("kirby:two_handles", str(len(diagram.two_handles)))
                case Verify(mode="equal"):
                    equal = env[cmd.left].word_equals(env[cmd.right])
                    failed = failed or not equal
                    lines.append(
                        f"verify:equal:{cmd.left}:{cmd.right}"
                        f"\t{'equal' if equal else 'distinct'}\t-"
                        f"\t{'PASS' if equal else 'FAIL'}")
                case Verify():
                    rep = run_suite(cmd, seed, tol, samples)
                    failed = failed or verify_mod.report_failed(rep)
                    lines.extend(line.render() for line in rep)
        except ContactCalcError as exc:
            raise ScenarioError(E_SYNTAX, cmd.line, cmd.col,
                                f"{type(cmd).__name__.lower()} failed: {exc}") from exc

    return "".join(line + "\n" for line in lines), (1 if failed else 0), files
