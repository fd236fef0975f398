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
    kirby cover <page> q=<int> [base=<text>|base="<text with blanks>"] [out=<path>]
    kirby surgery k=<int> [out=<path>]
    verify equal <manifold> <manifold>
    verify forms [samples=<int>]
    verify twist [n=<int>] [samples=<int>]

``parse_scenario`` reads each statement once.  Declarations fill the
scenario's pages, words and open books; each command becomes a frozen record
(``Sum``, ``Surgery``, ``Cover``, ``Fibered``, ``Kirby``, ``Verify``).  Argument
counts, keys, names, and integer and boolean values are all checked at parse
time, so a malformed statement is reported before any statement runs or
writes a file.  ``execute`` runs one record and returns its result: a
``ManifoldDescriptor`` (sum, surgery, cover, fibered), a ``KirbyDiagram``, a
bool (verify equal) or report lines (verify forms|twist); the CLI's
subcommands run their records through it too.  ``run_scenario`` executes the
records in order and renders each result as report lines.

A key=value value may be double-quoted to hold blanks or '#'
(``base="L(2,1) as -2 surgery on unknot"``); the quotes are stripped before
the value is converted.  Quotes anywhere else, or a quote left open, are an
E_SYNTAX error.

Errors carry a source position and one of three codes: E_SYNTAX (malformed
statement, or a command the library refused while running), E_UNDECLARED
(name used before declaration), E_ARITY (wrong argument count/keys for a
known statement).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ContactCalcError
from .kirby import branched_cover_diagram, serialize_diagram, surgery_cobordism_diagram
from .reports import DEFAULT_SAMPLES, check_suite_args, report_failed
from .surgery import (ManifoldDescriptor, MonodromyWord, OpenBook, PageSpec,
                      branched_cover, contact_surgery, fibered_manifold,
                      liouville_sum_openbooks, open_book_descriptor, reduce_word)

E_SYNTAX = "E_SYNTAX"
E_UNDECLARED = "E_UNDECLARED"
E_ARITY = "E_ARITY"


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
    words: dict[str, MonodromyWord] = field(default_factory=dict)
    openbooks: dict[str, OpenBook] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)


_LETTER = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


# A token is a run of non-blank characters in which a double-quoted part
# may hold blanks and '#'; a lone '"' is an unterminated quote, and '#'
# outside quotes starts a comment.
_TOKEN = re.compile(r'(?:[^\s"#]|"[^"]*")+|"|#')
_QUOTED_KV = re.compile(r'[^"=]+="[^"]*"')


def _tokenize(line: str, lineno: int) -> list[Token]:
    toks = []
    for m in _TOKEN.finditer(line):
        text, col = m.group(0), m.start() + 1
        if text == "#":
            break
        if text == '"':
            raise ScenarioError(E_SYNTAX, lineno, col, "unterminated quote")
        if '"' in text and not _QUOTED_KV.fullmatch(text):
            raise ScenarioError(E_SYNTAX, lineno, col,
                                f'quotes may only enclose a whole value, '
                                f'as in key="...": got {text}')
        toks.append(Token(text, lineno, col))
    return toks


def _kv(tok: Token) -> Optional[tuple[str, str]]:
    """The (key, value) of a key=value token, the quotes of a key="..."
    value stripped; None for any other token."""
    if "=" in tok.text and not tok.text.startswith("="):
        key, _, val = tok.text.partition("=")
        if val.startswith('"'):
            val = val[1:-1]
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


def _parse_word(toks: list[Token]) -> tuple[str, MonodromyWord, dict[str, Token]]:
    """Name, reduced word, and the first token of each label (non-zero exponent)."""
    if len(toks) < 3 or toks[2].text != "=":
        t = toks[0]
        raise ScenarioError(E_SYNTAX, t.line, t.col,
                            "word syntax: word <name> = <letters>")
    name = toks[1].text
    letters = []
    first_token: dict[str, Token] = {}
    for tok in toks[3:]:
        m = _LETTER.match(tok.text)
        if m is None:
            raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                                f"bad word letter {tok.text!r}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if exp != 0:
            letters.append((m.group(1), exp))
            first_token.setdefault(m.group(1), tok)
    return name, reduce_word(MonodromyWord.raw(tuple(letters))), first_token


def _parse_openbook(s: Scenario, toks: list[Token],
                    letter_tokens: dict[str, dict[str, Token]]) -> tuple[str, OpenBook]:
    # openbook <name> = (<page>, <word>)
    t = toks[0]
    text = " ".join(tok.text for tok in toks[1:])
    m = re.match(r"^(\S+)\s*=\s*\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$", text)
    if m is None:
        raise ScenarioError(E_SYNTAX, t.line, t.col,
                            "openbook syntax: openbook <name> = (<page>, <word>)")
    name, page_name, word_name = m.groups()
    if page_name not in s.pages:
        raise ScenarioError(E_UNDECLARED, t.line, t.col,
                            f"page {page_name!r} not declared")
    if word_name not in s.words:
        raise ScenarioError(E_UNDECLARED, t.line, t.col,
                            f"word {word_name!r} not declared")
    page, w = s.pages[page_name], s.words[word_name]
    for label, _ in w.letters:
        if label not in page.spheres:
            tok = letter_tokens[word_name][label]
            raise ScenarioError(E_UNDECLARED, tok.line, tok.col,
                                f"sphere label {label!r} not on page {page_name!r}")
    return name, OpenBook(page, w)


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
    ("verify", "forms"): (Verify, (), {"samples": _int}, set(), False),
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
    letter_tokens: dict[str, dict[str, Token]] = {}  # word -> label -> token
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, lineno)
        if not toks:
            continue
        head = toks[0]
        if head.text == "page":
            name, page = _parse_page(toks)
            s.pages[name] = page
        elif head.text == "word":
            name, s.words[name], letter_tokens[name] = _parse_word(toks)
        elif head.text == "openbook":
            name, ob = _parse_openbook(s, toks, letter_tokens)
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

def execute(cmd: Command, s: Scenario, env: dict[str, ManifoldDescriptor],
            seed: int = 0, tol: Optional[float] = None,
            samples: int = DEFAULT_SAMPLES):
    """The result of one record, whose pages, words and open books are in
    ``s`` and manifolds in ``env``.  ``samples`` applies when a verify record
    sets none; ``tol=None`` keeps the suite's own.  Library errors propagate."""
    match cmd:
        case Sum():
            return liouville_sum_openbooks(s.openbooks[cmd.left], s.openbooks[cmd.right])
        case Surgery():
            return contact_surgery(env[cmd.manifold], cmd.sphere, cmd.k, cmd.param)
        case Cover():
            return branched_cover(env[cmd.manifold], cmd.over, cmd.q)
        case Fibered():
            return fibered_manifold(s.pages[cmd.page], s.words[cmd.phi], s.words[cmd.psi])
        case Kirby(mode="cover"):
            base = (cmd.base,) if cmd.base else ()
            return branched_cover_diagram(s.pages[cmd.page], base, cmd.q)
        case Kirby():
            return surgery_cobordism_diagram(cmd.k)
        case Verify(mode="equal"):
            return env[cmd.left].word_equals(env[cmd.right])
        case Verify():
            # Imported here, not at the top: the suites are the only records
            # that need numpy, and the symbolic commands should not load it.
            from . import verify
            count = samples if cmd.samples is None else cmd.samples
            if cmd.mode == "forms":
                return verify.verify_forms(seed, tol, count)
            return verify.verify_twist(cmd.n, seed, tol, count)
    raise AssertionError(f"unhandled record {cmd!r}")


def run_scenario(s: Scenario, seed: int = 0, tol: Optional[float] = None,
                 samples: int = DEFAULT_SAMPLES,
                 out_dir: Optional[str] = None) -> tuple[str, int, list[str]]:
    """Execute the scenario; returns (report text, exit status, files written).

    The report is line-oriented ``metric<TAB>value<TAB>tolerance<TAB>status``
    with status PASS/FAIL for verify commands and OK for constructions; it is
    byte-stable for fixed inputs and seed.  ``tol=None`` keeps each verify
    suite's own tolerance.  A negative seed, a sample count below 1 or a NaN
    or negative ``tol`` raises ``DomainError`` before any statement runs,
    whether or not the scenario runs a suite.  ``out=`` files are written,
    in statement order, only after the last statement has run, so a run
    that raises leaves none behind.
    """
    check_suite_args(seed, samples, tol)
    env = {name: open_book_descriptor(ob) for name, ob in s.openbooks.items()}
    lines: list[str] = []
    files: list[tuple[str, str]] = []  # (path, text), written once all ran
    failed = False

    def ok(metric: str, value: str):
        lines.append(f"{metric}\t{value}\t-\tOK")

    for cmd in s.commands:
        try:
            res = execute(cmd, s, env, seed, tol, samples)
            match cmd:
                case Sum() | Surgery() | Cover() | Fibered():
                    env[cmd.target] = res
                    shown = res.presentation if isinstance(cmd, Fibered) else res.word
                    ok(f"{type(cmd).__name__.lower()}:{cmd.target}", str(shown))
                case Kirby():
                    if cmd.out is not None:
                        path = cmd.out if out_dir is None \
                            else f"{out_dir.rstrip('/')}/{cmd.out}"
                        files.append((path, serialize_diagram(res)))
                        ok("kirby:file", path)
                    else:
                        ok("kirby:dotted", str(len(res.dotted)))
                        ok("kirby:two_handles", str(len(res.two_handles)))
                case Verify(mode="equal"):
                    failed = failed or not res
                    lines.append(f"verify:equal:{cmd.left}:{cmd.right}\t"
                                 + ("equal\t-\tPASS" if res else "distinct\t-\tFAIL"))
                case Verify():
                    failed = failed or report_failed(res)
                    lines.extend(line.render() for line in res)
        except ContactCalcError as exc:
            raise ScenarioError(E_SYNTAX, cmd.line, cmd.col,
                                f"{type(cmd).__name__.lower()} failed: {exc}") from exc

    for path, text in files:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return ("".join(line + "\n" for line in lines), (1 if failed else 0),
            [path for path, _ in files])
