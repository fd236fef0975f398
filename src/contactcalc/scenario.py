"""Scenario DSL: declarations of pages, words, and open books, followed by
commands dispatching into the surgery/cobordism/kirby/verification modules.

Grammar (one statement per line; '#' starts a comment; blank lines skipped):

    page <name> dim=<2n> handles=[k:count,...] stein=<bool> spheres=[a,b,...]
    word <name> = <label>[@<param>][^<exp>] ...
    openbook <name> = (<page>, <word>)

    sum <openbook> <openbook> -> <name>
    surgery <manifold> sphere=<label> k=<int> [param=<id>] -> <name>
    cover <manifold> q=<int> over=binding -> <name>
    fibered <page> <word> <word> -> <name>
    kirby cover <page> q=<int> [base=<text>|base="<text with blanks>"] [out=<path>]
    kirby surgery k=<int> [out=<path>]
    verify equal <manifold> <manifold>
    verify <suite> [samples=<int>] [<key>=<int> ...]   (suites: reports.SUITES)

``parse_scenario`` reads each statement once.  Declarations fill the
scenario's pages, words and open books, each name declared once: a
redeclaration, an open book named like an earlier command's target, or a
command target named like an open book, is an E_SYNTAX error at the name (a
command target may be rebound: commands run in statement order).  Each command
becomes an immutable record (``Sum``, ``Surgery``, ``Cover``, ``Fibered``,
``Kirby``, ``Verify``) whose argument counts, keys, names, and integer and
boolean values are all checked at parse time, so a malformed statement is
reported before any statement runs or writes a file.  A record holds the
pages, words and open books it names, but manifold names, as commands rebind
them.  ``Scenario.commands`` pairs each record, which holds no position, with
its first token; ``execute`` runs one record, for the CLI too.

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

import importlib
import re
from typing import Callable, NamedTuple, Optional

from .errors import ContactCalcError
from .reports import DEFAULT_SAMPLES, SUITES, check_suite_args, report_failed
from .surgery import (ManifoldDescriptor, MonodromyWord, OpenBook, PageSpec,
                      branched_cover, contact_surgery, fibered_manifold,
                      liouville_sum_openbooks, open_book_descriptor, reduce_word)

E_SYNTAX = "E_SYNTAX"
E_UNDECLARED = "E_UNDECLARED"
E_ARITY = "E_ARITY"


class ScenarioError(ContactCalcError):
    def __init__(self, code: str, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: [{code}] {message}")
        self.code, self.line, self.col = code, line, col


class Token(NamedTuple):
    text: str
    line: int
    col: int


# The command records: plain values, equal wherever their statement stands.
class Sum(NamedTuple):
    left: OpenBook
    right: OpenBook
    target: str


class Surgery(NamedTuple):
    manifold: str
    sphere: str
    k: int
    target: str
    param: str = "std"


class Cover(NamedTuple):
    manifold: str
    q: int
    target: str
    over: str = "binding"


class Fibered(NamedTuple):
    page: PageSpec
    phi: MonodromyWord
    psi: MonodromyWord
    target: str


class Kirby(NamedTuple):
    mode: str                        # "cover" or "surgery"
    page: Optional[PageSpec] = None  # cover mode
    q: Optional[int] = None          # cover mode
    k: Optional[int] = None          # surgery mode
    base: Optional[str] = None
    out: Optional[str] = None


class Verify(NamedTuple):
    mode: str                   # "equal" or a suite of ``SUITES``
    left: Optional[str] = None  # equal mode
    right: Optional[str] = None
    keys: tuple[tuple[str, int], ...] = ()  # (key, value) pairs its statement set


Command = Sum | Surgery | Cover | Fibered | Kirby | Verify


class Scenario(NamedTuple):
    """Declarations by name; the commands as (first token, record), in order."""

    pages: dict[str, PageSpec]
    words: dict[str, MonodromyWord]
    openbooks: dict[str, OpenBook]
    commands: list[tuple[Token, Command]]


_LETTER = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*(?:@[^\s@^]+)?)(?:\^(-?\d+))?$")


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


def _parse_kvs(toks: list[tuple[Token, Optional[tuple[str, str]]]], keys: dict[str, Callable],
               required: set[str], stmt: str, head: Token) -> dict[str, object]:
    """The values of ``toks``, each token with its ``_kv`` split; ``keys[key]``
    converts (value text, its token, the key) or raises a positioned E_SYNTAX."""
    out: dict[str, object] = {}
    for tok, pair in toks:
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
        t = toks[0][0] if toks else head
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
    rest = [(tok, _kv(tok)) for tok in toks[1:]]
    if not rest or rest[0][1] is not None:
        raise ScenarioError(E_SYNTAX, t.line, t.col, "page needs a name")
    name = toks[1].text
    kvs = _parse_kvs(rest[1:], {"dim": _even_dim, "handles": _handles,
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
    for group, names, what in ((2, s.pages, "page"), (3, s.words, "word")):
        if m.group(group) not in names:
            pos = m.start(group)   # into ``text``; find its token's column
            for tok in toks[1:]:
                if pos < len(tok.text):
                    raise ScenarioError(E_UNDECLARED, tok.line, tok.col + pos,
                                        f"{what} {m.group(group)!r} not declared")
                pos -= len(tok.text) + 1
    page, w = s.pages[page_name], s.words[word_name]
    for label, _ in w.letters:
        if not page.carries(label):
            tok = letter_tokens[word_name][label]
            raise ScenarioError(E_UNDECLARED, tok.line, tok.col,
                                f"sphere label {label!r} not on page {page_name!r}")
    return name, OpenBook(page, w)


# Statement -> mode (None: it has none) -> record type, the kind of each
# positional name, the keys with their value converters, the required keys,
# and whether it ends in '-> <name>'.  A "manifold" is an open book or the
# target of an earlier command; ``statement_modes`` adds verify's suites.
_SCHEMAS: dict[str, dict[Optional[str], tuple]] = {
    "sum": {None: (Sum, ("open book", "open book"), {}, set(), True)},
    "surgery": {None: (Surgery, ("manifold",),
                       {"sphere": _str, "k": _int, "param": _str}, {"sphere", "k"}, True)},
    "cover": {None: (Cover, ("manifold",), {"q": _int, "over": _str}, {"q"}, True)},
    "fibered": {None: (Fibered, ("page", "word", "word"), {}, set(), True)},
    "kirby": {"cover": (Kirby, ("page",), {"q": _int, "base": _str, "out": _str},
                        {"q"}, False),
              "surgery": (Kirby, (), {"k": _int, "out": _str}, {"k"}, False)},
    "verify": {"equal": (Verify, ("manifold", "manifold"), {}, set(), False)},
}


def _suite(mode: str, **keys: int) -> Verify:
    return Verify(mode, keys=tuple(sorted(keys.items())))


def statement_modes(statement: str) -> dict[Optional[str], tuple]:
    """The schema of each mode of a command statement; verify's suites are
    read from ``SUITES`` here, so that table is their one list."""
    if statement != "verify":
        return _SCHEMAS[statement]
    return {**_SCHEMAS["verify"], **{
        name: (_suite, (), dict.fromkeys(("samples", *keys), _int), set(), False)
        for name, (_, _, keys) in SUITES.items()}}


def _parse_command(toks: list[Token], s: Scenario, declared: set[str]) -> Command:
    """The record for one command statement, holding the declared value of
    each name but a manifold's.  ``declared`` holds the open books and command
    targets so far; this command's target joins it."""
    names = {"open book": s.openbooks, "manifold": declared,
             "page": s.pages, "word": s.words}
    head = toks[0]
    target = None
    for i, tok in enumerate(toks):
        if tok.text == "->":
            if i != len(toks) - 2:
                raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                                    f"{head.text}: '->' must be followed by one name")
            toks, target = toks[:i], toks[-1]
            break
    split = [(tok, _kv(tok)) for tok in toks[1:]]
    pos = [t for t, pair in split if pair is None]
    modes, mode = statement_modes(head.text), None
    if None not in modes:
        if not pos:
            raise ScenarioError(E_ARITY, head.line, head.col,
                                f"{head.text} needs a mode: {'|'.join(modes)}")
        mode_tok = pos.pop(0)
        if (mode := mode_tok.text) not in modes:
            raise ScenarioError(E_SYNTAX, mode_tok.line, mode_tok.col,
                                f"unknown {head.text} mode {mode!r}")
    stmt = head.text if mode is None else f"{head.text} {mode}"
    record, kinds, keys, required, makes = modes[mode]
    if len(pos) != len(kinds):
        raise ScenarioError(E_ARITY, head.line, head.col, f"{stmt} takes "
                            + (" ".join(f"<{k}>" for k in kinds) or "no names"))
    for tok, kind in zip(pos, kinds):
        if tok.text not in names[kind]:
            raise ScenarioError(E_UNDECLARED, tok.line, tok.col,
                                f"{kind} {tok.text!r} not declared")
    kvs = _parse_kvs([tp for tp in split if tp[1] is not None],
                     keys, required, stmt, head)
    if makes != (target is not None):
        raise ScenarioError(E_ARITY, head.line, head.col, f"{stmt} "
                            + ("needs '-> <name>'" if makes else "takes no '-> <name>'"))
    if makes:
        _declare_once(target.text, s.openbooks, "open book", target)
        kvs["target"] = target.text
        declared.add(target.text)
    args = [t.text if k == "manifold" else names[k][t.text] for t, k in zip(pos, kinds)]
    return record(*args, **kvs) if mode is None else record(mode, *args, **kvs)


def _declare_once(name: str, names, what: str, tok: Token) -> None:
    """Refuse a second declaration, positioned at ``tok``: commands read the
    declarations after the whole file is parsed, so none may change."""
    if name in names:
        raise ScenarioError(E_SYNTAX, tok.line, tok.col,
                            f"{what} {name!r} is already declared")


def parse_scenario(text: str) -> Scenario:
    s = Scenario({}, {}, {}, [])
    declared: set[str] = set()   # open books and command targets so far
    letter_tokens: dict[str, dict[str, Token]] = {}  # word -> label -> token
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, lineno)
        if not toks:
            continue
        head = toks[0]
        if head.text == "page":
            name, page = _parse_page(toks)
            _declare_once(name, s.pages, "page", toks[1])
            s.pages[name] = page
        elif head.text == "word":
            name, w, tokens = _parse_word(toks)
            _declare_once(name, s.words, "word", toks[1])
            s.words[name], letter_tokens[name] = w, tokens
        elif head.text == "openbook":
            name, ob = _parse_openbook(s, toks, letter_tokens)
            _declare_once(name, declared, "open book or command target", toks[1])
            s.openbooks[name] = ob
            declared.add(name)
        elif head.text in _SCHEMAS:
            s.commands.append((head, _parse_command(toks, s, declared)))
        else:
            raise ScenarioError(E_SYNTAX, head.line, head.col,
                                f"unknown statement {head.text!r}")
    return s


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute(cmd: Command, env: dict[str, ManifoldDescriptor], seed: int = 0,
            tol: Optional[float] = None, samples: int = DEFAULT_SAMPLES):
    """The result of one record, the manifolds it names read from ``env``.
    ``samples`` applies when a verify record sets none; ``tol=None`` keeps
    the suite's own.  Library errors propagate."""
    match cmd:
        case Sum():
            return liouville_sum_openbooks(cmd.left, cmd.right)
        case Surgery():
            return contact_surgery(env[cmd.manifold], cmd.sphere, cmd.k, cmd.param)
        case Cover():
            return branched_cover(env[cmd.manifold], cmd.over, cmd.q)
        case Fibered():
            return fibered_manifold(cmd.page, cmd.phi, cmd.psi)
        case Kirby():
            # Imported where used, as suites are: only Kirby records load it.
            from . import kirby
            if cmd.mode == "cover":
                base = (cmd.base,) if cmd.base else ()
                return kirby.branched_cover_diagram(cmd.page, base, cmd.q)
            return kirby.surgery_cobordism_diagram(cmd.k)
        case Verify(mode="equal"):
            return env[cmd.left].word_equals(env[cmd.right])
        case Verify():
            module, function, _ = SUITES[cmd.mode]
            suite = getattr(importlib.import_module(module), function)
            return suite(seed=seed, tol=tol, **{"samples": samples, **dict(cmd.keys)})
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
    whether or not the scenario runs a suite.  ``out=`` files are written
    once every statement has run (a run that raises leaves none), each path
    once with the diagram of its last statement, serialized then, in the
    order of the paths' last statements, so ``a`` and an alias ``./a`` end
    alike; all ``out=`` paths are returned.
    """
    check_suite_args(seed, samples, tol)
    env = {name: open_book_descriptor(ob) for name, ob in s.openbooks.items()}
    lines: list[str] = []
    diagrams: dict[str, object] = {}  # path -> last diagram, by last write
    paths: list[str] = []
    failed = False

    def ok(metric: str, value: str):
        lines.append(f"{metric}\t{value}\t-\tOK")

    for head, cmd in s.commands:
        try:
            res = execute(cmd, env, seed, tol, samples)
            match cmd:
                case Sum() | Surgery() | Cover() | Fibered():
                    env[cmd.target] = res
                    shown = res.word
                    ok(f"{head.text}:{cmd.target}",
                       str(res.presentation if shown is None else shown))
                case Kirby():
                    if cmd.out is not None:
                        path = cmd.out if out_dir is None \
                            else f"{out_dir.rstrip('/')}/{cmd.out}"
                        diagrams.pop(path, None)
                        diagrams[path] = res
                        paths.append(path)
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
            raise ScenarioError(E_SYNTAX, head.line, head.col,
                                f"{head.text} failed: {exc}") from exc

    for path, diagram in diagrams.items():
        from .kirby import serialize_diagram
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_diagram(diagram))
    return "".join(line + "\n" for line in lines), (1 if failed else 0), paths
