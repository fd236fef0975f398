"""Combinatorial Kirby diagrams for the 3-dimensional cobordism
constructions: dotted 1-handles and 2-handles with attaching words.

Diagrams are combinatorial only — no front projections, no crossing data.
Contact surgery coefficients are carried as annotations without smooth
framing arithmetic.

The serialization is the line-oriented text format of docs/kirby_format.md:
a ``KIRBY 1`` header, then the BASE, DOTTED, 2HANDLES and NOTES sections,
each emitted even when empty.  Handles are sorted by id, so serialization is
canonical and byte-stable.  A diagram refuses text the format cannot carry
(the document lists it), so every serialized diagram parses back.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import Checked, DomainError

MAGIC = "KIRBY 1"
SECTIONS = ("BASE", "DOTTED", "2HANDLES", "NOTES")

# Attaching-word letters as tagged tuples:
#   ("curve", label, copy_index, sign)   sign in {+1, -1}
#   ("dotted", dotted_id)
Letter = tuple


def curve(label: str, copy_index: int, sign: int = 1) -> Letter:
    if sign not in (1, -1):
        raise DomainError("curve sign must be +1 or -1")
    return ("curve", label, copy_index, sign)


def traversal(dotted_id: str) -> Letter:
    return ("dotted", dotted_id)


def _splits(text: str) -> bool:
    """Whether a tab or a line break would split a field (printable text has none)."""
    return not text.isprintable() and ("\t" in text or text.splitlines() != [text])


class _DottedHandle(NamedTuple):
    id: str
    anchors: tuple[str, str]


class DottedHandle(Checked, _DottedHandle):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(map(_splits, (self.id, *self.anchors))) or ":" in self.id:
            raise DomainError(f"dotted handle {self.id!r}: tab or line break, or ':' in id")
        if self.anchors[0] == self.anchors[1]:
            raise DomainError(f"dotted handle {self.id} has equal anchors")
        return self


class _TwoHandle(NamedTuple):
    id: str
    attaching_word: tuple[Letter, ...]
    coefficient: str


class TwoHandle(Checked, _TwoHandle):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if _splits(self.id) or _splits(self.coefficient):
            raise DomainError(f"2-handle {self.id!r}: tab or line break in a field")
        if not self.attaching_word:
            raise DomainError(f"2-handle {self.id} has empty attaching word")
        for letter in self.attaching_word:
            if letter[0] not in ("curve", "dotted"):
                raise DomainError(f"bad letter {letter!r} in {self.id}")
        return self


class _KirbyDiagram(NamedTuple):
    base_components: tuple[str, ...]
    dotted: tuple[DottedHandle, ...]
    two_handles: tuple[TwoHandle, ...]
    notes: tuple[str, ...] = ()


class KirbyDiagram(Checked, _KirbyDiagram):
    __slots__ = ()

    def __new__(cls, base_components, dotted, two_handles, notes=()):
        self = super().__new__(cls, base_components,
                               tuple(sorted(dotted, key=lambda d: d.id)),
                               tuple(sorted(two_handles, key=lambda h: h.id)), notes)
        ids = [d.id for d in self.dotted]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate dotted-handle ids")
        hids = [h.id for h in self.two_handles]
        if len(set(hids)) != len(hids):
            raise DomainError("duplicate 2-handle ids")
        known = set(ids)
        for h in self.two_handles:
            for letter in h.attaching_word:
                if letter[0] == "dotted" and letter[1] not in known:
                    raise DomainError(
                        f"2-handle {h.id} traverses unknown dotted handle "
                        f"{letter[1]!r}")
                # A curve letter is written curve:<label>_<copy>:<sign>.
                if letter[0] == "curve" and (":" in letter[1]
                                             or letter[1].split() != [letter[1]]):
                    raise DomainError(
                        f"curve label {letter[1]!r} in {h.id} is empty or "
                        f"holds ':' or whitespace")
        for line in (*self.base_components, *self.notes):
            if line in SECTIONS or line.splitlines() not in ([], [line]):
                raise DomainError(
                    f"base or note line {line!r} is a section header or "
                    f"holds a line break")
        return self


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def branched_cover_diagram(page, base: Sequence[str], q: int) -> KirbyDiagram:
    """Diagram of the cobordism from q copies of a 3-manifold to its q-fold
    cyclic branched cover, built from the handle decomposition of a surface
    page with one 0-handle.

    Along the chain of copies 1 ~ 2 ~ ... ~ q, each adjacent pair is joined
    by one Liouville sum contributing a dotted 1-handle anchored at the
    0-handle's images p_j and p_{j+1}, and per page 1-handle with core c (the
    page's spheres, in order), a 2-handle attached along c_j u (-c_{j+1}).
    """
    if q < 1:
        raise DomainError("cover degree must be >= 1")
    if page.half_dim != 1:
        raise DomainError(
            f"cover diagram needs a surface page (dim=2), got dim={2 * page.half_dim}")
    if page.handle_count(0) != 1:
        raise DomainError(
            f"cover diagram needs one page 0-handle, got {page.handle_count(0)}")
    n_one_handles = page.handle_count(1)
    if len(page.spheres) != n_one_handles:
        raise DomainError(
            f"page has {n_one_handles} 1-handles but {len(page.spheres)} "
            f"core-curve labels")

    dotted = []
    two_handles = []
    for j in range(1, q):
        dotted.append(DottedHandle(f"d{j}p", (f"p_{j}", f"p_{j + 1}")))
        for c in page.spheres:
            two_handles.append(TwoHandle(
                f"h{j}{c}",
                (curve(c, j, 1), curve(c, j + 1, -1)),
                coefficient="surface"))
    return KirbyDiagram(tuple(base), tuple(dotted), tuple(two_handles),
                        notes=(f"{q}-fold cyclic branched cover over the "
                               f"binding; page {page.name}",))


def surgery_cobordism_diagram(k: int) -> KirbyDiagram:
    """Diagram of the cobordism realizing contact (1/k)-surgery on a knot K.

    For k != -1 the D*S^1 page decomposition (one 0-handle + one 1-handle)
    gives one dotted handle plus one 2-handle whose attaching word runs over
    the dotted handle twice; k = -1 is an honest Weinstein 2-handle attached
    along K with contact coefficient -1.
    """
    if k == 0:
        raise DomainError("surgery coefficient k must be nonzero")
    if k == -1:
        return KirbyDiagram((), (),
                            (TwoHandle("h1", (curve("K", 1, 1),), "-1"),),
                            notes=("Weinstein 2-handle along K",))
    notes = [f"contact (1/{k})-surgery cobordism on K"]
    if k == 2:
        notes.append("equivalent to contact (+1)-surgery on a right-handed "
                     "Legendrian trefoil")
    return KirbyDiagram(
        (), (DottedHandle("d1", ("q_1", "q_2")),),
        (TwoHandle("h1",
                   (traversal("d1"), curve("K", 1, 1),
                    traversal("d1"), curve("K", 2, -1)),
                   coefficient=f"1/{k}"),),
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _letter_to_text(letter: Letter) -> str:
    if letter[0] == "curve":
        _, label, copy_index, sign = letter
        return f"curve:{label}_{copy_index}:{'+' if sign > 0 else '-'}"
    return f"dotted:{letter[1]}"


def _letter_from_text(tok: str) -> Letter:
    parts = tok.split(":")
    if parts[0] == "curve" and len(parts) == 3:
        label_copy, sign = parts[1], parts[2]
        label, _, copy_index = label_copy.rpartition("_")
        try:
            index = int(copy_index)
        except ValueError:
            index = None
        if not label or index is None or sign not in ("+", "-"):
            raise DomainError(f"bad curve letter {tok!r}")
        return curve(label, index, 1 if sign == "+" else -1)
    if parts[0] == "dotted" and len(parts) == 2:
        return traversal(parts[1])
    raise DomainError(f"bad attaching-word letter {tok!r}")


def serialize_diagram(d: KirbyDiagram) -> str:
    lines = [MAGIC, "BASE", *d.base_components, "DOTTED"]
    lines += [f"{dot.id}\t{dot.anchors[0]}\t{dot.anchors[1]}" for dot in d.dotted]
    lines.append("2HANDLES")
    lines += ["\t".join([h.id, h.coefficient, *map(_letter_to_text, h.attaching_word)])
              for h in d.two_handles]
    lines += ["NOTES", *d.notes]
    return "\n".join(lines) + "\n"


def parse_diagram(text: str) -> KirbyDiagram:
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise DomainError("missing KIRBY header")
    sections = {name: [] for name in SECTIONS}
    current = None
    for line in lines[1:]:
        if line in sections:
            current = line
            continue
        if current is None:
            raise DomainError(f"content before first section: {line!r}")
        sections[current].append(line)
    dotted = []
    for line in sections["DOTTED"]:
        parts = line.split("\t")
        if len(parts) != 3:
            raise DomainError(f"bad DOTTED line {line!r}")
        dotted.append(DottedHandle(parts[0], (parts[1], parts[2])))
    two_handles = []
    for line in sections["2HANDLES"]:
        parts = line.split("\t")
        if len(parts) < 3:
            raise DomainError(f"bad 2HANDLES line {line!r}")
        two_handles.append(TwoHandle(
            parts[0], tuple(_letter_from_text(tok) for tok in parts[2:]),
            parts[1]))
    return KirbyDiagram(tuple(sections["BASE"]), tuple(dotted),
                        tuple(two_handles), tuple(sections["NOTES"]))
