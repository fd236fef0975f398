"""Symbolic calculus of open books, Liouville sums, contact (1/k)-surgery,
branched covers, fibered manifolds, and fillability flags.

Every manifold descriptor holds its page, as an open book or as a manifold
``Glued`` along it, and reads its dimension and surgery spheres off it.

Monodromy words are formal products of labeled Dehn-twist generators; only
free reduction is imposed (no braid or chain relations), so word equality is
a sufficient — not necessary — criterion for equality of open books.  Every
``MonodromyWord`` is freely reduced; products cancel only where two words meet.
A letter ``s@p``, the twist along sphere ``s`` parametrized by ``p``, is a
generator of its own: above dimension 3 the twist depends on ``p``.  No
sphere label holds an '@', so no plain letter reads like such a letter.

Fillability flags are tri-state (True / False / None=unknown) facts about a
manifold.  One rule, ``default_open_book_flags``, reads them off each
construction's resulting open book (False only for (D*S^n, tau^-1) = M(n, -1))
and otherwise keeps what propagates: fillable + fillable stays fillable (Stein
only on a Stein page, weak in dimension 3 or under an H^2 condition on the
page), and absence of a theorem never produces False.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Optional

from .errors import Checked, DomainError

TriState = Optional[bool]


# ---------------------------------------------------------------------------
# Monodromy words
# ---------------------------------------------------------------------------

class _MonodromyWord(NamedTuple):
    letters: tuple[tuple[str, int], ...] = ()


class MonodromyWord(Checked, _MonodromyWord):
    """Freely reduced word in labeled twist generators."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for label, exp in self.letters:
            if exp == 0:
                raise DomainError(f"zero exponent on letter {label!r}")
        for (a, _), (b, _) in zip(self.letters, self.letters[1:]):
            if a == b:
                raise DomainError("word is not freely reduced; use reduce_word")
        return self

    def __mul__(self, other: "MonodromyWord") -> "MonodromyWord":
        a, b, i, j = self.letters, other.letters, len(self.letters), 0
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            i, j, exp = i - 1, j + 1, a[i - 1][1] + b[j][1]
            if exp:
                return MonodromyWord.raw(a[:i] + ((b[j - 1][0], exp),) + b[j:])
        return MonodromyWord.raw(a[:i] + b[j:])

    def __pow__(self, k: int) -> "MonodromyWord":
        # w = c r c^-1 with r cyclically reduced: its first and last letters
        # carry different labels, or it is one letter a^e.  So r^|k| is r
        # repeated, or a^(|k| e), and w^k = c r^k c^-1 costs O(|w| + |w^k|).
        letters = (self if k >= 0 else self.inverse()).letters
        i, j, tail = 0, len(letters), ()
        while not tail and j - i > 1 and letters[i][0] == letters[j - 1][0]:
            (label, e1), (_, e2) = letters[i], letters[j - 1]
            i, j = i + 1, j - 1
            tail = ((label, e1 + e2),) if e1 + e2 else ()
        r = letters[i:j] + tail
        rk = ((r[0][0], r[0][1] * abs(k)),) if len(r) == 1 else r * abs(k)
        c_inv = tuple((lab, -exp) for lab, exp in reversed(letters[:i]))
        return reduce_word(MonodromyWord.raw(letters[:i] + rk + c_inv))

    def inverse(self) -> "MonodromyWord":
        return MonodromyWord.raw((lab, -exp) for lab, exp in reversed(self.letters))

    def is_identity(self) -> bool:
        return not self.letters

    def is_positive(self) -> bool:
        return all(exp > 0 for _, exp in self.letters)

    @staticmethod
    def raw(letters: Iterable[tuple[str, int]]) -> "MonodromyWord":
        """Bypass the reducedness check (internal; reduced or about to be)."""
        return tuple.__new__(MonodromyWord, (tuple(letters),))

    def __str__(self):
        return " ".join(f"{lab}^{exp}" if exp != 1 else lab
                        for lab, exp in self.letters) or "id"


def word(*letters: tuple[str, int]) -> MonodromyWord:
    return reduce_word(MonodromyWord.raw(letters))


def reduce_word(w: MonodromyWord) -> MonodromyWord:
    """Canonical free reduction: merge adjacent equal labels, drop zeros."""
    stack: list[tuple[str, int]] = []
    for label, exp in w.letters:
        if stack and stack[-1][0] == label:
            exp += stack.pop()[1]
        if exp != 0:
            stack.append((label, exp))
    return MonodromyWord.raw(stack)


# ---------------------------------------------------------------------------
# Pages and open books
# ---------------------------------------------------------------------------

class _PageSpec(NamedTuple):
    name: str
    half_dim: int
    handles: tuple[tuple[int, int], ...]  # (index, count)
    stein: bool
    spheres: tuple[str, ...] = ()
    weak_h2_ok: TriState = None  # H^2(page; R) condition for weak sums


class PageSpec(Checked, _PageSpec):
    """A Liouville page: dimension 2n, Weinstein handle counts by index,
    Stein flag, and the labeled spheres usable as twist supports."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.half_dim < 1:
            raise DomainError("page half_dim must be >= 1")
        for k, count in self.handles:
            if not 0 <= k <= self.half_dim:
                raise DomainError(
                    f"handle index {k} out of range 0..{self.half_dim}")
            if count < 1:
                raise DomainError("handle count must be positive")
        if not any(k == 0 for k, _ in self.handles):
            raise DomainError("page needs at least one 0-handle")
        for label in self.spheres:
            if "@" in label:   # '@' starts a letter's parameter
                raise DomainError(f"sphere label {label!r} holds an '@'")
        return self

    def handle_count(self, index: int) -> int:
        return sum(c for k, c in self.handles if k == index)

    def carries(self, label: str) -> bool:
        """Whether ``label`` is a letter on this page: one of its spheres, or
        ``sphere@p`` for one of them and a parametrization ``p`` that is
        nonempty and holds no blank, '@' or '^'."""
        sphere, at, p = label.partition("@")
        return sphere in self.spheres and (
            not at or p.split() == [p] and "@" not in p and "^" not in p)


ZERO_SECTION = "zero_section"


def disk_cotangent_page(n: int) -> PageSpec:
    """D*S^n: one 0-handle and one n-handle; the zero section is the
    canonical twist support."""
    if n < 1:
        raise DomainError("disk_cotangent_page needs n >= 1")
    # The weak-sum H^2(page; R) condition holds automatically iff H^2 = 0,
    # i.e. for every n except 2; for n = 2 it depends on the fillings.
    return PageSpec(f"D*S{n}", n, ((0, 1), (n, 1)), True,
                    (ZERO_SECTION,), weak_h2_ok=(None if n == 2 else True))


def disk_page(n: int) -> PageSpec:
    """The 2n-disk page: a single 0-handle, no twist supports."""
    return PageSpec(f"D{2 * n}", n, ((0, 1),), True, (), weak_h2_ok=True)


def genus_one_page() -> PageSpec:
    """The genus-1 page: one 0-handle, two 1-handles, and as twist supports
    their core curves a and b, which meet once."""
    return PageSpec("genus1", 1, ((0, 1), (1, 2)), True, ("a", "b"))


class _OpenBook(NamedTuple):
    page: PageSpec
    word: MonodromyWord


class OpenBook(Checked, _OpenBook):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        missing = [lab for lab in {lab for lab, _ in self.word.letters} - set(self.page.spheres)
                   if not self.page.carries(lab)]
        if missing:
            raise DomainError(
                f"word uses labels {sorted(missing)} absent from page "
                f"{self.page.name} spheres")
        return self

    @property
    def dim(self) -> int:
        return 2 * self.page.half_dim + 1

    def __str__(self):
        return f"({self.page.name}, {self.word})"


# ---------------------------------------------------------------------------
# Fillability flags
# ---------------------------------------------------------------------------

class _FillabilityFlags(NamedTuple):
    weakly: TriState = None
    symplectically: TriState = None
    exactly: TriState = None
    stein: TriState = None


class FillabilityFlags(Checked, _FillabilityFlags):
    __slots__ = ()

    def __new__(cls, weakly=None, symplectically=None, exactly=None, stein=None):
        return tuple.__new__(cls, _close(weakly, symplectically, exactly, stein))

    @staticmethod
    def all_true() -> "FillabilityFlags":
        return FillabilityFlags(True, True, True, True)

    @staticmethod
    def all_false() -> "FillabilityFlags":
        return FillabilityFlags(False, False, False, False)

    def as_dict(self) -> dict:
        def show(x: TriState) -> str:
            return "unknown" if x is None else ("true" if x else "false")
        return {name: show(x) for name, x in self._asdict().items()}


def _close(w: TriState, s: TriState, e: TriState, st: TriState):
    """Monotone closure: stein => exactly => symplectically => weakly,
    and the contrapositive chain downward for False."""
    if st is True:
        e = True
    if e is True:
        s = True
    if s is True:
        w = True
    if w is False:
        s = False
    if s is False:
        e = False
    if e is False:
        st = False
    return w, s, e, st


def fillability_propagate(f1: FillabilityFlags, f2: FillabilityFlags,
                          page_stein: bool, dim: int,
                          weak_h2_ok: TriState) -> FillabilityFlags:
    """Flags of a Liouville sum along a page shared by two manifolds: True in
    each sense both are known fillable in and a sum keeps (weakly in dim 3 or
    under the H^2 condition, Stein on a Stein page); otherwise unknown."""
    kept = (dim == 3 or weak_h2_ok is True, True, True, page_stein)
    return FillabilityFlags(*(True if a is True and b is True and ok else None
                              for a, b, ok in zip(f1, f2, kept)))


# ---------------------------------------------------------------------------
# Manifold descriptors
# ---------------------------------------------------------------------------

class Glued(NamedTuple):
    """A manifold glued along ``page``, with no open book, named ``label``."""

    page: PageSpec
    label: str

    def __str__(self):
        return str(("glued", self.label))


class ManifoldDescriptor(NamedTuple):
    """A symbolic contact manifold: an open book or a manifold glued along a
    page (of dimension 2 half_dim + 1), fillability flags, and an operation
    history (which holds a catalog manifold's name), which is provenance only:
    constructions extend it, ``serialize`` formats it, and nothing decides on it."""

    presentation: OpenBook | Glued
    flags: FillabilityFlags
    history: tuple[tuple, ...] = ()

    @property
    def dim(self) -> int:
        return 2 * self.presentation.page.half_dim + 1

    @property
    def open_book(self) -> Optional[OpenBook]:
        return self.presentation if isinstance(self.presentation, OpenBook) else None

    @property
    def word(self) -> Optional[MonodromyWord]:
        return ob.word if (ob := self.open_book) is not None else None

    def word_equals(self, other: "ManifoldDescriptor") -> bool:
        """Sufficient, never necessary, for equality of the manifolds: equal open
        books (pages equal in every field, equal reduced words), neither glued."""
        return (ob := self.open_book) is not None and ob == other.open_book

    def serialize(self) -> str:
        """Deterministic structured text (sorted-key JSON)."""
        import json

        def enc(obj):
            if isinstance(obj, OpenBook):
                return {"kind": "open_book",
                        "page": {"name": obj.page.name,
                                 "half_dim": obj.page.half_dim,
                                 "handles": list(map(list, obj.page.handles)),
                                 "stein": obj.page.stein,
                                 "spheres": list(obj.page.spheres)},
                        "word": [list(l) for l in obj.word.letters]}
            return ["glued", obj.label]

        payload = {
            "dim": self.dim,
            "presentation": enc(self.presentation),
            "flags": self.flags.as_dict(),
            "history": [[str(x) for x in ev] for ev in self.history],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def __str__(self):
        pres = str(self.presentation)
        return f"M(dim={self.dim}, {pres}, flags={self.flags.as_dict()})"


def default_open_book_flags(ob: OpenBook,
                            propagated=FillabilityFlags()) -> FillabilityFlags:
    """The one flag rule, on the open book a construction results in: a Stein
    page with a positive word bounds a Stein domain (page filtration plus one
    Weinstein handle per letter, along its sphere parametrized as the letter
    says: the paper's connect sum generalizes handle attachment); (D*S^n,
    tau^-1) = M(n, -1) in the ``std`` letter, a negative stabilization of the
    standard sphere, has vanishing contact homology (Bourgeois & van Koert,
    Commun. Contemp. Math. 12 (2010)), so it is not fillable; anything else,
    an ``s@p`` letter too, keeps the ``propagated`` flags."""
    if ob.page.stein and ob.word.is_positive():
        return FillabilityFlags(stein=True)
    if ob == _catalog_book(ob.page.half_dim, -1):
        return FillabilityFlags.all_false()
    return propagated


def open_book_descriptor(ob: OpenBook) -> ManifoldDescriptor:
    return ManifoldDescriptor(ob, default_open_book_flags(ob))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _sum_flags(f1: FillabilityFlags, f2: FillabilityFlags,
               result: OpenBook) -> FillabilityFlags:
    """Flags of a Liouville sum of manifolds flagged f1 and f2 that gives the
    open book ``result``: the rule on ``result``, given what propagates."""
    return default_open_book_flags(result, fillability_propagate(
        f1, f2, result.page.stein, result.dim, result.page.weak_h2_ok))


def liouville_sum_openbooks(ob1: OpenBook, ob2: OpenBook) -> ManifoldDescriptor:
    """Sum of two open books over the same page: compose the monodromies."""
    if ob1.page != ob2.page:
        raise DomainError(
            f"Liouville sum needs a shared page: {ob1.page.name} vs {ob2.page.name}")
    composed = OpenBook(ob1.page, ob1.word * ob2.word)
    flags = _sum_flags(default_open_book_flags(ob1),
                       default_open_book_flags(ob2), composed)
    return ManifoldDescriptor(composed, flags, (("liouville_sum", ob1, ob2),))


@functools.lru_cache(maxsize=256)
def _catalog_book(n: int, k: int) -> OpenBook:
    """(D*S^n, tau^k), built once per (n, k) and without ``reduce_word``, so a
    cache hit and a miss make the same calls."""
    return OpenBook(disk_cotangent_page(n),
                    MonodromyWord(((ZERO_SECTION, k),) if k else ()))


def catalog_M_nk(n: int, k: int) -> ManifoldDescriptor:
    """The catalog family: open book (D*S^n, tau^k) on the zero section.

    k=1 is the standard contact sphere, k=0 the boundary of D^2 x D*S^n,
    k=2 the canonical unit cotangent bundle S*S^{n+1}, k=-1 the standard
    smooth sphere with a non-fillable contact structure.  The flags are the
    rule's: Stein for k >= 0, all False at k = -1, unknown below.
    """
    if n < 1:
        raise DomainError("catalog needs n >= 1")
    ob = _catalog_book(n, k)
    names = {1: f"S^{2*n+1}_std", 0: f"bd(D2xD*S{n})", 2: f"S*S{n+1}_can",
             -1: f"S^{2*n+1}_nonfillable"}
    return ManifoldDescriptor(ob, default_open_book_flags(ob),
                              (("catalog", names.get(k, f"M({n},{k})"), n, k),))


def contact_surgery(m: ManifoldDescriptor, sphere: str, k: int,
                    parameter: str = "std") -> ManifoldDescriptor:
    """Contact (1/k)-surgery on a labeled Legendrian sphere.

    Recorded as the Liouville sum with M(n, -k) along ``sphere``, one of the
    page's spheres: an open book's monodromy picks up sphere^{-k}, a glued
    manifold stays glued.  For n >= 2 a ``parameter`` other than ``std`` (the
    sphere's parametrization: no blanks, '@' or '^') makes the letter
    ``sphere@parameter``; for n = 1 it is ignored, as Diff(S^1) ~ O(2).
    """
    if k == 0:
        raise DomainError("surgery coefficient k must be nonzero")
    page, ob = m.presentation.page, m.open_book
    if sphere not in page.spheres:
        raise DomainError(f"unknown sphere label {sphere!r}")
    if not page.carries(f"{sphere}@{parameter}"):
        raise DomainError(f"surgery parameter {parameter!r} is empty or holds a blank, @ or ^")
    n = page.half_dim
    event = ("surgery", sphere, k, parameter, f"liouville_sum M({n},{-k})")
    summand = default_open_book_flags(_catalog_book(n, -k))
    if ob is not None:
        letter = sphere if n == 1 or parameter == "std" else f"{sphere}@{parameter}"
        presentation = OpenBook(page, ob.word * word((letter, -k)))
        flags = _sum_flags(m.flags, summand, presentation)
    else:
        presentation = Glued(page, f"surgery({sphere},{k})")
        flags = fillability_propagate(m.flags, summand, False, m.dim, None)
    return ManifoldDescriptor(presentation, flags, m.history + (event,))


def surgery_compose(ks: list[int]) -> Optional[int]:
    """Iterated (1/p_i)-surgeries on push-offs combine to 1/(sum p_i);
    a zero sum means no surgery at all (returns None)."""
    if not ks:
        raise DomainError("empty surgery list")
    if any(k == 0 for k in ks):
        raise DomainError("surgery coefficients must be nonzero")
    total = sum(ks)
    return total if total != 0 else None


def branched_cover(m: ManifoldDescriptor, hypersurface: str, q: int) -> ManifoldDescriptor:
    """q-fold cyclic cover branched over the binding: q copies joined by
    q-1 Liouville sums along pages, so the monodromy becomes the q-th power.
    The flags are those of a sum of copies of m, and m's history is kept."""
    if q < 1:
        raise DomainError("cover degree must be >= 1")
    ob = m.open_book
    if ob is None or hypersurface not in ("binding", "page"):
        raise DomainError(
            f"branched cover supported over open-book pages/bindings only, "
            f"got {hypersurface!r}")
    if q == 1:
        return m._replace(history=m.history + (
            ("branched_cover", hypersurface, 1, "identity"),))
    # The last of the q - 1 sums adds one copy to the other q - 1.
    rest = OpenBook(ob.page, ob.word ** (q - 1))
    composed = OpenBook(ob.page, rest.word * ob.word)
    history = m.history + (
        ("liouville_sum", rest, ob),
        ("branched_cover", hypersurface, q, f"{q - 1} liouville sums"),
        ("cobordism", "exact" if m.flags.exactly else "recorded",
         f"disjoint union of {q} copies to cover"))
    return ManifoldDescriptor(composed, _sum_flags(m.flags, m.flags, composed), history)


def fibered_manifold(page: PageSpec, phi: MonodromyWord,
                     psi: MonodromyWord) -> ManifoldDescriptor:
    """The fibered manifold determined by a page and two monodromy words:
    one Liouville sum performed on the open book (page, phi o psi), using
    only what the word itself certifies about the base open book."""
    base = OpenBook(page, phi * psi)
    flags = fillability_propagate(default_open_book_flags(base),
                                  FillabilityFlags.all_true(), page.stein,
                                  base.dim, page.weak_h2_ok)
    if phi.is_identity() and psi.is_identity():
        label = f"bd({page.name} x D*S1)"
    else:
        label = f"fibered({page.name},{phi},{psi})"
    return ManifoldDescriptor(Glued(page, label), flags, (
        ("fibered", page.name, phi, psi),
        ("liouville_sum_on", base)))
