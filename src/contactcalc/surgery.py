"""Symbolic calculus of open books, Liouville sums, contact (1/k)-surgery,
branched covers, fibered manifolds, and fillability flags.

Monodromy words are formal products of labeled Dehn-twist generators; only
free reduction is imposed (no braid or chain relations), so word equality is
a sufficient — not necessary — criterion for equality of open books.

Fillability flags are tri-state (True / False / None=unknown).  The
propagation rules are one-directional: fillable + fillable stays fillable
(with the Stein case additionally requiring a Stein page, and the weak case
requiring dimension 3 or a cohomological H^2 condition on the page); absence
of a theorem never produces False.  False appears only for the catalog
entry M(n, -1) and the (1/2)-surgery result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .errors import DomainError

TriState = Optional[bool]


# ---------------------------------------------------------------------------
# Monodromy words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyWord:
    """Freely reduced word in labeled twist generators."""

    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for label, exp in self.letters:
            if exp == 0:
                raise DomainError(f"zero exponent on letter {label!r}")
        for (a, _), (b, _) in zip(self.letters, self.letters[1:]):
            if a == b:
                raise DomainError("word is not freely reduced; use reduce_word")

    def __mul__(self, other: "MonodromyWord") -> "MonodromyWord":
        return reduce_word(MonodromyWord.raw(self.letters + other.letters))

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
        return MonodromyWord(tuple((lab, -exp) for lab, exp in reversed(self.letters)))

    def labels(self) -> set[str]:
        return {lab for lab, _ in self.letters}

    def is_identity(self) -> bool:
        return not self.letters

    def is_positive(self) -> bool:
        return all(exp > 0 for _, exp in self.letters)

    @staticmethod
    def raw(letters: Iterable[tuple[str, int]]) -> "MonodromyWord":
        """Bypass the reducedness check (internal; used before reduction)."""
        w = object.__new__(MonodromyWord)
        object.__setattr__(w, "letters", tuple(letters))
        return w

    def __str__(self):
        if not self.letters:
            return "id"
        return " ".join(f"{lab}^{exp}" if exp != 1 else lab
                        for lab, exp in self.letters)


def word(*letters: tuple[str, int]) -> MonodromyWord:
    return reduce_word(MonodromyWord.raw(letters))


def reduce_word(w: MonodromyWord) -> MonodromyWord:
    """Canonical free reduction: merge adjacent equal labels, drop zeros."""
    stack: list[list] = []
    for label, exp in w.letters:
        if stack and stack[-1][0] == label:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        elif exp != 0:
            stack.append([label, exp])
    return MonodromyWord(tuple((lab, exp) for lab, exp in stack))


# ---------------------------------------------------------------------------
# Pages and open books
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PageSpec:
    """A Liouville page: dimension 2n, Weinstein handle counts by index,
    Stein flag, and the labeled spheres usable as twist supports."""

    name: str
    half_dim: int
    handles: tuple[tuple[int, int], ...]  # (index, count)
    stein: bool
    spheres: tuple[str, ...] = ()
    weak_h2_ok: TriState = None  # H^2(page; R) condition for weak sums

    def __post_init__(self):
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
        if self.stein and not self.handles:
            raise DomainError("a Stein page must carry a handle decomposition")

    def handle_count(self, index: int) -> int:
        return sum(c for k, c in self.handles if k == index)


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


@dataclass(frozen=True)
class OpenBook:
    page: PageSpec
    word: MonodromyWord

    def __post_init__(self):
        missing = self.word.labels() - set(self.page.spheres)
        if missing:
            raise DomainError(
                f"word uses labels {sorted(missing)} absent from page "
                f"{self.page.name} spheres")

    @property
    def dim(self) -> int:
        return 2 * self.page.half_dim + 1

    def __str__(self):
        return f"({self.page.name}, {self.word})"


# ---------------------------------------------------------------------------
# Fillability flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FillabilityFlags:
    weakly: TriState = None
    symplectically: TriState = None
    exactly: TriState = None
    stein: TriState = None

    def __post_init__(self):
        w, s, e, st = _close(self.weakly, self.symplectically,
                             self.exactly, self.stein)
        object.__setattr__(self, "weakly", w)
        object.__setattr__(self, "symplectically", s)
        object.__setattr__(self, "exactly", e)
        object.__setattr__(self, "stein", st)

    @staticmethod
    def all_true() -> "FillabilityFlags":
        return FillabilityFlags(True, True, True, True)

    @staticmethod
    def all_false() -> "FillabilityFlags":
        return FillabilityFlags(False, False, False, False)

    @staticmethod
    def unknown() -> "FillabilityFlags":
        return FillabilityFlags()

    def as_dict(self) -> dict:
        def show(x: TriState) -> str:
            return "unknown" if x is None else ("true" if x else "false")
        return {"weakly": show(self.weakly),
                "symplectically": show(self.symplectically),
                "exactly": show(self.exactly),
                "stein": show(self.stein)}


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


def _both(a: TriState, b: TriState) -> TriState:
    """True only when both inputs are known True; otherwise unknown."""
    return True if (a is True and b is True) else None


def fillability_propagate(f1: FillabilityFlags, f2: FillabilityFlags,
                          page_stein: bool, dim: int,
                          weak_h2_ok: TriState) -> FillabilityFlags:
    """Flags of a Liouville sum along a page shared by two manifolds."""
    exactly = _both(f1.exactly, f2.exactly)
    symplectically = _both(f1.symplectically, f2.symplectically)
    stein = _both(f1.stein, f2.stein) if page_stein else None
    weak_ok = (dim == 3) or (weak_h2_ok is True)
    weakly = _both(f1.weakly, f2.weakly) if weak_ok else None
    return FillabilityFlags(weakly, symplectically, exactly, stein)


# ---------------------------------------------------------------------------
# Manifold descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifoldDescriptor:
    """A symbolic contact manifold: open-book or catalog presentation,
    fillability flags, and an operation history."""

    dim: int
    presentation: object  # OpenBook | ("catalog", name) | ("glued", label)
    flags: FillabilityFlags
    history: tuple[tuple, ...] = ()

    @property
    def open_book(self) -> Optional[OpenBook]:
        return self.presentation if isinstance(self.presentation, OpenBook) else None

    @property
    def word(self) -> Optional[MonodromyWord]:
        ob = self.open_book
        return ob.word if ob is not None else None

    def word_equals(self, other: "ManifoldDescriptor") -> bool:
        """Equality of freely reduced monodromy words over the same page.
        Sufficient for equality of the manifolds; never necessary."""
        a, b = self.open_book, other.open_book
        if a is None or b is None:
            return False
        return a.page.name == b.page.name and a.word == b.word

    def serialize(self) -> str:
        """Deterministic structured text (sorted-key JSON)."""
        def enc(obj):
            if isinstance(obj, OpenBook):
                return {"kind": "open_book",
                        "page": {"name": obj.page.name,
                                 "half_dim": obj.page.half_dim,
                                 "handles": list(map(list, obj.page.handles)),
                                 "stein": obj.page.stein,
                                 "spheres": list(obj.page.spheres)},
                        "word": [list(l) for l in obj.word.letters]}
            return list(obj)

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


def default_open_book_flags(ob: OpenBook) -> FillabilityFlags:
    """Flags known for an open book on sight: a Stein page with a word of
    nonnegative twist powers bounds a Weinstein/Stein domain (page filtration
    plus one critical handle per positive twist); anything else is unknown."""
    if ob.page.stein and ob.word.is_positive():
        return FillabilityFlags(stein=True)
    return FillabilityFlags.unknown()


def open_book_descriptor(ob: OpenBook) -> ManifoldDescriptor:
    return ManifoldDescriptor(ob.dim, ob, default_open_book_flags(ob))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _sum_flags(f1: FillabilityFlags, f2: FillabilityFlags,
               result: OpenBook) -> FillabilityFlags:
    """Flags of a Liouville sum of manifolds flagged f1 and f2 that gives the
    open book ``result``: propagated along its page, unless its word already
    certifies more on sight."""
    certified = default_open_book_flags(result)
    if certified.stein is True:
        return certified
    return fillability_propagate(f1, f2, result.page.stein, result.dim,
                                 result.page.weak_h2_ok)


def liouville_sum_openbooks(ob1: OpenBook, ob2: OpenBook) -> ManifoldDescriptor:
    """Sum of two open books over the same page: compose the monodromies."""
    if ob1.page != ob2.page:
        raise DomainError(
            f"Liouville sum needs a shared page: {ob1.page.name} vs {ob2.page.name}")
    composed = OpenBook(ob1.page, ob1.word * ob2.word)
    flags = _sum_flags(default_open_book_flags(ob1),
                       default_open_book_flags(ob2), composed)
    return ManifoldDescriptor(composed.dim, composed, flags,
                              (("liouville_sum", str(ob1), str(ob2)),))


def catalog_M_nk(n: int, k: int) -> ManifoldDescriptor:
    """The catalog family: open book (D*S^n, tau^k) on the zero section.

    k=1 is the standard contact sphere, k=0 the boundary of D^2 x D*S^n,
    k=2 the canonical unit cotangent bundle S*S^{n+1}, k=-1 the standard
    smooth sphere with a non-fillable contact structure.  Only k=-1 has
    catalog flags; the others' flags are what the word certifies on sight.
    """
    if n < 1:
        raise DomainError("catalog needs n >= 1")
    ob = OpenBook(disk_cotangent_page(n), word((ZERO_SECTION, k)))
    names = {1: f"S^{2*n+1}_std", 0: f"bd(D2xD*S{n})", 2: f"S*S{n+1}_can",
             -1: f"S^{2*n+1}_nonfillable"}
    flags = (FillabilityFlags.all_false() if k == -1
             else default_open_book_flags(ob))
    return ManifoldDescriptor(ob.dim, ob, flags,
                              (("catalog", names.get(k, f"M({n},{k})"), n, k),))


def contact_surgery(m: ManifoldDescriptor, sphere: str, k: int,
                    parameter: str = "std") -> ManifoldDescriptor:
    """Contact (1/k)-surgery on a labeled Legendrian sphere.

    Recorded as the Liouville sum with the catalog manifold M(n, -k); when
    ``m`` is an open book and ``sphere`` is its page's zero-section label,
    the monodromy picks up tau^{-k}.  The parametrization id is kept
    verbatim in the history; descriptors with different parameters are never
    identified.
    """
    if k == 0:
        raise DomainError("surgery coefficient k must be nonzero")
    ob = m.open_book
    n = (m.dim - 1) // 2
    event = ("surgery", sphere, k, parameter, f"liouville_sum M({n},{-k})")
    summand = catalog_M_nk(n, -k)
    if ob is not None and sphere in ob.page.spheres:
        presentation = OpenBook(ob.page, ob.word * word((sphere, -k)))
        flags = _sum_flags(m.flags, summand.flags, presentation)
    elif ob is None:
        presentation = ("glued", f"surgery({sphere},{k})")
        flags = fillability_propagate(m.flags, summand.flags, False, m.dim, None)
    else:
        raise DomainError(f"unknown sphere label {sphere!r}")
    if k == 2:
        # (1/2)-surgery: algebraically overtwisted, hence not fillable in
        # any of the four senses.
        flags = FillabilityFlags.all_false()
    return ManifoldDescriptor(m.dim, presentation, flags, m.history + (event,))


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
        return replace(m, history=m.history + (
            ("branched_cover", hypersurface, 1, "identity"),))
    # The last of the q - 1 sums adds one copy to the other q - 1.
    rest = OpenBook(ob.page, ob.word ** (q - 1))
    composed = OpenBook(ob.page, rest.word * ob.word)
    history = m.history + (
        ("liouville_sum", str(rest), str(ob)),
        ("branched_cover", hypersurface, q, f"{q - 1} liouville sums"),
        ("cobordism", "exact" if m.flags.exactly else "recorded",
         f"disjoint union of {q} copies to cover"))
    return ManifoldDescriptor(composed.dim, composed,
                              _sum_flags(m.flags, m.flags, composed), history)


def fibered_manifold(page: PageSpec, phi: MonodromyWord,
                     psi: MonodromyWord) -> ManifoldDescriptor:
    """The fibered manifold determined by a page and two monodromy words:
    one Liouville sum performed on the open book (page, phi o psi), using
    only what the word itself certifies about the base open book."""
    base = OpenBook(page, phi * psi)
    flags = _sum_flags(default_open_book_flags(base),
                       FillabilityFlags.all_true(), base)
    if phi.is_identity() and psi.is_identity():
        label = f"bd({page.name} x D*S1)"
    else:
        label = f"fibered({page.name},{phi},{psi})"
    return ManifoldDescriptor(base.dim, ("glued", label), flags, (
        ("fibered", str(page.name), str(phi), str(psi)),
        ("liouville_sum_on", str(base))))
