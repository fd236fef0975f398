import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from contactcalc import surgery
from contactcalc.errors import DomainError
from contactcalc.surgery import (FillabilityFlags, Glued, ManifoldDescriptor,
                                 MonodromyWord, OpenBook, PageSpec,
                                 ZERO_SECTION, branched_cover, catalog_M_nk,
                                 contact_surgery, default_open_book_flags,
                                 disk_cotangent_page, disk_page,
                                 fibered_manifold, fillability_propagate,
                                 genus_one_page, liouville_sum_openbooks,
                                 open_book_descriptor, reduce_word,
                                 surgery_compose, word)

TRI = (True, False, None)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def test_word_reduction_merges_and_cancels():
    w = word(("a", 2), ("a", 3), ("b", 1), ("b", -1), ("a", -5))
    assert w.is_identity()
    assert str(w) == "id"
    assert str(word(("a", 1), ("b", -2))) == "a b^-2"


def test_word_inverse_and_power():
    w = word(("a", 2), ("b", 1))
    assert (w * w.inverse()).is_identity()
    assert w ** 3 == w * w * w
    assert w ** -1 == w.inverse()
    assert (w ** 0).is_identity()


def _iterated_power(w, k):
    """w ** k as |k| - 1 products, each reduced (the definition)."""
    base = w if k >= 0 else w.inverse()
    out = MonodromyWord()
    for _ in range(abs(k)):
        out = out * base
    return out


@pytest.mark.parametrize("k", list(range(-7, 8)) + [50])
def test_word_power_matches_iterated_product(k):
    # Words that cancel against their own powers (a b a^-1 style) as well as
    # ones that merge at the seam (a ... a).
    rnd = random.Random(k)
    for _ in range(20):
        letters = [(rnd.choice("abc"), rnd.choice([-2, -1, 1, 2]))
                   for _ in range(rnd.randint(0, 6))]
        w = word(*letters)
        assert w ** k == _iterated_power(w, k)


def test_word_power_reduces_its_conjugate_form_once(monkeypatch):
    # w = c r c^-1 with c = a and r = b^2, so w^k = a b^(2k) a^-1: one
    # reduction of three letters, whatever k is, not of the |k|-fold
    # concatenation.
    w = word(("a", 1), ("b", 2), ("a", -1))
    want = [word(("a", 1), ("b", 80), ("a", -1)),
            word(("a", 1), ("b", -2 * 10 ** 9), ("a", -1))]
    calls = []

    def counted(raw):
        calls.append(len(raw.letters))
        return reduce_word(raw)

    monkeypatch.setattr(surgery, "reduce_word", counted)
    assert [w ** 40, w ** -10 ** 9] == want
    assert calls == [3, 3]


def test_word_rejects_unreduced_construction():
    with pytest.raises(DomainError):
        MonodromyWord((("a", 1), ("a", 2)))
    with pytest.raises(DomainError):
        MonodromyWord((("a", 0),))


def test_word_positivity():
    assert word(("a", 2), ("b", 1)).is_positive()
    assert not word(("a", -1)).is_positive()
    assert MonodromyWord().is_positive()


_letters = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-3, 3).filter(bool)),
    max_size=12)


@given(_letters)
def test_reduce_word_idempotent(letters):
    w = reduce_word(MonodromyWord.raw(tuple(letters)))
    assert reduce_word(w) == w


@given(_letters, _letters, _letters)
def test_word_multiplication_associative(a, b, c):
    wa = reduce_word(MonodromyWord.raw(tuple(a)))
    wb = reduce_word(MonodromyWord.raw(tuple(b)))
    wc = reduce_word(MonodromyWord.raw(tuple(c)))
    assert (wa * wb) * wc == wa * (wb * wc)


@given(_letters, st.integers(-6, 6))
def test_word_power_is_the_reduced_concatenation(letters, k):
    w = reduce_word(MonodromyWord.raw(tuple(letters)))
    base = w if k >= 0 else w.inverse()
    assert w ** k == reduce_word(MonodromyWord.raw(base.letters * abs(k)))


@given(_letters)
def test_word_inverse_cancels(letters):
    w = reduce_word(MonodromyWord.raw(tuple(letters)))
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


def _reduced(letters):
    return reduce_word(MonodromyWord.raw(tuple(letters)))


@given(_letters, _letters, _letters)
def test_product_equals_the_reduced_concatenation(x, y, z):
    # a = x y against y^-1 z cancels at least y at the seam (all of b when z
    # is empty), against a^-1 everything, and against z whatever meets.
    a = _reduced(x + y)
    for b in (_reduced([(lab, -e) for lab, e in reversed(y)] + z), a.inverse(),
              _reduced(z)):
        out = a * b
        assert out == reduce_word(MonodromyWord.raw(a.letters + b.letters))
        assert MonodromyWord(out.letters) == out   # passes the public check


def test_product_does_not_reduce(monkeypatch):
    calls = []
    monkeypatch.setattr(surgery, "reduce_word", lambda w: calls.append(w))
    a = MonodromyWord((("a", 2), ("b", 1), ("c", -1)))
    b = MonodromyWord((("c", 1), ("b", -1), ("a", 3), ("c", 1)))
    assert a * b == MonodromyWord((("a", 5), ("c", 1)))
    assert (a * a.inverse()).is_identity() and a * MonodromyWord() == a
    assert calls == []


# ---------------------------------------------------------------------------
# Pages and open books
# ---------------------------------------------------------------------------

def test_page_validation():
    with pytest.raises(DomainError):
        PageSpec("bad", 1, ((1, 1),), False)      # no 0-handle
    with pytest.raises(DomainError):
        PageSpec("bad", 1, ((0, 1), (2, 1)), False)  # index above half_dim


def test_disk_cotangent_page():
    page = disk_cotangent_page(3)
    assert page.half_dim == 3
    assert page.handle_count(0) == 1 and page.handle_count(3) == 1
    assert page.stein and page.weak_h2_ok is True
    assert disk_cotangent_page(2).weak_h2_ok is None
    assert disk_page(2).handles == ((0, 1),)


def test_open_book_checks_labels():
    page = disk_cotangent_page(1)
    ob = OpenBook(page, word((ZERO_SECTION, 2)))
    assert ob.dim == 3
    with pytest.raises(DomainError):
        OpenBook(page, word(("mystery", 1)))


# ---------------------------------------------------------------------------
# Fillability flags
# ---------------------------------------------------------------------------

def test_flags_monotone_closure():
    f = FillabilityFlags(stein=True)
    assert f.exactly is True and f.symplectically is True and f.weakly is True
    g = FillabilityFlags(weakly=False)
    assert g.stein is False and g.exactly is False and g.symplectically is False
    h = FillabilityFlags(exactly=True, stein=None)
    assert h.weakly is True and h.stein is None


@pytest.mark.parametrize("w", TRI)
@pytest.mark.parametrize("s", TRI)
@pytest.mark.parametrize("e", TRI)
@pytest.mark.parametrize("t", TRI)
def test_flags_closure_invariant(w, s, e, t):
    f = FillabilityFlags(w, s, e, t)
    chain = (f.stein, f.exactly, f.symplectically, f.weakly)
    for lower, higher in zip(chain, chain[1:]):
        if lower is True:
            assert higher is True
        if higher is False:
            assert lower is False


def test_propagate_never_produces_false():
    for f1 in (FillabilityFlags.all_true(), FillabilityFlags.all_false(),
               FillabilityFlags()):
        for f2 in (FillabilityFlags.all_true(), FillabilityFlags.all_false(),
                   FillabilityFlags()):
            out = fillability_propagate(f1, f2, True, 3, True)
            for v in (out.weakly, out.symplectically, out.exactly, out.stein):
                assert v is not False


def test_propagate_stein_needs_stein_page():
    t = FillabilityFlags.all_true()
    assert fillability_propagate(t, t, True, 5, True).stein is True
    assert fillability_propagate(t, t, False, 5, True).stein is None


def test_propagate_weakly_needs_dim3_or_h2():
    t = FillabilityFlags.all_true()
    assert fillability_propagate(t, t, True, 3, None).weakly is True
    assert fillability_propagate(t, t, True, 5, True).weakly is True
    only_weak = FillabilityFlags(weakly=True)
    assert fillability_propagate(only_weak, only_weak, True, 5, None).weakly is None


# ---------------------------------------------------------------------------
# Catalog and operations
# ---------------------------------------------------------------------------

def test_catalog_special_values():
    assert catalog_M_nk(1, 1).flags == FillabilityFlags.all_true()
    assert catalog_M_nk(2, -1).flags == FillabilityFlags.all_false()
    assert catalog_M_nk(2, 0).flags.stein is True
    assert catalog_M_nk(2, 0).word.is_identity()
    assert catalog_M_nk(2, 2).flags.stein is True
    assert catalog_M_nk(2, 3).flags.stein is True
    assert catalog_M_nk(2, -3).flags == FillabilityFlags()


@pytest.mark.parametrize("n", range(1, 9))
def test_catalog_flags_rule_matches_the_catalog(n):
    # The rule on (D*S^n, tau^k): Stein for k >= 0, all False at k = -1,
    # unknown below.
    for k in range(-4, 5):
        want = (FillabilityFlags.all_false() if k == -1
                else FillabilityFlags(stein=True if k >= 0 else None))
        assert catalog_M_nk(n, k).flags == want


def test_surgery_builds_no_catalog_manifold(monkeypatch):
    def refuse(n, k):
        raise AssertionError("contact_surgery built M(n, k)")

    monkeypatch.setattr(surgery, "catalog_M_nk", refuse)
    for k in (-3, -2, -1, 1, 2, 3):
        contact_surgery(catalog_M_nk(2, 1), ZERO_SECTION, k)
        contact_surgery(fibered_manifold(genus_one_page(), MonodromyWord(),
                                         MonodromyWord()), "a", k)


def test_surgery_on_a_glued_manifold_needs_a_sphere_of_its_page():
    # The disk page D2 has no spheres, so no surgery sphere lies in it.
    glued = fibered_manifold(disk_page(1), MonodromyWord(), MonodromyWord())
    with pytest.raises(DomainError, match="unknown sphere label 's'"):
        contact_surgery(glued, "s", 1)
    out = contact_surgery(fibered_manifold(genus_one_page(), MonodromyWord(),
                                           MonodromyWord()), "b", 2)
    assert out.presentation == Glued(genus_one_page(), "surgery(b,2)")
    assert out.dim == 3 and str(out.presentation) == "('glued', 'surgery(b,2)')"


def test_liouville_sum_composes_words():
    page = disk_cotangent_page(2)
    m = liouville_sum_openbooks(OpenBook(page, word((ZERO_SECTION, 2))),
                                OpenBook(page, word((ZERO_SECTION, 3))))
    assert m.word == word((ZERO_SECTION, 5))
    with pytest.raises(DomainError):
        liouville_sum_openbooks(OpenBook(disk_cotangent_page(1), MonodromyWord()),
                                OpenBook(disk_cotangent_page(2), MonodromyWord()))


def test_surgery_appends_inverse_twists():
    m = catalog_M_nk(2, 1)
    out = contact_surgery(m, ZERO_SECTION, -1)
    assert out.word_equals(catalog_M_nk(2, 2))
    assert out.flags.stein is True


def test_surgery_k2_not_fillable():
    out = contact_surgery(catalog_M_nk(1, 1), ZERO_SECTION, 2)
    assert out.flags == FillabilityFlags.all_false()


def test_surgery_parameters_kept_distinct():
    m = catalog_M_nk(1, 1)
    a = contact_surgery(m, ZERO_SECTION, -1, parameter="std")
    b = contact_surgery(m, ZERO_SECTION, -1, parameter="exotic")
    assert a.history[-1][3] == "std" and b.history[-1][3] == "exotic"
    with pytest.raises(DomainError):
        contact_surgery(m, ZERO_SECTION, 0)
    with pytest.raises(DomainError):
        contact_surgery(m, "nope", 1)


def test_surgery_compose():
    assert surgery_compose([2, 3]) == 5
    assert surgery_compose([1, -1]) is None
    with pytest.raises(DomainError):
        surgery_compose([])
    with pytest.raises(DomainError):
        surgery_compose([1, 0])


def test_branched_cover_powers_monodromy():
    m = catalog_M_nk(1, 1)
    c6 = branched_cover(m, "binding", 6)
    assert c6.word == word((ZERO_SECTION, 6))
    c2 = branched_cover(m, "binding", 2)
    c23 = branched_cover(c2, "binding", 3)
    assert c23.word_equals(c6)
    assert branched_cover(m, "binding", 1).word_equals(m)
    with pytest.raises(DomainError):
        branched_cover(m, "elsewhere", 2)


def test_constructions_format_no_word(monkeypatch):
    # The history holds the open books themselves; only ``serialize`` formats
    # them.
    calls = []
    monkeypatch.setattr(MonodromyWord, "__str__", lambda w: calls.append(w) or "w")
    m = catalog_M_nk(1, 1)
    branched_cover(branched_cover(m, "binding", 3), "binding", 2)
    liouville_sum_openbooks(m.open_book, m.open_book)
    assert calls == []


def test_fibered_manifold_identity_label():
    page = disk_cotangent_page(1)
    m = fibered_manifold(page, MonodromyWord(), MonodromyWord())
    assert m.presentation.label == "bd(D*S1 x D*S1)"
    assert m.presentation.page == page and m.dim == 3
    m2 = fibered_manifold(page, word((ZERO_SECTION, 1)), MonodromyWord())
    assert "fibered" in m2.presentation.label and m2.presentation.page == page


def test_default_flags_from_words():
    page = disk_cotangent_page(1)
    assert default_open_book_flags(
        OpenBook(page, word((ZERO_SECTION, 3)))).stein is True
    assert default_open_book_flags(
        OpenBook(page, word((ZERO_SECTION, -1)))) == FillabilityFlags.all_false()


def test_flag_rule_keeps_propagated_flags_elsewhere():
    page, known = disk_cotangent_page(1), FillabilityFlags(exactly=True)
    tau = lambda k: OpenBook(page, word((ZERO_SECTION, k)))  # noqa: E731
    assert default_open_book_flags(tau(-2), known) == known
    assert default_open_book_flags(tau(-2)) == FillabilityFlags()
    assert default_open_book_flags(tau(-1), known) == FillabilityFlags.all_false()
    assert default_open_book_flags(tau(0), known) == FillabilityFlags.all_true()
    # The False is keyed on the catalog's page, not on its name.
    named = PageSpec("D*S1", 1, ((0, 1), (1, 1)), False, (ZERO_SECTION,))
    assert default_open_book_flags(
        OpenBook(named, word((ZERO_SECTION, -1)))) == FillabilityFlags()


def test_surgery_flags_follow_the_resulting_word():
    # (1/2)-surgery on M(2, 3) gives (D*S2, tau), the standard sphere, and on
    # M(2, 2) the identity word of M(2, 0): both Stein, like the catalog.
    for k0, k in ((3, 1), (2, 0)):
        out = contact_surgery(catalog_M_nk(2, k0), ZERO_SECTION, 2)
        assert out.word_equals(catalog_M_nk(2, k))
        assert out.flags == catalog_M_nk(2, k).flags == FillabilityFlags.all_true()


def test_descriptor_serialize_stable():
    m = catalog_M_nk(1, 1)
    assert m.serialize() == m.serialize()
    assert '"dim": 3' in m.serialize()


def test_word_equals_requires_open_books():
    page = disk_cotangent_page(1)
    m = open_book_descriptor(OpenBook(page, word((ZERO_SECTION, 1))))
    glued = ManifoldDescriptor(Glued(page, "x"), FillabilityFlags())
    assert not m.word_equals(glued) and not glued.word_equals(glued)


def test_word_equals_refuses_exotic_surgery_above_dimension_3():
    # For n >= 2 an exotic parametrization of the surgery sphere may change
    # the result, so the surgery adds its own letter; in dimension 3 the
    # parameter is ignored.
    for n in (1, 2, 3):
        m = catalog_M_nk(n, 1)
        a = contact_surgery(m, ZERO_SECTION, 2)
        b = contact_surgery(m, ZERO_SECTION, 2, "twisted")
        certified = n == 1
        assert (a.open_book == b.open_book) is certified
        assert a.word_equals(a) and b.word_equals(b)
        assert a.word_equals(b) is b.word_equals(a) is certified
        assert branched_cover(a, "binding", 2).word_equals(
            branched_cover(b, "binding", 2)) is certified


@pytest.mark.parametrize("k", [1, 3])
def test_exotic_surgery_flags_nothing(k):
    # With the standard parametrization, surgery by 2 on M(2, 1) gives M(2, -1),
    # which is not fillable, and on M(2, 3) gives the Stein M(2, 1).  A twisted
    # parametrization gives another open book, of which nothing is known, and
    # so of its 2-fold cover.
    r = contact_surgery(catalog_M_nk(2, k), ZERO_SECTION, 2, "twisted")
    assert r.word == word((ZERO_SECTION, k), ("zero_section@twisted", -2))
    assert r.word_equals(r)
    assert r.flags == FillabilityFlags()
    cover = branched_cover(r, "binding", 2)
    assert cover.flags == FillabilityFlags()
    assert cover.word == r.word ** 2
    assert "zero_section@twisted" in {lab for lab, _ in cover.word.letters}


def test_an_exotic_letter_never_cancels_the_standard_one():
    w = word(("s", 1)) * word(("s@p", -1))
    assert w.letters == (("s", 1), ("s@p", -1))
    assert word(("s@p", 1), ("s@q", -1)).letters == (("s@p", 1), ("s@q", -1))
    assert (word(("s@p", 2)) * word(("s@p", -2))).is_identity()


def test_an_open_book_takes_the_letters_of_its_spheres():
    page = PageSpec("P", 2, ((0, 1), (2, 1)), True, ("s",))
    assert OpenBook(page, word(("s@p", 1), ("s", -1))).word.letters == (
        ("s@p", 1), ("s", -1))
    for label in ("t@p", "p@s", "s_p", "s@", "s@a@b", "s@x^2", "s@a b"):
        assert not page.carries(label)
        with pytest.raises(DomainError, match="absent from page"):
            OpenBook(page, word((label, 1)))


def test_a_page_refuses_a_sphere_label_with_an_at():
    # Else its plain twist would be the letter of the exotic twist along s.
    page = PageSpec("P", 2, ((0, 1), (2, 1)), True, ("s",))
    for make in (lambda: PageSpec(*page[:4], ("s", "s@p")),
                 lambda: PageSpec._make((*page[:4], ("s", "s@p"), None)),
                 lambda: page._replace(spheres=("s", "s@p"))):
        with pytest.raises(DomainError, match="holds an '@'"):
            make()


@pytest.mark.parametrize("parameter", ["", " ", "a b", "tw\tisted", "x@y", "x^2", "@"])
@pytest.mark.parametrize("n", [1, 2])
def test_surgery_refuses_a_malformed_parameter(n, parameter):
    # Checked on every page, glued ones too, even where the parameter is ignored.
    m = catalog_M_nk(n, 1)
    glued = fibered_manifold(disk_cotangent_page(n), word(), word())
    for target in (m, glued):
        with pytest.raises(DomainError, match="surgery parameter"):
            contact_surgery(target, ZERO_SECTION, 1, parameter)


def test_word_equals_compares_whole_pages():
    # A page named like D*S1 that is not the catalog's: the same name and
    # word, but another open book, and the flag rule keeps them apart too.
    named = PageSpec("D*S1", 1, ((0, 1), (1, 1)), False, (ZERO_SECTION,))
    m = open_book_descriptor(OpenBook(named, word((ZERO_SECTION, -1))))
    assert not m.word_equals(catalog_M_nk(1, -1))
    assert not catalog_M_nk(1, -1).word_equals(m)
    assert m.word_equals(open_book_descriptor(m.open_book))


# ---------------------------------------------------------------------------
# Flags across constructions
# ---------------------------------------------------------------------------

FLAG_PAGES = (disk_cotangent_page(1), disk_cotangent_page(2), disk_page(1),
              genus_one_page(),
              genus_one_page()._replace(name="genus1_ns", stein=False),
              PageSpec("P4_ns", 2, ((0, 1), (1, 1), (2, 1)), False, ("s",),
                       weak_h2_ok=True))
KS = (-3, -2, -1, 1, 2, 3)


def _page_word(draw, page):
    if not page.spheres:
        return word()
    letters = st.tuples(st.sampled_from(page.spheres), st.sampled_from(KS))
    return word(*draw(st.lists(letters, max_size=3)))


def _build(draw, page, depth, built, sums):
    """A descriptor on ``page`` from a random construction with inputs built
    the same way ``depth`` levels down.  Appends every descriptor built to
    ``built``, and each sum performed to ``sums`` as (summand flags, summand
    flags, result, the page's Stein flag, dim, weak_h2_ok)."""
    kinds = ["book"] + (["catalog"] if page.name.startswith("D*S") else [])
    kind = draw(st.sampled_from(kinds + ["sum", "surgery", "cover", "fibered"]
                                if depth else kinds))
    n, dim = page.half_dim, 2 * page.half_dim + 1
    if kind == "catalog":
        out = catalog_M_nk(n, draw(st.sampled_from((0,) + KS)))
    elif kind == "book":
        out = open_book_descriptor(OpenBook(page, _page_word(draw, page)))
    elif kind == "fibered":
        phi, psi = _page_word(draw, page), _page_word(draw, page)
        out = fibered_manifold(page, phi, psi)
        base = open_book_descriptor(OpenBook(page, phi * psi))
        sums.append((base.flags, FillabilityFlags.all_true(), out, page.stein,
                     dim, page.weak_h2_ok))
    else:
        m = _build(draw, page, depth - 1, built, sums)
        ob = m.open_book
        if kind == "sum":
            if ob is None:
                return m
            other = _build(draw, page, depth - 1, built, sums).open_book or ob
            out = liouville_sum_openbooks(ob, other)
            summands = (open_book_descriptor(ob), open_book_descriptor(other))
        elif kind == "surgery":
            k = draw(st.sampled_from(KS))
            sphere = draw(st.sampled_from(page.spheres or ("s",)))
            if sphere not in m.presentation.page.spheres:
                return m
            out = contact_surgery(m, sphere, k, draw(st.sampled_from(("std", "twisted"))))
            summands = (m, catalog_M_nk(n, -k))
        else:
            q = draw(st.integers(1, 4))
            if ob is None or q == 1:
                return m
            over = draw(st.sampled_from(("binding", "page")))
            out = branched_cover(m, over, q)
            summands = (branched_cover(m, over, q - 1), m)
        sums.append((summands[0].flags, summands[1].flags, out,
                     page.stein and ob is not None, dim,
                     page.weak_h2_ok if ob is not None else None))
    built.append(out)
    return out


@st.composite
def _constructions(draw):
    """Descriptors built on one page by every construction, with each sum
    performed on the way (see ``_build``)."""
    page, built, sums = draw(st.sampled_from(FLAG_PAGES)), [], []
    for _ in range(draw(st.integers(1, 3))):
        _build(draw, page, 2, built, sums)
    return built, sums


def _clash(a: FillabilityFlags, b: FillabilityFlags) -> list[str]:
    return [name for name, x, y in zip(a._fields, a, b) if {x, y} == {True, False}]


def _same_open_book(m):
    """Descriptors of m's open book built by other constructions: the open
    book itself, its sum with the identity, each (1/k)-surgery that undoes a
    twist s^k, and for tau^j on D*S^n the catalog's M(n, j)."""
    ob = m.open_book
    out = [open_book_descriptor(ob),
           liouville_sum_openbooks(ob, OpenBook(ob.page, word()))]
    for s in ob.page.spheres:
        out += [contact_surgery(open_book_descriptor(
            OpenBook(ob.page, ob.word * word((s, k)))), s, k) for k in KS]
    j = dict(ob.word.letters).get(ZERO_SECTION, 0)
    if (ob.page == disk_cotangent_page(ob.page.half_dim)
            and ob.word == word((ZERO_SECTION, j))):
        out.append(catalog_M_nk(ob.page.half_dim, j))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_constructions())
def test_equal_words_never_contradict_flags(case):
    # Flags are facts about the manifold: descriptors with one open book
    # (``word_equals``: pages equal in every field and equal words), grouped
    # here by ``m.open_book``, may not call it fillable and not fillable.
    built, _ = case
    by_book = {}
    for m in built + [d for m in built if m.open_book for d in _same_open_book(m)]:
        if m.open_book is not None:
            by_book.setdefault(m.open_book, []).append(m)
    for group in by_book.values():
        for a, b in combinations(group, 2):
            assert a.word_equals(b) and not _clash(a.flags, b.flags), (str(a), str(b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_constructions())
def test_fillable_sums_stay_fillable(case):
    # The paper's monoid: when both summands are known X-fillable, so is the
    # sum, for X exactly or symplectically fillable, Stein on a Stein page,
    # and weakly fillable in dimension 3 or when the page's H^2 condition holds.
    _, sums = case
    for f1, f2, out, page_stein, dim, weak_h2_ok in sums:
        kinds = ["exactly", "symplectically"]
        kinds += ["stein"] * page_stein + ["weakly"] * (dim == 3 or weak_h2_ok is True)
        for x in kinds:
            if getattr(f1, x) is True and getattr(f2, x) is True:
                assert getattr(out.flags, x) is True, (x, str(out))
