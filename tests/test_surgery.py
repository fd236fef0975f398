import random

import pytest
from hypothesis import given, strategies as st

from contactcalc import surgery
from contactcalc.errors import DomainError
from contactcalc.surgery import (FillabilityFlags, ManifoldDescriptor,
                                 MonodromyWord, OpenBook, PageSpec,
                                 ZERO_SECTION, branched_cover, catalog_M_nk,
                                 contact_surgery, default_open_book_flags,
                                 disk_cotangent_page, disk_page,
                                 fibered_manifold, fillability_propagate,
                                 liouville_sum_openbooks, open_book_descriptor,
                                 reduce_word, surgery_compose, word)

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
               FillabilityFlags.unknown()):
        for f2 in (FillabilityFlags.all_true(), FillabilityFlags.all_false(),
                   FillabilityFlags.unknown()):
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
    assert catalog_M_nk(2, -3).flags == FillabilityFlags.unknown()


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


def test_fibered_manifold_identity_label():
    page = disk_cotangent_page(1)
    m = fibered_manifold(page, MonodromyWord(), MonodromyWord())
    assert m.presentation == ("glued", "bd(D*S1 x D*S1)")
    assert m.dim == 3
    m2 = fibered_manifold(page, word((ZERO_SECTION, 1)), MonodromyWord())
    assert "fibered" in m2.presentation[1]


def test_default_flags_from_words():
    page = disk_cotangent_page(1)
    assert default_open_book_flags(
        OpenBook(page, word((ZERO_SECTION, 3)))).stein is True
    assert default_open_book_flags(
        OpenBook(page, word((ZERO_SECTION, -1)))) == FillabilityFlags.unknown()


def test_descriptor_serialize_stable():
    m = catalog_M_nk(1, 1)
    assert m.serialize() == m.serialize()
    assert '"dim": 3' in m.serialize()


def test_word_equals_requires_open_books():
    page = disk_cotangent_page(1)
    m = open_book_descriptor(OpenBook(page, word((ZERO_SECTION, 1))))
    glued = ManifoldDescriptor(3, ("glued", "x"), FillabilityFlags.unknown())
    assert not m.word_equals(glued)
