#!/usr/bin/env python3
"""Symbolic surgery calculus on open books.

Builds the catalog family M(n, k) = (D*S^n, tau^k), performs contact
(1/k)-surgeries, composes them on push-offs, and checks the branched-cover
composition law, watching the fillability flags as they propagate.
"""

from contactcalc.surgery import (ZERO_SECTION, branched_cover, catalog_M_nk,
                                 contact_surgery, disk_cotangent_page,
                                 fibered_manifold, surgery_compose, word,
                                 MonodromyWord)

# The catalog: open books on the page D*S^n with powers of the zero-section
# twist.  k = 1 is the standard sphere, k = -1 the non-fillable one.
for k in (1, 0, 2, -1):
    m = catalog_M_nk(2, k)
    print(f"M(2,{k:+d}): word = {m.word}, flags = {m.flags.as_dict()}")

# Contact (1/k)-surgery on the zero section appends tau^-k; a (1/-1)-surgery
# on the standard sphere lands on the canonical unit cotangent bundle.
std = catalog_M_nk(2, 1)
after = contact_surgery(std, ZERO_SECTION, -1)
print("\n(1/-1)-surgery on M(2,1):", after.word,
      "== M(2,2)?", after.word_equals(catalog_M_nk(2, 2)))

# (1/2)-surgery on M(2,1) lands on tau^-1, the catalog's non-fillable M(2,-1):
# flags follow the resulting open book, not the surgery coefficient.
bad = contact_surgery(std, ZERO_SECTION, 2)
print("(1/2)-surgery flags:", bad.flags.as_dict())

# Surgeries on push-offs compose coefficients: 1/2 then 1/3 equals 1/5.
print("\ncompose 1/2 then 1/3 -> 1/%s" % surgery_compose([2, 3]))
two_then_three = contact_surgery(contact_surgery(std, ZERO_SECTION, 2),
                                 ZERO_SECTION, 3)
print("word comparison:", two_then_three.word, "vs",
      contact_surgery(std, ZERO_SECTION, 5).word)

# Branched covers over the binding raise the monodromy to the q-th power,
# so chained covers of coprime degree compose.
m = catalog_M_nk(1, 1)
q6 = branched_cover(m, "binding", 6)
q23 = branched_cover(branched_cover(m, "binding", 2), "binding", 3)
print("\nq=6 cover:", q6.word, "| q=2 then q=3:", q23.word,
      "| equal:", q23.word_equals(q6))

# A fibered manifold from a page and two monodromy words; with both words
# trivial it is the boundary of page x D*S^1.
page = disk_cotangent_page(1)
f = fibered_manifold(page, MonodromyWord(), MonodromyWord())
print("\nfibered with trivial words:", f.presentation, f.flags.as_dict())
g = fibered_manifold(page, word((ZERO_SECTION, 1)), MonodromyWord())
print("fibered with one twist:    ", g.presentation)
