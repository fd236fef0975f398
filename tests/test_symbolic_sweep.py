"""Golden sweep of the symbolic constructions.

``tests/golden/symbolic_sweep.out`` holds one line per case: the case label,
a tab, and the descriptor's serialization as compact sorted-key JSON; a
refused case gives ``label<TAB>error<TAB>message`` instead.  The sweep covers
the catalog, open-book descriptors, Liouville sums, contact surgery on open
books and on glued (fibered) manifolds, branched covers over the binding and
over the page, and fibered manifolds, on Stein and non-Stein pages and on
D*S2, whose weak-sum H^2 condition is unknown.

A change that moves a byte here changes what the calculus concludes and must
say why.  Regenerate with ``PYTHONPATH=src python tests/test_symbolic_sweep.py``.
"""

import json
import pathlib
from itertools import combinations, product

from contactcalc.errors import DomainError
from contactcalc.surgery import (OpenBook, PageSpec, ZERO_SECTION,
                                 branched_cover, catalog_M_nk, contact_surgery,
                                 disk_cotangent_page, disk_page,
                                 fibered_manifold, genus_one_page,
                                 liouville_sum_openbooks, open_book_descriptor,
                                 word)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "symbolic_sweep.out"

PAGES = [
    disk_cotangent_page(1),
    disk_cotangent_page(2),  # weak_h2_ok is None
    disk_cotangent_page(3),
    disk_page(2),
    genus_one_page(),
    genus_one_page()._replace(name="genus1_ns", stein=False),
    PageSpec("P4_ns", 2, ((0, 1), (1, 1), (2, 1)), False, ("s",),
             weak_h2_ok=True),
]


def _words(page):
    """A few words on the page's spheres: identity, positive, negative and
    (on two-sphere pages) mixed."""
    out = [word()]
    for s in page.spheres[:1]:
        out += [word((s, 1)), word((s, -1)), word((s, 2))]
    if len(page.spheres) > 1:
        a, b = page.spheres[:2]
        out += [word((a, 1), (b, 1)), word((a, 1), (b, -1))]
    return out


def _cases():
    """(label, thunk) pairs; each thunk builds one descriptor."""
    for n, k in product((1, 2, 3), range(-4, 5)):
        yield f"catalog n={n} k={k}", lambda n=n, k=k: catalog_M_nk(n, k)

    for page in PAGES:
        for w in _words(page):
            yield (f"open_book {page.name} [{w}]",
                   lambda page=page, w=w: open_book_descriptor(OpenBook(page, w)))
        for w1, w2 in product(_words(page)[:3], repeat=2):
            yield (f"sum {page.name} [{w1}] + [{w2}]",
                   lambda page=page, w1=w1, w2=w2: liouville_sum_openbooks(
                       OpenBook(page, w1), OpenBook(page, w2)))
        for phi, psi in product(_words(page)[:3], repeat=2):
            yield (f"fibered {page.name} [{phi}] [{psi}]",
                   lambda page=page, phi=phi, psi=psi:
                   fibered_manifold(page, phi, psi))

    for n, k0, k in product((1, 2), (-1, 0, 1, 2), (-2, -1, 1, 2)):
        yield (f"surgery catalog n={n} k={k0} by {k}",
               lambda n=n, k0=k0, k=k: contact_surgery(
                   catalog_M_nk(n, k0), ZERO_SECTION, k))
    for k in (-1, 1, 2):
        yield (f"surgery catalog n=1 k=1 by {k} twisted",
               lambda k=k: contact_surgery(catalog_M_nk(1, 1), ZERO_SECTION, k,
                                           "twisted"))
    for page, k in product(PAGES[4:], (-1, 1, 2)):
        s = page.spheres[0]
        yield (f"surgery {page.name} [{s}] on {s} by {k}",
               lambda page=page, s=s, k=k: contact_surgery(
                   open_book_descriptor(OpenBook(page, word((s, 1)))), s, k))
    for page, k in product(PAGES, (-1, 1, 2)):
        yield (f"surgery fibered {page.name} by {k}",
               lambda page=page, k=k: contact_surgery(
                   fibered_manifold(page, word(), word()), ZERO_SECTION, k))

    sources = {
        "catalog n=1 k=-1": lambda: catalog_M_nk(1, -1),
        "catalog n=1 k=1": lambda: catalog_M_nk(1, 1),
        "catalog n=2 k=2": lambda: catalog_M_nk(2, 2),
        "catalog n=2 k=-2": lambda: catalog_M_nk(2, -2),
        "surgery catalog n=1 k=1 by 2": lambda: contact_surgery(
            catalog_M_nk(1, 1), ZERO_SECTION, 2),
        "sum genus1_ns [a] + [b^-1]": lambda: liouville_sum_openbooks(
            OpenBook(PAGES[5], word(("a", 1))), OpenBook(PAGES[5], word(("b", -1)))),
    }
    for (name, src), over, q in product(sources.items(), ("binding", "page"),
                                        (1, 2, 3, 5)):
        yield (f"cover {name} over {over} q={q}",
               lambda src=src, over=over, q=q: branched_cover(src(), over, q))

    refused = {
        "sum across pages": lambda: liouville_sum_openbooks(
            OpenBook(PAGES[0], word()), OpenBook(PAGES[1], word())),
        "surgery k=0": lambda: contact_surgery(catalog_M_nk(1, 1), ZERO_SECTION, 0),
        "surgery unknown sphere": lambda: contact_surgery(
            catalog_M_nk(1, 1), "nowhere", 1),
        "cover q=0": lambda: branched_cover(catalog_M_nk(1, 1), "binding", 0),
        "cover over fiber": lambda: branched_cover(catalog_M_nk(1, 1), "fiber", 2),
        "cover of fibered": lambda: branched_cover(
            fibered_manifold(PAGES[0], word(), word()), "binding", 2),
        "catalog n=0": lambda: catalog_M_nk(0, 1),
    }
    yield from refused.items()


def sweep_text() -> str:
    lines = []
    for label, build in _cases():
        try:
            m = build()
        except DomainError as exc:
            lines.append(f"{label}\terror\t{exc}")
            continue
        compact = json.dumps(json.loads(m.serialize()), sort_keys=True,
                             separators=(",", ":"))
        lines.append(f"{label}\t{compact}")
    return "\n".join(lines) + "\n"


def test_symbolic_sweep_golden():
    assert sweep_text() == GOLDEN.read_text()


def test_golden_flags_agree_on_equal_open_books():
    # Lines with the same open-book presentation describe one manifold, so no
    # flag may be "true" in one and "false" in the other.
    by_book = {}
    for line in GOLDEN.read_text().splitlines():
        label, text = line.split("\t", 1)
        if text.startswith("error\t"):
            continue
        m = json.loads(text)
        if isinstance(m["presentation"], dict):
            key = json.dumps(m["presentation"], sort_keys=True)
            by_book.setdefault(key, []).append((label, m["flags"]))
    for (a, fa), (b, fb) in (pair for group in by_book.values()
                             for pair in combinations(group, 2)):
        clash = sorted(k for k in fa if {fa[k], fb[k]} == {"true", "false"})
        assert not clash, f"{a!r} and {b!r} disagree on {clash}"


if __name__ == "__main__":
    GOLDEN.write_text(sweep_text())
