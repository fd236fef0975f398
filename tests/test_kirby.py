import pathlib

import pytest

from contactcalc.errors import DomainError
from contactcalc.kirby import (DottedHandle, KirbyDiagram, TwoHandle,
                               branched_cover_diagram, curve, parse_diagram,
                               serialize_diagram, surgery_cobordism_diagram,
                               traversal)
from contactcalc.surgery import PageSpec, genus_one_page

DATA = pathlib.Path(__file__).parent / "data"


def test_dotted_handle_validation():
    DottedHandle("d1", ("p_1", "p_2"))
    with pytest.raises(DomainError):
        DottedHandle("d1", ("p_1", "p_1"))


def test_two_handle_validation():
    with pytest.raises(DomainError):
        TwoHandle("h1", (), "1")
    with pytest.raises(DomainError):
        TwoHandle("h1", (("mystery", "x"),), "1")
    with pytest.raises(DomainError):
        curve("a", 1, 3)


def test_diagram_resolves_traversals():
    with pytest.raises(DomainError):
        KirbyDiagram((), (), (TwoHandle("h1", (traversal("ghost"),), "1"),))
    with pytest.raises(DomainError):
        KirbyDiagram((), (DottedHandle("d1", ("a", "b")),
                          DottedHandle("d1", ("c", "d"))), ())


def test_diagram_sorts_by_id():
    d = KirbyDiagram((), (DottedHandle("d2", ("a", "b")),
                          DottedHandle("d1", ("c", "e"))),
                     (TwoHandle("h2", (curve("a", 1),), "1"),
                      TwoHandle("h1", (curve("b", 1),), "1")))
    assert [x.id for x in d.dotted] == ["d1", "d2"]
    assert [h.id for h in d.two_handles] == ["h1", "h2"]


def test_branched_cover_q2_counts():
    d = branched_cover_diagram(genus_one_page(), (), 2)
    assert len(d.dotted) == 1
    assert len(d.two_handles) == 2
    words = {h.id: h.attaching_word for h in d.two_handles}
    assert words["h1a"] == (curve("a", 1, 1), curve("a", 2, -1))
    assert words["h1b"] == (curve("b", 1, 1), curve("b", 2, -1))


def test_branched_cover_q3_counts():
    d = branched_cover_diagram(genus_one_page(), (), 3)
    assert len(d.dotted) == 2
    assert len(d.two_handles) == 4


def test_branched_cover_label_arity():
    fewer_spheres = genus_one_page()._replace(spheres=("a",))
    with pytest.raises(DomainError, match="2 1-handles but 1 core-curve"):
        branched_cover_diagram(fewer_spheres, (), 2)
    two_zero_handles = PageSpec("two0", 1, ((0, 2), (1, 2)), True, ("a", "b"))
    with pytest.raises(DomainError, match="one page 0-handle"):
        branched_cover_diagram(two_zero_handles, (), 2)


def test_branched_cover_needs_surface_page():
    # The dim-4 page's 2-handle has no place in the diagram.
    page = PageSpec("big", 2, ((0, 1), (2, 1)), True)
    with pytest.raises(DomainError, match="surface page"):
        branched_cover_diagram(page, (), 2)


def test_surgery_diagram_k_minus_one():
    d = surgery_cobordism_diagram(-1)
    assert d.dotted == ()
    assert len(d.two_handles) == 1
    assert d.two_handles[0].coefficient == "-1"


def test_surgery_diagram_general_k():
    d = surgery_cobordism_diagram(3)
    assert len(d.dotted) == 1
    h = d.two_handles[0]
    assert h.coefficient == "1/3"
    assert sum(1 for l in h.attaching_word if l[0] == "dotted") == 2
    with pytest.raises(DomainError):
        surgery_cobordism_diagram(0)


def test_surgery_diagram_k2_trefoil_note():
    d = surgery_cobordism_diagram(2)
    assert any("trefoil" in note for note in d.notes)


def test_round_trip_byte_exact():
    for d in (branched_cover_diagram(genus_one_page(), ("base line",), 3),
              surgery_cobordism_diagram(2),
              surgery_cobordism_diagram(-1)):
        text = serialize_diagram(d)
        assert serialize_diagram(parse_diagram(text)) == text


@pytest.mark.parametrize("line", ["BASE", "DOTTED", "2HANDLES", "NOTES", "a\nb",
                                  "trailing\n", "a\rb", "a\x0bb", "a\u2028b"])
def test_diagram_refuses_base_and_note_lines_that_do_not_parse_back(line):
    # Each would be read back as a section header or as two lines.
    with pytest.raises(DomainError, match="line"):
        branched_cover_diagram(genus_one_page(), (line,), 2)
    with pytest.raises(DomainError, match="line"):
        KirbyDiagram((), (), (), notes=(line,))


@pytest.mark.parametrize("label", ["a:b", "a b", "a\tb", "a\nb", ""])
def test_diagram_refuses_curve_labels_that_do_not_parse_back(label):
    with pytest.raises(DomainError, match="curve label"):
        KirbyDiagram((), (), (TwoHandle("h1", (curve(label, 1),), "-1"),))


@pytest.mark.parametrize("make", [
    lambda: DottedHandle("d\t1", ("a", "b")),
    lambda: DottedHandle("d:1", ("a", "b")),  # its letter is dotted:d:1
    lambda: TwoHandle("h1", (curve("K", 1),), "1\t2"),
    lambda: DottedHandle("d1", ("a", "b\nNOTES")),
    lambda: TwoHandle("h\u20281", (curve("K", 1),), "-1"),
], ids=["dotted-id-tab", "dotted-id-colon", "coefficient-tab",
        "anchor-newline", "two-handle-id-line-separator"])
def test_handles_refuse_fields_that_do_not_parse_back(make):
    # Each field would be split at the tab or line break, or (a dotted id
    # with ':') make its traversal letter unreadable, on parsing back.
    with pytest.raises(DomainError):
        make()


def test_carried_text_parses_back():
    # Underscores in labels are fine (the copy index follows the last one),
    # as are blanks, tabs and colons in base and note text.
    page = PageSpec("g", 1, ((0, 1), (1, 2)), True, ("a_1", "b__c"))
    d = branched_cover_diagram(page, ("KIRBY 1", "", "x\ty: z"), 3)
    text = serialize_diagram(d)
    assert parse_diagram(text) == d
    assert serialize_diagram(parse_diagram(text)) == text


def test_golden_file_stable():
    d = branched_cover_diagram(genus_one_page(),
                               ("L(2,1) as -2 surgery on unknot",), 2)
    golden = (DATA / "branched_cover_q2.kirby").read_text()
    assert serialize_diagram(d) == golden
    assert serialize_diagram(parse_diagram(golden)) == golden


def test_parse_rejects_malformed():
    with pytest.raises(DomainError):
        parse_diagram("not a diagram\n")
    with pytest.raises(DomainError):
        parse_diagram("KIRBY 1\nstray line\n")
    with pytest.raises(DomainError):
        parse_diagram("KIRBY 1\nBASE\nDOTTED\nonly_two\tfields\n2HANDLES\nNOTES\n")
    with pytest.raises(DomainError):
        parse_diagram("KIRBY 1\nBASE\nDOTTED\n2HANDLES\nh1\t-1\tcurve:a_x:+\nNOTES\n")
