"""The package's records are ``typing.NamedTuple``s: a field cannot be
assigned, records with equal fields are equal (and hash alike where every
field hashes), and each record that checks or normalizes its fields does so
on construction, refusing bad fields with ``DomainError``."""

import copy
import importlib
import pkgutil

import numpy as np
import pytest

import contactcalc
from contactcalc.charts import Chart, ChartPoint, Constraint, unit_norm_constraint
from contactcalc.cobordism import Handle, HomologyProfile, SteinObstructionReport
from contactcalc.errors import Checked, DomainError
from contactcalc.forms import OneFormField
from contactcalc.kirby import DottedHandle, KirbyDiagram, TwoHandle, curve, traversal
from contactcalc.reports import ConditionReport, ReportLine
from contactcalc.rounding import RoundingCurve
from contactcalc.scenario import (Cover, Fibered, Kirby, Scenario, Sum, Surgery,
                                  Verify)
from contactcalc.surgery import (FillabilityFlags, Glued, ManifoldDescriptor,
                                 MonodromyWord, OpenBook, PageSpec, genus_one_page)
from contactcalc.twist import CotangentPoint, ProbeReport, PullbackResult, tstar_chart

LINE = Chart("line", ("x",))
CIRCLE = Chart("circle", ("x", "y"), (unit_norm_constraint([0, 1]),))
PAGE = genus_one_page()
WORD = MonodromyWord((("a", 1), ("b", -2)))
BOOK = OpenBook(PAGE, WORD)
K1 = TwoHandle("h1", (curve("K", 1, 1),), "-1")
COORDS = np.array([0.5])
ARRAY = np.zeros((2, 2))


def _identity(x):
    return x


# Record type -> the field values of one record.  Two records built from the
# same values (the same array and function objects) have equal fields.
RECORDS = {
    Sum: (BOOK, BOOK, "t"),
    Surgery: ("m", "zero_section", 2, "t"),
    Cover: ("m", 3, "t"),
    Fibered: (PAGE, WORD, WORD, "t"),
    Kirby: ("cover", PAGE, 2),
    Verify: ("twist", None, None, (("n", 6),)),
    Scenario: ({}, {}, {}, []),
    MonodromyWord: ((("a", 1), ("b", -2)),),
    PageSpec: tuple(genus_one_page()),
    OpenBook: (PAGE, WORD),
    FillabilityFlags: (None, None, True, None),
    Glued: (PAGE, "bd(genus1 x D*S1)"),
    ManifoldDescriptor: (BOOK, FillabilityFlags(stein=True), (("catalog", "x"),)),
    DottedHandle: ("d1", ("p_1", "p_2")),
    TwoHandle: ("h1", (curve("K", 1, 1), traversal("d1")), "1/2"),
    KirbyDiagram: (("L(2,1)",), (DottedHandle("d1", ("p_1", "p_2")),), (K1,), ("note",)),
    Handle: (4, 2, "page 1-handle"),
    HomologyProfile: (((1, ()), (0, (2,)), (1, ())),),
    SteinObstructionReport: (True, 4, 1, "detail"),
    Constraint: ("unit_norm", _identity, _identity),
    Chart: ("line", ("x",), (), -1),
    ChartPoint: (LINE, COORDS),
    OneFormField: ("f", LINE, _identity),
    ConditionReport: (True, 0.5, 1e-8, 3),
    ReportLine: ("metric", 1e-9, 1e-8, True, False),
    PullbackResult: (ARRAY, ARRAY, ARRAY),
    ProbeReport: (0.25, 0.5),
    RoundingCurve: (0.1,),
}
# Records holding a dict, a list or an array do not hash.
UNHASHABLE = {Scenario, ChartPoint, PullbackResult}


@pytest.mark.parametrize("record", RECORDS, ids=lambda t: t.__name__)
def test_field_cannot_be_assigned(record):
    rec, first = record(*RECORDS[record]), record._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, RECORDS[record][0])
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("record", RECORDS, ids=lambda t: t.__name__)
def test_equal_fields_give_equal_records(record):
    a, b = record(*RECORDS[record]), record(*RECORDS[record])
    assert a is not b and a == b and type(a) is record
    if record not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("record", [*RECORDS, CotangentPoint], ids=lambda t: t.__name__)
def test_copy_rebuilds_the_record(record):
    fields = ([1.0, 0.0, 0.0], [0.0, 0.5, 0.0]) if record is CotangentPoint \
        else RECORDS[record]
    rec = record(*fields)
    twin = copy.copy(rec)
    assert type(twin) is record
    if record is CotangentPoint:   # six coords: compare the arrays
        assert twin.chart == rec.chart and np.array_equal(twin.coords, rec.coords)
    else:
        assert twin == rec


def test_cotangent_point_halves_are_read_only_views():
    p = CotangentPoint([1.0, 0.0, 0.0], [0.0, 0.5, 0.0])
    assert p.n == 2 and p.u.base is p.coords and p.v.tolist() == [0.0, 0.5, 0.0]
    with pytest.raises(AttributeError):
        p.u = np.zeros(3)


# The checks each record makes on construction: the record, its bad fields.
REFUSED = [
    (MonodromyWord, ((("a", 0),),)),
    (MonodromyWord, ((("a", 1), ("a", 2)),)),
    (PageSpec, ("p", 0, ((0, 1),), True)),
    (PageSpec, ("p", 1, ((0, 1), (2, 1)), True)),
    (PageSpec, ("p", 1, ((0, 0),), True)),
    (PageSpec, ("p", 1, ((1, 1),), False)),
    (OpenBook, (PAGE, MonodromyWord((("c", 1),)))),
    (DottedHandle, ("d\t1", ("p", "q"))),
    (DottedHandle, ("d:1", ("p", "q"))),
    (DottedHandle, ("d1", ("p", "p"))),
    (TwoHandle, ("h1", (curve("K", 1),), "-1\n")),
    (TwoHandle, ("h1", (), "-1")),
    (TwoHandle, ("h1", (("arc", "K"),), "-1")),
    (KirbyDiagram, ((), (DottedHandle("d", ("p", "q")),) * 2, ())),
    (KirbyDiagram, ((), (), (K1, K1))),
    (KirbyDiagram, ((), (), (TwoHandle("h", (traversal("d9"),), "1"),))),
    (KirbyDiagram, ((), (), (TwoHandle("h", (curve("a:b", 1),), "1"),))),
    (KirbyDiagram, (("DOTTED",), (), ())),
    (KirbyDiagram, ((), (), (), ("two\nlines",))),
    (Handle, (4, 5)),
    (HomologyProfile, (((-1, ()),),)),
    (HomologyProfile, (((1, (1,)),),)),
    (ChartPoint, (LINE, [0.0, 1.0])),
    (ChartPoint, (LINE, [np.nan])),
    (ChartPoint, (CIRCLE, [1.0, 1.0])),
    (CotangentPoint, ([1.0, 0.0], [0.0, 1.0, 0.0])),
    (CotangentPoint, ([1.0, 0.0], [1.0, 0.0])),
]


@pytest.mark.parametrize("record,fields", REFUSED,
                         ids=[f"{r.__name__}-{i}" for i, (r, _) in enumerate(REFUSED)])
def test_construction_refuses_bad_fields(record, fields):
    with pytest.raises(DomainError):
        record(*fields)


def test_construction_normalizes_fields():
    # FillabilityFlags closes its flags, HomologyProfile sorts its torsion,
    # KirbyDiagram sorts its handles by id and ChartPoint holds float arrays.
    assert FillabilityFlags(stein=True) == (True, True, True, True)
    assert FillabilityFlags(weakly=False) == (False, False, False, False)
    assert HomologyProfile(((0, (4, 2)),)).groups == ((0, (2, 4)),)
    d = KirbyDiagram((), (DottedHandle("d2", ("p", "q")), DottedHandle("d1", ("p", "q"))),
                     (TwoHandle("h2", (curve("K", 1),), "1"), K1))
    assert [h.id for h in d.dotted] == ["d1", "d2"]
    assert [h.id for h in d.two_handles] == ["h1", "h2"]
    assert ChartPoint(LINE, [1]).coords.dtype == np.float64


# ``_make`` (which ``_replace`` builds through) builds the record through its
# constructor, so it refuses what construction refuses.  Each case has every
# field, the missing ones from ``_field_defaults``; a CotangentPoint is made
# from (chart, coords), so its cases are spelled that way.
MADE = [(r, (*f, *(r._field_defaults[k] for k in r._fields[len(f):])))
        for r, f in REFUSED if r is not CotangentPoint]
MADE += [(CotangentPoint, (tstar_chart(2), [5.0, 0.0, 0.0, 0.0, 0.0, 0.0])),
         (CotangentPoint, (tstar_chart(5), [1.0, 0.0, 0.0, 0.0, 0.5, 0.0])),
         (CotangentPoint, (Chart("free", tuple("abcdef")), [1.0, 0.0, 0.0, 0.0, 0.5, 0.0]))]


@pytest.mark.parametrize("record,fields", MADE,
                         ids=[f"{r.__name__}-{i}" for i, (r, _) in enumerate(MADE)])
def test_make_refuses_bad_fields(record, fields):
    with pytest.raises(DomainError):
        record._make(fields)


def test_make_normalizes_fields():
    made = FillabilityFlags._make([None, None, None, True])
    assert type(made) is FillabilityFlags and made == FillabilityFlags.all_true()
    p = CotangentPoint._make((tstar_chart(2), [1.0, 0.0, 0.0, 0.0, 0.5, 0.0]))
    assert type(p) is CotangentPoint and p.v.tolist() == [0.0, 0.5, 0.0]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_checked_record_has_a_refused_case():
    # FillabilityFlags only normalizes: every tuple of four tri-states closes.
    for mod in pkgutil.iter_modules(contactcalc.__path__):
        importlib.import_module(f"contactcalc.{mod.name}")
    checked = {c for c in _subclasses(Checked) if c.__module__.startswith("contactcalc.")}
    assert checked - {r for r, _ in REFUSED} == {FillabilityFlags}


# ``_replace`` builds the record again from the replaced fields, so it refuses
# what construction refuses.  A CotangentPoint is built from (u, v), so its
# bad coords stand in for its entry above.
REPLACED = [(r, dict(zip(r._fields, f))) for r, f in REFUSED if r is not CotangentPoint]
REPLACED.append((CotangentPoint, {"coords": np.array([1.0, 1.0, 0.0, 0.0, 0.5, 0.0])}))
# The chart of a CotangentPoint follows from its coords.
REPLACED += [(CotangentPoint, {"chart": tstar_chart(5)}),
             (CotangentPoint, {"chart": Chart("free", tuple("abcdef"))})]


@pytest.mark.parametrize("record,changes", REPLACED,
                         ids=[f"{r.__name__}-{i}" for i, (r, _) in enumerate(REPLACED)])
def test_replace_refuses_bad_fields(record, changes):
    rec = record(*RECORDS.get(record, ([1.0, 0.0, 0.0], [0.0, 0.5, 0.0])))
    with pytest.raises(DomainError):
        rec._replace(**changes)


@pytest.mark.parametrize("flags,changes", [
    (FillabilityFlags(stein=True), {"weakly": False}),
    (FillabilityFlags(stein=True), {"stein": None}),
    (FillabilityFlags(weakly=False), {"stein": True}),
    (FillabilityFlags(), {"exactly": True}),
    (FillabilityFlags(), {"symplectically": False}),
])
def test_replace_keeps_flags_closed(flags, changes):
    replaced = flags._replace(**changes)
    assert type(replaced) is FillabilityFlags
    assert replaced == FillabilityFlags(**{**flags._asdict(), **changes})


def test_replace_normalizes_fields():
    assert HomologyProfile(((0, ()),))._replace(groups=((0, (4, 2)),)).groups == ((0, (2, 4)),)
    d = KirbyDiagram((), (), (K1,))._replace(
        dotted=(DottedHandle("d2", ("p", "q")), DottedHandle("d1", ("p", "q"))))
    assert [h.id for h in d.dotted] == ["d1", "d2"]
    p = CotangentPoint([1.0, 0.0, 0.0], [0.0, 0.5, 0.0])._replace(
        coords=np.array([0.0, 1.0, 0.0, 0.0, 0.0, 2.0]))
    assert type(p) is CotangentPoint and p.v.tolist() == [0.0, 0.0, 2.0]
    p = CotangentPoint([1.0, 0.0, 0.0], [0.0, 0.5, 0.0])._replace(coords=[0, 1, 0, 0, 0, 2])
    assert type(p) is CotangentPoint and p.u.tolist() == [0.0, 1.0, 0.0]
    assert p.chart is tstar_chart(2)
