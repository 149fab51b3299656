"""The frozen-record helper against the stdlib dataclass it replaced.

Every class that udmg.records.record decorates gets a twin: the same class
body under dataclasses.dataclass(frozen=True), with WeierstrassCurve's F and
genus declared init=False, repr=False, compare=False as they were.  Objects
from three constructions (the F_5 genus-1 fixture, the GF(16) genus-0
fixture, genus 0 over GF(13) with the point at infinity) and from the
pipeline run on them are copied field by field into twins, which must agree
on signature, repr, hash, equality and frozenness.
"""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from udmg import codes, core, curves, fields, linalg, polys, waveform
from udmg.cli import construction_from_data

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GF13_INF = {"q": 13, "genus": 0, "K": 5,
            "points": ["3", "0", "12", "7", "1", "9", "inf", "2", "4", "5", "6", "8", "10", "11"]}

RECORDS = sorted((cls for mod in (codes, core, curves, fields, linalg, polys, waveform)
                  for cls in vars(mod).values()
                  if isinstance(cls, type) and cls.__module__ == mod.__name__
                  and "__setattr__" in vars(cls)),
                 key=lambda cls: cls.__name__)
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
             "__dict__", "__weakref__"}
INIT_FALSE = {curves.WeierstrassCurve: ("F", "genus")}


def twin_of(cls):
    namespace = {k: v for k, v in vars(cls).items() if k not in GENERATED}
    namespace["__annotations__"] = dict(cls.__annotations__)
    for name in INIT_FALSE.get(cls, ()):
        namespace["__annotations__"][name] = "object"
        namespace[name] = dataclasses.field(init=False, repr=False, compare=False)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


TWINS = {cls: twin_of(cls) for cls in RECORDS}


def as_twin(obj):
    cls = type(obj)
    return TWINS[cls](*(getattr(obj, name) for name in cls.__annotations__))


def collect(obj, found, seen):
    """Every record reachable from obj through fields, tuples, lists and dicts."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if type(obj) in TWINS:
        found.setdefault(type(obj), []).append(obj)
        children = [getattr(obj, name) for name in type(obj).__annotations__]
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = [*obj, *obj.values()]
    else:
        return
    for child in children:
        collect(child, found, seen)


def pipeline(data, with_waveform):
    gc = construction_from_data(data)
    u = gc.udmg
    out = [gc, gc.point_bases, core.verify(u)]
    if u.g > 0:
        out.append(core.verify(core.Udmg(u.field, u.K, u.g - 1, u.matrices)))
    out.append(core.quotient(core.realize(u), (1,) + (0,) * (u.L - 1)))
    out.append(codes.first_column_code(u))
    out.append(codes.bounds(u.K, u.field.q, u.g, lengths=u.lengths, nks=(u.L, u.K, u.g)))
    out.append(fields.FqElement(u.field.q - 1, u.field))
    if gc.curve is not None:
        out.append(curves.local_expand(gc.curve, gc.basis0[-1], gc.points[0], 3))
    if with_waveform:
        scheme = waveform.build_scheme(u)
        mod = scheme.modulator
        out += [scheme, waveform.snr(scheme), waveform.audit_product_distance(scheme),
                waveform.complexify(scheme), waveform.gap_audit_exhaustive(mod),
                waveform.gap_check(mod, (0,) * mod.N, (1,) + (0,) * (mod.N - 1))]
    return out


@pytest.fixture(scope="module")
def instances():
    found, seen = {}, set()
    collect(pipeline(json.loads((FIXTURES / "genus1_f5_construction.json").read_text()), True),
            found, seen)
    collect(pipeline(json.loads((FIXTURES / "genus0_gf16_construction.json").read_text()), False),
            found, seen)
    collect(pipeline(GF13_INF, False), found, seen)
    return {cls: objs[:40] for cls, objs in found.items()}


def outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # noqa: BLE001 - the exception type is what is compared
        return "raises", type(exc)


def test_every_record_class_is_covered(instances):
    assert len(RECORDS) == 25
    assert set(instances) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_signature_matches_the_dataclass(cls):
    def shape(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert shape(cls) == shape(TWINS[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_hash_and_equality_match_the_dataclass(cls, instances):
    objs = instances[cls]
    twins = [as_twin(obj) for obj in objs]
    for obj, tw in zip(objs, twins):
        assert repr(obj) == repr(tw)
        assert outcome(lambda: hash(obj)) == outcome(lambda: hash(tw))
        assert obj.__eq__(tw) is NotImplemented and tw.__eq__(obj) is NotImplemented
        assert obj != tw and obj != object() and not obj == None  # noqa: E711
    for a, ta in zip(objs, twins):
        for b, tb in zip(objs, twins):
            assert (a == b, a != b) == (ta == tb, ta != tb)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_like_the_dataclass(cls, instances):
    obj = instances[cls][0]
    tw = as_twin(obj)
    for name in (*cls.__annotations__, *INIT_FALSE.get(cls, ()), "not_a_field"):
        for target in (obj, tw):
            with pytest.raises(AttributeError) as assigned:
                setattr(target, name, 0)
            with pytest.raises(AttributeError) as deleted:
                delattr(target, name)
            assert str(assigned.value) == f"cannot assign to field {name!r}"
            assert str(deleted.value) == f"cannot delete field {name!r}"


def test_curve_fields_set_after_init_match_the_dataclass(instances):
    for curve in instances[curves.WeierstrassCurve]:
        tw = as_twin(curve)
        assert (curve.F, curve.genus) == (tw.F, tw.genus)
        assert "F=" not in repr(curve) and "genus=" not in repr(curve)
    with pytest.raises(TypeError):
        curves.WeierstrassCurve(fields.make_field(5), 1, 1, F=None)


def test_cached_property_reads_once(instances):
    gc = instances[curves.GoppaConstruction][0]
    assert gc.point_bases is gc.point_bases


def test_post_init_patched_after_import_runs(monkeypatch):
    original = vars(fields.FieldSpec)["__post_init__"]
    seen = []

    def patched(self):
        seen.append(self.p)
        original(self)

    monkeypatch.setattr(fields.FieldSpec, "__post_init__", patched)
    assert fields.FieldSpec(7, 2).modulus is not None
    assert seen == [7]
