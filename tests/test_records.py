"""The frozen value records against dataclass twins.

Each record class is checked against a ``dataclasses.make_dataclass(...,
frozen=True)`` twin with the same fields in the same order, built here:
repr, equality, hashing, immutability, pickling and copying must behave as
the twin's do, and the constructors keep their defaults and validation
errors.
"""

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from scheme_spectra import (
    BadLabel,
    BoundReport,
    Composition,
    CompositionGraphSpec,
    CyclicGroup,
    DomainError,
    FiniteField,
    HammingGraphSpec,
    LPSolution,
    ProbeVerdict,
    RangeError,
    Spectrum,
    SpectrumEntry,
    bound_report,
    composition_spectrum,
    conjecture_probe,
    cyclic,
    finite_field,
    hamming_spectrum,
    lp_two_support,
)

# Each record class with its fields in declaration order; a pair carries the
# field's default.
FIELDS = {
    Composition: ("counts",),
    CyclicGroup: ("q",),
    FiniteField: ("p", "k", "modulus"),
    HammingGraphSpec: ("n", "q", "d"),
    CompositionGraphSpec: ("group", "n", "dcomp"),
    SpectrumEntry: ("label", "eigenvalue", "multiplicity"),
    Spectrum: ("graph", "entries", "regular_degree", "vertex_count"),
    LPSolution: ("n", "q", "d", "coefficients"),
    BoundReport: ("graph", "lower", "upper", "exact", "diagnostics"),
    ProbeVerdict: (
        "verdict",
        "q",
        "n",
        ("reason", None),
        ("minimum", None),
        ("conjectured", None),
        ("pattern", None),
        ("achieving", ()),
    ),
}


def _names(cls):
    return [f if isinstance(f, str) else f[0] for f in FIELDS[cls]]


def _twin_class(cls):
    spec = []
    for f in FIELDS[cls]:
        if isinstance(f, str):
            spec.append((f, object))
        else:
            spec.append((f[0], object, dataclasses.field(default=f[1])))
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


TWINS = {cls: _twin_class(cls) for cls in FIELDS}


def _twin(record):
    cls = type(record)
    return TWINS[cls](*(getattr(record, name) for name in _names(cls)))


def _instances():
    # several instances of every class, among them equal but distinct ones
    z3, z5, gf4 = cyclic(3), cyclic(5), finite_field(4)
    directed = CompositionGraphSpec(z5, 4, (2, 1, 0, 0, 1))
    balanced = CompositionGraphSpec(z3, 6, Composition.balanced(3, 6))
    hamming = HammingGraphSpec(6, 3, 4)
    return {
        Composition: [Composition((1, 2, 3)), Composition((1, 2, 3)), Composition((3, 2, 1))],
        CyclicGroup: [z3, cyclic(3), z5, cyclic(7)],
        FiniteField: [gf4, finite_field(4), finite_field(9), FiniteField(2, 2, (1, 1, 1))],
        HammingGraphSpec: [hamming, HammingGraphSpec(6, 3, 4), HammingGraphSpec(6, 3, True)],
        CompositionGraphSpec: [directed, balanced, CompositionGraphSpec(cyclic(3), 6, (2, 2, 2))],
        SpectrumEntry: [
            *composition_spectrum(directed).entries[:3],
            *hamming_spectrum(hamming).entries[:2],
            SpectrumEntry(0, 240, 1),
        ],
        Spectrum: [
            hamming_spectrum(hamming),
            hamming_spectrum(hamming),
            composition_spectrum(balanced),
        ],
        LPSolution: [
            lp_two_support(6, 3, 4),
            LPSolution(6, 3, 4, lp_two_support(6, 3, 4).coefficients),
            lp_two_support(6, 3, 5),
        ],
        BoundReport: [bound_report(hamming), bound_report(hamming), bound_report(balanced)],
        ProbeVerdict: [
            conjecture_probe(3, 6),
            conjecture_probe(3, 6),
            conjecture_probe(3, 3),
            conjecture_probe(2, 2),
        ],
    }


INSTANCES = _instances()


def _outcome(fn):
    # a value, or the type and message of what was raised
    try:
        return "value", fn()
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_repr_equality_and_hash_match_the_dataclass_twin(cls):
    records = INSTANCES[cls]
    twins = [_twin(r) for r in records]
    assert cls.__match_args__ == TWINS[cls].__match_args__ == tuple(_names(cls))
    for record, twin in zip(records, twins):
        assert repr(record) == repr(twin)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))
        # a different class with equal fields is never equal, either way round
        assert (record == twin, twin == record, record != twin) == (False, False, True)
        assert pickle.loads(pickle.dumps(record)) == record
    for (a, ta) in zip(records, twins):
        for (b, tb) in zip(records, twins):
            assert (a == b, a != b) == (ta == tb, ta != tb)
    assert any(a == b for a in records for b in records if a is not b)
    assert any(a != b for a in records for b in records)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_assignment_and_deletion_fail_as_for_the_twin(cls):
    record = INSTANCES[cls][0]
    twin = _twin(record)
    for name in (*_names(cls), "not_a_field"):
        mine = _outcome(lambda: setattr(record, name, 1))
        theirs = _outcome(lambda: setattr(twin, name, 1))
        assert mine == ("AttributeError", f"cannot assign to field {name!r}")
        assert theirs == ("FrozenInstanceError", mine[1])
        mine = _outcome(lambda: delattr(record, name))
        theirs = _outcome(lambda: delattr(twin, name))
        assert mine == ("AttributeError", f"cannot delete field {name!r}")
        assert theirs == ("FrozenInstanceError", mine[1])
    assert repr(record) == repr(twin)


def test_probe_verdict_defaults_match_the_twin():
    verdict = ProbeVerdict("not-applicable", 3, 4)
    twin = TWINS[ProbeVerdict]("not-applicable", 3, 4)
    assert repr(verdict) == repr(twin)
    assert [getattr(verdict, name) for name in _names(ProbeVerdict)] == [
        "not-applicable", 3, 4, None, None, None, None, ()
    ]
    assert ProbeVerdict(verdict="holds", q=3, n=6, minimum=-18).minimum == -18


def test_a_subclass_without_fields_keeps_the_records_methods():
    class Sub(CyclicGroup):
        pass

    class TwinSub(TWINS[CyclicGroup]):
        pass

    a, b, c = Sub(3), Sub(3), Sub(5)
    ta, tb, tc = TwinSub(3), TwinSub(3), TwinSub(5)
    assert repr(a) == repr(ta).replace("TwinSub", "Sub")
    assert (a == b, a == c, hash(a)) == (ta == tb, ta == tc, hash(ta))
    assert (a == cyclic(3), cyclic(3) == a) == (False, False)


def test_validation_normalises_and_refuses_as_before():
    assert Composition([True, 2]).counts == (1, 2)
    assert repr(HammingGraphSpec(True, 2, True)) == "HammingGraphSpec(n=1, q=2, d=1)"
    assert LPSolution(n=1, q=2, d=1, coefficients=[True, 0]).coefficients == (1, 0)
    assert finite_field(4, (3, -1, 1)).modulus == (1, 1, 1)
    spec = CompositionGraphSpec(group=cyclic(3), n=3, dcomp=[1, 1, 1])
    assert spec.dcomp == Composition((1, 1, 1))
    cases = [
        (lambda: Composition((1, -1)), BadLabel, "negative count in (1, -1)"),
        (lambda: LPSolution(2, 2, 1, (1, 1)), DomainError, "need n+1 = 3 coefficients, got 2"),
        (lambda: cyclic(1), DomainError, "cyclic group needs q >= 2, got 1"),
        (lambda: HammingGraphSpec(0, 2, 1), DomainError, "need n >= 1 and q >= 2, got n=0, q=2"),
        (lambda: HammingGraphSpec(3, 1, 1), DomainError, "need n >= 1 and q >= 2, got n=3, q=1"),
        (lambda: HammingGraphSpec(3, 2, 0), RangeError, "distance d=0 outside 1..3"),
        (lambda: HammingGraphSpec(3, 2, 4), RangeError, "distance d=4 outside 1..3"),
        (lambda: HammingGraphSpec(3.0, 2, 1), TypeError, None),
        (
            lambda: CompositionGraphSpec(cyclic(3), 3, (1, 1)),
            BadLabel,
            "composition has 2 parts, expected 3",
        ),
        (
            lambda: CompositionGraphSpec(cyclic(3), 4, (1, 1, 1)),
            BadLabel,
            "composition (1, 1, 1) sums to 3, expected 4",
        ),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as info:
            build()
        if message is not None:
            assert str(info.value) == message



@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_copies_are_equal_records_of_the_same_class_as_for_the_twin(cls):
    for record in INSTANCES[cls]:
        twin = _twin(record)
        for duplicate in (copy.copy, copy.deepcopy):
            mine, theirs = duplicate(record), duplicate(twin)
            assert (type(mine), mine == record, repr(mine)) == (cls, True, repr(record))
            assert (type(theirs), theirs == twin, repr(theirs)) == (type(twin), True, repr(twin))


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_set_stores_values_in_field_order_and_refuses_a_wrong_count(cls):
    count = len(FIELDS[cls])
    record = object.__new__(cls)
    for wrong in (count - 1, count + 1):
        with pytest.raises(ValueError):
            record._set(*range(wrong))
    record._set(*range(count))
    assert [getattr(record, name) for name in _names(cls)] == list(range(count))


def test_a_field_annotated_but_never_stored_fails_at_construction():
    class Extended(CyclicGroup):
        q: int
        extra: int

    with pytest.raises(ValueError):
        Extended(3)


@pytest.mark.parametrize(
    "cls, args, plain, n",
    [
        pytest.param(CyclicGroup, (np.int64(3),), (3,), 45, id="cyclic-numpy-int"),
        pytest.param(
            FiniteField,
            (np.int64(2), np.int64(2), (np.int64(1), True, 1)),
            (2, 2, (1, 1, 1)),
            40,
            id="field-numpy-ints-and-a-bool",
        ),
        pytest.param(CyclicGroup, (3.0,), None, None, id="cyclic-float"),
        pytest.param(CyclicGroup, (np.float64(3),), None, None, id="cyclic-numpy-float"),
        pytest.param(FiniteField, (2.0, 2, (1, 1, 1)), None, None, id="field-float-p"),
        pytest.param(FiniteField, (2, 2.0, (1, 1, 1)), None, None, id="field-float-k"),
        pytest.param(FiniteField, (2, 2, (1.5, 1, 1)), None, None, id="field-float-modulus"),
    ],
)
def test_group_records_refuse_floats_and_store_plain_ints(cls, args, plain, n):
    if plain is None:
        with pytest.raises(TypeError):
            cls(*args)
        return
    group, expected = cls(*args), cls(*plain)
    values = [getattr(group, name) for name in _names(cls)]
    flat = [v for value in values for v in (value if isinstance(value, tuple) else (value,))]
    assert all(type(v) is int for v in flat)
    assert (group == expected, hash(group) == hash(expected)) == (True, True)
    assert repr(group) == repr(expected)
    spec = CompositionGraphSpec(group, n, Composition.balanced(group.order, n))
    assert spec.vertex_count == group.order**n == expected.order**n
    assert json.dumps(spec.describe()) == json.dumps(
        CompositionGraphSpec(expected, n, spec.dcomp).describe()
    )
    assert bound_report(spec).exact == n
