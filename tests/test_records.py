"""Value semantics of the package's immutable records.

Each record is equal to another exactly when both are of the same class and
their fields are equal, hashes like the tuple of its fields when every field
is hashable, cannot be assigned to, and checks its fields when it is built.
"""

from __future__ import annotations

from collections import Counter

import pytest

from qsatake import equivalence, modtools, qsl2, satake, zigzag
from qsatake.characters import (
    AFFINE_SPACE,
    COMPLEMENT_PAIR,
    POINT,
    CellDescriptor,
    simple_char,
)
from qsatake.errors import DomainError, InternalInconsistencyError
from qsatake.linalg import QMatrix
from qsatake.record import Record


def _fields(record, names):
    return tuple(getattr(record, name) for name in names)


def _cases():
    """(record, field names, a record of the same class with other fields)."""
    m = qsl2.simple(1)
    qsl2._spun_source(m)  # kept in its _spin slot, which is no field
    other_m = modtools.projective(0)
    cell = CellDescriptor(AFFINE_SPACE, 2, True)
    return [
        (m, ("weights", "e", "f", "e2", "f2"), other_m),
        (equivalence.hom_quiver(1), ("n", "modules", "homs"), equivalence.hom_quiver(0)),
        (zigzag.make(1), ("n", "basis", "mult"), zigzag.make(2)),
        (cell, ("kind", "dimension", "sign_action"), CellDescriptor(POINT, 0, False)),
        (
            satake.formal("projective", 3, "+"),
            ("kind", "n", "sign", "character", "jh", "standard_filtration"),
            satake.formal("projective", 3, "-"),
        ),
    ]


CASES = _cases()
IDS = [type(record).__name__ for record, _, _ in CASES]


@pytest.mark.parametrize("record, names, other", CASES, ids=IDS)
class TestValueSemantics:
    def test_equal_by_fields(self, record, names, other):
        rebuilt = type(record)(*_fields(record, names))
        assert rebuilt is not record
        assert rebuilt == record and not rebuilt != record
        assert record != other

    def test_never_equal_across_classes(self, record, names, other):
        class Same(type(record)):
            pass

        assert record != _fields(record, names)
        assert Same(*_fields(record, names)) != record
        assert record != Same(*_fields(record, names))

    def test_hash_is_the_field_tuple_hash(self, record, names, other):
        values = _fields(record, names)
        try:
            expected = hash(values)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_assignment_raises(self, record, names, other):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == type(record)(*_fields(record, names))

    def test_repr_names_every_field(self, record, names, other):
        text = repr(record)
        assert text.startswith(type(record).__name__ + "(")
        for name in names:
            assert f"{name}={getattr(record, name)!r}" in text


class TestUnderscoreSlots:
    """A slot named with a leading ``_`` holds a value kept on the record,
    such as ``QMod._spin``: it is no field."""

    class Memo(Record):
        __slots__ = ("x", "_memo")

    def test_not_a_field(self):
        a = self.Memo(1)
        with pytest.raises(TypeError, match="takes 1 fields, got 2"):
            self.Memo(1, 2)
        with pytest.raises(AttributeError):
            a._memo
        b = self.Memo(1)
        object.__setattr__(b, "_memo", "kept")
        assert a == b and hash(a) == hash(b) == hash((1,))
        assert repr(b) == repr(a) == "TestUnderscoreSlots.Memo(x=1)"
        assert a != self.Memo(2)


def test_cell_descriptor_repr():
    text = repr(CellDescriptor(COMPLEMENT_PAIR, 1, True))
    assert text == "CellDescriptor(kind='complement-pair', dimension=1, sign_action=True)"


class TestConstructorChecks:
    def test_qmod_shape_mismatch(self):
        z = QMatrix.zeros(1, 1)
        with pytest.raises(ValueError):
            qsl2.QMod((0, 2), z, z, z, z)

    def test_cell_descriptor_domain(self):
        with pytest.raises(DomainError):
            CellDescriptor("sphere", 1, True)
        with pytest.raises(DomainError):
            CellDescriptor(COMPLEMENT_PAIR, 0, False)
        with pytest.raises(DomainError):
            CellDescriptor(POINT, 1, False)

    def test_formal_perv_jh_mismatch(self):
        with pytest.raises(InternalInconsistencyError):
            satake.FormalPerv(
                "simple", 2, "+", simple_char(2, "+"), Counter({(0, "+"): 1})
            )

    def test_formal_perv_filtration_mismatch(self):
        good = satake.formal("projective", 3, "+")
        with pytest.raises(InternalInconsistencyError):
            satake.FormalPerv(
                good.kind, good.n, good.sign, good.character, good.jh, ((3, "+"),)
            )

    def test_formal_perv_default_filtration_is_none(self):
        simple = satake.formal("simple", 2, "+")
        built = satake.FormalPerv(
            simple.kind, simple.n, simple.sign, simple.character, simple.jh
        )
        assert built.standard_filtration is None and built == simple
