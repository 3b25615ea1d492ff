"""The value classes against the frozen dataclasses they replace.

Every value class of the library is checked against a frozen dataclass with
the same name and compared fields, built here: equal hashes (so set and dict
order, and every output byte, stay the same), the same repr, equality only
within one class, no assignment or deletion, and the fields outside the
value (a cache, a back reference) left out of all of it.  Only the classes
whose constructor computes something write one; the others take exactly
their fields, positionally, through ``Value.__init__``.  A fresh interpreter
also checks that importing the library loads neither ``dataclasses`` nor
``inspect``.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import deltacodes
from deltacodes import semigroup
from deltacodes._value import Value, _set
from deltacodes.approximants import ApproximateFamily, BivarPoly, ExpansionStep
from deltacodes.cli import JobConfig
from deltacodes.codes import CodePair, TableRow
from deltacodes.deltaseq import DeltaN, DeltaStructure, validate_n
from deltacodes.genesis import CFValue, CWitness, DeltaQ, DeltaR, DeltaZ2, DWitness
from deltacodes.gf import FieldElement, FieldSpec
from deltacodes.quadratics import QuadExt
from deltacodes.semigroup import LexValue, QuadValue, RatValue, Representation

F7 = FieldSpec(7)
F8 = FieldSpec(2, 3)
TAU = QuadExt(Fraction(1, 2), Fraction(3), 5)

# One instance per class, as its constructor arguments.  The constructors do
# not check types beyond what they compute, so stand-ins keep the reprs short.
CASES = {
    FieldSpec: (2, 3, (1, 1, 0, 1)),
    FieldElement: (F8, (1, 0, 1)),
    QuadExt: (Fraction(1, 2), Fraction(3), 5),
    DeltaStructure: ((2, 1), (2,), ((1, 3),), (3,), False, ((3,),)),
    DeltaN: ((3, 2), "structure"),
    CFValue: (Fraction(7, 2), ((3, 1), (7, 2))),
    CWitness: ("dstar", (2,), (1, 2), (0, 1), ((0, 1),), (1, 0), (1,), 1, (0, 1)),
    DeltaZ2: (((3, 1), (2, 1)), "witness"),
    DWitness: ("dstar", (28, 3, 1), TAU),
    DeltaR: ((Fraction(7, 5), Fraction(1)), TAU, "witness"),
    DeltaQ: (("stage",), (None, (3, 25))),
    LexValue: (4, -1),
    RatValue: (Fraction(9, 2),),
    QuadValue: (Fraction(1, 3), 2, TAU),
    Representation: ((1, 0, 2), (None, 2, None)),
    BivarPoly: (F7, (((1, 0), "c"),)),
    ExpansionStep: (2, (1, 1)),
    ApproximateFamily: (F7, (1, 2), ()),
    CodePair: (RatValue(Fraction(4)), ((1, 2),), 1, ((2, 1),), 1),
    TableRow: ("alpha", (1, 0), 3, 2, None, 1, 0, -4),
    JobConfig: (F7, "N", (3, 2), None, 3, 0, None, (), "jumps", None, "9", None, "semigroup"),
}

# The constructors that compute something (a validation, a coercion, a
# derived attribute); every other class stores its values as they are given.
COMPUTING = {FieldSpec, FieldElement, QuadExt, JobConfig}
# The fewest values a constructor with defaults takes.
FEWEST = {FieldSpec: 1, JobConfig: len(JobConfig._fields) - 1}

# Attributes that are kept on the object but are not part of its value.
EXCLUDED = {
    FieldSpec: ("_t",),
    FieldElement: ("encoded",),
    **{cls: ("_engine",) for cls in (DeltaN, DeltaZ2, DeltaR, DeltaQ)},
}


def make(cls):
    return cls(*CASES[cls])


def fields_of(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value)._fields)


def reference(cls):
    """The frozen dataclass the class stands for, holding the same fields."""
    ref = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    return ref(*fields_of(make(cls)))


def twin(cls):
    """An instance of another value class with the same fields and values."""
    other = type("Twin", (Value,), {"__slots__": cls._fields, "_fields": cls._fields})
    out = object.__new__(other)
    for name, v in zip(cls._fields, fields_of(make(cls))):
        _set(out, name, v)
    return out


CLASSES = sorted(CASES, key=lambda cls: cls.__name__)


def test_every_value_class_has_a_case():
    modules = [
        sys.modules[name]
        for name in sorted(sys.modules)
        if name.startswith("deltacodes.") and name != "deltacodes._value"
    ]
    found = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Value) and obj.__module__ == module.__name__
    }
    assert found == set(CASES)


def test_only_the_computing_constructors_are_written_out():
    assert {cls for cls in CASES if "__init__" in vars(cls)} == COMPUTING


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestValueContract:
    def test_hash_is_the_hash_of_the_compared_fields(self, cls):
        x = make(cls)
        assert hash(x) == hash(fields_of(x)) == hash(reference(cls))

    def test_equal_within_the_class_only(self, cls):
        x, copy = make(cls), make(cls)
        assert x is not copy
        assert x == copy and not x != copy
        assert x != twin(cls) and twin(cls) != x
        assert x != fields_of(x) and x != reference(cls)

    def test_repr_lists_the_compared_fields(self, cls):
        x = make(cls)
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(cls._fields, CASES[cls]))
        assert repr(x) == repr(reference(cls)) == f"{cls.__name__}({shown})"

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        x = make(cls)
        for name in cls._fields + EXCLUDED.get(cls, ()) + ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == make(cls)

    def test_a_wrong_count_of_values_is_a_type_error(self, cls):
        values = CASES[cls]
        with pytest.raises(TypeError, match=rf"\b{cls.__name__}\b"):
            cls(*values, values[-1])
        with pytest.raises(TypeError, match=rf"\b{cls.__name__}\b"):
            cls(*values[: FEWEST.get(cls, len(values)) - 1])

    def test_no_instance_dict_except_for_the_field_tables(self, cls):
        assert hasattr(make(cls), "__dict__") == (cls is FieldSpec)


def test_fields_outside_the_value_take_no_part():
    spec, fresh = FieldSpec(2, 3), FieldSpec(2, 3)
    assert spec._t is not None and "_t" in vars(spec) and "_t" not in vars(fresh)
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
    assert "_t" not in repr(spec)

    e = FieldElement(F8, (1, 0, 1))
    assert e.encoded == 5 and "encoded" not in repr(e)
    assert hash(e) == hash((F8, (1, 0, 1)))

    delta, fresh = validate_n((11, 9)), validate_n((11, 9))
    assert semigroup._engine(delta) is delta._engine and not hasattr(fresh, "_engine")
    assert delta == fresh and hash(delta) == hash(fresh) and repr(delta) == repr(fresh)
    assert "_engine" not in repr(delta)


def test_pinned_reprs():
    assert repr(LexValue(4, -1)) == "LexValue(x=4, y=-1)"
    assert repr(RatValue(Fraction(9, 2))) == "RatValue(value=Fraction(9, 2))"
    assert repr(QuadExt(1, 0, 7)) == "QuadExt(a=Fraction(1, 1), b=Fraction(0, 1), d=0)"
    assert repr(F7) == "FieldSpec(p=7, m=1, modulus=None)"


def test_quadratic_values_keep_their_own_equality():
    """A rational QuadExt equals the matching int or Fraction; a value
    class never equals a plain number."""
    assert QuadExt(3, 0, 0) == 3 and QuadExt(Fraction(1, 2), 0, 2) == Fraction(1, 2)
    assert RatValue(Fraction(3)) != Fraction(3) and RatValue(Fraction(3)) != 3


def test_job_config_replace():
    config = make(JobConfig)
    changed = config.replace(mode="full", command="table")
    assert (changed.mode, changed.command) == ("full", "table")
    assert changed.replace(mode="jumps", command="semigroup") == config
    assert config.mode == "jumps"


def test_importing_the_library_loads_no_dataclasses():
    """The modules the benchmark worker imports, in a fresh interpreter."""
    root = str(pathlib.Path(deltacodes.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import deltacodes.cli, deltacodes.minweight, deltacodes.semigroup\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
