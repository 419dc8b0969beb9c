"""Every record class against a stdlib `dataclasses.dataclass` twin.

The record classes are found by walking the five library modules, so a
new record is covered here without editing this file.  Each twin is the
record's class statement run again without its decorator (so with the
same annotations, defaults, `__post_init__` and other methods), under
`dataclasses.dataclass(frozen=True, eq=...)` with the `eq` keyword of the
record's own decorator line.  The stdlib decorator appears in this file
only, as the oracle.
"""

import __future__
import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmshift
from cmshift import _record
from cmshift.exactval import Interval, LogLinear
from cmshift.measures import CylinderFunction, canonical_cylinders
from cmshift.shifts import ShiftSpec, full_shift
from cmshift.suspension import RoofFunction, tail_log1p
from import_guard import record_classes

RECORDS = record_classes()


def make_twin(cls):
    """Run the class statement again without its decorator, in the
    module's namespace, and apply the stdlib decorator with the `eq` of
    the `@record(...)` line."""
    (node,) = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
    (decorator,) = node.decorator_list
    keywords = getattr(decorator, "keywords", [])
    eq = {k.arg: ast.literal_eval(k.value) for k in keywords}.get("eq", True)
    node.decorator_list = []
    code = compile(
        ast.Module([node], type_ignores=[]), inspect.getsourcefile(cls), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = dict(vars(sys.modules[cls.__module__]))
    exec(code, namespace)
    plain = namespace[cls.__name__]
    body = set(vars(plain))
    return dataclasses.dataclass(frozen=True, eq=eq)(plain), eq, body


TWINS, BODY, OTHERS = {}, {}, {}
for cls in RECORDS:
    TWINS[cls], eq, BODY[cls] = make_twin(cls)
    # a record of another class with the same fields
    OTHERS[cls] = _record.record(eq=eq)(
        type("Other", (), {"__annotations__": dict(cls.__annotations__)})
    )
IDS = [cls.__name__ for cls in RECORDS]

# a few hashable values, some equal across types (1, True, Fraction(1)),
# so that drawn records are often equal
VALUES = st.sampled_from(
    [0, 1, True, Fraction(1), -3, Fraction(1, 2), Fraction(5, 3), 2.5, "", "a", (), (1, 2), None]
)


def outcome(fn):
    """What `fn()` does: its result, or the type and text of its error."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return ("raise", type(exc), str(exc))


def build(cls, values):
    made = outcome(lambda: cls(*values))
    return made[1] if made[0] == "ok" else None


def field_values(cls, data):
    n = len(cls.__record_fields__)
    return data.draw(st.lists(VALUES, min_size=n, max_size=n))


def test_the_walk_finds_the_records_and_no_stdlib_dataclass():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Interval", "LogLinear", "ShiftSpec", "PeriodicOrbit", "PeriodicMeasure",
            "ConvexCombination", "RoofFunction", "FlowMeasure"} <= names
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)
    assert all(cls.__record_fields__ == tuple(TWINS[cls].__dataclass_fields__) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_construction_and_repr_match_the_twin(cls, data):
    twin, names = TWINS[cls], cls.__record_fields__
    values = field_values(cls, data)
    required = sum(n not in vars(cls) for n in names)
    calls = [
        (values, {}),
        ((), dict(zip(names, values))),
        (values[:required], {}),
        (values[:1], dict(zip(names[1:required], values[1:required]))),
    ]
    for args, kwargs in calls:
        got = outcome(lambda: repr(cls(*args, **kwargs)))
        want = outcome(lambda: repr(twin(*args, **kwargs)))
        assert got == want
    # too many arguments, or one missing, fail with the same message
    if required:
        assert outcome(lambda: cls(*values[: required - 1])) == outcome(
            lambda: twin(*values[: required - 1])
        )
    assert outcome(lambda: cls(*values, 0)) == outcome(lambda: twin(*values, 0))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_eq_and_hash_match_the_twin(cls, data):
    twin = TWINS[cls]
    u, v = field_values(cls, data), field_values(cls, data)
    pairs = [(build(cls, u), build(cls, v)), (build(twin, u), build(twin, v))]
    a, b = pairs[0]
    ta, tb = pairs[1]
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    assert (cls.__hash__ is object.__hash__) == (twin.__hash__ is object.__hash__)
    if a is None or b is None:
        assert (ta is None, tb is None) == (a is None, b is None)
        return
    if "__eq__" in BODY[cls]:
        # the class's own `__eq__` (LogLinear's exact value test) is kept;
        # it tests for its own class, so a twin cannot stand in for it
        assert cls.__eq__.__code__.co_code == TWINS[cls].__eq__.__code__.co_code
        return
    assert outcome(lambda: a == b) == outcome(lambda: ta == tb)
    assert outcome(lambda: a != b) == outcome(lambda: ta != tb)
    if cls.__hash__ is not object.__hash__:
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
    # a different class with equal fields is never equal
    for x in (ta, OTHERS[cls](*u)):
        assert a != x and x != a and not (a == x)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_are_frozen_as_in_the_twin(cls):
    def frozen_errors(kind):
        # built around `__init__`, so any class has an instance to poke
        obj = object.__new__(kind)
        for name in cls.__record_fields__:
            object.__setattr__(obj, name, 0)
        errors = []
        for name in (*cls.__record_fields__, "not_a_field"):
            for act in (lambda: setattr(obj, name, 1), lambda: delattr(obj, name)):
                with pytest.raises(AttributeError) as info:
                    act()
                errors.append(str(info.value))
        return errors

    assert frozen_errors(cls) == frozen_errors(TWINS[cls])


POST_INIT_CASES = [
    (Interval, (Fraction(1, 3), Fraction(1, 2))),
    (Interval, (Fraction(1, 2), Fraction(1, 3))),
    (Interval, (0, "x")),
    (CylinderFunction, ([((1,), Fraction(1, 2)), ((1, 2), 1)], [(1, 3)])),
    (CylinderFunction, ({(2,): Fraction(3, 2)}, {})),
    (CylinderFunction, (5, {})),
    (RoofFunction, ("r", 1, {}, tail_log1p(), LogLinear.log_of(2), Fraction(0))),
    (RoofFunction, ("r", 1, [([2], 3)], None, 1, Fraction(0))),
    (RoofFunction, ("r", 0, {}, None, 1, Fraction(0))),
    (RoofFunction, ("r", 1, {}, None, 1, Fraction(0))),
    (RoofFunction, ("r", 2, {(1,): 3}, None, 1, Fraction(0))),
    (RoofFunction, ("r", 1, {(0,): 3}, None, 1, Fraction(0))),
    (RoofFunction, ("r", 1, {(1,): -3}, None, 1, Fraction(0))),
    (RoofFunction, ("r", 1, {(1,): 2.5}, None, 1, Fraction(0))),
    (RoofFunction, ("r", 1, {(1,): 3}, None, 0, Fraction(0))),
]


@pytest.mark.parametrize("cls, args", POST_INIT_CASES)
def test_post_init_checks_and_normalises_as_in_the_twin(cls, args):
    def fields(kind):
        obj = kind(*args)
        return [getattr(obj, n) for n in cls.__record_fields__]

    got, want = outcome(lambda: fields(cls)), outcome(lambda: fields(TWINS[cls]))
    assert repr(got) == repr(want)


def test_cached_property_caches_on_a_frozen_record():
    value = LogLinear.log_of(3)
    first = value._enclosure
    assert value._enclosure is first and vars(value)["_enclosure"] is first
    with pytest.raises(AttributeError):
        value.rational = Fraction(0)


def test_shift_spec_is_identity_hashed_and_weakly_referenced():
    spec = ShiftSpec("s", lambda i, j: True)
    twin = ShiftSpec("s", spec.allowed)
    assert spec != twin and hash(spec) == object.__hash__(spec)
    ref = weakref.ref(spec)
    assert ref() is spec
    # enumerating another shift's cylinders keeps nothing alive
    full = full_shift()
    canonical_cylinders(full, 3)
    del spec
    assert ref() is None


def test_importing_the_cli_compiles_one_function_per_record_and_no_dataclasses():
    guard = Path(__file__).with_name("import_guard.py")
    env = {**os.environ, "PYTHONPATH": str(Path(cmshift.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, str(guard)], capture_output=True, text=True, env=env, check=False
    )
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout)
    assert result["records"] == len(RECORDS)
    assert result["compiles"] <= len(RECORDS)
    assert result["dataclasses"] is False
