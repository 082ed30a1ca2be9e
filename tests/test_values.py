"""The ``world.value`` classes behave like stock frozen dataclasses.

``value`` replaces the stock ``__init__`` of the per-tick and per-message
types with one that writes each slot through its member descriptor. Each
class is checked against a twin built from its own annotations with a stock
``@dataclass(frozen=True)``: freezing, equality, hashing, repr, keyword and
default construction, ``dataclasses.replace`` and ``dataclasses.fields``
must all agree, and every ``__post_init__`` check must still raise.
"""

import dataclasses
import inspect
import math
from types import SimpleNamespace

import pytest

from lockon import autonomy, bus, metrics, payloads, proxy, runner, scenario, server, vision, world
from lockon.autonomy import ControlGains, lock_guidance
from lockon.bus import Envelope
from lockon.payloads import (
    CrashReport,
    LockReport,
    OffsetMessage,
    TelemetryRequest,
    TelemetryResponse,
)
from lockon.world import PursuerState, SteeringCommand, Vec3, value

POSITION = Vec3(1.5, -2.0, 10.0)

# class -> two argument tuples that build unequal instances
SAMPLES = {
    Vec3: [(1.0, -2.0, 3.5), (1.0, -2.0, -0.0)],
    Envelope: [("/lock", b"{}", "autonomous", 3, 7), ("/lock", b"{}", "autonomous", 4, 7)],
    TelemetryRequest: [("uav-1", 1.5, POSITION, "SEARCH"), ("uav-1", 1.5, POSITION, "LOCK")],
    TelemetryResponse: [(True, "T1", POSITION, 2), (False, None, None, 0)],
    LockReport: [("uav-1", "T1", 3, 9, POSITION), ("uav-1", "T2", 3, 9, POSITION)],
    OffsetMessage: [(0.25, -0.5, 12), (0.25, -0.5, 13)],
    CrashReport: [("uav-1", 2.0, POSITION), ("uav-2", 2.0, POSITION)],
}

# Every frozen, slotted dataclass of the package is a value class. The
# PursuerState is not frozen: world.step updates a run's one pursuer in place.
MODULES = (world, bus, payloads, vision, autonomy, proxy, server, metrics, scenario, runner)


def stock_twin(cls):
    """The class's declared fields and defaults under a stock @dataclass(frozen=True)."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(
        cls.__name__,
        [(name, kind, dataclasses.field(default=defaults[name]))
         for name, kind in cls.__annotations__.items()],
        frozen=True,
        namespace=namespace,
    )


def parameters(cls):
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def test_every_value_class_is_sampled():
    frozen_slotted = {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if dataclasses.is_dataclass(obj) and isinstance(obj, type)
        and obj.__dataclass_params__.frozen and "__slots__" in vars(obj)
    }
    assert frozen_slotted == set(SAMPLES)
    assert not PursuerState.__dataclass_params__.frozen


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_value_class_matches_a_stock_frozen_dataclass(cls):
    twin = stock_twin(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == [f.name for f in dataclasses.fields(twin)] == list(cls.__annotations__)
    assert parameters(cls) == parameters(twin)

    (first, second) = SAMPLES[cls]
    a, b, a_again = cls(*first), cls(*second), cls(*first)
    ta, tb = twin(*first), twin(*second)
    assert (a == a_again, a == b, a != b) == (True, ta == tb, ta != tb)
    assert hash(a) == hash(a_again) == hash(ta) and hash(b) == hash(tb)
    assert repr(a) == repr(ta) and repr(b) == repr(tb)

    # Keyword construction, defaults and dataclasses.replace.
    assert cls(**dict(zip(names, first))) == a
    defaulted = {f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    required = dict((name, v) for name, v in zip(names, first) if name not in defaulted)
    assert repr(cls(**required)) == repr(twin(**required))
    assert dataclasses.replace(a) == a
    if names:
        assert dataclasses.replace(a, **dict(zip(names, second))) == b

    # Frozen: assigning or deleting a field raises like the stock class.
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
    assert a == a_again


@pytest.mark.parametrize(
    "build",
    [
        # The command is steered in place with no checks: the law and the gains check it.
        lambda: ControlGains(v_lock=-1.0),
        lambda: lock_guidance(SimpleNamespace(x=math.nan, y=0.0), ControlGains(), SteeringCommand()),
        lambda: ControlGains(k_pitch=math.inf),
        lambda: OffsetMessage(x=1.5, y=0.0, tick=0),
        lambda: OffsetMessage(0.0, 0.0, -1),
        lambda: TelemetryResponse(True, None, None, 0),
        lambda: TelemetryResponse(has_target=True, target_id="T1", target_position=None,
                                  remaining_targets=1),
        lambda: LockReport("uav-1", "T1", 9, 3, POSITION),
        lambda: Envelope("/lock", CrashReport("uav-1", math.nan, POSITION), "vision", 0, 1),
        lambda: OffsetMessage(math.nan, 0.0, 0),
    ],
)
def test_post_init_checks_still_raise(build):
    with pytest.raises(ValueError):
        build()


def test_unsupported_fields_are_refused_at_decoration():
    with pytest.raises(TypeError, match="plain default"):
        @value
        class Factory:
            items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="plain default"):
        @value
        class Hidden:
            cached: int = dataclasses.field(default=0, init=False)

    with pytest.raises(TypeError, match="InitVar"):
        @value
        class WithInitVar:
            x: float
            scale: dataclasses.InitVar[float] = 1.0
