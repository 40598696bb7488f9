import json

import pytest

from cachebc import (
    ConfigError,
    DemandSet,
    RateMemoryTuple,
    SchemeParameters,
    SystemConfig,
    config_from_json,
    config_to_json,
    validate_config,
)


def make(**kw):
    base = dict(K=2, D=3, F=1, deltas=[0.8, 0.2], rates=[1.0] * 3, memories=[0.5, 0.5])
    base.update(kw)
    return SystemConfig(**base)


def test_valid_config_accepted():
    cfg = make()
    assert validate_config(cfg) is cfg


def test_nonincreasing_deltas_rejected():
    with pytest.raises(ConfigError, match="deltas not nonincreasing"):
        make(deltas=[0.2, 0.8])


def test_noiseless_boundary_accepted():
    cfg = make(deltas=[0.0, 0.0], F=1)
    assert cfg.deltas == (0.0, 0.0)


@pytest.mark.parametrize(
    "field,value,msg",
    [
        ("K", 0, "K"),
        ("F", -1, "F"),
        ("deltas", [0.8, 1.2], "deltas"),
        ("deltas", [0.8], "deltas"),
        ("rates", [1.0, -0.1, 1.0], "rates"),
        ("rates", [1.0], "rates"),
        ("memories", [-1.0, 0.0], "memories"),
        ("n", 0, "n"),
        ("rates", [1.0, float("inf"), 1.0], "rates"),
        ("memories", [float("inf"), 0.0], "memories"),
    ],
)
def test_each_violation_names_the_field(field, value, msg):
    with pytest.raises(ConfigError, match=msg):
        make(**{field: value})


def test_json_round_trip():
    cfg = make(n=500, demand_set=DemandSet(kind="common"))
    assert config_from_json(config_to_json(cfg)) == cfg
    cfg2 = make(demand_set=DemandSet(kind="explicit-list", tuples=((1, 2), (3, 3))))
    assert config_from_json(config_to_json(cfg2)) == cfg2


@pytest.mark.parametrize("field", ["rates", "memories"])
def test_non_finite_json_rejected(field):
    obj = json.loads(config_to_json(make()))
    obj[field][0] = float("inf")
    text = json.dumps(obj)
    assert "Infinity" in text  # Python's json writes and parses this token
    with pytest.raises(ConfigError, match=field):
        config_from_json(text)


def test_unknown_keys_rejected():
    obj = json.loads(config_to_json(make()))
    obj["extra"] = 1
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_json(json.dumps(obj))


def test_missing_key_rejected():
    obj = json.loads(config_to_json(make()))
    del obj["F"]
    with pytest.raises(ConfigError, match="missing config key: F"):
        config_from_json(json.dumps(obj))


def test_demand_set_sizes_and_enumeration():
    full = DemandSet()
    assert full.size(2, 3) == 9
    assert len(list(full.iter_tuples(2, 3))) == 9
    common = DemandSet(kind="common")
    tuples = list(common.iter_tuples(2, 3))
    assert tuples == [(1, 1), (2, 2), (3, 3)]
    assert all(len(set(t)) == 1 for t in tuples)
    with pytest.raises(ConfigError):
        DemandSet(kind="explicit-list", tuples=((1, 4),)).validate(2, 3)
    with pytest.raises(ConfigError):
        DemandSet(kind="bogus").validate(2, 3)


def test_full_product_is_lazy():
    big = DemandSet()
    assert big.size(8, 10) == 10**8
    it = big.iter_tuples(8, 10)
    assert next(it) == (1,) * 8


def test_rate_memory_tuple_nonnegative():
    RateMemoryTuple(rates=(1.0, 0.0), memories=(0.5,))
    with pytest.raises(ConfigError):
        RateMemoryTuple(rates=(-1.0,), memories=(0.5,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["rates", "memories"])
def test_rate_memory_tuple_rejects_non_finite(field, bad):
    entries = dict(rates=(1.0, 0.5), memories=(0.5,))
    entries[field] = (0.5, bad)
    with pytest.raises(ConfigError, match=field):
        RateMemoryTuple(**entries)


def test_scheme_parameters_validation():
    p = SchemeParameters(K0=2, t=1, beta=(0.5, 0.3, 0.2), piggyback=((0.1,), (0.0,)))
    p.validate(3)
    assert p.piggyback_rate(1, 3) == 0.1
    with pytest.raises(ConfigError):
        SchemeParameters(K0=2, t=2, beta=(0.5, 0.5)).validate(2)
    with pytest.raises(ConfigError):
        SchemeParameters(K0=2, t=1, beta=(0.7, 0.7)).validate(2)
    # degenerate single-cached-receiver scheme is allowed with t = 1
    SchemeParameters(K0=1, t=1, beta=(0.6, 0.4)).validate(2)
