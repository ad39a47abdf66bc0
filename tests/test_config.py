"""Property tests of the config round trip through its manifest form.

A manifest records each point's config as ``config_to_dict`` and its
``config_hash``. Reading the recorded dict back must give the same config,
and two configs share a hash exactly when they are equal, however a float
field was spelled (3 or 3.0, -0.0 or 0.0).
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rasim.acb import AcbPolicy
from rasim.config import ConfigError, config_from_dict, config_hash, config_to_dict
from rasim.engine import SimulationConfig
from rasim.slicing import GridConfig
from rasim.traffic import TrafficConfig

# float fields also take integers, and -0.0
unit = st.one_of(st.floats(0.0, 1.0), st.just(-0.0), st.integers(0, 1))
positive = st.one_of(st.floats(0.0, 1e6, exclude_min=True), st.integers(1, 10**6))
counts = st.integers(0, 10**6)
powers_of_two = st.sampled_from([2**k for k in range(1, 11)])
steady_fractions = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1))


@st.composite
def traffic_configs(draw):
    k_m = draw(counts)
    return TrafficConfig(
        k_m=k_m,
        k_u=draw(counts),
        p_act=draw(unit),
        k_m_periodic=draw(st.integers(0, k_m)),
        t_m=draw(st.integers(1, 1000)),
        t_u=draw(st.integers(1, 1000)),
        alpha=draw(positive),
        beta=draw(positive),
    )


grid_configs = st.builds(
    GridConfig,
    f=st.integers(1, 500),
    s=st.integers(1, 100),
    nu=st.integers(1, 100),
    p_u=st.integers(1, 10**4),
    p_m=st.integers(1, 10**4),
    m_u=powers_of_two,
    m_m=powers_of_two,
    xi=st.integers(0, 100),
)

policies = st.one_of(
    st.sampled_from([AcbPolicy("gf"), AcbPolicy("opt-inv"), AcbPolicy("opt-lit")]),
    unit.map(lambda p: AcbPolicy("static", p)),
)

predictors = st.one_of(
    st.sampled_from(["perfect", "naive"]),
    st.text(min_size=1).map(lambda path: f"lstm:{path}"),
)

slicers = st.one_of(
    st.sampled_from(["maxrect", "fixed"]),
    counts.map(lambda l_u: f"fixed:{l_u}"),
    st.tuples(counts, counts).map(lambda c: f"counts:{c[0]},{c[1]}"),
)

configs = st.builds(
    SimulationConfig,
    traffic=traffic_configs(),
    grid=grid_configs,
    acb=policies,
    predictor=predictors,
    slicer=slicers,
    frames=st.integers(1, 10**6),
    realizations=st.integers(1, 10**4),
    seed=st.integers(0, 2**63),
    t_w=st.integers(1, 1000),
    steady_fraction=steady_fractions,
)


def _integral_as_int(text):
    value = float(text)
    return int(value) if value.is_integer() else value


def _hash(cfg):
    return config_hash(config_to_dict(cfg))


@given(cfg=configs)
@settings(max_examples=200, deadline=None)
def test_manifest_form_reads_back_as_the_same_config(cfg):
    recorded = config_to_dict(cfg)
    assert config_from_dict(recorded) == cfg
    # as written to and read from manifest.json
    assert config_from_dict(json.loads(json.dumps(recorded))) == cfg
    assert _hash(config_from_dict(recorded)) == _hash(cfg)


@given(a=configs, data=st.data())
@settings(max_examples=200, deadline=None)
def test_hash_equal_only_for_equal_configs(a, data):
    b = data.draw(st.one_of(st.just(a), configs))
    assert (_hash(a) == _hash(b)) == (a == b)


@given(cfg=configs)
@settings(max_examples=200, deadline=None)
def test_float_fields_hash_alike_however_spelled(cfg):
    # the manifest form with every integral float written as an integer (3.0 as 3, -0.0 as 0)
    respelled = json.loads(json.dumps(config_to_dict(cfg)), parse_float=_integral_as_int)
    assert config_from_dict(respelled) == cfg
    assert _hash(config_from_dict(respelled)) == _hash(cfg)


@pytest.mark.parametrize(
    "a,b",
    [
        ({"traffic": {"alpha": 3}}, {"traffic": {"alpha": 3.0}}),
        ({"traffic": {"p_act": 0}}, {"traffic": {"p_act": -0.0}}),
        ({"steady_fraction": 1}, {"steady_fraction": 1.0}),
        ({"acb": "static:0.0"}, {"acb": "static:-0.0"}),
    ],
)
def test_float_field_spellings_hash_alike(a, b):
    cfg_a, cfg_b = config_from_dict(a), config_from_dict(b)
    assert cfg_a == cfg_b and _hash(cfg_a) == _hash(cfg_b)
    assert config_to_dict(cfg_a) == config_to_dict(cfg_b)


@pytest.mark.parametrize(
    "a,b",
    [
        ("fixed:05", "fixed:5"),
        ("counts:07,047", "counts:7,47"),
        ("maxrect:", "maxrect"),
        ("fixed:", "fixed"),
    ],
)
def test_slicer_spellings_give_one_config(a, b):
    cfg_a, cfg_b = config_from_dict({"slicer": a}), config_from_dict({"slicer": b})
    assert cfg_a == cfg_b and _hash(cfg_a) == _hash(cfg_b)
    assert config_to_dict(cfg_a)["slicer"] == b


@pytest.mark.parametrize(
    "setting,text",
    [("acb", "opt-lit"), ("acb", "static:0.25"), ("predictor", "naive"),
     ("predictor", "lstm:m.txt"), ("slicer", "counts:7,47")],
)
def test_settings_are_stored_parsed(setting, text):
    cfg = config_from_dict({setting: text})
    assert not isinstance(getattr(cfg, setting), str)
    assert getattr(cfg, setting).label == text
    # a typed setting is kept as it is
    assert getattr(dataclasses.replace(cfg), setting) is getattr(cfg, setting)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: TrafficConfig(k_m=1000.0), id="float k_m"),
        pytest.param(lambda: TrafficConfig(alpha=True), id="bool alpha"),
        pytest.param(lambda: TrafficConfig(alpha=10**400), id="alpha beyond float range"),
        pytest.param(lambda: GridConfig(f="50"), id="str f"),
        pytest.param(lambda: AcbPolicy("static", "0.5"), id="str p"),
        pytest.param(lambda: dataclasses.replace(SimulationConfig(), seed=-1), id="seed -1"),
        pytest.param(lambda: dataclasses.replace(SimulationConfig(), predictor=None), id="None predictor"),
        pytest.param(lambda: dataclasses.replace(SimulationConfig(), frames=0), id="frames 0"),
        pytest.param(lambda: dataclasses.replace(SimulationConfig(), acb="static:x"), id="acb static:x"),
        pytest.param(lambda: dataclasses.replace(SimulationConfig(), slicer=5), id="int slicer"),
    ],
)
def test_no_malformed_config_can_be_constructed(make):
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize("field", ["k_m", "k_u"])
def test_population_is_bounded_by_what_numpy_draws(field):
    # numpy's binomial takes at most 2**63 - 1 trials and overflows above
    largest = TrafficConfig(**{field: 2**63 - 1})
    np.random.default_rng(0).binomial(getattr(largest, field), 0.5)
    with pytest.raises(ConfigError, match=f"^{field} must lie in"):
        TrafficConfig(**{field: 2**63})


@given(p=st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_static_factors_one_step_apart_hash_apart(p):
    a = SimulationConfig(acb=AcbPolicy("static", p))
    b = SimulationConfig(acb=AcbPolicy("static", math.nextafter(p, 1.0)))
    assert _hash(a) != _hash(b)
    assert config_from_dict(config_to_dict(b)) == b


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_non_finite_burst_shape_rejected(field, value):
    # NaN compares false with 0, so a "<= 0" check alone would let it through
    with pytest.raises(ConfigError, match="alpha and beta"):
        config_from_dict({"traffic": {field: value}})


@pytest.mark.parametrize(
    "frames,steady_fraction,start",
    [(400, 0.9, 40), (10, 0.9, 1), (60, 0.9, 6), (10, 0.05, 9), (400, 0.2, 320), (7, 1, 0)],
)
def test_steady_window_is_exact_where_floats_land_below_an_integer(frames, steady_fraction, start):
    # 400 * (1 - 0.9) is 39.99... in floats: truncating it kept 361 frames, not 360
    assert SimulationConfig(frames=frames, steady_fraction=steady_fraction).steady_start == start


@given(frames=st.integers(1, 10**6), steady_fraction=steady_fractions)
@settings(max_examples=500, deadline=None)
def test_steady_window_holds_the_ceiling_of_its_share(frames, steady_fraction):
    cfg = SimulationConfig(frames=frames, steady_fraction=steady_fraction)
    window = frames - cfg.steady_start
    assert window == math.ceil(frames * Fraction(repr(cfg.steady_fraction)))
    assert 0 <= cfg.steady_start <= frames - 1
